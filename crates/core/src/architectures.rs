//! Lambda / Kappa / Liquid comparators (paper §2.2, experiment E8).
//!
//! All three architectures are run against the *same* task — maintain
//! per-key event counts over a keyed input feed, then handle a logic
//! change that requires reprocessing history — and the same data volume,
//! so their costs are directly comparable:
//!
//! * **Lambda**: the logic exists twice (a batch MapReduce job over a
//!   DFS mirror of the data and a streaming job); the batch layer
//!   recomputes *all* history every cycle.
//! * **Kappa**: one streaming code path; reprocessing replays the whole
//!   log through a second job instance while the serving layer keeps
//!   answering from the (stale) old results.
//! * **Liquid**: one code path; steady state is incremental (only new
//!   data, via offset-manager checkpoints), reprocessing is a Kappa-
//!   style replay but under resource isolation and without a second
//!   storage system, because the log *is* the source of truth.

use bytes::Bytes;
use liquid_dfs::{Dfs, DfsConfig};
use liquid_log::RetentionPolicy;
use liquid_messaging::{AckLevel, Cluster, Message, TopicConfig, TopicPartition};
use liquid_mr::{Emitter, MrJobConfig};
use liquid_processing::{FnTask, Job, JobConfig, JobStart, TaskContext};

/// Cost/fidelity report for one architecture run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArchReport {
    /// Distinct code paths the team must write, test and operate.
    pub code_paths: u32,
    /// Messages/records processed in steady state (per update cycle).
    pub steady_state_work: u64,
    /// Records processed to serve a logic change (reprocessing cost).
    pub reprocess_work: u64,
    /// Messages the serving layer answered from stale results while
    /// reprocessing caught up.
    pub staleness_window: u64,
    /// Storage systems holding a full copy of the data.
    pub data_copies: u32,
}

/// Builds a single-partition keyed topic with `history` + `delta`
/// messages and returns the cluster.
fn seed_cluster(history: u64, delta: u64, keys: u64) -> (Cluster, TopicPartition) {
    let clock = liquid_sim::clock::SimClock::new(0);
    let cluster = Cluster::new(
        liquid_messaging::ClusterConfig::with_brokers(1),
        clock.shared(),
    );
    cluster
        .create_topic("events", TopicConfig::with_partitions(1))
        .unwrap();
    cluster
        .create_topic(
            "counts",
            TopicConfig::with_partitions(1).retention(RetentionPolicy::compact()),
        )
        .unwrap();
    let tp = TopicPartition::new("events", 0);
    for i in 0..(history + delta) {
        cluster
            .produce_to(
                &tp,
                Some(Bytes::from(format!("k{}", i % keys))),
                Bytes::from(format!("e{i}")),
                AckLevel::Leader,
            )
            .unwrap();
    }
    (cluster, tp)
}

fn counting_job(cluster: &Cluster, name: &str, version: &str, start: JobStart) -> Job {
    Job::new(
        cluster,
        JobConfig::new(name, &["events"])
            .version(version)
            .start_from(start),
        |_| {
            Box::new(FnTask(|m: &Message, ctx: &mut TaskContext<'_>| {
                let key = m.key.clone().unwrap_or_else(|| Bytes::from_static(b"_"));
                let n = ctx.store().add_counter(&key, 1)?;
                ctx.send("counts", Some(key), Bytes::from(n.to_string().into_bytes()))?;
                Ok(())
            }))
        },
    )
    .unwrap()
}

/// Runs the Lambda architecture over `history` events plus `delta` new
/// ones, with `cycles` batch recomputations.
pub fn run_lambda(history: u64, delta: u64, keys: u64, cycles: u64) -> ArchReport {
    let (cluster, tp) = seed_cluster(history, delta, keys);
    // Speed layer: streaming counts (code path #1).
    let mut stream = counting_job(&cluster, "lambda-speed", "v1", JobStart::Earliest);
    stream.run_until_idle(100).unwrap();
    let stream_work = stream.processed();

    // Batch layer: MR over a DFS mirror of the data (code path #2,
    // data copy #2). Every cycle recomputes the full history.
    let dfs = Dfs::new(DfsConfig {
        replication: 1,
        datanodes: 1,
        ..DfsConfig::default()
    });
    let all = cluster
        .fetch_batch(&tp, 0, u64::MAX)
        .unwrap()
        .into_messages();
    let mut mirror = String::new();
    for m in &all {
        mirror.push_str(&format!(
            "{}\t{}\n",
            String::from_utf8_lossy(m.key.as_deref().unwrap_or(b"_")),
            String::from_utf8_lossy(&m.value)
        ));
    }
    dfs.write("/mirror/events", mirror.as_bytes()).unwrap();
    let mut batch_work = 0;
    for cycle in 0..cycles {
        let stats = liquid_mr::run_job(
            &dfs,
            &MrJobConfig::new(
                &format!("lambda-batch-{cycle}"),
                "/mirror/",
                &format!("/batch-out-{cycle}"),
            )
            .reducers(1),
            &|k: &str, v: &str, out: &mut Emitter| out.emit(k, v),
            &|k: &str, vs: &[String], out: &mut Emitter| out.emit(k, vs.len().to_string()),
        )
        .unwrap();
        batch_work += stats.records_read;
    }
    ArchReport {
        code_paths: 2,
        steady_state_work: stream_work + batch_work,
        // A logic change re-runs the batch layer once over everything.
        reprocess_work: history + delta,
        // Serving reconciles both layers; no stale window, at the price
        // of the duplicated compute above.
        staleness_window: 0,
        data_copies: 2,
    }
}

/// Runs the Kappa architecture: one streaming path; a logic change
/// spawns a second job that replays the whole log.
pub fn run_kappa(history: u64, delta: u64, keys: u64) -> ArchReport {
    let (cluster, _) = seed_cluster(history, delta, keys);
    let mut live = counting_job(&cluster, "kappa-v1", "v1", JobStart::Earliest);
    live.run_until_idle(100).unwrap();
    let steady = live.processed();
    // Logic change: replay everything from offset 0 in parallel.
    cluster
        .create_topic(
            "counts-v2",
            TopicConfig::with_partitions(1).retention(RetentionPolicy::compact()),
        )
        .unwrap();
    let mut replay = Job::new(
        &cluster,
        JobConfig::new("kappa-v2", &["events"])
            .version("v2")
            .start_from(JobStart::Earliest),
        |_| {
            Box::new(FnTask(|m: &Message, ctx: &mut TaskContext<'_>| {
                let key = m.key.clone().unwrap_or_else(|| Bytes::from_static(b"_"));
                let n = ctx.store().add_counter(&key, 1)?;
                ctx.send(
                    "counts-v2",
                    Some(key),
                    Bytes::from(n.to_string().into_bytes()),
                )?;
                Ok(())
            }))
        },
    )
    .unwrap();
    // While the replay runs, back-end systems read v1 output: the
    // staleness window is everything the replay has to chew through.
    let staleness = replay.lag().unwrap();
    let reprocess = replay.run_until_idle(200).unwrap();
    ArchReport {
        code_paths: 1,
        steady_state_work: steady,
        reprocess_work: reprocess,
        staleness_window: staleness,
        data_copies: 1,
    }
}

/// Runs Liquid: incremental steady state (checkpoint + delta only),
/// rewind-based reprocessing when the logic changes.
pub fn run_liquid(history: u64, delta: u64, keys: u64) -> ArchReport {
    let (cluster, tp) = seed_cluster(history, 0, keys);
    // Steady state: process history once, checkpoint.
    {
        let mut job = counting_job(&cluster, "liquid-counts", "v1", JobStart::Committed);
        job.run_until_idle(200).unwrap();
        job.checkpoint().unwrap();
    }
    // New delta arrives; a fresh instance processes only the delta —
    // the §4.2 incremental path.
    for i in 0..delta {
        cluster
            .produce_to(
                &tp,
                Some(Bytes::from(format!("k{}", i % keys))),
                Bytes::from(format!("d{i}")),
                AckLevel::Leader,
            )
            .unwrap();
    }
    let mut job = counting_job(&cluster, "liquid-counts", "v1", JobStart::Committed);
    let steady = job.run_until_idle(200).unwrap();
    job.checkpoint().unwrap();
    // Logic change: one code path; rewind and replay (same as Kappa),
    // but the offset manager records which offsets v1 covered.
    let mut replay = counting_job(&cluster, "liquid-counts-v2", "v2", JobStart::Earliest);
    let staleness = replay.lag().unwrap();
    let reprocess = replay.run_until_idle(200).unwrap();
    ArchReport {
        code_paths: 1,
        steady_state_work: steady,
        reprocess_work: reprocess,
        staleness_window: staleness,
        data_copies: 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const H: u64 = 500;
    const D: u64 = 50;
    const K: u64 = 10;

    #[test]
    fn lambda_duplicates_code_and_data() {
        let r = run_lambda(H, D, K, 2);
        assert_eq!(r.code_paths, 2);
        assert_eq!(r.data_copies, 2);
        // Batch recomputation makes steady-state work exceed the data
        // volume: stream (H+D) + 2 full batch cycles (2 (H+D)).
        assert!(r.steady_state_work >= 3 * (H + D));
    }

    #[test]
    fn kappa_single_path_but_full_replay_and_staleness() {
        let r = run_kappa(H, D, K);
        assert_eq!(r.code_paths, 1);
        assert_eq!(r.data_copies, 1);
        assert_eq!(r.reprocess_work, H + D);
        assert_eq!(r.staleness_window, H + D, "stale until replay drains");
    }

    #[test]
    fn liquid_incremental_steady_state() {
        let r = run_liquid(H, D, K);
        assert_eq!(r.code_paths, 1);
        assert_eq!(r.data_copies, 1);
        assert_eq!(
            r.steady_state_work, D,
            "steady state processes only the delta"
        );
        assert_eq!(r.reprocess_work, H + D);
    }

    #[test]
    fn liquid_beats_lambda_on_work_and_kappa_ties_on_replay() {
        let lambda = run_lambda(H, D, K, 2);
        let kappa = run_kappa(H, D, K);
        let liquid = run_liquid(H, D, K);
        assert!(liquid.steady_state_work < kappa.steady_state_work);
        assert!(liquid.steady_state_work < lambda.steady_state_work);
        assert_eq!(liquid.reprocess_work, kappa.reprocess_work);
        assert!(liquid.code_paths < lambda.code_paths);
    }
}
