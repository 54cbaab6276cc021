//! Jobs: task-per-partition execution, checkpointing, recovery.
//!
//! A job consumes one or more input feeds and is split into one task per
//! partition. Progress is checkpointed to the offset manager together
//! with metadata annotations (software version), and state lives in
//! changelog-backed stores — so a restarted job resumes incrementally:
//! it restores state from the changelog and continues from its last
//! committed offsets instead of re-reading history (§4.2).

use std::collections::BTreeMap;

use liquid_kv::LsmConfig;
use liquid_log::RetentionPolicy;
use liquid_messaging::{AckLevel, Cluster, MessageBatch, TopicConfig, TopicPartition};
use liquid_obs::{CounterHandle, GaugeHandle, Obs};
use liquid_sim::failure::FailureInjector;

use crate::error::ProcessingError;
use crate::state::StateStore;
use crate::task::{Outputs, StreamTask, TaskContext};

/// Where a job with no committed offsets begins.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum JobStart {
    /// Resume from committed offsets; fall back to the earliest
    /// retained data (default — incremental processing).
    #[default]
    Committed,
    /// Always start from the earliest retained data (reprocessing).
    Earliest,
    /// Only new data.
    Latest,
}

/// Job configuration.
#[derive(Debug, Clone)]
pub struct JobConfig {
    /// Job name; also namespaces the checkpoint group and changelog.
    pub name: String,
    /// Software version, stored as a checkpoint annotation (§4.2).
    pub version: String,
    /// Input topics. Partition `i` of every input is handled by task `i`.
    pub inputs: Vec<String>,
    /// Acknowledgement level for outputs and changelog writes.
    pub acks: AckLevel,
    /// Checkpoint after this many messages per task (0 = only manual).
    pub checkpoint_every: u64,
    /// Whether tasks get changelog-backed state.
    pub stateful: bool,
    /// Start position when no checkpoint exists.
    pub start: JobStart,
    /// Bytes fetched per input partition per `run_once` round.
    pub fetch_bytes: u64,
    /// Bootstrap inputs (Samza-style): processed to completion before
    /// any other input is touched — e.g. a table feed that must be
    /// materialized before the stream side probes it.
    pub bootstrap: Vec<String>,
    /// Fault injector for checkpoint / changelog-restore crash points.
    pub injector: FailureInjector,
    /// Fault injector threaded into every task's state store.
    pub state_injector: FailureInjector,
}

impl JobConfig {
    /// A stateful job named `name` reading `inputs`.
    pub fn new(name: &str, inputs: &[&str]) -> Self {
        JobConfig {
            name: name.to_string(),
            version: "v1".to_string(),
            inputs: inputs.iter().map(|s| s.to_string()).collect(),
            acks: AckLevel::Leader,
            checkpoint_every: 1000,
            stateful: true,
            start: JobStart::Committed,
            fetch_bytes: 1 << 20,
            bootstrap: Vec::new(),
            injector: FailureInjector::disabled(),
            state_injector: FailureInjector::disabled(),
        }
    }

    /// Marks an input as a bootstrap stream: each round drains it fully
    /// before non-bootstrap inputs are read.
    pub fn bootstrap_input(mut self, topic: &str) -> Self {
        self.bootstrap.push(topic.to_string());
        self
    }

    /// Sets the software version annotation.
    pub fn version(mut self, v: &str) -> Self {
        self.version = v.to_string();
        self
    }

    /// Makes the job stateless (no changelog, no store persistence).
    pub fn stateless(mut self) -> Self {
        self.stateful = false;
        self
    }

    /// Sets the start position for unseen partitions.
    pub fn start_from(mut self, start: JobStart) -> Self {
        self.start = start;
        self
    }

    /// Sets the checkpoint interval in messages.
    pub fn checkpoint_every(mut self, n: u64) -> Self {
        self.checkpoint_every = n;
        self
    }

    /// The changelog topic backing this job's state.
    pub fn changelog_topic(&self) -> String {
        format!("__{}-state", self.name)
    }

    /// The checkpoint group in the offset manager.
    pub fn checkpoint_group(&self) -> String {
        format!("job-{}", self.name)
    }
}

/// Pre-resolved registry handles for the job's execution counters.
/// Handles are atomic, so tasks update them without a lock (the old
/// lockdep-tracked `job.metrics` mutex is gone). Twin
/// counters mirror the `task.checkpoint` / `task.restore` fault sites.
#[derive(Debug, Clone)]
struct JobMetrics {
    rounds: CounterHandle,
    messages: CounterHandle,
    checkpoints: CounterHandle,
    max_task_batch: GaugeHandle,
    task_checkpoint: CounterHandle,
    task_restore: CounterHandle,
}

impl JobMetrics {
    fn resolve(obs: &Obs) -> Self {
        let reg = obs.registry();
        JobMetrics {
            rounds: reg.counter("job.rounds"),
            messages: reg.counter("job.messages"),
            checkpoints: reg.counter("job.checkpoints"),
            max_task_batch: reg.gauge("job.max_task_batch"),
            task_checkpoint: reg.counter("task.checkpoint"),
            task_restore: reg.counter("task.restore"),
        }
    }
}

struct TaskInstance {
    partition: u32,
    task: Box<dyn StreamTask>,
    store: StateStore,
    outputs: Outputs,
    /// Next offset per input partition, in delivery order: bootstrap
    /// inputs first (drained before anything else), then sorted.
    positions: Vec<(TopicPartition, u64)>,
    since_checkpoint: u64,
    /// Span of the last message this task processed (0 = none seen);
    /// stamped onto the task's checkpoint trace events so a checkpoint
    /// is causally linked to the produce that triggered it.
    last_span: u64,
}

impl TaskInstance {
    /// The task's commit unit: buffered changelog writes first, then
    /// buffered outputs. The caller moves the input position only
    /// after both are in the log.
    fn flush(&mut self) -> crate::Result<()> {
        self.store.flush()?;
        self.outputs.flush()
    }

    /// Runs a task callback that sees no input message (`init`,
    /// `window`) and flushes what it buffered, even when it failed.
    fn call(
        &mut self,
        callback: fn(&mut dyn StreamTask, &mut TaskContext<'_>) -> crate::Result<()>,
    ) -> crate::Result<()> {
        let mut ctx = TaskContext {
            partition: self.partition,
            input: None,
            store: &mut self.store,
            outputs: &mut self.outputs,
        };
        let outcome = callback(self.task.as_mut(), &mut ctx);
        self.flush()?;
        outcome
    }
}

/// A running job.
pub struct Job {
    cluster: Cluster,
    config: JobConfig,
    tasks: Vec<TaskInstance>,
    processed_total: u64,
    restored_records: u64,
    metrics: JobMetrics,
}

impl Job {
    /// Instantiates a job: creates the changelog topic if needed,
    /// restores task state from it, and positions every task at its
    /// committed offset (or the configured fallback).
    pub fn new<F>(cluster: &Cluster, config: JobConfig, mut factory: F) -> crate::Result<Self>
    where
        F: FnMut(u32) -> Box<dyn StreamTask>,
    {
        if config.inputs.is_empty() {
            return Err(ProcessingError::InvalidConfig(
                "job needs at least one input".into(),
            ));
        }
        let mut partitions = 0;
        for input in &config.inputs {
            partitions = partitions.max(cluster.partition_count(input)?);
        }
        if config.stateful {
            let changelog = config.changelog_topic();
            match cluster.create_topic(
                &changelog,
                TopicConfig::with_partitions(partitions)
                    .retention(RetentionPolicy::compact())
                    .segment_bytes(64 * 1024),
            ) {
                Ok(()) => {}
                Err(liquid_messaging::MessagingError::TopicExists(_)) => {}
                Err(e) => return Err(e.into()),
            }
        }
        let group = config.checkpoint_group();
        let metrics = JobMetrics::resolve(cluster.obs());
        let mut tasks = Vec::with_capacity(partitions as usize);
        let mut restored_records = 0;
        for p in 0..partitions {
            let mut store = if config.stateful {
                StateStore::with_changelog_config(
                    cluster.clone(),
                    TopicPartition::new(config.changelog_topic(), p),
                    LsmConfig {
                        injector: config.state_injector.clone(),
                        // State stores record into the cluster's sink so
                        // `kv.*` instruments land in the same registry.
                        obs: cluster.obs().clone(),
                        ..LsmConfig::default()
                    },
                )?
            } else {
                StateStore::ephemeral()
            };
            if config.stateful {
                metrics.task_restore.inc();
                if config.injector.tick("task.restore") {
                    // Crash before replaying the changelog: no state was
                    // restored, the job instance never came up.
                    return Err(ProcessingError::Injected("task.restore"));
                }
                restored_records += store.restore_from_changelog()?;
            }
            let mut positions = Vec::new();
            for input in &config.inputs {
                if p >= cluster.partition_count(input)? {
                    continue;
                }
                let tp = TopicPartition::new(input.clone(), p);
                let committed = cluster.offsets().fetch_offset(&group, &tp);
                let offset = match (config.start, committed) {
                    (JobStart::Committed, Some(o)) => o,
                    (JobStart::Committed, None) | (JobStart::Earliest, _) => {
                        cluster.earliest_offset(&tp)?
                    }
                    (JobStart::Latest, _) => cluster.latest_offset(&tp)?,
                };
                positions.push((tp, offset));
            }
            positions.sort_by(|(a, _), (b, _)| {
                let rank = |tp: &TopicPartition| !config.bootstrap.contains(&tp.topic);
                rank(a).cmp(&rank(b)).then_with(|| a.cmp(b))
            });
            let mut instance = TaskInstance {
                partition: p,
                task: factory(p),
                store,
                outputs: Outputs::new(cluster.clone(), config.acks),
                positions,
                since_checkpoint: 0,
                last_span: 0,
            };
            instance.call(|task, ctx| task.init(ctx))?;
            tasks.push(instance);
        }
        Ok(Job {
            cluster: cluster.clone(),
            config,
            tasks,
            processed_total: 0,
            restored_records,
            metrics,
        })
    }

    /// The job configuration.
    pub fn config(&self) -> &JobConfig {
        &self.config
    }

    /// Number of tasks (= partitions of the widest input).
    pub fn task_count(&self) -> usize {
        self.tasks.len()
    }

    /// Messages processed over the job's lifetime (this instance).
    pub fn processed(&self) -> u64 {
        self.processed_total
    }

    /// Changelog records replayed during construction (recovery cost).
    pub fn restored_records(&self) -> u64 {
        self.restored_records
    }

    /// The observability handle shared with the cluster (registry +
    /// tracer): job counters live under `job.*` in the same registry.
    pub fn obs(&self) -> &Obs {
        self.cluster.obs()
    }

    /// A point-in-time snapshot of every registered instrument.
    pub fn snapshot(&self) -> liquid_obs::Snapshot {
        self.cluster.obs().snapshot()
    }

    /// Runs one round: every task fetches one batch from each of its
    /// input partitions and processes it. Returns messages processed.
    pub fn run_once(&mut self) -> crate::Result<u64> {
        self.run_once_limited(u64::MAX)
    }

    /// Like [`run_once`](Self::run_once) but stops each task after
    /// `max_messages_per_task` (resource-isolation throttling, §4.4).
    pub fn run_once_limited(&mut self, max_messages_per_task: u64) -> crate::Result<u64> {
        let mut processed = 0;
        let checkpoint_every = self.config.checkpoint_every;
        for t in &mut self.tasks {
            processed += run_task_once(
                &self.cluster,
                &self.config,
                t,
                max_messages_per_task,
                &self.metrics,
            )?;
            if checkpoint_every > 0 && t.since_checkpoint >= checkpoint_every {
                checkpoint_task(&self.cluster, &self.config, t, &self.metrics)?;
            }
        }
        self.metrics.rounds.inc();
        self.processed_total += processed;
        Ok(processed)
    }

    /// Runs rounds until no input remains (bounded by `max_rounds`).
    /// Returns total messages processed.
    pub fn run_until_idle(&mut self, max_rounds: usize) -> crate::Result<u64> {
        let mut total = 0;
        for _ in 0..max_rounds {
            let n = self.run_once()?;
            total += n;
            if n == 0 {
                break;
            }
        }
        Ok(total)
    }

    /// Invokes every task's `window` callback.
    pub fn tick_windows(&mut self) -> crate::Result<()> {
        for t in &mut self.tasks {
            t.call(|task, ctx| task.window(ctx))?;
        }
        Ok(())
    }

    /// Commits every task's positions to the offset manager, annotated
    /// with the job's software version.
    pub fn checkpoint(&mut self) -> crate::Result<()> {
        for t in &mut self.tasks {
            checkpoint_task(&self.cluster, &self.config, t, &self.metrics)?;
        }
        Ok(())
    }

    /// Total unprocessed messages across all tasks (consumer lag).
    pub fn lag(&self) -> crate::Result<u64> {
        let mut lag = 0u64;
        for t in &self.tasks {
            for (tp, pos) in &t.positions {
                lag = lag.saturating_add(self.cluster.latest_offset(tp)?.saturating_sub(*pos));
            }
        }
        Ok(lag)
    }

    /// Moves a task's position on one input partition — the rewind
    /// primitive (§3.1). No-op if the task does not consume that
    /// partition.
    pub fn seek_input(&mut self, topic: &str, partition: u32, offset: u64) {
        for t in self.tasks.iter_mut().filter(|t| t.partition == partition) {
            for (tp, pos) in &mut t.positions {
                if tp.partition == partition && tp.topic == topic {
                    *pos = offset;
                }
            }
        }
    }

    /// Read access to a task's state (assertions and serving).
    pub fn state(&mut self, partition: u32) -> Option<&mut StateStore> {
        self.tasks
            .iter_mut()
            .find(|t| t.partition == partition)
            .map(|t| &mut t.store)
    }

    /// Sum of live state keys across tasks.
    pub fn total_state_keys(&self) -> usize {
        self.tasks.iter().map(|t| t.store.len()).sum()
    }
}

/// One task's fetch-and-process round. Each input batch is one commit
/// unit: its messages
/// are processed, then the changelog writes and the outputs they
/// buffered are flushed, then the position moves — so a position never
/// covers a message whose effects are not in the log. A failed flush
/// leaves the position at the batch start (at-least-once); a failed
/// task still commits the messages before the one that failed.
fn run_task_once(
    cluster: &Cluster,
    config: &JobConfig,
    t: &mut TaskInstance,
    max_messages: u64,
    metrics: &JobMetrics,
) -> crate::Result<u64> {
    let TaskInstance {
        partition,
        task,
        store,
        outputs,
        positions,
        since_checkpoint,
        last_span,
    } = t;
    let mut processed = 0;
    let mut budget = max_messages;
    let mut bootstrap_lag = 0u64;
    for (tp, pos) in positions.iter_mut() {
        let is_bootstrap = config.bootstrap.contains(&tp.topic);
        if budget == 0 || (!is_bootstrap && bootstrap_lag > 0) {
            // Out of budget, or bootstrap streams not yet caught up:
            // everything from here on is deferred.
            break;
        }
        // Task input arrives as one batch whose payloads still share
        // the log's buffers; messages are materialized lazily one at a
        // time, so a budget cut mid-batch never pays for the tail.
        let batch = cluster.fetch_batch(tp, *pos, config.fetch_bytes)?;
        let mut next = *pos;
        let mut delivered = 0u64;
        let mut outcome = Ok(());
        for msg in batch.messages() {
            if delivered == budget {
                break;
            }
            let mut ctx = TaskContext {
                partition: *partition,
                input: Some(tp),
                store,
                outputs,
            };
            let step = task.process(&msg, &mut ctx).and_then(|()| {
                msg.offset
                    .checked_add(1)
                    .ok_or(ProcessingError::OffsetOverflow {
                        what: "advancing the task position past a message",
                        value: msg.offset,
                    })
            });
            match step {
                Ok(after) => next = after,
                Err(e) => {
                    outcome = Err(e);
                    break;
                }
            }
            delivered += 1;
        }
        trace_delivered(cluster, tp, &batch, delivered as usize, last_span);
        store.flush()?;
        outputs.flush()?;
        *pos = next;
        *since_checkpoint += delivered;
        budget -= delivered;
        processed += delivered;
        outcome?;
        if is_bootstrap {
            bootstrap_lag =
                bootstrap_lag.saturating_add(cluster.latest_offset(tp)?.saturating_sub(next));
        }
    }
    metrics.messages.add(processed);
    metrics.max_task_batch.set_max(processed);
    Ok(processed)
}

/// Traces a `task.deliver` event for each of the first `delivered`
/// messages of `batch` that carries a span — the whole batch under one
/// ring lock, before the round's flushes trace their produces — and
/// notes the last such span for the next checkpoint event.
fn trace_delivered(
    cluster: &Cluster,
    tp: &TopicPartition,
    batch: &MessageBatch,
    delivered: usize,
    last_span: &mut u64,
) {
    let traced = || {
        let records = batch.records().iter().take(delivered).enumerate();
        records
            .map(|(i, r)| (batch.span_at(i), r.offset))
            .filter(|&(span, _)| span != 0)
    };
    // The site is rendered once per batch, and only when a message of
    // it was traced.
    if let Some((span, _)) = traced().next_back() {
        *last_span = span;
        cluster
            .obs()
            .tracer()
            .record_all("task.deliver", &tp.to_string(), traced());
    }
}

fn checkpoint_task(
    cluster: &Cluster,
    config: &JobConfig,
    t: &mut TaskInstance,
    metrics: &JobMetrics,
) -> crate::Result<()> {
    // A committed position must never cover a write that is not in the
    // log, whoever buffered it (a round flushes its own).
    t.flush()?;
    metrics.task_checkpoint.inc();
    if config.injector.tick("task.checkpoint") {
        // Crash before any position is committed: on restart the task
        // re-reads from its previous checkpoint (at-least-once).
        return Err(ProcessingError::Injected("task.checkpoint"));
    }
    let group = config.checkpoint_group();
    let mut metadata = BTreeMap::new();
    metadata.insert("version".to_string(), config.version.clone());
    // Delivery order is fixed at construction, so a fault injected
    // mid-checkpoint hits a deterministic partial prefix of commits
    // (still at-least-once on restart).
    for (tp, offset) in &t.positions {
        cluster
            .offsets()
            .commit(&group, tp, *offset, metadata.clone())?;
    }
    cluster
        .obs()
        .tracer()
        .record(t.last_span, "task.checkpoint", &group, t.since_checkpoint);
    t.since_checkpoint = 0;
    metrics.checkpoints.inc();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::FnTask;
    use bytes::Bytes;
    use liquid_messaging::{ClusterConfig, Message, TopicConfig};
    use liquid_sim::clock::SimClock;

    fn b(s: &str) -> Bytes {
        Bytes::from(s.to_string())
    }

    fn setup(partitions: u32) -> Cluster {
        let c = Cluster::new(ClusterConfig::with_brokers(1), SimClock::new(0).shared());
        c.create_topic("in", TopicConfig::with_partitions(partitions))
            .unwrap();
        c.create_topic("out", TopicConfig::with_partitions(partitions))
            .unwrap();
        c
    }

    fn fill(c: &Cluster, topic: &str, partition: u32, n: u64) {
        let tp = TopicPartition::new(topic, partition);
        for i in 0..n {
            c.produce_to(
                &tp,
                Some(b(&format!("k{i}"))),
                b(&format!("m{i}")),
                AckLevel::Leader,
            )
            .unwrap();
        }
    }

    fn counting_job(c: &Cluster, name: &str) -> Job {
        Job::new(c, JobConfig::new(name, &["in"]), |_| {
            Box::new(FnTask(|m: &Message, ctx: &mut TaskContext<'_>| {
                ctx.store().add_counter(b"seen", 1)?;
                ctx.send("out", m.key.clone(), m.value.clone())?;
                Ok(())
            }))
        })
        .unwrap()
    }

    #[test]
    fn job_processes_and_forwards() {
        let c = setup(2);
        fill(&c, "in", 0, 10);
        fill(&c, "in", 1, 5);
        let mut job = counting_job(&c, "etl");
        assert_eq!(job.task_count(), 2);
        let n = job.run_until_idle(10).unwrap();
        assert_eq!(n, 15);
        assert_eq!(job.processed(), 15);
        // Outputs forwarded.
        let total_out: u64 = (0..2)
            .map(|p| c.latest_offset(&TopicPartition::new("out", p)).unwrap())
            .sum();
        assert_eq!(total_out, 15);
        assert_eq!(job.lag().unwrap(), 0);
    }

    #[test]
    fn task_per_partition_state_is_isolated() {
        let c = setup(2);
        fill(&c, "in", 0, 10);
        fill(&c, "in", 1, 3);
        let mut job = counting_job(&c, "etl");
        job.run_until_idle(10).unwrap();
        assert_eq!(job.state(0).unwrap().get_counter(b"seen"), 10);
        assert_eq!(job.state(1).unwrap().get_counter(b"seen"), 3);
    }

    #[test]
    fn incremental_processing_resumes_from_checkpoint() {
        let c = setup(1);
        fill(&c, "in", 0, 100);
        {
            let mut job = counting_job(&c, "stats");
            job.run_until_idle(10).unwrap();
            job.checkpoint().unwrap();
        }
        // New data arrives; a fresh instance must only process the delta.
        fill(&c, "in", 0, 7);
        let mut job2 = counting_job(&c, "stats");
        let n = job2.run_until_idle(10).unwrap();
        assert_eq!(n, 7, "only the new data is processed");
        // And the counter continued from restored state.
        assert_eq!(job2.state(0).unwrap().get_counter(b"seen"), 107);
    }

    #[test]
    fn state_recovers_from_changelog_after_crash() {
        let c = setup(1);
        fill(&c, "in", 0, 50);
        {
            let mut job = counting_job(&c, "agg");
            job.run_until_idle(10).unwrap();
            job.checkpoint().unwrap();
            // Crash: instance dropped, local stores lost.
        }
        let mut job2 = counting_job(&c, "agg");
        assert!(job2.restored_records() > 0, "changelog replayed");
        assert_eq!(job2.state(0).unwrap().get_counter(b"seen"), 50);
    }

    #[test]
    fn uncheckpointed_work_is_reprocessed_at_least_once() {
        let c = setup(1);
        fill(&c, "in", 0, 20);
        {
            let mut job = Job::new(
                &c,
                JobConfig::new("dup", &["in"])
                    .checkpoint_every(0)
                    .stateless(),
                |_| {
                    Box::new(FnTask(|m: &Message, ctx: &mut TaskContext<'_>| {
                        ctx.send("out", None, m.value.clone())?;
                        Ok(())
                    }))
                },
            )
            .unwrap();
            job.run_until_idle(10).unwrap();
            // Crash before any checkpoint.
        }
        let mut job2 = Job::new(
            &c,
            JobConfig::new("dup", &["in"])
                .checkpoint_every(0)
                .stateless(),
            |_| {
                Box::new(FnTask(|m: &Message, ctx: &mut TaskContext<'_>| {
                    ctx.send("out", None, m.value.clone())?;
                    Ok(())
                }))
            },
        )
        .unwrap();
        job2.run_until_idle(10).unwrap();
        let out: u64 = c.latest_offset(&TopicPartition::new("out", 0)).unwrap();
        assert_eq!(out, 40, "all 20 inputs emitted twice — at-least-once");
    }

    #[test]
    fn version_annotation_recorded() {
        let c = setup(1);
        fill(&c, "in", 0, 5);
        let mut job = Job::new(
            &c,
            JobConfig::new("versioned", &["in"]).version("v7"),
            |_| Box::new(FnTask(|_: &Message, _: &mut TaskContext<'_>| Ok(()))),
        )
        .unwrap();
        job.run_until_idle(10).unwrap();
        job.checkpoint().unwrap();
        let commit = c
            .offsets()
            .fetch("job-versioned", &TopicPartition::new("in", 0))
            .unwrap();
        assert_eq!(commit.metadata["version"], "v7");
        assert_eq!(commit.offset, 5);
    }

    #[test]
    fn reprocessing_start_earliest_ignores_checkpoint() {
        let c = setup(1);
        fill(&c, "in", 0, 30);
        {
            let mut job = counting_job(&c, "re");
            job.run_until_idle(10).unwrap();
            job.checkpoint().unwrap();
        }
        // Kappa-style: reprocess everything with a new version.
        let mut job2 = Job::new(
            &c,
            JobConfig::new("re", &["in"])
                .version("v2")
                .start_from(JobStart::Earliest)
                .stateless(),
            |_| Box::new(FnTask(|_: &Message, _: &mut TaskContext<'_>| Ok(()))),
        )
        .unwrap();
        let n = job2.run_until_idle(10).unwrap();
        assert_eq!(n, 30, "full history reprocessed");
    }

    #[test]
    fn throttled_run_limits_messages() {
        let c = setup(1);
        fill(&c, "in", 0, 100);
        let mut job = counting_job(&c, "slow");
        let n = job.run_once_limited(10).unwrap();
        assert_eq!(n, 10);
        assert_eq!(job.lag().unwrap(), 90);
    }

    #[test]
    #[cfg(not(feature = "obs-off"))]
    fn snapshot_tracks_rounds_messages_and_checkpoints() {
        let c = setup(1);
        fill(&c, "in", 0, 30);
        let mut job = counting_job(&c, "meter");
        job.run_until_idle(10).unwrap();
        job.checkpoint().unwrap();
        let snap = job.snapshot();
        assert_eq!(snap.counter("job.messages"), 30);
        assert_eq!(snap.gauge("job.max_task_batch"), Some(30));
        assert!(
            snap.counter("job.rounds") >= 2,
            "processing round plus the idle round"
        );
        assert_eq!(snap.counter("job.checkpoints"), 1);
        // Twin counter mirrors every pass through the fault site.
        assert_eq!(snap.counter("task.checkpoint"), 1);
    }

    #[test]
    #[cfg(not(feature = "obs-off"))]
    fn delivered_spans_match_produced_spans() {
        let c = setup(1);
        fill(&c, "in", 0, 3);
        let mut job = counting_job(&c, "traced");
        job.run_until_idle(10).unwrap();
        let events = job.obs().tracer().tail(256);
        let produced: Vec<u64> = events
            .iter()
            .filter(|e| e.kind == "produce" && e.site == "in-0")
            .map(|e| e.span)
            .collect();
        let delivered: Vec<u64> = events
            .iter()
            .filter(|e| e.kind == "task.deliver" && e.site == "in-0")
            .map(|e| e.span)
            .collect();
        assert_eq!(produced.len(), 3);
        assert_eq!(
            produced, delivered,
            "every delivered message carries the span minted at produce"
        );
    }

    #[test]
    fn latest_start_skips_history() {
        let c = setup(1);
        fill(&c, "in", 0, 50);
        let mut job = Job::new(
            &c,
            JobConfig::new("tail", &["in"])
                .start_from(JobStart::Latest)
                .stateless(),
            |_| Box::new(FnTask(|_: &Message, _: &mut TaskContext<'_>| Ok(()))),
        )
        .unwrap();
        assert_eq!(job.run_until_idle(5).unwrap(), 0);
        fill(&c, "in", 0, 3);
        assert_eq!(job.run_until_idle(5).unwrap(), 3);
    }

    #[test]
    fn empty_inputs_rejected() {
        let c = setup(1);
        assert!(Job::new(&c, JobConfig::new("bad", &[]), |_| {
            Box::new(FnTask(|_: &Message, _: &mut TaskContext<'_>| Ok(())))
        })
        .is_err());
    }

    #[test]
    fn task_error_commits_the_messages_before_it() {
        let c = setup(1);
        fill(&c, "in", 0, 5);
        let mut job = Job::new(&c, JobConfig::new("half", &["in"]), |_| {
            Box::new(FnTask(|m: &Message, ctx: &mut TaskContext<'_>| {
                if m.value == b("m2") {
                    return Err(ProcessingError::Task("boom".into()));
                }
                ctx.store().add_counter(b"seen", 1)?;
                ctx.send("out", m.key.clone(), m.value.clone())?;
                Ok(())
            }))
        })
        .unwrap();
        assert!(job.run_once().is_err());
        // What m0 and m1 buffered is in the log, and the position is at
        // the message that failed: a retry fails on it again.
        let out = TopicPartition::new("out", 0);
        let changelog = TopicPartition::new("__half-state", 0);
        assert_eq!(c.latest_offset(&out).unwrap(), 2);
        assert_eq!(c.latest_offset(&changelog).unwrap(), 1);
        assert_eq!(job.lag().unwrap(), 3);
        assert!(job.run_once().is_err());
        assert_eq!(c.latest_offset(&out).unwrap(), 2);
        assert_eq!(job.lag().unwrap(), 3);
        job.seek_input("in", 0, 3);
        assert_eq!(job.run_once().unwrap(), 2);
        assert_eq!(job.state(0).unwrap().get_counter(b"seen"), 4);
        assert_eq!(c.latest_offset(&out).unwrap(), 4);
    }

    #[test]
    fn callbacks_without_input_flush_what_they_buffer() {
        struct Windowed;
        impl StreamTask for Windowed {
            fn init(&mut self, ctx: &mut TaskContext<'_>) -> crate::Result<()> {
                ctx.store().put("started", "yes")
            }
            fn process(&mut self, _: &Message, _: &mut TaskContext<'_>) -> crate::Result<()> {
                Ok(())
            }
            fn window(&mut self, ctx: &mut TaskContext<'_>) -> crate::Result<()> {
                ctx.send("out", None, b("tick")).map(drop)
            }
        }
        let c = setup(1);
        let mut job = Job::new(&c, JobConfig::new("w", &["in"]), |_| Box::new(Windowed)).unwrap();
        let changelog = TopicPartition::new("__w-state", 0);
        assert_eq!(c.latest_offset(&changelog).unwrap(), 1);
        job.tick_windows().unwrap();
        assert_eq!(c.latest_offset(&TopicPartition::new("out", 0)).unwrap(), 1);
        // Writes made through `state()` between rounds are covered by
        // the next checkpoint.
        job.state(0).unwrap().put("served", "1").unwrap();
        job.checkpoint().unwrap();
        assert_eq!(c.latest_offset(&changelog).unwrap(), 2);
    }

    #[test]
    fn task_error_propagates() {
        let c = setup(1);
        fill(&c, "in", 0, 1);
        let mut job = Job::new(&c, JobConfig::new("err", &["in"]).stateless(), |_| {
            Box::new(FnTask(|_: &Message, _: &mut TaskContext<'_>| {
                Err(ProcessingError::Task("boom".into()))
            }))
        })
        .unwrap();
        assert!(matches!(
            job.run_once(),
            Err(ProcessingError::Task(msg)) if msg == "boom"
        ));
    }
}
