//! Failure-injection tests: the availability story of §4.3 under
//! adversarial schedules.

use liquid::prelude::*;
use liquid_messaging::{Cluster, ClusterConfig, TopicConfig};
use liquid_sim::failure::FailureInjector;

fn b(s: &str) -> Bytes {
    Bytes::from(s.to_string())
}

#[test]
fn rolling_broker_restarts_lose_nothing_with_acks_all() {
    let clock = SimClock::new(0);
    let cluster = Cluster::new(ClusterConfig::with_brokers(3), clock.shared());
    cluster
        .create_topic("t", TopicConfig::with_partitions(2).replication(3))
        .unwrap();
    let producer = liquid_messaging::Producer::new(&cluster, "t")
        .unwrap()
        .with_acks(AckLevel::All);
    let mut sent = 0u64;
    // Rolling restart: kill and revive each broker while producing.
    for round in 0..3u32 {
        for _ in 0..50 {
            producer.send_value(format!("m{sent}")).unwrap();
            sent += 1;
        }
        cluster.kill_broker(round).unwrap();
        for _ in 0..50 {
            producer.send_value(format!("m{sent}")).unwrap();
            sent += 1;
        }
        cluster.restart_broker(round).unwrap();
        cluster.replicate_tick().unwrap();
    }
    // Every message is retrievable.
    let mut got = 0;
    for p in 0..2 {
        let tp = TopicPartition::new("t", p);
        got += cluster
            .fetch_batch(&tp, 0, u64::MAX)
            .unwrap()
            .into_messages()
            .len();
    }
    assert_eq!(got as u64, sent);
}

#[test]
fn double_failure_with_three_replicas_still_serves() {
    let clock = SimClock::new(0);
    let cluster = Cluster::new(ClusterConfig::with_brokers(3), clock.shared());
    cluster
        .create_topic("t", TopicConfig::with_partitions(1).replication(3))
        .unwrap();
    let tp = TopicPartition::new("t", 0);
    for i in 0..20 {
        cluster
            .produce_to(&tp, None, b(&format!("m{i}")), AckLevel::All)
            .unwrap();
    }
    cluster
        .kill_broker(cluster.leader(&tp).unwrap().unwrap())
        .unwrap();
    cluster
        .kill_broker(cluster.leader(&tp).unwrap().unwrap())
        .unwrap();
    // Third replica serves everything: N-1 failures tolerated.
    assert_eq!(
        cluster
            .fetch_batch(&tp, 0, u64::MAX)
            .unwrap()
            .into_messages()
            .len(),
        20
    );
}

#[test]
fn failed_task_resumes_at_least_once_with_state_intact() {
    // A stateful job crashes mid-stream *after* a checkpoint; the
    // replacement restores state from the changelog and reprocesses
    // only the uncheckpointed suffix (at-least-once).
    let clock = SimClock::new(0);
    let cluster = Cluster::new(ClusterConfig::with_brokers(1), clock.shared());
    cluster
        .create_topic("in", TopicConfig::with_partitions(1))
        .unwrap();
    let tp = TopicPartition::new("in", 0);
    for i in 0..100 {
        cluster
            .produce_to(&tp, Some(b("k")), b(&format!("m{i}")), AckLevel::Leader)
            .unwrap();
    }
    let make = || JobConfig::new("crashy", &["in"]).checkpoint_every(0);
    let counted_after_crash;
    {
        let mut job = Job::new(&cluster, make(), |_| {
            Box::new(FnTask(|_: &Message, ctx: &mut TaskContext<'_>| {
                ctx.store().add_counter(b"n", 1)?;
                Ok(())
            }))
        })
        .unwrap();
        // Process 60, checkpoint, process 40 more, crash without
        // checkpointing them.
        job.run_once_limited(60).unwrap();
        job.checkpoint().unwrap();
        job.run_once_limited(40).unwrap();
        counted_after_crash = job.state(0).unwrap().get_counter(b"n");
        assert_eq!(counted_after_crash, 100);
    }
    let mut job2 = Job::new(&cluster, make(), |_| {
        Box::new(FnTask(|_: &Message, ctx: &mut TaskContext<'_>| {
            ctx.store().add_counter(b"n", 1)?;
            Ok(())
        }))
    })
    .unwrap();
    // State restored includes the uncheckpointed updates (they reached
    // the changelog), and input replays from offset 60: duplicates.
    let replayed = job2.run_until_idle(20).unwrap();
    assert_eq!(replayed, 40, "uncheckpointed suffix reprocessed");
    let final_count = job2.state(0).unwrap().get_counter(b"n");
    assert_eq!(
        final_count, 140,
        "at-least-once: 100 + 40 duplicates (no dedup support, §4.3)"
    );
}

#[test]
fn probabilistic_broker_chaos_keeps_committed_data() {
    // Randomized (seeded) kill/restart schedule; with acks=All, every
    // acknowledged message must survive to the end.
    let clock = SimClock::new(0);
    let cluster = Cluster::new(ClusterConfig::with_brokers(3), clock.shared());
    cluster
        .create_topic("t", TopicConfig::with_partitions(1).replication(3))
        .unwrap();
    let tp = TopicPartition::new("t", 0);
    let chaos = FailureInjector::new(4242);
    chaos.set_probability(0.05);
    let mut acked = Vec::new();
    let mut down: Vec<u32> = Vec::new();
    for i in 0..300 {
        // The harness charges its coin-flips to the election site: a
        // fired tick toggles a broker, which is what forces elections.
        if chaos.tick("cluster.election") {
            // Toggle a random-ish broker, but never kill the last one.
            let victim = (i % 3) as u32;
            if down.contains(&victim) {
                cluster.restart_broker(victim).unwrap();
                down.retain(|&d| d != victim);
            } else if down.len() < 2 {
                cluster.kill_broker(victim).unwrap();
                down.push(victim);
            }
            cluster.replicate_tick().unwrap();
        }
        match cluster.produce_to(&tp, None, b(&format!("m{i}")), AckLevel::All) {
            Ok(_) => acked.push(i),
            Err(_) => { /* partition unavailable; producer would retry */ }
        }
    }
    for d in down {
        cluster.restart_broker(d).unwrap();
    }
    cluster.replicate_tick().unwrap();
    let got = cluster
        .fetch_batch(&tp, 0, u64::MAX)
        .unwrap()
        .into_messages();
    assert_eq!(got.len(), acked.len(), "every acked message survived");
    assert!(acked.len() > 250, "chaos should not block most produces");
}

#[test]
fn changelog_compaction_speeds_recovery_after_crash() {
    // §4.1: compaction "not only reduces the changelog size, but also
    // allows for faster recovery".
    let clock = SimClock::new(0);
    let cluster = Cluster::new(ClusterConfig::with_brokers(1), clock.shared());
    cluster
        .create_topic("in", TopicConfig::with_partitions(1))
        .unwrap();
    let tp = TopicPartition::new("in", 0);
    for i in 0..2_000 {
        cluster
            .produce_to(
                &tp,
                Some(b(&format!("k{}", i % 5))),
                b(&format!("m{i}")),
                AckLevel::Leader,
            )
            .unwrap();
    }
    let make = || JobConfig::new("hotkeys", &["in"]);
    {
        let mut job = Job::new(&cluster, make(), |_| {
            Box::new(FnTask(|m: &Message, ctx: &mut TaskContext<'_>| {
                let key = m.key.clone().unwrap_or_default();
                ctx.store().put(key, m.value.clone())?;
                Ok(())
            }))
        })
        .unwrap();
        // A round coalesces its changelog writes per key, so drive the
        // job in rounds of five: one changelog record per input, and
        // history for compaction to cut.
        while job.run_once_limited(5).unwrap() > 0 {}
        job.checkpoint().unwrap();
    }
    // Recovery without compaction replays every update.
    let job_uncompacted = Job::new(&cluster, make(), |_| {
        Box::new(FnTask(|_: &Message, _: &mut TaskContext<'_>| Ok(())))
    })
    .unwrap();
    let replay_before = job_uncompacted.restored_records();
    assert_eq!(replay_before, 2_000);
    drop(job_uncompacted);
    cluster.compact_topic("__hotkeys-state").unwrap();
    let job_compacted = Job::new(&cluster, make(), |_| {
        Box::new(FnTask(|_: &Message, _: &mut TaskContext<'_>| Ok(())))
    })
    .unwrap();
    let replay_after = job_compacted.restored_records();
    assert!(
        replay_after * 2 < replay_before,
        "compaction should cut replay: {replay_before} -> {replay_after}"
    );
}
