//! Cross-crate integration tests: the full stack exercised end to end,
//! mirroring Figure 2 of the paper (feeds in → jobs with tasks and
//! state → feeds out).

use liquid::prelude::*;
use liquid_processing::window::TumblingWindow;
use liquid_workloads::activity::{ActivityEvent, ActivityGen};
use liquid_workloads::rum::{RumEvent, RumGen};

fn stack() -> (Liquid, SimClock) {
    let clock = SimClock::new(0);
    (Liquid::new(LiquidConfig::default(), clock.shared()), clock)
}

#[test]
fn multi_stage_dataflow_through_the_messaging_layer() {
    // raw -> (cleaner) -> clean -> (counter) -> counts
    let (liquid, _) = stack();
    liquid
        .create_source_feed("raw", FeedConfig::default().partitions(2))
        .unwrap();
    liquid
        .create_derived_feed(
            "clean",
            FeedConfig::default().partitions(2),
            Lineage::new("cleaner", "v1", &["raw"]),
        )
        .unwrap();
    liquid
        .create_derived_feed(
            "counts",
            FeedConfig::default()
                .partitions(2)
                .retention(RetentionPolicy::compact()),
            Lineage::new("counter", "v1", &["clean"]),
        )
        .unwrap();

    liquid
        .submit_job(
            JobConfig::new("cleaner", &["raw"]).stateless(),
            ContainerRequest {
                cpu_per_tick: 100_000,
                memory_mb: 128,
            },
            |_| {
                Box::new(FnTask(|m: &Message, ctx: &mut TaskContext<'_>| {
                    if ActivityEvent::decode(&m.value).is_some() {
                        ctx.send("clean", m.key.clone(), m.value.clone())?;
                    }
                    Ok(())
                }))
            },
        )
        .unwrap();
    liquid
        .submit_job(
            JobConfig::new("counter", &["clean"]),
            ContainerRequest {
                cpu_per_tick: 100_000,
                memory_mb: 128,
            },
            |_| {
                Box::new(FnTask(|m: &Message, ctx: &mut TaskContext<'_>| {
                    let key = m.key.clone().unwrap_or_default();
                    let n = ctx.store().add_counter(&key, 1)?;
                    ctx.send("counts", Some(key), Bytes::from(n.to_string()))?;
                    Ok(())
                }))
            },
        )
        .unwrap();

    let producer = liquid.producer("raw").unwrap();
    let mut gen = ActivityGen::new(1, 50, 20);
    for e in gen.batch(500) {
        producer.send(Some(e.key()), e.encode()).unwrap();
    }
    // Also inject garbage the cleaner must drop.
    for _ in 0..25 {
        producer.send_value("not-an-event").unwrap();
    }
    let processed = liquid.run_until_idle(100).unwrap();
    // cleaner sees 525, counter sees 500.
    assert_eq!(processed, 525 + 500);

    let reader = liquid.reader_from_start("counts", "check").unwrap();
    let total: usize = reader
        .poll_batches()
        .unwrap()
        .iter()
        .map(|(_, b)| b.len())
        .sum();
    assert_eq!(total, 500, "every clean event produced one count row");

    // Lineage chain resolves counts -> clean -> raw.
    let chain = liquid.lineage().provenance("counts");
    assert_eq!(chain.len(), 2);
    assert_eq!(chain[0].1.inputs, vec!["clean"]);
    assert_eq!(chain[1].1.inputs, vec!["raw"]);
}

#[test]
fn replicated_stack_survives_broker_failure_mid_pipeline() {
    let clock = SimClock::new(0);
    let liquid = Liquid::new(
        LiquidConfig {
            brokers: 3,
            ..LiquidConfig::default()
        },
        clock.shared(),
    );
    liquid
        .create_source_feed("events", FeedConfig::default().replication(3))
        .unwrap();
    liquid
        .create_derived_feed(
            "out",
            FeedConfig::default().replication(3),
            Lineage::new("fwd", "v1", &["events"]),
        )
        .unwrap();
    // acks=All so nothing is lost on failure.
    let producer = liquid.producer("events").unwrap().with_acks(AckLevel::All);
    for i in 0..100 {
        producer.send_value(format!("m{i}")).unwrap();
    }
    liquid
        .submit_job(
            JobConfig::new("fwd", &["events"]).stateless(),
            ContainerRequest {
                cpu_per_tick: 100_000,
                memory_mb: 128,
            },
            |_| {
                Box::new(FnTask(|m: &Message, ctx: &mut TaskContext<'_>| {
                    ctx.send("out", None, m.value.clone())?;
                    Ok(())
                }))
            },
        )
        .unwrap();
    // Process half, then kill the leader of events-0.
    let tp = TopicPartition::new("events", 0);
    let leader = liquid.cluster().leader(&tp).unwrap().unwrap();
    liquid.cluster().kill_broker(leader).unwrap();
    let processed = liquid.run_until_idle(100).unwrap();
    assert_eq!(processed, 100, "failover is transparent to the job");
    let reader = liquid.reader_from_start("out", "check").unwrap();
    let total: usize = reader
        .poll_batches()
        .unwrap()
        .iter()
        .map(|(_, b)| b.len())
        .sum();
    assert_eq!(total, 100);
}

#[test]
fn windowed_aggregation_survives_job_restart() {
    // A window aggregate mid-flight must survive a crash because its
    // state lives in the changelog.
    let (liquid, _) = stack();
    liquid
        .create_source_feed("rum", FeedConfig::default())
        .unwrap();
    liquid
        .create_derived_feed(
            "means",
            FeedConfig::default(),
            Lineage::new("agg", "v1", &["rum"]),
        )
        .unwrap();
    let producer = liquid.producer("rum").unwrap();
    let mut gen = RumGen::new(2, 10, 100);
    for e in gen.batch(2_000) {
        producer.send(Some(e.key()), e.encode()).unwrap();
    }

    let make_task = || {
        Box::new(FnTask(|m: &Message, ctx: &mut TaskContext<'_>| {
            let Some(e) = RumEvent::decode(&m.value) else {
                return Ok(());
            };
            TumblingWindow::new(5_000).add(ctx.store(), e.timestamp, e.cdn.as_bytes(), 1)?;
            Ok(())
        })) as Box<dyn StreamTask>
    };

    // First instance: process everything, checkpoint, "crash".
    let cluster = liquid.cluster().clone();
    {
        let mut job = Job::new(&cluster, JobConfig::new("agg", &["rum"]), |_| make_task()).unwrap();
        job.run_until_idle(50).unwrap();
        job.checkpoint().unwrap();
        assert!(job.total_state_keys() > 0);
    }
    // Second instance restores from the changelog.
    let mut job2 = Job::new(&cluster, JobConfig::new("agg", &["rum"]), |_| make_task()).unwrap();
    assert!(job2.restored_records() > 0);
    assert!(job2.total_state_keys() > 0, "window state recovered");
    assert_eq!(
        job2.run_until_idle(50).unwrap(),
        0,
        "no reprocessing needed"
    );
}

#[test]
fn consumer_groups_fan_out_to_nearline_and_offline() {
    // The unification story: the same feed serves a nearline consumer
    // group and an "offline" batch-style group independently.
    let (liquid, _) = stack();
    liquid
        .create_source_feed("events", FeedConfig::default().partitions(4))
        .unwrap();
    let producer = liquid.producer("events").unwrap();
    for i in 0..400 {
        producer.send_value(format!("e{i}")).unwrap();
    }
    // Nearline group: two members splitting the partitions.
    let n1 = liquid.consumer_in_group("nearline", "n1");
    let n2 = liquid.consumer_in_group("nearline", "n2");
    n1.subscribe(
        &["events"],
        AssignmentStrategy::Range,
        StartPosition::Earliest,
    )
    .unwrap();
    n2.subscribe(
        &["events"],
        AssignmentStrategy::Range,
        StartPosition::Earliest,
    )
    .unwrap();
    n1.refresh_assignment().unwrap();
    let near1: usize = n1
        .poll_batches()
        .unwrap()
        .iter()
        .map(|(_, b)| b.len())
        .sum();
    let near2: usize = n2
        .poll_batches()
        .unwrap()
        .iter()
        .map(|(_, b)| b.len())
        .sum();
    assert_eq!(near1 + near2, 400);
    assert_eq!(near1, 200);

    // Offline group: one batch reader sees the full feed too.
    let batch = liquid.consumer_in_group("offline", "b1");
    batch
        .subscribe(
            &["events"],
            AssignmentStrategy::Range,
            StartPosition::Earliest,
        )
        .unwrap();
    let offline: usize = batch
        .poll_batches()
        .unwrap()
        .iter()
        .map(|(_, b)| b.len())
        .sum();
    assert_eq!(offline, 400, "pub/sub across groups");
}

#[test]
fn retention_and_rewind_interact_correctly() {
    let clock = SimClock::new(0);
    let liquid = Liquid::new(LiquidConfig::default(), clock.shared());
    liquid
        .create_source_feed(
            "short-lived",
            FeedConfig {
                retention: RetentionPolicy::DropByAge {
                    max_age_ms: 60_000,
                    max_bytes: None,
                },
                segment_bytes: 2_048,
                ..FeedConfig::default()
            },
        )
        .unwrap();
    let producer = liquid.producer("short-lived").unwrap();
    for i in 0..200 {
        clock.advance(1_000);
        producer.send_value(format!("old-{i:05}")).unwrap();
    }
    clock.advance(120_000);
    producer.send_value("fresh").unwrap();
    let (deleted, _) = liquid.maintenance().unwrap();
    assert!(deleted > 0, "old segments reclaimed");
    let tp = TopicPartition::new("short-lived", 0);
    let earliest = liquid.cluster().earliest_offset(&tp).unwrap();
    assert!(earliest > 0);
    // Rewinding to a time inside the retained window works…
    let target = liquid
        .cluster()
        .offset_for_timestamp(&tp, clock.now())
        .unwrap();
    assert!(target.is_some());
    // …and a consumer positioned at Earliest sees only retained data.
    let c = liquid.consumer("c");
    c.assign(tp.clone(), StartPosition::Earliest).unwrap();
    let msgs: usize = c.poll_batches().unwrap().iter().map(|(_, b)| b.len()).sum();
    assert!(msgs < 201);
    assert!(msgs > 0);
}

#[test]
fn offset_manager_annotations_drive_version_aware_resume() {
    let (liquid, _) = stack();
    liquid
        .create_source_feed("in", FeedConfig::default())
        .unwrap();
    let producer = liquid.producer("in").unwrap();
    for i in 0..50 {
        producer.send_value(format!("m{i}")).unwrap();
    }
    let cluster = liquid.cluster().clone();
    let mk = |version: &str| JobConfig::new("vjob", &["in"]).version(version).stateless();
    {
        let mut job = Job::new(&cluster, mk("v1"), |_| {
            Box::new(FnTask(|_: &Message, _: &mut TaskContext<'_>| Ok(())))
        })
        .unwrap();
        job.run_until_idle(20).unwrap();
        job.checkpoint().unwrap();
    }
    for i in 0..10 {
        producer.send_value(format!("late{i}")).unwrap();
    }
    {
        let mut job = Job::new(&cluster, mk("v2"), |_| {
            Box::new(FnTask(|_: &Message, _: &mut TaskContext<'_>| Ok(())))
        })
        .unwrap();
        assert_eq!(job.run_until_idle(20).unwrap(), 10);
        job.checkpoint().unwrap();
    }
    let tp = TopicPartition::new("in", 0);
    let offsets = cluster.offsets();
    assert_eq!(
        offsets
            .last_commit_with("job-vjob", &tp, "version", "v1")
            .unwrap()
            .offset,
        50
    );
    assert_eq!(
        offsets
            .last_commit_with("job-vjob", &tp, "version", "v2")
            .unwrap()
            .offset,
        60
    );
}
