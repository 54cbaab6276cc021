//! Criterion microbenchmarks for the processing layer: job throughput
//! (E1/E5 companions), state-store and window costs, and changelog
//! restore (E4 companion).

use bytes::Bytes;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use liquid_log::RetentionPolicy;
use liquid_messaging::{AckLevel, Cluster, ClusterConfig, Message, TopicConfig, TopicPartition};
use liquid_processing::window::TumblingWindow;
use liquid_processing::{FnTask, Job, JobConfig, StateStore, TaskContext};
use liquid_sim::clock::SimClock;

fn cluster_with(topic: &str, partitions: u32, messages: u64) -> Cluster {
    let c = Cluster::new(ClusterConfig::with_brokers(1), SimClock::new(0).shared());
    c.create_topic(topic, TopicConfig::with_partitions(partitions))
        .unwrap();
    for p in 0..partitions {
        let tp = TopicPartition::new(topic, p);
        for i in 0..messages {
            c.produce_to(
                &tp,
                Some(Bytes::from(format!("k{}", i % 64))),
                Bytes::from(format!("value-{i:040}")),
                AckLevel::Leader,
            )
            .unwrap();
        }
    }
    c
}

/// Stateless forwarding throughput (the E1 per-stage cost).
fn stateless_job_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("job_throughput");
    group.sample_size(10);
    group.throughput(Throughput::Elements(10_000));
    group.bench_function("stateless_10k", |b| {
        b.iter_batched(
            || {
                let cluster = cluster_with("in", 1, 10_000);
                cluster
                    .create_topic("out", TopicConfig::with_partitions(1))
                    .unwrap();
                Job::new(&cluster, JobConfig::new("fwd", &["in"]).stateless(), |_| {
                    Box::new(FnTask(|m: &Message, ctx: &mut TaskContext<'_>| {
                        ctx.send("out", m.key.clone(), m.value.clone())?;
                        Ok(())
                    }))
                })
                .unwrap()
            },
            |mut job| job.run_until_idle(10).unwrap(),
            criterion::BatchSize::LargeInput,
        );
    });
    group.throughput(Throughput::Elements(10_000));
    group.bench_function("stateful_counter_10k", |b| {
        b.iter_batched(
            || {
                let cluster = cluster_with("in", 1, 10_000);
                Job::new(&cluster, JobConfig::new("count", &["in"]), |_| {
                    Box::new(FnTask(|m: &Message, ctx: &mut TaskContext<'_>| {
                        let key = m.key.clone().unwrap_or_default();
                        ctx.store().add_counter(&key, 1)?;
                        Ok(())
                    }))
                })
                .unwrap()
            },
            |mut job| job.run_until_idle(10).unwrap(),
            criterion::BatchSize::LargeInput,
        );
    });
    group.finish();
}

/// State-store operations with and without a changelog.
fn state_store_ops(c: &mut Criterion) {
    let mut group = c.benchmark_group("state_store");
    group.throughput(Throughput::Elements(1));
    group.bench_function("put_ephemeral", |b| {
        let mut store = StateStore::ephemeral();
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            store
                .put(format!("key-{}", i % 1_000), format!("value-{i}"))
                .unwrap()
        });
    });
    group.bench_function("put_with_changelog", |b| {
        let cluster = Cluster::new(ClusterConfig::with_brokers(1), SimClock::new(0).shared());
        cluster
            .create_topic(
                "cl",
                TopicConfig::with_partitions(1).retention(RetentionPolicy::compact()),
            )
            .unwrap();
        let mut store = StateStore::with_changelog(cluster, TopicPartition::new("cl", 0)).unwrap();
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            store
                .put(format!("key-{}", i % 1_000), format!("value-{i}"))
                .unwrap();
            // Changelog writes are buffered: time the write to the
            // changelog, not the buffering of it.
            store.flush().unwrap()
        });
    });
    group.bench_function("get_hot", |b| {
        let mut store = StateStore::ephemeral();
        for i in 0..10_000u64 {
            store.put(format!("key-{i}"), format!("value-{i}")).unwrap();
        }
        let mut i = 0u64;
        b.iter(|| {
            i = (i * 31 + 7) % 10_000;
            store.get(format!("key-{i}").as_bytes())
        });
    });
    group.finish();
}

/// E4 companion: changelog restore cost, compacted vs not.
fn changelog_restore(c: &mut Criterion) {
    let mut group = c.benchmark_group("e4_changelog_restore");
    group.sample_size(10);
    for compacted in [false, true] {
        let name = if compacted { "compacted" } else { "raw" };
        group.bench_function(name, |b| {
            let cluster = Cluster::new(ClusterConfig::with_brokers(1), SimClock::new(0).shared());
            cluster
                .create_topic(
                    "cl",
                    TopicConfig::with_partitions(1)
                        .retention(RetentionPolicy::compact())
                        .segment_bytes(64 * 1024),
                )
                .unwrap();
            let tp = TopicPartition::new("cl", 0);
            for i in 0..20_000u64 {
                cluster
                    .produce_to(
                        &tp,
                        Some(Bytes::from(format!("k{}", i % 200))),
                        Bytes::from(format!("v{i:040}")),
                        AckLevel::Leader,
                    )
                    .unwrap();
            }
            if compacted {
                cluster.compact_topic("cl").unwrap();
            }
            b.iter(|| {
                let mut store = StateStore::with_changelog(cluster.clone(), tp.clone()).unwrap();
                store.restore_from_changelog().unwrap()
            });
        });
    }
    group.finish();
}

/// Window add/close costs.
fn window_ops(c: &mut Criterion) {
    let mut group = c.benchmark_group("windows");
    group.bench_function("tumbling_add", |b| {
        let w = TumblingWindow::new(1_000);
        let mut store = StateStore::ephemeral();
        let mut ts = 0u64;
        b.iter(|| {
            ts += 13;
            w.add(&mut store, ts, b"cdn-a", 1).unwrap()
        });
    });
    group.bench_with_input(
        BenchmarkId::new("close_ready", "1k_open_windows"),
        &(),
        |b, _| {
            b.iter_batched(
                || {
                    let w = TumblingWindow::new(100);
                    let mut store = StateStore::ephemeral();
                    for ts in 0..100_000u64 {
                        if ts % 100 == 0 {
                            w.add(&mut store, ts, b"k", 1).unwrap();
                        }
                    }
                    (w, store)
                },
                |(w, mut store)| w.close_ready(&mut store).unwrap().len(),
                criterion::BatchSize::LargeInput,
            );
        },
    );
    group.finish();
}

criterion_group!(
    benches,
    stateless_job_throughput,
    state_store_ops,
    changelog_restore,
    window_ops
);
criterion_main!(benches);
