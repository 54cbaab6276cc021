//! liquid-check model tests: exhaustive small-configuration
//! exploration of the §4.3 concurrency scenarios.
//!
//! Each test hands a scenario closure to [`liquid_sim::sched::check`],
//! which runs it under the deterministic model-checking scheduler:
//! every ranked-lock acquire/release, fault-injection tick, channel
//! hand-off and [`Shared`] cell access is a schedule point, and the
//! DFS explorer (sleep-set partial-order reduction) enumerates every
//! distinct interleaving. A failing interleaving panics with a
//! `CHECK_SCENARIO=.. CHECK_SCHEDULE=..` line that replays the exact
//! schedule byte-for-byte.
//!
//! The configurations here are deliberately tiny (1–2 brokers, 1–2
//! messages): the point is *exhaustiveness*, not scale. The env-gated
//! `sampled_large_config_*` test covers the other end with a
//! pinned-seed random sweep.

use std::collections::{BTreeMap, BTreeSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use bytes::Bytes;
use liquid_log::{RecordBatch, RetentionPolicy};
use liquid_messaging::{
    AckLevel, AssignmentStrategy, Cluster, ClusterConfig, Message, MessagingError, TopicConfig,
    TopicPartition, OFFSETS_TOPIC,
};
use liquid_processing::{FnTask, Job, JobConfig, StreamTask, TaskContext};
use liquid_sim::clock::SimClock;
use liquid_sim::sched::{self, check, Config, Report, Shared};
use liquid_sim::thread;

/// One-broker cluster with a single-partition topic `t`.
fn tiny_cluster() -> Arc<Cluster> {
    let cluster = Cluster::new(ClusterConfig::with_brokers(1), SimClock::new(0).shared());
    cluster
        .create_topic("t", TopicConfig::with_partitions(1))
        .unwrap();
    Arc::new(cluster)
}

fn assert_exhaustive(report: &Report, min_interleavings: usize) {
    println!(
        "liquid-check[{}]: {} interleaving(s), {} pruned, complete={}",
        report.scenario, report.interleavings, report.pruned, report.complete
    );
    assert!(
        report.complete,
        "{}: DFS must exhaust the space (got {} interleavings, {} pruned)",
        report.scenario, report.interleavings, report.pruned
    );
    assert!(
        report.interleavings >= min_interleavings,
        "{}: expected at least {min_interleavings} distinct interleavings, saw {}",
        report.scenario,
        report.interleavings
    );
}

// ---------------------------------------------------------------------------
// Scenario 1: concurrent producers on one partition
// ---------------------------------------------------------------------------

/// Two producers race onto the same partition. In *every* interleaving
/// the broker must hand out dense, unique offsets and advance the high
/// watermark to cover both records (acks=Leader on a single-replica
/// partition commits immediately).
#[test]
fn model_concurrent_producers_one_partition() {
    let report = check("producers.one-partition", Config::default(), || {
        let cluster = tiny_cluster();
        let tp = TopicPartition::new("t", 0);
        let a = {
            let c = cluster.clone();
            thread::spawn_named("producer-a".into(), move || {
                c.produce_to(
                    &TopicPartition::new("t", 0),
                    None,
                    Bytes::from_static(b"a"),
                    AckLevel::Leader,
                )
                .unwrap()
            })
        };
        let b = {
            let c = cluster.clone();
            thread::spawn_named("producer-b".into(), move || {
                c.produce_to(
                    &TopicPartition::new("t", 0),
                    None,
                    Bytes::from_static(b"b"),
                    AckLevel::Leader,
                )
                .unwrap()
            })
        };
        let offsets: BTreeSet<u64> = [a.join(), b.join()].into_iter().collect();
        assert_eq!(
            offsets,
            BTreeSet::from([0, 1]),
            "offsets must be unique and dense"
        );
        assert_eq!(cluster.log_end_offset(&tp).unwrap(), 2);
        assert_eq!(
            cluster.latest_offset(&tp).unwrap(),
            2,
            "high watermark covers both acked records"
        );
        assert_eq!(
            cluster
                .fetch_batch(&tp, 0, u64::MAX)
                .unwrap()
                .into_messages()
                .len(),
            2
        );
    });
    assert_exhaustive(&report, 2);
}

// ---------------------------------------------------------------------------
// Scenario 1b: concurrent instrument registration and updates
// ---------------------------------------------------------------------------

/// Two threads race to register the *same* named counter and bump it.
/// The registry's internals are plain std atomics (invisible to the
/// scheduler), so a lockdep-ranked turnstile mutex splits each writer
/// into modeled segments the DFS can genuinely reorder: registration
/// happens inside the critical section of one writer but outside the
/// other's, covering register-then-register and register-while-updating
/// orders. In every interleaving both writers must land on one shared
/// cell — no lost update, no duplicate registration.
#[cfg(not(feature = "obs-off"))]
#[test]
fn model_registry_concurrent_registration() {
    use liquid_obs::Obs;
    use liquid_sim::lockdep::Mutex;
    let report = check("obs.registry-races", Config::default(), || {
        let obs = Obs::default();
        let turnstile = Arc::new(Mutex::new("log.pagecache", ()));
        let a = {
            let o = obs.clone();
            let t = turnstile.clone();
            thread::spawn_named("writer-a".into(), move || {
                let c = o.registry().counter("race.hits");
                let _g = t.lock();
                c.add(2);
                o.registry().gauge("race.level").set_max(5);
            })
        };
        let b = {
            let o = obs.clone();
            let t = turnstile.clone();
            thread::spawn_named("writer-b".into(), move || {
                let _g = t.lock();
                let c = o.registry().counter("race.hits");
                c.add(3);
                o.registry().gauge("race.level").set_max(7);
            })
        };
        a.join();
        b.join();
        let snap = obs.snapshot();
        assert_eq!(
            snap.counter("race.hits"),
            5,
            "concurrent adds on one named counter must not lose updates"
        );
        assert_eq!(
            snap.gauge("race.level"),
            Some(7),
            "set_max converges to the maximum in every interleaving"
        );
    });
    assert_exhaustive(&report, 2);
}

// ---------------------------------------------------------------------------
// Scenario 2: consumer-group rebalance vs. offset commit
// ---------------------------------------------------------------------------

/// A second member joins (forcing a rebalance) while the first member
/// commits an offset. Whatever the order: the commit survives, the
/// generation advances, and the rebalanced assignment covers every
/// partition exactly once.
#[test]
fn model_rebalance_vs_offset_commit() {
    let report = check("group.rebalance-vs-commit", Config::default(), || {
        let cluster = Cluster::new(ClusterConfig::with_brokers(1), SimClock::new(0).shared());
        cluster
            .create_topic("t", TopicConfig::with_partitions(2))
            .unwrap();
        let cluster = Arc::new(cluster);
        cluster
            .join_group("g", "m1", &["t"], AssignmentStrategy::Range)
            .unwrap();
        let gen0 = cluster.group_generation("g").unwrap();
        let committer = {
            let c = cluster.clone();
            thread::spawn_named("commit".into(), move || {
                // A live consumer heartbeats between poll and commit —
                // that is what makes this race genuine: the heartbeat
                // contends on group state with the joiner's rebalance,
                // while the commit itself goes to the offset store.
                c.heartbeat_group("g", "m1").unwrap();
                c.offsets()
                    .commit("g", &TopicPartition::new("t", 0), 1, BTreeMap::new())
                    .unwrap();
            })
        };
        let joiner = {
            let c = cluster.clone();
            thread::spawn_named("rebalance".into(), move || {
                c.join_group("g", "m2", &["t"], AssignmentStrategy::Range)
                    .unwrap();
            })
        };
        committer.join();
        joiner.join();
        assert_eq!(
            cluster
                .offsets()
                .fetch_offset("g", &TopicPartition::new("t", 0)),
            Some(1),
            "the commit survives the rebalance"
        );
        assert!(
            cluster.group_generation("g").unwrap() > gen0,
            "joining bumps the generation"
        );
        let mut covered = BTreeSet::new();
        for m in ["m1", "m2"] {
            for tp in cluster.group_assignment("g", m).unwrap().partitions {
                assert!(covered.insert(tp.clone()), "{tp} assigned twice");
            }
        }
        assert_eq!(covered.len(), 2, "both partitions assigned");
    });
    assert_exhaustive(&report, 2);
}

// ---------------------------------------------------------------------------
// Scenario 3: leader election vs. catch_up
// ---------------------------------------------------------------------------

/// The leader dies while a replication tick is in flight. With acks=All
/// the surviving follower already holds the record, so in every
/// interleaving: the high watermark is monotone, a new leader exists
/// and is an ISR member, and the acked record stays readable.
#[test]
fn model_leader_election_vs_catch_up() {
    let report = check("cluster.election-vs-catchup", Config::default(), || {
        let cluster = Cluster::new(ClusterConfig::with_brokers(2), SimClock::new(0).shared());
        cluster
            .create_topic("t", TopicConfig::with_partitions(1).replication(2))
            .unwrap();
        let cluster = Arc::new(cluster);
        let tp = TopicPartition::new("t", 0);
        cluster
            .produce_to(&tp, None, Bytes::from_static(b"acked"), AckLevel::All)
            .unwrap();
        let hw0 = cluster.latest_offset(&tp).unwrap();
        assert_eq!(hw0, 1);
        let leader = cluster.leader(&tp).unwrap().unwrap();
        let killer = {
            let c = cluster.clone();
            thread::spawn_named("kill-leader".into(), move || {
                c.kill_broker(leader).unwrap();
            })
        };
        let ticker = {
            let c = cluster.clone();
            thread::spawn_named("replicate".into(), move || {
                c.replicate_tick().unwrap();
            })
        };
        killer.join();
        ticker.join();
        assert!(
            cluster.latest_offset(&tp).unwrap() >= hw0,
            "high watermark is monotone across failover"
        );
        let new_leader = cluster
            .leader(&tp)
            .unwrap()
            .expect("a caught-up ISR member takes over");
        assert_ne!(new_leader, leader, "the dead broker cannot lead");
        assert!(
            cluster.isr(&tp).unwrap().contains(&new_leader),
            "the leader is always an ISR member"
        );
        assert_eq!(
            cluster
                .fetch_batch(&tp, 0, u64::MAX)
                .unwrap()
                .into_messages()
                .len(),
            1,
            "acks=All record survives losing the leader"
        );
    });
    assert_exhaustive(&report, 2);
}

// ---------------------------------------------------------------------------
// Scenario 3b: batch group commit vs. leader kill
// ---------------------------------------------------------------------------

/// Two batch producers race their group commits against a leader kill.
/// In every interleaving a batch is all-or-nothing: an acknowledged
/// batch (acks=All) occupies a contiguous offset range below the high
/// watermark and survives the failover whole; a rejected produce leaves
/// no partial batch behind; and the two batches never interleave their
/// records (the group commit holds the partition for the whole batch).
/// Failures replay via the printed `CHECK_SCHEDULE=..` line, and the
/// vector-clock detector verifies the commit path itself is race-free.
#[test]
fn model_batch_group_commit_vs_leader_kill() {
    let report = check(
        "cluster.batch-commit-vs-leader-kill",
        Config::default(),
        || {
            let cluster = Cluster::new(ClusterConfig::with_brokers(2), SimClock::new(0).shared());
            cluster
                .create_topic("t", TopicConfig::with_partitions(1).replication(2))
                .unwrap();
            let cluster = Arc::new(cluster);
            let tp = TopicPartition::new("t", 0);
            let leader = cluster.leader(&tp).unwrap().unwrap();
            let spawn_producer = |tag: &'static str| {
                let c = cluster.clone();
                thread::spawn_named(format!("batch-{tag}"), move || {
                    let mut b = RecordBatch::builder();
                    b.push(None, format!("{tag}0").as_bytes(), 0);
                    b.push(None, format!("{tag}1").as_bytes(), 0);
                    match c.produce_batch(
                        &TopicPartition::new("t", 0),
                        b.build(),
                        AckLevel::All,
                        None,
                    ) {
                        Ok(base) => Some(base),
                        // Mid-failover: the batch is rejected whole.
                        Err(MessagingError::PartitionUnavailable(_)) => None,
                        Err(e) => panic!("unexpected produce_batch error: {e}"),
                    }
                })
            };
            let a = spawn_producer("a");
            let b = spawn_producer("b");
            let killer = {
                let c = cluster.clone();
                thread::spawn_named("kill-leader".into(), move || {
                    c.kill_broker(leader).unwrap();
                })
            };
            let acked = [("a", a.join()), ("b", b.join())];
            killer.join();
            let hw = cluster.latest_offset(&tp).unwrap();
            let log: Vec<(u64, Bytes)> = cluster
                .fetch_batch(&tp, 0, u64::MAX)
                .unwrap()
                .into_messages()
                .into_iter()
                .map(|m| (m.offset, m.value))
                .collect();
            for (tag, base) in acked {
                let Some(base) = base else { continue };
                assert!(
                    hw >= base + 2,
                    "acked batch {tag} torn by failover: hw {hw} splits batch at base {base}"
                );
                for i in 0..2u64 {
                    let want = Bytes::from(format!("{tag}{i}"));
                    assert!(
                        log.contains(&(base + i, want)),
                        "batch {tag} record {i} not at offset {} after failover",
                        base + i
                    );
                }
            }
            // No torn batches, acked or not: each producer's records appear
            // either in full or not at all.
            for tag in ["a", "b"] {
                let n = log
                    .iter()
                    .filter(|(_, v)| v.starts_with(tag.as_bytes()))
                    .count();
                assert!(
                    n == 0 || n == 2,
                    "batch {tag} half-committed: {n} of 2 records in the log"
                );
            }
        },
    );
    assert_exhaustive(&report, 2);
}

// ---------------------------------------------------------------------------
// Scenario 3c: sharded partition locks — producers on distinct partitions
// ---------------------------------------------------------------------------

/// Two producers group-commit to *different* partitions of the same
/// topic under the per-partition `partition.state` lock shards. The
/// exhaustive exploration checks the shard split end-to-end: every
/// interleaving acquires `cluster.state` (read) and `partition.state`
/// in rank order — a rank inversion or a same-rank double-acquire
/// panics inside lockdep and fails the run — and each partition's
/// batch lands contiguously at its own base offset, unperturbed by the
/// other partition's commit. This is the model-checked proof of the
/// per-partition lock split.
#[test]
fn model_sharded_producers_distinct_partitions() {
    let report = check(
        "cluster.sharded-producers-distinct-partitions",
        Config::default(),
        || {
            let cluster = Cluster::new(ClusterConfig::with_brokers(1), SimClock::new(0).shared());
            cluster
                .create_topic("t", TopicConfig::with_partitions(2))
                .unwrap();
            let cluster = Arc::new(cluster);
            let spawn_producer = |p: u32| {
                let c = cluster.clone();
                thread::spawn_named(format!("shard-{p}"), move || {
                    let mut b = RecordBatch::builder();
                    b.push(None, format!("p{p}r0").as_bytes(), 0);
                    b.push(None, format!("p{p}r1").as_bytes(), 0);
                    c.produce_batch(
                        &TopicPartition::new("t", p),
                        b.build(),
                        AckLevel::Leader,
                        None,
                    )
                    .unwrap()
                })
            };
            let a = spawn_producer(0);
            let b = spawn_producer(1);
            let bases = [a.join(), b.join()];
            for (p, base) in bases.into_iter().enumerate() {
                let tp = TopicPartition::new("t", p as u32);
                // Single replica: the watermark covers the batch as
                // soon as the group commit returns.
                assert_eq!(base, 0, "partition {p} saw foreign records below its batch");
                assert_eq!(cluster.latest_offset(&tp).unwrap(), 2);
                let log: Vec<(u64, Bytes)> = cluster
                    .fetch_batch(&tp, 0, u64::MAX)
                    .unwrap()
                    .into_messages()
                    .into_iter()
                    .map(|m| (m.offset, m.value))
                    .collect();
                // Contiguous, fully ordered, and partition-pure.
                for i in 0..2u64 {
                    let want = Bytes::from(format!("p{p}r{i}"));
                    assert_eq!(
                        log[i as usize],
                        (base + i, want),
                        "partition {p} batch not contiguous at base {base}"
                    );
                }
            }
        },
    );
    assert_exhaustive(&report, 2);
}

// ---------------------------------------------------------------------------
// Scenario 3d: offset commits on distinct keys vs. rebalance
// ---------------------------------------------------------------------------

/// Two consumers commit to *distinct* `(group, partition)` keys while a
/// third member joins and forces a rebalance. The first commit creates
/// the `__offsets` topic, and both commits hold the one `offsets.inner`
/// lock across that creation, the `acks=All` produce and the index
/// update. In every interleaving the lock order `group.groups` →
/// `offsets.inner` → `cluster.state` → `partition.state` holds — any
/// rank inversion panics inside lockdep and fails the run — the topic
/// is created once, and neither commit is lost, clobbered or
/// duplicated: `__offsets` holds exactly one record per key, and the
/// index answers each key's own offset.
#[test]
fn model_offsets_sharded_commit_vs_rebalance() {
    let report = check(
        "offsets.sharded-commit-vs-rebalance",
        Config::default(),
        || {
            let cluster = Cluster::new(ClusterConfig::with_brokers(1), SimClock::new(0).shared());
            cluster
                .create_topic("t", TopicConfig::with_partitions(2))
                .unwrap();
            let cluster = Arc::new(cluster);
            cluster
                .join_group("g", "m1", &["t"], AssignmentStrategy::Range)
                .unwrap();
            let gen0 = cluster.group_generation("g").unwrap();
            let commit = |name: &'static str, p: u32, off: u64| {
                let c = cluster.clone();
                thread::spawn_named(format!("commit-{name}"), move || {
                    c.offsets()
                        .commit("g", &TopicPartition::new("t", p), off, BTreeMap::new())
                        .unwrap();
                })
            };
            let a = commit("p0", 0, 5);
            let b = commit("p1", 1, 9);
            let joiner = {
                let c = cluster.clone();
                thread::spawn_named("rebalance".into(), move || {
                    c.join_group("g", "m2", &["t"], AssignmentStrategy::Range)
                        .unwrap();
                })
            };
            a.join();
            b.join();
            joiner.join();
            // Exactly one commit per key, at the committed offset:
            // nothing lost, nothing duplicated, in any interleaving.
            for (p, want) in [(0u32, 5u64), (1, 9)] {
                let tp = TopicPartition::new("t", p);
                assert_eq!(
                    cluster.offsets().fetch_offset("g", &tp),
                    Some(want),
                    "partition {p} commit lost or clobbered"
                );
            }
            let log = cluster
                .fetch_batch(&TopicPartition::new(OFFSETS_TOPIC, 0), 0, u64::MAX)
                .unwrap();
            let mut per_key = BTreeMap::new();
            for r in log.records() {
                *per_key.entry(r.key.clone()).or_insert(0) += 1;
            }
            assert_eq!(per_key.len(), 2, "one record key per (g, tp)");
            assert!(
                per_key.values().all(|&n| n == 1),
                "commit duplicated: {per_key:?}"
            );
            assert!(
                cluster.group_generation("g").unwrap() > gen0,
                "joining bumps the generation"
            );
            let mut covered = BTreeSet::new();
            for m in ["m1", "m2"] {
                for tp in cluster.group_assignment("g", m).unwrap().partitions {
                    assert!(covered.insert(tp.clone()), "{tp} assigned twice");
                }
            }
            assert_eq!(covered.len(), 2, "both partitions assigned");
        },
    );
    assert_exhaustive(&report, 2);
}

// ---------------------------------------------------------------------------
// Scenario 3e: concurrent fetch vs. whole-segment retention drop
// ---------------------------------------------------------------------------

/// One reader fetches the whole feed through the segment-read cache
/// while retention drops retired segments concurrently. In every
/// interleaving the read is never torn: it returns a contiguous run of
/// records whose values match their offsets — either the pre-drop view
/// or the healed post-drop view, nothing in between — and afterwards a
/// fetch from the earliest offset starts exactly there, proving the
/// cache never serves a retired segment. Lock order
/// (`partition.state` → `log.readcache` → `log.pagecache`) is enforced
/// by lockdep on every path the explorer visits.
#[test]
fn model_fetch_vs_segment_drop() {
    let report = check("log.fetch-vs-segment-drop", Config::default(), || {
        let config = ClusterConfig::builder()
            .brokers(1)
            .segment_cache_bytes(4_096)
            .segment_cache_shards(1)
            .build()
            .unwrap();
        let cluster = Cluster::new(config, SimClock::new(0).shared());
        cluster
            .create_topic(
                "t",
                TopicConfig::with_partitions(1)
                    .retention(RetentionPolicy::DropByBytes { max_bytes: 96 })
                    .segment_bytes(64),
            )
            .unwrap();
        let cluster = Arc::new(cluster);
        let tp = TopicPartition::new("t", 0);
        for i in 0..6u64 {
            cluster
                .produce_to(&tp, None, Bytes::from(format!("v{i}")), AckLevel::Leader)
                .unwrap();
        }
        // Warm the cache so the concurrent read can hit it mid-drop.
        cluster.fetch_batch(&tp, 0, u64::MAX).unwrap();
        let reader = {
            let c = cluster.clone();
            thread::spawn_named("reader".into(), move || {
                let msgs = c.fetch_batch(&tp, 0, u64::MAX).unwrap().into_messages();
                assert!(!msgs.is_empty(), "six records, active segment never drops");
                for (i, m) in msgs.iter().enumerate() {
                    assert_eq!(
                        m.offset,
                        msgs[0].offset + i as u64,
                        "read tore across the drop: offsets not contiguous"
                    );
                    assert_eq!(
                        m.value,
                        Bytes::from(format!("v{}", m.offset)),
                        "record at offset {} served foreign bytes",
                        m.offset
                    );
                }
            })
        };
        let dropper = {
            let c = cluster.clone();
            thread::spawn_named("dropper".into(), move || {
                c.enforce_retention().unwrap();
            })
        };
        reader.join();
        dropper.join();
        // The cache must not serve retired segments: a fetch from the
        // retention floor starts exactly there and stays value-exact.
        let tp = TopicPartition::new("t", 0);
        let earliest = cluster.earliest_offset(&tp).unwrap();
        assert!(earliest > 0, "retention must have dropped a segment");
        let batch = cluster.fetch_batch(&tp, earliest, u64::MAX).unwrap();
        assert_eq!(batch.base_offset(), Some(earliest));
        for m in batch.into_messages() {
            assert!(m.offset >= earliest, "served a record below the floor");
            assert_eq!(m.value, Bytes::from(format!("v{}", m.offset)));
        }
    });
    assert_exhaustive(&report, 2);
}

// ---------------------------------------------------------------------------
// Scenario 4: checkpoint vs. restore
// ---------------------------------------------------------------------------

fn counting_task(_partition: u32) -> Box<dyn StreamTask> {
    Box::new(FnTask(|_: &Message, ctx: &mut TaskContext<'_>| {
        ctx.store().add_counter(b"n", 1)?;
        Ok(())
    }))
}

/// A job incarnation checkpoints while its replacement restores. The
/// checkpoint (a single offset commit) is atomic: the restorer sees
/// either the pre-checkpoint world (replays everything, n=4 after
/// at-least-once double-counting through the changelog) or the
/// post-checkpoint world (replays nothing, n=2) — never a torn state.
#[test]
fn model_checkpoint_vs_restore() {
    let report = check("job.checkpoint-vs-restore", Config::default(), || {
        let cluster = Cluster::new(ClusterConfig::with_brokers(1), SimClock::new(0).shared());
        cluster
            .create_topic("in", TopicConfig::with_partitions(1))
            .unwrap();
        let cluster = Arc::new(cluster);
        let tp = TopicPartition::new("in", 0);
        for i in 0..2 {
            cluster
                .produce_to(
                    &tp,
                    Some(Bytes::from_static(b"k")),
                    Bytes::from(format!("m{i}")),
                    AckLevel::Leader,
                )
                .unwrap();
        }
        let make = || JobConfig::new("ckpt", &["in"]).checkpoint_every(0);
        let mut job1 = Job::new(&cluster, make(), counting_task).unwrap();
        assert_eq!(job1.run_until_idle(4).unwrap(), 2);
        let writer = thread::spawn_named("checkpoint".into(), move || {
            job1.checkpoint().unwrap();
        });
        let restorer = {
            let c = cluster.clone();
            thread::spawn_named("restore".into(), move || {
                let mut job2 = Job::new(&c, make(), counting_task).unwrap();
                job2.run_until_idle(4).unwrap();
                job2.state(0).unwrap().get_counter(b"n")
            })
        };
        writer.join();
        let n = restorer.join();
        assert!(
            n == 2 || n == 4,
            "restore must see a consistent checkpoint: fold is 2 (post-checkpoint) \
             or 4 (full at-least-once replay), got {n}"
        );
    });
    assert_exhaustive(&report, 2);
}

// ---------------------------------------------------------------------------
// Race detector + replay acceptance
// ---------------------------------------------------------------------------

/// A deliberately racy fixture: an unlocked read-modify-write against
/// a plain [`Shared`] cell. The vector-clock detector must flag it on
/// the very first exploration (races are visible in any single
/// interleaving via happens-before, not only in the losing order),
/// name *both* sites, and print a replayable schedule.
#[test]
fn model_racy_fixture_flagged_with_both_sites() {
    let failure = racy_fixture_failure(None);
    assert!(
        failure.contains("data race on cell 'fixture.counter'"),
        "detector names the cell: {failure}"
    );
    assert_eq!(
        failure.matches("model.rs:").count(),
        2,
        "both racing sites carry this file's name: {failure}"
    );
    assert!(
        failure.contains("CHECK_SCHEDULE="),
        "failures print a replayable schedule: {failure}"
    );
}

/// Extracts the printed schedule from the racy fixture's failure and
/// replays it: the replayed run must fail with the byte-for-byte
/// identical report.
#[test]
fn model_failing_schedule_replays_byte_for_byte() {
    let original = racy_fixture_failure(None);
    let (_scenario, schedule) =
        sched::extract_schedule(&original).expect("failure text embeds its schedule");
    let replayed = racy_fixture_failure(Some(schedule));
    assert_eq!(
        original, replayed,
        "replaying the printed schedule reproduces the identical failure"
    );
}

/// Runs the racy fixture (exploring, or replaying `schedule`) and
/// returns the failure text it panics with.
fn racy_fixture_failure(schedule: Option<Vec<usize>>) -> String {
    let cfg = Config {
        replay: schedule,
        ..Config::default()
    };
    let err = catch_unwind(AssertUnwindSafe(|| {
        check("model.racy-fixture", cfg, || {
            let cell = Arc::new(Shared::new("fixture.counter", 0u64));
            let t = {
                let c = cell.clone();
                thread::spawn_named("incrementer".into(), move || {
                    let v = c.get();
                    c.set(v + 1);
                })
            };
            // Unordered with the child's accesses: no join edge yet.
            let _ = cell.get();
            t.join();
        });
    }))
    .expect_err("the racy fixture must fail");
    *err.downcast::<String>()
        .expect("failure payload is the report text")
}

/// The twin of the racy fixture with the race removed: joining the
/// child before reading creates the happens-before edge, so the same
/// access pattern explores cleanly — and still exercises more than one
/// interleaving (the child's read/write pair vs. the parent's read).
#[test]
fn model_ordered_twin_is_clean() {
    let report = check("model.ordered-twin", Config::default(), || {
        let cell = Arc::new(Shared::new("ordered.counter", 0u64));
        let t = {
            let c = cell.clone();
            thread::spawn_named("incrementer".into(), move || {
                let v = c.get();
                c.set(v + 1);
            })
        };
        t.join();
        assert_eq!(cell.get(), 1);
    });
    assert_exhaustive(&report, 1);
}

// ---------------------------------------------------------------------------
// Pinned-seed sampled large configuration (env-gated; the CI
// model-check job runs it with LIQUID_MODEL_LARGE=1)
// ---------------------------------------------------------------------------

/// Three producers against a replicated topic: too many interleavings
/// to exhaust, so a preemption-bounded DFS runs first and a pinned-seed
/// random sampler sweeps whatever the bound excluded. The seed is fixed
/// so CI failures reproduce locally without artifact archaeology.
#[test]
fn model_sampled_large_config_pinned_seed() {
    if std::env::var("LIQUID_MODEL_LARGE").is_err() {
        eprintln!("skipping sampled large-config run (set LIQUID_MODEL_LARGE=1)");
        return;
    }
    // The DFS budget is set below the bounded space's size on purpose:
    // this test is about the sampling fallback actually engaging.
    let cfg = Config {
        max_interleavings: 500,
        ..Config::bounded(1, 200, 0x11D0)
    };
    let report = check("producers.large-sampled", cfg, || {
        let cluster = Cluster::new(ClusterConfig::with_brokers(2), SimClock::new(0).shared());
        cluster
            .create_topic("t", TopicConfig::with_partitions(1).replication(2))
            .unwrap();
        let cluster = Arc::new(cluster);
        let tp = TopicPartition::new("t", 0);
        let handles: Vec<_> = (0..3)
            .map(|p| {
                let c = cluster.clone();
                thread::spawn_named(format!("producer-{p}"), move || {
                    for i in 0..2 {
                        c.produce_to(
                            &TopicPartition::new("t", 0),
                            None,
                            Bytes::from(format!("p{p}-{i}")),
                            AckLevel::All,
                        )
                        .unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join();
        }
        assert_eq!(cluster.log_end_offset(&tp).unwrap(), 6);
        assert_eq!(cluster.latest_offset(&tp).unwrap(), 6);
        let msgs = cluster
            .fetch_batch(&tp, 0, u64::MAX)
            .unwrap()
            .into_messages();
        let unique: BTreeSet<_> = msgs.iter().map(|m| m.value.clone()).collect();
        assert_eq!(unique.len(), 6, "no duplicates, nothing lost");
    });
    println!(
        "liquid-check[{}]: {} interleaving(s), {} pruned, {} sampled, complete={}",
        report.scenario, report.interleavings, report.pruned, report.sampled, report.complete
    );
    assert!(
        report.interleavings + report.sampled >= 200,
        "the sampler must actually sweep: {report:?}"
    );
}
