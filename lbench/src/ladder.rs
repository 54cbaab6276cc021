//! The per-layer ladder: the same generated records pushed through
//! each layer's own public entry point on `MemStorage`, so that
//! ns/record decomposes layer by layer and a regression names the layer
//! that caused it. Every rung is time-boxed, repeated three times, and
//! reported as the median reference ns per record.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use bytes::Bytes;
use liquid_kv::LsmStore;
use liquid_log::{BatchBuilder, Log, Record, RecordBatch};
use liquid_messaging::consumer::StartPosition;
use liquid_messaging::{AckLevel, Cluster, TopicPartition};
use liquid_processing::StateStore;
use liquid_sim::clock::SimClock;

use crate::gen::{Events, EVENTS};
use crate::speed::Speedometer;
use crate::stats::median;
use crate::sut::{
    self, CHUNK, HISTORY_FETCH_BYTES, HISTORY_PARTITIONS, HISTORY_SEGMENT_BYTES, HISTORY_TOPIC,
};

const REPEATS: usize = 3;
/// Records a rung handles per repeat, unless its time box ends first.
const MAX_RECORDS: u64 = 200_000;
/// Records in the history of the read rungs (~32 sealed segments), and
/// how many of the newest ones a sweep leaves alone so that it reads
/// sealed segments only (see `replay.rs`).
const HISTORY_RECORDS: usize = 12_800;
const SPARE_RECORDS: usize = 1_600;

/// One rung: its metric, and the rungs whose cost it contains — the
/// report prints the difference as "added by this layer".
pub struct Rung {
    pub name: &'static str,
    pub below: &'static [&'static str],
}

pub const RUNGS: &[Rung] = &[
    // Write side.
    rung("log.record.encode_ns", &[]),
    rung("log.batch.build_ns", &[]),
    rung("log.segment.append_ns", &["log.record.encode_ns"]),
    rung(
        "log.log.append_ns",
        &["log.segment.append_ns", "log.batch.build_ns"],
    ),
    rung("messaging.cluster.produce_ns", &["log.log.append_ns"]),
    rung(
        "messaging.producer.send_ns",
        &["messaging.cluster.produce_ns"],
    ),
    // Read side.
    rung("log.record.decode_ns", &[]),
    rung("log.segment.read_ns", &["log.record.decode_ns"]),
    rung("log.log.read_ns", &["log.segment.read_ns"]),
    rung("log.cache.hit_read_ns", &[]),
    rung("messaging.cluster.fetch_ns", &["log.cache.hit_read_ns"]),
    rung(
        "messaging.consumer.poll_ns",
        &["messaging.cluster.fetch_ns"],
    ),
    rung("processing.job.deliver_ns", &["messaging.cluster.fetch_ns"]),
    // State and observability.
    rung("kv.store.put_ns", &[]),
    rung("kv.store.get_ns", &[]),
    rung(
        "processing.state.add_counter_ns",
        &["kv.store.put_ns", "kv.store.get_ns"],
    ),
    rung("obs.registry.counter_add_ns", &[]),
    rung("obs.tracer.record_ns", &[]),
];

const fn rung(name: &'static str, below: &'static [&'static str]) -> Rung {
    Rung { name, below }
}

/// How long each repeat of a rung may take, and the speedometer that
/// turns its wall time into reference time.
pub struct Meter<'a> {
    pub time_box: Duration,
    pub speedometer: &'a mut Speedometer,
}

/// Calls `step` (which handles some records and returns how many)
/// until the time box or [`MAX_RECORDS`] ends the repeat; the median
/// reference ns per record of [`REPEATS`] repeats. `reset` runs untimed
/// before each repeat.
fn measure<S>(
    meter: &mut Meter,
    state: &mut S,
    reset: impl Fn(&mut S),
    mut step: impl FnMut(&mut S) -> u64,
) -> f64 {
    let mut runs = Vec::with_capacity(REPEATS);
    for _ in 0..REPEATS {
        reset(state);
        let speed = meter.speedometer.probe();
        let start = Instant::now();
        let mut records = 0;
        let mut elapsed = Duration::ZERO;
        while records < MAX_RECORDS && elapsed < meter.time_box {
            records += step(state);
            elapsed = start.elapsed();
        }
        let speed = (speed + meter.speedometer.probe()) / 2.0;
        runs.push(elapsed.as_nanos() as f64 * speed / records.max(1) as f64);
    }
    median(&mut runs)
}

fn keep<S>(_: &mut S) {}

/// Cycles through the generated events.
struct Cursor<'a> {
    events: &'a Events,
    next: usize,
}

impl Cursor<'_> {
    fn next(&mut self) -> (Bytes, Bytes) {
        let i = self.next;
        self.next = (i + 1) % EVENTS;
        (self.events.keys[i].clone(), self.events.values[i].clone())
    }

    /// One chunk of events as log records.
    fn records(&mut self) -> Vec<Record> {
        (0..CHUNK)
            .map(|_| {
                let (key, value) = self.next();
                Record::new(Some(key), value, 0)
            })
            .collect()
    }

    /// One chunk of events through the batch arena (the producer's copy).
    fn batch(&mut self) -> RecordBatch {
        let mut builder = BatchBuilder::default();
        for _ in 0..CHUNK {
            let (key, value) = self.next();
            builder.push(Some(&key), &value, 0);
        }
        builder.build()
    }
}

type Results = BTreeMap<&'static str, f64>;

/// Runs every rung; the meter's time box bounds each of a rung's three
/// repeats.
pub fn run(events: &Events, meter: &mut Meter) -> Results {
    let mut out = BTreeMap::new();
    write_side(events, meter, &mut out);
    read_side(events, meter, &mut out);
    state_and_obs(events, meter, &mut out);
    debug_assert!(RUNGS.iter().all(|r| out.contains_key(r.name)));
    out
}

fn fresh_history_cluster(clock: &SimClock) -> Cluster {
    let cluster = sut::cluster(clock, 1, sut::STREAM_CACHE_BYTES);
    sut::create_history_topic(&cluster);
    cluster
}

fn write_side(events: &Events, meter: &mut Meter, out: &mut Results) {
    let clock = sut::sim_clock();
    let mut cursor = Cursor { events, next: 0 };

    let records = cursor.records();
    let mut buf = Vec::with_capacity(HISTORY_SEGMENT_BYTES as usize);
    let ns = measure(meter, &mut buf, keep, |buf| {
        buf.clear();
        for r in &records {
            r.encode(buf);
        }
        std::hint::black_box(buf.len());
        CHUNK as u64
    });
    out.insert("log.record.encode_ns", ns);

    let ns = measure(meter, &mut (), keep, |_| {
        std::hint::black_box(cursor.batch().len());
        CHUNK as u64
    });
    out.insert("log.batch.build_ns", ns);

    // A fresh segment per MiB keeps the rung's memory bounded.
    let mut segment = (sut::mem_segment(0), 0u64);
    let ns = measure(meter, &mut segment, keep, |(segment, offset)| {
        if segment.size_bytes() >= 1 << 20 {
            *segment = sut::mem_segment(*offset);
        }
        for r in &records {
            let mut r = r.clone();
            r.offset = *offset;
            *offset += 1;
            segment.append(&r).expect("memory segment");
        }
        CHUNK as u64
    });
    out.insert("log.segment.append_ns", ns);

    let mut log = sut::mem_log(clock.shared());
    let ns = measure(
        meter,
        &mut log,
        |log| *log = sut::mem_log(clock.shared()),
        |log| {
            log.append_record_batch(cursor.batch()).expect("memory log");
            CHUNK as u64
        },
    );
    out.insert("log.log.append_ns", ns);

    // One partition, RF 1: the cluster's own cost on top of its log.
    let tp = TopicPartition::new(HISTORY_TOPIC, 0);
    let mut cluster = fresh_history_cluster(&clock);
    let ns = measure(
        meter,
        &mut cluster,
        |cluster| *cluster = fresh_history_cluster(&clock),
        |cluster| {
            cluster
                .produce_batch(&tp, cursor.batch(), AckLevel::Leader, None)
                .expect("produce");
            CHUNK as u64
        },
    );
    out.insert("messaging.cluster.produce_ns", ns);

    let mut producer = sut::pinned_producer(&cluster, HISTORY_TOPIC, 0);
    let ns = measure(
        meter,
        &mut producer,
        |producer| {
            *producer = sut::pinned_producer(&fresh_history_cluster(&clock), HISTORY_TOPIC, 0)
        },
        |producer| {
            for _ in 0..CHUNK {
                let (key, value) = cursor.next();
                producer.buffer(Some(key), value).expect("buffer");
            }
            producer.flush().expect("flush");
            CHUNK as u64
        },
    );
    out.insert("messaging.producer.send_ns", ns);
}

/// One fetch-sized read of a sweep over `[0, end)`; wraps to 0.
fn sweep_log(log: &Log, pos: &mut u64, end: u64) -> u64 {
    let read = log.read(*pos, HISTORY_FETCH_BYTES).expect("read");
    *pos = read.records.last().map_or(0, |r| r.offset + 1);
    if *pos >= end {
        *pos = 0;
    }
    read.records.len() as u64
}

fn read_side(events: &Events, meter: &mut Meter, out: &mut Results) {
    let clock = sut::sim_clock();
    let mut cursor = Cursor { events, next: 0 };

    // The history as one contiguous encoded buffer: decoding it with a
    // chunk cursor is the floor a storage read could reach.
    let mut all = Vec::with_capacity(HISTORY_RECORDS);
    while all.len() < HISTORY_RECORDS {
        all.extend(cursor.records());
    }
    let mut encoded = Vec::new();
    for (offset, r) in all.iter_mut().enumerate() {
        r.offset = offset as u64;
        r.encode(&mut encoded);
    }
    let encoded = Bytes::from(encoded);
    let ns = measure(meter, &mut (), keep, |_| {
        let mut rest = encoded.clone();
        let mut n = 0;
        while !rest.is_empty() {
            let (r, used) = Record::decode(&rest).expect("own encoding");
            std::hint::black_box(r);
            rest = rest.slice(used..);
            n += 1;
        }
        n
    });
    out.insert("log.record.decode_ns", ns);

    // The same records in sealed 64 KiB segments, one segment a step.
    let mut segments = vec![sut::mem_segment(0)];
    for r in &all {
        if segments.last().expect("non-empty").size_bytes() >= HISTORY_SEGMENT_BYTES {
            segments.push(sut::mem_segment(r.offset));
        }
        let active = segments.last_mut().expect("non-empty");
        active.append(r).expect("memory segment");
    }
    let ns = measure(meter, &mut 0usize, keep, |at| {
        let s = &segments[*at % segments.len()];
        *at += 1;
        let read = s.read_from(s.base_offset(), u64::MAX).expect("read");
        read.records.len() as u64
    });
    out.insert("log.segment.read_ns", ns);

    // The same records in a log, without and with a read cache; the
    // sweep stays below the active segment, like `replay_*`.
    let fill = |log: &mut Log| {
        for chunk in all.chunks(CHUNK) {
            log.append_record_batch(RecordBatch::from_records(chunk.to_vec()))
                .expect("memory log");
        }
    };
    let end = (HISTORY_RECORDS - SPARE_RECORDS) as u64;
    let mut log = sut::mem_log(clock.shared());
    fill(&mut log);
    let ns = measure(meter, &mut 0u64, keep, |pos| sweep_log(&log, pos, end));
    out.insert("log.log.read_ns", ns);
    drop(log);

    let mut cached = sut::mem_log(clock.shared());
    cached.attach_read_cache(sut::roomy_read_cache(), 0);
    fill(&mut cached);
    let mut pos = 0;
    while sweep_log(&cached, &mut pos, end) > 0 && pos != 0 {} // untimed fill sweep
    let ns = measure(meter, &mut pos, keep, |pos| sweep_log(&cached, pos, end));
    out.insert("log.cache.hit_read_ns", ns);
    drop(cached);

    // The same records behind a cluster with a roomy cache, swept by
    // direct fetches, by a consumer, and by a no-op job.
    let cluster = sut::cluster(&clock, 1, 1 << 30);
    sut::create_history_topic(&cluster);
    for p in 0..HISTORY_PARTITIONS {
        let producer = sut::pinned_producer(&cluster, HISTORY_TOPIC, p);
        let mine = all
            .iter()
            .skip(p as usize)
            .step_by(HISTORY_PARTITIONS as usize);
        for r in mine {
            producer
                .buffer(r.key.clone(), r.value.clone())
                .expect("preload");
        }
        producer.flush().expect("preload");
    }
    let end = ((HISTORY_RECORDS - SPARE_RECORDS) / HISTORY_PARTITIONS as usize) as u64;
    let per_sweep = end * u64::from(HISTORY_PARTITIONS);
    let tps = sut::partitions_of(HISTORY_TOPIC, HISTORY_PARTITIONS);
    let fetch = |at: &mut (usize, u64)| {
        let batch = cluster
            .fetch_batch(&tps[at.0], at.1, HISTORY_FETCH_BYTES)
            .expect("fetch");
        *at = if batch.end_offset() < end {
            (at.0, batch.end_offset())
        } else {
            ((at.0 + 1) % tps.len(), 0)
        };
        batch.len() as u64
    };
    let mut at = (0, 0);
    while fetch(&mut at) > 0 && at != (0, 0) {} // untimed fill sweep
    let ns = measure(meter, &mut at, keep, fetch);
    out.insert("messaging.cluster.fetch_ns", ns);

    let consumer = sut::history_reader(&cluster);
    let ns = measure(meter, &mut 0u64, keep, |since_rewind| {
        if *since_rewind >= per_sweep {
            for tp in &tps {
                consumer
                    .assign(tp.clone(), StartPosition::Earliest)
                    .expect("assign");
            }
            *since_rewind = 0;
        }
        let batches = consumer.poll_batches().expect("poll");
        let n: u64 = batches.iter().map(|(_, b)| b.len() as u64).sum();
        *since_rewind += n;
        n
    });
    out.insert("messaging.consumer.poll_ns", ns);

    let mut job = sut::noop_job(&cluster);
    let ns = measure(meter, &mut 0u64, keep, |since_rewind| {
        if *since_rewind >= per_sweep {
            for p in 0..HISTORY_PARTITIONS {
                job.seek_input(HISTORY_TOPIC, p, 0);
            }
            *since_rewind = 0;
        }
        let n = job.run_once().expect("run");
        *since_rewind += n;
        n
    });
    out.insert("processing.job.deliver_ns", ns);
}

fn state_and_obs(events: &Events, meter: &mut Meter, out: &mut Results) {
    let clock = sut::sim_clock();
    let mut cursor = Cursor { events, next: 0 };
    let one = Bytes::copy_from_slice(&1u64.to_le_bytes());

    let mut store = LsmStore::in_memory();
    let ns = measure(
        meter,
        &mut store,
        |store| *store = LsmStore::in_memory(),
        |store| {
            for _ in 0..CHUNK {
                store
                    .put(cursor.next().0, one.clone())
                    .expect("memory store");
            }
            CHUNK as u64
        },
    );
    out.insert("kv.store.put_ns", ns);
    let ns = measure(meter, &mut store, keep, |store| {
        for _ in 0..CHUNK {
            std::hint::black_box(store.get(&cursor.next().0));
        }
        CHUNK as u64
    });
    out.insert("kv.store.get_ns", ns);

    let cluster = sut::cluster(&clock, 1, sut::STREAM_CACHE_BYTES);
    sut::create_changelog_topic(&cluster, "ladder-state");
    let mut state = StateStore::with_changelog(cluster, TopicPartition::new("ladder-state", 0))
        .expect("memory store");
    let ns = measure(meter, &mut state, keep, |state| {
        for _ in 0..CHUNK {
            state
                .add_counter(&cursor.next().0, 1)
                .expect("memory store");
        }
        CHUNK as u64
    });
    out.insert("processing.state.add_counter_ns", ns);

    let obs = liquid_obs::Obs::new();
    let counter = obs.registry().counter("bench.ladder");
    let ns = measure(meter, &mut (), keep, |_| {
        for _ in 0..CHUNK {
            counter.add(1);
        }
        CHUNK as u64
    });
    out.insert("obs.registry.counter_add_ns", ns);
    let ns = measure(meter, &mut (), keep, |_| {
        for i in 0..CHUNK as u64 {
            obs.tracer().record(i + 1, "produce", "events-0", i);
        }
        CHUNK as u64
    });
    out.insert("obs.tracer.record_ns", ns);
}
