//! A declarative stream-transformation DSL.
//!
//! The paper's processing layer executes "arbitrary data processing …
//! ranging from data cleaning and normalization, to the computation of
//! aggregate statistics" (§1). Most such ETL jobs are a linear chain of
//! operators; this module lets them be declared instead of hand-written:
//!
//! ```
//! use liquid_processing::dsl::Stream;
//! use liquid_messaging::{AckLevel, Cluster, ClusterConfig, TopicConfig, TopicPartition};
//! use liquid_sim::clock::SimClock;
//! use bytes::Bytes;
//!
//! let cluster = Cluster::new(ClusterConfig::with_brokers(1), SimClock::new(0).shared());
//! cluster.create_topic("events", TopicConfig::with_partitions(1)).unwrap();
//! cluster.create_topic("shouted", TopicConfig::with_partitions(1)).unwrap();
//! let tp = TopicPartition::new("events", 0);
//! cluster.produce_to(&tp, None, Bytes::from_static(b"hello"), AckLevel::Leader).unwrap();
//!
//! let mut job = Stream::from("events")
//!     .filter(|r| !r.value.is_empty())
//!     .map_values(|v| Bytes::from(String::from_utf8_lossy(&v).to_uppercase().into_bytes()))
//!     .to("shouted")
//!     .into_job(&cluster, "shouter")
//!     .unwrap();
//! job.run_until_idle(5).unwrap();
//! let out = cluster.fetch_batch(&TopicPartition::new("shouted", 0), 0, u64::MAX).unwrap().into_messages();
//! assert_eq!(out[0].value, Bytes::from_static(b"HELLO"));
//! ```
//!
//! Chains compile into one ordinary [`Job`] — task-per-partition,
//! changelog-backed state for the keyed aggregates, checkpointing — so
//! everything the paper says about jobs applies unchanged.

use std::sync::Arc;

use bytes::Bytes;
use liquid_messaging::{Cluster, Message};
use liquid_sim::clock::Ts;

use crate::job::{Job, JobConfig};
use crate::task::{StreamTask, TaskContext};

/// One record flowing through a DSL chain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// Optional key (drives partitioning and keyed aggregates).
    pub key: Option<Bytes>,
    /// Payload.
    pub value: Bytes,
    /// Event time (ms).
    pub timestamp: Ts,
}

type MapFn = Arc<dyn Fn(Record) -> Record + Send + Sync>;
type FilterFn = Arc<dyn Fn(&Record) -> bool + Send + Sync>;
type FlatMapFn = Arc<dyn Fn(Record) -> Vec<Record> + Send + Sync>;
type ExtractFn = Arc<dyn Fn(&Record) -> u64 + Send + Sync>;

#[derive(Clone)]
enum Op {
    Map(MapFn),
    Filter(FilterFn),
    FlatMap(FlatMapFn),
    /// Emits `(key, running count)` per input record.
    CountByKey,
    /// Emits `(key, running sum of f(record))`.
    SumByKey(ExtractFn),
}

/// A declarative stream chain. Build with [`Stream::from`], terminate
/// with [`to`](Stream::to) + [`into_job`](Stream::into_job).
#[derive(Clone)]
pub struct Stream {
    inputs: Vec<String>,
    ops: Vec<Op>,
    sink: Option<String>,
}

impl Stream {
    /// Starts a chain reading one topic.
    pub fn from(topic: &str) -> Self {
        Stream {
            inputs: vec![topic.to_string()],
            ops: Vec::new(),
            sink: None,
        }
    }

    /// Starts a chain merging several topics (partition-aligned, as
    /// with any multi-input job).
    pub fn from_all(topics: &[&str]) -> Self {
        Stream {
            inputs: topics.iter().map(|t| t.to_string()).collect(),
            ops: Vec::new(),
            sink: None,
        }
    }

    /// Transforms each record.
    pub fn map(mut self, f: impl Fn(Record) -> Record + Send + Sync + 'static) -> Self {
        self.ops.push(Op::Map(Arc::new(f)));
        self
    }

    /// Transforms only the value.
    pub fn map_values(mut self, f: impl Fn(Bytes) -> Bytes + Send + Sync + 'static) -> Self {
        self.ops.push(Op::Map(Arc::new(move |mut r: Record| {
            r.value = f(r.value);
            r
        })));
        self
    }

    /// Re-keys each record (e.g. group RUM events by CDN).
    ///
    /// Note: re-keying changes *routing* (the sink partitions by the
    /// new key), but keyed aggregates in the same chain still group
    /// within the task's input partition. For a global per-key
    /// aggregate after re-keying, route through an intermediate topic
    /// and count in a second chain — the repartition-topic pattern (see
    /// `examples/streams_dsl.rs`).
    pub fn key_by(mut self, f: impl Fn(&Record) -> Bytes + Send + Sync + 'static) -> Self {
        self.ops.push(Op::Map(Arc::new(move |mut r: Record| {
            r.key = Some(f(&r));
            r
        })));
        self
    }

    /// Keeps only records the predicate accepts.
    pub fn filter(mut self, f: impl Fn(&Record) -> bool + Send + Sync + 'static) -> Self {
        self.ops.push(Op::Filter(Arc::new(f)));
        self
    }

    /// Expands each record into zero or more records.
    pub fn flat_map(mut self, f: impl Fn(Record) -> Vec<Record> + Send + Sync + 'static) -> Self {
        self.ops.push(Op::FlatMap(Arc::new(f)));
        self
    }

    /// Stateful: counts records per key; each input emits the key's
    /// updated count (as a decimal string value).
    pub fn count_by_key(mut self) -> Self {
        self.ops.push(Op::CountByKey);
        self
    }

    /// Stateful: sums `f(record)` per key; each input emits the key's
    /// updated sum (as a decimal string value).
    pub fn sum_by_key(mut self, f: impl Fn(&Record) -> u64 + Send + Sync + 'static) -> Self {
        self.ops.push(Op::SumByKey(Arc::new(f)));
        self
    }

    /// Sets the output topic.
    pub fn to(mut self, topic: &str) -> Self {
        self.sink = Some(topic.to_string());
        self
    }

    /// Whether the chain uses keyed state (needs a changelog).
    fn is_stateful(&self) -> bool {
        self.ops
            .iter()
            .any(|op| matches!(op, Op::CountByKey | Op::SumByKey(_)))
    }

    /// Compiles the chain into a running [`Job`] named `name`.
    pub fn into_job(self, cluster: &Cluster, name: &str) -> crate::Result<Job> {
        let inputs: Vec<&str> = self.inputs.iter().map(String::as_str).collect();
        let mut config = JobConfig::new(name, &inputs);
        if !self.is_stateful() {
            config = config.stateless();
        }
        let ops = self.ops;
        let sink = self.sink;
        Job::new(cluster, config, move |_| {
            Box::new(DslTask {
                ops: ops.clone(),
                sink: sink.clone(),
            })
        })
    }
}

struct DslTask {
    ops: Vec<Op>,
    sink: Option<String>,
}

impl StreamTask for DslTask {
    fn process(&mut self, message: &Message, ctx: &mut TaskContext<'_>) -> crate::Result<()> {
        let mut batch = vec![Record {
            key: message.key.clone(),
            value: message.value.clone(),
            timestamp: message.timestamp,
        }];
        for op in &self.ops {
            let mut next = Vec::with_capacity(batch.len());
            for record in batch {
                match op {
                    Op::Map(f) => next.push(f(record)),
                    Op::Filter(f) => {
                        if f(&record) {
                            next.push(record);
                        }
                    }
                    Op::FlatMap(f) => next.extend(f(record)),
                    Op::CountByKey => {
                        let key = record.key.clone().unwrap_or_default();
                        let mut skey = b"dsl|count|".to_vec();
                        skey.extend_from_slice(&key);
                        let n = ctx.store().add_counter(&skey, 1)?;
                        next.push(Record {
                            key: Some(key),
                            value: Bytes::from(n.to_string()),
                            timestamp: record.timestamp,
                        });
                    }
                    Op::SumByKey(f) => {
                        let delta = f(&record);
                        let key = record.key.clone().unwrap_or_default();
                        let mut skey = b"dsl|sum|".to_vec();
                        skey.extend_from_slice(&key);
                        let n = ctx.store().add_counter(&skey, delta)?;
                        next.push(Record {
                            key: Some(key),
                            value: Bytes::from(n.to_string()),
                            timestamp: record.timestamp,
                        });
                    }
                }
            }
            batch = next;
        }
        if let Some(sink) = &self.sink {
            for record in batch {
                ctx.send(sink, record.key, record.value)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use liquid_messaging::{AckLevel, ClusterConfig, TopicConfig, TopicPartition};
    use liquid_sim::clock::SimClock;

    fn b(s: &str) -> Bytes {
        Bytes::from(s.to_string())
    }

    fn setup(topics: &[&str]) -> Cluster {
        let c = Cluster::new(ClusterConfig::with_brokers(1), SimClock::new(0).shared());
        for t in topics {
            c.create_topic(t, TopicConfig::with_partitions(1)).unwrap();
        }
        c
    }

    fn feed(c: &Cluster, topic: &str, items: &[(&str, &str)]) {
        let tp = TopicPartition::new(topic, 0);
        for (k, v) in items {
            c.produce_to(&tp, Some(b(k)), b(v), AckLevel::Leader)
                .unwrap();
        }
    }

    fn drain(c: &Cluster, topic: &str) -> Vec<(Option<Bytes>, Bytes)> {
        c.fetch_batch(&TopicPartition::new(topic, 0), 0, u64::MAX)
            .unwrap()
            .into_messages()
            .into_iter()
            .map(|m| (m.key, m.value))
            .collect()
    }

    #[test]
    fn map_filter_chain() {
        let c = setup(&["in", "out"]);
        feed(
            &c,
            "in",
            &[("a", "keep-1"), ("b", "drop-2"), ("c", "keep-3")],
        );
        let mut job = Stream::from("in")
            .filter(|r| r.value.starts_with(b"keep"))
            .map_values(|v| Bytes::from(format!("<{}>", String::from_utf8_lossy(&v))))
            .to("out")
            .into_job(&c, "mf")
            .unwrap();
        job.run_until_idle(5).unwrap();
        let out = drain(&c, "out");
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].1, b("<keep-1>"));
        assert_eq!(out[1].1, b("<keep-3>"));
    }

    #[test]
    fn flat_map_expands() {
        let c = setup(&["in", "out"]);
        feed(&c, "in", &[("k", "a b c")]);
        let mut job = Stream::from("in")
            .flat_map(|r| {
                String::from_utf8_lossy(&r.value)
                    .split_whitespace()
                    .map(|w| Record {
                        key: r.key.clone(),
                        value: Bytes::from(w.to_string()),
                        timestamp: r.timestamp,
                    })
                    .collect()
            })
            .to("out")
            .into_job(&c, "fm")
            .unwrap();
        job.run_until_idle(5).unwrap();
        assert_eq!(drain(&c, "out").len(), 3);
    }

    #[test]
    fn count_by_key_emits_running_counts() {
        let c = setup(&["in", "counts"]);
        feed(
            &c,
            "in",
            &[("u1", "x"), ("u2", "x"), ("u1", "x"), ("u1", "x")],
        );
        let mut job = Stream::from("in")
            .count_by_key()
            .to("counts")
            .into_job(&c, "counter")
            .unwrap();
        job.run_until_idle(5).unwrap();
        let out = drain(&c, "counts");
        assert_eq!(out.len(), 4);
        // Running counts per key: u1 -> 1,2,3; u2 -> 1.
        let u1: Vec<&Bytes> = out
            .iter()
            .filter(|(k, _)| k.as_deref() == Some(b"u1"))
            .map(|(_, v)| v)
            .collect();
        assert_eq!(u1, vec![&b("1"), &b("2"), &b("3")]);
    }

    #[test]
    fn key_by_then_sum() {
        // The site-speed shape: re-key RUM events by CDN, sum load times.
        let c = setup(&["rum", "load-by-cdn"]);
        let tp = TopicPartition::new("rum", 0);
        for (cdn, load) in [("east", 100u64), ("west", 50), ("east", 200)] {
            c.produce_to(&tp, None, b(&format!("{cdn}|{load}")), AckLevel::Leader)
                .unwrap();
        }
        let mut job = Stream::from("rum")
            .key_by(|r| {
                let s = String::from_utf8_lossy(&r.value).to_string();
                Bytes::from(s.split('|').next().unwrap_or("?").to_string())
            })
            .sum_by_key(|r| {
                String::from_utf8_lossy(&r.value)
                    .split('|')
                    .nth(1)
                    .and_then(|x| x.parse().ok())
                    .unwrap_or(0)
            })
            .to("load-by-cdn")
            .into_job(&c, "sum")
            .unwrap();
        job.run_until_idle(5).unwrap();
        let out = drain(&c, "load-by-cdn");
        let east: Vec<&Bytes> = out
            .iter()
            .filter(|(k, _)| k.as_deref() == Some(b"east"))
            .map(|(_, v)| v)
            .collect();
        assert_eq!(east, vec![&b("100"), &b("300")]);
    }

    #[test]
    fn stateful_dsl_state_survives_restart() {
        let c = setup(&["in", "counts"]);
        feed(&c, "in", &[("k", "1"), ("k", "2")]);
        {
            let mut job = Stream::from("in")
                .count_by_key()
                .to("counts")
                .into_job(&c, "durable")
                .unwrap();
            job.run_until_idle(5).unwrap();
            job.checkpoint().unwrap();
        }
        feed(&c, "in", &[("k", "3")]);
        let mut job2 = Stream::from("in")
            .count_by_key()
            .to("counts")
            .into_job(&c, "durable")
            .unwrap();
        job2.run_until_idle(5).unwrap();
        let out = drain(&c, "counts");
        // Counts continue: 1, 2 then 3 (not reset to 1).
        assert_eq!(out.last().unwrap().1, b("3"));
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn stateless_chain_skips_changelog() {
        let c = setup(&["in", "out"]);
        let job = Stream::from("in")
            .map(|r| r)
            .to("out")
            .into_job(&c, "nostate")
            .unwrap();
        assert!(!job.config().stateful);
        assert!(!c.topic_names().iter().any(|t| t.contains("nostate")));
        let stateful = Stream::from("in")
            .count_by_key()
            .to("out")
            .into_job(&c, "withstate")
            .unwrap();
        assert!(stateful.config().stateful);
    }

    #[test]
    fn sinkless_chain_is_a_pure_aggregator() {
        let c = setup(&["in"]);
        feed(&c, "in", &[("a", "x"), ("a", "y")]);
        let mut job = Stream::from("in")
            .count_by_key()
            .into_job(&c, "agg")
            .unwrap();
        job.run_until_idle(5).unwrap();
        // State holds the count even with no output feed.
        let store = job.state(0).unwrap();
        assert_eq!(store.get_counter(b"dsl|count|a"), 2);
    }

    #[test]
    fn from_all_merges_inputs() {
        let c = setup(&["a", "b", "out"]);
        feed(&c, "a", &[("k", "from-a")]);
        feed(&c, "b", &[("k", "from-b")]);
        let mut job = Stream::from_all(&["a", "b"])
            .to("out")
            .into_job(&c, "merge")
            .unwrap();
        job.run_until_idle(5).unwrap();
        assert_eq!(drain(&c, "out").len(), 2);
    }
}
