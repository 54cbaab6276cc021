//! Stream joins over explicit state (§3.2: "state can be represented as
//! arbitrary data structures", e.g. a dictionary used to enrich events).
//!
//! * [`StreamTableJoinTask`] materializes a (usually compacted) table
//!   feed into task state and enriches the stream side against it —
//!   the classic "user activity × user profile" join.
//! * [`WindowedStreamJoinTask`] buffers both sides in state and emits a
//!   pair whenever records with the same key arrive within the window —
//!   the pattern behind the call-graph assembly use case (§5.1), though
//!   `examples/call_graph_assembly.rs` buffers its spans itself.

use bytes::Bytes;
use liquid_messaging::Message;
use liquid_sim::clock::Ts;

use crate::task::{StreamTask, TaskContext};

/// Joins a stream against a table maintained from another feed.
///
/// Messages arriving on `table_topic` upsert task state (empty value =
/// delete). Messages on any other input are probes: the joiner closure
/// receives the probe and the current table value for its key and
/// returns an optional output value published to `output_topic`.
pub struct StreamTableJoinTask<F> {
    table_topic: String,
    output_topic: String,
    join: F,
}

impl<F> StreamTableJoinTask<F>
where
    F: FnMut(&Message, Option<&Bytes>) -> Option<Bytes> + Send,
{
    /// Creates a joiner. `table_topic` must be one of the job's inputs.
    pub fn new(table_topic: &str, output_topic: &str, join: F) -> Self {
        StreamTableJoinTask {
            table_topic: table_topic.to_string(),
            output_topic: output_topic.to_string(),
            join,
        }
    }
}

impl<F> StreamTask for StreamTableJoinTask<F>
where
    F: FnMut(&Message, Option<&Bytes>) -> Option<Bytes> + Send,
{
    fn process(&mut self, message: &Message, ctx: &mut TaskContext<'_>) -> crate::Result<()> {
        let from_table = ctx.input.is_some_and(|tp| tp.topic == self.table_topic);
        if from_table {
            let Some(key) = message.key.clone() else {
                return Ok(());
            };
            let mut skey = b"tbl|".to_vec();
            skey.extend_from_slice(&key);
            if message.value.is_empty() {
                ctx.store().delete(Bytes::from(skey))?;
            } else {
                ctx.store().put(Bytes::from(skey), message.value.clone())?;
            }
            return Ok(());
        }
        let table_value = match &message.key {
            Some(key) => {
                let mut skey = b"tbl|".to_vec();
                skey.extend_from_slice(key);
                ctx.store().get(&skey)
            }
            None => None,
        };
        if let Some(out) = (self.join)(message, table_value.as_ref()) {
            ctx.send(&self.output_topic, message.key.clone(), out)?;
        }
        Ok(())
    }
}

/// Joins two streams within an event-time window.
///
/// Both sides are buffered in state under `<side>|<key>|<ts>|<offset>`;
/// each arrival scans the opposite side's buffer for entries within
/// `window_ms` and emits one output per match via `combine`. Expired
/// buffer entries are garbage-collected on [`StreamTask::window`] ticks.
pub struct WindowedStreamJoinTask<F> {
    left_topic: String,
    output_topic: String,
    window_ms: u64,
    combine: F,
    max_event_time: Ts,
}

impl<F> WindowedStreamJoinTask<F>
where
    F: FnMut(&Bytes, &Bytes, &Bytes) -> Bytes + Send,
{
    /// Creates a windowed joiner; messages from `left_topic` are the
    /// "left" side, everything else the "right".
    pub fn new(left_topic: &str, output_topic: &str, window_ms: u64, combine: F) -> Self {
        WindowedStreamJoinTask {
            left_topic: left_topic.to_string(),
            output_topic: output_topic.to_string(),
            window_ms,
            combine,
            max_event_time: 0,
        }
    }
}

fn buffer_key(side: u8, key: &[u8], ts: Ts, offset: u64) -> Vec<u8> {
    let mut k = Vec::with_capacity(key.len() + 40);
    k.push(side);
    k.push(b'|');
    k.extend_from_slice(key);
    k.extend_from_slice(format!("|{ts:020}|{offset:020}").as_bytes());
    k
}

fn parse_buffer_ts(k: &[u8], key_len: usize) -> Option<Ts> {
    // layout: side(1) '|' key '|' ts(20) '|' offset(20)
    let ts_start = 2 + key_len + 1;
    std::str::from_utf8(k.get(ts_start..ts_start + 20)?)
        .ok()?
        .parse()
        .ok()
}

impl<F> StreamTask for WindowedStreamJoinTask<F>
where
    F: FnMut(&Bytes, &Bytes, &Bytes) -> Bytes + Send,
{
    fn process(&mut self, message: &Message, ctx: &mut TaskContext<'_>) -> crate::Result<()> {
        let Some(key) = message.key.clone() else {
            return Ok(()); // joins are keyed
        };
        let is_left = ctx.input.is_some_and(|tp| tp.topic == self.left_topic);
        let (own, other) = if is_left { (b'L', b'R') } else { (b'R', b'L') };
        self.max_event_time = self.max_event_time.max(message.timestamp);
        // Buffer own side.
        ctx.store().put(
            Bytes::from(buffer_key(own, &key, message.timestamp, message.offset)),
            message.value.clone(),
        )?;
        // Probe the other side: prefix scan over `<other>|<key>|`.
        let mut lo = vec![other, b'|'];
        lo.extend_from_slice(&key);
        lo.push(b'|');
        let mut hi = lo.clone();
        hi.push(0xFF);
        let matches = ctx.store().range(Some(&lo), Some(&hi));
        for (mk, mv) in matches {
            let Some(ts) = parse_buffer_ts(&mk, key.len()) else {
                continue;
            };
            if ts.abs_diff(message.timestamp) <= self.window_ms {
                let (left_v, right_v) = if is_left {
                    (&message.value, &mv)
                } else {
                    (&mv, &message.value)
                };
                let out = (self.combine)(&key, left_v, right_v);
                ctx.send(&self.output_topic, Some(key.clone()), out)?;
            }
        }
        Ok(())
    }

    fn window(&mut self, ctx: &mut TaskContext<'_>) -> crate::Result<()> {
        // GC: drop buffered entries older than the window.
        let cutoff = self.max_event_time.saturating_sub(self.window_ms);
        let doomed: Vec<Bytes> = ctx
            .store()
            .scan_all()
            .into_iter()
            .filter_map(|(k, _)| {
                if k.first() != Some(&b'L') && k.first() != Some(&b'R') {
                    return None;
                }
                // key length = total - fixed parts (2 prefix + 42 suffix)
                let key_len = k.len().checked_sub(2 + 42)?;
                let ts = parse_buffer_ts(&k, key_len)?;
                (ts < cutoff).then_some(k)
            })
            .collect();
        for k in doomed {
            ctx.store().delete(k)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{Job, JobConfig};
    use liquid_messaging::{AckLevel, Cluster, ClusterConfig, TopicConfig, TopicPartition};
    use liquid_sim::clock::SimClock;

    fn b(s: &str) -> Bytes {
        Bytes::from(s.to_string())
    }

    fn setup() -> (Cluster, SimClock) {
        let clock = SimClock::new(0);
        let c = Cluster::new(ClusterConfig::with_brokers(1), clock.shared());
        for t in ["profiles", "activity", "enriched", "left", "right", "pairs"] {
            c.create_topic(t, TopicConfig::with_partitions(1)).unwrap();
        }
        (c, clock)
    }

    fn produce(c: &Cluster, topic: &str, key: &str, value: &str) {
        c.produce_to(
            &TopicPartition::new(topic, 0),
            Some(b(key)),
            b(value),
            AckLevel::Leader,
        )
        .unwrap();
    }

    #[test]
    fn stream_table_join_enriches() {
        let (c, _) = setup();
        produce(&c, "profiles", "u1", "Alice");
        produce(&c, "profiles", "u2", "Bob");
        produce(&c, "activity", "u1", "click");
        produce(&c, "activity", "u3", "view");
        let mut job = Job::new(
            &c,
            JobConfig::new("join", &["profiles", "activity"]).bootstrap_input("profiles"),
            |_| {
                Box::new(StreamTableJoinTask::new(
                    "profiles",
                    "enriched",
                    |probe: &Message, table: Option<&Bytes>| {
                        let name = table
                            .map(|t| String::from_utf8_lossy(t).to_string())
                            .unwrap_or_else(|| "unknown".to_string());
                        Some(Bytes::from(format!(
                            "{}:{}",
                            name,
                            String::from_utf8_lossy(&probe.value)
                        )))
                    },
                ))
            },
        )
        .unwrap();
        job.run_until_idle(10).unwrap();
        let out = c
            .fetch_batch(&TopicPartition::new("enriched", 0), 0, u64::MAX)
            .unwrap()
            .into_messages();
        assert_eq!(out.len(), 2);
        let values: Vec<String> = out
            .iter()
            .map(|m| String::from_utf8_lossy(&m.value).to_string())
            .collect();
        assert!(values.contains(&"Alice:click".to_string()));
        assert!(values.contains(&"unknown:view".to_string()));
    }

    #[test]
    fn table_delete_removes_enrichment() {
        let (c, _) = setup();
        produce(&c, "profiles", "u1", "Alice");
        // Tombstone.
        c.produce_to(
            &TopicPartition::new("profiles", 0),
            Some(b("u1")),
            Bytes::new(),
            AckLevel::Leader,
        )
        .unwrap();
        produce(&c, "activity", "u1", "click");
        let mut job = Job::new(
            &c,
            JobConfig::new("join2", &["profiles", "activity"]).bootstrap_input("profiles"),
            |_| {
                Box::new(StreamTableJoinTask::new(
                    "profiles",
                    "enriched",
                    |_: &Message, table: Option<&Bytes>| {
                        Some(Bytes::from(format!("{}", table.is_some())))
                    },
                ))
            },
        )
        .unwrap();
        job.run_until_idle(10).unwrap();
        let out = c
            .fetch_batch(&TopicPartition::new("enriched", 0), 0, u64::MAX)
            .unwrap()
            .into_messages();
        assert_eq!(out[0].value, b("false"));
    }

    #[test]
    fn windowed_join_pairs_within_window() {
        let (c, clock) = setup();
        clock.set(1_000);
        produce(&c, "left", "req-1", "frontend-call");
        clock.set(1_200);
        produce(&c, "right", "req-1", "backend-call");
        clock.set(50_000);
        produce(&c, "right", "req-1", "way-too-late");
        let mut job = Job::new(&c, JobConfig::new("wjoin", &["left", "right"]), |_| {
            Box::new(WindowedStreamJoinTask::new(
                "left",
                "pairs",
                1_000,
                |_k: &Bytes, l: &Bytes, r: &Bytes| {
                    Bytes::from(format!(
                        "{}+{}",
                        String::from_utf8_lossy(l),
                        String::from_utf8_lossy(r)
                    ))
                },
            ))
        })
        .unwrap();
        job.run_until_idle(10).unwrap();
        let out = c
            .fetch_batch(&TopicPartition::new("pairs", 0), 0, u64::MAX)
            .unwrap()
            .into_messages();
        assert_eq!(out.len(), 1, "only the in-window pair joins");
        assert_eq!(out[0].value, b("frontend-call+backend-call"));
    }

    #[test]
    fn windowed_join_gc_drops_expired_buffers() {
        let (c, clock) = setup();
        clock.set(0);
        produce(&c, "left", "k", "old");
        clock.set(100_000);
        produce(&c, "left", "k", "new");
        let mut job = Job::new(&c, JobConfig::new("gc", &["left", "right"]), |_| {
            Box::new(WindowedStreamJoinTask::new(
                "left",
                "pairs",
                1_000,
                |_: &Bytes, _: &Bytes, _: &Bytes| Bytes::new(),
            ))
        })
        .unwrap();
        job.run_until_idle(10).unwrap();
        assert_eq!(job.total_state_keys(), 2);
        job.tick_windows().unwrap();
        assert_eq!(job.total_state_keys(), 1, "expired buffer entry dropped");
    }

    #[test]
    fn keyless_messages_ignored_by_joins() {
        let (c, _) = setup();
        c.produce_to(
            &TopicPartition::new("left", 0),
            None,
            b("nokey"),
            AckLevel::Leader,
        )
        .unwrap();
        let mut job = Job::new(&c, JobConfig::new("nk", &["left", "right"]), |_| {
            Box::new(WindowedStreamJoinTask::new(
                "left",
                "pairs",
                1_000,
                |_: &Bytes, _: &Bytes, _: &Bytes| Bytes::new(),
            ))
        })
        .unwrap();
        job.run_until_idle(10).unwrap();
        assert_eq!(job.total_state_keys(), 0);
    }
}
