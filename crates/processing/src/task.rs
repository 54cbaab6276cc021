//! The task abstraction: user code processing one partition.

use std::collections::BTreeMap;

use bytes::Bytes;
use liquid_log::Record;
use liquid_messaging::{AckLevel, Cluster, Message, MessagingError, TopicPartition};

use crate::state::{send_buffered, StateStore, FLUSH_AT};

/// User-supplied stream logic. One instance runs per input partition
/// (the paper's task-per-partition parallelism, §3.2).
pub trait StreamTask: Send {
    /// Called once before the first message.
    fn init(&mut self, _ctx: &mut TaskContext<'_>) -> crate::Result<()> {
        Ok(())
    }

    /// Called for every input message.
    fn process(&mut self, message: &Message, ctx: &mut TaskContext<'_>) -> crate::Result<()>;

    /// Called on window ticks (see [`Job::tick_windows`]).
    ///
    /// [`Job::tick_windows`]: crate::job::Job::tick_windows
    fn window(&mut self, _ctx: &mut TaskContext<'_>) -> crate::Result<()> {
        Ok(())
    }
}

/// Everything a task may touch while processing: its local state, the
/// output streams, and identity information.
pub struct TaskContext<'a> {
    /// The partition this task owns (doubles as the task id).
    pub partition: u32,
    /// Partition the *current* message arrived on (differs from
    /// `partition` only for merged-input jobs).
    pub input: Option<&'a TopicPartition>,
    pub(crate) store: &'a mut StateStore,
    pub(crate) outputs: &'a mut Outputs,
}

impl TaskContext<'_> {
    /// The task's keyed state store.
    pub fn store(&mut self) -> &mut StateStore {
        self.store
    }

    /// Publishes a message to an output feed and returns the partition
    /// it is routed to: keyed messages route by key hash (stable
    /// routing), keyless round-robin. The message is buffered; it gets
    /// its offset when the job flushes the round.
    pub fn send(&mut self, topic: &str, key: Option<Bytes>, value: Bytes) -> crate::Result<u32> {
        self.outputs.send(topic, key, value)
    }

    /// Messages emitted so far by this task.
    pub fn emitted(&self) -> u64 {
        self.outputs.emitted
    }
}

/// One output topic of a task: its round-robin cursor and, per
/// partition, the records sent since the last flush.
struct TopicOutputs {
    rr: u64,
    partitions: Vec<(TopicPartition, Vec<Record>)>,
}

/// A task's output side, shared across calls: routing state per topic
/// (resolved once) and the records buffered for the next flush. Every
/// record is kept, in send order — derived feeds are never coalesced.
pub(crate) struct Outputs {
    cluster: Cluster,
    acks: AckLevel,
    /// Sorted, so a flush visits partitions in one order on every run.
    topics: BTreeMap<String, TopicOutputs>,
    pub(crate) emitted: u64,
}

impl Outputs {
    pub(crate) fn new(cluster: Cluster, acks: AckLevel) -> Self {
        Outputs {
            cluster,
            acks,
            topics: BTreeMap::new(),
            emitted: 0,
        }
    }

    pub(crate) fn send(
        &mut self,
        topic: &str,
        key: Option<Bytes>,
        value: Bytes,
    ) -> crate::Result<u32> {
        let out = match self.topics.get_mut(topic) {
            Some(out) => out,
            None => {
                let partitions: Vec<_> = (0..self.cluster.partition_count(topic)?)
                    .map(|p| (TopicPartition::new(topic, p), Vec::new()))
                    .collect();
                if partitions.is_empty() {
                    return Err(MessagingError::ZeroPartitions.into());
                }
                let resolved = TopicOutputs { rr: 0, partitions };
                self.topics.entry(topic.to_string()).or_insert(resolved)
            }
        };
        let n = out.partitions.len() as u64;
        let partition = match &key {
            Some(k) => hash_bytes(k) % n,
            None => {
                let p = out.rr % n;
                out.rr += 1;
                p
            }
        };
        let (tp, records) = &mut out.partitions[partition as usize];
        records.push(Record::new(key, value, 0));
        self.emitted += 1;
        if records.len() >= FLUSH_AT {
            send_buffered(&self.cluster, tp, records, self.acks)?;
        }
        Ok(partition as u32)
    }

    /// Sends every buffered record, one batch per destination
    /// partition. A partition whose batch fails keeps its records for
    /// the next flush.
    pub(crate) fn flush(&mut self) -> crate::Result<()> {
        for out in self.topics.values_mut() {
            for (tp, records) in &mut out.partitions {
                send_buffered(&self.cluster, tp, records, self.acks)?;
            }
        }
        Ok(())
    }
}

fn hash_bytes(key: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in key {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^ (h >> 33)
}

/// A [`StreamTask`] built from a closure — handy for simple ETL stages.
pub struct FnTask<F>(pub F);

impl<F> StreamTask for FnTask<F>
where
    F: FnMut(&Message, &mut TaskContext<'_>) -> crate::Result<()> + Send,
{
    fn process(&mut self, message: &Message, ctx: &mut TaskContext<'_>) -> crate::Result<()> {
        (self.0)(message, ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use liquid_messaging::{ClusterConfig, TopicConfig};
    use liquid_sim::clock::SimClock;

    fn b(s: &str) -> Bytes {
        Bytes::from(s.to_string())
    }

    fn setup() -> Cluster {
        let c = Cluster::new(ClusterConfig::with_brokers(1), SimClock::new(0).shared());
        c.create_topic("out", TopicConfig::with_partitions(4))
            .unwrap();
        c
    }

    #[test]
    fn outputs_route_keyed_stably() {
        let c = setup();
        let mut o = Outputs::new(c.clone(), AckLevel::Leader);
        let p1 = o.send("out", Some(b("k1")), b("a")).unwrap();
        let p2 = o.send("out", Some(b("k1")), b("b")).unwrap();
        assert_eq!(p1, p2);
        assert_eq!(o.emitted, 2);
        // Buffered until the flush, then in the log in send order.
        let tp = TopicPartition::new("out", p1);
        assert_eq!(c.latest_offset(&tp).unwrap(), 0);
        o.flush().unwrap();
        let sent = c.fetch_batch(&tp, 0, u64::MAX).unwrap().into_messages();
        let values: Vec<Bytes> = sent.into_iter().map(|m| m.value).collect();
        assert_eq!(values, vec![b("a"), b("b")]);
        o.flush().unwrap();
        assert_eq!(c.latest_offset(&tp).unwrap(), 2, "nothing left to send");
    }

    #[test]
    fn outputs_flush_a_partition_at_the_bound() {
        let c = setup();
        let mut o = Outputs::new(c.clone(), AckLevel::Leader);
        let mut p = 0;
        for _ in 0..FLUSH_AT {
            p = o.send("out", Some(b("k1")), b("same")).unwrap();
        }
        // Never coalesced: every record of the key is in the feed.
        let tp = TopicPartition::new("out", p);
        assert_eq!(c.latest_offset(&tp).unwrap(), FLUSH_AT as u64);
    }

    #[test]
    fn outputs_round_robin_keyless() {
        let c = setup();
        let mut o = Outputs::new(c, AckLevel::Leader);
        let parts: Vec<u32> = (0..4)
            .map(|_| o.send("out", None, b("x")).unwrap())
            .collect();
        assert_eq!(parts, vec![0, 1, 2, 3]);
    }

    #[test]
    fn outputs_unknown_topic_errors() {
        let c = setup();
        let mut o = Outputs::new(c, AckLevel::Leader);
        assert!(o.send("missing", None, b("x")).is_err());
    }

    #[test]
    fn fn_task_runs_closure() {
        let c = setup();
        let mut store = StateStore::ephemeral();
        let mut outputs = Outputs::new(c.clone(), AckLevel::Leader);
        let mut ctx = TaskContext {
            partition: 0,
            input: None,
            store: &mut store,
            outputs: &mut outputs,
        };
        let mut task = FnTask(|m: &Message, ctx: &mut TaskContext<'_>| {
            ctx.store().add_counter(b"count", 1)?;
            ctx.send("out", m.key.clone(), m.value.clone())?;
            Ok(())
        });
        let msg = Message {
            offset: 0,
            timestamp: 0,
            key: None,
            value: b("hello"),
            span: 0,
        };
        task.process(&msg, &mut ctx).unwrap();
        assert_eq!(ctx.store().get_counter(b"count"), 1);
        assert_eq!(ctx.emitted(), 1);
    }
}
