//! Producers: publish messages to topics with pluggable partitioning.
//!
//! The paper (§3.1): "Producers can choose to which partition to publish
//! data in a round-robin fashion or according to a hash function for
//! load-balancing or semantic routing."

use std::sync::atomic::{AtomicU64, Ordering};

use bytes::Bytes;
use liquid_log::{BatchBuilder, RecordBatch};
use liquid_sim::clock::Ts;
use liquid_sim::lockdep::Mutex;

use crate::cluster::Cluster;
use crate::config::AckLevel;
use crate::ids::TopicPartition;

/// How a producer maps messages to partitions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Partitioner {
    /// Cycle through partitions (load balancing).
    RoundRobin,
    /// Hash the key (semantic routing: same key → same partition).
    /// Keyless messages fall back to round-robin.
    KeyHash,
    /// Always use this partition.
    Manual(u32),
}

/// Thresholds for producer-side batch accumulation (§3.1 throughput:
/// amortizing one group commit over many records is what makes the
/// batched hot path fast).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchConfig {
    /// Flush a partition's batch once it holds this many records.
    pub max_records: usize,
    /// Flush once the accumulated payload reaches this many bytes.
    pub max_bytes: usize,
    /// Flush once the batch's first record has waited this long (ms of
    /// the cluster's clock). `0` disables the time bound.
    pub linger_ms: u64,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig {
            max_records: 256,
            max_bytes: 1 << 20,
            linger_ms: 5,
        }
    }
}

/// One partition's in-flight accumulation: the batch builder (the
/// single copy of every payload) plus when it was opened, for linger.
struct PendingBatch {
    builder: BatchBuilder,
    opened_at: Ts,
}

/// One partition's accumulation slot: its pending batch, if any, and
/// the `(frame bytes, records)` the next one is sized for up front, from
/// the last batch it handed over — so a steady stream never regrows its
/// frame record by record.
#[derive(Default)]
struct Slot {
    pending: Option<PendingBatch>,
    next_capacity: (usize, usize),
}

impl Slot {
    /// Takes the pending batch out, remembering its size. The frame
    /// capacity is rounded up to the power of two that growing it would
    /// have reached: exact-size frames, freed beside the exact-size
    /// copies the log freezes, cost `replay_cold` 2 MB of peak RSS.
    fn take(&mut self) -> Option<PendingBatch> {
        let p = self.pending.take()?;
        self.next_capacity = (p.builder.wire_bytes().next_power_of_two(), p.builder.len());
        Some(p)
    }
}

/// A handle publishing to one topic.
pub struct Producer {
    cluster: Cluster,
    topic: String,
    partitions: u32,
    partitioner: Partitioner,
    acks: AckLevel,
    rr: AtomicU64,
    /// Idempotent-producer session: `(producer_id, next_sequence)`.
    idempotent: Option<(u64, AtomicU64)>,
    /// Client id for broker-side quota enforcement.
    client_id: Option<String>,
    /// Per-partition accumulation, when batching is enabled: slot `p`
    /// holds partition `p`'s pending batch. The lock is never held
    /// across a cluster call: flushes take the builder out, release,
    /// then group-commit.
    batching: Option<(BatchConfig, Mutex<Vec<Slot>>)>,
}

impl Producer {
    /// Creates a producer for `topic` with the default partitioner
    /// (key hash for keyed messages, round-robin otherwise — Kafka's
    /// semantics) and `AckLevel::Leader`.
    pub fn new(cluster: &Cluster, topic: &str) -> crate::Result<Self> {
        let partitions = cluster.partition_count(topic)?;
        Ok(Producer {
            cluster: cluster.clone(),
            topic: topic.to_string(),
            partitions,
            partitioner: Partitioner::KeyHash,
            acks: AckLevel::Leader,
            rr: AtomicU64::new(0),
            idempotent: None,
            client_id: None,
            batching: None,
        })
    }

    /// Enables producer-side batching: [`buffer`](Self::buffer)
    /// accumulates records per partition and group-commits a batch when
    /// `config`'s size, byte, or linger threshold trips (or on
    /// [`flush`](Self::flush)).
    pub fn with_batching(mut self, config: BatchConfig) -> Self {
        let slots = (0..self.partitions).map(|_| Slot::default()).collect();
        self.batching = Some((config, Mutex::new("producer.batches", slots)));
        self
    }

    /// Identifies this producer to the brokers for quota accounting
    /// (see [`Cluster::quotas`]). Sends that exceed the client's quota
    /// fail with a throttle error carrying a back-off hint.
    pub fn with_client_id(mut self, client_id: &str) -> Self {
        self.client_id = Some(client_id.to_string());
        self
    }

    /// Enables idempotence: every send carries a producer id and a
    /// sequence number, and brokers drop duplicate sequences — so a
    /// client that *retries* after an ambiguous failure cannot double-
    /// append. (The paper notes exactly-once as ongoing work in §4.3;
    /// this is its producer half.)
    pub fn idempotent(mut self) -> Self {
        let id = self.cluster.register_producer();
        self.idempotent = Some((id, AtomicU64::new(0)));
        self
    }

    /// Re-sends with an explicit sequence (the retry path). With
    /// idempotence enabled, re-sending a sequence already accepted is a
    /// no-op on the broker.
    pub fn send_with_sequence(
        &self,
        key: Option<Bytes>,
        value: Bytes,
        sequence: u64,
    ) -> crate::Result<(u32, u64)> {
        let Some((producer_id, _)) = &self.idempotent else {
            return self.send(key, value);
        };
        let partition = self.pick_partition(key.as_deref());
        let tp = TopicPartition::new(self.topic.clone(), partition);
        let one = RecordBatch::from_pairs([(key, value)], 0);
        let dedup = Some((*producer_id, sequence));
        let offset = self.cluster.produce_batch(&tp, one, self.acks, dedup)?;
        Ok((partition, offset))
    }

    /// Sets the partitioner.
    pub fn with_partitioner(mut self, p: Partitioner) -> Self {
        self.partitioner = p;
        self
    }

    /// Sets the acknowledgement level.
    pub fn with_acks(mut self, acks: AckLevel) -> Self {
        self.acks = acks;
        self
    }

    /// The topic this producer publishes to.
    pub fn topic(&self) -> &str {
        &self.topic
    }

    /// Publishes one message; returns `(partition, offset)`.
    pub fn send(&self, key: Option<Bytes>, value: Bytes) -> crate::Result<(u32, u64)> {
        if let Some(client) = &self.client_id {
            if let crate::quotas::QuotaDecision::Throttle { retry_after_ms } =
                self.cluster.quotas().check(client, value.len() as u64)?
            {
                return Err(crate::MessagingError::Throttled {
                    client: client.clone(),
                    retry_after_ms,
                });
            }
        }
        if let Some((_, next_seq)) = &self.idempotent {
            let seq = next_seq.fetch_add(1, Ordering::Relaxed) + 1;
            return self.send_with_sequence(key, value, seq);
        }
        let partition = self.pick_partition(key.as_deref());
        let tp = TopicPartition::new(self.topic.clone(), partition);
        match self.cluster.produce_to(&tp, key, value, self.acks) {
            Ok(offset) => Ok((partition, offset)),
            Err(e) => {
                if self.acks == AckLevel::None {
                    // Fire-and-forget: losses are silent (paper §4.3).
                    Ok((partition, 0))
                } else {
                    Err(e)
                }
            }
        }
    }

    /// Publishes a keyed message (shorthand).
    pub fn send_keyed(
        &self,
        key: impl Into<Bytes>,
        value: impl Into<Bytes>,
    ) -> crate::Result<(u32, u64)> {
        self.send(Some(key.into()), value.into())
    }

    /// Publishes a keyless message (shorthand).
    pub fn send_value(&self, value: impl Into<Bytes>) -> crate::Result<(u32, u64)> {
        self.send(None, value.into())
    }

    /// Accumulates one record into its partition's pending batch
    /// (requires [`with_batching`](Self::with_batching)). The payload
    /// is copied exactly once — into the batch arena; every later hop
    /// shares it. When this push trips a threshold the partition's
    /// batch is group-committed and `Ok(Some((partition, base_offset)))`
    /// is returned; otherwise `Ok(None)` and the record is in flight
    /// until the next trip or [`flush`](Self::flush).
    pub fn buffer(&self, key: Option<Bytes>, value: Bytes) -> crate::Result<Option<(u32, u64)>> {
        let Some((config, pending)) = &self.batching else {
            // Unbatched producers degrade to an immediate send.
            return self.send(key, value).map(|(p, o)| Some((p, o)));
        };
        if let Some(client) = &self.client_id {
            if let crate::quotas::QuotaDecision::Throttle { retry_after_ms } =
                self.cluster.quotas().check(client, value.len() as u64)?
            {
                return Err(crate::MessagingError::Throttled {
                    client: client.clone(),
                    retry_after_ms,
                });
            }
        }
        let partition = self.pick_partition(key.as_deref());
        let now = self.cluster.clock().now();
        let ripe = {
            let mut slots = pending.lock();
            let Some(slot) = slots.get_mut(partition as usize) else {
                let tp = TopicPartition::new(self.topic.clone(), partition);
                return Err(crate::MessagingError::PartitionUnavailable(tp));
            };
            let (bytes, records) = slot.next_capacity;
            let p = slot.pending.get_or_insert_with(|| PendingBatch {
                builder: BatchBuilder::with_capacity(bytes, records),
                opened_at: now,
            });
            p.builder.push(key.as_deref(), &value, now);
            let trip = p.builder.len() >= config.max_records
                || p.builder.key_value_bytes() >= config.max_bytes as u64
                || (config.linger_ms > 0 && now.saturating_sub(p.opened_at) >= config.linger_ms);
            // Take the ripe batch out *under* the lock, commit after
            // releasing it — the accumulator lock never nests with the
            // cluster's.
            if trip {
                slot.take()
            } else {
                None
            }
        };
        match ripe {
            Some(p) => Ok(Some((partition, self.commit_batch(partition, p.builder)?))),
            None => Ok(None),
        }
    }

    /// Buffers a keyed record (shorthand for [`buffer`](Self::buffer)).
    pub fn buffer_keyed(
        &self,
        key: impl Into<Bytes>,
        value: impl Into<Bytes>,
    ) -> crate::Result<Option<(u32, u64)>> {
        self.buffer(Some(key.into()), value.into())
    }

    /// Buffers a keyless record (shorthand for [`buffer`](Self::buffer)).
    pub fn buffer_value(&self, value: impl Into<Bytes>) -> crate::Result<Option<(u32, u64)>> {
        self.buffer(None, value.into())
    }

    /// Group-commits every pending batch (partition order, so injector
    /// tick order is deterministic). Returns `(partition, base_offset,
    /// record_count)` per flushed batch. Every drained partition is
    /// attempted: a failing commit costs that partition's batch alone,
    /// and the first such error is returned once the rest have landed.
    pub fn flush(&self) -> crate::Result<Vec<(u32, u64, u64)>> {
        let Some((_, pending)) = &self.batching else {
            return Ok(Vec::new());
        };
        let drained: Vec<(u32, PendingBatch)> = pending
            .lock()
            .iter_mut()
            .zip(0u32..)
            .filter_map(|(slot, partition)| Some((partition, slot.take()?)))
            .collect();
        let mut out = Vec::with_capacity(drained.len());
        let mut first_error = None;
        for (partition, p) in drained {
            let count = p.builder.len() as u64;
            match self.commit_batch(partition, p.builder) {
                Ok(base) => out.push((partition, base, count)),
                Err(e) => {
                    first_error.get_or_insert(e);
                }
            }
        }
        first_error.map_or(Ok(out), Err)
    }

    /// Records buffered but not yet committed, across all partitions.
    pub fn pending_records(&self) -> usize {
        self.batching
            .as_ref()
            .map(|(_, pending)| {
                let slots = pending.lock();
                slots
                    .iter()
                    .flat_map(|s| &s.pending)
                    .map(|p| p.builder.len())
                    .sum()
            })
            .unwrap_or(0)
    }

    /// Commits one built batch to its partition; consumes one idempotent
    /// sequence for the whole batch (a retry re-appends all or nothing).
    fn commit_batch(&self, partition: u32, builder: BatchBuilder) -> crate::Result<u64> {
        let tp = TopicPartition::new(self.topic.clone(), partition);
        let dedup = self
            .idempotent
            .as_ref()
            .map(|(id, next_seq)| (*id, next_seq.fetch_add(1, Ordering::Relaxed) + 1));
        match self
            .cluster
            .produce_batch(&tp, builder.build(), self.acks, dedup)
        {
            Ok(base) => Ok(base),
            Err(e) => {
                if self.acks == AckLevel::None {
                    // Fire-and-forget: losses are silent (paper §4.3).
                    Ok(0)
                } else {
                    Err(e)
                }
            }
        }
    }

    fn pick_partition(&self, key: Option<&[u8]>) -> u32 {
        match self.partitioner {
            Partitioner::Manual(p) => p.min(self.partitions - 1),
            Partitioner::KeyHash => match key {
                Some(k) => (hash_key(k) % self.partitions as u64) as u32,
                None => self.next_rr(),
            },
            Partitioner::RoundRobin => self.next_rr(),
        }
    }

    fn next_rr(&self) -> u32 {
        (self.rr.fetch_add(1, Ordering::Relaxed) % self.partitions as u64) as u32
    }
}

fn hash_key(key: &[u8]) -> u64 {
    // FNV-1a with finalizer — stable across runs so semantic routing is
    // reproducible.
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in key {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^ (h >> 33)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterConfig;
    use crate::config::TopicConfig;
    use liquid_sim::clock::SimClock;
    use liquid_sim::failure::FailureInjector;

    fn setup(partitions: u32) -> Cluster {
        setup_with_log_faults(partitions).0
    }

    /// Topic `t` whose partition logs all consult the returned injector.
    fn setup_with_log_faults(partitions: u32) -> (Cluster, FailureInjector) {
        let c = Cluster::new(ClusterConfig::with_brokers(1), SimClock::new(0).shared());
        let config = TopicConfig::with_partitions(partitions);
        let faults = config.log.injector.clone();
        c.create_topic("t", config).unwrap();
        (c, faults)
    }

    fn b(s: &str) -> Bytes {
        Bytes::from(s.to_string())
    }

    #[test]
    fn round_robin_spreads_evenly() {
        let c = setup(4);
        let p = Producer::new(&c, "t").unwrap();
        let mut counts = [0u32; 4];
        for _ in 0..40 {
            let (part, _) = p.send_value("x").unwrap();
            counts[part as usize] += 1;
        }
        assert_eq!(counts, [10, 10, 10, 10]);
    }

    #[test]
    fn default_partitioner_is_key_hash() {
        let c = setup(4);
        let p = Producer::new(&c, "t").unwrap();
        let (a, _) = p.send_keyed("user-7", "x").unwrap();
        let (b, _) = p.send_keyed("user-7", "y").unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn key_hash_is_sticky() {
        let c = setup(4);
        let p = Producer::new(&c, "t")
            .unwrap()
            .with_partitioner(Partitioner::KeyHash);
        let (first, _) = p.send_keyed("user-42", "a").unwrap();
        for _ in 0..10 {
            let (part, _) = p.send_keyed("user-42", "b").unwrap();
            assert_eq!(part, first, "same key must always route the same way");
        }
    }

    #[test]
    fn key_hash_spreads_distinct_keys() {
        let c = setup(8);
        let p = Producer::new(&c, "t")
            .unwrap()
            .with_partitioner(Partitioner::KeyHash);
        let mut used = std::collections::HashSet::new();
        for i in 0..200 {
            let (part, _) = p.send_keyed(format!("user-{i}"), "x").unwrap();
            used.insert(part);
        }
        assert!(used.len() >= 6, "only {} partitions used", used.len());
    }

    #[test]
    fn manual_partitioner_pins() {
        let c = setup(4);
        let p = Producer::new(&c, "t")
            .unwrap()
            .with_partitioner(Partitioner::Manual(2));
        for _ in 0..5 {
            let (part, _) = p.send_value("x").unwrap();
            assert_eq!(part, 2);
        }
    }

    #[test]
    fn manual_partition_clamped_to_range() {
        let c = setup(2);
        let p = Producer::new(&c, "t")
            .unwrap()
            .with_partitioner(Partitioner::Manual(99));
        let (part, _) = p.send_value("x").unwrap();
        assert_eq!(part, 1);
    }

    #[test]
    fn offsets_increase_per_partition() {
        let c = setup(1);
        let p = Producer::new(&c, "t").unwrap();
        let (_, o1) = p.send_value("a").unwrap();
        let (_, o2) = p.send_value("b").unwrap();
        assert_eq!((o1, o2), (0, 1));
    }

    #[test]
    fn unknown_topic_fails_fast() {
        let c = setup(1);
        assert!(Producer::new(&c, "nope").is_err());
    }

    #[test]
    fn idempotent_producer_suppresses_duplicate_retries() {
        let c = setup(1);
        let p = Producer::new(&c, "t").unwrap().idempotent();
        p.send_value("m0").unwrap();
        let (_, off1) = p.send_value("m1").unwrap();
        // A retry of the last send (same sequence) must not re-append.
        let (_, off_dup) = p.send_with_sequence(None, b("m1"), 2).unwrap();
        assert_eq!(off_dup, off1);
        let tp = TopicPartition::new("t", 0);
        let msgs = c.fetch_batch(&tp, 0, u64::MAX).unwrap().into_messages();
        assert_eq!(msgs.len(), 2, "duplicate suppressed");
        // A genuinely new send still lands.
        p.send_value("m2").unwrap();
        assert_eq!(
            c.fetch_batch(&tp, 0, u64::MAX)
                .unwrap()
                .into_messages()
                .len(),
            3
        );
    }

    /// Regression: the sequence used to be recorded before the append,
    /// so a retry after a failed append was dropped as a duplicate; and
    /// a duplicate was answered with the current log end, not its own
    /// offset.
    #[test]
    fn idempotent_retry_appends_once_and_duplicates_keep_their_offset() {
        let (c, faults) = setup_with_log_faults(1);
        let tp = TopicPartition::new("t", 0);
        let p = Producer::new(&c, "t").unwrap().idempotent();
        faults.fail_at(1);
        assert!(p.send_with_sequence(None, b("m1"), 1).is_err());
        assert_eq!(c.log_end_offset(&tp).unwrap(), 0);
        assert_eq!(p.send_with_sequence(None, b("m1"), 1).unwrap(), (0, 0));
        assert_eq!(p.send_with_sequence(None, b("m1"), 1).unwrap(), (0, 0));
        assert_eq!(c.log_end_offset(&tp).unwrap(), 1, "appended exactly once");
        // Someone else appends between a send and its duplicate retry.
        c.produce_to(&tp, None, b("foreign"), AckLevel::Leader)
            .unwrap();
        assert_eq!(p.send_with_sequence(None, b("m1"), 1).unwrap(), (0, 0));
        assert_eq!(c.log_end_offset(&tp).unwrap(), 2);
    }

    #[test]
    fn distinct_idempotent_producers_do_not_interfere() {
        let c = setup(1);
        let p1 = Producer::new(&c, "t").unwrap().idempotent();
        let p2 = Producer::new(&c, "t").unwrap().idempotent();
        p1.send_value("a").unwrap();
        p2.send_value("b").unwrap();
        p1.send_value("c").unwrap();
        let tp = TopicPartition::new("t", 0);
        assert_eq!(
            c.fetch_batch(&tp, 0, u64::MAX)
                .unwrap()
                .into_messages()
                .len(),
            3
        );
    }

    #[test]
    fn non_idempotent_retry_duplicates() {
        // The at-least-once contrast: without idempotence, a retry
        // appends again (§4.3's default behaviour).
        let c = setup(1);
        let p = Producer::new(&c, "t").unwrap();
        p.send_value("m").unwrap();
        p.send_value("m").unwrap();
        let tp = TopicPartition::new("t", 0);
        assert_eq!(
            c.fetch_batch(&tp, 0, u64::MAX)
                .unwrap()
                .into_messages()
                .len(),
            2
        );
    }

    #[test]
    fn quota_throttles_noisy_client() {
        let c = setup(1);
        c.quotas().set_limit("noisy-app", 100);
        let p = Producer::new(&c, "t").unwrap().with_client_id("noisy-app");
        // First sends fit the 100-byte window...
        p.send_value("0123456789").unwrap();
        // ...then the flood hits the quota.
        let mut throttled = false;
        for _ in 0..20 {
            if matches!(
                p.send_value("0123456789012345678901234567890123456789"),
                Err(crate::MessagingError::Throttled { .. })
            ) {
                throttled = true;
                break;
            }
        }
        assert!(throttled, "noisy client must be throttled");
        assert!(c.quotas().throttle_count("noisy-app") >= 1);
        // Unidentified clients are unaffected.
        let free = Producer::new(&c, "t").unwrap();
        for _ in 0..20 {
            free.send_value("0123456789012345678901234567890123456789")
                .unwrap();
        }
    }

    #[test]
    fn buffered_batch_flushes_contiguously() {
        let c = setup(1);
        let p = Producer::new(&c, "t").unwrap().with_batching(BatchConfig {
            max_records: 100,
            max_bytes: 1 << 20,
            linger_ms: 0,
        });
        for i in 0..10 {
            assert_eq!(p.buffer_value(format!("m{i}")).unwrap(), None);
        }
        assert_eq!(p.pending_records(), 10);
        let flushed = p.flush().unwrap();
        assert_eq!(flushed, vec![(0, 0, 10)]);
        assert_eq!(p.pending_records(), 0);
        let tp = TopicPartition::new("t", 0);
        let msgs = c.fetch_batch(&tp, 0, u64::MAX).unwrap().into_messages();
        assert_eq!(msgs.len(), 10);
        let offsets: Vec<u64> = msgs.iter().map(|m| m.offset).collect();
        assert_eq!(offsets, (0..10).collect::<Vec<u64>>(), "contiguous run");
        assert_eq!(msgs[3].value.as_slice(), b"m3");
    }

    #[test]
    fn record_count_threshold_trips_a_flush() {
        let c = setup(1);
        let p = Producer::new(&c, "t").unwrap().with_batching(BatchConfig {
            max_records: 4,
            max_bytes: 1 << 20,
            linger_ms: 0,
        });
        let mut auto_flushed = None;
        for i in 0..4 {
            auto_flushed = p.buffer_value(format!("m{i}")).unwrap();
        }
        assert_eq!(auto_flushed, Some((0, 0)), "4th record trips the batch");
        assert_eq!(p.pending_records(), 0);
    }

    #[test]
    fn byte_threshold_trips_a_flush() {
        // `max_bytes` counts key + value bytes, not the wire bytes
        // around them (76 here): two records of a 1-byte key and a
        // 9-byte value reach exactly 20.
        for (max_bytes, trips) in [(20, true), (21, false)] {
            let c = setup(1);
            let p = Producer::new(&c, "t").unwrap().with_batching(BatchConfig {
                max_records: 1000,
                max_bytes,
                linger_ms: 0,
            });
            assert_eq!(p.buffer_keyed("k", "012345678").unwrap(), None);
            let trip = p.buffer_keyed("k", "012345678").unwrap();
            assert_eq!(trip.is_some(), trips, "20 bytes against {max_bytes}");
        }
    }

    #[test]
    fn linger_trips_on_clock_advance() {
        let clock = SimClock::new(0);
        let c = Cluster::new(ClusterConfig::with_brokers(1), clock.shared());
        c.create_topic("t", TopicConfig::with_partitions(1))
            .unwrap();
        let p = Producer::new(&c, "t").unwrap().with_batching(BatchConfig {
            max_records: 1000,
            max_bytes: 1 << 20,
            linger_ms: 5,
        });
        assert_eq!(p.buffer_value("a").unwrap(), None);
        clock.advance(10);
        let trip = p.buffer_value("b").unwrap();
        assert_eq!(trip, Some((0, 0)), "linger expiry flushes both records");
        let tp = TopicPartition::new("t", 0);
        assert_eq!(
            c.fetch_batch(&tp, 0, u64::MAX)
                .unwrap()
                .into_messages()
                .len(),
            2
        );
    }

    #[test]
    fn batches_route_per_partition_by_key() {
        let c = setup(4);
        let p = Producer::new(&c, "t").unwrap().with_batching(BatchConfig {
            max_records: 1000,
            max_bytes: 1 << 20,
            linger_ms: 0,
        });
        for i in 0..40 {
            p.buffer_keyed(format!("user-{i}"), "x").unwrap();
        }
        let flushed = p.flush().unwrap();
        assert!(flushed.len() >= 2, "keys spread over partitions");
        let total: u64 = flushed.iter().map(|(_, _, n)| n).sum();
        assert_eq!(total, 40);
        // Partition order is deterministic.
        let parts: Vec<u32> = flushed.iter().map(|(p, _, _)| *p).collect();
        let mut sorted = parts.clone();
        sorted.sort_unstable();
        assert_eq!(parts, sorted);
    }

    /// Regression: `flush` used to return at the first failing
    /// partition and drop the drained batches behind it.
    #[test]
    fn flush_lands_every_partition_behind_a_failing_one() {
        let (c, faults) = setup_with_log_faults(4);
        let p = Producer::new(&c, "t")
            .unwrap()
            .with_partitioner(Partitioner::RoundRobin)
            .with_batching(BatchConfig {
                max_records: 1000,
                max_bytes: 1 << 20,
                linger_ms: 0,
            });
        for i in 0..8 {
            p.buffer_value(format!("m{i}")).unwrap();
        }
        faults.fail_at(1);
        assert!(p.flush().is_err(), "partition 0's append was crashed");
        assert_eq!(p.pending_records(), 0);
        let ends: Vec<u64> = (0..4)
            .map(|part| c.log_end_offset(&TopicPartition::new("t", part)).unwrap())
            .collect();
        assert_eq!(ends, vec![0, 2, 2, 2], "only the failing batch is lost");
    }

    #[test]
    fn unbatched_buffer_degrades_to_send() {
        let c = setup(1);
        let p = Producer::new(&c, "t").unwrap();
        assert_eq!(p.buffer_value("x").unwrap(), Some((0, 0)));
        assert!(p.flush().unwrap().is_empty());
    }

    #[test]
    fn idempotent_batches_consume_one_sequence_each() {
        let c = setup(1);
        let p = Producer::new(&c, "t")
            .unwrap()
            .idempotent()
            .with_batching(BatchConfig {
                max_records: 1000,
                max_bytes: 1 << 20,
                linger_ms: 0,
            });
        for i in 0..6 {
            p.buffer_value(format!("m{i}")).unwrap();
        }
        p.flush().unwrap();
        let (_, seq) = p.idempotent.as_ref().unwrap();
        assert_eq!(seq.load(Ordering::Relaxed), 1, "one sequence per batch");
        let tp = TopicPartition::new("t", 0);
        assert_eq!(
            c.fetch_batch(&tp, 0, u64::MAX)
                .unwrap()
                .into_messages()
                .len(),
            6
        );
    }

    #[test]
    fn keyless_with_keyhash_falls_back_to_round_robin() {
        let c = setup(2);
        let p = Producer::new(&c, "t")
            .unwrap()
            .with_partitioner(Partitioner::KeyHash);
        let parts: Vec<u32> = (0..4).map(|_| p.send(None, b("x")).unwrap().0).collect();
        assert_eq!(parts, vec![0, 1, 0, 1]);
    }
}
