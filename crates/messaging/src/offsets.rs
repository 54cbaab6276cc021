//! The offset manager (paper §3.1, §4.2): a highly-available map from
//! consumed offsets to annotations — timestamps, software versions —
//! that consumers checkpoint to and ask for "the last offset my version
//! processed" to resume or rewind.
//!
//! Commits are records of [`OFFSETS_TOPIC`], a compacted topic with one
//! partition and replication `min(3, brokers)` that the first commit
//! creates; a commit is one `acks=All` produce. **Record keys are index
//! keys:** a commit of `(group, tp)` with `m` annotations is `1 + m`
//! records of the same encoded commit, keyed by `(group, tp)` and by
//! each `(group, tp, key, value)`. The index is the partition's fold,
//! the newest commit per key: it holds what compaction keeps, so it is
//! bounded by keys × annotation pairs, not commits, and it reads the same
//! after a compaction or a refold. It changes only from an acked produce
//! or a refold, under one `offsets.inner` lock ranked above
//! `cluster.state`; a call that finds a new leader refolds first.

use std::collections::{BTreeMap, HashMap};

use bytes::Bytes;
use liquid_log::{RecordBatch, RetentionPolicy};
use liquid_obs::{CounterHandle, Obs};
use liquid_sim::clock::Ts;
use liquid_sim::failure::FailureInjector;
use liquid_sim::lockdep::RwLock;

use crate::config::{AckLevel, TopicConfig};
use crate::ids::{BrokerId, TopicPartition};
use crate::{Cluster, MessagingError};

/// The internal topic holding every commit.
pub const OFFSETS_TOPIC: &str = "__offsets";

/// A committed position plus annotations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OffsetCommit {
    /// Next offset to process: everything below it is done.
    pub offset: u64,
    /// When the commit was made.
    pub committed_at: Ts,
    /// Arbitrary annotations: timestamps, software versions, …
    pub metadata: BTreeMap<String, String>,
}

/// The offset manager: a view of [`OFFSETS_TOPIC`] ([`Cluster::offsets`]).
pub struct OffsetManager<'a> {
    pub(crate) cluster: &'a Cluster,
    pub(crate) index: &'a OffsetIndex,
}

/// The cluster's part of the offset manager.
pub(crate) struct OffsetIndex {
    tp: TopicPartition,
    inner: RwLock<Index>,
    injector: FailureInjector,
    /// Twin counter for the `offsets.commit` fault site.
    commits: CounterHandle,
}

/// A decoded record key: `(group, tp)`, and `(key, value)` for an annotation.
type Key = (String, TopicPartition, Option<(String, String)>);

/// The fold of [`OFFSETS_TOPIC`]: the newest commit per record key.
#[derive(Default)]
struct Index {
    /// The leader it was folded from; `None` before the first commit.
    leader: Option<BrokerId>,
    /// The log offset it covers up to.
    end: u64,
    latest: HashMap<Key, OffsetCommit>,
}

impl OffsetIndex {
    pub(crate) fn new(injector: FailureInjector, obs: &Obs) -> Self {
        OffsetIndex {
            tp: TopicPartition::new(OFFSETS_TOPIC, 0),
            inner: RwLock::new("offsets.inner", Index::default()),
            injector,
            commits: obs.registry().counter("offsets.commit"),
        }
    }
}

impl OffsetManager<'_> {
    /// Checkpoints `offset` for `(group, tp)` with annotations. Fails
    /// with [`MessagingError::PartitionUnavailable`] while
    /// [`OFFSETS_TOPIC`] has no leader.
    pub fn commit(
        &self,
        group: &str,
        tp: &TopicPartition,
        offset: u64,
        metadata: BTreeMap<String, String>,
    ) -> crate::Result<()> {
        self.index.commits.inc();
        if self.index.injector.tick("offsets.commit") {
            // Crash before the commit reaches the topic.
            return Err(MessagingError::Injected("offsets.commit"));
        }
        let pairs = metadata.iter().map(|(k, v)| Some((k.clone(), v.clone())));
        let keys: Vec<Key> = std::iter::once(None)
            .chain(pairs)
            .map(|pair| (group.to_string(), tp.clone(), pair))
            .collect();
        let commit = OffsetCommit {
            offset,
            committed_at: self.cluster.clock().now(),
            metadata,
        };
        let value = encode_commit(&commit);
        let records = keys.iter().map(|k| (Some(encode_key(k)), value.clone()));
        let batch = RecordBatch::from_pairs(records, 0);
        let mut index = self.index.inner.write();
        // Topics are never deleted: a folded index knows it exists.
        let created = index.leader.is_none() && {
            let config = TopicConfig::with_partitions(1)
                .replication(self.cluster.broker_count().min(3))
                .retention(RetentionPolicy::compact())
                .segment_bytes(64 * 1024);
            match self.cluster.add_topic(OFFSETS_TOPIC, config) {
                Err(MessagingError::TopicExists(_)) => false,
                created => created.map(|()| true)?,
            }
        };
        let acked = self
            .cluster
            .produce_led(&self.index.tp, batch, AckLevel::All, None);
        let (base, leader) = acked?;
        index.end = base.saturating_add(keys.len() as u64);
        for key in keys {
            index.latest.insert(key, commit.clone());
        }
        let moved = leader.filter(|&l| index.leader != Some(l));
        if created {
            index.leader = leader; // a new topic holds only this commit
        } else if let Some(fold) = moved.and_then(|l| self.fold(l).ok()) {
            // A new leader's log holds this commit too. A failed fold
            // leaves the index stale, to refold on the next call.
            *index = fold;
        }
        Ok(())
    }

    /// Latest commit for `(group, tp)`, if any.
    pub fn fetch(&self, group: &str, tp: &TopicPartition) -> Option<OffsetCommit> {
        self.read(&(group.to_string(), tp.clone(), None))
    }

    /// Latest committed offset (shorthand).
    pub fn fetch_offset(&self, group: &str, tp: &TopicPartition) -> Option<u64> {
        self.fetch(group, tp).map(|c| c.offset)
    }

    /// The most recent commit whose annotation `key` equals `value` —
    /// e.g. "last offset processed by software version v1" (§4.2).
    pub fn last_commit_with(
        &self,
        group: &str,
        tp: &TopicPartition,
        key: &str,
        value: &str,
    ) -> Option<OffsetCommit> {
        let pair = Some((key.to_string(), value.to_string()));
        self.read(&(group.to_string(), tp.clone(), pair))
    }

    /// The commit under `key`, after a refold if [`OFFSETS_TOPIC`] has a
    /// new leader; that fold runs outside the lock, as a consumer's poll
    /// reaches it. Reads never create the topic.
    fn read(&self, key: &Key) -> Option<OffsetCommit> {
        let from = self.index.inner.read().leader;
        let leader = from.and_then(|_| self.cluster.leader(&self.index.tp).ok().flatten());
        let moved = leader.filter(|&l| from != Some(l));
        if let Some(fold) = moved.and_then(|l| self.fold(l).ok()) {
            // Acked commits sit below any later leader's high watermark:
            // a fold ending short of the index missed a commit since.
            let mut index = self.index.inner.write();
            if fold.end >= index.end {
                *index = fold;
            }
        }
        let index = self.index.inner.read();
        index.latest.get(key).cloned()
    }

    /// Folds [`OFFSETS_TOPIC`] as `leader` serves it, earliest to high
    /// watermark in one fetch, skipping what does not decode (anyone may
    /// produce there).
    fn fold(&self, leader: BrokerId) -> crate::Result<Index> {
        let batch = self.cluster.fetch_batch(&self.index.tp, 0, u64::MAX)?;
        let mut latest = HashMap::new();
        for r in batch.records() {
            let key = r.key.as_deref().and_then(decode_key);
            if let (Some(key), Some(commit)) = (key, decode_commit(&r.value)) {
                latest.insert(key, commit);
            }
        }
        let (leader, end) = (Some(leader), batch.high_watermark());
        Ok(Index {
            leader,
            end,
            latest,
        })
    }
}

/// Concatenates `fields`, each with a `u64` length prefix.
fn encode(fields: &[&[u8]]) -> Bytes {
    let mut out = Vec::with_capacity(64);
    for field in fields {
        out.extend_from_slice(&(field.len() as u64).to_le_bytes());
        out.extend_from_slice(field);
    }
    Bytes::from(out)
}

/// Splits one field of [`encode`] off `data`. Every read is
/// bounds-checked, so arbitrary bytes decode to `None`, never a panic.
fn take<'a>(data: &mut &'a [u8]) -> Option<&'a [u8]> {
    let n = u64::from_le_bytes(data.get(..8)?.try_into().ok()?);
    let (field, rest) = data.get(8..)?.split_at_checked(usize::try_from(n).ok()?)?;
    *data = rest;
    Some(field)
}

fn string(data: &mut &[u8]) -> Option<String> {
    std::str::from_utf8(take(data)?).ok().map(String::from)
}

fn int<const N: usize>(data: &mut &[u8]) -> Option<[u8; N]> {
    take(data)?.try_into().ok()
}

fn encode_key((group, tp, pair): &Key) -> Bytes {
    let partition = tp.partition.to_le_bytes();
    let mut fields = vec![group.as_bytes(), tp.topic.as_bytes(), &partition];
    if let Some((k, v)) = pair {
        fields.extend([k.as_bytes(), v.as_bytes()]);
    }
    encode(&fields)
}

fn decode_key(mut data: &[u8]) -> Option<Key> {
    let d = &mut data;
    let (group, topic, partition) = (string(d)?, string(d)?, int(d)?);
    let pair = (!d.is_empty()).then(|| Some((string(d)?, string(d)?)));
    let pair = pair.flatten();
    let tp = TopicPartition::new(topic, u32::from_le_bytes(partition));
    d.is_empty().then_some((group, tp, pair))
}

/// The offset, the timestamp, then each annotation's key and value.
fn encode_commit(c: &OffsetCommit) -> Bytes {
    let (offset, at) = (c.offset.to_le_bytes(), c.committed_at.to_le_bytes());
    let pairs = c
        .metadata
        .iter()
        .flat_map(|(k, v)| [k.as_bytes(), v.as_bytes()]);
    let fields: Vec<&[u8]> = [offset.as_slice(), &at].into_iter().chain(pairs).collect();
    encode(&fields)
}

fn decode_commit(mut data: &[u8]) -> Option<OffsetCommit> {
    let d = &mut data;
    let mut commit = OffsetCommit {
        offset: u64::from_le_bytes(int(d)?),
        committed_at: u64::from_le_bytes(int(d)?),
        metadata: BTreeMap::new(),
    };
    while !d.is_empty() {
        commit.metadata.insert(string(d)?, string(d)?);
    }
    Some(commit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ClusterConfig;
    use liquid_sim::clock::SimClock;
    use proptest::prelude::*;

    fn offsets_tp() -> TopicPartition {
        TopicPartition::new(OFFSETS_TOPIC, 0)
    }

    fn cluster(brokers: u32) -> (Cluster, SimClock) {
        let clock = SimClock::new(0);
        let c = Cluster::new(ClusterConfig::with_brokers(brokers), clock.shared());
        (c, clock)
    }

    fn meta(pairs: &[(&str, &str)]) -> BTreeMap<String, String> {
        pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect()
    }

    /// Index entries (positions and annotation pairs) under `(group, tp)`.
    fn entries(c: &Cluster, group: &str, tp: &TopicPartition) -> usize {
        let index = c.offsets().index.inner.read();
        let keys = index.latest.keys();
        keys.filter(|(g, t, _)| g == group && t == tp).count()
    }

    #[test]
    fn commit_and_fetch() {
        let (c, _) = cluster(1);
        let m = c.offsets();
        let tp = TopicPartition::new("t", 0);
        assert_eq!(m.fetch("g", &tp), None);
        m.commit("g", &tp, 42, meta(&[("version", "v1")])).unwrap();
        let got = m.fetch("g", &tp).unwrap();
        assert_eq!(got.offset, 42);
        assert_eq!(got.metadata["version"], "v1");
        assert_eq!(m.fetch_offset("g", &tp), Some(42));
    }

    #[test]
    fn latest_commit_wins() {
        let (c, clock) = cluster(1);
        let m = c.offsets();
        let tp = TopicPartition::new("t", 0);
        m.commit("g", &tp, 10, meta(&[])).unwrap();
        clock.advance(5);
        m.commit("g", &tp, 20, meta(&[])).unwrap();
        let got = m.fetch("g", &tp).unwrap();
        assert_eq!(got.offset, 20);
        assert_eq!(got.committed_at, 5);
    }

    #[test]
    fn groups_are_isolated() {
        let (c, _) = cluster(1);
        let m = c.offsets();
        let tp = TopicPartition::new("t", 0);
        m.commit("g1", &tp, 1, meta(&[])).unwrap();
        m.commit("g2", &tp, 2, meta(&[])).unwrap();
        assert_eq!(m.fetch_offset("g1", &tp), Some(1));
        assert_eq!(m.fetch_offset("g2", &tp), Some(2));
        assert_eq!(m.fetch_offset("g3", &tp), None);
    }

    #[test]
    fn partitions_are_isolated() {
        let (c, _) = cluster(1);
        let m = c.offsets();
        let (t0, t1) = (TopicPartition::new("t", 0), TopicPartition::new("t", 1));
        m.commit("g", &t0, 5, meta(&[])).unwrap();
        m.commit("g", &t1, 9, meta(&[])).unwrap();
        assert_eq!(m.fetch_offset("g", &t0), Some(5));
        assert_eq!(m.fetch_offset("g", &t1), Some(9));
    }

    #[test]
    fn version_annotation_rewind() {
        // §4.2: find where the old software version stopped, to
        // re-process from there with the new algorithm.
        let (c, _) = cluster(1);
        let m = c.offsets();
        let tp = TopicPartition::new("t", 0);
        m.commit("job", &tp, 100, meta(&[("sw", "v1")])).unwrap();
        m.commit("job", &tp, 200, meta(&[("sw", "v1")])).unwrap();
        m.commit("job", &tp, 300, meta(&[("sw", "v2")])).unwrap();
        let last_v1 = m.last_commit_with("job", &tp, "sw", "v1").unwrap();
        assert_eq!(last_v1.offset, 200);
        assert_eq!(m.last_commit_with("job", &tp, "sw", "v3"), None);
        assert_eq!(m.fetch_offset("job", &tp), Some(300));
    }

    /// Marks the index as folded from another leader, so the next
    /// read refolds it from `__offsets`.
    fn make_stale(c: &Cluster) {
        *c.offsets().index.inner.write() = Index {
            leader: Some(9),
            ..Index::default()
        };
    }

    #[test]
    fn index_recovers_from_backing_log() {
        let (c, _) = cluster(1);
        let m = c.offsets();
        let tp = TopicPartition::new("t", 3);
        m.commit("g", &tp, 7, meta(&[("a", "b")])).unwrap();
        m.commit("g", &tp, 8, meta(&[("a", "c")])).unwrap();
        make_stale(&c);
        let got = m.fetch("g", &tp).unwrap();
        assert_eq!(got.offset, 8);
        assert_eq!(got.metadata["a"], "c");
        assert_eq!(m.last_commit_with("g", &tp, "a", "b").unwrap().offset, 7);
        assert_eq!(m.index.inner.read().leader, Some(0));
    }

    #[test]
    fn backing_log_compacts() {
        let (c, _) = cluster(1);
        let m = c.offsets();
        let tp = TopicPartition::new("t", 0);
        // Enough commits to roll segments (64 KiB each).
        for i in 0..5000 {
            m.commit("g", &tp, i, meta(&[("pad", "xxxxxxxxxxxxxxxx")]))
                .unwrap();
        }
        let before = c.topic_size_bytes(OFFSETS_TOPIC).unwrap();
        let stats = c.compact_topic(OFFSETS_TOPIC).unwrap();
        assert!(stats.dedup_ratio() > 0.5, "{stats:?}");
        assert!(c.topic_size_bytes(OFFSETS_TOPIC).unwrap() < before);
        // The latest commit is still recoverable from the compacted log.
        make_stale(&c);
        assert_eq!(m.fetch_offset("g", &tp), Some(4999));
    }

    #[test]
    fn a_cluster_that_never_commits_has_no_offsets_topic() {
        let (c, _) = cluster(3);
        c.create_topic("t", TopicConfig::with_partitions(2))
            .unwrap();
        let tp = TopicPartition::new("t", 0);
        assert_eq!(c.offsets().fetch("g", &tp), None);
        assert_eq!(c.offsets().last_commit_with("g", &tp, "v", "1"), None);
        assert_eq!(c.topic_names(), vec!["t".to_string()]);
        c.offsets().commit("g", &tp, 1, meta(&[])).unwrap();
        assert_eq!(c.topic_names(), vec![OFFSETS_TOPIC.to_string(), "t".into()]);
        assert_eq!(c.isr(&offsets_tp()).unwrap().len(), 3, "min(3, brokers)");
    }

    /// The index is bounded by keys × annotation pairs, and compaction
    /// and a rebuild after a leader kill leave every answer as it was.
    #[test]
    fn index_is_bounded_and_survives_compaction_and_failover() {
        let (c, _) = cluster(3);
        let m = c.offsets();
        let tp = TopicPartition::new("t", 0);
        for i in 0..20_000u64 {
            let version = if i % 2 == 0 { "v1" } else { "v2" };
            m.commit("g", &tp, i, meta(&[("version", version)]))
                .unwrap();
        }
        assert!(entries(&c, "g", &tp) <= 3, "{}", entries(&c, "g", &tp));
        let answers = || {
            (
                m.fetch("g", &tp),
                m.last_commit_with("g", &tp, "version", "v1"),
                m.last_commit_with("g", &tp, "version", "v2"),
            )
        };
        let before = answers();
        assert_eq!(before.0.as_ref().map(|c| c.offset), Some(19_999));
        assert_eq!(before.1.as_ref().map(|c| c.offset), Some(19_998));
        let stats = c.compact_topic(OFFSETS_TOPIC).unwrap();
        assert!(stats.records_after < stats.records_before / 10, "{stats:?}");
        assert_eq!(answers(), before, "after compaction");
        let leader = c.leader(&offsets_tp()).unwrap().unwrap();
        c.kill_broker(leader).unwrap();
        assert_ne!(c.leader(&offsets_tp()).unwrap(), Some(leader));
        assert_eq!(answers(), before, "after a rebuild on the new leader");
        assert_eq!(
            m.index.inner.read().leader,
            c.leader(&offsets_tp()).unwrap()
        );
        assert!(entries(&c, "g", &tp) <= 3);
    }

    #[test]
    fn commit_without_a_leader_is_unavailable_and_reads_keep_the_index() {
        let (c, _) = cluster(1);
        let m = c.offsets();
        let tp = TopicPartition::new("t", 0);
        m.commit("g", &tp, 7, meta(&[])).unwrap();
        c.kill_broker(0).unwrap();
        let down = m.commit("g", &tp, 8, meta(&[]));
        assert!(matches!(down, Err(MessagingError::PartitionUnavailable(_))));
        assert_eq!(m.fetch_offset("g", &tp), Some(7));
        c.restart_broker(0).unwrap();
        c.replicate_tick().unwrap();
        m.commit("g", &tp, 9, meta(&[])).unwrap();
        assert_eq!(m.fetch_offset("g", &tp), Some(9));
    }

    #[test]
    fn a_rebuild_skips_records_that_do_not_decode() {
        let (c, _) = cluster(1);
        let m = c.offsets();
        let tp = TopicPartition::new("t", 0);
        m.commit("g", &tp, 5, meta(&[])).unwrap();
        let junk = [(Some(Bytes::from_static(b"junk")), Bytes::from_static(b"x"))];
        let key = encode_key(&("g".to_string(), tp.clone(), None));
        let bad_value = [(Some(key), Bytes::from_static(b"short"))];
        for pairs in [&junk[..], &bad_value[..]] {
            let batch = RecordBatch::from_pairs(pairs.iter().cloned(), 0);
            c.produce_batch(&offsets_tp(), batch, AckLevel::All, None)
                .unwrap();
        }
        make_stale(&c);
        assert_eq!(m.fetch_offset("g", &tp), Some(5));
        assert_eq!(m.index.inner.read().latest.len(), 1);
    }

    /// A string over an alphabet that includes NUL and a multi-byte
    /// character.
    fn text(picks: &[u8]) -> String {
        const ALPHABET: [char; 5] = ['a', '\0', 'é', '/', '0'];
        picks.iter().map(|&p| ALPHABET[p as usize % 5]).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn key_encoding_roundtrip(
            group in prop::collection::vec(any::<u8>(), 0..8),
            topic in prop::collection::vec(any::<u8>(), 0..8),
            partition in any::<u32>(),
            pair in (prop::collection::vec(any::<u8>(), 0..8), prop::collection::vec(any::<u8>(), 0..8)),
            annotated in any::<bool>(),
        ) {
            let pair = annotated.then(|| (text(&pair.0), text(&pair.1)));
            let key = (text(&group), TopicPartition::new(text(&topic), partition), pair);
            prop_assert_eq!(decode_key(&encode_key(&key)), Some(key));
        }

        #[test]
        fn commit_encoding_roundtrip(
            offset in any::<u64>(),
            committed_at in any::<u64>(),
            pairs in prop::collection::vec(
                (prop::collection::vec(any::<u8>(), 0..6), prop::collection::vec(any::<u8>(), 0..6)),
                0..4,
            ),
        ) {
            let metadata = pairs.iter().map(|(k, v)| (text(k), text(v))).collect();
            let c = OffsetCommit { offset, committed_at, metadata };
            prop_assert_eq!(decode_commit(&encode_commit(&c)), Some(c));
        }

        /// Arbitrary bytes, and valid encodings cut short or with one
        /// byte changed, decode to anything or `None` without panicking.
        #[test]
        fn arbitrary_bytes_decode_without_panicking(
            junk in prop::collection::vec(any::<u8>(), 0..48),
            cut in any::<usize>(),
            flip in (any::<usize>(), any::<u8>()),
        ) {
            let key = ("g".to_string(), TopicPartition::new("t", 3), Some(("v".into(), "1".into())));
            let commit = OffsetCommit { offset: 1, committed_at: 2, metadata: meta(&[("v", "1")]) };
            for valid in [encode_key(&key).to_vec(), encode_commit(&commit).to_vec()] {
                let mut bent = valid.clone();
                let i = flip.0 % bent.len();
                bent[i] ^= flip.1;
                let short = &valid[..cut % valid.len()];
                for data in [&junk[..], &bent[..], short] {
                    let _ = decode_key(data);
                    let _ = decode_commit(data);
                }
            }
        }
    }
}
