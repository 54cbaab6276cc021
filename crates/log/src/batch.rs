//! Record batches: the unit of the batched hot path (§3.1 throughput).
//!
//! A [`RecordBatch`] is an ordered run of [`Record`]s that travels the
//! produce → append → replicate → fetch → deliver pipeline as one unit.
//! Payloads are ref-counted [`Bytes`] slices, so the bytes of a message
//! are copied exactly once — into the [`BatchBuilder`]'s arena at
//! produce time (or adopted as-is when the caller already holds
//! `Bytes`) — and every later hop shares them by reference count.
//!
//! Batches are *observationally transparent*: appending a batch yields
//! the same log as appending its records one by one, and splitting or
//! merging batches at any boundary changes nothing a reader can see.
//! The batch-semantics proptests in `tests/properties.rs` hold the
//! implementation to that contract.

use bytes::Bytes;
use liquid_sim::clock::Ts;

use crate::record::Record;

/// An ordered run of records moving through the hot path as one unit.
///
/// Records inside a batch have not necessarily been assigned offsets
/// yet: a producer-side batch carries offset 0 on every record until
/// [`Log::append_record_batch`](crate::Log::append_record_batch)
/// assigns the real ones; a batch built from a fetch carries the
/// offsets the log assigned.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecordBatch {
    records: Vec<Record>,
}

impl RecordBatch {
    /// An empty batch.
    pub fn new() -> Self {
        RecordBatch::default()
    }

    /// Starts an arena-backed builder: every pushed key/value is copied
    /// once into one contiguous buffer shared by all records.
    pub fn builder() -> BatchBuilder {
        BatchBuilder::default()
    }

    /// Adopts `(key, value)` pairs without copying — the payloads keep
    /// whatever buffers they already share. All records get `timestamp`.
    pub fn from_pairs(pairs: Vec<(Option<Bytes>, Bytes)>, timestamp: Ts) -> Self {
        RecordBatch {
            records: pairs
                .into_iter()
                .map(|(key, value)| Record::new(key, value, timestamp))
                .collect(),
        }
    }

    /// Wraps already-materialized records (e.g. a changelog flush)
    /// without copying payload bytes.
    pub fn from_records(records: Vec<Record>) -> Self {
        RecordBatch { records }
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the batch holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Sum of payload (value) bytes across the batch.
    pub fn payload_bytes(&self) -> u64 {
        self.records.iter().map(|r| r.value.len() as u64).sum()
    }

    /// Sum of serialized record sizes (what an append will write).
    pub fn wire_bytes(&self) -> u64 {
        self.records.iter().map(|r| r.wire_size() as u64).sum()
    }

    /// Offset of the first record, if any (meaningful after append).
    pub fn base_offset(&self) -> Option<u64> {
        self.records.first().map(|r| r.offset)
    }

    /// The records, in order.
    pub fn records(&self) -> &[Record] {
        &self.records
    }

    /// Consumes the batch into its records (payloads still shared).
    pub fn into_records(self) -> Vec<Record> {
        self.records
    }

    /// Appends a record to the batch.
    pub fn push(&mut self, record: Record) {
        self.records.push(record);
    }

    /// Re-stamps every record with `timestamp` (broker-assigned time at
    /// append, matching the unbatched produce path). Payloads are
    /// untouched — no bytes are copied.
    pub fn stamped(mut self, timestamp: Ts) -> Self {
        for r in &mut self.records {
            r.timestamp = timestamp;
        }
        self
    }

    /// Splits into `[0, mid)` and `[mid, len)` without copying payload
    /// bytes. Appending the two halves in order is observationally
    /// identical to appending the original.
    ///
    /// # Panics
    ///
    /// Panics if `mid > len` (same contract as `slice::split_at`).
    pub fn split_at(mut self, mid: usize) -> (RecordBatch, RecordBatch) {
        let tail = self.records.split_off(mid);
        (self, RecordBatch { records: tail })
    }

    /// Concatenates `other` after `self` without copying payload bytes.
    pub fn merge(mut self, other: RecordBatch) -> RecordBatch {
        self.records.extend(other.records);
        self
    }

    /// Iterates the records lazily (consumer-side decomposition).
    pub fn iter(&self) -> std::slice::Iter<'_, Record> {
        self.records.iter()
    }
}

impl IntoIterator for RecordBatch {
    type Item = Record;
    type IntoIter = std::vec::IntoIter<Record>;
    fn into_iter(self) -> Self::IntoIter {
        self.records.into_iter()
    }
}

impl<'a> IntoIterator for &'a RecordBatch {
    type Item = &'a Record;
    type IntoIter = std::slice::Iter<'a, Record>;
    fn into_iter(self) -> Self::IntoIter {
        self.records.iter()
    }
}

/// Accumulates records into one contiguous arena, so a message's bytes
/// are copied exactly once at produce time and shared (ref-counted) by
/// every later hop. [`BatchBuilder::build`] freezes the arena into a
/// single [`Bytes`] and hands each record zero-copy slices of it.
#[derive(Debug, Default)]
pub struct BatchBuilder {
    arena: Vec<u8>,
    entries: Vec<BatchEntry>,
}

/// Arena coordinates of one pending record: optional key range, value
/// range, timestamp.
type BatchEntry = (Option<(usize, usize)>, (usize, usize), Ts);

impl BatchBuilder {
    /// Copies `key`/`value` into the arena (the single produce-time
    /// copy) and schedules a record carrying `timestamp`.
    pub fn push(&mut self, key: Option<&[u8]>, value: &[u8], timestamp: Ts) -> &mut Self {
        let key_range = key.map(|k| {
            let lo = self.arena.len();
            self.arena.extend_from_slice(k);
            (lo, self.arena.len())
        });
        let lo = self.arena.len();
        self.arena.extend_from_slice(value);
        let value_range = (lo, self.arena.len());
        self.entries.push((key_range, value_range, timestamp));
        self
    }

    /// Records accumulated so far.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing has been pushed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Arena bytes accumulated so far (size-threshold checks).
    pub fn arena_bytes(&self) -> usize {
        self.arena.len()
    }

    /// Freezes the arena and builds the batch: every key and value is a
    /// zero-copy slice of the one shared buffer.
    pub fn build(self) -> RecordBatch {
        let arena = Bytes::from(self.arena);
        RecordBatch {
            records: self
                .entries
                .into_iter()
                .map(|(key_range, (vlo, vhi), timestamp)| {
                    Record::new(
                        key_range.map(|(klo, khi)| arena.slice(klo..khi)),
                        arena.slice(vlo..vhi),
                        timestamp,
                    )
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(s: &str) -> Bytes {
        Bytes::from(s.to_string())
    }

    #[test]
    fn builder_copies_once_into_shared_arena() {
        let mut bb = RecordBatch::builder();
        bb.push(Some(b"k0"), b"value-zero", 1);
        bb.push(None, b"value-one", 2);
        bb.push(Some(b"k2"), b"value-two", 3);
        let batch = bb.build();
        assert_eq!(batch.len(), 3);
        // All slices point into one contiguous arena: consecutive
        // payloads are adjacent in memory.
        let r = batch.records();
        let k0 = r[0].key.as_ref().map(|k| k.as_slice().as_ptr());
        let v0 = r[0].value.as_slice().as_ptr();
        let v1 = r[1].value.as_slice().as_ptr();
        let base = k0.expect("keyed record");
        assert_eq!(ptr_distance(base, v0), 2, "key then value");
        assert_eq!(
            ptr_distance(v0, v1),
            "value-zero".len(),
            "arena is contiguous"
        );
        assert_eq!(r[0].timestamp, 1);
        assert_eq!(r[2].key.as_deref(), Some(b"k2".as_ref()));
    }

    // Pointer distance between two slices of the same allocation —
    // plain usize math on addresses.
    fn ptr_distance(lo: *const u8, hi: *const u8) -> usize {
        (hi as usize) - (lo as usize)
    }

    #[test]
    fn from_pairs_adopts_without_copy() {
        let v = b("shared-payload");
        let batch = RecordBatch::from_pairs(vec![(None, v.clone())], 9);
        // Zero-copy adoption: the record's value points at the same
        // backing memory as the caller's Bytes.
        assert_eq!(
            batch.records()[0].value.as_slice().as_ptr(),
            v.as_slice().as_ptr()
        );
        assert_eq!(batch.payload_bytes(), v.len() as u64);
    }

    #[test]
    fn split_and_merge_roundtrip() {
        let mut bb = RecordBatch::builder();
        for i in 0..10 {
            bb.push(None, format!("v{i}").as_bytes(), i);
        }
        let original = bb.build();
        for mid in 0..=original.len() {
            let (a, z) = original.clone().split_at(mid);
            assert_eq!(a.len(), mid);
            let back = a.merge(z);
            assert_eq!(back, original, "split at {mid} then merge is identity");
        }
    }

    #[test]
    fn sizes_and_iteration() {
        let batch = RecordBatch::from_pairs(vec![(Some(b("k")), b("vv")), (None, b("www"))], 0);
        assert_eq!(batch.payload_bytes(), 5);
        assert!(batch.wire_bytes() > batch.payload_bytes());
        let values: Vec<&[u8]> = batch.iter().map(|r| r.value.as_slice()).collect();
        assert_eq!(values, vec![b"vv".as_ref(), b"www".as_ref()]);
        assert_eq!(batch.clone().into_iter().count(), 2);
        assert!(RecordBatch::new().is_empty());
        assert_eq!(RecordBatch::new().base_offset(), None);
    }
}
