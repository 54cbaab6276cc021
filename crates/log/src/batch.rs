//! Record batches: the unit of the batched hot path (§3.1 throughput).
//!
//! A [`RecordBatch`] is its own frame: the records' final wire
//! encodings back to back, as the producer wrote them — every field but
//! the offset and the CRC, which only the log can know — plus where each
//! record starts. The key and value bytes are copied exactly once, by
//! [`BatchBuilder::push`], into the place they will have in storage;
//! [`Log::append_record_batch`](crate::Log::append_record_batch) seals
//! the frame in place (offsets, broker timestamp, CRCs), freezes it
//! once and stores it, and every later hop shares that allocation by
//! reference count (DESIGN.md §20).
//!
//! Batches are *observationally transparent*: appending a batch yields
//! the same log as appending its records one by one, and cutting a run
//! of records into batches at any boundary changes nothing a reader can
//! see. The batch-semantics proptests in `tests/properties.rs` hold the
//! implementation to that contract.

use std::borrow::Borrow;

use bytes::Bytes;
use liquid_sim::clock::Ts;

use crate::record::{self, Record};

/// An ordered run of records moving through the hot path as one unit:
/// an unsealed frame and a per-record index into it. There is no other
/// form — no `Vec<Record>` beside the bytes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecordBatch {
    /// The records' encodings back to back, offset and CRC still zero.
    frame: Vec<u8>,
    /// Where each record's encoding starts in `frame`.
    starts: Vec<usize>,
    /// Value bytes, and key bytes, across the batch.
    value_bytes: u64,
    key_bytes: u64,
    /// The broker's timestamp, written over every record's own at seal.
    stamp: Option<Ts>,
}

impl RecordBatch {
    /// An empty batch.
    pub fn new() -> Self {
        RecordBatch::default()
    }

    /// Starts a builder: every pushed key/value is encoded straight into
    /// the batch's frame.
    pub fn builder() -> BatchBuilder {
        BatchBuilder::default()
    }

    /// A batch of `(key, value)` pairs, all stamped `timestamp`; the
    /// payloads are copied once, into the frame.
    pub fn from_pairs(
        pairs: impl IntoIterator<Item = (Option<Bytes>, Bytes)>,
        timestamp: Ts,
    ) -> Self {
        let mut builder = BatchBuilder::default();
        for (key, value) in pairs {
            builder.push(key.as_deref(), &value, timestamp);
        }
        builder.build()
    }

    /// A batch of already-materialized records (e.g. a changelog
    /// flush), owned or borrowed, keeping their timestamps; offsets are
    /// the log's to assign.
    pub fn from_records<R: Borrow<Record>>(records: impl IntoIterator<Item = R>) -> Self {
        let mut builder = BatchBuilder::default();
        for r in records {
            let r = r.borrow();
            builder.push(r.key.as_deref(), &r.value, r.timestamp);
        }
        builder.build()
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.starts.len()
    }

    /// Whether the batch holds no records.
    pub fn is_empty(&self) -> bool {
        self.starts.is_empty()
    }

    /// Sum of payload (value) bytes across the batch.
    pub fn payload_bytes(&self) -> u64 {
        self.value_bytes
    }

    /// Sum of serialized record sizes (what an append will write).
    pub fn wire_bytes(&self) -> u64 {
        self.frame.len() as u64
    }

    /// Re-stamps every record with `timestamp` (broker-assigned time at
    /// append): the seal writes it over each record's own.
    pub fn stamped(mut self, timestamp: Ts) -> Self {
        self.stamp = Some(timestamp);
        self
    }

    /// Seals every record in place — offset `base + i` (saturating like
    /// `Segment::next_offset`), the broker's stamp if any, then its CRC
    /// — and freezes the frame: the bytes the log stores. Returns them
    /// with where each record starts.
    pub(crate) fn seal(self, base: u64) -> (Bytes, Vec<usize>) {
        let RecordBatch {
            mut frame,
            starts,
            stamp,
            ..
        } = self;
        let ends = starts.iter().skip(1).copied().chain([frame.len()]);
        let mut offset = base;
        for (&start, end) in starts.iter().zip(ends) {
            if let Some(encoding) = frame.get_mut(start..end) {
                record::seal(encoding, offset, stamp);
            }
            offset = offset.saturating_add(1);
        }
        // The one freeze of the write path: the vendored `Bytes` owns an
        // `Arc<[u8]>`, so this copies the frame once.
        (Bytes::from(frame), starts)
    }
}

/// Accumulates records into one [`RecordBatch`]: each push encodes the
/// record into the batch's frame, so a message's bytes are copied
/// exactly once at produce time; [`BatchBuilder::build`] hands the
/// frame over as it is.
#[derive(Debug, Default)]
pub struct BatchBuilder {
    batch: RecordBatch,
}

impl BatchBuilder {
    /// A builder with room for `records` records of `bytes` wire bytes
    /// in all, so that a batch the size of the last one never regrows.
    pub fn with_capacity(bytes: usize, records: usize) -> Self {
        BatchBuilder {
            batch: RecordBatch {
                frame: Vec::with_capacity(bytes),
                starts: Vec::with_capacity(records),
                ..RecordBatch::default()
            },
        }
    }

    /// Encodes a record carrying `timestamp` into the frame (the single
    /// produce-time copy of `key` and `value`).
    pub fn push(&mut self, key: Option<&[u8]>, value: &[u8], timestamp: Ts) -> &mut Self {
        let batch = &mut self.batch;
        batch.starts.push(batch.frame.len());
        record::encode_unsealed(key, value, timestamp, &mut batch.frame);
        batch.value_bytes = batch.value_bytes.saturating_add(value.len() as u64);
        let key_len = key.map_or(0, <[u8]>::len) as u64;
        batch.key_bytes = batch.key_bytes.saturating_add(key_len);
        self
    }

    /// Records accumulated so far.
    pub fn len(&self) -> usize {
        self.batch.len()
    }

    /// Whether nothing has been pushed.
    pub fn is_empty(&self) -> bool {
        self.batch.is_empty()
    }

    /// Wire bytes accumulated so far.
    pub fn wire_bytes(&self) -> usize {
        self.batch.frame.len()
    }

    /// Key and value bytes accumulated so far — what a producer's
    /// `max_bytes` counts, not the wire bytes around them.
    pub fn key_value_bytes(&self) -> u64 {
        self.batch.key_bytes.saturating_add(self.batch.value_bytes)
    }

    /// The batch: the frame as pushed, nothing copied.
    pub fn build(self) -> RecordBatch {
        self.batch
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(s: &str) -> Bytes {
        Bytes::from(s.to_string())
    }

    /// The records `frame` holds, decoded CRC-checked, as `(offset,
    /// timestamp, key, value)`.
    fn decoded(frame: &Bytes) -> Vec<(u64, Ts, Option<Bytes>, Bytes)> {
        let mut out = Vec::new();
        let mut at = 0;
        while at < frame.len() {
            let (r, used) = Record::decode_at(frame, at).unwrap();
            out.push((r.offset, r.timestamp, r.key, r.value));
            at += used;
        }
        out
    }

    #[test]
    fn builder_copies_once_into_shared_arena() {
        let mut bb = RecordBatch::builder();
        bb.push(Some(b"k0"), b"value-zero", 1);
        bb.push(None, b"value-one", 2);
        bb.push(Some(b"k2"), b"value-two", 3);
        assert_eq!(bb.key_value_bytes(), 4 + 28);
        let batch = bb.build();
        assert_eq!(batch.len(), 3);
        // The frame is the records' encodings back to back: sealed, it
        // is byte for byte what `Record::encode` writes, and every
        // decoded key and value is a slice of that one buffer.
        let (frame, starts) = batch.clone().seal(40);
        let mut expected = Vec::new();
        for (i, (key, value)) in [
            (Some("k0"), "value-zero"),
            (None, "value-one"),
            (Some("k2"), "value-two"),
        ]
        .into_iter()
        .enumerate()
        {
            assert_eq!(starts[i], expected.len());
            let mut r = Record::new(key.map(b), b(value), i as Ts + 1);
            r.offset = 40 + i as u64;
            r.encode(&mut expected);
        }
        assert_eq!(frame.as_slice(), &expected[..]);
        let base = frame.as_slice().as_ptr() as usize;
        for (_, _, key, value) in decoded(&frame) {
            let inside =
                |p: &Bytes| (base..base + frame.len()).contains(&(p.as_slice().as_ptr() as usize));
            assert!(inside(&value) && key.as_ref().is_none_or(inside));
        }
    }

    #[test]
    fn from_pairs_encodes_like_the_builder() {
        let pairs = vec![(None, b("shared-payload")), (Some(b("k")), b(""))];
        let batch = RecordBatch::from_pairs(pairs.clone(), 9);
        let mut builder = BatchBuilder::default();
        for (key, value) in &pairs {
            builder.push(key.as_deref(), value, 9);
        }
        assert_eq!(batch, builder.build());
        let records: Vec<Record> = pairs
            .into_iter()
            .map(|(key, value)| Record::new(key, value, 9))
            .collect();
        assert_eq!(batch, RecordBatch::from_records(&records));
        assert_eq!(batch, RecordBatch::from_records(records));
        assert_eq!(batch.payload_bytes(), "shared-payload".len() as u64);
    }

    #[test]
    fn sizes_and_iteration() {
        let batch = RecordBatch::from_pairs(vec![(Some(b("k")), b("vv")), (None, b("www"))], 0);
        assert_eq!(batch.len(), 2);
        assert_eq!(batch.payload_bytes(), 5);
        let wire = batch.wire_bytes();
        assert!(wire > batch.payload_bytes());
        let (frame, starts) = batch.stamped(7).seal(3);
        assert_eq!(frame.len() as u64, wire);
        assert_eq!(starts.len(), 2);
        let values: Vec<(u64, Ts, Bytes)> = decoded(&frame)
            .into_iter()
            .map(|(offset, ts, _, value)| (offset, ts, value))
            .collect();
        assert_eq!(values, vec![(3, 7, b("vv")), (4, 7, b("www"))]);
        assert!(RecordBatch::new().is_empty());
        assert_eq!(RecordBatch::new().seal(0).0.len(), 0);
    }
}
