//! Log segments.
//!
//! A segment stores a contiguous run of records beginning at its *base
//! offset*. The active (last) segment accepts appends; older segments are
//! sealed and immutable, which is what makes whole-segment deletion
//! (retention) and rewriting (compaction) safe and cheap.
//!
//! Each segment maintains:
//! * a **sparse offset index** — `(offset, byte position)` entries added
//!   every `index_interval_bytes` of appended data, so a read seeks near
//!   the requested offset and scans at most one interval;
//! * a **time index** — `(timestamp, offset)` entries with monotonically
//!   increasing timestamps, supporting offset-for-timestamp queries
//!   (rewindability, §3.1).
//!
//! Everything that reads a segment's bytes — ranged reads, recovery,
//! the timestamp scan — goes through one private `ChunkCursor`: one
//! storage read per *window*, many records decoded out of it, each a
//! zero-copy slice of the window.

use bytes::Bytes;
use liquid_sim::clock::Ts;

use crate::error::LogError;
use crate::record::Record;
use crate::storage::SegmentStorage;

/// Result of a ranged read, carrying enough information for the caller
/// to charge a page-cache model.
#[derive(Debug)]
pub struct SegmentRead {
    /// Decoded records, starting at the requested offset.
    pub records: Vec<Record>,
    /// Byte position in the segment where scanning started.
    pub start_pos: u64,
    /// Bytes scanned (index seek + record decode).
    pub bytes_scanned: u64,
}

/// Smallest window a scan asks storage for.
const MIN_WINDOW: u64 = 4096;
/// Added to a read's window beyond its byte budget and one index
/// interval, so the record that reaches the budget usually still fits.
const WINDOW_SLACK: u64 = 512;
/// Window of a scan that keeps no records (recovery): bounds what such
/// a scan holds in memory, whatever the segment's size.
const SCAN_WINDOW: u64 = 64 * 1024;

/// Sequential decoder over a segment's storage: one storage read per
/// window, then records decoded out of it until it is used up. A
/// record cut off by the end of a window is read again from its own
/// position; one that does not fit a whole window is read with a window
/// four times larger. When a wider read brings no more bytes — the end
/// of storage, or of what was appended together — the record is corrupt
/// or torn and its decode error is returned.
///
/// The cursor owns no borrow of the storage — each step is handed it —
/// so recovery can update the segment between steps.
struct ChunkCursor {
    /// Size of the storage when the scan began.
    total: u64,
    /// Position of the next record to decode: just after the last
    /// one returned.
    pos: u64,
    /// Bytes asked of storage per read.
    window: u64,
    /// The current window and how far into it `pos` is.
    chunk: Option<Bytes>,
    at: usize,
}

impl ChunkCursor {
    fn new(storage: &dyn SegmentStorage, pos: u64, window: u64) -> Self {
        ChunkCursor {
            total: storage.len(),
            pos,
            window: window.max(MIN_WINDOW),
            chunk: None,
            at: 0,
        }
    }

    /// Decodes the next record; returns it with its position and
    /// encoded length, or `None` at the end of storage.
    fn next_record(
        &mut self,
        storage: &dyn SegmentStorage,
    ) -> crate::Result<Option<(Record, u64, u64)>> {
        loop {
            let chunk = match &self.chunk {
                Some(chunk) if self.at < chunk.len() => chunk,
                _ if self.pos >= self.total => return Ok(None),
                _ => {
                    // Nothing read before the end means the storage
                    // shrank under the scan; stop rather than spin.
                    if self.refill(storage)? == 0 {
                        return Ok(None);
                    }
                    continue;
                }
            };
            match Record::decode_at(chunk, self.at) {
                Ok((record, used)) => {
                    let pos = self.pos;
                    self.at = self.at.saturating_add(used);
                    self.pos = self.pos.saturating_add(used as u64);
                    return Ok(Some((record, pos, used as u64)));
                }
                Err(LogError::Corrupt(why)) => {
                    // The record may only be cut off by the window:
                    // read on from its own position, wider if a whole
                    // window was too small for it.
                    let had = chunk.len().saturating_sub(self.at);
                    if self.at == 0 {
                        self.window = self.window.saturating_mul(4);
                    }
                    if self.refill(storage)? <= had {
                        return Err(LogError::Corrupt(why));
                    }
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Decodes every whole record left in the current window (reading
    /// the next one first if it is used up) into `records`, replacing
    /// what was there; returns the bytes they were decoded from, or
    /// `None` at the end of storage. A record the window cuts off — or
    /// a corrupt one — ends the run and is left to the next call.
    fn next_run(
        &mut self,
        storage: &dyn SegmentStorage,
        records: &mut Vec<Record>,
    ) -> crate::Result<Option<Bytes>> {
        records.clear();
        let Some((first, _, used)) = self.next_record(storage)? else {
            return Ok(None);
        };
        let Some(chunk) = self.chunk.clone() else {
            return Ok(None); // a decoded record always has its window
        };
        let start = self.at.saturating_sub(used as usize);
        records.push(first);
        while self.at < chunk.len() {
            let Ok((record, used)) = Record::decode_at(&chunk, self.at) else {
                break;
            };
            self.at = self.at.saturating_add(used);
            self.pos = self.pos.saturating_add(used as u64);
            records.push(record);
        }
        Ok(Some(chunk.slice(start..self.at)))
    }

    /// Reads the next window, starting at `pos`; returns its length.
    fn refill(&mut self, storage: &dyn SegmentStorage) -> crate::Result<usize> {
        let remaining = self.total.saturating_sub(self.pos);
        let len = usize::try_from(self.window.min(remaining)).unwrap_or(usize::MAX);
        let chunk = storage.read_at(self.pos, len)?;
        let got = chunk.len();
        self.chunk = Some(chunk);
        self.at = 0;
        Ok(got)
    }
}

/// Encodes `records`, which carry their offsets, back to back into one
/// buffer and freezes it: the frame of a single-record
/// [`Segment::append`], of compaction's rewrite and of `truncate_to`'s
/// rebuild. (A producer's batch is a frame already and is sealed in
/// place instead — DESIGN.md §20.)
pub(crate) fn encode_frame(records: &[Record]) -> Bytes {
    let wire_bytes = records.iter().map(Record::wire_size).sum();
    let mut buf = Vec::with_capacity(wire_bytes);
    for record in records {
        record.encode(&mut buf);
    }
    // The one copy of the write path: the vendored `Bytes` owns an
    // `Arc<[u8]>`, so freezing the buffer copies it.
    Bytes::from(buf)
}

/// The part of `frame` — the encoding of `records` — from the first
/// record at or after `offset` on, with those records. A suffix of a
/// frame is still a run of whole encoded records, i.e. a frame.
pub(crate) fn frame_suffix<'a>(
    frame: &Bytes,
    records: &'a [Record],
    offset: u64,
) -> (Bytes, &'a [Record]) {
    let (before, wanted) = records.split_at(records.partition_point(|r| r.offset < offset));
    let skip: usize = before.iter().map(Record::wire_size).sum();
    (frame.slice(skip..), wanted)
}

/// One segment of the log.
pub struct Segment {
    base_offset: u64,
    next_offset: u64,
    storage: Box<dyn SegmentStorage>,
    /// Sparse `(offset, position)` pairs; always contains `(base, 0)`
    /// once the first record is appended.
    index: Vec<(u64, u64)>,
    /// `(timestamp, offset)` pairs with strictly increasing timestamps.
    time_index: Vec<(Ts, u64)>,
    bytes_since_index: u64,
    index_interval_bytes: u64,
    min_timestamp: Option<Ts>,
    max_timestamp: Ts,
    records: u64,
    sealed: bool,
}

impl Segment {
    /// Creates an empty segment starting at `base_offset`.
    pub fn new(
        base_offset: u64,
        storage: Box<dyn SegmentStorage>,
        index_interval_bytes: u64,
    ) -> Self {
        Segment {
            base_offset,
            next_offset: base_offset,
            storage,
            index: Vec::new(),
            time_index: Vec::new(),
            bytes_since_index: 0,
            index_interval_bytes: index_interval_bytes.max(1),
            min_timestamp: None,
            max_timestamp: 0,
            records: 0,
            sealed: false,
        }
    }

    /// Rebuilds a segment by scanning existing storage from byte 0
    /// (restart recovery). Stops at the first corrupt/truncated record,
    /// truncating storage there (torn final write).
    pub fn recover(
        base_offset: u64,
        storage: Box<dyn SegmentStorage>,
        index_interval_bytes: u64,
    ) -> crate::Result<Self> {
        let mut seg = Segment::new(base_offset, storage, index_interval_bytes);
        let mut cursor = ChunkCursor::new(seg.storage.as_ref(), 0, SCAN_WINDOW);
        loop {
            match cursor.next_record(seg.storage.as_ref()) {
                Ok(Some((rec, pos, len))) => seg.note_appended(&rec, pos, len),
                Ok(None) => break,
                Err(LogError::Corrupt(_)) => {
                    // Torn tail: discard everything from here.
                    seg.storage.truncate(cursor.pos)?;
                    break;
                }
                Err(e) => return Err(e),
            }
        }
        Ok(seg)
    }

    /// First offset in this segment.
    pub fn base_offset(&self) -> u64 {
        self.base_offset
    }

    /// Offset the next appended record will receive.
    pub fn next_offset(&self) -> u64 {
        self.next_offset
    }

    /// Number of records in the segment. After compaction offsets are
    /// sparse, so this is tracked explicitly rather than derived from the
    /// offset range.
    pub fn record_count(&self) -> u64 {
        self.records
    }

    /// Size in bytes.
    pub fn size_bytes(&self) -> u64 {
        self.storage.len()
    }

    /// Largest record timestamp seen (0 if empty). Retention uses this:
    /// a segment is deletable once its newest record is out of window.
    pub fn max_timestamp(&self) -> Ts {
        self.max_timestamp
    }

    /// The `(oldest, newest)` record timestamps, or `None` if the
    /// segment is empty — the time range this segment partitions.
    /// Recovery replays appends, so reopened segments keep their range.
    pub fn time_range(&self) -> Option<(Ts, Ts)> {
        self.min_timestamp.map(|min| (min, self.max_timestamp))
    }

    /// Whether the segment has been sealed against appends.
    pub fn is_sealed(&self) -> bool {
        self.sealed
    }

    /// Seals the segment; subsequent appends panic.
    pub fn seal(&mut self) {
        self.sealed = true;
    }

    /// Number of sparse-index entries (exposed for the index-granularity
    /// ablation).
    pub fn index_entries(&self) -> usize {
        self.index.len()
    }

    /// Appends a record whose `offset` must equal [`next_offset`]
    /// (offsets are assigned by the owning [`Log`](crate::Log)): a
    /// frame of one, through the same function a batch goes through.
    /// Returns `(byte position, encoded length)`.
    ///
    /// [`next_offset`]: Self::next_offset
    pub fn append(&mut self, record: &Record) -> crate::Result<(u64, u64)> {
        let records = std::slice::from_ref(record);
        let pos = self.append_frame(encode_frame(records), records)?;
        Ok((pos, record.wire_size() as u64))
    }

    /// The bottom of the write path: stores `frame` — the encoding of
    /// exactly `records`, in order, whoever encoded it — with **one**
    /// storage append and indexes the records. Nothing is encoded,
    /// checksummed or copied here, so a frame another replica froze is
    /// stored as it is. `records` carry their offsets: increasing, none
    /// below [`next_offset`](Self::next_offset). Returns the frame's
    /// byte position; record `i` sits in it at the sum of the wire
    /// sizes before it.
    pub(crate) fn append_frame(&mut self, frame: Bytes, records: &[Record]) -> crate::Result<u64> {
        assert!(!self.sealed, "append to sealed segment");
        let mut next = self.next_offset;
        let mut wire_bytes = 0usize;
        for record in records {
            assert!(
                record.offset >= next,
                "segment offsets must increase: {} < {}",
                record.offset,
                next
            );
            next = record.offset.saturating_add(1);
            wire_bytes = wire_bytes.saturating_add(record.wire_size());
        }
        // The index below is only as good as this: positions are summed
        // wire sizes, so the frame must hold these records and no more.
        assert_eq!(frame.len(), wire_bytes, "frame is not its records");
        let pos = self.storage.append(frame)?;
        let mut at = pos;
        for record in records {
            let len = record.wire_size() as u64;
            self.note_appended(record, at, len);
            at = at.saturating_add(len);
        }
        Ok(pos)
    }

    /// Hands `visit` everything from `offset` on as frames, read
    /// straight from storage: per window of the chunk cursor, the
    /// CRC-verified records decoded out of it and the bytes they span —
    /// a frame [`append_frame`](Self::append_frame) stores as it is,
    /// the records slices of it, handed over. No read cache is
    /// consulted or filled.
    pub(crate) fn for_each_frame_from(
        &self,
        offset: u64,
        mut visit: impl FnMut(Bytes, Vec<Record>) -> crate::Result<()>,
    ) -> crate::Result<()> {
        let storage = self.storage.as_ref();
        let mut cursor = ChunkCursor::new(storage, self.seek_position(offset), SCAN_WINDOW);
        let mut records = Vec::new();
        while let Some(run) = cursor.next_run(storage, &mut records)? {
            // The scan starts at an index entry, so the first run may
            // begin before `offset`.
            let (frame, wanted) = frame_suffix(&run, &records, offset);
            let skip = records.len().saturating_sub(wanted.len());
            if skip < records.len() {
                records.drain(..skip);
                visit(frame, std::mem::take(&mut records))?;
            }
        }
        Ok(())
    }

    fn note_appended(&mut self, record: &Record, pos: u64, len: u64) {
        if self.index.is_empty() || self.bytes_since_index >= self.index_interval_bytes {
            self.index.push((record.offset, pos));
            self.bytes_since_index = 0;
        }
        self.bytes_since_index += len;
        self.min_timestamp = Some(match self.min_timestamp {
            Some(min) => min.min(record.timestamp),
            None => record.timestamp,
        });
        if record.timestamp > self.max_timestamp {
            self.max_timestamp = record.timestamp;
            match self.time_index.last() {
                Some(&(last_ts, _)) if record.timestamp <= last_ts => {}
                _ => self.time_index.push((record.timestamp, record.offset)),
            }
        }
        // Saturate rather than wrap: a wrapped next_offset would silently
        // re-assign offset 0 and corrupt the log's dense-offset invariant.
        self.next_offset = record.offset.saturating_add(1);
        self.records += 1;
    }

    /// Byte position where a scan for `offset` should begin, via the
    /// sparse index.
    pub fn seek_position(&self, offset: u64) -> u64 {
        self.seek_entry(offset).1
    }

    /// The sparse-index entry a scan for `offset` begins at: `(offset
    /// of the record there, its byte position)`.
    pub(crate) fn seek_entry(&self, offset: u64) -> (u64, u64) {
        let at = match self.index.binary_search_by_key(&offset, |&(o, _)| o) {
            Ok(i) => Some(i),
            Err(i) => i.checked_sub(1),
        };
        // A miss falls back to byte 0: scanning from the segment start
        // is always correct, just slower.
        at.and_then(|i| self.index.get(i))
            .copied()
            .unwrap_or((self.base_offset, 0))
    }

    /// Reads records starting at `offset` until `max_bytes` of encoded
    /// data have been returned (at least one record if any remain).
    pub fn read_from(&self, offset: u64, max_bytes: u64) -> crate::Result<SegmentRead> {
        if offset < self.base_offset || offset > self.next_offset {
            return Err(LogError::OffsetOutOfRange {
                requested: offset,
                start: self.base_offset,
                end: self.next_offset,
            });
        }
        let start_pos = self.seek_position(offset);
        let window = max_bytes
            .saturating_add(self.index_interval_bytes)
            .saturating_add(WINDOW_SLACK);
        let mut cursor = ChunkCursor::new(self.storage.as_ref(), start_pos, window);
        let mut out = Vec::new();
        let mut returned_bytes = 0u64;
        while let Some((rec, _, used)) = cursor.next_record(self.storage.as_ref())? {
            if rec.offset >= offset {
                returned_bytes = returned_bytes.saturating_add(used);
                out.push(rec);
                if returned_bytes >= max_bytes {
                    break;
                }
            }
        }
        Ok(SegmentRead {
            records: out,
            start_pos,
            bytes_scanned: cursor.pos.saturating_sub(start_pos),
        })
    }

    /// First offset whose record timestamp is `>= ts`, if any.
    pub fn offset_for_timestamp(&self, ts: Ts) -> crate::Result<Option<u64>> {
        // Find the latest time-index entry strictly before ts to bound
        // the scan, then walk records from there in one pass.
        let start_offset = match self.time_index.binary_search_by_key(&ts, |&(t, _)| t) {
            Ok(i) => return Ok(self.time_index.get(i).map(|&(_, o)| o)),
            Err(0) => self.base_offset,
            Err(i) => self
                .time_index
                .get(i - 1)
                .map_or(self.base_offset, |&(_, o)| o),
        };
        let start_pos = self.seek_position(start_offset);
        let mut cursor = ChunkCursor::new(self.storage.as_ref(), start_pos, SCAN_WINDOW);
        while let Some((rec, _, _)) = cursor.next_record(self.storage.as_ref())? {
            if rec.offset >= start_offset && rec.timestamp >= ts {
                return Ok(Some(rec.offset));
            }
        }
        Ok(None)
    }

    /// Flushes the underlying storage.
    pub fn flush(&mut self) -> crate::Result<()> {
        self.storage.flush()?;
        Ok(())
    }

    /// Every byte the medium holds, as stored (`MemStorage` hands out
    /// one frame per read).
    #[cfg(test)]
    pub(crate) fn stored(&self) -> Vec<u8> {
        let mut out = Vec::new();
        while (out.len() as u64) < self.storage.len() {
            let read = self.storage.read_at(out.len() as u64, usize::MAX).unwrap();
            out.extend_from_slice(&read);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::counting::{Counting, Reads};
    use crate::storage::MemStorage;

    fn seg(interval: u64) -> Segment {
        Segment::new(100, Box::new(MemStorage::new()), interval)
    }

    fn rec(offset: u64, ts: Ts, val: &str) -> Record {
        Record {
            offset,
            timestamp: ts,
            key: Some(Bytes::from(format!("k{offset}"))),
            value: Bytes::from(val.to_string()),
        }
    }

    #[test]
    fn append_assigns_dense_offsets() {
        let mut s = seg(1024);
        for i in 0..10 {
            s.append(&rec(100 + i, i, "v")).unwrap();
        }
        assert_eq!(s.base_offset(), 100);
        assert_eq!(s.next_offset(), 110);
        assert_eq!(s.record_count(), 10);
    }

    #[test]
    fn next_offset_saturates_instead_of_wrapping_at_max() {
        // Regression: `next_offset = offset + 1` used to wrap to 0 for a
        // record at u64::MAX, silently re-opening the offset space and
        // breaking the monotonic-offset invariant.
        let mut s = Segment::new(u64::MAX, Box::new(MemStorage::new()), 1024);
        s.append(&rec(u64::MAX, 7, "last")).unwrap();
        assert_eq!(s.next_offset(), u64::MAX, "must saturate, not wrap to 0");
        assert_eq!(s.record_count(), 1);
        // The saturated bound also keeps the timestamp scan from running
        // off the end of the offset space.
        assert!(s.offset_for_timestamp(100).unwrap().is_none());
    }

    #[test]
    fn seek_position_misses_fall_back_to_safe_scan_starts() {
        // Regression: index binary-search misses used to index with the
        // raw Err(i) result; now every miss maps to a position that is
        // correct to scan from (0 or the last entry at or before it).
        let mut s = seg(1); // index every record
        for i in 0..5 {
            s.append(&rec(100 + i, i, "v")).unwrap();
        }
        assert_eq!(s.seek_position(0), 0, "before the first entry");
        let last = s.seek_position(104);
        // Far past the end: clamp to the last indexed position.
        assert_eq!(s.seek_position(u64::MAX), last);
    }

    #[test]
    #[should_panic(expected = "must increase")]
    fn append_rejects_regressing_offset() {
        let mut s = seg(1024);
        s.append(&rec(105, 0, "v")).unwrap();
        s.append(&rec(100, 0, "v")).unwrap();
    }

    #[test]
    fn append_allows_offset_gaps_for_compaction() {
        let mut s = seg(1024);
        s.append(&rec(100, 0, "a")).unwrap();
        s.append(&rec(107, 1, "b")).unwrap();
        assert_eq!(s.record_count(), 2);
        assert_eq!(s.next_offset(), 108);
        // Reading from inside the gap yields the next present record.
        let r = s.read_from(103, u64::MAX).unwrap();
        assert_eq!(r.records.len(), 1);
        assert_eq!(r.records[0].offset, 107);
    }

    #[test]
    fn read_from_start_and_middle() {
        let mut s = seg(64);
        for i in 0..20 {
            s.append(&rec(100 + i, i, &format!("value-{i}"))).unwrap();
        }
        let all = s.read_from(100, u64::MAX).unwrap();
        assert_eq!(all.records.len(), 20);
        let mid = s.read_from(110, u64::MAX).unwrap();
        assert_eq!(mid.records.len(), 10);
        assert_eq!(mid.records[0].offset, 110);
    }

    #[test]
    fn read_respects_max_bytes() {
        let mut s = seg(1024);
        for i in 0..10 {
            s.append(&rec(100 + i, i, "0123456789")).unwrap();
        }
        let one = s.read_from(100, 1).unwrap();
        assert_eq!(one.records.len(), 1, "must return at least one record");
        let some = s.read_from(100, 100).unwrap();
        assert!(some.records.len() < 10 && !some.records.is_empty());
    }

    #[test]
    fn read_at_log_end_is_empty() {
        let mut s = seg(1024);
        s.append(&rec(100, 0, "v")).unwrap();
        let r = s.read_from(101, u64::MAX).unwrap();
        assert!(r.records.is_empty());
    }

    #[test]
    fn read_out_of_range_errors() {
        let s = seg(1024);
        assert!(matches!(
            s.read_from(99, 1),
            Err(LogError::OffsetOutOfRange { .. })
        ));
        assert!(matches!(
            s.read_from(101, 1),
            Err(LogError::OffsetOutOfRange { .. })
        ));
    }

    #[test]
    fn sparse_index_bounds_scan() {
        let mut s = seg(64);
        for i in 0..100 {
            s.append(&rec(100 + i, i, "xxxxxxxxxxxxxxxx")).unwrap();
        }
        assert!(s.index_entries() > 1, "interval should create entries");
        assert!(s.index_entries() < 100, "index must stay sparse");
        // Seek position for a late offset should be well past byte 0.
        assert!(s.seek_position(190) > 0);
        let r = s.read_from(190, u64::MAX).unwrap();
        assert_eq!(r.records[0].offset, 190);
        // The scan should not have started at position zero.
        assert!(r.start_pos > 0);
    }

    #[test]
    fn offset_for_timestamp_finds_first_at_or_after() {
        let mut s = seg(64);
        for i in 0..50 {
            s.append(&rec(100 + i, i * 10, "v")).unwrap();
        }
        assert_eq!(s.offset_for_timestamp(0).unwrap(), Some(100));
        assert_eq!(s.offset_for_timestamp(100).unwrap(), Some(110));
        assert_eq!(s.offset_for_timestamp(101).unwrap(), Some(111));
        assert_eq!(s.offset_for_timestamp(495).unwrap(), None);
    }

    #[test]
    fn max_timestamp_tracks_largest() {
        let mut s = seg(1024);
        s.append(&rec(100, 50, "v")).unwrap();
        s.append(&rec(101, 20, "v")).unwrap(); // out of order
        s.append(&rec(102, 80, "v")).unwrap();
        assert_eq!(s.max_timestamp(), 80);
    }

    #[test]
    fn time_range_spans_oldest_to_newest() {
        let mut s = seg(1024);
        assert_eq!(s.time_range(), None);
        s.append(&rec(100, 50, "v")).unwrap();
        assert_eq!(s.time_range(), Some((50, 50)));
        s.append(&rec(101, 20, "v")).unwrap(); // out of order
        s.append(&rec(102, 80, "v")).unwrap();
        assert_eq!(s.time_range(), Some((20, 80)));
    }

    #[test]
    fn recover_restores_time_range() {
        let mut storage = MemStorage::new();
        let mut buf = Vec::new();
        for i in 0..5u64 {
            rec(200 + i, 10 + i * 7, "val").encode(&mut buf);
        }
        storage.append(Bytes::from(buf)).unwrap();
        let s = Segment::recover(200, Box::new(storage), 64).unwrap();
        assert_eq!(s.time_range(), Some((10, 38)));
    }

    #[test]
    fn seal_blocks_appends() {
        let mut s = seg(1024);
        s.append(&rec(100, 0, "v")).unwrap();
        s.seal();
        assert!(s.is_sealed());
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            s.append(&rec(101, 0, "v")).ok();
        }));
        assert!(result.is_err());
    }

    #[test]
    fn recover_rebuilds_from_bytes() {
        let mut storage = MemStorage::new();
        let mut buf = Vec::new();
        for i in 0..5u64 {
            rec(200 + i, i, "val").encode(&mut buf);
        }
        storage.append(Bytes::from(buf)).unwrap();
        let s = Segment::recover(200, Box::new(storage), 64).unwrap();
        assert_eq!(s.next_offset(), 205);
        let r = s.read_from(202, u64::MAX).unwrap();
        assert_eq!(r.records.len(), 3);
    }

    #[test]
    fn recover_truncates_torn_tail() {
        let mut storage = MemStorage::new();
        let mut buf = Vec::new();
        for i in 0..3u64 {
            rec(i, i, "val").encode(&mut buf);
        }
        // Simulate a torn write: half a record at the end.
        let mut torn = Vec::new();
        rec(3, 3, "val").encode(&mut torn);
        buf.extend_from_slice(&torn[..torn.len() / 2]);
        storage.append(Bytes::from(buf)).unwrap();
        let s = Segment::recover(0, Box::new(storage), 64).unwrap();
        assert_eq!(s.next_offset(), 3, "torn record must be dropped");
    }

    fn counting() -> (Box<Counting>, Reads) {
        let reads = Reads::default();
        (Box::new(Counting::new(reads.clone())), reads)
    }

    /// Counting storage holding `records` as one contiguous run of
    /// bytes, the way a file does: a window can end inside a record.
    fn contiguous(records: &[Record]) -> (Box<Counting>, Reads) {
        let (mut storage, reads) = counting();
        let mut buf = Vec::new();
        for r in records {
            r.encode(&mut buf);
        }
        storage.append(Bytes::from(buf)).unwrap();
        (storage, reads)
    }

    /// 420 records of ~165 B: a 64 KiB segment.
    fn history() -> Vec<Record> {
        (0..420u64)
            .map(|i| rec(i, i / 3, &"v".repeat(128 + (i % 7) as usize)))
            .collect()
    }

    #[test]
    fn full_read_touches_each_byte_once() {
        // Regression: `read_from` used to ask storage for up to 64 KiB
        // per record — 400 calls and 13 MB for a segment like this.
        let (storage, reads) = counting();
        let mut s = Segment::new(0, storage, 4096);
        for r in &history() {
            s.append(r).unwrap();
        }
        let size = s.size_bytes();
        assert!(size >= 64 * 1024);
        let all = s.read_from(0, u64::MAX).unwrap();
        assert_eq!(all.records, history());
        assert_eq!(all.bytes_scanned, size);
        // Appended one by one, every record is a frame of its own.
        assert_eq!(reads.take(), (420, size));

        // The same bytes as a file holds them: one window, one read.
        let (storage, reads) = contiguous(&history());
        let s = Segment::recover(0, storage, 4096).unwrap();
        reads.take();
        assert_eq!(s.read_from(0, u64::MAX).unwrap().records, history());
        assert_eq!(reads.take(), (1, size));
    }

    #[test]
    fn probe_reads_one_small_window() {
        // A 1-byte-budget read decodes up to one index interval of
        // records to reach its target — out of a single window of
        // budget + interval + slack bytes, not 64 KiB for each.
        let (storage, reads) = contiguous(&history());
        let s = Segment::recover(0, storage, 4096).unwrap();
        reads.take();
        let probe = s.read_from(418, 1).unwrap();
        assert_eq!(probe.records.len(), 1);
        assert_eq!(probe.records[0].offset, 418);
        let (calls, bytes) = reads.take();
        assert_eq!(calls, 1);
        assert!(bytes <= 1 + 4096 + WINDOW_SLACK);
    }

    #[test]
    fn timestamp_scan_is_one_pass() {
        // Regression: the scan used to call `read_from(offset, 1)` per
        // record, each an index seek plus the decodes up to it. Only
        // the first and last record enter the time index here, so the
        // lookup walks everything between them.
        let mut records = vec![rec(0, 50, "first")];
        records.extend((1..300).map(|i| rec(i, i % 40, "an older timestamp")));
        records.push(rec(300, 60, "last"));
        let (storage, reads) = contiguous(&records);
        let s = Segment::recover(0, storage, 4096).unwrap();
        reads.take();
        assert_eq!(s.offset_for_timestamp(55).unwrap(), Some(300));
        let (calls, bytes) = reads.take();
        assert_eq!(calls, 1);
        assert_eq!(bytes, s.size_bytes());
        assert_eq!(s.offset_for_timestamp(50).unwrap(), Some(0));
        assert_eq!(s.offset_for_timestamp(61).unwrap(), None);
    }

    #[test]
    fn recover_touches_each_byte_about_once() {
        // Regression: `recover` used to read the whole rest of the
        // file once per record — ~13 MB to reopen a 64 KiB segment.
        let (storage, reads) = contiguous(&history());
        let s = Segment::recover(0, storage, 4096).unwrap();
        let size = s.size_bytes();
        assert_eq!(s.record_count(), 420);
        assert_eq!(s.next_offset(), 420);
        assert!(s.index_entries() > 10, "the sparse index is rebuilt");
        // 64 KiB windows; the record each one cuts off is read again.
        let (calls, bytes) = reads.take();
        assert!(calls <= 3, "{calls} reads");
        assert!(bytes <= size + 2 * 200, "{bytes} bytes for {size}");
    }

    #[test]
    fn records_cut_off_by_a_window_are_read_again_whole() {
        // Windows of ~5 KiB over contiguous bytes end inside a record
        // nearly every time: the cut-off record is read again from its
        // own position with the same window — never skipped, never
        // returned twice, and the window does not grow.
        let (storage, reads) = contiguous(&history());
        let mut cursor = ChunkCursor::new(storage.as_ref(), 0, 5_000);
        let mut seen = Vec::new();
        while let Some((r, pos, len)) = cursor.next_record(storage.as_ref()).unwrap() {
            assert_eq!(len, r.wire_size() as u64);
            assert_eq!(pos + len, cursor.pos);
            seen.push(r);
        }
        assert_eq!(seen, history());
        let (calls, bytes) = reads.take();
        assert!(calls <= storage.len() / 4_800 + 1, "{calls} reads");
        assert!(bytes <= storage.len() + calls * 200, "{bytes} bytes");
    }

    #[test]
    fn frames_from_an_offset_cover_every_record_once() {
        // Contiguous bytes, so the 64 KiB windows cut records: a frame
        // ends with the last whole record of its window, the next one
        // starts at the record that was cut, and the first is trimmed
        // to the offset asked for.
        let (storage, _) = contiguous(&history());
        let s = Segment::recover(0, storage, 4096).unwrap();
        let (mut shipped, mut bytes, mut frames) = (Vec::new(), Vec::new(), 0);
        s.for_each_frame_from(5, |frame, records| {
            let mut at = 0;
            for r in &records {
                assert_eq!(
                    Record::decode_at(&frame, at).unwrap(),
                    (r.clone(), r.wire_size())
                );
                at += r.wire_size();
            }
            assert_eq!(at, frame.len(), "a frame is its records and no more");
            shipped.extend(records);
            bytes.extend_from_slice(&frame);
            frames += 1;
            Ok(())
        })
        .unwrap();
        assert_eq!(shipped, history()[5..]);
        assert_eq!(frames, 2);
        let first_byte: usize = history()[..5].iter().map(Record::wire_size).sum();
        let stored = s.storage.read_at(0, usize::MAX).unwrap();
        assert_eq!(bytes, stored[first_byte..]);
        // Past the end there is nothing to hand out.
        s.for_each_frame_from(420, |_, _| panic!("no frame"))
            .unwrap();
    }

    #[test]
    fn corruption_in_the_middle_is_an_error_not_a_loop() {
        let mut buf = Vec::new();
        for r in &history() {
            r.encode(&mut buf);
        }
        let at = buf.len() / 2;
        buf[at] ^= 0xFF;
        // As one run of bytes (a file), and as two frames with the
        // damaged record the last of its frame: there a wider read
        // brings nothing more, which must end the scan too.
        for frames in [vec![&buf[..]], vec![&buf[..at + 1], &buf[at + 1..]]] {
            let mut storage = MemStorage::new();
            for frame in frames {
                storage.append(Bytes::copy_from_slice(frame)).unwrap();
            }
            let mut cursor = ChunkCursor::new(&storage, 0, MIN_WINDOW);
            let mut decoded = 0;
            let err = loop {
                match cursor.next_record(&storage) {
                    Ok(Some(_)) => decoded += 1,
                    Ok(None) => panic!("the damaged record was skipped"),
                    Err(e) => break e,
                }
            };
            assert!(matches!(err, LogError::Corrupt(_)));
            assert!((100..420).contains(&decoded), "{decoded} decoded first");
            // Recovery keeps the records before the damage.
            let s = Segment::recover(0, Box::new(storage), 4096).unwrap();
            assert_eq!(s.record_count(), decoded);
        }
    }

    #[test]
    fn large_record_spanning_probe_window() {
        let mut s = seg(1024);
        let big = "x".repeat(200 * 1024); // bigger than the 64 KiB probe
        s.append(&Record {
            offset: 100,
            timestamp: 1,
            key: None,
            value: Bytes::from(big.clone()),
        })
        .unwrap();
        let r = s.read_from(100, u64::MAX).unwrap();
        assert_eq!(r.records[0].value.len(), big.len());
    }
}
