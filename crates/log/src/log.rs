//! The multi-segment log: rolling, retention, timestamp lookup, and the
//! page-cache hook used by the anti-caching experiments.

use std::collections::BTreeMap;
use std::sync::Arc;

use bytes::Bytes;
use liquid_obs::{CounterHandle, HistogramHandle, Obs};
use liquid_sim::clock::{SharedClock, Ts};
use liquid_sim::failure::FailureInjector;
use liquid_sim::lockdep::Mutex;
use liquid_sim::pagecache::PageCache;

use crate::batch::RecordBatch;
use crate::cache::{slice_from, SegmentReadCache};
use crate::error::LogError;
use crate::record::Record;
use crate::segment::{encode_frame, frame_suffix, Segment};
use crate::storage::StorageKind;

/// How old data is reclaimed (paper: "one month worth of data", or a
/// maximum size "for operational reasons"; §4.1 for compacted feeds).
///
/// This single typed policy replaces the old `CleanupPolicy` enum plus
/// the ad-hoc `max_age_ms`/`max_bytes` knob pair. Every deleting
/// variant reclaims space by dropping whole time-partitioned sealed
/// segments from the front of the log — an O(1) unlink per segment,
/// never a record rewrite — so retention cost is independent of how
/// much data is retired.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum RetentionPolicy {
    /// Never delete anything (the default).
    #[default]
    KeepAll,
    /// Drop whole sealed segments whose newest record is older than
    /// `max_age_ms`, and optionally also bound the total size.
    DropByAge {
        /// A sealed segment is dropped once its newest record is at
        /// least this old. Must be > 0.
        max_age_ms: u64,
        /// Additional size bound applied after the age pass, if any.
        max_bytes: Option<u64>,
    },
    /// Drop the oldest sealed segments while the log exceeds
    /// `max_bytes`.
    DropByBytes {
        /// Total log size to shrink back under. Must be > 0.
        max_bytes: u64,
    },
    /// Keep the latest record per key (changelog topics, §4.1):
    /// segments are compacted one at a time, and the optional age/size
    /// bounds still drop whole expired segments from the front.
    Compact {
        /// Age bound applied on top of compaction, if any.
        max_age_ms: Option<u64>,
        /// Size bound applied on top of compaction, if any.
        max_bytes: Option<u64>,
    },
}

impl RetentionPolicy {
    /// Retention that never deletes anything.
    pub fn keep_forever() -> Self {
        RetentionPolicy::KeepAll
    }

    /// Compaction with no age or size bound (changelog topics, §4.1).
    pub fn compact() -> Self {
        RetentionPolicy::Compact {
            max_age_ms: None,
            max_bytes: None,
        }
    }

    /// The age bound, if this policy has one.
    pub fn max_age_ms(&self) -> Option<u64> {
        match *self {
            RetentionPolicy::DropByAge { max_age_ms, .. } => Some(max_age_ms),
            RetentionPolicy::Compact { max_age_ms, .. } => max_age_ms,
            _ => None,
        }
    }

    /// The size bound, if this policy has one.
    pub fn max_bytes(&self) -> Option<u64> {
        match *self {
            RetentionPolicy::DropByAge { max_bytes, .. } => max_bytes,
            RetentionPolicy::DropByBytes { max_bytes } => Some(max_bytes),
            RetentionPolicy::Compact { max_bytes, .. } => max_bytes,
            RetentionPolicy::KeepAll => None,
        }
    }

    /// Whether the latest record per key is kept by compaction.
    pub fn is_compacted(&self) -> bool {
        matches!(self, RetentionPolicy::Compact { .. })
    }

    /// Rejects degenerate bounds (a zero bound would drop every sealed
    /// segment on every pass). The error names the offending bound;
    /// callers wrap it into their own typed error.
    pub fn validate(&self) -> Result<(), &'static str> {
        if self.max_age_ms() == Some(0) {
            return Err("max_age_ms must be > 0");
        }
        if self.max_bytes() == Some(0) {
            return Err("max_bytes must be > 0");
        }
        Ok(())
    }
}

/// Log configuration.
#[derive(Debug, Clone)]
pub struct LogConfig {
    /// Roll the active segment after it exceeds this many bytes.
    pub segment_bytes: u64,
    /// Also roll once the active segment spans this much wall-clock
    /// time (oldest record at least this old), so segments partition
    /// the stream by time and age-based retention can drop whole
    /// segments. `None` rolls by size only.
    pub segment_ms: Option<u64>,
    /// Sparse-index granularity (bytes between index entries).
    pub index_interval_bytes: u64,
    /// Retention policy (what to drop, and whether to compact).
    pub retention: RetentionPolicy,
    /// Segment storage backend.
    pub storage: StorageKind,
    /// Fault injector for append / roll / compaction crash points.
    /// Disabled by default; cloned logs share its schedule.
    pub injector: FailureInjector,
    /// Observability domain the log reports into. Cloned configs share
    /// instruments; the default is a fresh private domain.
    pub obs: Obs,
}

impl Default for LogConfig {
    fn default() -> Self {
        LogConfig {
            segment_bytes: 1024 * 1024,
            segment_ms: None,
            index_interval_bytes: 4096,
            retention: RetentionPolicy::keep_forever(),
            storage: StorageKind::Memory,
            injector: FailureInjector::disabled(),
            obs: Obs::default(),
        }
    }
}

/// Handles into the registry for the log hot paths, resolved once at
/// open. The counters are the twin metrics of the `log.*` fault sites.
#[derive(Debug, Clone)]
pub(crate) struct LogMetrics {
    pub(crate) append: CounterHandle,
    pub(crate) roll: CounterHandle,
    pub(crate) compact: CounterHandle,
    pub(crate) segment_drop: CounterHandle,
    pub(crate) append_bytes: HistogramHandle,
    pub(crate) batch_records: HistogramHandle,
}

impl LogMetrics {
    fn resolve(obs: &Obs) -> Self {
        let reg = obs.registry();
        LogMetrics {
            append: reg.counter("log.append"),
            roll: reg.counter("log.roll"),
            compact: reg.counter("log.compact"),
            segment_drop: reg.counter("log.segment-drop"),
            append_bytes: reg.histogram("log.append.bytes"),
            batch_records: reg.histogram("log.append.batch_records"),
        }
    }
}

/// Result of a read, including the simulated I/O cost when a page-cache
/// model is attached (0 otherwise).
#[derive(Debug)]
pub struct ReadOutcome {
    /// Records starting at the requested offset.
    pub records: Vec<Record>,
    /// Simulated nanoseconds charged by the page-cache model.
    pub simulated_cost_ns: u64,
}

/// A partition's commit log.
pub struct Log {
    config: LogConfig,
    clock: SharedClock,
    /// Sealed + active segments, keyed by base offset. Never empty.
    segments: BTreeMap<u64, Segment>,
    /// First offset still readable (advanced by retention).
    start_offset: u64,
    /// Optional page-cache model; `log_id` namespaces file ids.
    cache: Option<(Arc<Mutex<PageCache>>, u64)>,
    /// Optional sharded segment-read cache; `log_id` namespaces the
    /// cached segment ids so many logs can share one cache.
    read_cache: Option<(Arc<SegmentReadCache>, u64)>,
    /// Number of completed compaction passes (tombstone lifecycle).
    compaction_generation: u64,
    /// The hot head: every record of the active segment, in offset
    /// order, as appended — each key and value a slice of the frame
    /// its append stored, so tail, `MemStorage` and (once the segment
    /// is sealed and cached) the read cache share one copy of the
    /// bytes, and so does every replica the frame was shipped to.
    /// Reads at or after the active base are served from here and
    /// never touch storage (paper §4.1: the head of the log is served
    /// from memory). Plain data under the `&mut self` of the write
    /// path; cleared on roll, rebuilt by `truncate_to`, empty after
    /// `open`. Bound: one active segment of `Record` structs (80 B
    /// each) and `tail_frames` entries (40 B a frame) — plus, on a
    /// file-backed log, that segment's frames, which `tail_frames`
    /// keeps alive.
    tail: Vec<Record>,
    /// The frames behind `tail`, in order: `(index in tail of the
    /// frame's first record, the frame)`. A frame's records run to the
    /// next entry's index (the last one's to the end of `tail`); every
    /// tail record belongs to exactly one. What replication ships:
    /// pushed with the records, cleared with them.
    tail_frames: Vec<(usize, Bytes)>,
    /// Registry handles for the hot paths.
    metrics: LogMetrics,
}

/// What one layer of the read path served from one segment.
struct Served {
    records: Vec<Record>,
    /// `(start position, bytes)` of the storage span behind the
    /// records: what an attached page-cache model is charged for.
    /// `None` for a read-cache hit, which touches nothing on the medium
    /// (and for a tail read with no model attached to look at it).
    scanned: Option<(u64, u64)>,
}

impl Log {
    /// Opens (or creates) a log. For file storage, existing segments are
    /// recovered from disk.
    pub fn open(config: LogConfig, clock: SharedClock) -> crate::Result<Self> {
        let mut segments = BTreeMap::new();
        let bases = config.storage.existing_segments()?;
        for &base in &bases {
            let storage = config.storage.open(base)?;
            let mut seg = Segment::recover(base, storage, config.index_interval_bytes)?;
            seg.seal();
            segments.insert(base, seg);
        }
        let mut log = Log {
            start_offset: segments
                .values()
                .next()
                .map(|s| s.base_offset())
                .unwrap_or(0),
            metrics: LogMetrics::resolve(&config.obs),
            config,
            clock,
            segments,
            cache: None,
            read_cache: None,
            compaction_generation: 0,
            tail: Vec::new(),
            tail_frames: Vec::new(),
        };
        // The newest recovered segment becomes active again; if none,
        // start fresh at offset 0.
        let next = log.segments.values().next_back().map(Segment::next_offset);
        match next {
            Some(next) => log.roll_new_segment(next)?,
            None => log.roll_new_segment(0)?,
        }
        Ok(log)
    }

    /// Convenience: in-memory log with default config.
    pub fn in_memory(clock: SharedClock) -> Self {
        // lint:allow(panic-reachability, reason=default config uses in-memory storage with a disabled injector; open has no fallible step on that path)
        Log::open(LogConfig::default(), clock).expect("memory log cannot fail")
    }

    /// Attaches a page-cache model; all subsequent reads/writes are
    /// charged through it. `log_id` must be unique per cache.
    pub fn attach_cache(&mut self, cache: Arc<Mutex<PageCache>>, log_id: u64) {
        self.cache = Some((cache, log_id));
    }

    /// Attaches a sharded segment-read cache. Reads of sealed segments
    /// are served from it as zero-copy slices; only a miss decodes the
    /// segment from storage (and fills the cache). `log_id` must be
    /// unique per cache so segment ids never collide across logs.
    pub fn attach_read_cache(&mut self, cache: Arc<SegmentReadCache>, log_id: u64) {
        self.read_cache = Some((cache, log_id));
    }

    /// The configuration.
    pub fn config(&self) -> &LogConfig {
        &self.config
    }

    /// Offset the next appended record will receive (log-end offset).
    pub fn next_offset(&self) -> u64 {
        self.active().next_offset()
    }

    /// First readable offset (0 until retention deletes data).
    pub fn start_offset(&self) -> u64 {
        self.start_offset
    }

    /// Total bytes across all segments.
    pub fn size_bytes(&self) -> u64 {
        self.segments.values().map(|s| s.size_bytes()).sum()
    }

    /// Total records across all segments.
    pub fn record_count(&self) -> u64 {
        self.segments.values().map(|s| s.record_count()).sum()
    }

    /// Number of segments (including the active one).
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// Appends one record stamped with the current clock time: sugar
    /// for a batch of one through
    /// [`append_record_batch`](Self::append_record_batch). Returns its
    /// offset.
    pub fn append(&mut self, key: Option<Bytes>, value: Bytes) -> crate::Result<u64> {
        let one = RecordBatch::from_pairs([(key, value)], self.clock.now());
        let (offset, _, _) = self.append_record_batch(one)?;
        Ok(offset)
    }

    /// The leader's write function: every append is one batch — one
    /// fault-injector tick (`log.append`), one roll check, one metrics
    /// record, one frame, one storage append and one page-cache model
    /// charge — however many records it carries, which is what makes
    /// the batched produce path scale. The batch *is* the frame: it is
    /// sealed in place (offsets, the broker's stamp if the batch
    /// carries one, CRCs), frozen once and stored, and the tail's
    /// records are slices of the frozen bytes (DESIGN.md §20).
    ///
    /// Atomicity: the injector tick happens *before* the first byte of
    /// the frame is written, so an injected crash drops the batch whole
    /// — a torn batch is never half-appended by fault injection.
    /// Offsets are assigned sequentially from the current log end;
    /// timestamps are the batch's stamp, or each record's own. Because
    /// the batch is indivisible, the roll threshold is checked once up
    /// front and the active segment may overshoot `segment_bytes` by up
    /// to one batch.
    ///
    /// Returns `(base_offset, records, payload_bytes)` of the appended
    /// run; an empty batch appends nothing and ticks nothing.
    pub fn append_record_batch(&mut self, batch: RecordBatch) -> crate::Result<(u64, u64, u64)> {
        let count = batch.len() as u64;
        if count == 0 {
            return Ok((self.next_offset(), 0, 0));
        }
        let payload_bytes = batch.payload_bytes();
        self.note_group_commit(count, payload_bytes);
        self.begin_group_commit()?;
        let base = self.next_offset();
        let (frame, starts) = batch.seal(base);
        self.append_sealed(frame, starts)?;
        Ok((base, count, payload_bytes))
    }

    /// The follower's write function: appends everything `leader`
    /// holds from this log's end on **as the leader framed it** — each
    /// frame the leader's append froze is stored verbatim (a reference
    /// to the same allocation on `MemStorage`, one `write` on
    /// `FileStorage`) and the tail takes records that already point
    /// into it. Nothing is decoded, encoded, checksummed or copied for
    /// the hot head; sealed segments are walked through the CRC-checking
    /// chunk cursor, never through a read cache. Records keep the
    /// leader's offsets, so the replicas stay offset-identical: the
    /// caller has made this log a prefix of the leader's, and a leader
    /// whose start is past this log's end ships from its start (the
    /// gap stays a gap).
    ///
    /// One transfer is one group commit, like one batch on the leader:
    /// one `log.append` tick and one roll check before the first byte,
    /// one metrics record. The frames of a transfer land in one active
    /// segment (overshoot allowed); an I/O error midway leaves a prefix
    /// of whole frames behind — a less caught-up follower.
    ///
    /// Returns `(records, payload_bytes, frames)`; with nothing to ship
    /// it appends nothing and ticks nothing.
    pub fn append_frames_from(&mut self, leader: &Log) -> crate::Result<(u64, u64, u64)> {
        let from = self.next_offset();
        if from >= leader.next_offset() {
            return Ok((0, 0, 0));
        }
        self.begin_group_commit()?;
        let (mut count, mut payload_bytes, mut frames) = (0u64, 0u64, 0u64);
        let shipped = leader.for_each_frame_from(from, |frame, records| {
            let first = self.tail.len();
            self.tail.extend(records.iter().cloned());
            self.store_tail_frame(frame, first)?;
            count = count.saturating_add(records.len() as u64);
            payload_bytes =
                payload_bytes.saturating_add(records.iter().map(|r| r.value.len() as u64).sum());
            frames = frames.saturating_add(1);
            Ok(())
        });
        self.note_group_commit(count, payload_bytes);
        shipped?;
        Ok((count, payload_bytes, frames))
    }

    /// The one decision point of a group commit, before its first byte
    /// is written: the `log.append` fault site and the roll check.
    fn begin_group_commit(&mut self) -> crate::Result<()> {
        self.metrics.append.inc();
        if self.config.injector.tick("log.append") {
            return Err(LogError::Injected("log.append"));
        }
        self.maybe_roll()
    }

    fn note_group_commit(&self, records: u64, payload_bytes: u64) {
        self.metrics.batch_records.record(records);
        self.metrics.append_bytes.record(payload_bytes);
    }

    /// Appends a sealed, frozen `frame` whose records start at
    /// `starts`: the tail takes them as slices of it, then the frame is
    /// stored.
    fn append_sealed(
        &mut self,
        frame: Bytes,
        starts: impl IntoIterator<Item = usize>,
    ) -> crate::Result<()> {
        let first = self.tail.len();
        for at in starts {
            match Record::sealed_at(&frame, at) {
                Ok((record, _)) => self.tail.push(record),
                Err(e) => {
                    self.tail.drain(first..);
                    return Err(e);
                }
            }
        }
        self.store_tail_frame(frame, first)
    }

    /// The bottom of the write path, under the leader's seal, the
    /// follower's verbatim append and `truncate_to`'s rebuild alike:
    /// stores `frame` — the encoding of `tail[first..]`, which the
    /// caller has just pushed, each record a slice of it — in the
    /// active segment with one storage append, notes the frame boundary
    /// and charges an attached page-cache model for the stored bytes.
    /// On an error the records come off the tail again.
    fn store_tail_frame(&mut self, frame: Bytes, first: usize) -> crate::Result<()> {
        let file_id = self.file_id(self.active_base());
        let records = self.tail.get(first..).unwrap_or_default();
        match active_of(&mut self.segments).append_frame(frame.clone(), records) {
            Ok(pos) => {
                if let Some((cache, _)) = &self.cache {
                    cache.lock().write(file_id, pos, frame.len());
                }
                self.tail_frames.push((first, frame));
                Ok(())
            }
            Err(e) => {
                self.tail.drain(first..);
                Err(e)
            }
        }
    }

    /// Hands `visit` everything from `from` on as frames with their
    /// records, oldest first: sealed segments straight from storage
    /// (CRC-checked, one frame per cursor window, no read cache), the
    /// hot head as the frames its appends stored — lent, not copied;
    /// when `from` falls inside one, its suffix.
    fn for_each_frame_from(
        &self,
        from: u64,
        mut visit: impl FnMut(Bytes, &[Record]) -> crate::Result<()>,
    ) -> crate::Result<()> {
        let active_base = self.active_base();
        let start_base = self
            .segments
            .range(..=from)
            .next_back()
            .map_or(from, |(&base, _)| base);
        for (_, seg) in self.segments.range(start_base..active_base) {
            if from < seg.next_offset() {
                seg.for_each_frame_from(from, &mut visit)?;
            }
        }
        let start = self.tail.partition_point(|r| r.offset < from);
        let first_frame = self
            .tail_frames
            .partition_point(|&(first, _)| first <= start)
            .saturating_sub(1);
        let mut frames = self.tail_frames.iter().skip(first_frame).peekable();
        while let Some((first, frame)) = frames.next() {
            let end = frames.peek().map_or(self.tail.len(), |&&(next, _)| next);
            let records = self.tail.get(*first..end).unwrap_or_default();
            let (frame, wanted) = frame_suffix(frame, records, from);
            if !wanted.is_empty() {
                visit(frame, wanted)?;
            }
        }
        Ok(())
    }

    /// Reads up to `max_bytes` of records starting at `offset`,
    /// continuing across segment boundaries. `offset == next_offset()`
    /// yields an empty read (the caller is tailing the log).
    pub fn read(&self, offset: u64, max_bytes: u64) -> crate::Result<ReadOutcome> {
        let end = self.next_offset();
        if offset < self.start_offset || offset > end {
            return Err(LogError::OffsetOutOfRange {
                requested: offset,
                start: self.start_offset,
                end,
            });
        }
        let mut records = Vec::new();
        let mut cost = 0u64;
        let mut budget = max_bytes;
        let mut cursor = offset;
        // Candidate segments: the one containing `cursor` and everything
        // after it.
        let start_base = self
            .segments
            .range(..=cursor)
            .next_back()
            .or_else(|| self.segments.iter().next())
            .map(|(&b, _)| b)
            .unwrap_or(cursor);
        let active_base = self.active_base();
        for (&base, seg) in self.segments.range(start_base..) {
            if budget == 0 {
                break;
            }
            let from = cursor.max(seg.base_offset());
            if from >= seg.next_offset() {
                continue;
            }
            // One layered path: the in-memory tail serves the active
            // segment, the read cache serves sealed ones (filling
            // itself on a miss), the storage cursor serves the rest.
            let served = if base == active_base {
                self.read_tail(seg, from, budget)
            } else if let Some((rc, _)) = &self.read_cache {
                self.read_cached(rc, seg, from, budget)?
            } else {
                Self::read_storage(seg, from, budget)?
            };
            // The one page-cache charge site, after all fallible work.
            if let (Some((cache, _)), Some((start_pos, scanned))) = (&self.cache, served.scanned) {
                let file_id = self.file_id(base);
                cost = cost.saturating_add(
                    cache
                        .lock()
                        .read(file_id, start_pos, scanned as usize)
                        .cost_ns,
                );
            }
            let bytes: u64 = served.records.iter().map(|r| r.wire_size() as u64).sum();
            budget = budget.saturating_sub(bytes);
            if let Some(last) = served.records.last() {
                cursor = last.offset.checked_add(1).ok_or(LogError::OffsetOverflow {
                    what: "advancing the read cursor past the last record",
                    value: last.offset,
                })?;
            }
            records.extend(served.records);
        }
        Ok(ReadOutcome {
            records,
            simulated_cost_ns: cost,
        })
    }

    /// Tail layer: the active segment's records from memory, under the
    /// `read_from` budget rule. They were never read back, so there is
    /// nothing to verify; a page-cache model, if attached, is still
    /// charged the span a storage scan of the same read would cover
    /// (from the sparse-index entry through the last record returned),
    /// so the simulated costs of E1/E3 do not depend on this layer.
    fn read_tail(&self, seg: &Segment, from: u64, budget: u64) -> Served {
        let records = slice_from(&self.tail, from, budget);
        let scanned = self.cache.as_ref().map(|_| {
            let (scan_from, start_pos) = seg.seek_entry(from);
            let scan_to = records.last().map_or(from, |r| r.offset);
            let first = self.tail.partition_point(|r| r.offset < scan_from);
            let bytes = self
                .tail
                .iter()
                .skip(first)
                .take_while(|r| r.offset <= scan_to)
                .map(|r| r.wire_size() as u64)
                .sum();
            (start_pos, bytes)
        });
        Served { records, scanned }
    }

    /// Cache layer: a sealed segment from the read cache; a miss
    /// decodes the whole segment through the storage cursor (CRC
    /// checked) and offers it to the cache. Only a fill scans storage.
    fn read_cached(
        &self,
        rc: &SegmentReadCache,
        seg: &Segment,
        from: u64,
        budget: u64,
    ) -> crate::Result<Served> {
        let sid = self.read_cache_id(seg.base_offset());
        if let Some(records) = rc.get(sid, from, budget) {
            return Ok(Served {
                records,
                scanned: None,
            });
        }
        let read = seg.read_from(seg.base_offset(), u64::MAX)?;
        let scanned = Some((read.start_pos, read.bytes_scanned));
        let whole = rc.insert(sid, read.records, &self.config.injector)?;
        Ok(Served {
            records: slice_from(&whole, from, budget),
            scanned,
        })
    }

    /// Storage layer: one index seek, one cursor scan, every record
    /// CRC-checked as it is decoded.
    fn read_storage(seg: &Segment, from: u64, budget: u64) -> crate::Result<Served> {
        let read = seg.read_from(from, budget)?;
        Ok(Served {
            records: read.records,
            scanned: Some((read.start_pos, read.bytes_scanned)),
        })
    }

    /// The record at exactly `offset`, or `None` when the log does not
    /// hold it (out of range, or compacted away). A point lookup: the
    /// tail by binary search, a sealed segment by one index-bounded
    /// cursor scan. It never consults or fills the read cache —
    /// decoding a whole segment to answer for one record is what a
    /// scan cache is not for — and is not charged to a page-cache
    /// model.
    pub fn record_at(&self, offset: u64) -> crate::Result<Option<Record>> {
        if offset < self.start_offset || offset >= self.next_offset() {
            return Ok(None);
        }
        if offset >= self.active_base() {
            let found = self.tail.binary_search_by_key(&offset, |r| r.offset);
            return Ok(found.ok().and_then(|i| self.tail.get(i)).cloned());
        }
        let Some((_, seg)) = self.segments.range(..=offset).next_back() else {
            return Ok(None);
        };
        if offset >= seg.next_offset() {
            return Ok(None);
        }
        let first = seg.read_from(offset, 1)?.records.into_iter().next();
        Ok(first.filter(|r| r.offset == offset))
    }

    /// First offset whose record timestamp is `>= ts` (rewind by time).
    pub fn offset_for_timestamp(&self, ts: Ts) -> crate::Result<Option<u64>> {
        for seg in self.segments.values() {
            if seg.max_timestamp() >= ts {
                if let Some(off) = seg.offset_for_timestamp(ts)? {
                    return Ok(Some(off));
                }
            }
        }
        Ok(None)
    }

    /// Applies the retention policy: whole sealed segments are dropped
    /// from the front by age and then by size — each drop is one O(1)
    /// storage unlink, never a record rewrite. Returns the base offsets
    /// of the dropped segments.
    pub fn enforce_retention(&mut self) -> crate::Result<Vec<u64>> {
        let now = self.clock.now();
        let mut deleted = Vec::new();
        if let Some(max_age) = self.config.retention.max_age_ms() {
            loop {
                let victim = self.sealed_bases().first().copied().filter(|b| {
                    self.segments
                        .get(b)
                        .is_some_and(|s| s.max_timestamp() + max_age <= now)
                });
                match victim {
                    Some(base) => {
                        self.drop_segment(base)?;
                        deleted.push(base);
                    }
                    None => break,
                }
            }
        }
        if let Some(max_bytes) = self.config.retention.max_bytes() {
            while self.size_bytes() > max_bytes {
                let Some(base) = self.sealed_bases().first().copied() else {
                    break;
                };
                self.drop_segment(base)?;
                deleted.push(base);
            }
        }
        Ok(deleted)
    }

    /// Discards all records with offsets `>= offset` (replica divergence
    /// repair, §4.3). Returns how many records were dropped.
    pub fn truncate_to(&mut self, offset: u64) -> crate::Result<u64> {
        let before = self.record_count();
        // Remove whole segments past the cut.
        let doomed: Vec<u64> = self
            .segments
            .keys()
            .copied()
            .filter(|&b| b >= offset)
            .collect();
        for base in doomed {
            self.remove_segment(base)?;
        }
        // Rebuild the boundary segment without the suffix: it becomes
        // the active segment again, its kept records one frame and the
        // new tail.
        if let Some((&base, seg)) = self.segments.iter().next_back() {
            if seg.next_offset() > offset {
                let mut keep = seg.read_from(seg.base_offset(), u64::MAX)?.records;
                keep.retain(|r| r.offset < offset);
                self.remove_segment(base)?;
                self.roll_new_segment(base)?;
                if !keep.is_empty() {
                    // The kept records keep their (possibly compacted,
                    // sparse) offsets, so they are encoded as they are.
                    let starts = keep.iter().scan(0usize, |at, r| {
                        let start = *at;
                        *at = at.saturating_add(r.wire_size());
                        Some(start)
                    });
                    self.append_sealed(encode_frame(&keep), starts)?;
                }
            }
        }
        if self.segments.is_empty() {
            self.roll_new_segment(offset)?;
            self.start_offset = self.start_offset.min(offset);
        } else if let Some(last) = self.segments.values().next_back() {
            // Reactivate the last remaining segment for appends by
            // rolling a fresh active segment after it.
            let (next, sealed) = (last.next_offset(), last.is_sealed());
            if sealed {
                self.roll_new_segment(next)?;
            }
        }
        Ok(before - self.record_count())
    }

    /// Flushes the active segment.
    pub fn flush(&mut self) -> crate::Result<()> {
        self.active_mut().flush()
    }

    /// Iterates over sealed segments' `(base, record_count, size_bytes)`
    /// (used by compaction and tests).
    pub fn sealed_segment_info(&self) -> Vec<(u64, u64, u64)> {
        self.segments
            .values()
            .filter(|s| s.is_sealed())
            .map(|s| (s.base_offset(), s.record_count(), s.size_bytes()))
            .collect()
    }

    pub(crate) fn active(&self) -> &Segment {
        // lint:allow(panic-reachability, reason=open() always rolls a segment and nothing removes the last one, so the map is never empty)
        self.segments.values().next_back().expect("log non-empty")
    }

    pub(crate) fn active_base(&self) -> u64 {
        // lint:allow(panic-reachability, reason=open() always rolls a segment and nothing removes the last one, so the map is never empty)
        *self.segments.keys().next_back().expect("log non-empty")
    }

    fn active_mut(&mut self) -> &mut Segment {
        active_of(&mut self.segments)
    }

    pub(crate) fn sealed_bases(&self) -> Vec<u64> {
        self.segments
            .iter()
            .filter(|(_, s)| s.is_sealed())
            .map(|(&b, _)| b)
            .collect()
    }

    pub(crate) fn segments_mut(&mut self) -> &mut BTreeMap<u64, Segment> {
        &mut self.segments
    }

    pub(crate) fn segments(&self) -> &BTreeMap<u64, Segment> {
        &self.segments
    }

    pub(crate) fn storage_kind(&self) -> &StorageKind {
        &self.config.storage
    }

    pub(crate) fn metrics(&self) -> &LogMetrics {
        &self.metrics
    }

    pub(crate) fn index_interval(&self) -> u64 {
        self.config.index_interval_bytes
    }

    /// Completed compaction passes over this log.
    pub fn compaction_generation(&self) -> u64 {
        self.compaction_generation
    }

    pub(crate) fn bump_compaction_generation(&mut self) {
        self.compaction_generation += 1;
    }

    fn file_id(&self, base: u64) -> u64 {
        match &self.cache {
            Some((_, log_id)) => (log_id << 40) | (base & 0xFF_FFFF_FFFF),
            None => base,
        }
    }

    fn maybe_roll(&mut self) -> crate::Result<()> {
        let now = self.clock.now();
        let (size, next, opened_at) = {
            let a = self.active();
            (
                a.size_bytes(),
                a.next_offset(),
                a.time_range().map(|(min, _)| min),
            )
        };
        let size_due = size >= self.config.segment_bytes;
        // Time-partitioning: roll a non-empty active segment once its
        // oldest record ages past `segment_ms`, so each segment covers a
        // bounded time range and age retention drops whole segments.
        let time_due = match (self.config.segment_ms, opened_at) {
            (Some(ms), Some(min)) => min.saturating_add(ms) <= now,
            _ => false,
        };
        if size_due || time_due {
            self.metrics.roll.inc();
            if self.config.injector.tick("log.roll") {
                return Err(LogError::Injected("log.roll"));
            }
            self.active_mut().seal();
            self.roll_new_segment(next)?;
        }
        Ok(())
    }

    /// Starts a fresh active segment at `base`; the tail starts over
    /// with it.
    fn roll_new_segment(&mut self, base: u64) -> crate::Result<()> {
        let storage = self.config.storage.create(base)?;
        self.segments.insert(
            base,
            Segment::new(base, storage, self.config.index_interval_bytes),
        );
        self.tail.clear();
        self.tail_frames.clear();
        Ok(())
    }

    fn drop_segment(&mut self, base: u64) -> crate::Result<()> {
        self.metrics.segment_drop.inc();
        if self.config.injector.tick("log.segment-drop") {
            return Err(LogError::Injected("log.segment-drop"));
        }
        self.remove_segment(base)?;
        // Retention advances the start offset to the oldest remaining
        // segment (deletion always removes the oldest first).
        if let Some(first) = self.segments.values().next() {
            self.start_offset = self.start_offset.max(first.base_offset());
        }
        Ok(())
    }

    /// Removes the segment at `base` and its backing medium, leaving
    /// `start_offset` alone: truncation past it, or compaction having
    /// emptied it.
    pub(crate) fn remove_segment(&mut self, base: u64) -> crate::Result<()> {
        self.segments.remove(&base);
        self.config.storage.destroy(base)?;
        if let Some((cache, _)) = &self.cache {
            let fid = self.file_id(base);
            cache.lock().evict_file(fid);
        }
        self.invalidate_read_cache(base);
        Ok(())
    }

    /// Drops the cached copy of segment `base` from the read cache, if
    /// any. Called whenever a segment is removed or rewritten (retention
    /// drop, truncation, compaction) so the cache never serves a retired
    /// segment's records.
    pub(crate) fn invalidate_read_cache(&self, base: u64) {
        if let Some((rc, _)) = &self.read_cache {
            rc.invalidate(self.read_cache_id(base));
        }
    }

    fn read_cache_id(&self, base: u64) -> u64 {
        match &self.read_cache {
            Some((_, log_id)) => (log_id << 40) | (base & 0xFF_FFFF_FFFF),
            None => base,
        }
    }
}

/// The active segment of a log's segment map: borrows the map alone,
/// so the write path can hand it records out of the tail.
fn active_of(segments: &mut BTreeMap<u64, Segment>) -> &mut Segment {
    // lint:allow(panic-reachability, reason=open() always rolls a segment and nothing removes the last one, so the map is never empty)
    segments.values_mut().next_back().expect("log non-empty")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::BatchBuilder;
    use liquid_sim::clock::SimClock;
    use liquid_sim::pagecache::{PageCache, PageCacheConfig};
    use proptest::prelude::*;

    fn log_with(segment_bytes: u64) -> (Log, SimClock) {
        let clock = SimClock::new(0);
        let cfg = LogConfig {
            segment_bytes,
            index_interval_bytes: 256,
            ..LogConfig::default()
        };
        (Log::open(cfg, clock.shared()).unwrap(), clock)
    }

    fn b(s: &str) -> Bytes {
        Bytes::from(s.to_string())
    }

    #[test]
    fn append_read_roundtrip() {
        let (mut log, _) = log_with(1 << 20);
        for i in 0..100 {
            let off = log
                .append(Some(b(&format!("k{i}"))), b(&format!("v{i}")))
                .unwrap();
            assert_eq!(off, i);
        }
        let out = log.read(0, u64::MAX).unwrap();
        assert_eq!(out.records.len(), 100);
        assert_eq!(out.records[37].value, b("v37"));
        let mid = log.read(50, u64::MAX).unwrap();
        assert_eq!(mid.records.len(), 50);
        assert_eq!(mid.records[0].offset, 50);
    }

    #[test]
    fn rolls_segments_at_threshold() {
        let (mut log, _) = log_with(256);
        for i in 0..100 {
            log.append(None, b(&format!("value-{i:04}"))).unwrap();
        }
        assert!(log.segment_count() > 1, "should have rolled");
        // Reads spanning segments still return everything.
        let out = log.read(0, u64::MAX).unwrap();
        assert_eq!(out.records.len(), 100);
    }

    #[test]
    fn tail_read_is_empty_not_error() {
        let (mut log, _) = log_with(1 << 20);
        log.append(None, b("x")).unwrap();
        let out = log.read(1, u64::MAX).unwrap();
        assert!(out.records.is_empty());
    }

    #[test]
    fn out_of_range_read_errors() {
        let (mut log, _) = log_with(1 << 20);
        log.append(None, b("x")).unwrap();
        assert!(matches!(
            log.read(5, 1),
            Err(LogError::OffsetOutOfRange { end: 1, .. })
        ));
    }

    #[test]
    fn timestamps_support_rewind_by_time() {
        let (mut log, clock) = log_with(512);
        for i in 0..50 {
            clock.set(i * 100);
            log.append(None, b(&format!("v{i}"))).unwrap();
        }
        assert_eq!(log.offset_for_timestamp(0).unwrap(), Some(0));
        assert_eq!(log.offset_for_timestamp(2_000).unwrap(), Some(20));
        assert_eq!(log.offset_for_timestamp(2_050).unwrap(), Some(21));
        assert_eq!(log.offset_for_timestamp(1_000_000).unwrap(), None);
    }

    #[test]
    fn retention_by_age_deletes_old_segments() {
        let clock = SimClock::new(0);
        let cfg = LogConfig {
            segment_bytes: 256,
            retention: RetentionPolicy::DropByAge {
                max_age_ms: 1_000,
                max_bytes: None,
            },
            ..LogConfig::default()
        };
        let mut log = Log::open(cfg, clock.shared()).unwrap();
        for i in 0..50 {
            log.append(None, b(&format!("value-{i:05}"))).unwrap();
        }
        let before = log.segment_count();
        assert!(before > 2);
        clock.advance(10_000);
        // New appends after the gap: old segments now out of window.
        for i in 0..10 {
            log.append(None, b(&format!("new-{i}"))).unwrap();
        }
        let deleted = log.enforce_retention().unwrap();
        assert!(!deleted.is_empty());
        assert!(log.start_offset() > 0);
        // Reading from before the start offset now fails.
        assert!(log.read(0, 1).is_err());
        // Reading from the start offset works.
        assert!(log.read(log.start_offset(), u64::MAX).is_ok());
    }

    #[test]
    fn retention_by_size_bounds_log() {
        let clock = SimClock::new(0);
        let cfg = LogConfig {
            segment_bytes: 512,
            retention: RetentionPolicy::DropByBytes { max_bytes: 2_048 },
            ..LogConfig::default()
        };
        let mut log = Log::open(cfg, clock.shared()).unwrap();
        for i in 0..500 {
            log.append(None, b(&format!("value-{i:06}"))).unwrap();
        }
        log.enforce_retention().unwrap();
        assert!(
            log.size_bytes() <= 2_048 + 512,
            "size {} should be bounded",
            log.size_bytes()
        );
        assert!(log.start_offset() > 0);
    }

    #[test]
    fn retention_never_deletes_active_segment() {
        let clock = SimClock::new(0);
        let cfg = LogConfig {
            segment_bytes: 1 << 20, // everything fits in the active segment
            retention: RetentionPolicy::DropByAge {
                max_age_ms: 1,
                max_bytes: Some(1),
            },
            ..LogConfig::default()
        };
        let mut log = Log::open(cfg, clock.shared()).unwrap();
        for _ in 0..10 {
            log.append(None, b("x")).unwrap();
        }
        clock.advance(1_000_000);
        let deleted = log.enforce_retention().unwrap();
        assert!(deleted.is_empty());
        assert_eq!(log.read(0, u64::MAX).unwrap().records.len(), 10);
    }

    #[test]
    fn truncate_to_discards_suffix() {
        let (mut log, _) = log_with(256);
        for i in 0..50 {
            log.append(None, b(&format!("value-{i:04}"))).unwrap();
        }
        let dropped = log.truncate_to(20).unwrap();
        assert_eq!(dropped, 30);
        assert_eq!(log.next_offset(), 20);
        assert_eq!(log.read(0, u64::MAX).unwrap().records.len(), 20);
        // Appends continue from the truncation point.
        let off = log.append(None, b("after")).unwrap();
        assert_eq!(off, 20);
    }

    #[test]
    fn file_backed_log_recovers_after_reopen() {
        let dir = std::env::temp_dir().join(format!(
            "liquid-log-recover-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        let cfg = LogConfig {
            segment_bytes: 256,
            storage: StorageKind::Files(dir.clone()),
            ..LogConfig::default()
        };
        let clock = SimClock::new(0);
        {
            let mut log = Log::open(cfg.clone(), clock.shared()).unwrap();
            for i in 0..30 {
                log.append(Some(b(&format!("k{i}"))), b(&format!("v{i}")))
                    .unwrap();
            }
            log.flush().unwrap();
        }
        let log = Log::open(cfg, clock.shared()).unwrap();
        assert_eq!(log.next_offset(), 30);
        let out = log.read(0, u64::MAX).unwrap();
        assert_eq!(out.records.len(), 30);
        assert_eq!(out.records[29].value, b("v29"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn page_cache_charging_hot_vs_cold() {
        let clock = SimClock::new(0);
        let cache = Arc::new(Mutex::new(
            "log.pagecache",
            PageCache::new(
                PageCacheConfig {
                    capacity_pages: 8,
                    prefetch_pages: 0,
                    ..PageCacheConfig::default()
                },
                clock.shared(),
            ),
        ));
        let cfg = LogConfig {
            segment_bytes: 4096,
            ..LogConfig::default()
        };
        let mut log = Log::open(cfg, clock.shared()).unwrap();
        log.attach_cache(cache, 1);
        let payload = "p".repeat(1024);
        for _ in 0..200 {
            log.append(None, b(&payload)).unwrap();
        }
        // Tail read (hot) vs rewind read (cold).
        let tail = log.read(log.next_offset() - 2, u64::MAX).unwrap();
        let cold = log.read(0, 2048).unwrap();
        assert!(
            cold.simulated_cost_ns > tail.simulated_cost_ns,
            "cold {} should exceed hot {}",
            cold.simulated_cost_ns,
            tail.simulated_cost_ns
        );
    }

    #[test]
    fn tail_reads_are_charged_the_span_a_storage_scan_covers() {
        // A tail read touches no storage, but a log with a page-cache
        // model attached must still cost what it did before the tail
        // existed: `page_cache_charging_hot_vs_cold` only checks cold >
        // hot, which a hot cost of 0 satisfies. The numbers are the
        // parent commit's for this exact sequence of reads (later ones
        // depend on which pages the earlier ones touched).
        let clock = SimClock::new(0);
        let cache = Arc::new(Mutex::new(
            "log.pagecache",
            PageCache::new(
                PageCacheConfig {
                    capacity_pages: 8,
                    prefetch_pages: 0,
                    ..PageCacheConfig::default()
                },
                clock.shared(),
            ),
        ));
        let cfg = LogConfig {
            segment_bytes: 64 * 1024,
            index_interval_bytes: 1024,
            ..LogConfig::default()
        };
        let mut log = Log::open(cfg, clock.shared()).unwrap();
        log.attach_cache(cache, 1);
        let payload = "p".repeat(300);
        for _ in 0..100 {
            log.append(None, b(&payload)).unwrap();
        }
        assert_eq!(log.segment_count(), 1, "every read below is a tail read");
        let end = log.next_offset();
        let reads = [
            (end - 2, u64::MAX),
            (end - 40, 1_000),
            (end - 60, u64::MAX),
            (0, u64::MAX),
            (10, 5_000),
            (end - 2, u64::MAX),
        ];
        // The span itself, against the storage scan of the same read.
        let active = log.active();
        for (from, budget) in reads {
            let scan = active.read_from(from, budget).unwrap();
            let served = log.read_tail(active, from, budget);
            assert_eq!(served.records, scan.records);
            assert_eq!(served.scanned, Some((scan.start_pos, scan.bytes_scanned)));
        }
        let costs: Vec<u64> = reads
            .iter()
            .map(|&(from, budget)| log.read(from, budget).unwrap().simulated_cost_ns)
            .collect();
        assert_eq!(costs, [200, 200, 600, 252_000, 4_084_000, 200]);
    }

    #[test]
    fn point_lookup_does_not_fill_the_read_cache() {
        use crate::cache::{ReadCacheConfig, SegmentReadCache};
        let obs = Obs::default();
        let cache = SegmentReadCache::new(ReadCacheConfig {
            capacity_bytes: 1 << 20,
            shards: 2,
            obs: obs.clone(),
        });
        let (mut log, _) = log_with(512);
        log.attach_read_cache(cache.clone(), 1);
        while log.segment_count() < 2 {
            log.append(Some(b("k")), b("value-0123456789")).unwrap();
        }
        // What replication's divergence probe asks at every roll: the
        // last offset of the segment that was just sealed.
        let last_sealed = log.active_base() - 1;
        let found = log.record_at(last_sealed).unwrap().unwrap();
        assert_eq!(found.offset, last_sealed);
        #[cfg(not(feature = "obs-off"))]
        assert_eq!(obs.snapshot().counter("log.cache.miss"), 0);
        assert_eq!(cache.cached_segments(), 0);
        // A scan of the same segment is what fills it.
        log.read(0, u64::MAX).unwrap();
        #[cfg(not(feature = "obs-off"))]
        assert_eq!(obs.snapshot().counter("log.cache.miss"), 1);
        assert_eq!(cache.cached_segments(), 1);
        log.record_at(last_sealed).unwrap().unwrap();
        #[cfg(not(feature = "obs-off"))]
        {
            assert_eq!(obs.snapshot().counter("log.cache.miss"), 1);
            assert_eq!(obs.snapshot().counter("log.cache.hit"), 0);
        }
        // In the tail, in a gap, and out of range.
        let newest = log.next_offset() - 1;
        assert_eq!(log.record_at(newest).unwrap().unwrap().offset, newest);
        assert_eq!(log.record_at(log.next_offset()).unwrap(), None);
        assert_eq!(log.record_at(u64::MAX).unwrap(), None);
    }

    #[test]
    fn tail_follows_roll_and_truncate() {
        let (mut log, _) = log_with(512);
        assert!(log.tail.is_empty());
        for i in 0..40 {
            log.append(None, b(&format!("value-{i:04}"))).unwrap();
        }
        assert!(log.segment_count() > 2);
        let active = |log: &Log| {
            let seg = log.active();
            seg.read_from(seg.base_offset(), u64::MAX).unwrap().records
        };
        assert_eq!(log.tail, active(&log));
        // The tail holds slices of the stored frame, not the caller's
        // buffers: what storage hands out is the same memory.
        let stored = active(&log);
        let (t, s) = (log.tail.last().unwrap(), stored.last().unwrap());
        assert_eq!(t.value.as_slice().as_ptr(), s.value.as_slice().as_ptr());
        // Inside the active segment, inside a sealed one, at a boundary.
        let base = log.active_base();
        for cut in [
            log.next_offset() - 1,
            base - 3,
            log.segments().keys().nth(1).copied().unwrap(),
        ] {
            log.truncate_to(cut).unwrap();
            assert_eq!(log.next_offset(), cut);
            assert_eq!(log.tail, active(&log), "after truncate_to({cut})");
            log.append(None, b("after")).unwrap();
            assert_eq!(log.tail, active(&log));
        }
    }

    #[test]
    fn batch_append_returns_first_offset() {
        let (mut log, _) = log_with(1 << 20);
        log.append(None, b("pre")).unwrap();
        let pairs = vec![(None, b("a")), (None, b("b")), (None, b("c"))];
        let appended = log
            .append_record_batch(RecordBatch::from_pairs(pairs, 0))
            .unwrap();
        assert_eq!(appended, (1, 3, 3), "(base offset, records, payload bytes)");
        assert_eq!(log.next_offset(), 4);
        assert_eq!(
            log.append_record_batch(RecordBatch::new()).unwrap(),
            (4, 0, 0),
            "an empty batch appends nothing"
        );
    }

    #[test]
    fn retention_policy_validation_rejects_zero_bounds() {
        assert!(RetentionPolicy::KeepAll.validate().is_ok());
        assert!(RetentionPolicy::compact().is_compacted());
        assert!(RetentionPolicy::compact().validate().is_ok());
        assert!(RetentionPolicy::DropByBytes { max_bytes: 1 }
            .validate()
            .is_ok());
        assert!(RetentionPolicy::DropByBytes { max_bytes: 0 }
            .validate()
            .is_err());
        assert!(RetentionPolicy::DropByAge {
            max_age_ms: 0,
            max_bytes: None,
        }
        .validate()
        .is_err());
        assert!(RetentionPolicy::Compact {
            max_age_ms: None,
            max_bytes: Some(0),
        }
        .validate()
        .is_err());
    }

    #[test]
    fn time_based_roll_partitions_segments_by_age() {
        let clock = SimClock::new(0);
        let cfg = LogConfig {
            segment_bytes: 1 << 30, // size never triggers
            segment_ms: Some(1_000),
            ..LogConfig::default()
        };
        let mut log = Log::open(cfg, clock.shared()).unwrap();
        for i in 0..10 {
            clock.set(i * 400);
            log.append(None, b(&format!("v{i}"))).unwrap();
        }
        assert!(
            log.segment_count() >= 3,
            "expected time-based rolls, got {} segments",
            log.segment_count()
        );
        // Every sealed segment spans at most segment_ms plus one append
        // interval (the roll happens on the append after expiry).
        for seg in log.segments().values().filter(|s| s.is_sealed()) {
            let (min, max) = seg.time_range().unwrap();
            assert!(max - min <= 1_400, "segment spans {} ms", max - min);
        }
        let out = log.read(0, u64::MAX).unwrap();
        assert_eq!(out.records.len(), 10);
    }

    #[test]
    fn time_based_roll_never_rolls_empty_segments() {
        let clock = SimClock::new(0);
        let cfg = LogConfig {
            segment_bytes: 1 << 30,
            segment_ms: Some(10),
            ..LogConfig::default()
        };
        let mut log = Log::open(cfg, clock.shared()).unwrap();
        clock.advance(1_000_000); // long idle gap, nothing to roll
        log.append(None, b("first")).unwrap();
        assert_eq!(log.segment_count(), 1);
    }

    #[test]
    fn read_cache_serves_sealed_segments() {
        use crate::cache::{ReadCacheConfig, SegmentReadCache};
        let obs = Obs::default();
        let cache = SegmentReadCache::new(ReadCacheConfig {
            capacity_bytes: 1 << 20,
            shards: 4,
            obs: obs.clone(),
        });
        let clock = SimClock::new(0);
        let cfg = LogConfig {
            segment_bytes: 256,
            index_interval_bytes: 128,
            ..LogConfig::default()
        };
        let mut log = Log::open(cfg, clock.shared()).unwrap();
        log.attach_read_cache(cache, 1);
        for i in 0..60 {
            log.append(Some(b(&format!("k{i}"))), b(&format!("value-{i:04}")))
                .unwrap();
        }
        assert!(log.segment_count() > 2);
        let cold = log.read(0, u64::MAX).unwrap();
        assert_eq!(cold.records.len(), 60);
        let misses = obs.snapshot().counter("log.cache.miss");
        #[cfg(not(feature = "obs-off"))]
        assert!(misses > 0, "first sweep should miss");
        let hot = log.read(0, u64::MAX).unwrap();
        assert_eq!(hot.records.len(), 60);
        let snapshot = obs.snapshot();
        #[cfg(not(feature = "obs-off"))]
        assert!(
            snapshot.counter("log.cache.hit") > 0,
            "second sweep should hit"
        );
        assert_eq!(
            snapshot.counter("log.cache.miss"),
            misses,
            "second sweep should add no misses"
        );
        // Byte-for-byte identical to the uncached read.
        for (a, c) in hot.records.iter().zip(cold.records.iter()) {
            assert_eq!(a.offset, c.offset);
            assert_eq!(a.key, c.key);
            assert_eq!(a.value, c.value);
        }
    }

    #[test]
    fn read_cache_is_invalidated_by_retention_and_truncation() {
        use crate::cache::{ReadCacheConfig, SegmentReadCache};
        let obs = Obs::default();
        let cache = SegmentReadCache::new(ReadCacheConfig {
            capacity_bytes: 1 << 20,
            shards: 2,
            obs: obs.clone(),
        });
        let clock = SimClock::new(0);
        let cfg = LogConfig {
            segment_bytes: 256,
            retention: RetentionPolicy::DropByBytes { max_bytes: 1_024 },
            ..LogConfig::default()
        };
        let mut log = Log::open(cfg, clock.shared()).unwrap();
        log.attach_read_cache(cache.clone(), 7);
        for i in 0..200 {
            log.append(None, b(&format!("value-{i:06}"))).unwrap();
        }
        log.read(0, u64::MAX).unwrap(); // warm the cache
        let warm = cache.cached_bytes();
        assert!(warm > 0);
        let deleted = log.enforce_retention().unwrap();
        assert!(!deleted.is_empty());
        assert!(
            cache.cached_bytes() < warm,
            "retention must invalidate dropped segments"
        );
        // Reads after retention resume at the new start and never see
        // retired records.
        let out = log.read(log.start_offset(), u64::MAX).unwrap();
        assert!(out.records.iter().all(|r| r.offset >= log.start_offset()));
        // Truncation invalidates too.
        let before = cache.cached_bytes();
        log.read(log.start_offset(), u64::MAX).unwrap();
        log.truncate_to(log.start_offset()).unwrap();
        assert!(cache.cached_bytes() <= before);
    }

    #[test]
    fn record_count_and_sizes() {
        let (mut log, _) = log_with(128);
        for i in 0..20 {
            log.append(None, b(&format!("v{i}"))).unwrap();
        }
        assert_eq!(log.record_count(), 20);
        assert!(log.size_bytes() > 0);
        assert!(!log.sealed_segment_info().is_empty());
    }

    /// Everything in the log as storage holds it: each segment scanned
    /// through `Segment::read_from`, no tail, no cache.
    fn stored_records(log: &Log) -> Vec<Record> {
        log.segments()
            .values()
            .flat_map(|s| s.read_from(s.base_offset(), u64::MAX).unwrap().records)
            .collect()
    }

    /// The frame bookkeeping beside the tail: the frames, in order,
    /// decode (CRC-checked) to exactly the tail's records.
    fn framed_records(log: &Log) -> Vec<Record> {
        let mut decoded = Vec::new();
        for (i, (first, frame)) in log.tail_frames.iter().enumerate() {
            assert_eq!(
                *first,
                decoded.len(),
                "frame {i} starts where the last ended"
            );
            let mut at = 0;
            while at < frame.len() {
                let (record, used) = Record::decode(&frame.slice(at..)).unwrap();
                decoded.push(record);
                at += used;
            }
        }
        decoded
    }

    /// A fresh directory for one file-backed log of one test case.
    fn scratch_dir(tag: &str) -> std::path::PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static NEXT: AtomicU64 = AtomicU64::new(0);
        std::env::temp_dir().join(format!(
            "liquid-log-{tag}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ))
    }

    /// Every segment file of a file-backed log, concatenated in offset
    /// order: the bytes the medium holds.
    fn stored_bytes(dir: &std::path::Path) -> Vec<u8> {
        let mut files: Vec<_> = std::fs::read_dir(dir)
            .unwrap()
            .map(|entry| entry.unwrap().path())
            .collect();
        files.sort();
        files
            .iter()
            .flat_map(|path| std::fs::read(path).unwrap())
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Tail ≡ storage, and the lookup ≡ the read: after every
        /// operation of a random history — batch and single appends,
        /// rolls (tiny segments), truncation, retention, compaction,
        /// with and without a read cache — `Log::read` returns what the
        /// segments' own storage scans return under the same budget
        /// rule, for budgets of 1, a few records and everything, also
        /// from inside compaction gaps; and `record_at` agrees with a
        /// one-record read.
        #[test]
        fn reads_equal_storage_scans_after_every_operation(
            ops in prop::collection::vec((0u8..8, 0u16..400, 0u16..400), 1..60),
            segment_bytes in 96u64..700,
            with_cache in any::<bool>(),
        ) {
            use crate::cache::{ReadCacheConfig, SegmentReadCache};
            let clock = SimClock::new(0);
            let cfg = LogConfig {
                segment_bytes,
                index_interval_bytes: 100,
                retention: RetentionPolicy::Compact { max_age_ms: None, max_bytes: Some(2_000) },
                ..LogConfig::default()
            };
            let mut log = Log::open(cfg, clock.shared()).unwrap();
            if with_cache {
                // Small enough that fills evict one another.
                let cache = SegmentReadCache::new(ReadCacheConfig {
                    capacity_bytes: 3_000,
                    shards: 2,
                    obs: Obs::default(),
                });
                log.attach_read_cache(cache, 9);
            }
            let mut written = 0u32;
            for (op, x, y) in ops {
                match op {
                    0..=2 => {
                        let pairs = (0..x % 6 + 1).map(|i| {
                            written += 1;
                            let key = (y + i) % 5;
                            let value = "v".repeat((x + 7 * i) as usize % 60);
                            (Some(b(&format!("k{key}"))), b(&format!("{written}:{value}")))
                        });
                        log.append_record_batch(RecordBatch::from_pairs(pairs, 0)).unwrap();
                    }
                    3 | 4 => {
                        written += 1;
                        let value = if x % 9 == 0 { Bytes::new() } else { b(&format!("{written}")) };
                        log.append(Some(b(&format!("k{}", y % 5))), value).unwrap();
                    }
                    5 => {
                        let span = log.next_offset() - log.start_offset();
                        log.truncate_to(log.start_offset() + u64::from(x) % (span + 1)).unwrap();
                    }
                    6 => drop(log.enforce_retention().unwrap()),
                    _ => {
                        log.compact().unwrap();
                        // An emptied segment is removed, not kept.
                        prop_assert!(log.sealed_segment_info().iter().all(|&(_, n, _)| n > 0));
                    }
                }
                let stored = stored_records(&log);
                let active = log.active();
                prop_assert_eq!(
                    &log.tail,
                    &active.read_from(active.base_offset(), u64::MAX).unwrap().records
                );
                prop_assert_eq!(&log.tail, &framed_records(&log));
                let (start, end) = (log.start_offset(), log.next_offset());
                let span = end - start;
                for from in [start, end, start + u64::from(x) % (span + 1), start + u64::from(y) % (span + 1)] {
                    for budget in [1, 40 + u64::from(y), u64::MAX] {
                        let read = log.read(from, budget).unwrap().records;
                        prop_assert_eq!(&read, &slice_from(&stored, from, budget));
                    }
                    let looked_up = log.record_at(from).unwrap();
                    let first = log.read(from, 1).unwrap().records.into_iter().next();
                    prop_assert_eq!(looked_up, first.filter(|r| r.offset == from));
                }
                prop_assert!(log.read(end + 1, 1).is_err());
                prop_assert_eq!(log.record_at(end + 1).unwrap(), None);
                if start > 0 {
                    prop_assert!(log.read(start - 1, 1).is_err());
                    prop_assert_eq!(log.record_at(start - 1).unwrap(), None);
                }
            }
        }

        /// Shipped ≡ re-encoded: a follower fed by `append_frames_from`
        /// — through rolls on both sides (tiny segments of different
        /// sizes), truncations of the follower to anywhere (mid-frame
        /// included) and leader retention passing the follower's end —
        /// reads back what the leader reads over the range both hold,
        /// its storage decodes (CRC-checked) to the same records, and
        /// its frame bookkeeping covers its tail. In memory the shipped
        /// records are the leader's allocation, not a copy; on files
        /// the follower's segment bytes are the leader's and survive a
        /// reopen.
        #[test]
        fn shipped_frames_equal_reencoded_ones(
            ops in prop::collection::vec((0u8..8, 0u16..400, 0u16..400), 1..50),
            leader_segment_bytes in 96u64..700,
            follower_segment_bytes in 96u64..700,
            on_files in any::<bool>(),
        ) {
            let clock = SimClock::new(0);
            let dirs = [scratch_dir("ship-leader"), scratch_dir("ship-follower")];
            let config = |segment_bytes, dir: &std::path::PathBuf| LogConfig {
                segment_bytes,
                index_interval_bytes: 100,
                retention: RetentionPolicy::DropByBytes { max_bytes: 900 },
                storage: if on_files { StorageKind::Files(dir.clone()) } else { StorageKind::Memory },
                ..LogConfig::default()
            };
            let follower_config = config(follower_segment_bytes, &dirs[1]);
            let mut leader = Log::open(config(leader_segment_bytes, &dirs[0]), clock.shared()).unwrap();
            let mut follower = Log::open(follower_config.clone(), clock.shared()).unwrap();
            let mut written = 0u32;
            // The last op of every history is a ship, so it ends with
            // the follower caught up.
            for (op, x, y) in ops.into_iter().chain([(7, 0, 0)]) {
                match op {
                    0..=2 => {
                        let pairs = (0..x % 6 + 1).map(|i| {
                            written += 1;
                            let key = (i % 2 == 0).then(|| b(&format!("k{}", (y + i) % 5)));
                            (key, b(&format!("{written}:{}", "v".repeat((x + 7 * i) as usize % 60))))
                        });
                        leader.append_record_batch(RecordBatch::from_pairs(pairs, 0)).unwrap();
                    }
                    3 => {
                        written += 1;
                        leader.append(None, b(&format!("{written}"))).unwrap();
                    }
                    4 => {
                        let span = follower.next_offset() - follower.start_offset();
                        follower.truncate_to(follower.start_offset() + u64::from(x) % (span + 1)).unwrap();
                    }
                    5 => drop(leader.enforce_retention().unwrap()),
                    _ => {
                        let from = follower.next_offset().max(leader.start_offset());
                        let expected: Vec<Record> = leader.read(leader.start_offset(), u64::MAX)
                            .unwrap().records.into_iter().filter(|r| r.offset >= from).collect();
                        let (records, payload, frames) = follower.append_frames_from(&leader).unwrap();
                        prop_assert_eq!(records, expected.len() as u64);
                        prop_assert_eq!(payload, expected.iter().map(|r| r.value.len() as u64).sum::<u64>());
                        prop_assert_eq!(frames == 0, expected.is_empty());
                        prop_assert_eq!(follower.next_offset(), leader.next_offset());
                        // One roll check per transfer: it all landed in
                        // the active segment, as the leader's memory.
                        let shipped = follower.tail.get(follower.tail.len() - expected.len()..).unwrap();
                        prop_assert_eq!(shipped, &expected[..]);
                        if !on_files {
                            for (ours, theirs) in shipped.iter().zip(&expected) {
                                prop_assert_eq!(ours.value.as_slice().as_ptr(), theirs.value.as_slice().as_ptr());
                            }
                        }
                        prop_assert_eq!(follower.append_frames_from(&leader).unwrap(), (0, 0, 0));
                    }
                }
                let held = follower.read(follower.start_offset(), u64::MAX).unwrap().records;
                prop_assert_eq!(&held, &stored_records(&follower));
                prop_assert_eq!(&follower.tail, &framed_records(&follower));
                let common: Vec<&Record> = held.iter().filter(|r| r.offset >= leader.start_offset()).collect();
                let theirs = leader.read(leader.start_offset(), u64::MAX).unwrap().records;
                let theirs: Vec<&Record> = theirs.iter().filter(|r| r.offset < follower.next_offset()).collect();
                prop_assert_eq!(common, theirs);
            }
            if on_files {
                let shipped_range = stored_bytes(&dirs[0]);
                prop_assert!(stored_bytes(&dirs[1]).ends_with(&shipped_range));
                drop(follower);
                let reopened = Log::open(follower_config, clock.shared()).unwrap();
                let held = reopened.read(reopened.start_offset(), u64::MAX).unwrap().records;
                let common: Vec<Record> = held.into_iter().filter(|r| r.offset >= leader.start_offset()).collect();
                prop_assert_eq!(common, leader.read(leader.start_offset(), u64::MAX).unwrap().records);
                for dir in &dirs {
                    std::fs::remove_dir_all(dir).ok();
                }
            }
        }

        /// A batch is its frame: sealing a run of batches — built by
        /// `BatchBuilder` or by `from_records`, broker-stamped or
        /// keeping each record's own timestamp, keyless records, empty
        /// keys, tombstones, batches of one, runs that cross rolls —
        /// stores exactly the bytes `Record::encode` gives each record
        /// at the offset and timestamp the log assigned, and those equal
        /// the field-by-field reference layout with the bytewise CRC, so
        /// a seal that took the CRC before writing the offset or the
        /// stamp fails here. Storage decodes (CRC-checked) to the same
        /// records, and on files a reopen recovers every one of them.
        #[test]
        fn sealed_batches_store_exactly_what_encode_gives(
            batches in prop::collection::vec(
                (
                    prop::collection::vec((0u8..4, prop::collection::vec(any::<u8>(), 0..40)), 1..10),
                    any::<bool>(),
                    (any::<bool>(), 0u64..1_000),
                ),
                1..12,
            ),
            segment_bytes in 64u64..600,
            on_files in any::<bool>(),
        ) {
            let dir = scratch_dir("sealed");
            let config = LogConfig {
                segment_bytes,
                index_interval_bytes: 100,
                storage: if on_files { StorageKind::Files(dir.clone()) } else { StorageKind::Memory },
                ..LogConfig::default()
            };
            let clock = SimClock::new(0);
            let mut log = Log::open(config.clone(), clock.shared()).unwrap();
            let (mut expected, mut reference, mut encoded) = (Vec::new(), Vec::new(), Vec::new());
            for (records, built, (stamped, ts)) in batches {
                let stamp = stamped.then_some(ts);
                let records: Vec<Record> = records
                    .into_iter()
                    .enumerate()
                    .map(|(i, (key, value)): (usize, (u8, Vec<u8>))| {
                        // Keyless, an empty key, or one of two keys.
                        let key = (key > 0).then(|| b(&"k".repeat(usize::from(key - 1))));
                        Record::new(key, Bytes::from(value), 10 + i as u64)
                    })
                    .collect();
                let batch = if built {
                    let mut builder = BatchBuilder::default();
                    for r in &records {
                        builder.push(r.key.as_deref(), &r.value, r.timestamp);
                    }
                    builder.build()
                } else {
                    RecordBatch::from_records(&records)
                };
                let batch = match stamp {
                    Some(ts) => batch.stamped(ts),
                    None => batch,
                };
                let (base, count, _) = log.append_record_batch(batch).unwrap();
                prop_assert_eq!(count, records.len() as u64);
                for (i, mut r) in records.into_iter().enumerate() {
                    r.offset = base + i as u64;
                    r.timestamp = stamp.unwrap_or(r.timestamp);
                    r.encode(&mut encoded);
                    reference.extend(crate::record::tests::reference_encoding(
                        r.offset,
                        r.timestamp,
                        r.key.as_deref(),
                        &r.value,
                    ));
                    expected.push(r);
                }
            }
            let medium: Vec<u8> = log.segments().values().flat_map(|s| s.stored()).collect();
            prop_assert_eq!(&medium, &reference);
            prop_assert_eq!(&medium, &encoded);
            prop_assert_eq!(&stored_records(&log), &expected);
            prop_assert_eq!(&log.read(0, u64::MAX).unwrap().records, &expected);
            if on_files {
                prop_assert_eq!(&stored_bytes(&dir), &medium);
                drop(log);
                let reopened = Log::open(config, clock.shared()).unwrap();
                prop_assert_eq!(reopened.read(0, u64::MAX).unwrap().records, expected);
                std::fs::remove_dir_all(&dir).ok();
            }
        }
    }
}
