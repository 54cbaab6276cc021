//! Pluggable segment storage.
//!
//! Two backends implement [`SegmentStorage`]:
//!
//! * [`MemStorage`] — the appended frames themselves, kept as frozen
//!   `Bytes`; fast and deterministic, used by most tests and by
//!   experiments where the page-cache *model* supplies the I/O costs
//!   (charging real disk I/O would double-count).
//! * [`FileStorage`] — a real file using positional reads; used by the
//!   durability examples and recovery tests.
//!
//! The unit of a write is a **frame**: the encoding of one batch of
//! whole records, frozen into one `Bytes` by the leader's append.
//! `MemStorage` keeps that `Bytes`, so the bytes a reader is handed,
//! the active segment's in-memory tail, a read-cache entry and every
//! replica the frame was shipped to are all slices of the one buffer
//! that append made.

use std::fs::{File, OpenOptions};
use std::io::{self, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use bytes::Bytes;

/// Byte-level storage for one segment: append-at-end plus positional
/// reads.
pub trait SegmentStorage: Send + Sync {
    /// Appends one frame, returning the byte position it was written
    /// at. One call is one write to the medium, however many records
    /// the frame holds.
    fn append(&mut self, frame: Bytes) -> io::Result<u64>;
    /// Reads up to `max_len` bytes starting at `pos`, like `pread`:
    /// the result is empty only at (or past) the end of storage, and
    /// is shorter than `min(max_len, len() - pos)` only where the
    /// backend saves a copy by stopping early — `MemStorage` stops at
    /// the end of the frame holding `pos` and hands out a slice of it.
    /// Bytes appended together always come back together (given a
    /// large enough `max_len`), so a reader that moves by whole
    /// records never sees one cut in two by a frame boundary. Returns
    /// `Bytes` so decode can hand out zero-copy record slices of what
    /// was read.
    fn read_at(&self, pos: u64, max_len: usize) -> io::Result<Bytes>;
    /// Current size in bytes.
    fn len(&self) -> u64;
    /// Whether the storage is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Flushes buffered data to the backing medium.
    fn flush(&mut self) -> io::Result<()>;
    /// Truncates storage to `len` bytes (used when a replica discards a
    /// divergent suffix).
    fn truncate(&mut self, len: u64) -> io::Result<()>;
}

/// Which backend a log should create segments with.
#[derive(Debug, Clone)]
pub enum StorageKind {
    /// In-memory segments.
    Memory,
    /// File-backed segments under this directory, one file per segment
    /// named `<base_offset>.seg`.
    Files(PathBuf),
    /// In-memory segments that count what is created and read.
    #[cfg(test)]
    Counting(counting::Reads),
}

impl StorageKind {
    /// Creates storage for a segment with the given base offset.
    pub fn create(&self, base_offset: u64) -> io::Result<Box<dyn SegmentStorage>> {
        match self {
            StorageKind::Memory => Ok(Box::new(MemStorage::new())),
            #[cfg(test)]
            StorageKind::Counting(reads) => Ok(Box::new(counting::Counting::created(reads))),
            StorageKind::Files(dir) => {
                std::fs::create_dir_all(dir)?;
                let path = dir.join(format!("{base_offset:020}.seg"));
                Ok(Box::new(FileStorage::create(&path)?))
            }
        }
    }

    /// Removes the backing medium of a deleted segment, if any.
    pub fn destroy(&self, base_offset: u64) -> io::Result<()> {
        if let StorageKind::Files(dir) = self {
            let path = dir.join(format!("{base_offset:020}.seg"));
            if path.exists() {
                std::fs::remove_file(path)?;
            }
        }
        Ok(())
    }

    /// Lists base offsets of segments already on the medium (for log
    /// recovery after restart). Memory storage has none.
    pub fn existing_segments(&self) -> io::Result<Vec<u64>> {
        match self {
            StorageKind::Memory => Ok(Vec::new()),
            #[cfg(test)]
            StorageKind::Counting(_) => Ok(Vec::new()),
            StorageKind::Files(dir) => {
                if !dir.exists() {
                    return Ok(Vec::new());
                }
                let mut bases = Vec::new();
                for entry in std::fs::read_dir(dir)? {
                    let entry = entry?;
                    let name = entry.file_name();
                    let name = name.to_string_lossy();
                    if let Some(stem) = name.strip_suffix(".seg") {
                        if let Ok(base) = stem.parse::<u64>() {
                            bases.push(base);
                        }
                    }
                }
                bases.sort_unstable();
                Ok(bases)
            }
        }
    }

    /// Opens existing storage for a segment (recovery path).
    pub fn open(&self, base_offset: u64) -> io::Result<Box<dyn SegmentStorage>> {
        match self {
            StorageKind::Memory => Ok(Box::new(MemStorage::new())),
            #[cfg(test)]
            StorageKind::Counting(_) => self.create(base_offset),
            StorageKind::Files(dir) => {
                let path = dir.join(format!("{base_offset:020}.seg"));
                Ok(Box::new(FileStorage::open(&path)?))
            }
        }
    }
}

/// In-memory segment storage: the appended frames, each a frozen
/// `Bytes`, with their start positions. A read is a slice of the frame
/// holding its position — this backend never copies.
#[derive(Debug, Default)]
pub struct MemStorage {
    /// `(start position, frame)` in position order; contiguous, no
    /// empty frames.
    frames: Vec<(u64, Bytes)>,
    len: u64,
}

impl MemStorage {
    /// New, empty storage.
    pub fn new() -> Self {
        MemStorage::default()
    }

    /// The frame holding byte `pos`, if `pos` is inside the storage.
    fn frame_at(&self, pos: u64) -> Option<&(u64, Bytes)> {
        if pos >= self.len {
            return None;
        }
        let after = self.frames.partition_point(|&(start, _)| start <= pos);
        self.frames.get(after.checked_sub(1)?)
    }
}

impl SegmentStorage for MemStorage {
    fn append(&mut self, frame: Bytes) -> io::Result<u64> {
        let pos = self.len;
        if !frame.is_empty() {
            self.len = self.len.saturating_add(frame.len() as u64);
            self.frames.push((pos, frame));
        }
        Ok(pos)
    }

    fn read_at(&self, pos: u64, max_len: usize) -> io::Result<Bytes> {
        let Some((start, frame)) = self.frame_at(pos) else {
            return Ok(Bytes::new());
        };
        let lo = pos.saturating_sub(*start) as usize;
        let hi = lo.saturating_add(max_len).min(frame.len());
        Ok(frame.slice(lo..hi))
    }

    fn len(&self) -> u64 {
        self.len
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }

    fn truncate(&mut self, len: u64) -> io::Result<()> {
        if len >= self.len {
            return Ok(());
        }
        while let Some((start, frame)) = self.frames.pop() {
            if start < len {
                let keep = len.saturating_sub(start) as usize;
                self.frames.push((start, frame.slice(..keep)));
                break;
            }
        }
        self.len = len;
        Ok(())
    }
}

/// File-backed segment storage using positional reads.
#[derive(Debug)]
pub struct FileStorage {
    file: File,
    len: u64,
}

impl FileStorage {
    /// Creates (truncating) a segment file.
    pub fn create(path: &Path) -> io::Result<Self> {
        let file = OpenOptions::new()
            .create(true)
            .write(true)
            .read(true)
            .truncate(true)
            .open(path)?;
        Ok(FileStorage { file, len: 0 })
    }

    /// Opens an existing segment file for read/append.
    pub fn open(path: &Path) -> io::Result<Self> {
        let file = OpenOptions::new().read(true).write(true).open(path)?;
        let len = file.metadata()?.len();
        Ok(FileStorage { file, len })
    }
}

impl SegmentStorage for FileStorage {
    fn append(&mut self, frame: Bytes) -> io::Result<u64> {
        // One positioned write per frame, however many records it
        // holds. Seeking first (rather than trusting the cursor) makes
        // a write that failed half-way harmless: the next append starts
        // at `len` again and overwrites what it left.
        let pos = self.len;
        self.file.seek(SeekFrom::Start(pos))?;
        self.file.write_all(&frame)?;
        self.len = self.len.saturating_add(frame.len() as u64);
        Ok(pos)
    }

    fn read_at(&self, pos: u64, max_len: usize) -> io::Result<Bytes> {
        let remaining = usize::try_from(self.len.saturating_sub(pos)).unwrap_or(usize::MAX);
        let len = max_len.min(remaining);
        // One read into a scratch buffer, then the one copy `Bytes`
        // needs to own it (the vendored `Bytes::from(Vec<u8>)` copies
        // into its `Arc<[u8]>`); every record decoded from the result
        // is a slice of it.
        #[cfg(unix)]
        {
            use std::os::unix::fs::FileExt;
            let mut buf = vec![0u8; len];
            self.file.read_exact_at(&mut buf, pos)?;
            Ok(Bytes::from(buf))
        }
        #[cfg(not(unix))]
        {
            use std::io::Read;
            let mut file = self.file.try_clone()?;
            file.seek(SeekFrom::Start(pos))?;
            let mut buf = vec![0u8; len];
            file.read_exact(&mut buf)?;
            Ok(Bytes::from(buf))
        }
    }

    fn len(&self) -> u64 {
        self.len
    }

    fn flush(&mut self) -> io::Result<()> {
        self.file.flush()
    }

    fn truncate(&mut self, len: u64) -> io::Result<()> {
        self.file.set_len(len)?;
        self.len = len;
        Ok(())
    }
}

/// Test storage that counts what is created and read, shared by the
/// segment and compaction tests.
#[cfg(test)]
pub(crate) mod counting {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    /// Counters of every [`Counting`] storage made from one handle.
    #[derive(Debug, Clone, Default)]
    pub struct Reads {
        created: Arc<AtomicU64>,
        calls: Arc<AtomicU64>,
        bytes: Arc<AtomicU64>,
    }

    impl Reads {
        /// `(read calls, bytes read)` since the last call; resets both.
        pub fn take(&self) -> (u64, u64) {
            (
                self.calls.swap(0, Ordering::Relaxed),
                self.bytes.swap(0, Ordering::Relaxed),
            )
        }

        /// Storages created through [`StorageKind::Counting`] since the
        /// last call; resets the count.
        pub fn take_created(&self) -> u64 {
            self.created.swap(0, Ordering::Relaxed)
        }
    }

    /// A [`MemStorage`] that reports its reads.
    pub struct Counting {
        inner: MemStorage,
        reads: Reads,
    }

    impl Counting {
        pub fn new(reads: Reads) -> Self {
            Counting {
                inner: MemStorage::new(),
                reads,
            }
        }

        pub(super) fn created(reads: &Reads) -> Self {
            reads.created.fetch_add(1, Ordering::Relaxed);
            Counting::new(reads.clone())
        }
    }

    impl SegmentStorage for Counting {
        fn append(&mut self, frame: Bytes) -> io::Result<u64> {
            self.inner.append(frame)
        }
        fn read_at(&self, pos: u64, max_len: usize) -> io::Result<Bytes> {
            let read = self.inner.read_at(pos, max_len)?;
            self.reads.calls.fetch_add(1, Ordering::Relaxed);
            self.reads
                .bytes
                .fetch_add(read.len() as u64, Ordering::Relaxed);
            Ok(read)
        }
        fn len(&self) -> u64 {
            self.inner.len()
        }
        fn flush(&mut self) -> io::Result<()> {
            self.inner.flush()
        }
        fn truncate(&mut self, len: u64) -> io::Result<()> {
            self.inner.truncate(len)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise(mut s: Box<dyn SegmentStorage>) {
        assert!(s.is_empty());
        let p0 = s.append(Bytes::from_static(b"hello")).unwrap();
        let p1 = s.append(Bytes::from_static(b" world")).unwrap();
        assert_eq!(p0, 0);
        assert_eq!(p1, 5);
        assert_eq!(s.len(), 11);
        assert_eq!(s.read_at(0, 5).unwrap(), b"hello");
        assert_eq!(s.read_at(6, 5).unwrap(), b"world");
        assert_eq!(s.read_at(8, 10).unwrap(), b"rld", "clipped at the end");
        assert!(s.read_at(11, 4).unwrap().is_empty());
        // A read is never empty before the end, never longer than
        // asked, and reads walked in order give back the bytes.
        let mut walked = Vec::new();
        while (walked.len() as u64) < s.len() {
            let chunk = s.read_at(walked.len() as u64, 4).unwrap();
            assert!(!chunk.is_empty() && chunk.len() <= 4);
            walked.extend_from_slice(&chunk);
        }
        assert_eq!(walked, b"hello world");
        // What was appended together comes back together.
        assert_eq!(s.read_at(5, 64).unwrap(), b" world");
        s.truncate(5).unwrap();
        assert_eq!(s.len(), 5);
        assert_eq!(s.read_at(0, 5).unwrap(), b"hello");
        let p2 = s.append(Bytes::from_static(b"!")).unwrap();
        assert_eq!(p2, 5);
        s.flush().unwrap();
    }

    #[test]
    fn mem_storage_contract() {
        exercise(Box::new(MemStorage::new()));
    }

    #[test]
    fn mem_storage_reads_inside_a_frame_share_its_buffer() {
        let mut s = MemStorage::new();
        s.append(Bytes::from_static(b"first-frame")).unwrap();
        let frame = Bytes::from_static(b"second-frame");
        let base = frame.as_slice().as_ptr() as usize;
        s.append(frame).unwrap();
        let inside = s.read_at(11 + 7, 5).unwrap();
        assert_eq!(inside, b"frame");
        assert_eq!(inside.as_slice().as_ptr() as usize, base + 7, "a slice");
        // A read stops at the end of its frame instead of copying.
        assert_eq!(s.read_at(6, 64).unwrap(), b"frame");
        // Truncating inside a frame keeps its head, still shared.
        s.truncate(11 + 6).unwrap();
        assert_eq!(s.len(), 17);
        let head = s.read_at(11, 6).unwrap();
        assert_eq!(head, b"second");
        assert_eq!(head.as_slice().as_ptr() as usize, base);
        assert_eq!(s.read_at(11, 7).unwrap(), b"second");
    }

    #[test]
    fn file_storage_contract() {
        let dir = std::env::temp_dir().join(format!("liquid-log-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("seg-contract.seg");
        exercise(Box::new(FileStorage::create(&path).unwrap()));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn file_storage_persists_across_reopen() {
        let dir = std::env::temp_dir().join(format!("liquid-log-test2-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("persist.seg");
        {
            let mut s = FileStorage::create(&path).unwrap();
            s.append(Bytes::from_static(b"durable")).unwrap();
            s.flush().unwrap();
        }
        let s = FileStorage::open(&path).unwrap();
        assert_eq!(s.len(), 7);
        assert_eq!(s.read_at(0, 7).unwrap(), b"durable");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn storage_kind_memory_roundtrip() {
        let kind = StorageKind::Memory;
        let mut s = kind.create(0).unwrap();
        s.append(Bytes::from_static(b"x")).unwrap();
        assert_eq!(s.len(), 1);
        assert!(kind.existing_segments().unwrap().is_empty());
        kind.destroy(0).unwrap();
    }

    #[test]
    fn storage_kind_files_lists_and_destroys() {
        let dir = std::env::temp_dir().join(format!("liquid-log-kind-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let kind = StorageKind::Files(dir.clone());
        let mut a = kind.create(0).unwrap();
        a.append(Bytes::from_static(b"a")).unwrap();
        let mut b = kind.create(1024).unwrap();
        b.append(Bytes::from_static(b"b")).unwrap();
        assert_eq!(kind.existing_segments().unwrap(), vec![0, 1024]);
        kind.destroy(0).unwrap();
        assert_eq!(kind.existing_segments().unwrap(), vec![1024]);
        std::fs::remove_dir_all(&dir).ok();
    }
}
