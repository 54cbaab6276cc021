//! What a read hands out: views of the runs that hold the records.
//!
//! The hot head of a log is a short list of runs whose records never
//! change (DESIGN.md §16). A read of the head takes each run it covers
//! as one [`Arc`] clone and a range — no record is copied, and every
//! reader of the same range sees the same `Record` structs. A sealed read (a
//! read-cache hit or a storage scan) builds its records for itself and
//! hands them over as one owned part. Either way the view walks parts,
//! not records: dispatch is per part, and the per-record loop is a
//! plain slice iterator.

use std::fmt;
use std::iter::{Flatten, FusedIterator};
use std::ops::Range;
use std::slice;
use std::sync::Arc;

use crate::record::Record;

/// A read's records in offset order, as a short list of parts: a range
/// of a run the log's hot head shares with every other reader, or
/// records the read decoded or sliced for itself. Parts are never
/// empty. Cloning a view clones its parts, not their records' buffers.
#[derive(Clone, Default)]
pub struct Records {
    parts: Vec<Part>,
    len: usize,
}

#[derive(Clone)]
pub(crate) enum Part {
    /// Records this read decoded or sliced for itself.
    Owned(Vec<Record>),
    /// `range` of an append's run, shared with the log that holds it.
    Shared(Arc<Vec<Record>>, Range<usize>),
}

impl Part {
    fn as_slice(&self) -> &[Record] {
        match self {
            Part::Owned(records) => records,
            Part::Shared(run, range) => run.get(range.clone()).unwrap_or_default(),
        }
    }

    /// Keeps the first `n` records.
    fn truncate(&mut self, n: usize) {
        match self {
            Part::Owned(records) => records.truncate(n),
            Part::Shared(_, range) => range.end = range.end.min(range.start.saturating_add(n)),
        }
    }
}

impl<'a> IntoIterator for &'a Part {
    type Item = &'a Record;
    type IntoIter = slice::Iter<'a, Record>;

    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

impl Records {
    /// Number of records in the view.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the view holds no records.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The first record, if any.
    pub fn first(&self) -> Option<&Record> {
        self.parts.first().and_then(|part| part.as_slice().first())
    }

    /// The last record, if any.
    pub fn last(&self) -> Option<&Record> {
        self.parts.last().and_then(|part| part.as_slice().last())
    }

    /// The records, in offset order.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            inner: self.parts.iter().flatten(),
            remaining: self.len,
        }
    }

    /// Drops every record at or past `offset`: a fetch cut at the high
    /// watermark. Whole parts come off the back; the part the cut falls
    /// in only narrows.
    pub fn keep_below(&mut self, offset: u64) {
        while let Some(part) = self.parts.last_mut() {
            let records = part.as_slice();
            let keep = records.partition_point(|r| r.offset < offset);
            self.len = self.len.saturating_sub(records.len().saturating_sub(keep));
            if keep > 0 {
                part.truncate(keep);
                return;
            }
            self.parts.pop();
        }
    }

    /// The records as an owned `Vec`: a view of one owned part gives
    /// it up as it is, any other view clones its records.
    pub fn into_vec(mut self) -> Vec<Record> {
        match self.parts.pop() {
            Some(Part::Owned(records)) if self.parts.is_empty() => records,
            last => {
                self.parts.extend(last);
                self.iter().cloned().collect()
            }
        }
    }

    /// Adds `run[range]` — records a log shares — after the view's
    /// records. An empty range adds nothing.
    pub(crate) fn push_shared(&mut self, run: &Arc<Vec<Record>>, range: Range<usize>) {
        if !range.is_empty() {
            self.len = self.len.saturating_add(range.len());
            self.parts.push(Part::Shared(Arc::clone(run), range));
        }
    }

    /// Moves `other`'s parts after the view's records.
    pub(crate) fn append(&mut self, mut other: Records) {
        if self.parts.is_empty() {
            *self = other;
        } else {
            self.len = self.len.saturating_add(other.len);
            self.parts.append(&mut other.parts);
        }
    }

    /// The parts, in offset order (tests look at what they share).
    #[cfg(test)]
    pub(crate) fn parts(&self) -> &[Part] {
        &self.parts
    }
}

impl From<Vec<Record>> for Records {
    /// A view of records the caller owns: one part, no copy.
    fn from(records: Vec<Record>) -> Self {
        if records.is_empty() {
            return Records::default();
        }
        Records {
            len: records.len(),
            parts: vec![Part::Owned(records)],
        }
    }
}

impl PartialEq for Records {
    /// Two views are equal when they hold equal records in the same
    /// order, however their parts are cut.
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().eq(other.iter())
    }
}

impl Eq for Records {}

impl fmt::Debug for Records {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<'a> IntoIterator for &'a Records {
    type Item = &'a Record;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

/// Iterator over a [`Records`] view, in offset order.
#[derive(Clone)]
pub struct Iter<'a> {
    inner: Flatten<slice::Iter<'a, Part>>,
    remaining: usize,
}

impl<'a> Iterator for Iter<'a> {
    type Item = &'a Record;

    fn next(&mut self) -> Option<&'a Record> {
        let record = self.inner.next()?;
        self.remaining = self.remaining.saturating_sub(1);
        Some(record)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl DoubleEndedIterator for Iter<'_> {
    fn next_back(&mut self) -> Option<Self::Item> {
        let record = self.inner.next_back()?;
        self.remaining = self.remaining.saturating_sub(1);
        Some(record)
    }
}

impl ExactSizeIterator for Iter<'_> {}

impl FusedIterator for Iter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    fn rec(offset: u64) -> Record {
        Record {
            offset,
            timestamp: offset,
            key: None,
            value: Bytes::from(format!("v{offset}")),
        }
    }

    /// Offsets 0..3 owned, then 3..5 and 5..9 shared out of runs that
    /// hold more on either side.
    fn three_parts() -> (Records, Arc<Vec<Record>>) {
        let mut view = Records::from((0..3).map(rec).collect::<Vec<_>>());
        let run = Arc::new((2..10).map(rec).collect::<Vec<_>>());
        let mut shared = Records::default();
        shared.push_shared(&run, 1..3);
        shared.push_shared(&run, 3..3);
        view.append(shared);
        let mut more = Records::default();
        more.push_shared(&run, 3..7);
        view.append(more);
        (view, run)
    }

    fn offsets(view: &Records) -> Vec<u64> {
        view.iter().map(|r| r.offset).collect()
    }

    #[test]
    fn parts_read_as_one_sequence() {
        let (view, run) = three_parts();
        assert_eq!(view.len(), 9);
        assert_eq!(offsets(&view), (0..9).collect::<Vec<_>>());
        assert_eq!(view.iter().len(), 9);
        assert_eq!(view.iter().rev().map(|r| r.offset).next(), Some(8));
        assert_eq!(
            (view.first().unwrap().offset, view.last().unwrap().offset),
            (0, 8)
        );
        assert_eq!(view.parts().len(), 3, "the empty range added no part");
        // The shared records are the run's own structs.
        assert!(std::ptr::eq(view.iter().nth(3).unwrap(), &run[1]));
        assert_eq!(Arc::strong_count(&run), 3);
        assert_eq!(view, Records::from((0..9).map(rec).collect::<Vec<_>>()));
        assert!(Records::default().is_empty());
        assert_eq!(Records::default().first(), None);
        assert_eq!(Records::from(Vec::new()), Records::default());
    }

    #[test]
    fn keep_below_cuts_inside_a_part_or_drops_whole_ones() {
        for (cut, kept) in [(100, 9), (9, 9), (7, 7), (5, 5), (4, 4), (1, 1), (0, 0)] {
            let (mut view, _) = three_parts();
            view.keep_below(cut);
            assert_eq!(view.len(), kept, "cut at {cut}");
            assert_eq!(offsets(&view), (0..kept as u64).collect::<Vec<_>>());
        }
        let (mut view, run) = three_parts();
        view.keep_below(5);
        assert_eq!(
            Arc::strong_count(&run),
            2,
            "the dropped part let go of its run"
        );
    }

    #[test]
    fn into_vec_moves_one_owned_part_and_clones_the_rest() {
        let owned: Vec<Record> = (0..4).map(rec).collect();
        let buffer = owned.as_ptr();
        let moved = Records::from(owned).into_vec();
        assert_eq!(moved.as_ptr(), buffer);
        let (view, _) = three_parts();
        assert_eq!(view.into_vec(), (0..9).map(rec).collect::<Vec<_>>());
    }
}
