//! The mutable in-memory layer of the LSM tree.
//!
//! All writes land here first (after the WAL). A `None` value is a
//! tombstone shadowing any older value for the key in deeper levels.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::ops::Bound;

use bytes::Bytes;

/// Sorted in-memory write buffer.
#[derive(Debug, Default, Clone)]
pub struct Memtable {
    entries: BTreeMap<Bytes, Option<Bytes>>,
    approx_bytes: usize,
}

impl Memtable {
    /// New, empty memtable.
    pub fn new() -> Self {
        Memtable::default()
    }

    /// Inserts or overwrites a key.
    pub fn put(&mut self, key: Bytes, value: Bytes) {
        self.apply(key, Some(value));
    }

    /// Writes a tombstone for `key`.
    pub fn delete(&mut self, key: Bytes) {
        self.apply(key, None);
    }

    fn apply(&mut self, key: Bytes, value: Option<Bytes>) {
        self.approx_bytes += value_len(&value);
        match self.entries.entry(key) {
            Entry::Occupied(mut slot) => self.approx_bytes -= value_len(&slot.insert(value)),
            Entry::Vacant(slot) => {
                self.approx_bytes += slot.key().len() + 32;
                slot.insert(value);
            }
        }
    }

    /// One descent to the entry under `key` (a tombstone is one): the
    /// stored key, the value, and the means to replace it in place.
    pub fn slot_mut(&mut self, key: &[u8]) -> Option<Slot<'_>> {
        let at = (Bound::Included(key), Bound::Included(key));
        let (key, value) = self.entries.range_mut::<[u8], _>(at).next()?;
        Some(Slot {
            key,
            value,
            approx_bytes: &mut self.approx_bytes,
        })
    }

    /// Looks up a key. `None` = not present here; `Some(None)` =
    /// tombstoned here; `Some(Some(v))` = live value.
    pub fn get(&self, key: &[u8]) -> Option<Option<Bytes>> {
        self.entries.get(key).cloned()
    }

    /// Number of entries (including tombstones).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the memtable holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Approximate memory footprint of what the table holds now: an
    /// overwrite replaces the bytes it shadows rather than adding to them.
    pub fn approx_bytes(&self) -> usize {
        self.approx_bytes
    }

    /// Iterates entries within `[start, end)` in key order (tombstones
    /// included).
    pub fn range<'a>(
        &'a self,
        start: Bound<&'a [u8]>,
        end: Bound<&'a [u8]>,
    ) -> impl Iterator<Item = (&'a Bytes, &'a Option<Bytes>)> + 'a {
        self.entries.range::<[u8], _>((start, end))
    }

    /// Consumes the memtable into its sorted entries.
    pub fn into_entries(self) -> Vec<(Bytes, Option<Bytes>)> {
        self.entries.into_iter().collect()
    }

    /// Iterates all entries in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&Bytes, &Option<Bytes>)> {
        self.entries.iter()
    }
}

fn value_len(value: &Option<Bytes>) -> usize {
    value.as_ref().map_or(0, Bytes::len)
}

/// One entry of a [`Memtable`], borrowed for an in-place update.
pub struct Slot<'a> {
    /// The key as the table stores it.
    pub key: &'a Bytes,
    value: &'a mut Option<Bytes>,
    approx_bytes: &'a mut usize,
}

impl Slot<'_> {
    /// The live value; `None` = tombstoned here.
    pub fn value(&self) -> Option<&Bytes> {
        self.value.as_ref()
    }

    /// Replaces the value, keeping the table's size honest.
    pub fn set(self, value: Bytes) {
        *self.approx_bytes += value.len();
        *self.approx_bytes -= value_len(self.value);
        *self.value = Some(value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(s: &str) -> Bytes {
        Bytes::from(s.to_string())
    }

    #[test]
    fn put_get() {
        let mut m = Memtable::new();
        m.put(b("a"), b("1"));
        assert_eq!(m.get(b"a"), Some(Some(b("1"))));
        assert_eq!(m.get(b"b"), None);
    }

    #[test]
    fn overwrite_keeps_latest() {
        let mut m = Memtable::new();
        m.put(b("a"), b("1"));
        m.put(b("a"), b("2"));
        assert_eq!(m.get(b"a"), Some(Some(b("2"))));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn delete_leaves_tombstone() {
        let mut m = Memtable::new();
        m.put(b("a"), b("1"));
        m.delete(b("a"));
        assert_eq!(m.get(b"a"), Some(None));
        assert_eq!(m.len(), 1, "tombstone still occupies an entry");
    }

    #[test]
    fn delete_of_absent_key_records_tombstone() {
        let mut m = Memtable::new();
        m.delete(b("ghost"));
        assert_eq!(m.get(b"ghost"), Some(None));
    }

    #[test]
    fn range_is_sorted_and_bounded() {
        let mut m = Memtable::new();
        for k in ["d", "a", "c", "b", "e"] {
            m.put(b(k), b(k));
        }
        let keys: Vec<_> = m
            .range(
                Bound::Included(b"b".as_ref()),
                Bound::Excluded(b"e".as_ref()),
            )
            .map(|(k, _)| k.clone())
            .collect();
        assert_eq!(keys, vec![b("b"), b("c"), b("d")]);
    }

    #[test]
    fn size_grows_with_writes() {
        let mut m = Memtable::new();
        let before = m.approx_bytes();
        m.put(b("key"), b("value"));
        assert!(m.approx_bytes() > before);
    }

    #[test]
    fn size_counts_what_the_table_holds() {
        let mut m = Memtable::new();
        m.put(b("key"), b("value"));
        let one = m.approx_bytes();
        m.put(b("key"), b("other"));
        assert_eq!(m.approx_bytes(), one, "same-size overwrite adds nothing");
        m.put(b("key"), b("longer-value"));
        assert_eq!(m.approx_bytes(), one + 7);
        m.delete(b("key"));
        assert_eq!(m.approx_bytes(), one - 5, "a tombstone keeps the key");
        let slot = m.slot_mut(b"key").unwrap();
        assert_eq!(slot.value(), None);
        slot.set(b("value"));
        assert_eq!(m.approx_bytes(), one);
        assert_eq!(m.get(b"key"), Some(Some(b("value"))));
        assert!(m.slot_mut(b"ke").is_none() && m.slot_mut(b"key2").is_none());
    }

    #[test]
    fn into_entries_sorted() {
        let mut m = Memtable::new();
        m.put(b("z"), b("1"));
        m.put(b("a"), b("2"));
        m.delete(b("m"));
        let e = m.into_entries();
        assert_eq!(e.len(), 3);
        assert!(e.windows(2).all(|w| w[0].0 < w[1].0));
    }
}
