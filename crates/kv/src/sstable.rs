//! Immutable sorted string tables.
//!
//! A flushed memtable becomes an SSTable: a sorted, de-duplicated run of
//! `(key, value-or-tombstone)` entries plus a bloom filter. Tables are
//! immutable; compaction merges several into one and discards the
//! originals.

use std::path::Path;
use std::sync::Arc;

use bytes::Bytes;

use crate::bloom::{hash_key, Bloom, KeyHash};
use crate::error::KvError;

const MAGIC: u32 = 0x4C51_5354; // "LQST"

/// An immutable sorted table.
#[derive(Debug)]
pub struct SsTable {
    id: u64,
    /// Sorted by key, unique keys. `None` = tombstone.
    entries: Vec<(Bytes, Option<Bytes>)>,
    bloom: Bloom,
    data_bytes: usize,
}

impl SsTable {
    /// Builds a table from sorted, de-duplicated entries.
    ///
    /// # Panics
    /// Panics (debug) if entries are not strictly sorted by key.
    pub fn build(id: u64, entries: Vec<(Bytes, Option<Bytes>)>, bits_per_key: usize) -> Self {
        debug_assert!(
            entries
                .iter()
                .zip(entries.iter().skip(1))
                .all(|(a, b)| a.0 < b.0),
            "SSTable entries must be strictly sorted"
        );
        let mut bloom = Bloom::new(entries.len(), bits_per_key);
        let mut data_bytes = 0;
        for (k, v) in &entries {
            bloom.insert(k);
            data_bytes += k.len() + v.as_ref().map_or(0, |v| v.len()) + 16;
        }
        SsTable {
            id,
            entries,
            bloom,
            data_bytes,
        }
    }

    /// Table identifier (unique per store).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Number of entries, tombstones included.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Approximate in-memory size.
    pub fn size_bytes(&self) -> usize {
        self.data_bytes
    }

    /// Smallest key, if any.
    pub fn min_key(&self) -> Option<&Bytes> {
        self.entries.first().map(|(k, _)| k)
    }

    /// Largest key, if any.
    pub fn max_key(&self) -> Option<&Bytes> {
        self.entries.last().map(|(k, _)| k)
    }

    /// Point lookup. `None` = not in this table; `Some(None)` =
    /// tombstoned here.
    pub fn get(&self, key: &[u8]) -> Option<Option<Bytes>> {
        if !self.bloom_admits(hash_key(key)) {
            return None;
        }
        self.find(key)
    }

    /// [`get`](Self::get) without the bloom probe, for a caller that has
    /// asked [`bloom_admits`](Self::bloom_admits) already.
    pub fn find(&self, key: &[u8]) -> Option<Option<Bytes>> {
        self.entries
            .binary_search_by(|(k, _)| k.as_ref().cmp(key))
            .ok()
            .and_then(|i| self.entries.get(i))
            .map(|(_, v)| v.clone())
    }

    /// Whether the bloom filter admits a key — hashed once for the
    /// whole lookup, not once per table.
    pub fn bloom_admits(&self, hash: KeyHash) -> bool {
        self.bloom.may_contain(hash)
    }

    /// Iterates all entries in key order.
    pub fn iter(&self) -> impl Iterator<Item = &(Bytes, Option<Bytes>)> {
        self.entries.iter()
    }

    /// Iterates entries with `start <= key < end` (None bound = open).
    pub fn range<'a>(
        &'a self,
        start: Option<&'a [u8]>,
        end: Option<&'a [u8]>,
    ) -> impl Iterator<Item = &'a (Bytes, Option<Bytes>)> + 'a {
        let lo = match start {
            Some(s) => self.entries.partition_point(|(k, _)| k.as_ref() < s),
            None => 0,
        };
        self.entries
            .get(lo..)
            .unwrap_or_default()
            .iter()
            .take_while(move |(k, _)| end.is_none_or(|e| k.as_ref() < e))
    }

    /// Merges tables (ordered **newest first**) into one sorted entry
    /// list; for duplicate keys the newest wins. With `drop_tombstones`
    /// (bottom-level compaction) tombstones are removed entirely.
    pub fn merge(tables: &[Arc<SsTable>], drop_tombstones: bool) -> Vec<(Bytes, Option<Bytes>)> {
        let mut map = std::collections::BTreeMap::new();
        // Apply oldest first so newer tables overwrite.
        for table in tables.iter().rev() {
            for (k, v) in table.iter() {
                map.insert(k.clone(), v.clone());
            }
        }
        map.into_iter()
            .filter(|(_, v)| !(drop_tombstones && v.is_none()))
            .collect()
    }

    /// Serializes the table (with trailing CRC).
    pub fn encode(&self) -> Vec<u8> {
        let bloom = self.bloom.encode();
        let mut out = Vec::with_capacity(32 + bloom.len() + self.data_bytes);
        out.extend_from_slice(&MAGIC.to_le_bytes());
        out.extend_from_slice(&self.id.to_le_bytes());
        out.extend_from_slice(&(self.entries.len() as u64).to_le_bytes());
        out.extend_from_slice(&(bloom.len() as u32).to_le_bytes());
        out.extend_from_slice(&bloom);
        for (k, v) in &self.entries {
            out.extend_from_slice(&(k.len() as u32).to_le_bytes());
            out.extend_from_slice(k);
            match v {
                Some(v) => {
                    out.push(0);
                    out.extend_from_slice(&(v.len() as u32).to_le_bytes());
                    out.extend_from_slice(v);
                }
                None => out.push(1),
            }
        }
        let crc = crate::wal::crc32_public(&out);
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }

    /// Deserializes a table produced by [`encode`](Self::encode).
    pub fn decode(data: &[u8]) -> crate::Result<SsTable> {
        if data.len() < 28 {
            return Err(KvError::Corrupt("sstable too small".into()));
        }
        let (body, crc_bytes) = data.split_at(data.len() - 4);
        if crate::wal::crc32_public(body) != le_u32(crc_bytes)? {
            return Err(KvError::Corrupt("sstable crc mismatch".into()));
        }
        let magic = le_u32(field(body, 0, 4)?)?;
        if magic != MAGIC {
            return Err(KvError::Corrupt(format!("bad magic {magic:#x}")));
        }
        let id = le_u64(field(body, 4, 12)?)?;
        let count = le_u64(field(body, 12, 20)?)? as usize;
        let bloom_len = le_u32(field(body, 20, 24)?)? as usize;
        if body.len() < 24 + bloom_len {
            return Err(KvError::Corrupt("bloom truncated".into()));
        }
        let _bloom = &body[24..24 + bloom_len];
        let mut pos = 24 + bloom_len;
        let mut entries = Vec::with_capacity(count);
        for _ in 0..count {
            let need = |n: usize, pos: usize| -> crate::Result<()> {
                if body.len() < pos + n {
                    Err(KvError::Corrupt("entry truncated".into()))
                } else {
                    Ok(())
                }
            };
            need(4, pos)?;
            let klen = le_u32(&body[pos..pos + 4])? as usize;
            pos += 4;
            need(klen + 1, pos)?;
            let key = Bytes::copy_from_slice(&body[pos..pos + klen]);
            pos += klen;
            let tag = body[pos];
            pos += 1;
            let value = match tag {
                0 => {
                    need(4, pos)?;
                    let vlen = le_u32(&body[pos..pos + 4])? as usize;
                    pos += 4;
                    need(vlen, pos)?;
                    let v = Bytes::copy_from_slice(&body[pos..pos + vlen]);
                    pos += vlen;
                    Some(v)
                }
                1 => None,
                t => return Err(KvError::Corrupt(format!("bad entry tag {t}"))),
            };
            entries.push((key, value));
        }
        // Rebuild the bloom filter rather than trusting the serialized
        // one (it is stored for forward compatibility / external tools).
        Ok(SsTable::build(id, entries, 10))
    }

    /// Writes the encoded table to `path`.
    pub fn write_to(&self, path: &Path) -> crate::Result<()> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        std::fs::write(path, self.encode())?;
        Ok(())
    }

    /// Reads a table from `path`.
    pub fn read_from(path: &Path) -> crate::Result<SsTable> {
        let data = std::fs::read(path)?;
        SsTable::decode(&data)
    }
}

/// Borrows `body[lo..hi]`, turning a short body into a corruption error
/// instead of a panic — decode runs on bytes that crossed a
/// fault-injected medium, so no slice length can be trusted.
fn field(body: &[u8], lo: usize, hi: usize) -> crate::Result<&[u8]> {
    body.get(lo..hi)
        .ok_or_else(|| KvError::Corrupt(format!("truncated field at {lo}..{hi}")))
}

/// Reads a little-endian u32; a short slice is a corruption error, not
/// a panic — decode runs on bytes that crossed a fault-injected medium.
fn le_u32(bytes: &[u8]) -> crate::Result<u32> {
    match bytes.try_into() {
        Ok(arr) => Ok(u32::from_le_bytes(arr)),
        Err(_) => Err(KvError::Corrupt("truncated u32 field".into())),
    }
}

/// Reads a little-endian u64 with the same contract as [`le_u32`].
fn le_u64(bytes: &[u8]) -> crate::Result<u64> {
    match bytes.try_into() {
        Ok(arr) => Ok(u64::from_le_bytes(arr)),
        Err(_) => Err(KvError::Corrupt("truncated u64 field".into())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(s: &str) -> Bytes {
        Bytes::from(s.to_string())
    }

    fn table(id: u64, pairs: &[(&str, Option<&str>)]) -> SsTable {
        let entries = pairs.iter().map(|(k, v)| (b(k), v.map(b))).collect();
        SsTable::build(id, entries, 10)
    }

    #[test]
    fn get_hits_and_misses() {
        let t = table(1, &[("a", Some("1")), ("c", Some("3")), ("e", None)]);
        assert_eq!(t.get(b"a"), Some(Some(b("1"))));
        assert_eq!(t.get(b"c"), Some(Some(b("3"))));
        assert_eq!(t.get(b"e"), Some(None), "tombstone visible");
        assert_eq!(t.get(b"b"), None);
        assert_eq!(t.get(b"zz"), None);
    }

    #[test]
    fn min_max_and_len() {
        let t = table(1, &[("b", Some("1")), ("d", Some("2"))]);
        assert_eq!(t.min_key().unwrap(), &b("b"));
        assert_eq!(t.max_key().unwrap(), &b("d"));
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    fn range_bounds() {
        let t = table(
            1,
            &[
                ("a", Some("1")),
                ("b", Some("2")),
                ("c", Some("3")),
                ("d", Some("4")),
            ],
        );
        let mid: Vec<_> = t
            .range(Some(b"b"), Some(b"d"))
            .map(|(k, _)| k.clone())
            .collect();
        assert_eq!(mid, vec![b("b"), b("c")]);
        let open: Vec<_> = t.range(None, None).count().to_string().into_bytes();
        assert_eq!(open, b"4");
    }

    #[test]
    fn merge_newest_wins() {
        let newest = Arc::new(table(2, &[("a", Some("new")), ("b", None)]));
        let oldest = Arc::new(table(
            1,
            &[("a", Some("old")), ("b", Some("x")), ("c", Some("1"))],
        ));
        let merged = SsTable::merge(&[newest, oldest], false);
        assert_eq!(
            merged,
            vec![
                (b("a"), Some(b("new"))),
                (b("b"), None),
                (b("c"), Some(b("1"))),
            ]
        );
    }

    #[test]
    fn merge_drops_tombstones_at_bottom() {
        let newest = Arc::new(table(2, &[("a", None)]));
        let oldest = Arc::new(table(1, &[("a", Some("old")), ("b", Some("1"))]));
        let merged = SsTable::merge(&[newest, oldest], true);
        assert_eq!(merged, vec![(b("b"), Some(b("1")))]);
    }

    #[test]
    fn encode_decode_roundtrip() {
        let t = table(
            7,
            &[("alpha", Some("1")), ("beta", None), ("gamma", Some("3"))],
        );
        let back = SsTable::decode(&t.encode()).unwrap();
        assert_eq!(back.id(), 7);
        assert_eq!(back.len(), 3);
        assert_eq!(back.get(b"alpha"), Some(Some(b("1"))));
        assert_eq!(back.get(b"beta"), Some(None));
    }

    #[test]
    fn decode_detects_corruption() {
        let t = table(1, &[("a", Some("1"))]);
        let mut enc = t.encode();
        enc[10] ^= 0xFF;
        assert!(matches!(SsTable::decode(&enc), Err(KvError::Corrupt(_))));
        assert!(SsTable::decode(&enc[..5]).is_err());
    }

    #[test]
    fn file_roundtrip() {
        let path = std::env::temp_dir().join(format!(
            "liquid-kv-sst-{}-{}.sst",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        let t = table(3, &[("k", Some("v"))]);
        t.write_to(&path).unwrap();
        let back = SsTable::read_from(&path).unwrap();
        assert_eq!(back.get(b"k"), Some(Some(b("v"))));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bloom_rejects_most_absent_keys() {
        let entries: Vec<_> = (0..1000)
            .map(|i| (Bytes::from(format!("key-{i:05}")), Some(b("v"))))
            .collect();
        let t = SsTable::build(1, entries, 10);
        let admitted = (0..1000)
            .filter(|i| t.bloom_admits(hash_key(format!("no-{i}").as_bytes())))
            .count();
        assert!(admitted < 50, "bloom admitted {admitted} absent keys");
    }

    #[test]
    fn empty_table() {
        let t = SsTable::build(1, vec![], 10);
        assert!(t.is_empty());
        assert_eq!(t.min_key(), None);
        assert_eq!(t.get(b"x"), None);
        let back = SsTable::decode(&t.encode()).unwrap();
        assert!(back.is_empty());
    }
}
