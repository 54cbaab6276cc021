//! Write-ahead log.
//!
//! Every mutation of a store with a directory is appended here before it
//! is applied to the memtable, so a crash loses nothing that was
//! acknowledged. On open, the WAL is replayed into a fresh memtable; a
//! torn final entry (partial write at crash time) is detected by CRC and
//! discarded. The WAL is a file or it is nothing: a store without a
//! directory keeps none, because nothing could ever replay it.
//!
//! Entry layout (little-endian):
//!
//! ```text
//! +---------+---------+-------+-----------+-----+-----------+-------+
//! | len:u32 | crc:u32 | op:u8 | klen: u32 | key | vlen: u32 | value |
//! +---------+---------+-------+-----------+-----+-----------+-------+
//! ```
//!
//! `crc` is the CRC-32C of everything after it.

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;

use bytes::Bytes;

/// One logged mutation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalOp {
    /// Insert/overwrite.
    Put(Bytes, Bytes),
    /// Tombstone.
    Delete(Bytes),
}

/// The write-ahead log.
pub struct Wal {
    file: File,
    len: u64,
}

impl Wal {
    /// Opens (creating if needed) a file WAL and replays any existing
    /// entries.
    pub fn open(path: &Path) -> crate::Result<(Self, Vec<WalOp>)> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let mut file = OpenOptions::new()
            .create(true)
            .truncate(false) // existing entries are replayed, not discarded
            .read(true)
            .write(true)
            .open(path)?;
        let mut buf = Vec::new();
        file.read_to_end(&mut buf)?;
        let (ops, valid_len) = decode_all(&buf);
        if (valid_len as u64) < buf.len() as u64 {
            // Torn tail from a crash: truncate it away.
            file.set_len(valid_len as u64)?;
        }
        file.seek(SeekFrom::End(0))?;
        Ok((
            Wal {
                file,
                len: valid_len as u64,
            },
            ops,
        ))
    }

    /// Appends one operation.
    pub fn append(&mut self, op: &WalOp) -> crate::Result<()> {
        let entry = encode(op);
        self.file.write_all(&entry)?;
        self.len += entry.len() as u64;
        Ok(())
    }

    /// Appends only the first half of one operation's encoding,
    /// emulating a crash mid-write. The frame fails its CRC on replay,
    /// so recovery truncates it away. After calling this the component
    /// must be treated as crashed: further appends would land after
    /// unrecoverable garbage, exactly as on real hardware.
    pub fn append_torn(&mut self, op: &WalOp) -> crate::Result<()> {
        let entry = encode(op);
        let keep = entry.len() / 2;
        self.file.write_all(&entry[..keep])?;
        self.len += keep as u64;
        Ok(())
    }

    /// Flushes buffered bytes to the medium.
    pub fn sync(&mut self) -> crate::Result<()> {
        self.file.flush()?;
        Ok(())
    }

    /// Discards all entries (called after the memtable is flushed to an
    /// SSTable, making the WAL redundant).
    pub fn truncate(&mut self) -> crate::Result<()> {
        self.file.set_len(0)?;
        self.file.seek(SeekFrom::Start(0))?;
        self.len = 0;
        Ok(())
    }

    /// Current size in bytes.
    pub fn size_bytes(&self) -> u64 {
        self.len
    }
}

fn encode(op: &WalOp) -> Vec<u8> {
    let (tag, key, value): (u8, &Bytes, Option<&Bytes>) = match op {
        WalOp::Put(k, v) => (0, k, Some(v)),
        WalOp::Delete(k) => (1, k, None),
    };
    let body_len = 4 + 1 + 4 + key.len() + 4 + value.map_or(0, |v| v.len());
    let mut out = Vec::with_capacity(4 + body_len);
    out.extend_from_slice(&(body_len as u32).to_le_bytes());
    let crc_pos = out.len();
    out.extend_from_slice(&0u32.to_le_bytes());
    out.push(tag);
    out.extend_from_slice(&(key.len() as u32).to_le_bytes());
    out.extend_from_slice(key);
    match value {
        Some(v) => {
            out.extend_from_slice(&(v.len() as u32).to_le_bytes());
            out.extend_from_slice(v);
        }
        None => out.extend_from_slice(&0u32.to_le_bytes()),
    }
    let crc = crc32c::crc32c(&out[crc_pos + 4..]);
    out[crc_pos..crc_pos + 4].copy_from_slice(&crc.to_le_bytes());
    out
}

/// Decodes entries until the data ends or an entry fails validation;
/// returns the ops and the number of valid bytes consumed.
fn decode_all(data: &[u8]) -> (Vec<WalOp>, usize) {
    let mut ops = Vec::new();
    let mut pos = 0;
    while pos + 4 <= data.len() {
        // A malformed frame is treated like a torn tail: stop replaying.
        let Ok(len_bytes) = <[u8; 4]>::try_from(&data[pos..pos + 4]) else {
            break;
        };
        let body_len = u32::from_le_bytes(len_bytes) as usize;
        if body_len < 13 || pos + 4 + body_len > data.len() {
            break;
        }
        let body = &data[pos + 4..pos + 4 + body_len];
        let Some(crc_slice) = body.get(0..4) else {
            break;
        };
        let Ok(crc_bytes) = <[u8; 4]>::try_from(crc_slice) else {
            break;
        };
        let stored_crc = u32::from_le_bytes(crc_bytes);
        let Some(payload) = body.get(4..) else {
            break;
        };
        if crc32c::crc32c(payload) != stored_crc {
            break;
        }
        match decode_body(payload) {
            Some(op) => ops.push(op),
            None => break,
        }
        pos += 4 + body_len;
    }
    (ops, pos)
}

fn decode_body(body: &[u8]) -> Option<WalOp> {
    let tag = *body.first()?;
    let klen = u32::from_le_bytes(body.get(1..5)?.try_into().ok()?) as usize;
    if body.len() < 5 + klen + 4 {
        return None;
    }
    let key = Bytes::copy_from_slice(&body[5..5 + klen]);
    let vlen = u32::from_le_bytes(body[5 + klen..9 + klen].try_into().ok()?) as usize;
    if body.len() != 9 + klen + vlen {
        return None;
    }
    let value = Bytes::copy_from_slice(&body[9 + klen..]);
    match tag {
        0 => Some(WalOp::Put(key, value)),
        1 => Some(WalOp::Delete(key)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(s: &str) -> Bytes {
        Bytes::from(s.to_string())
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!(
            "liquid-kv-wal-{}-{}-{name}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ))
    }

    #[test]
    fn memory_roundtrip() {
        let ops = vec![WalOp::Put(b("a"), b("1")), WalOp::Delete(b("a"))];
        let data: Vec<u8> = ops.iter().flat_map(encode).collect();
        assert_eq!(decode_all(&data), (ops, data.len()));
    }

    #[test]
    fn file_replay_after_reopen() {
        let path = tmp("replay.wal");
        {
            let (mut w, ops) = Wal::open(&path).unwrap();
            assert!(ops.is_empty());
            w.append(&WalOp::Put(b("k"), b("v"))).unwrap();
            w.append(&WalOp::Put(b("k2"), b("v2"))).unwrap();
            w.sync().unwrap();
        }
        let (_, ops) = Wal::open(&path).unwrap();
        assert_eq!(ops.len(), 2);
        assert_eq!(ops[1], WalOp::Put(b("k2"), b("v2")));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_discarded() {
        let path = tmp("torn.wal");
        {
            let (mut w, _) = Wal::open(&path).unwrap();
            w.append(&WalOp::Put(b("good"), b("1"))).unwrap();
            w.sync().unwrap();
        }
        // Append half an entry by hand.
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            let full = encode(&WalOp::Put(b("torn"), b("2")));
            f.write_all(&full[..full.len() / 2]).unwrap();
        }
        let (w, ops) = Wal::open(&path).unwrap();
        assert_eq!(ops.len(), 1);
        assert_eq!(ops[0], WalOp::Put(b("good"), b("1")));
        // And the file was truncated back to the valid prefix.
        assert_eq!(std::fs::metadata(&path).unwrap().len(), w.size_bytes());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_entry_stops_replay() {
        let mut data = encode(&WalOp::Put(b("a"), b("1")));
        let mut second = encode(&WalOp::Put(b("b"), b("2")));
        let n = second.len();
        second[n - 1] ^= 0xFF; // flip a bit in the value
        data.extend_from_slice(&second);
        let (ops, used) = decode_all(&data);
        assert_eq!(ops.len(), 1);
        assert!(used < data.len());
    }

    #[test]
    fn truncate_resets() {
        let path = tmp("truncate.wal");
        let (mut w, _) = Wal::open(&path).unwrap();
        w.append(&WalOp::Put(b("a"), b("1"))).unwrap();
        assert!(w.size_bytes() > 0);
        w.truncate().unwrap();
        assert_eq!(w.size_bytes(), 0);
        // Appends after a truncate start at the front of the file.
        w.append(&WalOp::Put(b("b"), b("2"))).unwrap();
        drop(w);
        let (_, ops) = Wal::open(&path).unwrap();
        assert_eq!(ops, vec![WalOp::Put(b("b"), b("2"))]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_values_and_keys_roundtrip() {
        let ops = vec![
            WalOp::Put(Bytes::new(), Bytes::new()),
            WalOp::Delete(Bytes::new()),
        ];
        let data: Vec<u8> = ops.iter().flat_map(encode).collect();
        assert_eq!(decode_all(&data).0, ops);
    }
}
