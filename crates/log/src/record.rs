//! Record wire format.
//!
//! Layout of one record on storage (all integers little-endian):
//!
//! ```text
//! +----------+---------+------------+--------------+-----------+-----+-------+
//! | len: u32 | crc:u32 | offset:u64 | timestamp:u64| klen: i32 | key | value |
//! +----------+---------+------------+--------------+-----------+-----+-------+
//! ```
//!
//! `len` counts everything after itself; `crc` covers everything after
//! itself. `klen == -1` encodes a keyless record. The CRC is the standard
//! CRC-32 (IEEE 802.3) so corruption introduced by failure injection or
//! torn writes is detected on read.
//!
//! An encoding is written in two steps, and this file is the only one
//! that knows where the fields sit: [`encode_unsealed`] writes
//! everything a producer knows (length, timestamp, key length, key,
//! value) with the offset and CRC left zero, and [`seal`] — run by the
//! log once it has assigned the offset — writes the offset, the
//! broker's timestamp if there is one, and last the CRC, which covers
//! both. [`Record::encode`] is the two steps back to back.

use bytes::Bytes;
use liquid_sim::clock::Ts;

use crate::error::LogError;

/// Bytes of a record's encoding before its key: length prefix, CRC,
/// offset, timestamp and key length.
const HEADER_LEN: usize = 4 + 4 + 8 + 8 + 4;
/// Where the CRC, offset, timestamp and key length fields start.
const CRC_AT: usize = 4;
const OFFSET_AT: usize = 8;
const TIMESTAMP_AT: usize = 16;
const KEY_LEN_AT: usize = 24;

/// Appends the encoding of a record whose offset and CRC are not known
/// yet — both left zero — to `buf`: what a
/// [`RecordBatch`](crate::RecordBatch) holds until the log seals it.
/// The key and value are copied here, once, straight into their final
/// place in the frame.
pub(crate) fn encode_unsealed(key: Option<&[u8]>, value: &[u8], timestamp: Ts, buf: &mut Vec<u8>) {
    let key_len = key.map_or(0, <[u8]>::len);
    let body_len = HEADER_LEN - 4 + key_len + value.len();
    let mut header = [0u8; HEADER_LEN];
    put(&mut header, 0, &(body_len as u32).to_le_bytes());
    put(&mut header, TIMESTAMP_AT, &timestamp.to_le_bytes());
    let klen = key.map_or(-1, |k| k.len() as i32);
    put(&mut header, KEY_LEN_AT, &klen.to_le_bytes());
    buf.reserve(4 + body_len);
    buf.extend_from_slice(&header);
    if let Some(k) = key {
        // lint:allow(hot-copy, reason=the one payload copy: key bytes go straight into their place in the frame the log will store; cluster::tests::fetched_key_and_value_are_adjacent_slices_of_one_frame)
        buf.extend_from_slice(k);
    }
    // lint:allow(hot-copy, reason=the one payload copy: value bytes go straight into their place in the frame the log will store; cluster::tests::fetched_key_and_value_are_adjacent_slices_of_one_frame)
    buf.extend_from_slice(value);
}

/// Seals one record's unsealed encoding — `encoding` is exactly that
/// record — in place: writes `offset`, then `timestamp` if the broker
/// re-stamps it, then the CRC. The CRC goes last because it covers the
/// offset and timestamp fields.
pub(crate) fn seal(encoding: &mut [u8], offset: u64, timestamp: Option<Ts>) {
    put(encoding, OFFSET_AT, &offset.to_le_bytes());
    if let Some(ts) = timestamp {
        put(encoding, TIMESTAMP_AT, &ts.to_le_bytes());
    }
    let crc = crc32_sliced(encoding.get(OFFSET_AT..).unwrap_or_default());
    put(encoding, CRC_AT, &crc.to_le_bytes());
}

/// Overwrites the field at `at` with `word` (a no-op past the end: the
/// callers write fields of encodings they sized themselves).
fn put(encoding: &mut [u8], at: usize, word: &[u8]) {
    if let Some(field) = encoding.get_mut(at..at.saturating_add(word.len())) {
        // lint:allow(hot-copy, reason=writes one header field of at most 8 bytes, never key or value bytes; record::tests::roundtrip_keyed)
        field.copy_from_slice(word);
    }
}

/// One record as stored in (and read from) the log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// Dense offset assigned at append time.
    pub offset: u64,
    /// Producer- or broker-assigned timestamp (ms).
    pub timestamp: Ts,
    /// Optional key (used for partitioning and compaction).
    pub key: Option<Bytes>,
    /// Payload. An empty payload with a key is a compaction tombstone.
    pub value: Bytes,
}

impl Record {
    /// Creates a record before it has been assigned an offset.
    pub fn new(key: Option<Bytes>, value: Bytes, timestamp: Ts) -> Self {
        Record {
            offset: 0,
            timestamp,
            key,
            value,
        }
    }

    /// Whether this record is a tombstone (keyed, empty value).
    pub fn is_tombstone(&self) -> bool {
        self.key.is_some() && self.value.is_empty()
    }

    /// Serialized size of this record in bytes, including the length
    /// prefix.
    pub fn wire_size(&self) -> usize {
        HEADER_LEN + self.key.as_ref().map_or(0, |k| k.len()) + self.value.len()
    }

    /// Appends the wire encoding of this record to `buf`: the unsealed
    /// encoding, sealed with the record's own offset and timestamp.
    pub fn encode(&self, buf: &mut Vec<u8>) {
        let at = buf.len();
        encode_unsealed(self.key.as_deref(), &self.value, self.timestamp, buf);
        seal(buf.get_mut(at..).unwrap_or_default(), self.offset, None);
    }

    /// Decodes one record from the front of `data`. Returns the record
    /// and the number of bytes consumed.
    ///
    /// Takes `&Bytes` (not `&[u8]`) so the decoded key and value can be
    /// zero-copy slices of the caller's chunk: one storage read backs
    /// every record decoded from it, and the hot-copy lint holds the
    /// fetch path to that.
    pub fn decode(data: &Bytes) -> crate::Result<(Record, usize)> {
        Record::decode_at(data, 0)
    }

    /// [`decode`](Self::decode) for the record that starts at byte
    /// `at` of `data`: a scan decodes record after record out of one
    /// chunk without re-slicing the chunk for each.
    pub(crate) fn decode_at(data: &Bytes, at: usize) -> crate::Result<(Record, usize)> {
        Record::parse_at(data, at, true)
    }

    /// The record a [`seal`] just wrote at byte `at` of the frozen
    /// `frame`, its key and value slices of `frame`: what
    /// [`decode`](Self::decode) hands out there, without checking the
    /// CRC the log computed a moment ago.
    pub(crate) fn sealed_at(frame: &Bytes, at: usize) -> crate::Result<(Record, usize)> {
        Record::parse_at(frame, at, false)
    }

    fn parse_at(data: &Bytes, at: usize, verify: bool) -> crate::Result<(Record, usize)> {
        let bytes = data.get(at..).unwrap_or_default();
        if bytes.len() < 4 {
            return Err(LogError::Corrupt("truncated length prefix".into()));
        }
        let body_len = le_u32(field(bytes, 0, 4)?)? as usize;
        if body_len < HEADER_LEN - 4 {
            return Err(LogError::Corrupt(format!("body too small: {body_len}")));
        }
        if bytes.len() < 4 + body_len {
            return Err(LogError::Corrupt(format!(
                "truncated body: need {} have {}",
                4 + body_len,
                bytes.len()
            )));
        }
        let record = field(bytes, 0, 4 + body_len)?;
        if verify {
            let stored_crc = le_u32(field(record, CRC_AT, OFFSET_AT)?)?;
            let actual_crc = crc32_sliced(field(record, OFFSET_AT, record.len())?);
            if stored_crc != actual_crc {
                return Err(LogError::Corrupt(format!(
                    "crc mismatch: stored {stored_crc:#010x} actual {actual_crc:#010x}"
                )));
            }
        }
        let offset = le_u64(field(record, OFFSET_AT, TIMESTAMP_AT)?)?;
        let timestamp = le_u64(field(record, TIMESTAMP_AT, KEY_LEN_AT)?)?;
        let klen = le_i32(field(record, KEY_LEN_AT, HEADER_LEN)?)?;
        // Key and value are zero-copy slices of `data` (refcount bumps
        // on the chunk's backing buffer); the record's whole extent was
        // checked against the chunk above.
        let rest_at = at.saturating_add(HEADER_LEN);
        let end = at.saturating_add(4 + body_len);
        let (key, value) = if klen < 0 {
            (None, data.slice(rest_at..end))
        } else {
            let value_at = rest_at.saturating_add(klen as usize);
            if value_at > end {
                return Err(LogError::Corrupt("key length exceeds body".into()));
            }
            (
                Some(data.slice(rest_at..value_at)),
                data.slice(value_at..end),
            )
        };
        Ok((
            Record {
                offset,
                timestamp,
                key,
                value,
            },
            4 + body_len,
        ))
    }
}

/// Borrows `body[lo..hi]`, turning a short body into a corruption error
/// instead of a panic — decode runs on bytes that crossed a
/// fault-injected medium, so no slice length can be trusted.
fn field(body: &[u8], lo: usize, hi: usize) -> crate::Result<&[u8]> {
    body.get(lo..hi)
        .ok_or_else(|| LogError::Corrupt(format!("truncated field at {lo}..{hi}")))
}

/// Reads a little-endian u32; a short slice is a corruption error, not
/// a panic — decode runs on bytes that crossed a fault-injected medium.
fn le_u32(bytes: &[u8]) -> crate::Result<u32> {
    match bytes.try_into() {
        Ok(arr) => Ok(u32::from_le_bytes(arr)),
        Err(_) => Err(LogError::Corrupt("truncated u32 field".into())),
    }
}

/// Reads a little-endian u64 with the same contract as [`le_u32`].
fn le_u64(bytes: &[u8]) -> crate::Result<u64> {
    match bytes.try_into() {
        Ok(arr) => Ok(u64::from_le_bytes(arr)),
        Err(_) => Err(LogError::Corrupt("truncated u64 field".into())),
    }
}

/// Reads a little-endian i32 with the same contract as [`le_u32`].
fn le_i32(bytes: &[u8]) -> crate::Result<i32> {
    match bytes.try_into() {
        Ok(arr) => Ok(i32::from_le_bytes(arr)),
        Err(_) => Err(LogError::Corrupt("truncated i32 field".into())),
    }
}

/// CRC-32 (IEEE 802.3, reflected), table-driven, one byte a step.
///
/// This function is kept exactly as it is, for two reasons. It is the
/// **reference** the codec's faster kernel, [`crc32_sliced`], is tested
/// against. And it is part of the benchmark's ruler: `lbench`'s
/// speedometer times this function over 16 KiB inside the fixed kernel
/// that defines a reference second, so making it faster would stretch
/// every reference second and make every workload read slower. A
/// faster CRC for the codec is a new function, not a change here.
pub fn crc32(data: &[u8]) -> u32 {
    static TABLE: std::sync::OnceLock<[u32; 256]> = std::sync::OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut t = [0u32; 256];
        for (i, entry) in t.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *entry = c;
        }
        t
    });
    let mut c = 0xFFFF_FFFFu32;
    for &b in data {
        c = table[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// The same CRC-32 as [`crc32`], eight bytes a step (slicing-by-8):
/// what [`Record::encode`] and [`Record::decode`] run. Table `k` maps a
/// byte to its CRC contribution once `k` more zero bytes have been
/// shifted in behind it, so eight look-ups — independent of one
/// another, unlike the bytewise loop's chain — fold a whole 8-byte word
/// into the running value. The tail shorter than a word goes bytewise.
pub fn crc32_sliced(data: &[u8]) -> u32 {
    static TABLES: std::sync::OnceLock<[[u32; 256]; 8]> = std::sync::OnceLock::new();
    let [t0, t1, t2, t3, t4, t5, t6, t7] = TABLES.get_or_init(|| {
        let mut bytewise = [0u32; 256];
        for (i, entry) in bytewise.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *entry = c;
        }
        let mut tables = [[0u32; 256]; 8];
        let mut current = bytewise;
        for table in tables.iter_mut() {
            *table = current;
            for entry in current.iter_mut() {
                *entry = bytewise[(*entry & 0xFF) as usize] ^ (*entry >> 8);
            }
        }
        tables
    });
    let mut c = 0xFFFF_FFFFu32;
    let mut words = data.chunks_exact(8);
    for word in &mut words {
        let &[b0, b1, b2, b3, b4, b5, b6, b7] = word else {
            continue; // `chunks_exact(8)` yields nothing else
        };
        let lo = c ^ u32::from_le_bytes([b0, b1, b2, b3]);
        let hi = u32::from_le_bytes([b4, b5, b6, b7]);
        c = t7[(lo & 0xFF) as usize]
            ^ t6[((lo >> 8) & 0xFF) as usize]
            ^ t5[((lo >> 16) & 0xFF) as usize]
            ^ t4[((lo >> 24) & 0xFF) as usize]
            ^ t3[(hi & 0xFF) as usize]
            ^ t2[((hi >> 8) & 0xFF) as usize]
            ^ t1[((hi >> 16) & 0xFF) as usize]
            ^ t0[((hi >> 24) & 0xFF) as usize];
    }
    for &b in words.remainder() {
        c = t0[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    fn rec(key: Option<&[u8]>, value: &[u8]) -> Record {
        Record {
            offset: 42,
            timestamp: 123_456,
            key: key.map(Bytes::copy_from_slice),
            value: Bytes::copy_from_slice(value),
        }
    }

    #[test]
    fn crc32_known_vector() {
        // Standard test vector: CRC32("123456789") = 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn crc32_sliced_equals_the_reference() {
        assert_eq!(crc32_sliced(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_sliced(b""), 0);
        // Every prefix and suffix of a 1 000-byte pattern: all lengths
        // mod 8, all alignments of the word loop against the data.
        let pattern: Vec<u8> = (0..1_000u32).map(|i| (i * 31 + i / 7 + 5) as u8).collect();
        for cut in 0..=pattern.len() {
            let (prefix, suffix) = pattern.split_at(cut);
            assert_eq!(crc32_sliced(prefix), crc32(prefix), "prefix {cut}");
            assert_eq!(crc32_sliced(suffix), crc32(suffix), "suffix {cut}");
        }
    }

    #[test]
    fn roundtrip_keyed() {
        let r = rec(Some(b"user-1"), b"payload");
        let mut buf = Vec::new();
        r.encode(&mut buf);
        assert_eq!(buf.len(), r.wire_size());
        let data = Bytes::from(buf);
        let (back, used) = Record::decode(&data).unwrap();
        assert_eq!(back, r);
        assert_eq!(used, data.len());
    }

    #[test]
    fn roundtrip_keyless() {
        let r = rec(None, b"v");
        let mut buf = Vec::new();
        r.encode(&mut buf);
        let (back, _) = Record::decode(&Bytes::from(buf)).unwrap();
        assert_eq!(back.key, None);
        assert_eq!(back.value, Bytes::from_static(b"v"));
    }

    #[test]
    fn roundtrip_empty_value_tombstone() {
        let r = rec(Some(b"k"), b"");
        assert!(r.is_tombstone());
        let mut buf = Vec::new();
        r.encode(&mut buf);
        let (back, _) = Record::decode(&Bytes::from(buf)).unwrap();
        assert!(back.is_tombstone());
    }

    #[test]
    fn decode_shares_the_chunk_buffer() {
        // Zero-copy contract: the decoded key and value are slices of
        // the chunk passed in, not fresh allocations.
        let r = rec(Some(b"user-1"), b"payload-bytes");
        let mut buf = Vec::new();
        r.encode(&mut buf);
        let data = Bytes::from(buf);
        let base = data.as_slice().as_ptr() as usize;
        let end = base + data.len();
        let (back, _) = Record::decode(&data).unwrap();
        let kp = back.key.as_ref().unwrap().as_slice().as_ptr() as usize;
        let vp = back.value.as_slice().as_ptr() as usize;
        assert!(
            (base..end).contains(&kp),
            "key must point into the chunk buffer"
        );
        assert!(
            (base..end).contains(&vp),
            "value must point into the chunk buffer"
        );
    }

    #[test]
    fn sealed_at_equals_decode_at_that_position() {
        let mut buf = Vec::new();
        let records = [
            rec(Some(b"user-1"), b"payload"),
            rec(None, b"keyless"),
            rec(Some(b"k"), b""),
        ];
        for r in &records {
            r.encode(&mut buf);
        }
        let frame = Bytes::from(buf);
        let mut at = 0;
        for r in &records {
            let (decoded, used) = Record::decode(&frame.slice(at..)).unwrap();
            let (sealed, len) = Record::sealed_at(&frame, at).unwrap();
            assert_eq!(&sealed, r);
            assert_eq!((&sealed, len), (&decoded, used));
            let ptr = |b: &Bytes| b.as_slice().as_ptr();
            assert_eq!(ptr(&sealed.value), ptr(&decoded.value), "same bytes");
            assert_eq!(sealed.key.as_ref().map(ptr), decoded.key.as_ref().map(ptr));
            at += used;
        }
    }

    /// The record layout written out field by field, with the bytewise
    /// reference CRC taken over the finished bytes — independent of
    /// `encode_unsealed` and `seal`, so a seal that took the CRC before
    /// writing the offset or timestamp differs from it.
    pub(crate) fn reference_encoding(
        offset: u64,
        timestamp: Ts,
        key: Option<&[u8]>,
        value: &[u8],
    ) -> Vec<u8> {
        let mut body = Vec::new();
        body.extend_from_slice(&offset.to_le_bytes());
        body.extend_from_slice(&timestamp.to_le_bytes());
        body.extend_from_slice(&key.map_or(-1, |k| k.len() as i32).to_le_bytes());
        body.extend_from_slice(key.unwrap_or_default());
        body.extend_from_slice(value);
        let mut out = ((body.len() + 4) as u32).to_le_bytes().to_vec();
        out.extend_from_slice(&crc32(&body).to_le_bytes());
        out.extend_from_slice(&body);
        out
    }

    #[test]
    fn keyless_empty_is_not_tombstone() {
        assert!(!rec(None, b"").is_tombstone());
    }

    #[test]
    fn corrupt_crc_detected() {
        let r = rec(Some(b"k"), b"value");
        let mut buf = Vec::new();
        r.encode(&mut buf);
        let last = buf.len() - 1;
        buf[last] ^= 0xFF;
        assert!(matches!(
            Record::decode(&Bytes::from(buf)),
            Err(LogError::Corrupt(_))
        ));
    }

    #[test]
    fn truncated_data_detected() {
        let r = rec(Some(b"k"), b"value");
        let mut buf = Vec::new();
        r.encode(&mut buf);
        let data = Bytes::from(buf);
        for cut in [0, 2, 8, data.len() - 1] {
            assert!(
                Record::decode(&data.slice(..cut)).is_err(),
                "cut at {cut} should fail"
            );
        }
    }

    #[test]
    fn multiple_records_decode_sequentially() {
        let mut buf = Vec::new();
        for i in 0..5u64 {
            let mut r = rec(Some(format!("k{i}").as_bytes()), b"v");
            r.offset = i;
            r.encode(&mut buf);
        }
        let data = Bytes::from(buf);
        let mut pos = 0;
        for i in 0..5u64 {
            let (r, used) = Record::decode(&data.slice(pos..)).unwrap();
            assert_eq!(r.offset, i);
            pos += used;
        }
        assert_eq!(pos, data.len());
    }

    #[test]
    fn wire_size_matches_encoding() {
        for (k, v) in [
            (None, &b""[..]),
            (Some(&b"key"[..]), &b""[..]),
            (None, &b"some longer value here"[..]),
            (Some(&b"k"[..]), &b"v"[..]),
        ] {
            let r = rec(k, v);
            let mut buf = Vec::new();
            r.encode(&mut buf);
            assert_eq!(buf.len(), r.wire_size());
        }
    }
}
