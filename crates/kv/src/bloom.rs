//! Bloom filter guarding SSTable reads.
//!
//! A point read consults every table that might hold the key; the bloom
//! filter lets most tables answer "definitely not here" without touching
//! their data. Uses double hashing (two FNV-1a variants) to derive the
//! `k` probe positions, the standard Kirsch–Mitzenmacher construction.

/// A key's two probe hashes: computed once per lookup by [`hash_key`],
/// then tried against the filter of every table the lookup visits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeyHash(u64, u64);

/// Hashes `key` for [`Bloom::may_contain`].
pub fn hash_key(key: &[u8]) -> KeyHash {
    KeyHash(
        fnv1a(key, 0xcbf2_9ce4_8422_2325),
        fnv1a(key, 0x9747_b28c_8421_ffff),
    )
}

/// A fixed-size bloom filter.
#[derive(Debug, Clone)]
pub struct Bloom {
    bits: Vec<u64>,
    num_bits: usize,
    k: u32,
}

impl Bloom {
    /// Builds a filter sized for `expected_items` at roughly
    /// `bits_per_key` bits each (10 gives ~1% false positives).
    pub fn new(expected_items: usize, bits_per_key: usize) -> Self {
        let num_bits = (expected_items.max(1) * bits_per_key.max(1)).max(64);
        let k = ((bits_per_key as f64) * 0.69).round().clamp(1.0, 30.0) as u32;
        Bloom {
            bits: vec![0u64; num_bits.div_ceil(64)],
            num_bits,
            k,
        }
    }

    /// Inserts a key.
    pub fn insert(&mut self, key: &[u8]) {
        let hash = hash_key(key);
        for i in 0..self.k {
            let bit = self.probe(hash, i);
            if let Some(word) = self.bits.get_mut(bit / 64) {
                *word |= 1 << (bit % 64);
            }
        }
    }

    /// Whether the key *might* be present (false positives possible,
    /// false negatives not).
    pub fn may_contain(&self, hash: KeyHash) -> bool {
        (0..self.k).all(|i| {
            let bit = self.probe(hash, i);
            self.bits
                .get(bit / 64)
                .is_some_and(|word| word & (1 << (bit % 64)) != 0)
        })
    }

    fn probe(&self, KeyHash(h1, h2): KeyHash, i: u32) -> usize {
        (h1.wrapping_add((i as u64).wrapping_mul(h2)) % self.num_bits as u64) as usize
    }

    /// Number of hash probes per key.
    pub fn num_probes(&self) -> u32 {
        self.k
    }

    /// Size of the bit array in bits.
    pub fn num_bits(&self) -> usize {
        self.num_bits
    }

    /// Serializes to bytes (for on-disk SSTables).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(12 + self.bits.len() * 8);
        out.extend_from_slice(&(self.num_bits as u64).to_le_bytes());
        out.extend_from_slice(&self.k.to_le_bytes());
        for w in &self.bits {
            out.extend_from_slice(&w.to_le_bytes());
        }
        out
    }

    /// Deserializes from bytes produced by [`encode`](Self::encode).
    pub fn decode(data: &[u8]) -> Option<Bloom> {
        if data.len() < 12 {
            return None;
        }
        let num_bits = u64::from_le_bytes(data[0..8].try_into().ok()?) as usize;
        let k = u32::from_le_bytes(data[8..12].try_into().ok()?);
        let words = num_bits.div_ceil(64);
        if data.len() != 12 + words * 8 {
            return None;
        }
        let mut bits = Vec::with_capacity(words);
        for i in 0..words {
            let start = 12 + i * 8;
            bits.push(u64::from_le_bytes(data[start..start + 8].try_into().ok()?));
        }
        Some(Bloom { bits, num_bits, k })
    }
}

fn fnv1a(data: &[u8], seed: u64) -> u64 {
    let mut h = seed;
    for &b in data {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    // Avalanche so low-entropy keys spread across the bit array.
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^ (h >> 33)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_false_negatives() {
        let mut b = Bloom::new(1000, 10);
        for i in 0..1000 {
            b.insert(format!("key-{i}").as_bytes());
        }
        for i in 0..1000 {
            assert!(b.may_contain(hash_key(format!("key-{i}").as_bytes())));
        }
    }

    #[test]
    fn false_positive_rate_reasonable() {
        let mut b = Bloom::new(1000, 10);
        for i in 0..1000 {
            b.insert(format!("key-{i}").as_bytes());
        }
        let fp = (0..10_000)
            .filter(|i| b.may_contain(hash_key(format!("absent-{i}").as_bytes())))
            .count();
        // Theoretical ~1%; allow up to 5%.
        assert!(fp < 500, "false positive count too high: {fp}");
    }

    #[test]
    fn empty_filter_contains_nothing_much() {
        let b = Bloom::new(100, 10);
        let hits = (0..1000)
            .filter(|i| b.may_contain(hash_key(format!("k{i}").as_bytes())))
            .count();
        assert_eq!(hits, 0);
    }

    #[test]
    fn encode_decode_roundtrip() {
        let mut b = Bloom::new(64, 8);
        for i in 0..64 {
            b.insert(&[i as u8]);
        }
        let enc = b.encode();
        let back = Bloom::decode(&enc).unwrap();
        assert_eq!(back.num_bits(), b.num_bits());
        assert_eq!(back.num_probes(), b.num_probes());
        for i in 0..64 {
            assert!(back.may_contain(hash_key(&[i as u8])));
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(Bloom::decode(&[1, 2, 3]).is_none());
        assert!(Bloom::decode(&[0u8; 11]).is_none());
        let mut good = Bloom::new(10, 8).encode();
        good.pop();
        assert!(Bloom::decode(&good).is_none());
    }

    #[test]
    fn zero_sized_construction_is_safe() {
        let mut b = Bloom::new(0, 0);
        b.insert(b"k");
        assert!(b.may_contain(hash_key(b"k")));
    }
}
