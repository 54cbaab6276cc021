//! Input generation: the only place `--seed` is used. The system under
//! test receives the generated records, never the seed.

use bytes::Bytes;
use liquid_workloads::activity::ActivityGen;

/// Events generated once per set-up and cycled as `Bytes` clones, so
/// generation is off the timed path.
pub const EVENTS: usize = 65_536;
/// Zipf-distributed user population, ids `1..=USERS` (state size of the
/// pipeline job).
pub const USERS: usize = 50_000;
const PAGES: usize = 1_000;
/// Every value is padded to this many bytes.
pub const VALUE_BYTES: usize = 128;
/// The first bytes of a value hold a little-endian `u64` stamp: the
/// event's index here, its due time in `nearline_paced`.
pub const STAMP_BYTES: usize = 8;

pub struct Events {
    pub keys: Vec<Bytes>,
    pub values: Vec<Bytes>,
    /// User id behind each key (`user-<id>`).
    pub users: Vec<u32>,
}

impl Events {
    pub fn generate(seed: u64) -> Events {
        let mut gen = ActivityGen::new(seed, USERS, PAGES);
        let mut events = Events {
            keys: Vec::with_capacity(EVENTS),
            values: Vec::with_capacity(EVENTS),
            users: Vec::with_capacity(EVENTS),
        };
        for i in 0..EVENTS {
            let e = gen.next_event();
            events.keys.push(e.key());
            events
                .values
                .push(Bytes::from(stamped(i as u64, &e.encode())));
            events.users.push(e.user_id as u32);
        }
        events
    }

    /// Key plus value bytes of event `i` (what a user pays to store).
    pub fn user_bytes(&self, i: usize) -> u64 {
        (self.keys[i].len() + self.values[i].len()) as u64
    }
}

/// `stamp` then `body`, space-padded (or cut) to [`VALUE_BYTES`].
pub fn stamped(stamp: u64, body: &[u8]) -> Vec<u8> {
    let mut v = Vec::with_capacity(VALUE_BYTES);
    v.extend_from_slice(&stamp.to_le_bytes());
    v.extend_from_slice(&body[..body.len().min(VALUE_BYTES - STAMP_BYTES)]);
    v.resize(VALUE_BYTES, b' ');
    v
}

/// The stamp a value carries, or `None` if it is too short to hold one.
pub fn stamp_of(value: &[u8]) -> Option<u64> {
    let bytes: [u8; STAMP_BYTES] = value.get(..STAMP_BYTES)?.try_into().ok()?;
    Some(u64::from_le_bytes(bytes))
}

/// User id of a `user-<id>` key.
pub fn user_of(key: &[u8]) -> Option<u32> {
    std::str::from_utf8(key.strip_prefix(b"user-")?)
        .ok()?
        .parse()
        .ok()
}

/// Order-independent checksum contribution of one delivered record.
/// The stamp identifies the generated event, so a lost, duplicated or
/// swapped record moves the sum; the log's own CRC covers the bytes.
pub fn checksum(key: Option<&[u8]>, value: &[u8]) -> u64 {
    stamp_of(value)
        .unwrap_or(u64::MAX)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add((value.len() as u64) << 16)
        .wrapping_add(key.map_or(0, |k| k.len() as u64))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_is_byte_identical_per_seed_and_differs_across_seeds() {
        let (a, b, c) = (
            Events::generate(7),
            Events::generate(7),
            Events::generate(8),
        );
        assert_eq!(a.keys, b.keys);
        assert_eq!(a.values, b.values);
        assert_eq!(a.users, b.users);
        assert_ne!(a.values, c.values);
        assert_ne!(a.keys, c.keys);
    }

    #[test]
    fn events_have_the_stated_shape() {
        let e = Events::generate(1);
        assert_eq!(e.values.len(), EVENTS);
        for i in [0, 1, EVENTS - 1] {
            assert_eq!(e.values[i].len(), VALUE_BYTES);
            assert_eq!(stamp_of(&e.values[i]), Some(i as u64));
            assert_eq!(user_of(&e.keys[i]), Some(e.users[i]));
            assert!((1..=USERS).contains(&(e.users[i] as usize)));
        }
        assert_eq!(stamp_of(b"short"), None);
        assert_eq!(user_of(b"page-3"), None);
    }

    #[test]
    fn checksum_sees_a_swapped_record() {
        let e = Events::generate(1);
        let sum = |ids: &[usize]| {
            ids.iter().fold(0u64, |acc, &i| {
                acc.wrapping_add(checksum(Some(&e.keys[i]), &e.values[i]))
            })
        };
        assert_eq!(sum(&[1, 2, 3]), sum(&[3, 1, 2]));
        assert_ne!(sum(&[1, 2, 3]), sum(&[1, 2, 4]));
        assert_ne!(sum(&[1, 2, 3]), sum(&[1, 2, 3, 3]));
    }
}
