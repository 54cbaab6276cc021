//! User activity events (page views, clicks, searches).

use bytes::Bytes;
use liquid_sim::clock::Ts;
use liquid_sim::rng::{seeded, Zipf};
use rand::rngs::StdRng;
use rand::Rng;

/// What the user did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Page view.
    View,
    /// Click on a link or button.
    Click,
    /// Like/reaction.
    Like,
    /// Share/repost.
    Share,
    /// Search query.
    Search,
}

impl Action {
    const ALL: [Action; 5] = [
        Action::View,
        Action::Click,
        Action::Like,
        Action::Share,
        Action::Search,
    ];

    /// Short wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            Action::View => "view",
            Action::Click => "click",
            Action::Like => "like",
            Action::Share => "share",
            Action::Search => "search",
        }
    }

    /// Parses the wire name.
    pub fn parse(s: &str) -> Option<Action> {
        Self::ALL.into_iter().find(|a| a.as_str() == s)
    }
}

/// One user-activity event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ActivityEvent {
    /// Acting user.
    pub user_id: u64,
    /// Action performed.
    pub action: Action,
    /// Page id visited/acted on.
    pub page_id: u64,
    /// Event time (ms).
    pub timestamp: Ts,
}

impl ActivityEvent {
    /// Partitioning/compaction key: the user (`user-<id>`).
    pub fn key(&self) -> Bytes {
        let mut buf = Vec::with_capacity(5 + MAX_DIGITS);
        buf.extend_from_slice(b"user-");
        push_decimal(&mut buf, self.user_id);
        Bytes::from(buf)
    }

    /// Wire encoding: `<user>|<action>|<page>|<timestamp>`, written
    /// straight into one right-sized buffer — generators call this per
    /// event, and going through `format!` (formatter dispatch plus a
    /// string that grows as it is written) cost twice as much.
    pub fn encode(&self) -> Bytes {
        let action = self.action.as_str().as_bytes();
        let mut buf = Vec::with_capacity(3 * MAX_DIGITS + action.len() + 3);
        push_decimal(&mut buf, self.user_id);
        buf.push(b'|');
        buf.extend_from_slice(action);
        buf.push(b'|');
        push_decimal(&mut buf, self.page_id);
        buf.push(b'|');
        push_decimal(&mut buf, self.timestamp);
        Bytes::from(buf)
    }

    /// Parses the wire encoding.
    pub fn decode(data: &[u8]) -> Option<ActivityEvent> {
        let s = std::str::from_utf8(data).ok()?;
        let mut it = s.split('|');
        Some(ActivityEvent {
            user_id: it.next()?.parse().ok()?,
            action: Action::parse(it.next()?)?,
            page_id: it.next()?.parse().ok()?,
            timestamp: it.next()?.parse().ok()?,
        })
    }
}

/// Decimal digits of `u64::MAX`.
const MAX_DIGITS: usize = 20;

/// Appends `n` in decimal, as `{}` would print it.
fn push_decimal(buf: &mut Vec<u8>, mut n: u64) {
    let mut digits = [0u8; MAX_DIGITS];
    let mut used = 0;
    for slot in digits.iter_mut().rev() {
        *slot = b'0' + (n % 10) as u8;
        used += 1;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    buf.extend_from_slice(&digits[MAX_DIGITS - used..]);
}

/// Deterministic activity generator with Zipf-skewed users and pages.
pub struct ActivityGen {
    rng: StdRng,
    users: Zipf,
    pages: Zipf,
    now: Ts,
    /// Mean inter-event gap (ms).
    gap_ms: u64,
}

impl ActivityGen {
    /// A generator over `users` users and `pages` pages with classic
    /// web skew (s = 1.0).
    pub fn new(seed: u64, users: usize, pages: usize) -> Self {
        ActivityGen {
            rng: seeded(seed),
            users: Zipf::new(users, 1.0),
            pages: Zipf::new(pages, 1.0),
            now: 0,
            gap_ms: 10,
        }
    }

    /// Sets the mean gap between events (drives event time).
    pub fn with_gap_ms(mut self, gap_ms: u64) -> Self {
        self.gap_ms = gap_ms.max(1);
        self
    }

    /// Produces the next event.
    pub fn next_event(&mut self) -> ActivityEvent {
        self.now += self.rng.gen_range(1..=self.gap_ms * 2);
        let action = Action::ALL[self.rng.gen_range(0..Action::ALL.len())];
        ActivityEvent {
            user_id: self.users.sample(&mut self.rng) as u64,
            action,
            page_id: self.pages.sample(&mut self.rng) as u64,
            timestamp: self.now,
        }
    }

    /// Produces a batch.
    pub fn batch(&mut self, n: usize) -> Vec<ActivityEvent> {
        (0..n).map(|_| self.next_event()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encodings_are_what_format_would_print() {
        for (user_id, page_id, timestamp) in [
            (0, 0, 0),
            (42, 7, 1234),
            (9, 10, 99),
            (50_000, 1_000, 1_700_000_000_000),
            (u64::MAX, u64::MAX, u64::MAX),
        ] {
            for action in Action::ALL {
                let e = ActivityEvent {
                    user_id,
                    action,
                    page_id,
                    timestamp,
                };
                let wire = format!("{user_id}|{}|{page_id}|{timestamp}", action.as_str());
                assert_eq!(e.encode(), wire.as_str());
                assert_eq!(e.key(), format!("user-{user_id}").as_str());
                assert_eq!(ActivityEvent::decode(&e.encode()), Some(e));
            }
        }
    }

    #[test]
    fn roundtrip() {
        let e = ActivityEvent {
            user_id: 42,
            action: Action::Click,
            page_id: 7,
            timestamp: 1234,
        };
        assert_eq!(ActivityEvent::decode(&e.encode()), Some(e.clone()));
        assert_eq!(e.key(), Bytes::from_static(b"user-42"));
    }

    #[test]
    fn decode_rejects_garbage() {
        assert_eq!(ActivityEvent::decode(b"nope"), None);
        assert_eq!(ActivityEvent::decode(b"1|dance|2|3"), None);
        assert_eq!(ActivityEvent::decode(&[0xFF, 0xFE]), None);
    }

    #[test]
    fn deterministic_given_seed() {
        let a: Vec<_> = ActivityGen::new(7, 100, 50).batch(20);
        let b: Vec<_> = ActivityGen::new(7, 100, 50).batch(20);
        assert_eq!(a, b);
        let c: Vec<_> = ActivityGen::new(8, 100, 50).batch(20);
        assert_ne!(a, c);
    }

    #[test]
    fn timestamps_increase() {
        let mut g = ActivityGen::new(1, 10, 10);
        let batch = g.batch(100);
        assert!(batch.windows(2).all(|w| w[0].timestamp < w[1].timestamp));
    }

    #[test]
    fn users_are_skewed() {
        let mut g = ActivityGen::new(3, 1000, 10);
        let mut head = 0;
        let n = 20_000;
        for _ in 0..n {
            if g.next_event().user_id <= 10 {
                head += 1;
            }
        }
        assert!(head > n / 4, "top-10 users got only {head}/{n} events");
    }

    #[test]
    fn action_parse_all() {
        for a in Action::ALL {
            assert_eq!(Action::parse(a.as_str()), Some(a));
        }
        assert_eq!(Action::parse("dance"), None);
    }
}
