//! Counters and log-bucketed latency histograms.
//!
//! One implementation shared by the registry, the benchmark harness
//! and the fault-crate hot paths. The histogram is
//! HDR-style: bounded relative error (~1.5% with 6 sub-bucket bits) and
//! O(1) recording.
//!
//! Everything here is panic-free in non-test code: these types sit on
//! fault-injected hot paths, so `liquid-lint`'s panic-reachability
//! proof traverses into them.

use std::sync::atomic::{AtomicU64, Ordering};

/// A monotonically increasing counter, safe to share across threads.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// New counter at zero.
    pub const fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Increments by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Log-bucketed histogram for non-negative values (e.g. latency in
/// nanoseconds). Values are grouped into buckets of the form
/// `[2^e + k*2^(e-BITS), ...)`, giving a bounded relative error of
/// about 1/2^BITS (~1.5% with BITS = 6).
#[derive(Debug, Clone)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

const SUB_BITS: u32 = 6;
const SUB: usize = 1 << SUB_BITS;
const EXPS: usize = 64;

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: vec![0; EXPS * SUB],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    fn bucket_of(value: u64) -> usize {
        if value < SUB as u64 {
            return value as usize;
        }
        let e = 63 - value.leading_zeros();
        let shift = e - SUB_BITS;
        let sub = ((value >> shift) as usize) & (SUB - 1);
        ((e - SUB_BITS + 1) as usize) * SUB + sub
    }

    fn bucket_low(idx: usize) -> u64 {
        let e = idx / SUB;
        let sub = (idx % SUB) as u64;
        if e == 0 {
            return sub;
        }
        let exp = (e as u32 - 1) + SUB_BITS;
        (1u64 << exp) + (sub << (exp - SUB_BITS))
    }

    /// Records one observation.
    pub fn record(&mut self, value: u64) {
        if let Some(b) = self.buckets.get_mut(Self::bucket_of(value)) {
            *b += 1;
        }
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of observations (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Arithmetic mean, or 0 for an empty histogram.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Smallest recorded value, or 0 if empty.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded value.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Value at quantile `q` in `[0, 1]` (lower bucket bound; ~1.5% error).
    pub fn quantile(&self, q: f64) -> u64 {
        assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (idx, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Self::bucket_low(idx);
            }
        }
        self.max
    }

    /// Convenience: 50th percentile.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// Convenience: 95th percentile.
    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    /// Convenience: 99th percentile.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Clears all recorded data.
    pub fn reset(&mut self) {
        self.buckets.iter_mut().for_each(|b| *b = 0);
        self.count = 0;
        self.sum = 0;
        self.min = u64::MAX;
        self.max = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_counts() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
    }

    #[test]
    fn empty_histogram_is_zeroed() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.quantile(0.99), 0);
    }

    #[test]
    fn single_value_everywhere() {
        let mut h = Histogram::new();
        h.record(1000);
        assert_eq!(h.count(), 1);
        assert_eq!(h.min(), 1000);
        assert_eq!(h.max(), 1000);
        // Bucketed value within ~1.6% of the true value.
        let q = h.p50();
        assert!((984..=1000).contains(&q), "p50 was {q}");
    }

    #[test]
    fn small_values_exact() {
        let mut h = Histogram::new();
        for v in 0..SUB as u64 {
            h.record(v);
        }
        assert_eq!(h.quantile(0.0), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), SUB as u64 - 1);
    }

    #[test]
    fn quantiles_are_ordered() {
        let mut h = Histogram::new();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        assert!(h.p50() <= h.p95());
        assert!(h.p95() <= h.p99());
        assert!(h.p99() <= h.max());
        // p50 of uniform 1..=10000 should be near 5000 (±2%).
        let p50 = h.p50() as f64;
        assert!((4800.0..=5200.0).contains(&p50), "p50 was {p50}");
    }

    #[test]
    fn quantile_error_is_bounded_across_magnitudes() {
        // For any single recorded value v, the reported quantile is the
        // lower bucket bound, so the relative error is at most
        // 1/2^SUB_BITS (~1.6%) once v is large enough to be bucketed.
        for shift in 6..62 {
            for delta in [0u64, 1, 17, 1000] {
                let v = (1u64 << shift) + delta;
                let mut h = Histogram::new();
                h.record(v);
                let q = h.p99();
                assert!(q <= v, "quantile {q} above recorded {v}");
                let err = (v - q) as f64 / v as f64;
                assert!(err <= 1.0 / 64.0 + 1e-9, "relative error {err} for {v}");
            }
        }
    }

    #[test]
    fn merge_combines() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(10);
        b.record(1_000_000);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.min(), 10);
        assert!(a.max() >= 1_000_000);
    }

    #[test]
    fn reset_clears() {
        let mut h = Histogram::new();
        h.record(5);
        h.reset();
        assert_eq!(h.count(), 0);
        assert_eq!(h.max(), 0);
    }

    #[test]
    fn bucket_bounds_consistent() {
        // bucket_low(bucket_of(v)) <= v for a range of magnitudes.
        for shift in 0..60 {
            let v = 1u64 << shift;
            for delta in [0u64, 1, 3] {
                let val = v + delta;
                let idx = Histogram::bucket_of(val);
                assert!(Histogram::bucket_low(idx) <= val);
            }
        }
    }

    #[test]
    fn huge_values_do_not_panic() {
        let mut h = Histogram::new();
        h.record(u64::MAX);
        assert_eq!(h.max(), u64::MAX);
        assert!(h.p99() > 0);
    }
}
