//! Order statistics over latency samples.

/// Percentiles the tail picker may report, highest first.
const TAIL_LADDER: &[f64] = &[99.99, 99.9, 99.0, 95.0, 90.0, 75.0];

/// Samples that must lie beyond a percentile for it to be reported.
const MIN_BEYOND: usize = 10;

/// Nearest rank (1-based) of percentile `pct` among `n` samples. The
/// small slack keeps 99.9 % of 10 000 at rank 9 990 in binary floats.
fn rank(n: usize, pct: f64) -> usize {
    ((pct * n as f64 / 100.0 - 1e-6).ceil() as usize).clamp(1, n.max(1))
}

/// Value at percentile `pct` (nearest rank) of an ascending slice.
pub fn percentile(sorted: &[u64], pct: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[rank(sorted.len(), pct) - 1]
}

/// Samples strictly beyond the nearest-rank position of `pct`.
fn beyond(n: usize, pct: f64) -> usize {
    n - rank(n, pct).min(n)
}

/// The highest percentile of [`TAIL_LADDER`] with at least
/// [`MIN_BEYOND`] samples beyond it, as `(pct, value)`; the median when
/// the sample is too small for any of them.
pub fn tail(sorted: &[u64]) -> (f64, u64) {
    let pct = TAIL_LADDER
        .iter()
        .copied()
        .find(|&p| beyond(sorted.len(), p) >= MIN_BEYOND)
        .unwrap_or(50.0);
    (pct, percentile(sorted, pct))
}

/// A sorted latency sample and what is printed about it.
pub struct Summary {
    pub n: usize,
    pub p50: u64,
    pub p99: u64,
    pub tail_pct: f64,
    pub tail: u64,
}

impl Summary {
    pub fn of(samples: &mut [u64]) -> Summary {
        samples.sort_unstable();
        let (tail_pct, tail) = tail(samples);
        Summary {
            n: samples.len(),
            p50: percentile(samples, 50.0),
            p99: percentile(samples, 99.0),
            tail_pct,
            tail,
        }
    }
}

impl std::fmt::Display for Summary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "p50 {:.1} us, p{} {:.1} us (n = {})",
            self.p50 as f64 / 1e3,
            self.tail_pct,
            self.tail as f64 / 1e3,
            self.n
        )
    }
}

/// Median of a float sample (mean of the middle pair when even).
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        let sample = |n: u64| (1..=n).collect::<Vec<u64>>();
        // 1000 samples: p99 leaves exactly 10 beyond, p99.9 leaves 1.
        assert_eq!(tail(&sample(1000)), (99.0, 990));
        // 999 samples: p99 leaves 9 beyond, so p95 it is.
        assert_eq!(tail(&sample(999)).0, 95.0);
        assert_eq!(tail(&sample(10_000)), (99.9, 9990));
        assert_eq!(tail(&sample(200_000)).0, 99.99);
        // Too small for any tail: report the median.
        assert_eq!(tail(&sample(30)), (50.0, 15));
        assert_eq!(tail(&[]), (50.0, 0));
    }

    #[test]
    fn summary_prints_its_sample_count() {
        let mut v: Vec<u64> = (1..=2000).map(|i| i * 1000).collect();
        v.reverse();
        let s = Summary::of(&mut v);
        assert_eq!((s.n, s.p50, s.p99), (2000, 1_000_000, 1_980_000));
        assert!(s.to_string().contains("n = 2000"), "{s}");
    }

    #[test]
    fn median_of_even_and_odd_samples() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
