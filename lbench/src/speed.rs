//! A speedometer for the machine the benchmark runs on.
//!
//! The sandbox's effective speed drifts on a scale of seconds (shared
//! host): the same fixed loop takes 12.5 ms one second and 17 ms a few
//! seconds later, in CPU time as much as in wall time, and memory
//! latency and bandwidth drift more. The seed code is bound by exactly
//! those (a 64 KiB copy per record read), a 10 s window cannot average
//! the drift out, and two runs of one commit differed by up to 26 % in
//! wall-clock terms. So the window driver times a small fixed kernel
//! every ~20 ms between rounds and keeps time in *reference seconds*:
//! a stretch of wall time during which the kernel ran at `s` times its
//! reference speed counts as `s` times as long. Rates and latencies are
//! reported in reference seconds; the wall-clock values are printed
//! next to them.

use std::time::Instant;

/// What [`Speedometer::probe`] takes on the reference machine, ns.
/// Only fixes the scale of a reference second; comparisons between
/// commits do not depend on it.
pub const REFERENCE_NS: f64 = 150_000.0;

const SMALL_BYTES: usize = 64 << 10;
const CRC_BYTES: usize = 16 << 10;
const SMALL_COPIES: usize = 4;
const STREAM_BYTES: usize = 1 << 20;
const CHASE_WORDS: usize = 2 << 20;
const CHASE_HOPS: usize = 128;
/// Kernel runs per probe; the fastest one counts, which drops the runs
/// an interrupt landed in.
const RUNS: usize = 3;

/// The fixed kernel: what the system under test mostly does — table
/// driven CRC (the record codec), 64 KiB copies (segment reads), a
/// streaming copy that misses the caches, and dependent loads over a
/// buffer that misses them too (cached records, state look-ups).
pub struct Speedometer {
    small: Vec<u8>,
    small_dst: Vec<u8>,
    stream: Vec<u8>,
    stream_dst: Vec<u8>,
    /// A random cyclic permutation: `chase[i]` is the hop after `i`.
    chase: Vec<u32>,
    at: usize,
}

impl Speedometer {
    pub fn new() -> Speedometer {
        // Sattolo's shuffle with a fixed xorshift: one cycle through
        // every word, in an order the prefetcher cannot guess.
        let mut chase: Vec<u32> = (0..CHASE_WORDS as u32).collect();
        let mut x = 0x2545_F491_4F6C_DD1D_u64;
        for i in (1..CHASE_WORDS).rev() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            chase.swap(i, (x % i as u64) as usize);
        }
        Speedometer {
            small: (0..SMALL_BYTES).map(|i| (i * 31 + 7) as u8).collect(),
            small_dst: vec![0; SMALL_BYTES],
            stream: (0..STREAM_BYTES).map(|i| (i * 17 + 3) as u8).collect(),
            stream_dst: vec![0; STREAM_BYTES],
            chase,
            at: 0,
        }
    }

    fn kernel(&mut self) {
        let crc = liquid_log::record::crc32(&self.small[..CRC_BYTES]);
        self.small[0] = crc as u8;
        for _ in 0..SMALL_COPIES {
            self.small_dst.copy_from_slice(&self.small);
            std::hint::black_box(&mut self.small_dst);
        }
        self.stream_dst.copy_from_slice(&self.stream);
        std::hint::black_box(&mut self.stream_dst);
        for _ in 0..CHASE_HOPS {
            self.at = self.chase[self.at] as usize;
        }
        std::hint::black_box(self.at);
    }

    /// Current speed relative to the reference machine (1.0 = as fast).
    pub fn probe(&mut self) -> f64 {
        let mut best = f64::MAX;
        for _ in 0..RUNS {
            let start = Instant::now();
            self.kernel();
            best = best.min(start.elapsed().as_nanos() as f64);
        }
        REFERENCE_NS / best.max(1.0)
    }
}
