//! E2 — §4.1: "read/write throughput remains constant independent of
//! log size."
//!
//! Appends batches into logs of increasing size and measures (a) append
//! throughput and (b) tail-read throughput at each size. The append-only
//! design means neither degrades as the log grows — unlike structures
//! with in-place updates whose cost grows with data volume. Both
//! throughput columns are wall clock: reported, not gated.

use std::time::Instant;

use crate::report::{check, table_header, table_row};
use bytes::Bytes;
use liquid::log::{Log, LogConfig};
use liquid_sim::clock::SimClock;

const BATCH: u64 = 20_000;
const PAYLOAD: usize = 100;

pub fn run() -> Result<(), String> {
    println!("# E2: log throughput vs log size (batch = {BATCH} msgs of {PAYLOAD}B)");
    table_header(&[
        "log size (msgs)",
        "append Kmsg/s",
        "tail-read Kmsg/s",
        "segments",
    ]);
    let clock = SimClock::new(0);
    let mut log = Log::open(
        LogConfig {
            segment_bytes: 4 << 20,
            ..LogConfig::default()
        },
        clock.shared(),
    )
    .unwrap();
    let payload = vec![b'x'; PAYLOAD];
    let mut size = 0u64;
    let mut short_reads = 0;
    for _ in 0..6 {
        // Grow the log by several batches (unmeasured filler), then
        // measure one batch of appends and one tail read.
        for _ in 0..4 * BATCH {
            log.append(None, Bytes::copy_from_slice(&payload)).unwrap();
        }
        size += 4 * BATCH;

        let t = Instant::now();
        for _ in 0..BATCH {
            log.append(None, Bytes::copy_from_slice(&payload)).unwrap();
        }
        let append_s = t.elapsed().as_secs_f64();
        size += BATCH;

        let tail_start = log.next_offset() - BATCH;
        let t = Instant::now();
        let got = log.read(tail_start, u64::MAX).unwrap().records.len() as u64;
        let read_s = t.elapsed().as_secs_f64();
        short_reads += u64::from(got != BATCH);

        table_row(&[
            size.to_string(),
            format!("{:.0}", BATCH as f64 / append_s / 1_000.0),
            format!("{:.0}", BATCH as f64 / read_s / 1_000.0),
            log.segment_count().to_string(),
        ]);
    }
    println!();
    println!(
        "paper claim: append-only design => throughput constant independent of\n\
         log size, enabling cost-effective weeks-to-months retention."
    );
    check(
        "every tail read returns the whole batch",
        short_reads == 0,
        format!("{short_reads} short reads"),
    )
}
