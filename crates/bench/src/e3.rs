//! E3 — §4.1: anti-caching. "The head of the log is maintained in
//! memory for back-end systems that need low-latency access … the
//! initial [random-access] reads are slower due to the OS loading pages
//! into RAM; after typically a few seconds, successive reads become fast
//! due to prefetching."
//!
//! Fills a log through the page-cache model, evicting the cold tail,
//! then measures: (a) hot tail reads, (b) a rewind to offset 0 — the
//! first batches fault from disk, then prefetching warms the path.

use std::sync::Arc;

use crate::report::{check, fmt_ns, table_header, table_row};
use bytes::Bytes;
use liquid::log::{Log, LogConfig};
use liquid_sim::clock::SimClock;
use liquid_sim::lockdep::Mutex;
use liquid_sim::pagecache::{PageCache, PageCacheConfig};

const MESSAGES: u64 = 50_000;
const PAYLOAD: usize = 512;
const READ_BATCH: u64 = 64 * 1024; // bytes per fetch

pub fn run() -> Result<(), String> {
    let clock = SimClock::new(0);
    // Cache big enough for ~1/8 of the data: the head stays resident,
    // the tail ages out — exactly the paper's deployment regime.
    let cache = Arc::new(Mutex::new(
        "log.pagecache",
        PageCache::new(
            PageCacheConfig {
                capacity_pages: (MESSAGES as usize * (PAYLOAD + 24) / 4096) / 8,
                prefetch_pages: 16,
                ..PageCacheConfig::default()
            },
            clock.shared(),
        ),
    ));
    let mut log = Log::open(
        LogConfig {
            segment_bytes: 1 << 20,
            ..LogConfig::default()
        },
        clock.shared(),
    )
    .unwrap();
    log.attach_cache(cache.clone(), 1);
    for i in 0..MESSAGES {
        log.append(None, Bytes::from(format!("{:0width$}", i, width = PAYLOAD)))
            .unwrap();
    }

    println!("# E3: anti-caching — hot head vs cold rewind ({MESSAGES} msgs)");

    // (a) Tail reads: served from the RAM-resident head of the log.
    let mut hot_cost = 0;
    let tail = log.next_offset() - 1_000;
    for _ in 0..5 {
        hot_cost += log.read(tail, READ_BATCH).unwrap().simulated_cost_ns;
    }
    println!("\nhot tail read (5 batches): {} total", fmt_ns(hot_cost));

    // (b) Rewind to offset 0 and stream forward: first batches fault,
    // prefetch warms the rest.
    println!("\nrewind to offset 0, sequential batches:");
    table_header(&["batch#", "cost", "note"]);
    let mut offset = 0;
    let mut costs = Vec::new();
    for batch in 0..12 {
        let out = log.read(offset, READ_BATCH).unwrap();
        if let Some(last) = out.records.last() {
            offset = last.offset + 1;
        }
        costs.push(out.simulated_cost_ns);
        let note = if batch == 0 {
            "cold: disk seek + fault"
        } else if out.simulated_cost_ns > 100_000 {
            "segment boundary: fresh readahead"
        } else {
            "warm: prefetched"
        };
        table_row(&[
            batch.to_string(),
            fmt_ns(out.simulated_cost_ns),
            note.into(),
        ]);
    }
    let cold = costs[0];
    let mut tail: Vec<u64> = costs[3..].to_vec();
    tail.sort_unstable();
    let warm = tail[tail.len() / 2]; // median: occasional segment-boundary
                                     // seeks are real but not the steady state
    println!();
    println!(
        "cold first batch {} vs steady warm batch (median) {} => {:.0}x warm-up",
        fmt_ns(cold),
        fmt_ns(warm),
        cold as f64 / warm.max(1) as f64
    );
    let stats = cache.lock().stats();
    println!(
        "cache stats: {} hits, {} misses, {} prefetched, {} evictions",
        stats.hits, stats.misses, stats.prefetched, stats.evictions
    );
    println!();
    println!(
        "paper claim: head-of-log reads come from RAM; rewind reads are slow at\n\
         first, then prefetching makes successive sequential reads fast."
    );
    check(
        "cold first rewind batch >= 100x the median warm batch",
        cold >= 100 * warm.max(1),
        format!("cold {} vs warm {}", fmt_ns(cold), fmt_ns(warm)),
    )
}
