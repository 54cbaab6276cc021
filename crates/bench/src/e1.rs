//! E1 — Figure 1 / §1–§2: end-to-end pipeline latency, MR/DFS baseline
//! vs Liquid, as pipeline length grows.
//!
//! The paper's limitation 1: "Intermediate results of MR jobs are
//! written to the DFS, resulting in higher latencies as job pipelines
//! grow in length." We run the same K-stage identity/enrich ETL chain
//! (K = 1..5) over 10,000 events through (a) the MR/DFS stack with its
//! per-task startup and DFS I/O costs, and (b) Liquid's log-based
//! dataflow, and report simulated end-to-end latency per stage count.
//!
//! Expected shape: MR latency grows by seconds per stage (task startup
//! dominates); Liquid stays in the sub-second range regardless of
//! pipeline length — the nearline-vs-batch gap.

use crate::report::{check, fmt_ns, table_header, table_row};
use bytes::Bytes;
use liquid_dfs::{Dfs, DfsConfig};
use liquid_mr::{identity_map, identity_reduce, MrJobConfig, MrPipeline};
use liquid_sim::clock::SimClock;
use liquid_sim::disk::DiskModel;
use liquid_sim::pagecache::{PageCache, PageCacheConfig};

const EVENTS: usize = 10_000;
const MAX_STAGES: usize = 5;

fn mr_pipeline_latency(stages: usize) -> u64 {
    let dfs = Dfs::new(DfsConfig {
        replication: 1,
        datanodes: 1,
        ..DfsConfig::default()
    });
    let content: String = (0..EVENTS).map(|i| format!("k{i}\tevent-{i}\n")).collect();
    dfs.write("/stage0/events", content.as_bytes()).unwrap();
    let mut pipeline = MrPipeline::new(&dfs);
    for s in 0..stages {
        pipeline.add_stage(
            MrJobConfig::new(
                &format!("etl-{s}"),
                &format!("/stage{s}/"),
                &format!("/stage{}", s + 1),
            )
            .reducers(2),
        );
    }
    let stats = pipeline.run(&identity_map, &identity_reduce).unwrap();
    stats.iter().map(|s| s.simulated_ns).sum()
}

fn liquid_pipeline_latency(stages: usize) -> u64 {
    // The Liquid path: each stage reads its input feed from the page
    // cache (hot head of the log) and appends to the next. Latency is
    // the simulated I/O cost accumulated by the page-cache model plus
    // nothing else — there are no per-stage task launches.
    let clock = SimClock::new(0);
    let cache = std::sync::Arc::new(liquid_sim::lockdep::Mutex::new(
        "log.pagecache",
        PageCache::new(
            PageCacheConfig {
                capacity_pages: 1 << 16,
                disk: DiskModel::default(),
                ..PageCacheConfig::default()
            },
            clock.shared(),
        ),
    ));
    // One log per stage boundary, all charged through the same cache.
    let mut logs: Vec<liquid::log::Log> = (0..=stages)
        .map(|i| {
            let mut log = liquid::log::Log::in_memory(clock.shared());
            log.attach_cache(cache.clone(), i as u64 + 1);
            log
        })
        .collect();
    for i in 0..EVENTS {
        logs[0]
            .append(None, Bytes::from(format!("event-{i}")))
            .unwrap();
    }
    let mut cost = 0;
    for s in 0..stages {
        let mut offset = 0;
        loop {
            let (records, read_cost) = {
                let src = &logs[s];
                let out = src.read(offset, 256 * 1024).unwrap();
                (out.records, out.simulated_cost_ns)
            };
            cost += read_cost;
            if records.is_empty() {
                break;
            }
            for rec in &records {
                offset = rec.offset + 1;
                logs[s + 1]
                    .append(rec.key.clone(), rec.value.clone())
                    .unwrap();
            }
        }
    }
    cost
}

pub fn run() -> Result<(), String> {
    println!("# E1: pipeline end-to-end latency vs stage count ({EVENTS} events)");
    table_header(&["stages", "MR/DFS", "Liquid", "MR/Liquid ratio"]);
    let mut rows = Vec::new();
    for stages in 1..=MAX_STAGES {
        let (mr, lq) = (mr_pipeline_latency(stages), liquid_pipeline_latency(stages));
        table_row(&[
            stages.to_string(),
            fmt_ns(mr),
            fmt_ns(lq),
            format!("{:.0}x", mr as f64 / lq.max(1) as f64),
        ]);
        rows.push((mr, lq));
    }
    println!();
    println!(
        "paper claim: DFS-based stacks have high per-stage overhead; Liquid keeps\n\
         latency low and roughly flat as stages are added (nearline default)."
    );
    let mr: Vec<u64> = rows.iter().map(|&(mr, _)| mr).collect();
    check(
        "MR latency rises with every stage",
        mr.windows(2).all(|w| w[1] > w[0]),
        format!("MR latencies {mr:?} ns"),
    )?;
    let worst = rows
        .iter()
        .map(|&(mr, lq)| mr as f64 / lq.max(1) as f64)
        .fold(f64::INFINITY, f64::min);
    check(
        "MR/Liquid >= 10^4 at every stage count",
        worst >= 1e4,
        format!("smallest ratio {worst:.0}x"),
    )
}
