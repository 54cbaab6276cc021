//! The names `lbench` can emit: workloads, end-to-end metrics with
//! their regression bounds, per-layer metrics, and the table of how
//! they interact. `BENCHMARK.json` repeats the first three; the drift
//! test at the bottom holds the two copies equal.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
}

pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// before a change counts as a regression (end-to-end only).
    pub bound: f64,
}

pub const WORKLOADS: &[WorkloadSpec] = &[
    WorkloadSpec {
        name: "firehose_rf1",
        why: "write path alone (1 broker, RF 1, acks=leader): touches no read code, so a read-path fix must not move it",
    },
    WorkloadSpec {
        name: "firehose_rf2_all",
        why: "write path plus synchronous replication (RF 2, acks=all): the follower fetch is the read layer used from the write side",
    },
    WorkloadSpec {
        name: "tail_fanout",
        why: "nearline hot head: three consumer groups tail the active segment beside the writer (paper Fig. 3 pub/sub)",
    },
    WorkloadSpec {
        name: "replay_hot",
        why: "rewind over sealed history that fits the segment cache: every read is a cache hit, storage decode is bypassed",
    },
    WorkloadSpec {
        name: "replay_cold",
        why: "rewind over sealed history 8x the segment cache: every segment is decoded from storage again on every sweep",
    },
    WorkloadSpec {
        name: "nearline_pipeline",
        why: "the paper's pipeline at capacity: produce, replicate, stateful job with changelog, derived feed, reader",
    },
    WorkloadSpec {
        name: "nearline_paced",
        why: "the same pipeline in open loop at 2000 rec/s, far below capacity: measures the per-round floor and stalls, not throughput",
    },
];

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound,
    }
}

/// Every workload reports every one of these, and none is ever 0.
pub const END_TO_END: &[MetricSpec] = &[
    e2e("rec_per_s", "rec/s", Better::Higher, 0.25),
    e2e("latency_p50_us", "us", Better::Lower, 0.25),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.25),
    e2e("setup_s", "s", Better::Lower, 0.25),
];

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

use Better::{Higher, Lower};

/// Reported by the traced run of every workload; a stage a workload
/// never enters reads 0.
pub const PER_LAYER: &[MetricSpec] = &[
    // Stage spans: ns per record and share of the traced window.
    layer("messaging.producer.flush_ns_per_rec", "ns", Lower),
    layer("messaging.producer.busy_share", "share", Lower),
    layer("messaging.cluster.replicate_ns_per_rec", "ns", Lower),
    layer("messaging.cluster.replicate_busy_share", "share", Lower),
    layer("processing.job.run_ns_per_rec", "ns", Lower),
    layer("processing.job.busy_share", "share", Lower),
    layer("messaging.consumer.poll_ns_per_rec", "ns", Lower),
    layer("messaging.consumer.busy_share", "share", Lower),
    layer("messaging.cluster.fetch_ns_per_rec", "ns", Lower),
    layer("messaging.cluster.fetch_busy_share", "share", Lower),
    layer("messaging.cluster.retention_us_per_pass", "us", Lower),
    layer("messaging.cluster.compact_ms_per_pass", "ms", Lower),
    layer("messaging.cluster.maintenance_busy_share", "share", Lower),
    layer("messaging.offsets.commit_us_per_call", "us", Lower),
    layer("bench.driver.self_share", "share", Lower),
    layer("bench.trace.overhead_share", "share", Lower),
    // Counts and useful-work ratios.
    layer("messaging.consumer.recs_per_poll", "count", Higher),
    layer("messaging.consumer.empty_poll_share", "share", Lower),
    layer("messaging.cluster.recs_per_replicate_tick", "count", Higher),
    layer("log.cache.hit_share", "share", Higher),
    layer("log.cache.fills", "count", Lower),
    layer("log.cache.evictions", "count", Lower),
    layer("log.segment.drops", "count", Higher),
    layer("log.storage.bytes_per_user_byte", "ratio", Lower),
    layer("processing.state.keys", "count", Lower),
    layer("processing.state.changelog_recs_per_input", "ratio", Lower),
    layer("processing.job.lag_max_recs", "count", Lower),
    layer("bench.latency.p99_us", "us", Lower),
    layer("bench.latency.tail_us", "us", Lower),
    layer("bench.latency.tail_pct", "%", Higher),
    layer("bench.latency.samples", "count", Higher),
    layer("bench.paced.on_time_share", "share", Higher),
    layer("bench.paced.generator_late_p99_us", "us", Lower),
    layer("bench.paced.backlog_max_recs", "count", Lower),
    layer("bench.paced.overloaded", "count", Lower),
    layer("bench.failed_share", "share", Lower),
    // Ladder, write side.
    layer("log.record.encode_ns", "ns", Lower),
    layer("log.batch.build_ns", "ns", Lower),
    layer("log.segment.append_ns", "ns", Lower),
    layer("log.log.append_ns", "ns", Lower),
    layer("messaging.cluster.produce_ns", "ns", Lower),
    layer("messaging.producer.send_ns", "ns", Lower),
    // Ladder, read side.
    layer("log.record.decode_ns", "ns", Lower),
    layer("log.segment.read_ns", "ns", Lower),
    layer("log.log.read_ns", "ns", Lower),
    layer("log.cache.hit_read_ns", "ns", Lower),
    layer("messaging.cluster.fetch_ns", "ns", Lower),
    layer("messaging.consumer.poll_ns", "ns", Lower),
    layer("processing.job.deliver_ns", "ns", Lower),
    // Ladder, state and observability.
    layer("processing.state.add_counter_ns", "ns", Lower),
    layer("kv.store.put_ns", "ns", Lower),
    layer("kv.store.get_ns", "ns", Lower),
    layer("obs.registry.counter_add_ns", "ns", Lower),
    layer("obs.tracer.record_ns", "ns", Lower),
];

/// The names ISSUE 11 gave its workload-specific metrics, and the
/// (workload, metric) pair each one is here. Later issues cite pairs.
pub const ALIASES: &[(&str, &str, &str)] = &[
    ("ingest_rf1_rec_per_s", "firehose_rf1", "rec_per_s"),
    ("ingest_rf2_all_rec_per_s", "firehose_rf2_all", "rec_per_s"),
    ("tail_rec_per_s", "tail_fanout", "rec_per_s"),
    ("replay_hot_rec_per_s", "replay_hot", "rec_per_s"),
    ("replay_cold_rec_per_s", "replay_cold", "rec_per_s"),
    ("pipeline_rec_per_s", "nearline_pipeline", "rec_per_s"),
    ("paced_latency_p50_us", "nearline_paced", "latency_p50_us"),
    (
        "paced_latency_p99_us",
        "nearline_paced",
        "bench.latency.p99_us (per-layer)",
    ),
    (
        "paced_on_time_share",
        "nearline_paced",
        "bench.paced.on_time_share (per-layer)",
    ),
    ("peak_rss_mb", "every workload", "peak_rss_mb"),
    ("setup_s", "every workload", "setup_s"),
    (
        "failed_share",
        "every workload",
        "failed / attempted, bench.failed_share (per-layer)",
    ),
];

/// Which end-to-end pair each layer metric should move, written down
/// before any optimisation is measured (`lbench explain` prints it).
pub const INTERACTIONS: &[(&str, &str, &str)] = &[
    (
        "log.segment.read_ns, log.log.read_ns, messaging.cluster.replicate_ns_per_rec",
        "rec_per_s and latency_p50_us on tail_fanout, replay_cold, firehose_rf2_all, nearline_pipeline; latency_p50_us on nearline_paced; peak_rss_mb on those workloads",
        "no change on firehose_rf1 and replay_hot",
    ),
    (
        "log.segment.append_ns, log.log.append_ns, messaging.cluster.produce_ns, messaging.producer.send_ns, obs.tracer.record_ns",
        "rec_per_s on firehose_rf1 (and, diluted by replication, every streaming workload)",
        "no change on replay_hot and replay_cold",
    ),
    (
        "log.cache.hit_read_ns, log.cache.hit_share",
        "rec_per_s on replay_hot",
        "replay_cold and tail_fanout pay for a costlier insert (log.cache.fills)",
    ),
    (
        "processing.job.run_ns_per_rec, processing.state.add_counter_ns, kv.store.*, messaging.cluster.compact_ms_per_pass",
        "rec_per_s on nearline_pipeline; bench.latency.p99_us on nearline_paced",
        "no change on firehose_*, tail_fanout, replay_*",
    ),
    (
        "messaging.consumer.empty_poll_share, the fixed part of messaging.cluster.replicate_ns_per_rec at ~1 record per tick",
        "latency_p50_us on nearline_paced",
        "no change on the closed-loop workloads, where ticks are full",
    ),
    (
        "any *_busy_share",
        "with one driver thread and no contention, a faster layer saves at most its busy share of the window",
        "the traced shares are the ceiling any later issue may claim",
    ),
];

pub fn workload(name: &str) -> Option<&'static WorkloadSpec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

pub fn end_to_end(name: &str) -> Option<&'static MetricSpec> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// Prints definitions and the interaction table (`lbench explain`).
pub fn explain() {
    println!("workloads:");
    for w in WORKLOADS {
        println!("  {:<18} {}", w.name, w.why);
    }
    println!("\nend-to-end metrics (every workload reports each; bound = allowed worsening):");
    for m in END_TO_END {
        println!(
            "  {:<16} {:<6} {:<6} better, bound {:.0} %",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound * 100.0
        );
    }
    println!("\nISSUE 11 names and the (workload, metric) pair each one is:");
    for (alias, w, m) in ALIASES {
        println!("  {alias:<26} = {w} / {m}");
    }
    println!("\nper-layer metrics (traced run, no bound; 0 = stage not entered by the workload):");
    for m in PER_LAYER {
        println!(
            "  {:<46} {:<6} {} better",
            m.name,
            m.unit,
            m.better.as_str()
        );
    }
    println!("\nhow they interact:");
    for (layers, moves, not) in INTERACTIONS {
        println!("  {layers}\n    -> {moves}\n    ;  {not}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use liquid_obs::json::Json;
    use std::collections::BTreeSet;

    fn name_ok(name: &str) -> bool {
        let mut chars = name.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_counts_fit_the_contract() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        let mut seen = BTreeSet::new();
        for w in WORKLOADS {
            assert!(name_ok(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(seen.insert(w.name), "duplicate {}", w.name);
        }
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(name_ok(m.name), "{}", m.name);
            assert!(unit_ok(m.unit), "{} unit {}", m.name, m.unit);
            assert!(seen.insert(m.name), "duplicate {}", m.name);
        }
        for m in END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        let setup = end_to_end("setup_s").expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
    }

    /// The sets the binary can emit equal the sets in BENCHMARK.json.
    #[test]
    fn benchmark_json_has_not_drifted() {
        let doc = Json::parse(include_str!("../../BENCHMARK.json")).expect("valid JSON");
        let obj = doc.as_object().expect("object");
        let keys: Vec<&str> = obj.keys().map(String::as_str).collect();
        assert_eq!(
            keys,
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );
        let field = |item: &Json, key: &str| -> String {
            let v = &item.as_object().expect("object")[key];
            match v.as_str() {
                Some(s) => s.to_string(),
                None => format!("{}", v.as_f64().expect("number")),
            }
        };
        let listed: Vec<(String, String)> = obj["workloads"]
            .as_array()
            .expect("array")
            .iter()
            .map(|w| (field(w, "name"), field(w, "why")))
            .collect();
        let ours: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|w| (w.name.to_string(), w.why.to_string()))
            .collect();
        assert_eq!(listed, ours);
        let listed: Vec<_> = obj["end_to_end"]
            .as_array()
            .expect("array")
            .iter()
            .map(|m| {
                (
                    field(m, "name"),
                    field(m, "unit"),
                    field(m, "better"),
                    field(m, "bound"),
                )
            })
            .collect();
        let ours: Vec<_> = END_TO_END
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    m.unit.to_string(),
                    m.better.as_str().to_string(),
                    format!("{}", m.bound),
                )
            })
            .collect();
        assert_eq!(listed, ours);
        let listed: Vec<_> = obj["per_layer"]
            .as_array()
            .expect("array")
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit"), field(m, "better")))
            .collect();
        let ours: Vec<_> = PER_LAYER
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    m.unit.to_string(),
                    m.better.as_str().to_string(),
                )
            })
            .collect();
        assert_eq!(listed, ours);
    }
}
