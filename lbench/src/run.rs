//! One run of one workload: the untraced run that yields the
//! end-to-end metrics, and the traced run that yields the per-layer
//! metrics.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use crate::gen::Events;
use crate::ladder;
use crate::span::{self, Recorder};
use crate::spec;
use crate::speed::Speedometer;
use crate::stats::{self, Summary};
use crate::window::{self, WallClock, Window};
use crate::workloads::{self, Counts, Deltas, Verdict, Workload};

pub struct Options {
    pub workload: String,
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    pub trace: bool,
    /// Smoke-test sizes: short warm-up, one set-up, short ladder rungs.
    pub quick: bool,
}

/// What a run reports: the contract's result line, plus the reasons
/// when it is not `correct`.
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub violations: Vec<String>,
    /// `(name, value, unit)` in the order of `spec`.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Options {
    fn warmup_seconds(&self) -> f64 {
        if self.quick {
            0.2
        } else {
            2.0
        }
    }

    /// Set-ups timed per run at least; `setup_s` is the median.
    fn min_setups(&self) -> usize {
        if self.quick {
            1
        } else {
            3
        }
    }

    fn ladder_time_box(&self) -> Duration {
        Duration::from_millis(if self.quick { 10 } else { 60 })
    }

    /// Records between maintenance passes. A smoke test's windows are
    /// too short for the real cadence, so it maintains 8x as often.
    fn cadence(&self, w: &dyn Workload) -> u64 {
        (w.maintain_every() / if self.quick { 8 } else { 1 }).max(1)
    }
}

/// A cheap set-up is repeated up to this often a batch, while the
/// batch took less than [`SETUP_BUDGET`] seconds: the median of
/// eighteen 30 ms set-ups is steadier than that of six.
const MAX_SETUPS: usize = 9;
const SETUP_BUDGET: f64 = 0.8;

/// Maintenance cycles warm-up may add while waiting for steady state.
const MAX_STEADY_CYCLES: usize = 64;

/// Warm-up: caches fill, lazy set-up finishes, retention starts
/// dropping segments — so the window measures the steady state.
fn warm_up(w: &mut dyn Workload, opts: &Options, speedometer: &mut Speedometer) {
    let mut rec = Recorder::off();
    let mut clock = WallClock::start(speedometer);
    let every = opts.cadence(w);
    window::run(w, &mut rec, &mut clock, opts.warmup_seconds(), every);
    for _ in 0..MAX_STEADY_CYCLES {
        // A smoke test does not wait: its windows are too short to
        // show the steady state anyway.
        if w.steady() || opts.quick {
            break;
        }
        window::run(w, &mut rec, &mut clock, 0.0, every);
    }
}

/// One measured window with the counters read at its edges.
struct Measured {
    window: Window,
    /// Whether the workload runs on a wall-clock schedule.
    open_loop: bool,
    /// The instant the window's clock readings count from.
    epoch: Instant,
    counts: Counts,
    deltas: Deltas,
}

impl Measured {
    /// Records delivered per reference second: what the system can do
    /// on the reference machine. An open loop delivers what its
    /// wall-clock schedule offers, whatever the machine's speed, so
    /// there the rate is per wall second.
    fn rate(&self) -> f64 {
        let seconds = if self.open_loop {
            self.window.elapsed
        } else {
            self.window.reference_seconds
        };
        self.counts.delivered as f64 / seconds
    }
}

fn measure(
    w: &mut dyn Workload,
    rec: &mut Recorder,
    speedometer: &mut Speedometer,
    seconds: f64,
    every: u64,
) -> Measured {
    w.reset_samples();
    let before = (w.counts(), w.cluster().snapshot());
    let mut clock = WallClock::start(speedometer);
    let window = window::run(w, rec, &mut clock, seconds, every);
    let epoch = clock.epoch;
    let after = (w.counts(), w.cluster().snapshot());
    Measured {
        window,
        open_loop: w.open_loop(),
        epoch,
        counts: after.0.since(&before.0),
        deltas: Deltas::between(&before.1, &after.1),
    }
}

/// The window's latency sample in reference ns: the workload's own
/// per-record samples if it takes them, else the duration of every
/// round.
fn latency(w: &dyn Workload, m: &mut Measured) -> Summary {
    let Some(samples) = w.latencies() else {
        return Summary::of(&mut m.window.round_ns);
    };
    let mut scaled: Vec<u64> = samples
        .iter()
        .map(|&(at, ns)| {
            let at = at.saturating_duration_since(m.epoch).as_secs_f64();
            (ns as f64 * m.window.speed_at(at)) as u64
        })
        .collect();
    Summary::of(&mut scaled)
}

/// Peak resident set of this process, MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok());
    kb.unwrap_or(0.0) / 1024.0
}

/// Vacuity checks (full-size windows only), drain and oracle; then the
/// report over `specs`.
fn finish(
    w: &mut dyn Workload,
    opts: &Options,
    m: &Measured,
    mut metrics: BTreeMap<&'static str, f64>,
    specs: &[spec::MetricSpec],
) -> Report {
    let mut verdict = Verdict::default();
    if !opts.quick {
        w.check_window(&m.counts, &m.deltas, &mut verdict);
    }
    w.finish(&mut verdict);
    if verdict.failed > 0 && verdict.violations.is_empty() {
        verdict.violation(format!("{} operations failed", verdict.failed));
    }
    if let Some(share) = metrics.get_mut("bench.failed_share") {
        *share = verdict.failed as f64 / verdict.attempted.max(1) as f64;
    }
    Report {
        attempted: verdict.attempted.max(1),
        failed: verdict.failed,
        violations: verdict.violations,
        metrics: specs
            .iter()
            .map(|s| (s.name, metrics.get(s.name).copied().unwrap_or(0.0), s.unit))
            .collect(),
    }
}

/// Times a batch of set-ups in reference seconds, appending to
/// `samples`: at least `opts.min_setups()`, and more (up to
/// [`MAX_SETUPS`]) while the batch took less than [`SETUP_BUDGET`].
/// Returns the last instance built.
fn time_setups(
    opts: &Options,
    speedometer: &mut Speedometer,
    samples: &mut Vec<f64>,
) -> Option<Box<dyn Workload>> {
    let mut built = None;
    let (mut count, mut total) = (0, 0.0);
    let mut speed = speedometer.probe();
    while count < opts.min_setups() || (count < MAX_SETUPS && total < SETUP_BUDGET) {
        // Dropped first, so that two timed instances never share the heap.
        drop(built.take());
        let start = Instant::now();
        built = Some(workloads::build(&opts.workload, opts.seed)?);
        let wall = start.elapsed().as_secs_f64();
        let next_speed = speedometer.probe();
        samples.push(wall * (speed + next_speed) / 2.0);
        speed = next_speed;
        count += 1;
        total += wall;
    }
    built
}

/// The untraced run: its only clock reads are one per round, one per
/// maintenance pass, the speed probes, and the paced workload's stamps.
pub fn untraced(opts: &Options) -> Option<Report> {
    let mut speedometer = Speedometer::new();
    let mut setup_seconds = Vec::new();
    let mut w = time_setups(opts, &mut speedometer, &mut setup_seconds)?;
    warm_up(w.as_mut(), opts, &mut speedometer);
    let every = opts.cadence(w.as_ref());
    let mut m = measure(
        w.as_mut(),
        &mut Recorder::off(),
        &mut speedometer,
        opts.seconds,
        every,
    );
    let lat = latency(w.as_ref(), &mut m);
    let peak_rss_mb = peak_rss_mb();
    // A second batch of set-ups, built and dropped beside the finished
    // workload once its memory has been read: the machine's speed
    // drifts over seconds, and a median that spans the whole run sees
    // more of that drift than one taken in its first half second.
    if !opts.quick {
        time_setups(opts, &mut speedometer, &mut setup_seconds)?;
    }
    eprintln!(
        "{}: {} records in {:.3} s wall = {:.3} reference s ({} rounds, {} maintenance cycles, \
         machine at {:.3} of reference speed, {:.0} rec/s of wall time); latency {lat}; \
         set-ups {setup_seconds:.3?} s",
        opts.workload,
        m.counts.delivered,
        m.window.seconds,
        m.window.reference_seconds,
        m.window.rounds,
        m.window.cycles,
        m.window.speed(),
        m.counts.delivered as f64 / m.window.seconds,
    );
    let metrics = BTreeMap::from([
        ("rec_per_s", m.rate()),
        ("latency_p50_us", lat.p50 as f64 / 1e3),
        ("peak_rss_mb", peak_rss_mb),
        ("setup_s", stats::median(&mut setup_seconds)),
    ]);
    Some(finish(w.as_mut(), opts, &m, metrics, spec::END_TO_END))
}

/// The traced run: an untraced reference window, then a window with the
/// span recorder on, then the ladder. Writes the spans to `trace_path`.
pub fn traced(opts: &Options, trace_path: &std::path::Path) -> Option<Report> {
    let mut w = workloads::build(&opts.workload, opts.seed)?;
    let mut speedometer = Speedometer::new();
    warm_up(w.as_mut(), opts, &mut speedometer);
    let mut rec = Recorder::off();
    let every = opts.cadence(w.as_ref());
    let reference = measure(
        w.as_mut(),
        &mut rec,
        &mut speedometer,
        opts.seconds / 3.0,
        every,
    );
    rec.start();
    let mut m = measure(
        w.as_mut(),
        &mut rec,
        &mut speedometer,
        opts.seconds * 2.0 / 3.0,
        every,
    );
    rec.stop();
    let lat = latency(w.as_ref(), &mut m);

    let totals = span::totals(rec.spans());
    let of = |name: &str| totals.get(name).copied().unwrap_or_default();
    // Span durations are wall ns; the window's mean speed turns their
    // sums into reference ns.
    let ns = |name: &str| of(name).total_ns as f64 * m.window.speed();
    let share = |ns: f64| ns / (m.window.reference_seconds * 1e9);
    let per = |num: f64, den: u64| if den == 0 { 0.0 } else { num / den as f64 };
    let c = &m.counts;
    let mut metrics: BTreeMap<&'static str, f64> = BTreeMap::from([
        (
            "messaging.producer.flush_ns_per_rec",
            per(ns("producer.flush"), c.produced),
        ),
        (
            "messaging.producer.busy_share",
            share(ns("producer.buffer") + ns("producer.flush")),
        ),
        (
            "messaging.cluster.replicate_ns_per_rec",
            per(ns("cluster.replicate"), c.produced),
        ),
        (
            "messaging.cluster.replicate_busy_share",
            share(ns("cluster.replicate")),
        ),
        (
            "processing.job.run_ns_per_rec",
            per(ns("job.run"), c.job_processed),
        ),
        ("processing.job.busy_share", share(ns("job.run"))),
        (
            "messaging.consumer.poll_ns_per_rec",
            per(ns("consumer.poll"), c.polled),
        ),
        ("messaging.consumer.busy_share", share(ns("consumer.poll"))),
        (
            "messaging.cluster.fetch_ns_per_rec",
            per(ns("cluster.fetch"), c.fetched),
        ),
        (
            "messaging.cluster.fetch_busy_share",
            share(ns("cluster.fetch")),
        ),
        (
            "messaging.cluster.retention_us_per_pass",
            per(ns("cluster.retention") / 1e3, of("cluster.retention").count),
        ),
        (
            "messaging.cluster.compact_ms_per_pass",
            per(ns("cluster.compact") / 1e6, of("cluster.compact").count),
        ),
        (
            "messaging.cluster.maintenance_busy_share",
            share(ns("maintenance")),
        ),
        (
            "messaging.offsets.commit_us_per_call",
            per(ns("offsets.commit") / 1e3, of("offsets.commit").count),
        ),
        // Stamping, checksums, the oracle's bookkeeping: what is left
        // of a round once the calls into the layers are taken out.
        (
            "bench.driver.self_share",
            share(of("round").self_ns as f64 * m.window.speed()),
        ),
        (
            "bench.trace.overhead_share",
            1.0 - m.rate() / reference.rate(),
        ),
        (
            "messaging.consumer.recs_per_poll",
            per(c.polled as f64, c.polls),
        ),
        (
            "messaging.consumer.empty_poll_share",
            per(c.empty_polls as f64, c.polls),
        ),
        (
            "messaging.cluster.recs_per_replicate_tick",
            per(c.replicated as f64, c.replicate_ticks),
        ),
        (
            "log.cache.hit_share",
            per(
                m.deltas.cache_hits as f64,
                m.deltas.cache_hits + m.deltas.cache_misses,
            ),
        ),
        ("log.cache.fills", m.deltas.cache_misses as f64),
        ("log.cache.evictions", m.deltas.cache_evictions as f64),
        ("log.segment.drops", m.deltas.segment_drops as f64),
        (
            "processing.state.changelog_recs_per_input",
            per(c.changelog_end as f64, c.job_processed),
        ),
        ("bench.latency.p99_us", lat.p99 as f64 / 1e3),
        ("bench.latency.tail_us", lat.tail as f64 / 1e3),
        ("bench.latency.tail_pct", lat.tail_pct),
        ("bench.latency.samples", lat.n as f64),
        ("bench.failed_share", 0.0),
    ]);
    let mut extras = Vec::new();
    w.layer_extras(&m.counts, &mut extras);
    metrics.extend(extras);
    metrics.extend(ladder::run(
        &Events::generate(opts.seed),
        &mut ladder::Meter {
            time_box: opts.ladder_time_box(),
            speedometer: &mut speedometer,
        },
    ));

    // The spans must tile the window: every stage's share plus the
    // driver's own is the whole of it.
    let tiled: f64 = [
        "messaging.producer.busy_share",
        "messaging.cluster.replicate_busy_share",
        "processing.job.busy_share",
        "messaging.consumer.busy_share",
        "messaging.cluster.fetch_busy_share",
        "messaging.cluster.maintenance_busy_share",
        "bench.driver.self_share",
    ]
    .iter()
    .map(|name| metrics[name])
    .sum();
    eprintln!(
        "{}: traced {:.3} s, {} spans, stage shares sum to {tiled:.4}; latency {lat}",
        opts.workload,
        m.window.seconds,
        rec.spans().len()
    );
    let mut report = finish(w.as_mut(), opts, &m, metrics, spec::PER_LAYER);
    if (tiled - 1.0).abs() > 0.02 {
        report
            .violations
            .push(format!("stage shares sum to {tiled:.4}, not 1 +- 0.02"));
    }
    if let Err(e) = rec.write_json(trace_path) {
        report
            .violations
            .push(format!("writing {}: {e}", trace_path.display()));
    }
    Some(report)
}
