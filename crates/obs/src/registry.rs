//! The thread-safe instrument registry and its snapshot view.
//!
//! Instruments are addressed by `component.instrument{label=value}`
//! keys (labels sorted, rendered once at registration). Hot paths
//! resolve a handle **once** at construction time and then operate on
//! a plain atomic — registration takes a `std::sync::Mutex` over a
//! `BTreeMap`, recording does not (histograms take a per-instrument
//! leaf mutex). The three maps are only ever locked one at a time, so
//! no lock ordering arises.
//!
//! Under the `obs-off` feature every type here is a zero-sized no-op
//! with the same API.

use std::collections::BTreeMap;

use crate::json::{self, Json};
use crate::stats::Histogram;

#[cfg(not(feature = "obs-off"))]
use std::sync::atomic::{AtomicU64, Ordering};
#[cfg(not(feature = "obs-off"))]
use std::sync::{Arc, Mutex, MutexGuard};

/// Recovers a poisoned mutex: instruments hold plain data, so a panic
/// elsewhere never leaves them in a state worth refusing to read.
#[cfg(not(feature = "obs-off"))]
fn lock_plain<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Renders `name{k1=v1,k2=v2}` with labels sorted by key; just `name`
/// when there are no labels.
pub fn render_key(name: &str, labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return name.to_string();
    }
    let mut sorted: Vec<(&str, &str)> = labels.to_vec();
    sorted.sort();
    let mut out = String::with_capacity(name.len() + 16);
    out.push_str(name);
    out.push('{');
    for (i, (k, v)) in sorted.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(k);
        out.push('=');
        out.push_str(v);
    }
    out.push('}');
    out
}

/// A handle to a registered counter. Cloning shares the underlying
/// cell; `Default` is a disconnected no-op (useful in config structs
/// before wiring).
#[derive(Clone, Debug, Default)]
pub struct CounterHandle {
    #[cfg(not(feature = "obs-off"))]
    cell: Option<Arc<AtomicU64>>,
}

impl CounterHandle {
    /// Increments by one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        #[cfg(not(feature = "obs-off"))]
        if let Some(c) = &self.cell {
            c.fetch_add(n, Ordering::Relaxed);
        }
        #[cfg(feature = "obs-off")]
        let _ = n;
    }

    /// Current value (0 when disconnected or compiled out).
    pub fn get(&self) -> u64 {
        #[cfg(not(feature = "obs-off"))]
        if let Some(c) = &self.cell {
            return c.load(Ordering::Relaxed);
        }
        0
    }
}

/// A handle to a registered gauge (a settable `u64`).
#[derive(Clone, Debug, Default)]
pub struct GaugeHandle {
    #[cfg(not(feature = "obs-off"))]
    cell: Option<Arc<AtomicU64>>,
}

impl GaugeHandle {
    /// Sets the gauge to `v`.
    #[inline]
    pub fn set(&self, v: u64) {
        #[cfg(not(feature = "obs-off"))]
        if let Some(c) = &self.cell {
            c.store(v, Ordering::Relaxed);
        }
        #[cfg(feature = "obs-off")]
        let _ = v;
    }

    /// Raises the gauge to `v` if `v` is larger (high-water marks).
    #[inline]
    pub fn set_max(&self, v: u64) {
        #[cfg(not(feature = "obs-off"))]
        if let Some(c) = &self.cell {
            c.fetch_max(v, Ordering::Relaxed);
        }
        #[cfg(feature = "obs-off")]
        let _ = v;
    }

    /// Current value (0 when disconnected or compiled out).
    pub fn get(&self) -> u64 {
        #[cfg(not(feature = "obs-off"))]
        if let Some(c) = &self.cell {
            return c.load(Ordering::Relaxed);
        }
        0
    }
}

/// A handle to a registered histogram.
#[derive(Clone, Debug, Default)]
pub struct HistogramHandle {
    #[cfg(not(feature = "obs-off"))]
    cell: Option<Arc<Mutex<Histogram>>>,
}

impl HistogramHandle {
    /// Records one observation.
    #[inline]
    pub fn record(&self, v: u64) {
        #[cfg(not(feature = "obs-off"))]
        if let Some(c) = &self.cell {
            lock_plain(c).record(v);
        }
        #[cfg(feature = "obs-off")]
        let _ = v;
    }

    /// A copy of the current histogram state (empty when disconnected
    /// or compiled out).
    pub fn read(&self) -> Histogram {
        #[cfg(not(feature = "obs-off"))]
        if let Some(c) = &self.cell {
            return lock_plain(c).clone();
        }
        Histogram::new()
    }
}

/// The instrument registry: three name-keyed maps of shared cells.
#[derive(Debug, Default)]
pub struct Registry {
    #[cfg(not(feature = "obs-off"))]
    counters: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    #[cfg(not(feature = "obs-off"))]
    gauges: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    #[cfg(not(feature = "obs-off"))]
    histograms: Mutex<BTreeMap<String, Arc<Mutex<Histogram>>>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Registers (or finds) the unlabeled counter `name`.
    pub fn counter(&self, name: &str) -> CounterHandle {
        self.counter_with(name, &[])
    }

    /// Registers (or finds) the unlabeled gauge `name`.
    pub fn gauge(&self, name: &str) -> GaugeHandle {
        self.gauge_with(name, &[])
    }

    /// Registers (or finds) the unlabeled histogram `name`.
    pub fn histogram(&self, name: &str) -> HistogramHandle {
        self.histogram_with(name, &[])
    }

    /// Current value of an unlabeled counter (0 if never registered).
    pub fn counter_value(&self, name: &str) -> u64 {
        self.counter_value_with(name, &[])
    }

    /// Current value of an unlabeled gauge (`None` if never registered).
    pub fn gauge_value(&self, name: &str) -> Option<u64> {
        self.gauge_value_with(name, &[])
    }
}

#[cfg(not(feature = "obs-off"))]
impl Registry {
    /// Registers (or finds) a labeled counter.
    pub fn counter_with(&self, name: &str, labels: &[(&str, &str)]) -> CounterHandle {
        let key = render_key(name, labels);
        let cell = lock_plain(&self.counters).entry(key).or_default().clone();
        CounterHandle { cell: Some(cell) }
    }

    /// Registers (or finds) a labeled gauge.
    pub fn gauge_with(&self, name: &str, labels: &[(&str, &str)]) -> GaugeHandle {
        let key = render_key(name, labels);
        let cell = lock_plain(&self.gauges).entry(key).or_default().clone();
        GaugeHandle { cell: Some(cell) }
    }

    /// Registers (or finds) a labeled histogram.
    pub fn histogram_with(&self, name: &str, labels: &[(&str, &str)]) -> HistogramHandle {
        let cell = lock_plain(&self.histograms)
            .entry(render_key(name, labels))
            .or_insert_with(|| Arc::new(Mutex::new(Histogram::new())))
            .clone();
        HistogramHandle { cell: Some(cell) }
    }

    /// Current value of a labeled counter (0 if never registered).
    pub fn counter_value_with(&self, name: &str, labels: &[(&str, &str)]) -> u64 {
        lock_plain(&self.counters)
            .get(&render_key(name, labels))
            .map(|c| c.load(Ordering::Relaxed))
            .unwrap_or(0)
    }

    /// Current value of a labeled gauge (`None` if never registered).
    pub fn gauge_value_with(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        lock_plain(&self.gauges)
            .get(&render_key(name, labels))
            .map(|c| c.load(Ordering::Relaxed))
    }

    /// A point-in-time copy of every instrument.
    pub fn snapshot(&self) -> Snapshot {
        let counters = lock_plain(&self.counters)
            .iter()
            .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
            .collect();
        let gauges = lock_plain(&self.gauges)
            .iter()
            .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
            .collect();
        let histograms = lock_plain(&self.histograms)
            .iter()
            .map(|(k, v)| (k.clone(), HistogramSummary::of(&lock_plain(v))))
            .collect();
        Snapshot {
            counters,
            gauges,
            histograms,
        }
    }
}

#[cfg(feature = "obs-off")]
impl Registry {
    /// Registers (or finds) a labeled counter. No-op: `obs-off`.
    pub fn counter_with(&self, _name: &str, _labels: &[(&str, &str)]) -> CounterHandle {
        CounterHandle::default()
    }

    /// Registers (or finds) a labeled gauge. No-op: `obs-off`.
    pub fn gauge_with(&self, _name: &str, _labels: &[(&str, &str)]) -> GaugeHandle {
        GaugeHandle::default()
    }

    /// Registers (or finds) a labeled histogram. No-op: `obs-off`.
    pub fn histogram_with(&self, _name: &str, _labels: &[(&str, &str)]) -> HistogramHandle {
        HistogramHandle::default()
    }

    /// Current value of a labeled counter. Always 0: `obs-off`.
    pub fn counter_value_with(&self, _name: &str, _labels: &[(&str, &str)]) -> u64 {
        0
    }

    /// Current value of a labeled gauge. Always `None`: `obs-off`.
    pub fn gauge_value_with(&self, _name: &str, _labels: &[(&str, &str)]) -> Option<u64> {
        None
    }

    /// A point-in-time copy of every instrument. Empty: `obs-off`.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot::default()
    }
}

/// Percentile summary of one histogram (all `u64`, so the JSON form
/// round-trips exactly).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HistogramSummary {
    /// Number of observations.
    pub count: u64,
    /// Saturating sum of observations.
    pub sum: u64,
    /// Smallest observation (0 if empty).
    pub min: u64,
    /// Largest observation.
    pub max: u64,
    /// 50th percentile (lower bucket bound).
    pub p50: u64,
    /// 95th percentile (lower bucket bound).
    pub p95: u64,
    /// 99th percentile (lower bucket bound).
    pub p99: u64,
}

impl HistogramSummary {
    /// Summarizes a histogram.
    pub fn of(h: &Histogram) -> Self {
        HistogramSummary {
            count: h.count(),
            sum: h.sum(),
            min: h.min(),
            max: h.max(),
            p50: h.p50(),
            p95: h.p95(),
            p99: h.p99(),
        }
    }
}

/// A point-in-time view of a registry: named counters, gauges, and
/// histogram summaries. This is the one shape shared by
/// `Cluster::snapshot()`, `Job::snapshot()` and the chaos-harness
/// failure dump.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// Counter values by rendered key.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by rendered key.
    pub gauges: BTreeMap<String, u64>,
    /// Histogram summaries by rendered key.
    pub histograms: BTreeMap<String, HistogramSummary>,
}

impl Snapshot {
    /// Value of a counter in this snapshot (0 if absent).
    pub fn counter(&self, key: &str) -> u64 {
        self.counters.get(key).copied().unwrap_or(0)
    }

    /// Value of a gauge in this snapshot (`None` if absent).
    pub fn gauge(&self, key: &str) -> Option<u64> {
        self.gauges.get(key).copied()
    }

    /// Serializes to a JSON object (RFC 8259 escaping, sorted keys).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256);
        out.push_str("{\"counters\":{");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::write_str(&mut out, k);
            out.push(':');
            out.push_str(&v.to_string());
        }
        out.push_str("},\"gauges\":{");
        for (i, (k, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::write_str(&mut out, k);
            out.push(':');
            out.push_str(&v.to_string());
        }
        out.push_str("},\"histograms\":{");
        for (i, (k, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::write_str(&mut out, k);
            out.push(':');
            out.push_str(&format!(
                "{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"p50\":{},\"p95\":{},\"p99\":{}}}",
                h.count, h.sum, h.min, h.max, h.p50, h.p95, h.p99
            ));
        }
        out.push_str("}}");
        out
    }

    /// Parses the [`Snapshot::to_json`] form back. Returns `None` when
    /// the text is not a snapshot-shaped JSON object.
    pub fn from_json(text: &str) -> Option<Snapshot> {
        let doc = Json::parse(text)?;
        Snapshot::from_value(&doc)
    }

    /// Builds a snapshot from an already-parsed JSON value.
    pub fn from_value(doc: &Json) -> Option<Snapshot> {
        let obj = doc.as_object()?;
        let mut snap = Snapshot::default();
        for (k, v) in obj.get("counters")?.as_object()? {
            snap.counters.insert(k.clone(), v.as_u64()?);
        }
        for (k, v) in obj.get("gauges")?.as_object()? {
            snap.gauges.insert(k.clone(), v.as_u64()?);
        }
        for (k, v) in obj.get("histograms")?.as_object()? {
            let h = v.as_object()?;
            let field = |name: &str| h.get(name).and_then(Json::as_u64);
            snap.histograms.insert(
                k.clone(),
                HistogramSummary {
                    count: field("count")?,
                    sum: field("sum")?,
                    min: field("min")?,
                    max: field("max")?,
                    p50: field("p50")?,
                    p95: field("p95")?,
                    p99: field("p99")?,
                },
            );
        }
        Some(snap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_key_sorts_labels() {
        assert_eq!(render_key("a.b", &[]), "a.b");
        assert_eq!(render_key("a.b", &[("z", "1"), ("a", "2")]), "a.b{a=2,z=1}");
    }

    #[cfg(not(feature = "obs-off"))]
    mod enabled {
        use super::super::*;

        #[test]
        fn counters_accumulate_and_share() {
            let r = Registry::new();
            let a = r.counter("c.x");
            let b = r.counter("c.x");
            a.inc();
            b.add(4);
            assert_eq!(r.counter_value("c.x"), 5);
            assert_eq!(a.get(), 5);
        }

        #[test]
        fn labeled_instruments_are_distinct() {
            let r = Registry::new();
            r.counter_with("c", &[("tp", "t-0")]).inc();
            r.counter_with("c", &[("tp", "t-1")]).add(2);
            assert_eq!(r.counter_value_with("c", &[("tp", "t-0")]), 1);
            assert_eq!(r.counter_value_with("c", &[("tp", "t-1")]), 2);
            assert_eq!(r.counter_value("c"), 0);
        }

        #[test]
        fn gauges_set_and_max() {
            let r = Registry::new();
            let g = r.gauge("g.v");
            g.set(7);
            g.set_max(3); // lower: ignored
            assert_eq!(r.gauge_value("g.v"), Some(7));
            g.set_max(11);
            assert_eq!(g.get(), 11);
            assert_eq!(r.gauge_value("missing"), None);
        }

        #[test]
        fn snapshot_captures_everything() {
            let r = Registry::new();
            r.counter("c.one").inc();
            r.gauge_with("g.hw", &[("tp", "t-0")]).set(42);
            let h = r.histogram("h.lat");
            h.record(100);
            h.record(200);
            let snap = r.snapshot();
            assert_eq!(snap.counter("c.one"), 1);
            assert_eq!(snap.gauge("g.hw{tp=t-0}"), Some(42));
            let hs = snap.histograms.get("h.lat").copied().unwrap();
            assert_eq!(hs.count, 2);
            assert!(hs.min <= 100 && hs.max == 200);
        }

        #[test]
        fn disconnected_handles_are_noops() {
            let c = CounterHandle::default();
            c.inc();
            assert_eq!(c.get(), 0);
            let g = GaugeHandle::default();
            g.set(9);
            assert_eq!(g.get(), 0);
            let h = HistogramHandle::default();
            h.record(5);
            assert_eq!(h.read().count(), 0);
        }
    }

    #[test]
    fn snapshot_json_round_trips() {
        let mut snap = Snapshot::default();
        snap.counters.insert("cluster.messages_in".into(), 10);
        snap.counters.insert("log.append".into(), 12);
        snap.gauges
            .insert("partition.high_watermark{tp=t-0}".into(), 9);
        snap.histograms.insert(
            "produce.bytes".into(),
            HistogramSummary {
                count: 3,
                sum: 300,
                min: 50,
                max: 200,
                p50: 99,
                p95: 198,
                p99: 198,
            },
        );
        let text = snap.to_json();
        let back = Snapshot::from_json(&text).expect("round trip parses");
        assert_eq!(back, snap);
    }

    #[test]
    fn from_json_rejects_malformed() {
        assert!(Snapshot::from_json("").is_none());
        assert!(Snapshot::from_json("[]").is_none());
        assert!(Snapshot::from_json("{\"counters\":{}}").is_none());
        assert!(
            Snapshot::from_json("{\"counters\":{\"a\":-1},\"gauges\":{},\"histograms\":{}}")
                .is_none()
        );
    }

    #[test]
    fn keys_with_quotes_escape() {
        let mut snap = Snapshot::default();
        snap.counters.insert("weird\"key\\n".into(), 1);
        let text = snap.to_json();
        let back = Snapshot::from_json(&text).expect("escaped key parses");
        assert_eq!(back, snap);
    }
}
