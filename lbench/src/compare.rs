//! `lbench compare <a.json> <b.json>`: two result files of `lbench
//! all` side by side. This is how the repeatability of the benchmark is
//! checked and how a later PR reads its before/after: `a` is the
//! parent, `b` the change.

use std::collections::BTreeMap;

use liquid_obs::json::Json;

use crate::spec::{self, Better};

type Results = BTreeMap<String, BTreeMap<String, f64>>;

fn load(path: &str) -> Result<Results, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = Json::parse(&text).ok_or_else(|| format!("{path}: not JSON"))?;
    let workloads = doc
        .as_object()
        .and_then(|o| o.get("workloads")?.as_object())
        .ok_or_else(|| format!("{path}: no \"workloads\" object"))?;
    let mut out = Results::new();
    for (workload, metrics) in workloads {
        let metrics = metrics
            .as_object()
            .ok_or_else(|| format!("{path}: {workload} is not an object"))?;
        let values = metrics
            .iter()
            .filter_map(|(name, v)| Some((name.clone(), v.as_f64()?)))
            .collect();
        out.insert(workload.clone(), values);
    }
    Ok(out)
}

/// By how much of `a` the metric got worse in `b` (negative: better).
fn worsening(better: Better, a: f64, b: f64) -> f64 {
    match better {
        Better::Higher => (a - b) / a,
        Better::Lower => (b - a) / a,
    }
}

/// Prints every (workload, metric) pair both files hold; returns
/// whether every end-to-end pair stayed within its bound.
pub fn compare(path_a: &str, path_b: &str) -> Result<bool, String> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    let mut within = true;
    println!(
        "{:<18} {:<46} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "a", "b", "worse by", "bound"
    );
    for w in spec::WORKLOADS {
        let (Some(ma), Some(mb)) = (a.get(w.name), b.get(w.name)) else {
            continue;
        };
        for m in spec::END_TO_END.iter().chain(spec::PER_LAYER) {
            let (Some(&va), Some(&vb)) = (ma.get(m.name), mb.get(m.name)) else {
                continue;
            };
            let worse = worsening(m.better, va, vb);
            let bounded = spec::end_to_end(m.name).is_some();
            let exceeded = bounded && worse > m.bound;
            within &= !exceeded;
            let bound = if bounded {
                format!("{:.0} %", m.bound * 100.0)
            } else {
                "-".to_string()
            };
            println!(
                "{:<18} {:<46} {va:>14.4} {vb:>14.4} {:>8.1}% {bound:>7}{}",
                w.name,
                m.name,
                worse * 100.0,
                if exceeded { "  EXCEEDED" } else { "" }
            );
        }
    }
    Ok(within)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worsening_follows_the_metric_direction() {
        assert!((worsening(Better::Higher, 100.0, 80.0) - 0.2).abs() < 1e-12);
        assert!((worsening(Better::Lower, 100.0, 80.0) + 0.2).abs() < 1e-12);
        assert!((worsening(Better::Lower, 50.0, 60.0) - 0.2).abs() < 1e-12);
    }
}
