//! `lbench` — the Liquid benchmark. See README.md.
//!
//! ```text
//! lbench --workload <name> --seed <n> --seconds <s> --trace <0|1>   one run (BENCHMARK.json's command)
//! lbench all [--seed n] [--seconds s] [--quick] [--out file]        every workload, untraced then traced
//! lbench trace [<workload>] [--seed n] [--seconds s]                traced run(s), 5 s windows
//! lbench compare <a.json> <b.json>                                  two result files against the bounds
//! lbench explain                                                    definitions and the interaction table
//! lbench manifest                                                   BENCHMARK.json as `spec.rs` defines it
//! ```

mod compare;
mod gen;
mod ladder;
mod run;
mod span;
mod spec;
mod speed;
mod stats;
mod sut;
mod window;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use liquid_obs::json::{write_str, Json};

use run::{Options, Report};

/// Where run artefacts go: the build's target directory.
fn out_dir() -> PathBuf {
    PathBuf::from(std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into()))
        .join("lbench")
}

/// The contract's result line.
fn result_line(report: &Report) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        report.violations.is_empty(),
        report.attempted,
        report.failed
    );
    for (i, (name, value, unit)) in report.metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        write_str(&mut out, name);
        out.push_str(&format!(": {{\"value\": {value:?}, \"unit\": "));
        write_str(&mut out, unit);
        out.push('}');
    }
    out.push_str("}}");
    out
}

/// Prints every metric by name with its unit, the ladder's "added by
/// this layer" column, any violations, and last the result line.
fn print_report(workload: &str, report: &Report) {
    println!("# {workload}");
    for (name, value, unit) in &report.metrics {
        println!("{name:<46} {value:>16.4} {unit}");
    }
    let value_of = |name: &str| {
        report
            .metrics
            .iter()
            .find(|(n, _, _)| *n == name)
            .map(|m| m.1)
    };
    if value_of(ladder::RUNGS[0].name).is_some() {
        println!("# ladder: ns per record, and what each layer adds to the rungs below it");
        for rung in ladder::RUNGS {
            let ns = value_of(rung.name).unwrap_or(0.0);
            let below: f64 = rung.below.iter().filter_map(|b| value_of(b)).sum();
            println!("{:<46} {ns:>12.1} {:>+12.1}", rung.name, ns - below);
        }
    }
    for v in &report.violations {
        println!("VIOLATION {workload}: {v}");
    }
    println!("{}", result_line(report));
}

struct Args(Vec<String>);

impl Args {
    /// Removes `--name value` and returns the value.
    fn value(&mut self, name: &str) -> Option<String> {
        let at = self.0.iter().position(|a| a == name)?;
        (at + 1 < self.0.len()).then(|| {
            self.0.remove(at);
            self.0.remove(at)
        })
    }

    fn number<T: std::str::FromStr>(&mut self, name: &str, default: T) -> Result<T, String> {
        match self.value(name) {
            Some(v) => v.parse().map_err(|_| format!("{name}: not a number: {v}")),
            None => Ok(default),
        }
    }

    fn flag(&mut self, name: &str) -> bool {
        let at = self.0.iter().position(|a| a == name);
        at.map(|at| self.0.remove(at)).is_some()
    }
}

fn run_one(opts: &Options) -> Result<bool, String> {
    let trace_path = out_dir().join(format!("trace-{}.json", opts.workload));
    let report = if opts.trace {
        run::traced(opts, &trace_path)
    } else {
        run::untraced(opts)
    }
    .ok_or_else(|| format!("unknown workload {}", opts.workload))?;
    print_report(&opts.workload, &report);
    Ok(report.violations.is_empty())
}

/// Runs one workload in a process of its own (fresh allocator, clean
/// `VmHWM`) and returns its parsed result line.
fn run_child(opts: &Options) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = std::process::Command::new(exe);
    cmd.args(["--workload", &opts.workload])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if opts.trace { "1" } else { "0" }]);
    if opts.quick {
        cmd.arg("--quick");
    }
    let output = cmd
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    let result = stdout.lines().last().and_then(Json::parse);
    match result {
        Some(json) if output.status.success() => Ok(json),
        _ => Err(format!(
            "{} (trace {}) failed: {}",
            opts.workload, opts.trace as u8, output.status
        )),
    }
}

/// Every workload, untraced then traced; one result file for `compare`.
fn run_all(args: &mut Args, only: Option<String>, traced_only: bool) -> Result<bool, String> {
    let quick = args.flag("--quick");
    let default_seconds = match (quick, traced_only) {
        (true, _) => 0.5,
        (false, true) => 5.0,
        (false, false) => 10.0,
    };
    let seed = args.number("--seed", 1)?;
    let seconds = args.number("--seconds", default_seconds)?;
    let out = args
        .value("--out")
        .map_or_else(|| out_dir().join("results.json"), PathBuf::from);
    let mut doc = format!("{{\"seed\": {seed}, \"seconds\": {seconds:?}, \"workloads\": {{");
    let mut ok = true;
    let names = spec::WORKLOADS
        .iter()
        .map(|w| w.name)
        .filter(|n| only.as_deref().is_none_or(|o| o == *n));
    for (i, name) in names.enumerate() {
        let mut metrics = Vec::new();
        for trace in [false, true] {
            if traced_only && !trace {
                continue;
            }
            let opts = Options {
                workload: name.to_string(),
                seed,
                seconds,
                trace,
                quick,
            };
            match run_child(&opts) {
                Ok(json) => metrics.push(json),
                Err(e) => {
                    eprintln!("{e}");
                    ok = false;
                }
            }
        }
        if i > 0 {
            doc.push(',');
        }
        doc.push_str(&format!("\n\"{name}\": {{"));
        let mut first = true;
        for json in &metrics {
            let Some(map) = json.as_object().and_then(|o| o["metrics"].as_object()) else {
                continue;
            };
            for (metric, entry) in map {
                let value = entry.as_object().and_then(|e| e["value"].as_f64());
                doc.push_str(if first { "" } else { ", " });
                first = false;
                write_str(&mut doc, metric);
                doc.push_str(&format!(": {:?}", value.unwrap_or(f64::NAN)));
            }
        }
        doc.push('}');
    }
    doc.push_str("\n}}\n");
    if let Some(dir) = out.parent() {
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    }
    std::fs::write(&out, doc).map_err(|e| format!("{}: {e}", out.display()))?;
    eprintln!("results written to {}", out.display());
    Ok(ok)
}

/// `BENCHMARK.json` as `spec.rs` defines it.
fn manifest() {
    let quoted = |s: &str| {
        let mut q = String::new();
        write_str(&mut q, s);
        q
    };
    let metric = |m: &spec::MetricSpec| {
        format!(
            "\"name\": {}, \"unit\": {}, \"better\": {}",
            quoted(m.name),
            quoted(m.unit),
            quoted(m.better.as_str())
        )
    };
    let list = |rows: Vec<String>| format!("[\n    {{{}}}\n  ]", rows.join("},\n    {"));
    let workloads = spec::WORKLOADS
        .iter()
        .map(|w| format!("\"name\": {}, \"why\": {}", quoted(w.name), quoted(w.why)));
    let end_to_end = spec::END_TO_END
        .iter()
        .map(|m| format!("{}, \"bound\": {}", metric(m), m.bound));
    println!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"lbench/Cargo.toml\", \"--\"],\n  \"paths\": [\"lbench\"],\n  \
         \"run_seconds\": 10,\n  \"workloads\": {},\n  \"end_to_end\": {},\n  \"per_layer\": {}\n}}",
        list(workloads.collect()),
        list(end_to_end.collect()),
        list(spec::PER_LAYER.iter().map(metric).collect()),
    );
}

fn dispatch(mut args: Args) -> Result<bool, String> {
    let command = match args.0.first() {
        Some(first) if !first.starts_with("--") => args.0.remove(0),
        _ => String::new(),
    };
    let ok = match command.as_str() {
        "" => {
            let workload = args
                .value("--workload")
                .ok_or("usage: lbench --workload <name> --seed <n> --seconds <s> --trace <0|1>, or lbench all|trace|compare|explain")?;
            let opts = Options {
                workload,
                seed: args.number("--seed", 1)?,
                seconds: args.number("--seconds", 10.0)?,
                trace: args.number::<u8>("--trace", 0)? != 0,
                quick: args.flag("--quick"),
            };
            run_one(&opts)?
        }
        "all" => run_all(&mut args, None, false)?,
        "trace" => {
            let only = match args.0.first() {
                Some(first) if !first.starts_with("--") => Some(args.0.remove(0)),
                _ => None,
            };
            if let Some(name) = &only {
                spec::workload(name).ok_or_else(|| format!("unknown workload {name}"))?;
            }
            run_all(&mut args, only, true)?
        }
        "compare" => {
            if args.0.len() != 2 {
                return Err("usage: lbench compare <a.json> <b.json>".into());
            }
            let (a, b) = (args.0.remove(0), args.0.remove(0));
            compare::compare(&a, &b)?
        }
        "explain" => {
            spec::explain();
            true
        }
        "manifest" => {
            manifest();
            true
        }
        other => return Err(format!("unknown command {other}")),
    };
    match args.0.as_slice() {
        [] => Ok(ok),
        extra => Err(format!("unexpected arguments: {extra:?}")),
    }
}

fn main() -> ExitCode {
    match dispatch(Args(std::env::args().skip(1).collect())) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("lbench: {e}");
            ExitCode::from(2)
        }
    }
}
