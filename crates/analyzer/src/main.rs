//! CLI entry point. `cargo run -p liquid-lint` from anywhere inside
//! the workspace lints the whole tree; `--deny` makes findings fatal
//! (CI mode); `--root <path>` overrides workspace discovery (used by
//! the fixture tests).

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut deny = false;
    let mut json = false;
    let mut only: Option<String> = None;
    let mut root: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--deny" => deny = true,
            "--json" => json = true,
            "--only" => match args.next() {
                Some(p) => only = Some(p),
                None => {
                    eprintln!(
                        "liquid-lint: --only requires a path prefix (e.g. crates/analyzer) \
                         or a lint name (e.g. shard)"
                    );
                    return ExitCode::from(2);
                }
            },
            "--root" => match args.next() {
                Some(p) => root = Some(PathBuf::from(p)),
                None => {
                    eprintln!("liquid-lint: --root requires a path");
                    return ExitCode::from(2);
                }
            },
            "-h" | "--help" => {
                println!(
                    "liquid-lint — project-specific static analysis for the Liquid workspace\n\
                     \n\
                     USAGE: liquid-lint [--deny] [--json] [--only <sel>] [--root <workspace>]\n\
                     \n\
                     Walks crates/*/src/**/*.rs, builds the AST → CFG → call-graph analysis\n\
                     IR, and enforces: panic-reachability (no panic/unwrap/unguarded indexing\n\
                     reachable from fault-crate public APIs), dropped-result,\n\
                     unchecked-offset-arithmetic, guard-liveness, panic, lock-order\n\
                     (rank table from sim::lockdep::RANKS), fault-site (registry in\n\
                     sim::failure::SITES), raw-io, raw-thread, forbid-unsafe, hot-copy\n\
                     (no deep copy of payload bytes reachable from the produce/fetch hot\n\
                     path), lock-cost (no I/O or nested ranked locks inside hot-path\n\
                     critical sections), shard (ranked guards classified partition-local /\n\
                     cross-partition / unknown; hot exclusive guards proven partition-local\n\
                     but not yet split are findings), atomicity (no stale use of\n\
                     guard-derived state across a drop/reacquire gap unless\n\
                     machine-validated; witness chains per finding). Every run writes the\n\
                     target/analysis/analysis.json lock report and, when\n\
                     ci/analysis-baseline.json exists, holds the report's per-rank census\n\
                     against it. Suppress a finding with a comment directive on or above\n\
                     the offending line:\n\
                     \n\
                     \x20   // lint:allow(<lint>, reason=<why this one is sound>)\n\
                     \n\
                     --deny        exit 1 when there are findings (CI mode)\n\
                     --json        machine-readable output: {{\"findings\":[...],\"count\":N}}\n\
                     --only <sel>  keep only findings under the given path prefix\n\
                     \x20             (e.g. --only crates/analyzer for the self-lint step)\n\
                     \x20             or of the given lint (e.g. --only shard); an\n\
                     \x20             unknown lint name is a usage error\n\
                     --root        workspace root (default: nearest ancestor with a\n\
                     \x20             crates/ dir)"
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("liquid-lint: unknown argument {other:?} (try --help)");
                return ExitCode::from(2);
            }
        }
    }
    // `--only` takes either a path prefix (anything with a `/`) or an
    // exact lint name; an unknown bare name is a usage error, not a
    // silent empty filter.
    if let Some(sel) = &only {
        if !sel.contains('/') && !liquid_lint::LINTS.contains(&sel.as_str()) {
            eprintln!(
                "liquid-lint: --only {sel:?} is neither a path prefix nor a known lint \
                 (known lints: {})",
                liquid_lint::LINTS.join(", ")
            );
            return ExitCode::from(2);
        }
    }

    let root = match root.or_else(find_root) {
        Some(r) => r,
        None => {
            eprintln!(
                "liquid-lint: could not find a workspace root (no crates/ directory here \
                 or above); pass --root <path>"
            );
            return ExitCode::from(2);
        }
    };

    match liquid_lint::analyze_root(&root) {
        Ok((mut findings, report)) => {
            // The lock report is a build artifact, not lint output:
            // written on every run, clean or not.
            let report_dir = root.join("target/analysis");
            let report_path = report_dir.join("analysis.json");
            if let Err(e) = std::fs::create_dir_all(&report_dir)
                .and_then(|()| std::fs::write(&report_path, report.to_json()))
            {
                eprintln!(
                    "liquid-lint: warning: could not write {}: {e}",
                    report_path.display()
                );
            }
            if let Some(sel) = &only {
                if sel.contains('/') {
                    findings.retain(|f| f.file.starts_with(sel.as_str()));
                } else {
                    findings.retain(|f| f.lint == sel.as_str());
                }
            }
            if json {
                println!("{}", render_json(&findings));
            } else if findings.is_empty() {
                println!("liquid-lint: clean");
            } else {
                for f in &findings {
                    println!("{f}");
                }
                println!("liquid-lint: {} finding(s)", findings.len());
            }
            // --deny semantics are identical across output formats.
            if deny && !findings.is_empty() {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        Err(e) => {
            eprintln!("liquid-lint: {e}");
            ExitCode::from(2)
        }
    }
}

/// `{"findings":[{"file":...,"line":N,"lint":...,"message":...}],
/// "count":N}` — hand-rolled (the build environment has no serde).
fn render_json(findings: &[liquid_lint::Finding]) -> String {
    let items: Vec<String> = findings
        .iter()
        .map(|f| {
            format!(
                "{{\"file\":\"{}\",\"line\":{},\"lint\":\"{}\",\"message\":\"{}\"}}",
                liquid_lint::json_escape(&f.file),
                f.line,
                liquid_lint::json_escape(f.lint),
                liquid_lint::json_escape(&f.message)
            )
        })
        .collect();
    format!(
        "{{\"findings\":[{}],\"count\":{}}}",
        items.join(","),
        findings.len()
    )
}

fn find_root() -> Option<PathBuf> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        if dir.join("crates").is_dir() && dir.join("Cargo.toml").is_file() {
            return Some(dir);
        }
        if !dir.pop() {
            return None;
        }
    }
}
