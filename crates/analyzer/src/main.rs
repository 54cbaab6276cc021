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
                         or a lint name (e.g. hot-copy)"
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
                     reachable from fault-crate public APIs),\n\
                     unchecked-offset-arithmetic, lock-order (rank table from\n\
                     sim::lockdep::RANKS), fault-site (registry in sim::failure::SITES),\n\
                     obs-instrument, raw-thread, forbid-unsafe, hot-copy (no deep copy of\n\
                     payload bytes reachable from the produce/fetch hot path) and\n\
                     lint-allow. It writes nothing but its findings. Suppress a finding with a comment directive on or above the\n\
                     offending line:\n\
                     \n\
                     \x20   // lint:allow(<lint>, reason=<why this one is sound>)\n\
                     \n\
                     --deny        exit 1 when there are findings (CI mode)\n\
                     --json        machine-readable output: {{\"findings\":[...],\"count\":N}}\n\
                     --only <sel>  keep only findings under the given path prefix\n\
                     \x20             (e.g. --only crates/analyzer for the self-lint step)\n\
                     \x20             or of the given lint (e.g. --only hot-copy); an\n\
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
        Ok(mut findings) => {
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
