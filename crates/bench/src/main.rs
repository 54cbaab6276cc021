//! `exp` — regenerates the Liquid paper's quantitative claims (Figure 1,
//! §4.1–§4.4, §5) and checks the shape of each one.
//!
//! ```text
//! cargo run --release -p liquid-bench --bin exp            # E1–E8 and E10
//! cargo run --release -p liquid-bench --bin exp e4 e6      # only these
//! ```
//!
//! Each experiment prints its table, then gates its verdict on the
//! columns that are deterministic (simulated costs, message counts,
//! losses, lags). Wall-clock columns are reported, not gated. The run
//! exits 1 naming every experiment and check that failed. E9's
//! consumer-group semantics are unit tests of `liquid-messaging`, and
//! its fan-out is `lbench`'s `tail_fanout` workload (EXPERIMENTS.md).

#![forbid(unsafe_code)]

use std::process::ExitCode;

mod e1;
mod e10;
mod e2;
mod e3;
mod e4;
mod e5;
mod e6;
mod e7;
mod e8;
mod report;

/// An experiment: prints its table, then checks its verdict.
type Experiment = fn() -> Result<(), String>;

/// Every experiment, in run order, by id.
const EXPERIMENTS: &[(&str, Experiment)] = &[
    ("e1", e1::run),
    ("e2", e2::run),
    ("e3", e3::run),
    ("e4", e4::run),
    ("e5", e5::run),
    ("e6", e6::run),
    ("e7", e7::run),
    ("e8", e8::run),
    ("e10", e10::run),
];

fn main() -> ExitCode {
    let wanted: Vec<String> = std::env::args()
        .skip(1)
        .map(|a| a.to_ascii_lowercase())
        .collect();
    if let Some(unknown) = wanted
        .iter()
        .find(|w| !EXPERIMENTS.iter().any(|(id, _)| id == w))
    {
        let ids: Vec<&str> = EXPERIMENTS.iter().map(|(id, _)| *id).collect();
        eprintln!(
            "exp: unknown experiment `{unknown}` (known: {})",
            ids.join(" ")
        );
        return ExitCode::from(2);
    }
    let mut failed = Vec::new();
    for (id, run) in EXPERIMENTS {
        if !wanted.is_empty() && !wanted.iter().any(|w| w == id) {
            continue;
        }
        if let Err(why) = run() {
            eprintln!("exp: {id} FAILED: {why}");
            failed.push(*id);
        }
        println!();
    }
    if failed.is_empty() {
        println!("exp: every check holds");
        ExitCode::SUCCESS
    } else {
        eprintln!("exp: failed: {}", failed.join(" "));
        ExitCode::FAILURE
    }
}
