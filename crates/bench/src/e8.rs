//! E8 — §2.2: Lambda vs Kappa vs Liquid.
//!
//! The same per-key counting task under the three architectural
//! patterns, over identical data (100k history + 10k delta, 50 keys):
//! code paths to maintain, steady-state work per update cycle,
//! reprocessing cost after a logic change, and the staleness window.

use crate::report::{check, table_header, table_row};
use liquid::architectures::{run_kappa, run_lambda, run_liquid, ArchReport};

const HISTORY: u64 = 100_000;
const DELTA: u64 = 10_000;
const KEYS: u64 = 50;
const BATCH_CYCLES: u64 = 3;

fn row(name: &str, r: &ArchReport) -> Vec<String> {
    vec![
        name.to_string(),
        r.code_paths.to_string(),
        r.data_copies.to_string(),
        r.steady_state_work.to_string(),
        r.reprocess_work.to_string(),
        r.staleness_window.to_string(),
    ]
}

pub fn run() -> Result<(), String> {
    println!(
        "# E8: architectures compared ({HISTORY} history + {DELTA} delta, {KEYS} keys, \
         {BATCH_CYCLES} batch cycles)"
    );
    table_header(&[
        "architecture",
        "code paths",
        "data copies",
        "steady-state work",
        "reprocess work",
        "staleness (msgs)",
    ]);
    let lambda = run_lambda(HISTORY, DELTA, KEYS, BATCH_CYCLES);
    let kappa = run_kappa(HISTORY, DELTA, KEYS);
    let liquid = run_liquid(HISTORY, DELTA, KEYS);
    table_row(&row("Lambda", &lambda));
    table_row(&row("Kappa", &kappa));
    table_row(&row("Liquid", &liquid));
    println!();
    println!(
        "paper claim: Lambda doubles code and hardware (batch recomputes all\n\
         history every cycle); Kappa has one path but serves stale data during\n\
         replays; Liquid's steady state is incremental (delta only) with the\n\
         same single code path and source-of-truth log."
    );
    check(
        "Liquid's steady-state work equals the delta",
        liquid.steady_state_work == DELTA,
        format!("{} for a delta of {DELTA}", liquid.steady_state_work),
    )?;
    let paths = [lambda.code_paths, kappa.code_paths, liquid.code_paths];
    check(
        "code paths: Lambda 2, Kappa 1, Liquid 1",
        paths == [2, 1, 1],
        format!("Lambda/Kappa/Liquid {paths:?}"),
    )
}
