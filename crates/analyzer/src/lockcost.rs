//! Lint **lock-cost**: interprocedural critical-section cost audit of
//! every ranked lockdep guard — the cost columns of the
//! `target/analysis/analysis.json` report.
//!
//! ROADMAP item 4 (per-partition lock sharding) needs a work-list:
//! which guards are expensive, and what exactly runs while they are
//! held? This pass computes, for every acquire site of a ranked lock
//! ([`rules::LOCK_FIELDS`] × `sim::lockdep::RANKS`), the
//! interprocedural set of operations executed while the guard may be
//! live:
//!
//! * **I/O** — injectable fault ticks ([`Op::Tick`]) and raw
//!   filesystem calls ([`Op::Io`]): schedule points that park every
//!   contender under liquid-check and stall them under chaos.
//! * **Allocations** ([`Op::Alloc`]) — `to_vec`/`collect`/
//!   `with_capacity`/`vec!`/`format!` &co.: heap churn that widens the
//!   section.
//! * **Loops** ([`Op::Loop`]) — statically unbounded iteration over
//!   partitions/records under the guard.
//! * **Nested ranked acquisitions** — taking another ranked lock while
//!   this one is held (legal when descending, but every nesting is
//!   contention the sharding refactor must untangle).
//!
//! The analysis is a fixpoint over **per-function summaries**: each
//! function's own op counts plus the (capped) sums of its callees'
//! summaries, iterated over the workspace call graph until stable —
//! never inlining, so recursion and diamond call shapes cost nothing.
//! The shared guard walk then charges every op executed while a guard
//! may be live — and every resolved callee's summary at [`Op::Call`] —
//! to the guards live at that point.
//!
//! Counts are *static* (a call site counts once, however often the
//! loop around it spins), so the score is a ranking signal, not a
//! cycle count; `lbench`'s `firehose_*` workloads are the dynamic twin.
//!
//! Lint findings fire only for guards in the **hot** closure (the
//! [`HOT_ROOTS`] reachability shared with the hot-copy pass) that hold
//! across I/O or a nested ranked acquisition — the two shapes that
//! serialize the ≥5M msg/s path. Allocation/loop pressure is
//! report-only: every guard, hot or not, lands in the report, ranked
//! by static cost.
//!
//! [`HOT_ROOTS`]: crate::hotpath::HOT_ROOTS
//! [`Op::Tick`]: crate::cfg::Op::Tick
//! [`Op::Io`]: crate::cfg::Op::Io
//! [`Op::Alloc`]: crate::cfg::Op::Alloc
//! [`Op::Loop`]: crate::cfg::Op::Loop
//! [`Op::Call`]: crate::cfg::Op::Call
//! [`rules::LOCK_FIELDS`]: crate::rules::LOCK_FIELDS

use std::collections::BTreeSet;

use crate::cfg::Op;
use crate::guards::{Body, Core, GuardRecord};
use crate::Finding;

/// Cap on every additive counter: keeps the summary lattice finite so
/// the fixpoint terminates through recursion cycles, while staying far
/// above any real count.
const CAP: u32 = 1_000;

/// What one function (or one guard's critical section) statically
/// executes.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CostSummary {
    /// Injectable fault ticks + raw filesystem calls.
    pub io: u32,
    /// Heap allocations.
    pub alloc: u32,
    /// Loop entries.
    pub loops: u32,
    /// Ranked locks acquired (rank names).
    pub nested: BTreeSet<&'static str>,
}

impl CostSummary {
    /// Adds `other` into `self` (capped counts, unioned rank set).
    fn absorb(&mut self, other: &CostSummary) {
        self.io = (self.io + other.io).min(CAP);
        self.alloc = (self.alloc + other.alloc).min(CAP);
        self.loops = (self.loops + other.loops).min(CAP);
        self.nested.extend(other.nested.iter().copied());
    }

    /// Static contention score: I/O is the dominant serializer, nested
    /// locks second, loops third, allocations last.
    pub fn score(&self) -> u32 {
        self.io * 8 + (self.nested.len() as u32) * 4 + self.loops * 2 + self.alloc
    }
}

/// What `op` itself executes (a call's callees excluded).
fn op_cost(body: &Body, op: &Op) -> CostSummary {
    let mut c = CostSummary::default();
    match op {
        Op::Io { .. } | Op::Tick { .. } => c.io = 1,
        Op::Alloc { .. } => c.alloc = 1,
        Op::Loop { .. } => c.loops = 1,
        Op::Acquire(i) => c.nested.extend(body.site_rank[*i].map(|(rank, _)| rank)),
        _ => {}
    }
    c
}

/// Per-function summaries: summary[f] = own[f] + Σ summary[callee],
/// iterated over the call graph until stable. Counts are capped and the
/// rank set is finite, so the ascent terminates through cycles.
pub(crate) fn summaries(core: &Core) -> Vec<CostSummary> {
    let graph = core.graph;
    let mut own = vec![CostSummary::default(); graph.fns.len()];
    for b in &core.bodies {
        for op in b.ops() {
            own[b.id].absorb(&op_cost(b, op));
        }
    }
    let mut summary = own.clone();
    loop {
        let mut changed = false;
        for i in 0..graph.fns.len() {
            let mut s = own[i].clone();
            for &t in &graph.edges[i] {
                s.absorb(&summary[t]);
            }
            if s != summary[i] {
                summary[i] = s;
                changed = true;
            }
        }
        if !changed {
            return summary;
        }
    }
}

/// Evidence function: charges what `op` executes — its own cost plus
/// every resolved callee's summary — to each ranked guard in `live`.
pub(crate) fn visit(
    core: &Core,
    summaries: &[CostSummary],
    body: &Body,
    op: &Op,
    live: &BTreeSet<usize>,
    costs: &mut [CostSummary],
) {
    if live.is_empty() {
        return;
    }
    let mut delta = op_cost(body, op);
    for t in core.callees(body, op) {
        delta.absorb(&summaries[t]);
    }
    if delta == CostSummary::default() {
        return;
    }
    for &h in live {
        if body.site_rank[h].is_some() {
            costs[h].absorb(&delta);
        }
    }
}

/// Findings: hot-path guards held across I/O or a nested ranked
/// acquisition. Alloc/loop pressure is report-only.
pub(crate) fn findings(guards: &[GuardRecord], out: &mut Vec<Finding>) {
    for g in guards {
        if !g.hot || (g.cost.io == 0 && g.cost.nested.is_empty()) {
            continue;
        }
        let mut what = Vec::new();
        if g.cost.io > 0 {
            what.push(format!("{} injectable I/O op(s)", g.cost.io));
        }
        if !g.cost.nested.is_empty() {
            what.push(format!(
                "nested ranked acquisition(s) of {}",
                g.cost
                    .nested
                    .iter()
                    .map(|r| format!("\"{r}\""))
                    .collect::<Vec<_>>()
                    .join(", ")
            ));
        }
        out.push(Finding {
            file: g.file.clone(),
            line: g.line,
            lint: "lock-cost",
            message: format!(
                "hot-path critical section of \"{}\" (order {}, .{}()) statically executes {} \
                 while the guard is live — shrink the section, drop the guard first, or shard \
                 the lock (full ranking: target/analysis/analysis.json)",
                g.rank,
                g.order,
                g.method,
                what.join(" and ")
            ),
        });
    }
}
