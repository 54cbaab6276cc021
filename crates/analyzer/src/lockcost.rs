//! Lint **lock-cost**: interprocedural critical-section cost audit of
//! every ranked lockdep guard, plus the machine-readable contention
//! report behind `target/analysis/lock-cost.json`.
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
//! Guard attribution then replays the [`HeldLocks`] may-analysis over
//! each function that acquires a ranked lock and charges every op —
//! and every resolved callee's summary at [`Op::Call`] — to the guards
//! live at that point.
//!
//! Counts are *static* (a call site counts once, however often the
//! loop around it spins), so the score is a ranking signal, not a
//! cycle count; `lbench`'s `firehose_*` workloads are the dynamic twin.
//!
//! Lint findings fire only for guards in the **hot** closure (the
//! [`HOT_ROOTS`] reachability shared with the hot-copy pass) that hold
//! across I/O or a nested ranked acquisition — the two shapes that
//! serialize the ≥5M msg/s path. Allocation/loop pressure is
//! report-only. The full per-guard table, hot or not, lands in the
//! JSON report sorted by static cost.
//!
//! [`HeldLocks`]: crate::rules::HeldLocks
//! [`Op::Tick`]: crate::cfg::Op::Tick
//! [`Op::Io`]: crate::cfg::Op::Io
//! [`Op::Alloc`]: crate::cfg::Op::Alloc
//! [`Op::Loop`]: crate::cfg::Op::Loop
//! [`Op::Call`]: crate::cfg::Op::Call
//! [`rules::LOCK_FIELDS`]: crate::rules::LOCK_FIELDS

use std::collections::{BTreeMap, BTreeSet, HashMap};

use crate::callgraph::{CallGraph, CallSite};
use crate::cfg::{self, Cfg, Op};
use crate::dataflow;
use crate::hotpath::HOT_ROOTS;
use crate::rules;
use crate::{Context, Finding, SourceData};

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
}

/// One ranked-guard acquire site with its attributed cost.
#[derive(Debug, Clone)]
pub struct GuardCost {
    /// Rank name (`cluster.state`, …).
    pub rank: &'static str,
    /// Rank order from `sim::lockdep::RANKS`.
    pub order: u32,
    /// Workspace-relative file of the acquire site.
    pub file: String,
    /// 1-based line of the acquire site.
    pub line: u32,
    /// Qualified name of the function holding the guard.
    pub function: String,
    /// Acquisition method (`lock`, `read`, `write`).
    pub method: String,
    /// Whether the holding function is in the hot-path closure.
    pub hot: bool,
    /// What runs while the guard may be live.
    pub cost: CostSummary,
}

impl GuardCost {
    /// Static contention score: I/O is the dominant serializer, nested
    /// locks second, loops third, allocations last.
    pub fn score(&self) -> u32 {
        self.cost.io * 8
            + (self.cost.nested.len() as u32) * 4
            + self.cost.loops * 2
            + self.cost.alloc
    }
}

/// The contention report: every ranked-guard acquire site in the
/// workspace, sorted by descending static cost.
#[derive(Debug, Default)]
pub struct LockCostReport {
    /// Per-site guard costs (sorted by [`GuardCost::score`], then rank
    /// name, file, line — fully deterministic).
    pub guards: Vec<GuardCost>,
}

impl LockCostReport {
    /// The set of rank names with at least one acquire site — the
    /// third copy of the rank table the drift test holds against
    /// `sim::lockdep::RANKS` and [`rules::LOCK_FIELDS`].
    pub fn inventory(&self) -> BTreeSet<&'static str> {
        self.guards.iter().map(|g| g.rank).collect()
    }

    /// Every acquire site as `(rank, file, line)` — the drift test
    /// holds this against the shardability report's sites, since both
    /// passes replay the same guard walk.
    pub fn sites(&self) -> BTreeSet<(&'static str, &str, u32)> {
        self.guards
            .iter()
            .map(|g| (g.rank, g.file.as_str(), g.line))
            .collect()
    }

    /// Renders the `lock-cost/v1` JSON document (hand-rolled — the
    /// build environment has no serde).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"schema\":\"lock-cost/v1\",\"guards\":[");
        for (i, g) in self.guards.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"rank\":\"{}\",\"order\":{},\"file\":\"{}\",\"line\":{},\
                 \"function\":\"{}\",\"method\":\"{}\",\"hot\":{},\
                 \"io\":{},\"alloc\":{},\"loops\":{},\"nested\":[{}],\"score\":{}}}",
                esc(g.rank),
                g.order,
                esc(&g.file),
                g.line,
                esc(&g.function),
                esc(&g.method),
                g.hot,
                g.cost.io,
                g.cost.alloc,
                g.cost.loops,
                g.cost
                    .nested
                    .iter()
                    .map(|r| format!("\"{}\"", esc(r)))
                    .collect::<Vec<_>>()
                    .join(","),
                g.score()
            ));
        }
        out.push_str("],\"ranks\":[");
        // Per-rank aggregation: the sharding work-list proper.
        let mut totals: BTreeMap<&'static str, (u32, u32, CostSummary)> = BTreeMap::new();
        for g in &self.guards {
            let entry = totals
                .entry(g.rank)
                .or_insert_with(|| (g.order, 0, CostSummary::default()));
            entry.1 += 1;
            entry.2.absorb(&g.cost);
        }
        let mut ranks: Vec<_> = totals.into_iter().collect();
        ranks.sort_by(|a, b| {
            let score =
                |c: &CostSummary| c.io * 8 + (c.nested.len() as u32) * 4 + c.loops * 2 + c.alloc;
            score(&b.1 .2).cmp(&score(&a.1 .2)).then(a.0.cmp(b.0))
        });
        for (i, (rank, (order, sites, cost))) in ranks.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let score = cost.io * 8 + (cost.nested.len() as u32) * 4 + cost.loops * 2 + cost.alloc;
            out.push_str(&format!(
                "{{\"rank\":\"{}\",\"order\":{},\"sites\":{},\"io\":{},\"alloc\":{},\
                 \"loops\":{},\"nested\":[{}],\"score\":{}}}",
                esc(rank),
                order,
                sites,
                cost.io,
                cost.alloc,
                cost.loops,
                cost.nested
                    .iter()
                    .map(|r| format!("\"{}\"", esc(r)))
                    .collect::<Vec<_>>()
                    .join(","),
                score
            ));
        }
        out.push_str("]}");
        out
    }
}

/// RFC 8259 string escape (subset: the characters our identifiers and
/// paths can contain).
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// One function body prepared for guard accounting.
struct FnBody {
    /// Index into `graph.fns`.
    id: usize,
    /// Workspace-relative file.
    rel: String,
    cfg: Cfg,
    /// `(rank, order)` per acquire site, `None` for unranked.
    site_rank: Vec<Option<(&'static str, u32)>>,
}

/// Runs the pass: appends lint findings to `out` and returns the full
/// contention report (empty when the tree has no rank table).
pub fn lock_cost(
    ctx: &Context,
    graph: &CallGraph,
    files: &[SourceData],
    out: &mut Vec<Finding>,
) -> LockCostReport {
    let Some(ranks) = &ctx.ranks else {
        return LockCostReport::default();
    };
    let order_of = |rank: &str| {
        ranks
            .entries
            .iter()
            .find(|(n, _)| n == rank)
            .map(|(_, o)| *o)
    };

    let mut by_site: HashMap<(&str, u32, &str), usize> = HashMap::new();
    for (i, f) in graph.fns.iter().enumerate() {
        by_site.insert((f.file.as_str(), f.line, f.name.as_str()), i);
    }

    // Lower every non-test function once; keep the CFGs (guard
    // accounting needs them, and the own-summary pass reads them).
    let mut bodies: Vec<FnBody> = Vec::new();
    for file in files {
        let Some(ast) = &file.ast else { continue };
        let fields = rules::ranked_fields(&file.rel);
        rules::for_each_fn(&ast.items, &mut |f| {
            let Some(&id) = by_site.get(&(file.rel.as_str(), f.line, f.name.as_str())) else {
                return;
            };
            if graph.fns[id].in_test || f.body.is_none() {
                return;
            }
            let g = cfg::lower_fn(f);
            let site_rank = rules::site_ranks(&g, &fields, &order_of);
            bodies.push(FnBody {
                id,
                rel: file.rel.clone(),
                cfg: g,
                site_rank,
            });
        });
    }

    // Phase 1: each function's own cost.
    let mut own: Vec<CostSummary> = (0..graph.fns.len())
        .map(|_| CostSummary::default())
        .collect();
    for b in &bodies {
        let s = &mut own[b.id];
        for blk in &b.cfg.blocks {
            for op in &blk.ops {
                match op {
                    Op::Io { .. } | Op::Tick { .. } => s.io = (s.io + 1).min(CAP),
                    Op::Alloc { .. } => s.alloc = (s.alloc + 1).min(CAP),
                    Op::Loop { .. } => s.loops = (s.loops + 1).min(CAP),
                    Op::Acquire(i) => {
                        if let Some((rank, _)) = b.site_rank[*i] {
                            s.nested.insert(rank);
                        }
                    }
                    _ => {}
                }
            }
        }
    }

    // Phase 2: summary fixpoint over the call graph. summary[f] =
    // own[f] + Σ summary[callee]; counts are capped and the rank set
    // is finite, so the ascent terminates through cycles.
    let mut summary = own.clone();
    loop {
        let mut changed = false;
        for i in 0..graph.fns.len() {
            let mut s = own[i].clone();
            for &t in &graph.edges[i] {
                let callee = summary[t].clone();
                s.absorb(&callee);
            }
            if s != summary[i] {
                summary[i] = s;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    // Phase 3: per-guard attribution via the HeldLocks replay.
    let reach = graph.reach_from_named(HOT_ROOTS);
    let mut report = LockCostReport::default();
    for b in &bodies {
        if !b.site_rank.iter().any(Option::is_some) {
            continue;
        }
        let analysis = rules::HeldLocks {
            acquires: &b.cfg.acquires,
        };
        let held = dataflow::solve(&b.cfg, &analysis);
        let mut costs: Vec<CostSummary> = (0..b.cfg.acquires.len())
            .map(|_| CostSummary::default())
            .collect();
        for blk in 0..b.cfg.blocks.len() {
            dataflow::walk_ops(&b.cfg, &analysis, &held, blk, |_, op, live| {
                if live.is_empty() {
                    return;
                }
                let mut delta = CostSummary::default();
                match op {
                    Op::Io { .. } | Op::Tick { .. } => delta.io = 1,
                    Op::Alloc { .. } => delta.alloc = 1,
                    Op::Loop { .. } => delta.loops = 1,
                    Op::Acquire(j) => {
                        if let Some((rank, _)) = b.site_rank[*j] {
                            delta.nested.insert(rank);
                        }
                    }
                    Op::Call {
                        name,
                        arity,
                        is_method,
                        qual,
                        line,
                        ..
                    } => {
                        let site = CallSite {
                            name: name.clone(),
                            arity: *arity,
                            is_method: *is_method,
                            qual: qual.clone(),
                            line: *line,
                        };
                        for t in graph.resolve(b.id, &site) {
                            delta.absorb(&summary[t]);
                        }
                    }
                    _ => return,
                }
                if delta == CostSummary::default() {
                    return;
                }
                for &h in live.iter() {
                    if b.site_rank[h].is_some() {
                        costs[h].absorb(&delta);
                    }
                }
            });
        }
        for (i, site) in b.cfg.acquires.iter().enumerate() {
            let Some((rank, order)) = b.site_rank[i] else {
                continue;
            };
            report.guards.push(GuardCost {
                rank,
                order,
                file: b.rel.clone(),
                line: site.line,
                function: graph.fns[b.id].qualified(),
                method: site.method.clone(),
                hot: reach.reachable[b.id],
                cost: costs[i].clone(),
            });
        }
    }
    report.guards.sort_by(|a, b| {
        b.score()
            .cmp(&a.score())
            .then(a.rank.cmp(b.rank))
            .then(a.file.cmp(&b.file))
            .then(a.line.cmp(&b.line))
    });

    // Findings: hot-path guards held across I/O or a nested ranked
    // acquisition. Alloc/loop pressure is report-only.
    for g in &report.guards {
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
                 the lock (full ranking: target/analysis/lock-cost.json)",
                g.rank,
                g.order,
                g.method,
                what.join(" and ")
            ),
        });
    }
    report
}
