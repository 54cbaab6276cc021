//! The shared guard core behind the interprocedural lock passes, and
//! the one `analysis/v1` report they fill.
//!
//! [`lockcost`], [`shard`] and [`atomicity`] all ask about the same
//! thing — what runs while a ranked lockdep guard
//! ([`rules::LOCK_FIELDS`] × `sim::lockdep::RANKS`) may be live — and
//! [`hotpath`] walks the same call-graph closure. This module builds
//! what they share once per run:
//!
//! * every non-test function lowered to its CFG, paired with its
//!   call-graph node, its acquire sites ranked
//!   ([`rules::site_ranks`]);
//! * the [`HOT_ROOTS`] reach;
//! * the two generic interprocedural fixpoints: [`Core::param_taint`]
//!   (parameter taint from a seed-name predicate: hot-copy's payload
//!   names, shard's partition keys) and [`Core::lift`] (callee evidence
//!   lifted to callers with a witness chain capped at [`CHAIN_CAP`]
//!   hops: shard's cross-partition poison, atomicity's parameter
//!   consults).
//!
//! [`analyze`] then solves one forward guard-state dataflow per
//! function with a ranked acquire site — the held-lock set plus
//! atomicity's guard taint ([`atomicity::GapState`]) — and replays it
//! once, handing each op and the guards live before it to the three
//! evidence functions. Their answers land in one [`GuardRecord`] per
//! acquire site.
//!
//! The [`Report`] renders as `target/analysis/analysis.json`: a per-rank
//! census, one row per line, then every guard record. When
//! [`BASELINE`] exists under the root, every run holds the census
//! against it ([`Report::check_baseline`]).
//!
//! [`lockcost`]: crate::lockcost
//! [`shard`]: crate::shard
//! [`atomicity`]: crate::atomicity
//! [`hotpath`]: crate::hotpath
//! [`rules::LOCK_FIELDS`]: crate::rules::LOCK_FIELDS
//! [`rules::site_ranks`]: crate::rules::site_ranks

use std::collections::{BTreeMap, BTreeSet, HashMap};

use crate::callgraph::{CallGraph, CallSite, Reachability};
use crate::cfg::{self, Cfg, Op};
use crate::hotpath::{self, HOT_ROOTS};
use crate::{atomicity, dataflow, json_escape, lockcost, rules, shard};
use crate::{Context, Finding, SourceData};

/// Cap on the hops of a callee-carried witness chain.
pub(crate) const CHAIN_CAP: usize = 6;

/// Cap on witness entries per guard: enough to audit, small enough to
/// keep the report readable.
pub(crate) const WITNESS_CAP: usize = 4;

/// The checked-in census, relative to the workspace root.
pub(crate) const BASELINE: &str = "ci/analysis-baseline.json";

/// The one command that rewrites [`BASELINE`] from the current tree:
/// the report minus its guard rows (every guard row names a file, no
/// census row does).
const REFRESH: &str = "cargo run -q -p liquid-lint && grep -v '\"file\":' \
                           target/analysis/analysis.json > ci/analysis-baseline.json";

/// The census columns after `rank`, grouped under the lint that owns
/// them: baseline drift in a group is a finding of that lint.
const CENSUS_LINTS: &[(&str, &[&str])] = &[
    ("lock-cost", &["order", "sites"]),
    ("shard", &["local", "cross", "unknown"]),
    (
        "atomicity",
        &["gaps", "validated", "stale", "gap_unknown", "gap_verdict"],
    ),
];

/// One non-test function body, lowered once per run.
pub(crate) struct Body {
    /// Index into `graph.fns`.
    pub(crate) id: usize,
    /// Workspace-relative file.
    pub(crate) rel: String,
    pub(crate) cfg: Cfg,
    /// `(rank, order)` per acquire site, `None` for unranked.
    pub(crate) site_rank: Vec<Option<(&'static str, u32)>>,
    /// Parameter binding names, `self` included.
    pub(crate) params: Vec<String>,
}

impl Body {
    /// Every op, in block order.
    pub(crate) fn ops(&self) -> impl Iterator<Item = &Op> {
        self.cfg.blocks.iter().flat_map(|b| &b.ops)
    }
}

/// Evidence a function carries for its callers: the access plus the
/// `qualified (file:line)` hop chain leading to it.
#[derive(Debug, Clone)]
pub(crate) struct Evidence {
    pub(crate) access: String,
    pub(crate) chain: Vec<String>,
    /// Whether the chain hit [`CHAIN_CAP`] and was cut.
    pub(crate) truncated: bool,
}

/// What the passes share: the call graph, every lowered body and the
/// hot-path reach.
pub(crate) struct Core<'a> {
    pub(crate) graph: &'a CallGraph,
    pub(crate) bodies: Vec<Body>,
    pub(crate) hot: Reachability,
}

impl<'a> Core<'a> {
    fn build(ctx: &Context, graph: &'a CallGraph, files: &[SourceData]) -> Self {
        let order_of = |rank: &str| ctx.ranks.as_ref()?.order_of(rank);
        let by_site: HashMap<(&str, u32, &str), usize> = graph
            .fns
            .iter()
            .enumerate()
            .map(|(i, f)| ((f.file.as_str(), f.line, f.name.as_str()), i))
            .collect();
        let mut bodies = Vec::new();
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
                let mut params = Vec::new();
                for p in &f.params {
                    p.pat.bound_names(&mut params);
                }
                let cfg = cfg::lower_fn(f);
                let site_rank = rules::site_ranks(&cfg, &fields, &order_of);
                bodies.push(Body {
                    id,
                    rel: file.rel.clone(),
                    cfg,
                    site_rank,
                    params,
                });
            });
        }
        Core {
            graph,
            bodies,
            hot: graph.reach_from_named(HOT_ROOTS),
        }
    }

    /// One witness-chain hop: `qualified (file:line)`.
    pub(crate) fn hop(&self, body: &Body, line: u32) -> String {
        format!(
            "{} ({}:{line})",
            self.graph.fns[body.id].qualified(),
            body.rel
        )
    }

    /// The workspace functions a call op may resolve to (none for any
    /// other op).
    pub(crate) fn callees(&self, body: &Body, op: &Op) -> Vec<usize> {
        let Op::Call {
            name,
            arity,
            is_method,
            qual,
            line,
            ..
        } = op
        else {
            return Vec::new();
        };
        let site = CallSite {
            name: name.clone(),
            arity: *arity,
            is_method: *is_method,
            qual: qual.clone(),
            line: *line,
        };
        self.graph.resolve(body.id, &site)
    }

    /// Interprocedural parameter taint: a call inside `scope` whose
    /// receiver or argument names are tainted ([`seeded`]) taints the
    /// parameters of every callee in `scope` that has any. Monotone
    /// (flags only flip false→true), so it terminates in at most |fns|
    /// rounds.
    pub(crate) fn param_taint(
        &self,
        seed: &dyn Fn(&str) -> bool,
        scope: &dyn Fn(usize) -> bool,
    ) -> Vec<bool> {
        let mut taint = vec![false; self.graph.fns.len()];
        loop {
            let mut changed = false;
            for body in self.bodies.iter().filter(|b| scope(b.id)) {
                let local = seeded(body, seed, taint[body.id]);
                for op in body.ops() {
                    let Op::Call {
                        recv_names,
                        arg_names,
                        ..
                    } = op
                    else {
                        continue;
                    };
                    if !recv_names
                        .iter()
                        .chain(arg_names)
                        .any(|n| seed(n) || local.contains(n))
                    {
                        continue;
                    }
                    for t in self.callees(body, op) {
                        if scope(t) && self.graph.fns[t].arity > 0 && !taint[t] {
                            taint[t] = true;
                            changed = true;
                        }
                    }
                }
            }
            if !changed {
                return taint;
            }
        }
    }

    /// Lifts callee evidence to callers until stable. A body (by index,
    /// within `scope`) with no evidence of its own inherits it from the
    /// first resolved callee that has some, at the first call site that
    /// `carries` it (given the site's receiver and argument names), its
    /// own hop prepended. A callee chain already [`CHAIN_CAP`] hops long
    /// is skipped, or — with `truncate` — cut and flagged.
    pub(crate) fn lift<F>(
        &self,
        ev: &mut [Option<Evidence>],
        truncate: bool,
        scope: &dyn Fn(usize) -> bool,
        carries: F,
    ) where
        F: Fn(usize, &[String], &[String]) -> bool,
    {
        loop {
            let mut changed = false;
            for (bi, body) in self.bodies.iter().enumerate() {
                if ev[body.id].is_some() || !scope(bi) {
                    continue;
                }
                'calls: for op in body.ops() {
                    let Op::Call {
                        recv_names,
                        arg_names,
                        line,
                        ..
                    } = op
                    else {
                        continue;
                    };
                    if !carries(bi, recv_names, arg_names) {
                        continue;
                    }
                    for t in self.callees(body, op) {
                        let Some(w) = &ev[t] else { continue };
                        if !truncate && w.chain.len() >= CHAIN_CAP {
                            continue;
                        }
                        let mut chain = vec![self.hop(body, *line)];
                        chain.extend(w.chain.iter().take(CHAIN_CAP - 1).cloned());
                        let lifted = Evidence {
                            access: w.access.clone(),
                            chain,
                            truncated: w.truncated || w.chain.len() >= CHAIN_CAP,
                        };
                        ev[body.id] = Some(lifted);
                        changed = true;
                        break 'calls;
                    }
                }
            }
            if !changed {
                return;
            }
        }
    }
}

/// The flow-insensitive closure of `set` over one function's
/// assignments: every binding whose initializer `taints` (given its
/// right-hand names and the closure so far) joins it, to fixpoint.
pub(crate) fn closure(
    cfg: &Cfg,
    mut set: BTreeSet<String>,
    taints: &dyn Fn(&[String], &BTreeSet<String>) -> bool,
) -> BTreeSet<String> {
    loop {
        let mut changed = false;
        for op in cfg.blocks.iter().flat_map(|b| &b.ops) {
            if let Op::Assign { to, froms, .. } = op {
                if !set.contains(to) && taints(froms, &set) {
                    set.insert(to.clone());
                    changed = true;
                }
            }
        }
        if !changed {
            return set;
        }
    }
}

/// The names tainted inside `body` besides the seed names themselves:
/// the closure over assignments of the seeds, starting from every
/// parameter when the caller-side fixpoint tainted them.
pub(crate) fn seeded(
    body: &Body,
    seed: &dyn Fn(&str) -> bool,
    params_tainted: bool,
) -> BTreeSet<String> {
    let init = if params_tainted {
        body.params.iter().cloned().collect()
    } else {
        BTreeSet::new()
    };
    closure(&body.cfg, init, &|froms, set| {
        froms.iter().any(|n| seed(n) || set.contains(n))
    })
}

/// One witness: an access a verdict rests on.
#[derive(Debug, Clone)]
pub struct WitnessAccess {
    /// What kind of evidence (`partition-key`, `cross-collection`,
    /// `reacquire`, `carried`, `stale-read`, `opaque`).
    pub kind: &'static str,
    /// What was accessed (`` `tp` ``, `` `topics` ``, a carried binding).
    pub access: String,
    /// `file:line` hop chain from the guard-holding function to the
    /// access.
    pub chain: String,
}

/// One ranked-guard acquire site with every pass's answer.
#[derive(Debug, Clone)]
pub struct GuardRecord {
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
    /// What runs while the guard may be live (lock-cost).
    pub cost: lockcost::CostSummary,
    /// Shardability verdict.
    pub shard: shard::Verdict,
    /// The accesses the shard verdict rests on (capped).
    pub shard_witness: Vec<WitnessAccess>,
    /// Whether any value derived from this guard crosses its drop into
    /// a later ranked critical section (atomicity).
    pub gap: bool,
    /// Worst classification over the gap-crossing uses.
    pub gap_verdict: atomicity::Verdict,
    /// The uses the gap verdict rests on (capped).
    pub gap_witness: Vec<WitnessAccess>,
}

/// The lock analysis report: every ranked-guard acquire site in the
/// workspace.
#[derive(Debug, Default)]
pub struct Report {
    /// Per-site records, by descending static cost score, then rank
    /// name, file, line.
    pub guards: Vec<GuardRecord>,
}

impl Report {
    /// The per-rank census, by rank name: `(column, JSON value)` pairs
    /// in [`CENSUS_LINTS`] order.
    fn census(&self) -> BTreeMap<&'static str, Vec<(&'static str, String)>> {
        // Counted columns, in CENSUS_LINTS order after `order`: sites,
        // local, cross, unknown, gaps, validated, stale, gap_unknown.
        let mut counts: BTreeMap<&'static str, (u32, [u32; 8])> = BTreeMap::new();
        for g in &self.guards {
            let (_, c) = counts.entry(g.rank).or_insert((g.order, [0; 8]));
            c[0] += 1;
            c[match g.shard {
                shard::Verdict::PartitionLocal => 1,
                shard::Verdict::CrossPartition => 2,
                shard::Verdict::Unknown => 3,
            }] += 1;
            if g.gap {
                c[4] += 1;
                c[match g.gap_verdict {
                    atomicity::Verdict::Validated => 5,
                    atomicity::Verdict::StaleUse => 6,
                    atomicity::Verdict::Unknown => 7,
                }] += 1;
            }
        }
        counts
            .into_iter()
            .map(|(rank, (order, c))| {
                let verdict = if c[6] > 0 {
                    atomicity::Verdict::StaleUse
                } else if c[7] > 0 {
                    atomicity::Verdict::Unknown
                } else {
                    atomicity::Verdict::Validated
                };
                let mut row = vec![("order", order.to_string())];
                let names = CENSUS_LINTS
                    .iter()
                    .flat_map(|(_, cols)| cols.iter().copied());
                row.extend(names.skip(1).zip(c.iter().map(u32::to_string)));
                row.push(("gap_verdict", format!("\"{}\"", verdict.as_str())));
                (rank, row)
            })
            .collect()
    }

    /// Renders the `analysis/v1` document: the census, one row per
    /// line, then one line per guard record (hand-rolled — the build
    /// environment has no serde).
    pub fn to_json(&self) -> String {
        let census: Vec<String> = self
            .census()
            .into_iter()
            .map(|(rank, row)| {
                let cols: Vec<String> = row.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
                format!("{{\"rank\":\"{}\",{}}}", json_escape(rank), cols.join(","))
            })
            .collect();
        let guards: Vec<String> = self.guards.iter().map(guard_json).collect();
        format!(
            "{{\"schema\":\"analysis/v1\",\"census\":[\n{}\n],\"guards\":[\n{}\n]}}\n",
            census.join(",\n"),
            guards.join(",\n")
        )
    }

    /// Holds the census against a baseline document (census rows as
    /// [`Report::to_json`] writes them; guard rows are skipped): one
    /// finding on [`BASELINE`] per rank and lint whose columns moved. A
    /// rank on only one side is one `lock-cost` finding.
    pub(crate) fn check_baseline(&self, baseline: &str, out: &mut Vec<Finding>) {
        let mut want: BTreeMap<&str, (u32, BTreeMap<&str, &str>)> = BTreeMap::new();
        for (i, line) in baseline.lines().enumerate() {
            let row = line.trim().trim_end_matches(',');
            let Some(row) = row.strip_prefix('{').and_then(|r| r.strip_suffix('}')) else {
                continue;
            };
            let mut cols: BTreeMap<&str, &str> = row
                .split(',')
                .filter_map(|kv| kv.split_once(':'))
                .map(|(k, v)| (k.trim_matches('"'), v))
                .collect();
            if cols.contains_key("file") {
                continue;
            }
            if let Some(rank) = cols.remove("rank") {
                want.insert(rank.trim_matches('"'), (i as u32 + 1, cols));
            }
        }
        let have = self.census();
        let ranks: BTreeSet<&str> = want
            .keys()
            .copied()
            .chain(have.keys().map(|r| &**r))
            .collect();
        for rank in ranks {
            let (line, base) = want.get(rank).map_or((1, None), |(l, c)| (*l, Some(c)));
            let cur = have.get(rank);
            for &(lint, cols) in CENSUS_LINTS {
                if (base.is_none() || cur.is_none()) && lint != "lock-cost" {
                    continue;
                }
                let moved: Vec<String> = cols
                    .iter()
                    .filter_map(|col| {
                        let was = base.and_then(|b| b.get(col).copied()).unwrap_or("-");
                        let now = cur
                            .and_then(|r| r.iter().find(|(k, _)| k == col))
                            .map_or("-", |(_, v)| v.as_str());
                        (was != now).then(|| format!("{col} {was} \u{2192} {now}"))
                    })
                    .collect();
                if moved.is_empty() {
                    continue;
                }
                out.push(Finding {
                    file: BASELINE.to_string(),
                    line,
                    lint,
                    message: format!(
                        "lock census drift on \"{rank}\": {} — if intended, refresh the \
                         baseline: {REFRESH}",
                        moved.join(", ")
                    ),
                });
            }
        }
    }
}

fn guard_json(g: &GuardRecord) -> String {
    let nested: Vec<String> = g
        .cost
        .nested
        .iter()
        .map(|r| format!("\"{}\"", json_escape(r)))
        .collect();
    format!(
        "{{\"rank\":\"{}\",\"order\":{},\"file\":\"{}\",\"line\":{},\"function\":\"{}\",\
         \"method\":\"{}\",\"hot\":{},\"io\":{},\"alloc\":{},\"loops\":{},\"nested\":[{}],\
         \"score\":{},\"shard\":\"{}\",\"shard_witness\":{},\"gap\":{},\"gap_verdict\":\"{}\",\
         \"gap_witness\":{}}}",
        json_escape(g.rank),
        g.order,
        json_escape(&g.file),
        g.line,
        json_escape(&g.function),
        json_escape(&g.method),
        g.hot,
        g.cost.io,
        g.cost.alloc,
        g.cost.loops,
        nested.join(","),
        g.cost.score(),
        g.shard.as_str(),
        witness_json(&g.shard_witness),
        g.gap,
        g.gap_verdict.as_str(),
        witness_json(&g.gap_witness),
    )
}

fn witness_json(ws: &[WitnessAccess]) -> String {
    let items: Vec<String> = ws
        .iter()
        .map(|w| {
            format!(
                "{{\"kind\":\"{}\",\"access\":\"{}\",\"chain\":\"{}\"}}",
                json_escape(w.kind),
                json_escape(&w.access),
                json_escape(&w.chain)
            )
        })
        .collect();
    format!("[{}]", items.join(","))
}

/// Runs hot-copy and the guard walk: appends the findings of the four
/// interprocedural passes to `out` and returns the report (empty when
/// the tree has no rank table).
pub(crate) fn analyze(
    ctx: &Context,
    graph: &CallGraph,
    files: &[SourceData],
    out: &mut Vec<Finding>,
) -> Report {
    let core = Core::build(ctx, graph, files);
    hotpath::hot_copy(&core, out);
    let summaries = lockcost::summaries(&core);
    let shard_prep = shard::prepare(&core);
    let consults = atomicity::prepare(&core);

    let mut report = Report::default();
    for (bi, body) in core.bodies.iter().enumerate() {
        if !body.site_rank.iter().any(Option::is_some) {
            continue;
        }
        let nsites = body.cfg.acquires.len();
        let mut costs = vec![lockcost::CostSummary::default(); nsites];
        let mut sharding = shard::Walk::new(nsites);
        let mut gaps = atomicity::Walk::new(nsites);
        let flow = atomicity::GapState::new(body);
        let solved = dataflow::solve(&body.cfg, &flow);
        for blk in 0..body.cfg.blocks.len() {
            dataflow::walk_ops(&body.cfg, &flow, &solved, blk, |_, op, fact| {
                lockcost::visit(&core, &summaries, body, op, &fact.held, &mut costs);
                sharding.visit(&core, &shard_prep, bi, op, &fact.held);
                gaps.visit(&core, &consults, body, &flow, op, fact);
            });
        }
        for (i, site) in body.cfg.acquires.iter().enumerate() {
            let Some((rank, order)) = body.site_rank[i] else {
                continue;
            };
            let (shard, shard_witness) = sharding.verdict(i);
            let (gap, gap_verdict, gap_witness) = gaps.finish(&core, body, i, rank, out);
            report.guards.push(GuardRecord {
                rank,
                order,
                file: body.rel.clone(),
                line: site.line,
                function: graph.fns[body.id].qualified(),
                method: site.method.clone(),
                hot: core.hot.reachable[body.id],
                cost: std::mem::take(&mut costs[i]),
                shard,
                shard_witness,
                gap,
                gap_verdict,
                gap_witness,
            });
        }
    }
    report.guards.sort_by(|a, b| {
        b.cost
            .score()
            .cmp(&a.cost.score())
            .then(a.rank.cmp(b.rank))
            .then(a.file.cmp(&b.file))
            .then(a.line.cmp(&b.line))
    });
    lockcost::findings(&report.guards, out);
    shard::findings(&core, &report.guards, out);
    report
}
