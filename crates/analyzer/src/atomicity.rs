//! Lint **atomicity**: interprocedural lock-gap atomicity analysis of
//! every ranked lockdep guard — the gap columns of the
//! `target/analysis/analysis.json` report.
//!
//! PR 8's per-partition lock split made *drop-and-reacquire* the
//! canonical hot-path shape: snapshot state under a brief
//! `cluster.state` read guard, `drop(st)`, then act under a
//! `partition.state` shard lock. Every value carried across that gap
//! is a potential stale-snapshot/TOCTOU hazard — the guard that made
//! it true is gone by the time it is used. This pass makes the gap
//! auditable:
//!
//! * **Taint.** Inside each function, every binding whose initializer
//!   mentions a live *ranked* guard variable (`let snap = st.brokers…`)
//!   is tainted by that guard's acquire site, transitively through
//!   assignments (`let leader = … snap …`).
//! * **Gap.** The guard dies at an explicit `drop(g)`, a shadowing
//!   `let`, or scope end ([`Op::Kill`] carries the line; `0` renders
//!   as "scope end").
//! * **Use.** A gap-crossing use is any consult of a tainted value
//!   *after* its source guard died and *inside* a later ranked
//!   critical section. Each use is classified:
//!   - **validated** — machine-recognized benign shapes: the carried
//!     value is itself the lock being re-acquired (`let ps =
//!     shard.part.lock()` — the `Arc` handle resolved under the old
//!     guard *is* the revalidation), or it flows into the new section
//!     only in argument/key position with the live guard re-read as
//!     the receiver (`slot.entries.insert(pos, (log_offset, c))` — the
//!     stale value keys fresh state instead of substituting for it),
//!     or plain arithmetic over an owned copy.
//!   - **stale-use** — the tainted value is the *receiver* of a
//!     consult (`brokers_online.get(b)`, indexing, a keyed lookup):
//!     the section reads a snapshot whose guard is gone. Also fires
//!     transitively when a stale value is passed to a workspace
//!     function whose own body consults the parameter (witness chain
//!     rides the call graph, ≤ [`CHAIN_CAP`] hops).
//!   - **unknown** — a consult exists but its interprocedural witness
//!     chain was truncated at [`CHAIN_CAP`] hops: the pass saw the
//!     sink but cannot render the full path, so it refuses to call the
//!     gap validated.
//!
//! Findings fire for stale-use and unknown gaps only; every finding
//! carries the full witness chain — read-site → drop-site → use —
//! with `file:line` per hop, and is suppressed by a reasoned
//! `// lint:allow(atomicity, reason=…)` above the use. The report
//! keeps *all* verdicts (including allowed stale uses), so the census
//! check against `ci/analysis-baseline.json` catches new gaps even
//! when individually allowed.
//!
//! [`CHAIN_CAP`]: crate::guards::CHAIN_CAP

use std::collections::{BTreeMap, BTreeSet, HashMap};

use crate::cfg::{AcquireSite, Op};
use crate::dataflow::Analysis;
use crate::guards::{closure, Body, Core, Evidence, WitnessAccess, WITNESS_CAP};
use crate::{rules, Finding};

/// Atomicity verdict for one guard site. Ordered worst-first so the
/// report sorts stale uses to the top.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Verdict {
    /// At least one gap-crossing use consults stale guarded state.
    StaleUse,
    /// A gap-crossing consult exists but its witness chain was
    /// truncated; conservatively not validated.
    Unknown,
    /// Every gap-crossing use is machine-validated (or there is no
    /// gap at all).
    Validated,
}

impl Verdict {
    /// The report/JSON spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::StaleUse => "stale-use",
            Verdict::Unknown => "unknown",
            Verdict::Validated => "validated",
        }
    }
}

/// Per-function parameter-consult evidence: if a caller passes a stale
/// value as an argument, does this function read it as state (receiver
/// of a lookup/method call), not just as a key? Direct evidence first,
/// then lifted up through argument-passing call sites.
pub(crate) fn prepare(core: &Core) -> Vec<Option<Evidence>> {
    let derived: Vec<Option<BTreeSet<String>>> = core.bodies.iter().map(derived_names).collect();
    let mut consults = vec![None; core.graph.fns.len()];
    for (body, derived) in core.bodies.iter().zip(&derived) {
        let Some(derived) = derived else { continue };
        if consults[body.id].is_some() {
            continue;
        }
        let guards = guard_vars(body);
        let hit = body.ops().find_map(|op| match op {
            Op::Call {
                recv_names, line, ..
            } => {
                // A receiver chain rooted at one of this body's own
                // guards is a fresh re-read, not a parameter consult.
                if recv_names.iter().any(|n| guards.contains(n.as_str())) {
                    return None;
                }
                let hit = recv_names.iter().find(|n| derived.contains(*n))?;
                Some((hit.clone(), *line))
            }
            Op::Index { recv, line, .. } => {
                let root = root(recv);
                derived.contains(root).then(|| (root.to_string(), *line))
            }
            Op::LenObserve { recv } => {
                let root = root(recv);
                let line = core.graph.fns[body.id].line;
                derived.contains(root).then(|| (root.to_string(), line))
            }
            _ => None,
        });
        if let Some((access, line)) = hit {
            consults[body.id] = Some(Evidence {
                access,
                chain: vec![core.hop(body, line)],
                truncated: false,
            });
        }
    }
    core.lift(
        &mut consults,
        true,
        &|bi| derived[bi].is_some(),
        |bi, _, args| {
            derived[bi]
                .as_ref()
                .is_some_and(|d| args.iter().any(|n| d.contains(n)))
        },
    );
    consults
}

/// The combined held-locks + guard-taint forward may-analysis: the one
/// dataflow the guard walk solves per function.
///
/// `held` is [`rules::HeldLocks`] itself (its transfer never reads
/// `taint`), so the lock-cost and shard evidence read it as the
/// live-guard set; `taint` maps each binding to the ranked acquire
/// sites its value was derived from. The binding of a *new* guard is
/// never tainted by its own initializer (`let ps = shard.part.lock()`
/// — `ps` is the fresh guard, not a stale value), which is exactly the
/// reacquire-validation shape.
#[derive(Clone, PartialEq)]
pub(crate) struct GapFact {
    pub(crate) held: BTreeSet<usize>,
    taint: BTreeMap<String, BTreeSet<usize>>,
}

pub(crate) struct GapState<'a> {
    acquires: &'a [AcquireSite],
    site_rank: &'a [Option<(&'static str, u32)>],
}

impl<'a> GapState<'a> {
    pub(crate) fn new(body: &'a Body) -> Self {
        GapState {
            acquires: &body.cfg.acquires,
            site_rank: &body.site_rank,
        }
    }

    /// The held-lock half of the analysis.
    fn held(&self) -> rules::HeldLocks<'_> {
        rules::HeldLocks {
            acquires: self.acquires,
        }
    }

    /// The ranked sites `name`'s value derives from, per `fact`:
    /// transitive taint plus direct guard-variable mentions.
    fn sources(&self, fact: &GapFact, name: &str) -> BTreeSet<usize> {
        let mut out: BTreeSet<usize> = fact.taint.get(name).cloned().unwrap_or_default();
        for &j in &fact.held {
            if self.site_rank[j].is_some() && self.acquires[j].var.as_deref() == Some(name) {
                out.insert(j);
            }
        }
        out
    }

    /// The stale subset of [`Self::sources`]: sites whose guard is no
    /// longer held.
    fn stale(&self, fact: &GapFact, name: &str) -> BTreeSet<usize> {
        self.sources(fact, name)
            .into_iter()
            .filter(|i| !fact.held.contains(i))
            .collect()
    }

    /// Whether `name` is the variable of a live ranked guard.
    fn is_live_guard(&self, fact: &GapFact, name: &str) -> bool {
        fact.held
            .iter()
            .any(|&j| self.site_rank[j].is_some() && self.acquires[j].var.as_deref() == Some(name))
    }
}

impl Analysis for GapState<'_> {
    type Fact = GapFact;
    const BACKWARD: bool = false;

    fn boundary(&self) -> GapFact {
        GapFact {
            held: BTreeSet::new(),
            taint: BTreeMap::new(),
        }
    }

    fn init(&self) -> GapFact {
        self.boundary()
    }

    fn join(&self, fact: &mut GapFact, other: &GapFact) -> bool {
        let mut changed = self.held().join(&mut fact.held, &other.held);
        for (k, v) in &other.taint {
            let entry = fact.taint.entry(k.clone()).or_default();
            for &i in v {
                changed |= entry.insert(i);
            }
        }
        changed
    }

    fn transfer(&self, op: &Op, fact: &mut GapFact) {
        self.held().transfer(op, &mut fact.held);
        match op {
            Op::Kill { var, .. } => {
                fact.taint.remove(var);
            }
            Op::Assign { to, froms, .. } => {
                // A binding that *is* a just-acquired guard is the
                // fresh guard itself, never stale.
                if self.is_live_guard(fact, to) {
                    fact.taint.remove(to);
                    return;
                }
                let mut srcs = BTreeSet::new();
                for f in froms {
                    srcs.extend(self.sources(fact, f));
                }
                // A binding read through a *live* guard derives from
                // fresh state; stale names in the mix are key/predicate
                // position (`ps.replicas.get_mut(&leader)`), flagged at
                // their own consult sites, not here.
                if froms.iter().any(|f| self.is_live_guard(fact, f)) {
                    srcs.retain(|i| fact.held.contains(i));
                }
                if srcs.is_empty() {
                    fact.taint.remove(to);
                } else {
                    fact.taint.insert(to.clone(), srcs);
                }
            }
            _ => {}
        }
    }
}

/// One recorded gap-crossing use of state sourced at a guard site.
#[derive(Clone)]
struct UseRec {
    kind: &'static str,
    access: String,
    /// Use line in the guard's own file (already anchored).
    line: u32,
    /// Callee hops for interprocedural consults.
    callee_chain: Vec<String>,
    verdict: Verdict,
    /// Rank of the live section the use executes in.
    section: &'static str,
    /// The use op carried no line of its own (`.get()`/`.len()` lower
    /// to line-less observations) and `line` is the enclosing
    /// section's acquire line. Dropped when the same access also has a
    /// real-line record (the chained call on the same expression).
    synthetic: bool,
}

fn rec(
    kind: &'static str,
    access: &str,
    line: u32,
    verdict: Verdict,
    section: &'static str,
) -> UseRec {
    UseRec {
        kind,
        access: access.to_string(),
        line,
        callee_chain: Vec::new(),
        verdict,
        section,
        synthetic: false,
    }
}

/// The gap evidence of one function's acquire sites, gathered during
/// the guard walk.
pub(crate) struct Walk {
    /// Where each site's taint was first created, per binding.
    reads: HashMap<(usize, String), u32>,
    /// Where each site's guard died.
    drops: HashMap<usize, u32>,
    uses: Vec<Vec<UseRec>>,
}

impl Walk {
    pub(crate) fn new(nsites: usize) -> Self {
        Walk {
            reads: HashMap::new(),
            drops: HashMap::new(),
            uses: vec![Vec::new(); nsites],
        }
    }

    fn push(&mut self, srcs: &BTreeSet<usize>, rec: UseRec) {
        for &i in srcs {
            if self.uses[i].len() < WITNESS_CAP * 4 {
                self.uses[i].push(rec.clone());
            }
        }
    }

    /// Evidence function: records the gap-relevant effect of one op —
    /// taint read-sites, guard drop-sites, and classified gap-crossing
    /// uses.
    pub(crate) fn visit(
        &mut self,
        core: &Core,
        consults: &[Option<Evidence>],
        body: &Body,
        gs: &GapState<'_>,
        op: &Op,
        fact: &GapFact,
    ) {
        // The innermost live ranked section, if any: the anchor for uses
        // that carry no line of their own.
        let section = fact
            .held
            .iter()
            .rev()
            .find(|&&j| body.site_rank[j].is_some())
            .copied();
        let rank_of = |sec: usize| body.site_rank[sec].map_or("?", |(n, _)| n);
        match op {
            Op::Kill { var, line } => {
                for &j in &fact.held {
                    if body.cfg.acquires[j].var.as_deref() == Some(var.as_str()) {
                        let entry = self.drops.entry(j).or_insert(*line);
                        if *entry == 0 {
                            *entry = *line;
                        }
                    }
                }
            }
            Op::Assign { to, froms, line } => {
                if gs.is_live_guard(fact, to) {
                    // Reacquire-validation: the carried handle becomes
                    // the next guard (`let ps = shard.part.lock()`).
                    let Some((section, _)) = body
                        .site_rank
                        .iter()
                        .zip(&body.cfg.acquires)
                        .find_map(|(r, s)| r.filter(|_| s.var.as_deref() == Some(to.as_str())))
                    else {
                        return;
                    };
                    for f in froms {
                        let stale = gs.stale(fact, f);
                        self.push(
                            &stale,
                            rec("reacquire", f, *line, Verdict::Validated, section),
                        );
                    }
                    return;
                }
                // Taint creation/propagation: remember the read site.
                for f in froms {
                    for i in gs.sources(fact, f) {
                        let entry = self.reads.entry((i, to.clone())).or_insert(*line);
                        if *entry == 0 {
                            *entry = *line;
                        }
                    }
                }
            }
            Op::Call {
                recv_names,
                arg_names,
                line,
                ..
            } => {
                let Some(sec) = section else { return };
                // A receiver chain rooted at a live guard is a fresh
                // re-read, never stale (field names can shadow tainted
                // locals: `ps.leader` mentions `leader`).
                if recv_names.iter().any(|n| gs.is_live_guard(fact, n)) {
                    return;
                }
                if let Some(n) = recv_names.iter().find(|n| !gs.stale(fact, n).is_empty()) {
                    let stale = gs.stale(fact, n);
                    self.push(
                        &stale,
                        rec("stale-read", n, *line, Verdict::StaleUse, rank_of(sec)),
                    );
                    return;
                }
                let Some(arg) = arg_names.iter().find(|n| !gs.stale(fact, n).is_empty()) else {
                    return;
                };
                // Passing the live guard alongside means the callee
                // reads fresh state keyed by the carried value;
                // otherwise a workspace callee that consults the
                // parameter turns the carried value back into state.
                let consult = if arg_names.iter().any(|n| gs.is_live_guard(fact, n)) {
                    None
                } else {
                    core.callees(body, op)
                        .into_iter()
                        .find_map(|t| consults[t].as_ref())
                };
                let use_rec = match consult {
                    Some(c) if c.truncated => UseRec {
                        callee_chain: c.chain.clone(),
                        ..rec("opaque", arg, *line, Verdict::Unknown, rank_of(sec))
                    },
                    Some(c) => UseRec {
                        callee_chain: c.chain.clone(),
                        ..rec("stale-read", arg, *line, Verdict::StaleUse, rank_of(sec))
                    },
                    None => rec("carried", arg, *line, Verdict::Validated, rank_of(sec)),
                };
                self.push(&gs.stale(fact, arg), use_rec);
            }
            Op::Index { recv, .. } | Op::LenObserve { recv } => {
                let Some(sec) = section else { return };
                let root = root(recv);
                let stale = gs.stale(fact, root);
                if stale.is_empty() || gs.is_live_guard(fact, root) {
                    return;
                }
                // A `.get()`-style observation has no line of its own:
                // anchor it at the live section's acquire so an allow
                // above the acquire covers it.
                let (line, synthetic) = match op {
                    Op::Index { line, .. } => (*line, false),
                    _ => (body.cfg.acquires[sec].line, true),
                };
                let use_rec = rec("stale-read", root, line, Verdict::StaleUse, rank_of(sec));
                self.push(
                    &stale,
                    UseRec {
                        synthetic,
                        ..use_rec
                    },
                );
            }
            Op::Arith { names, line, .. } => {
                let Some(sec) = section else { return };
                if let Some(n) = names.iter().find(|n| !gs.stale(fact, n).is_empty()) {
                    let stale = gs.stale(fact, n);
                    self.push(
                        &stale,
                        rec("carried", n, *line, Verdict::Validated, rank_of(sec)),
                    );
                }
            }
            _ => {}
        }
    }

    /// The gap census of acquire site `i` — whether any derived value
    /// crosses its drop, the worst verdict, the witnesses — with its
    /// stale/unknown uses appended to `out`, anchored at the use line
    /// so a lint:allow sits directly above the consult.
    pub(crate) fn finish(
        &mut self,
        core: &Core,
        body: &Body,
        i: usize,
        rank: &str,
        out: &mut Vec<Finding>,
    ) -> (bool, Verdict, Vec<WitnessAccess>) {
        let site_line = body.cfg.acquires[i].line;
        let mut recs = std::mem::take(&mut self.uses[i]);
        recs.sort_by(|a, b| {
            a.verdict
                .cmp(&b.verdict)
                .then(a.line.cmp(&b.line))
                .then(a.access.cmp(&b.access))
        });
        recs.dedup_by(|a, b| a.access == b.access && a.line == b.line && a.kind == b.kind);
        // A line-less observation (`.get()`) anchored at the acquire
        // duplicates the chained call on the same expression; keep the
        // real-line record.
        let real: Vec<(String, Verdict)> = recs
            .iter()
            .filter(|r| !r.synthetic)
            .map(|r| (r.access.clone(), r.verdict))
            .collect();
        recs.retain(|r| !r.synthetic || !real.contains(&(r.access.clone(), r.verdict)));
        let verdict = recs
            .iter()
            .map(|r| r.verdict)
            .min()
            .unwrap_or(Verdict::Validated);
        let drop_hop = match self.drops.get(&i) {
            Some(0) | None => "scope end".to_string(),
            Some(l) => format!("drop {}:{l}", body.rel),
        };
        let mut witness = Vec::new();
        for r in recs.iter().take(WITNESS_CAP) {
            let read = match self.reads.get(&(i, r.access.clone())) {
                Some(l) if *l > 0 => *l,
                _ => site_line,
            };
            let mut chain = format!(
                "read {}:{read} → {drop_hop} → {}",
                body.rel,
                core.hop(body, r.line)
            );
            for h in &r.callee_chain {
                chain.push_str(" → ");
                chain.push_str(h);
            }
            witness.push(WitnessAccess {
                kind: r.kind,
                access: r.access.clone(),
                chain,
            });
        }
        for (w, r) in witness.iter().zip(&recs) {
            if r.verdict == Verdict::Validated {
                continue;
            }
            let what = if r.verdict == Verdict::Unknown {
                "reaches an opaque consult (witness chain truncated)"
            } else {
                "is consulted as state"
            };
            out.push(Finding {
                file: body.rel.clone(),
                line: r.line,
                lint: "atomicity",
                message: format!(
                    "lock-gap atomicity: `{}` was derived under \"{rank}\" ({}:{site_line}) and \
                     {what} inside the \"{}\" section after that guard dropped — re-validate it \
                     under the live guard or carry lint:allow(atomicity, reason=…) \
                     (witness: {}; full census: target/analysis/analysis.json)",
                    r.access, body.rel, r.section, w.chain,
                ),
            });
        }
        (!recs.is_empty(), verdict, witness)
    }
}

/// The receiver's root binding: `a.b[i]` → `a`.
fn root(recv: &str) -> &str {
    recv.split(['.', '[']).next().unwrap_or(recv)
}

/// The flow-insensitive closure of parameter-derived names inside one
/// function (for consult summaries), `None` when it takes no
/// parameters besides `self`. A binding read through one of the
/// function's *own* guards (`let Some(t) = st.topics.get(topic)`) is a
/// fresh re-read keyed by the parameter — revalidation, not derivation
/// — so guard-sourced assigns do not propagate.
fn derived_names(body: &Body) -> Option<BTreeSet<String>> {
    let params: BTreeSet<String> = body
        .params
        .iter()
        .filter(|p| *p != "self")
        .cloned()
        .collect();
    if params.is_empty() {
        return None;
    }
    let guards = guard_vars(body);
    Some(closure(&body.cfg, params, &|froms, set| {
        froms.iter().any(|n| set.contains(n)) && !froms.iter().any(|n| guards.contains(n.as_str()))
    }))
}

/// The variables of this body's ranked guard acquire sites.
fn guard_vars(body: &Body) -> BTreeSet<&str> {
    body.cfg
        .acquires
        .iter()
        .zip(&body.site_rank)
        .filter(|(_, r)| r.is_some())
        .filter_map(|(s, _)| s.var.as_deref())
        .collect()
}
