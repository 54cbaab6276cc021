//! The lint rules.
//!
//! Token-level rules are pure functions over the token stream of one
//! file; the flow-sensitive rules run over the analysis IR (AST →
//! [`crate::cfg`] → [`crate::dataflow`]) and the whole-workspace
//! [`crate::callgraph`]. The framework in the crate root handles
//! walking, test-region masking, `lint:allow` suppression, and the
//! cross-tree checks.

use std::collections::BTreeSet;

use crate::ast::{self, Item, Stmt};
use crate::callgraph::CallGraph;
use crate::cfg::{self, closure, AcquireSite, Cfg, Op};
use crate::dataflow::{self, Analysis};
use crate::lexer::{Token, TokenKind};
use crate::{in_test, Context, Finding};

/// Crates whose code paths carry a [`FailureInjector`]; a panic there
/// turns an injected, recoverable fault into a process abort, so the
/// whole panic family is forbidden outside tests.
///
/// [`FailureInjector`]: ../../liquid_sim/failure/struct.FailureInjector.html
pub const FAULT_CRATES: &[&str] = &["log", "kv", "messaging", "processing"];

/// Crates the panic-reachability proof neither traverses through nor
/// reports on: `sim` panics by design (lockdep violations, contract
/// asserts are *supposed* to abort), and the analyzer never runs on a
/// fault path.
pub const PANIC_EXEMPT_CRATES: &[&str] = &["sim", "analyzer"];

/// Which struct fields are ranked locks: `(file basename, field name,
/// rank name)`. The rank *orders* live in `sim::lockdep::RANKS` (the
/// runtime checker's table, parsed from source by the framework), so
/// the static and dynamic checkers cannot disagree silently — a name
/// listed here but missing there is reported as rank-table drift.
pub const LOCK_FIELDS: &[(&str, &str, &str)] = &[
    ("consumer.rs", "state", "consumer.state"),
    ("group.rs", "groups", "group.groups"),
    ("cluster.rs", "state", "cluster.state"),
    // Per-partition lock shards: every partition's mutable state sits
    // behind its own mutex inside a `PartitionShard`, looked up (and
    // its `Arc` cloned) under a brief `cluster.state` read guard.
    ("cluster.rs", "part", "partition.state"),
    ("offsets.rs", "inner", "offsets.inner"),
    ("lib.rs", "state", "dfs.state"),
    ("lib.rs", "stats", "dfs.stats"),
    ("stack.rs", "feeds", "stack.feeds"),
    ("stack.rs", "managed", "stack.managed"),
    ("manager.rs", "state", "yarn.state"),
    // The producer's pending-batch mutex lives in the `batching` tuple
    // field and is always destructured into a local named `pending`
    // before locking, so the acquire sites key on that name.
    ("producer.rs", "pending", "producer.batches"),
    ("tree.rs", "state", "coord.tree"),
    ("acl.rs", "grants", "acl.grants"),
    ("log.rs", "cache", "log.pagecache"),
    // Segment-read cache shards: each shard's entry map sits behind its
    // own mutex inside a `ReadCacheShard`; a miss fills under the shard
    // lock and charges the page-cache model below it (rank 8 > 5).
    ("cache.rs", "shard", "log.readcache"),
];

/// Whether a field or binding name belongs to the offset domain
/// (log offsets, high-watermarks, epochs) whose arithmetic must be
/// overflow-checked.
pub fn is_offset_name(name: &str) -> bool {
    let n = name.to_ascii_lowercase();
    n.contains("offset")
        || n.contains("watermark")
        || n.contains("high_water")
        || n.contains("epoch")
        || n == "hw"
        || n.ends_with("_hw")
}

/// Lint **panic-reachability**: the interprocedural proof that no
/// panic can fire on a fault-injected path.
///
/// Two tiers of findings:
///
/// * every explicit panic site (`panic!` family, `.unwrap()`,
///   `.expect()`) in non-test code of a fault crate, regardless of
///   reachability — defense in depth, matching what the old
///   token-level rule enforced. When the call graph additionally
///   proves the site reachable from a public API, the finding carries
///   the call chain.
/// * unguarded indexing in fault crates, and *any* panic site in the
///   helper crates they depend on, only when reachable from a
///   fault-crate public function — with the chain that reaches it.
///
/// `sim` and the analyzer are exempt ([`PANIC_EXEMPT_CRATES`]).
pub fn panic_reachability(graph: &CallGraph, out: &mut Vec<Finding>) {
    let reach = graph.reach_from_pubs(FAULT_CRATES, PANIC_EXEMPT_CRATES);
    for (i, f) in graph.fns.iter().enumerate() {
        if f.in_test || PANIC_EXEMPT_CRATES.contains(&f.crate_name.as_str()) {
            continue;
        }
        let is_fault = FAULT_CRATES.contains(&f.crate_name.as_str());
        for p in &f.panics {
            let message = if is_fault && !p.indexing {
                let mut m = format!(
                    "{} on a fault-injected path — return a typed error instead",
                    p.what
                );
                if reach.reachable[i] {
                    m.push_str(&format!(
                        " (reachable from the public API: {})",
                        graph.chain(&reach, i)
                    ));
                }
                m
            } else if reach.reachable[i] && p.indexing {
                format!(
                    "{} may panic and is reachable from a fault-crate public API ({}) — \
                     use .get() or establish bounds with a dominating len/contains check",
                    p.what,
                    graph.chain(&reach, i)
                )
            } else if reach.reachable[i] {
                format!(
                    "{} is reachable from a fault-crate public API ({}) — \
                     return a typed error instead",
                    p.what,
                    graph.chain(&reach, i)
                )
            } else {
                continue;
            };
            out.push(Finding {
                file: f.file.clone(),
                line: p.line,
                lint: "panic-reachability",
                message,
            });
        }
    }
}

/// Lint **unchecked-offset-arithmetic**: raw `+`/`-`/`*` (binary or
/// compound) over values flowing from the offset domain — log offsets,
/// high-watermarks, epochs — inside the fault crates. Seeds are the
/// matching field names parsed from `log`/`messaging` structs
/// ([`Context::offset_seeds`]) plus any binding whose own name matches
/// [`is_offset_name`]; taint propagates through assignments
/// ([`Op::Assign`]) to a fixpoint. Use `checked_*`/`saturating_*` so a
/// corrupted or wrapped offset fails loudly instead of silently
/// advancing the log.
pub fn unchecked_offset_arithmetic(
    ctx: &Context,
    crate_name: &str,
    rel: &str,
    file: &ast::File,
    regions: &[(u32, u32)],
    out: &mut Vec<Finding>,
) {
    if !FAULT_CRATES.contains(&crate_name) {
        return;
    }
    for_each_fn(&file.items, &mut |f| {
        if f.body.is_none() || in_test(regions, f.line) {
            return;
        }
        let g = cfg::lower_fn(f);
        let seed = |n: &str| is_offset_name(n) || ctx.offset_seeds.contains(n);
        let extra = closure(&g, BTreeSet::new(), &|froms, set| {
            froms.iter().any(|n| seed(n) || set.contains(n))
        });
        let mut seen_lines = BTreeSet::new();
        for op in g.blocks.iter().flat_map(|b| &b.ops) {
            let &Op::Arith {
                op,
                ref names,
                line,
            } = op
            else {
                continue;
            };
            if in_test(regions, line) || !seen_lines.insert((line, op)) {
                continue;
            }
            if let Some(name) = names.iter().find(|n| seed(n) || extra.contains(*n)) {
                let verb = match op {
                    '-' => "sub",
                    '*' => "mul",
                    _ => "add",
                };
                out.push(Finding {
                    file: rel.to_string(),
                    line,
                    lint: "unchecked-offset-arithmetic",
                    message: format!(
                        "raw `{op}` on offset-domain value `{name}` — use \
                         checked_{verb}()/saturating_{verb}() so overflow cannot corrupt \
                         offsets silently"
                    ),
                });
            }
        }
    });
}

/// Lint **fault-site**: `injector.tick("site")` strings must be
/// registered in `sim::failure::SITES`. The receiver must be named
/// `injector` (or end in `_injector`) so unrelated `tick()` methods —
/// the resource manager's scheduler tick, the ETL job tick — are not
/// caught; `sim/failure.rs` itself is matched on any receiver. The
/// runtime `debug_assert!` inside `FailureInjector::tick` backstops
/// call sites this heuristic misses.
pub fn fault_sites(
    ctx: &Context,
    rel: &str,
    tokens: &[Token],
    out: &mut Vec<Finding>,
    sites_out: &mut Vec<(String, u32)>,
) {
    let in_failure_rs = rel == "crates/sim/src/failure.rs";
    for (i, t) in tokens.iter().enumerate() {
        if !t.is_ident("tick")
            || i == 0
            || !tokens[i - 1].is_punct('.')
            || !tokens.get(i + 1).is_some_and(|t| t.is_punct('('))
        {
            continue;
        }
        let recv_is_injector = i >= 2
            && tokens[i - 2].kind == TokenKind::Ident
            && (tokens[i - 2].text == "injector" || tokens[i - 2].text.ends_with("_injector"));
        if !recv_is_injector && !in_failure_rs {
            continue;
        }
        match tokens.get(i + 2) {
            Some(arg) if arg.kind == TokenKind::Str => {
                sites_out.push((arg.text.clone(), arg.line));
                if let Some(reg) = &ctx.sites {
                    if !reg.names.iter().any(|n| n == &arg.text) {
                        out.push(Finding {
                            file: rel.to_string(),
                            line: arg.line,
                            lint: "fault-site",
                            message: format!(
                                "fault site \"{}\" is not registered in sim::failure::SITES",
                                arg.text
                            ),
                        });
                    }
                }
            }
            Some(arg) if arg.is_punct(')') => out.push(Finding {
                file: rel.to_string(),
                line: t.line,
                lint: "fault-site",
                message: "injector.tick() takes a site name — every decision point must be \
                          registered in sim::failure::SITES"
                    .to_string(),
            }),
            _ => out.push(Finding {
                file: rel.to_string(),
                line: t.line,
                lint: "fault-site",
                message: "injector.tick() site must be a string literal so the registry \
                          stays statically checkable"
                    .to_string(),
            }),
        }
    }
}

/// Registry instrument constructors whose first argument is the
/// instrument name (the `_with` variants take labels after it).
const INSTRUMENT_CTORS: &[&str] = &[
    "counter",
    "gauge",
    "histogram",
    "counter_with",
    "gauge_with",
    "histogram_with",
];

/// Collects the names of obs registry instruments constructed with a
/// string-literal name (`reg.counter("log.append")`, `.gauge_with(...)`
/// …) into `out`. Feeds the cross-tree **obs-instrument** check: every
/// `injector.tick("site")` name must appear here as a twin metric.
pub fn obs_instruments(tokens: &[Token], out: &mut BTreeSet<String>) {
    for (i, t) in tokens.iter().enumerate() {
        if t.kind != TokenKind::Ident || !INSTRUMENT_CTORS.contains(&t.text.as_str()) {
            continue;
        }
        if i == 0
            || !tokens[i - 1].is_punct('.')
            || !tokens.get(i + 1).is_some_and(|t| t.is_punct('('))
        {
            continue;
        }
        if let Some(arg) = tokens.get(i + 2) {
            if arg.kind == TokenKind::Str {
                out.insert(arg.text.clone());
            }
        }
    }
}

/// Lint **forbid-unsafe**: every `crates/<c>/src/lib.rs` must carry
/// `#![forbid(unsafe_code)]`, and no `unsafe` token may appear in any
/// workspace file (the attribute makes rustc enforce it; the lint
/// reports it at analysis time, before a compile).
pub fn forbid_unsafe(rel: &str, tokens: &[Token], out: &mut Vec<Finding>) {
    let parts: Vec<&str> = rel.split('/').collect();
    let is_lib =
        parts.len() == 4 && parts[0] == "crates" && parts[2] == "src" && parts[3] == "lib.rs";
    if is_lib {
        let found = tokens.windows(8).any(|w| {
            w[0].is_punct('#')
                && w[1].is_punct('!')
                && w[2].is_punct('[')
                && w[3].is_ident("forbid")
                && w[4].is_punct('(')
                && w[5].is_ident("unsafe_code")
                && w[6].is_punct(')')
                && w[7].is_punct(']')
        });
        if !found {
            out.push(Finding {
                file: rel.to_string(),
                line: 1,
                lint: "forbid-unsafe",
                message: "crate root is missing #![forbid(unsafe_code)]".to_string(),
            });
        }
    }
    for t in tokens {
        if t.is_ident("unsafe") {
            out.push(Finding {
                file: rel.to_string(),
                line: t.line,
                lint: "forbid-unsafe",
                message: "`unsafe` is forbidden workspace-wide".to_string(),
            });
        }
    }
}

/// Lint **raw-thread**: outside `crates/sim`, spawning OS threads
/// directly (`std::thread::spawn`/`scope`/`Builder`) or reaching for
/// `parking_lot` primitives bypasses the liquid-check scheduler — the
/// model checker cannot interpose on a thread it did not create or a
/// lock it cannot see. Code must use `liquid_sim::thread::*` and the
/// ranked `liquid_sim::lockdep` wrappers instead. Paths qualified with
/// any crate other than `std` (e.g. `liquid_sim::thread::spawn`) are
/// allowed.
pub fn raw_thread(
    crate_name: &str,
    rel: &str,
    tokens: &[Token],
    regions: &[(u32, u32)],
    out: &mut Vec<Finding>,
) {
    if crate_name == "sim" || crate_name == "analyzer" {
        // sim implements the scheduler; the analyzer only names these
        // tokens in its own rule tables and fixtures.
        return;
    }
    let path_sep = |i: usize| {
        tokens.get(i).is_some_and(|t: &Token| t.is_punct(':'))
            && tokens.get(i + 1).is_some_and(|t: &Token| t.is_punct(':'))
    };
    for (i, t) in tokens.iter().enumerate() {
        if t.kind != TokenKind::Ident || in_test(regions, t.line) {
            continue;
        }
        if t.text == "parking_lot" {
            out.push(Finding {
                file: rel.to_string(),
                line: t.line,
                lint: "raw-thread",
                message: "`parking_lot` locks are invisible to liquid-check — use the ranked \
                          wrappers in liquid_sim::lockdep instead"
                    .to_string(),
            });
            continue;
        }
        // `thread :: spawn|scope|Builder` where the path is rooted at
        // `std` (`std :: thread :: ...`) or is bare (`use std::thread;`
        // followed by `thread::spawn(...)`).
        if t.text != "thread"
            || !path_sep(i + 1)
            || !tokens
                .get(i + 3)
                .is_some_and(|t| matches!(t.text.as_str(), "spawn" | "scope" | "Builder"))
        {
            continue;
        }
        let qualifier = (i >= 3 && path_sep(i - 2)).then(|| tokens[i - 3].text.as_str());
        let raw = match qualifier {
            Some("std") => true,
            Some(_) => false, // liquid_sim::thread::spawn and friends
            None => true,     // bare thread::spawn — only std's is imported that way
        };
        if raw {
            let what = &tokens[i + 3].text;
            out.push(Finding {
                file: rel.to_string(),
                line: t.line,
                lint: "raw-thread",
                message: format!(
                    "std::thread::{what} escapes the liquid-check scheduler — spawn through \
                     liquid_sim::thread::{} instead",
                    if what == "Builder" {
                        "spawn_named"
                    } else {
                        what
                    }
                ),
            });
        }
    }
}

/// The ranked-lock fields of one file, as `(field, rank)` pairs.
/// Empty for files with no [`LOCK_FIELDS`] entry.
fn ranked_fields(rel: &str) -> Vec<(&'static str, &'static str)> {
    let base = rel.rsplit('/').next().unwrap_or(rel);
    LOCK_FIELDS
        .iter()
        .filter(|(file, _, _)| *file == base)
        .map(|(_, field, rank)| (*field, *rank))
        .collect()
}

/// Forward may-analysis: the set of acquire sites (indices into
/// [`Cfg::acquires`]) whose guard may still be live. Named guards die
/// on `drop`, shadowing, or scope exit ([`Op::Kill`]); temporaries die
/// at the end of their statement ([`Op::KillTemps`]).
struct HeldLocks<'a> {
    acquires: &'a [AcquireSite],
}

impl Analysis for HeldLocks<'_> {
    type Fact = BTreeSet<usize>;
    const BACKWARD: bool = false;

    fn boundary(&self) -> Self::Fact {
        BTreeSet::new()
    }

    fn init(&self) -> Self::Fact {
        BTreeSet::new()
    }

    fn join(&self, fact: &mut Self::Fact, other: &Self::Fact) -> bool {
        let before = fact.len();
        fact.extend(other.iter().copied());
        fact.len() != before
    }

    fn transfer(&self, op: &Op, fact: &mut Self::Fact) {
        match op {
            Op::Acquire(i) => {
                fact.insert(*i);
            }
            Op::Kill { var, .. } => {
                fact.retain(|&i| self.acquires[i].var.as_deref() != Some(var.as_str()));
            }
            Op::KillTemps => {
                fact.retain(|&i| self.acquires[i].var.is_some());
            }
            _ => {}
        }
    }
}

/// `(rank, order)` of each acquire site that maps to a ranked lock
/// field of this file, `None` for unranked acquisitions.
fn site_ranks(
    g: &Cfg,
    fields: &[(&'static str, &'static str)],
    order_of: &dyn Fn(&str) -> Option<u32>,
) -> Vec<Option<(&'static str, u32)>> {
    g.acquires
        .iter()
        .map(|s| {
            fields
                .iter()
                .find(|(fld, _)| *fld == s.field)
                .and_then(|&(_, rank)| order_of(rank).map(|o| (rank, o)))
        })
        .collect()
}

/// Lint **lock-order**: within a file whose fields appear in
/// [`LOCK_FIELDS`], a lock may only be acquired while every ranked
/// lock that *may* still be held (per the [`HeldLocks`] dataflow) has
/// a strictly higher order. Runs on test code too — a rank inversion
/// in a test deadlocks liquid-check just the same.
pub fn lock_order(ctx: &Context, rel: &str, file: &ast::File, out: &mut Vec<Finding>) {
    let Some(ranks) = &ctx.ranks else {
        return;
    };
    let fields = ranked_fields(rel);
    if fields.is_empty() {
        return;
    }
    for_each_fn(&file.items, &mut |f| {
        let g = cfg::lower_fn(f);
        if g.acquires.is_empty() {
            return;
        }
        let site_rank = site_ranks(&g, &fields, &|r| ranks.order_of(r));
        let analysis = HeldLocks {
            acquires: &g.acquires,
        };
        let held = dataflow::solve(&g, &analysis);
        for b in 0..g.blocks.len() {
            dataflow::walk_ops(&g, &analysis, &held, b, |_, op, fact| {
                let Op::Acquire(i) = op else { return };
                let Some((rank, order)) = site_rank[*i] else {
                    return;
                };
                for &j in fact.iter() {
                    if j == *i {
                        continue;
                    }
                    let Some((held_rank, held_order)) = site_rank[j] else {
                        continue;
                    };
                    if order >= held_order {
                        out.push(Finding {
                            file: rel.to_string(),
                            line: g.acquires[*i].line,
                            lint: "lock-order",
                            message: format!(
                                "acquires \"{rank}\" (order {order}) while holding \
                                 \"{held_rank}\" (order {held_order}, taken on line {}) — the \
                                 lock hierarchy requires strictly descending orders",
                                g.acquires[j].line
                            ),
                        });
                    }
                }
            });
        }
    });
}

/// Calls `f` for every function item in the tree, descending into
/// impls, traits, modules, and function-local items.
pub fn for_each_fn<'a>(items: &'a [Item], f: &mut dyn FnMut(&'a ast::Fn)) {
    for item in items {
        match item {
            Item::Fn(func) => {
                f(func);
                if let Some(body) = &func.body {
                    for stmt in &body.stmts {
                        if let Stmt::Item(it) = stmt {
                            if let Item::Fn(nested) = it.as_ref() {
                                f(nested);
                            }
                        }
                    }
                }
            }
            Item::Impl { items, .. } | Item::Trait { items, .. } | Item::Mod { items, .. } => {
                for_each_fn(items, f);
            }
            Item::Struct(_) | Item::Other { .. } => {}
        }
    }
}
