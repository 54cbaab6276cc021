//! Lint **hot-copy**: interprocedural zero-copy taint over the
//! batched produce/fetch hot path.
//!
//! The write and read paths rest on an invariant the batched path
//! holds by construction: a message's payload bytes are copied once —
//! into the [`BatchBuilder`] arena at produce time — and every later
//! hop (append, replicate, fetch, deliver) shares them as ref-counted
//! `Bytes` slices. Nothing in the type system enforces that; one
//! `to_vec()` in a produce-path callee silently multiplies per-message
//! work. This pass proves the invariant per commit:
//!
//! 1. **Roots.** The hot path's dynamic extent is the call-graph
//!    closure from the named entry points in [`HOT_ROOTS`]
//!    (`Cluster::produce_batch`/`fetch_batch`,
//!    `Log::append_record_batch`, replication `catch_up`,
//!    `Consumer::poll_batches`), via
//!    [`CallGraph::reach_from_named`].
//! 2. **Taint.** Within each reachable function, payload carriers are
//!    seeded *by name* ([`PAYLOAD_NAMES`]: the identifiers the
//!    workspace reserves for payload bytes — `value`, `key`, `arena`,
//!    `records`, `chunk`, …) and closed over assignments
//!    ([`Op::Assign`]), so `let v = batch.records()` taints `v`
//!    through the accessor's name. A closure passed to a method binds
//!    its parameters from the receiver, so `records.map(|r| …)` taints
//!    `r`. Taint crosses calls through a parameter-taint fixpoint
//!    ([`param_taint`]): a call whose arguments mention a tainted name
//!    marks the callee's parameters tainted and re-queues it — no
//!    inlining, so the analysis is linear in the summary lattice, not
//!    exponential in path count.
//! 3. **Sinks.** A deep copy of a tainted carrier —
//!    `.to_vec()`/`.to_owned()`/`.to_string()`, `extend_from_slice`,
//!    `copy_from_slice` (method or `Bytes::`), `Vec::from`,
//!    `String::from` — is a finding, carrying the full root→copy
//!    call-chain witness (`file:line` per hop) so a reader can see
//!    *which* hot path pays for the copy.
//!
//! `.clone()` is deliberately **not** a sink: on payload carriers it
//! is a `Bytes` refcount bump — the sanctioned zero-copy share — and
//! the conversions that would make it a deep copy (`to_vec` & co.)
//! are already sinks. The sanctioned produce-time copy
//! (`BatchBuilder::push` into the arena) sits *upstream* of every
//! root, so it is outside the closure by construction.
//!
//! Known miss: a sink passed by path instead of called
//! (`.map(String::from)`) is not a call op, so it copies unseen.
//!
//! [`BatchBuilder`]: ../../liquid_log/batch/struct.BatchBuilder.html
//! [`CallGraph::reach_from_named`]: crate::callgraph::CallGraph::reach_from_named
//! [`Op::Assign`]: crate::cfg::Op::Assign

use std::collections::{BTreeSet, HashMap};

use crate::callgraph::{CallGraph, CallSite, Reachability};
use crate::cfg::{self, Cfg, Op};
use crate::{rules, Finding, SourceData};

/// The hot-path entry points: taint propagates through everything the
/// call graph proves reachable from a non-test function with one of
/// these names.
pub const HOT_ROOTS: &[&str] = &[
    "produce_batch",
    "fetch_batch",
    "append_record_batch",
    "catch_up",
    "poll_batches",
];

/// Identifiers the workspace reserves for payload-byte carriers:
/// `Record` fields (`key`, `value`), the builder arena, batch/record
/// collections, and the wire-format locals in `record.rs`/`segment.rs`
/// (`chunk`, `body`, `rest`, `data`). Any mention of one of these
/// names inside the hot closure is a taint seed.
pub const PAYLOAD_NAMES: &[&str] = &[
    "value", "key", "payload", "arena", "records", "batch", "bytes", "chunk", "body", "rest",
    "data",
];

fn is_payload(name: &str) -> bool {
    PAYLOAD_NAMES.contains(&name)
}

/// One non-test function body in the hot closure, lowered once.
struct Body {
    /// Index into `graph.fns`.
    id: usize,
    cfg: Cfg,
    /// Parameter binding names, `self` included.
    params: Vec<String>,
}

/// The workspace functions a call op may resolve to (none for any
/// other op).
fn callees(graph: &CallGraph, body: &Body, op: &Op) -> Vec<usize> {
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
    graph.resolve(body.id, &site)
}

/// The names tainted inside `body` besides the payload names
/// themselves: the closure over assignments of the seeds, starting
/// from every parameter when the caller-side fixpoint tainted them.
fn seeded(body: &Body, params_tainted: bool) -> BTreeSet<String> {
    let init = if params_tainted {
        body.params.iter().cloned().collect()
    } else {
        BTreeSet::new()
    };
    cfg::closure(&body.cfg, init, &|froms, set| {
        froms.iter().any(|n| is_payload(n) || set.contains(n))
    })
}

/// Interprocedural parameter taint over the hot bodies: a call whose
/// receiver or argument names are tainted ([`seeded`]) taints the
/// parameters of every hot callee that has any. Monotone (flags only
/// flip false→true), so it terminates in at most |fns| rounds.
fn param_taint(graph: &CallGraph, bodies: &[Body], hot: &Reachability) -> Vec<bool> {
    let mut taint = vec![false; graph.fns.len()];
    loop {
        let mut changed = false;
        for body in bodies {
            let local = seeded(body, taint[body.id]);
            for op in body.cfg.blocks.iter().flat_map(|b| &b.ops) {
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
                    .any(|n| is_payload(n) || local.contains(n))
                {
                    continue;
                }
                for t in callees(graph, body, op) {
                    if hot.reachable[t] && graph.fns[t].arity > 0 && !taint[t] {
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

/// Whether an op is a deep-copy sink. Returns the display name of the
/// copy, the names of its *source* operand and its line: the receiver
/// for `src.to_vec()`-shaped sinks, the arguments for
/// `dst.extend_from_slice(&src)`-shaped ones — a tainted destination
/// alone (header bytes appended to a payload-bearing buffer) is not a
/// payload copy.
fn copy_kind(op: &Op) -> Option<(String, &[String], u32)> {
    let Op::Call {
        name,
        is_method,
        qual,
        recv_names,
        arg_names,
        line,
        ..
    } = op
    else {
        return None;
    };
    let (what, sources) = if *is_method {
        match name.as_str() {
            "to_vec" | "to_owned" | "to_string" => (format!(".{name}()"), &recv_names[..]),
            "extend_from_slice" | "copy_from_slice" => (format!(".{name}()"), &arg_names[..]),
            _ => return None,
        }
    } else {
        match (qual.as_deref(), name.as_str()) {
            (Some("Bytes"), "copy_from_slice") => {
                ("Bytes::copy_from_slice".to_string(), &arg_names[..])
            }
            (Some(q @ ("Vec" | "String")), "from") => (format!("{q}::from"), &arg_names[..]),
            _ => return None,
        }
    };
    Some((what, sources, *line))
}

/// Runs the pass over the whole workspace; findings are appended to
/// `out` (the framework routes them through per-file `lint:allow`
/// suppression like any other lint).
pub(crate) fn hot_copy(graph: &CallGraph, files: &[SourceData], out: &mut Vec<Finding>) {
    let hot = graph.reach_from_named(HOT_ROOTS);
    if !hot.reachable.iter().any(|&r| r) {
        return; // no hot roots in this tree (small fixture workspaces)
    }
    let by_site: HashMap<(&str, u32, &str), usize> = graph
        .fns
        .iter()
        .enumerate()
        .map(|(i, f)| ((f.file.as_str(), f.line, f.name.as_str()), i))
        .collect();
    let mut bodies = Vec::new();
    for file in files {
        let Some(ast) = &file.ast else { continue };
        rules::for_each_fn(&ast.items, &mut |f| {
            let Some(&id) = by_site.get(&(file.rel.as_str(), f.line, f.name.as_str())) else {
                return;
            };
            if !hot.reachable[id] || graph.fns[id].in_test || f.body.is_none() {
                return;
            }
            let mut params = Vec::new();
            for p in &f.params {
                p.pat.bound_names(&mut params);
            }
            bodies.push(Body {
                id,
                cfg: cfg::lower_fn(f),
                params,
            });
        });
    }
    let taint = param_taint(graph, &bodies, &hot);
    for body in &bodies {
        let local = seeded(body, taint[body.id]);
        for op in body.cfg.blocks.iter().flat_map(|b| &b.ops) {
            let Some((what, sources, line)) = copy_kind(op) else {
                continue;
            };
            let Some(carrier) = sources
                .iter()
                .find(|n| is_payload(n) || local.contains(n.as_str()))
            else {
                continue;
            };
            out.push(Finding {
                file: graph.fns[body.id].file.clone(),
                line,
                lint: "hot-copy",
                message: format!(
                    "`{what}` deep-copies payload bytes flowing through `{carrier}` on the \
                     batched hot path — share the existing buffer with Bytes::slice (refcount) \
                     or move the copy off the hot path (reached via: {})",
                    graph.witness(&hot, body.id)
                ),
            });
        }
    }
}
