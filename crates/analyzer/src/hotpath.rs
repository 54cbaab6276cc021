//! Lint **hot-copy**: interprocedural zero-copy taint over the
//! batched produce/fetch hot path.
//!
//! The ≥5M msg/s arc (ROADMAP item 1) rests on an invariant PR 6
//! established by construction: a message's payload bytes are copied
//! exactly once — into the [`BatchBuilder`] arena at produce time —
//! and every later hop (append, replicate, fetch, deliver) shares them
//! as ref-counted `Bytes` slices. Nothing in the type system enforces
//! that; one `to_vec()` in a produce-path callee silently multiplies
//! per-message work. This pass proves the invariant per commit:
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
//!    through the accessor's name. Taint crosses calls through the
//!    shared parameter-taint fixpoint over per-function *summaries*
//!    ([`Core::param_taint`]): a call whose arguments mention a
//!    tainted name marks the callee's parameters tainted and re-queues
//!    it — no inlining, so the analysis is linear in the summary
//!    lattice, not exponential in path count.
//! 3. **Sinks.** A deep copy of a tainted carrier —
//!    `.to_vec()`/`.to_owned()`, `extend_from_slice`,
//!    `copy_from_slice` (method or `Bytes::`), `Vec::from` — is a
//!    finding, carrying the full root→copy call-chain witness
//!    (`file:line` per hop) so the reviewer can see *which* hot path
//!    pays for the copy.
//!
//! `.clone()` is deliberately **not** a sink: on payload carriers it
//! is a `Bytes` refcount bump — the sanctioned zero-copy share — and
//! the conversions that would make it a deep copy (`to_vec` & co.)
//! are already sinks. The sanctioned produce-time copy
//! (`BatchBuilder::push` into the arena) sits *upstream* of every
//! root, so it is outside the closure by construction.
//!
//! [`BatchBuilder`]: ../../liquid_log/batch/struct.BatchBuilder.html
//! [`CallGraph::reach_from_named`]: crate::callgraph::CallGraph::reach_from_named
//! [`Op::Assign`]: crate::cfg::Op::Assign
//! [`Core::param_taint`]: crate::guards::Core::param_taint

use crate::cfg::Op;
use crate::guards::{self, Core};
use crate::Finding;

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
            "to_vec" | "to_owned" => (format!(".{name}()"), &recv_names[..]),
            "extend_from_slice" | "copy_from_slice" => (format!(".{name}()"), &arg_names[..]),
            _ => return None,
        }
    } else {
        match (qual.as_deref(), name.as_str()) {
            (Some("Bytes"), "copy_from_slice") => {
                ("Bytes::copy_from_slice".to_string(), &arg_names[..])
            }
            (Some("Vec"), "from") => ("Vec::from".to_string(), &arg_names[..]),
            _ => return None,
        }
    };
    Some((what, sources, *line))
}

/// Runs the pass over the whole workspace; findings are appended to
/// `out` (the framework routes them through per-file `lint:allow`
/// suppression like any other lint).
pub(crate) fn hot_copy(core: &Core, out: &mut Vec<Finding>) {
    if !core.hot.reachable.iter().any(|&r| r) {
        return; // no hot roots in this tree (small fixture workspaces)
    }
    let hot = |id: usize| core.hot.reachable[id];
    let taint = core.param_taint(&is_payload, &hot);
    for body in core.bodies.iter().filter(|b| hot(b.id)) {
        let local = guards::seeded(body, &is_payload, taint[body.id]);
        for op in body.ops() {
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
                file: core.graph.fns[body.id].file.clone(),
                line,
                lint: "hot-copy",
                message: format!(
                    "`{what}` deep-copies payload bytes flowing through `{carrier}` on the \
                     batched hot path — share the existing buffer with Bytes::slice (refcount) \
                     or move the copy off the hot path (reached via: {})",
                    core.graph.witness(&core.hot, body.id)
                ),
            });
        }
    }
}
