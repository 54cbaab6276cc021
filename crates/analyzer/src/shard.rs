//! Lint **shard**: interprocedural lock-shardability classification of
//! every ranked lockdep guard — the shard columns of the
//! `target/analysis/analysis.json` report.
//!
//! The lock-cost pass (PR 7) prices critical sections; this pass asks
//! the follow-up question ROADMAP items 1 and 4 hinge on: *could this
//! guard be split into per-partition shards?* A critical section is
//! shardable when every access it performs is keyed by a single
//! partition identity flowing in from the guard's entry point — then
//! one coarse lock can become N independent ones and producers on
//! different partitions stop serializing. The pass classifies each
//! ranked acquire site as:
//!
//! * **partition-local** — at least one access is provably keyed by a
//!   partition identity ([`PARTITION_KEY_NAMES`]: `tp`, `partition`,
//!   …; closed over assignments and propagated through calls by the
//!   same parameter-taint fixpoint hot-copy uses for payload bytes),
//!   and *no* access reaches a cross-partition collection.
//! * **cross-partition** — some access (direct, or transitively
//!   through a callee) touches a cross-partition collection
//!   ([`CROSS_COLLECTIONS`]: the `topics`/`brokers` maps of the
//!   cluster state) *without* a partition key in the same expression.
//!   A keyed access into a global map (`st.topics.get_mut(&tp.topic)`)
//!   is partition-local evidence, not cross — that is exactly the
//!   shape a shard lookup compiles to.
//! * **unknown** — neither kind of evidence: nothing provably keyed,
//!   so the pass stays conservative and does not license a split.
//!
//! Every verdict carries **witness access chains** (`file:line` per
//! hop, callee evidence prefixed with the call path), so the report is
//! an auditable argument, not a score. Lint findings fire only for
//! guards that are *shardable-but-coarse*: in the hot closure
//! ([`HOT_ROOTS`]), exclusively acquired (`.lock()`/`.write()`),
//! proven partition-local, and not already one of the per-partition
//! shard ranks ([`PARTITION_SHARDED_RANKS`]) — the analyzer-approved
//! work-list for the next lock split.
//!
//! [`HOT_ROOTS`]: crate::hotpath::HOT_ROOTS

use std::collections::BTreeSet;

use crate::cfg::Op;
use crate::guards::{self, Core, Evidence, GuardRecord, WitnessAccess, WITNESS_CAP};
use crate::Finding;

/// Identifiers the workspace reserves for partition identity: the
/// [`TopicPartition`] bindings and the partition-index locals. Any
/// mention of one of these inside a critical section is
/// partition-local evidence.
///
/// [`TopicPartition`]: ../../liquid_messaging/struct.TopicPartition.html
pub const PARTITION_KEY_NAMES: &[&str] = &[
    "tp",
    "partition",
    "partition_id",
    "partition_index",
    "topic_partition",
];

/// Field names of the cluster-wide collections: state that by
/// definition spans partitions. Reaching one of these *without* a
/// partition key in the same expression pins the guard cross-partition.
pub const CROSS_COLLECTIONS: &[&str] = &["topics", "brokers"];

/// Ranks that already are per-partition lock shards: proven
/// partition-local by construction, so the shardable-but-coarse
/// finding never re-fires on them. `log.pagecache` qualifies because
/// every `Log` instance owns its cache mutex and logs are per
/// partition *replica* — finer than a per-partition shard.
/// `log.readcache` is the segment-read cache, sharded by segment id at
/// construction — each shard's entry map sits behind its own mutex.
pub const PARTITION_SHARDED_RANKS: &[&str] = &["partition.state", "log.pagecache", "log.readcache"];

fn is_partition_key(name: &str) -> bool {
    PARTITION_KEY_NAMES.contains(&name)
}

fn is_cross_collection(name: &str) -> bool {
    CROSS_COLLECTIONS.contains(&name)
}

/// Shardability verdict for one guard.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Verdict {
    /// Every reached access keyed by one partition identity.
    PartitionLocal,
    /// Reaches a cross-partition collection unkeyed.
    CrossPartition,
    /// No evidence either way; conservative default.
    Unknown,
}

impl Verdict {
    /// The report/JSON spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::PartitionLocal => "partition-local",
            Verdict::CrossPartition => "cross-partition",
            Verdict::Unknown => "unknown",
        }
    }
}

/// The identifier-ish names an op mentions, with its source line.
/// `Mention` has no line and [`Op::LenObserve`] is a keyed point
/// lookup (`.get()`/`.contains_key()` &co.), so neither contributes
/// evidence; everything interesting surfaces as the enclosing
/// `Assign`/`Call`/`Arith`.
fn op_names(op: &Op) -> Option<(Vec<&str>, u32)> {
    match op {
        Op::Assign { froms, line, .. } => Some((froms.iter().map(String::as_str).collect(), *line)),
        Op::Call {
            recv_names,
            arg_names,
            line,
            ..
        } => Some((
            recv_names
                .iter()
                .chain(arg_names)
                .map(String::as_str)
                .collect(),
            *line,
        )),
        Op::Arith { names, line, .. } => Some((names.iter().map(String::as_str).collect(), *line)),
        Op::Index { recv, line, .. } => Some((recv.split('.').collect(), *line)),
        _ => None,
    }
}

/// What the guard walk needs from the two interprocedural phases.
pub(crate) struct Prep {
    /// Per body (by index into the core's bodies): the bindings closed
    /// over a partition key.
    keys: Vec<BTreeSet<String>>,
    /// Per function: an unkeyed cross-partition access it reaches.
    cross: Vec<Option<Evidence>>,
}

/// Phase 1 is the partition-key parameter taint. Phase 2 asks which
/// functions reach a cross-partition collection unkeyed: direct
/// evidence first, then lifted up through call sites that pass no
/// partition key (a keyed call site *is* the shard-lookup shape, so it
/// does not inherit the callee's cross evidence).
pub(crate) fn prepare(core: &Core) -> Prep {
    let taint = core.param_taint(&is_partition_key, &|_| true);
    let keys: Vec<BTreeSet<String>> = core
        .bodies
        .iter()
        .map(|b| guards::seeded(b, &is_partition_key, taint[b.id]))
        .collect();
    let keyed = |bi: usize, n: &str| is_partition_key(n) || keys[bi].contains(n);
    let mut cross = vec![None; core.graph.fns.len()];
    for (bi, body) in core.bodies.iter().enumerate() {
        if cross[body.id].is_some() {
            continue;
        }
        cross[body.id] = body.ops().filter_map(op_names).find_map(|(names, line)| {
            if names.iter().any(|&n| keyed(bi, n)) {
                return None;
            }
            let hit = names.iter().find(|n| is_cross_collection(n))?;
            Some(Evidence {
                access: format!("`{hit}`"),
                chain: vec![core.hop(body, line)],
                truncated: false,
            })
        });
    }
    core.lift(&mut cross, false, &|_| true, |bi, recv, args| {
        !recv.iter().chain(args).any(|n| keyed(bi, n.as_str()))
    });
    Prep { keys, cross }
}

/// The shard evidence of one function's acquire sites, gathered during
/// the guard walk.
pub(crate) struct Walk {
    local: Vec<Vec<WitnessAccess>>,
    cross: Vec<Vec<WitnessAccess>>,
}

impl Walk {
    pub(crate) fn new(nsites: usize) -> Self {
        Walk {
            local: vec![Vec::new(); nsites],
            cross: vec![Vec::new(); nsites],
        }
    }

    /// Evidence function: classifies the access `op` performs in body
    /// `bi` and files it under every live ranked guard.
    pub(crate) fn visit(
        &mut self,
        core: &Core,
        prep: &Prep,
        bi: usize,
        op: &Op,
        live: &BTreeSet<usize>,
    ) {
        if live.is_empty() {
            return;
        }
        let Some((names, line)) = op_names(op) else {
            return;
        };
        let body = &core.bodies[bi];
        let keys = &prep.keys[bi];
        let evidence = if let Some(k) = names
            .iter()
            .find(|n| is_partition_key(n) || keys.contains(**n))
        {
            let chain = core.hop(body, line);
            Some((true, "partition-key", format!("`{k}`"), chain))
        } else if let Some(c) = names.iter().find(|n| is_cross_collection(n)) {
            let chain = core.hop(body, line);
            Some((false, "cross-collection", format!("`{c}`"), chain))
        } else {
            // Unkeyed call: inherit the callee's transitive cross
            // evidence, if any.
            let callee = core
                .callees(body, op)
                .into_iter()
                .find_map(|t| prep.cross[t].as_ref());
            callee.map(|w| {
                let mut chain = vec![core.hop(body, line)];
                chain.extend(w.chain.iter().cloned());
                let chain = chain.join(" → ");
                (false, "cross-collection", w.access.clone(), chain)
            })
        };
        let Some((is_local, kind, access, chain)) = evidence else {
            return;
        };
        let w = WitnessAccess {
            kind,
            access,
            chain,
        };
        let buckets = if is_local {
            &mut self.local
        } else {
            &mut self.cross
        };
        for &h in live {
            if body.site_rank[h].is_some() && buckets[h].len() < WITNESS_CAP {
                buckets[h].push(w.clone());
            }
        }
    }

    /// The verdict of acquire site `i` and the accesses it rests on.
    pub(crate) fn verdict(&mut self, i: usize) -> (Verdict, Vec<WitnessAccess>) {
        if !self.cross[i].is_empty() {
            (Verdict::CrossPartition, std::mem::take(&mut self.cross[i]))
        } else if !self.local[i].is_empty() {
            (Verdict::PartitionLocal, std::mem::take(&mut self.local[i]))
        } else {
            (Verdict::Unknown, Vec::new())
        }
    }
}

/// Findings: shardable-but-coarse guards — hot, exclusive, proven
/// partition-local, and not already a per-partition shard rank.
pub(crate) fn findings(core: &Core, guards: &[GuardRecord], out: &mut Vec<Finding>) {
    for g in guards {
        if !g.hot
            || g.shard != Verdict::PartitionLocal
            || g.method == "read"
            || PARTITION_SHARDED_RANKS.contains(&g.rank)
        {
            continue;
        }
        let accesses = g
            .shard_witness
            .iter()
            .map(|w| w.access.as_str())
            .collect::<Vec<_>>()
            .join(", ");
        // The hot-root witness of the first function with the holding
        // function's qualified name mirrors hot-copy's.
        let via = core
            .graph
            .fns
            .iter()
            .position(|f| f.qualified() == g.function)
            .filter(|&id| core.hot.reachable[id])
            .map_or_else(
                || g.function.clone(),
                |id| core.graph.witness(&core.hot, id),
            );
        out.push(Finding {
            file: g.file.clone(),
            line: g.line,
            lint: "shard",
            message: format!(
                "exclusive hot-path critical section of \"{}\" (order {}, .{}()) touches only \
                 partition-local state (keyed by {accesses}) — split this lock into \
                 per-partition shards with a dedicated rank in sim::lockdep::RANKS (full \
                 verdicts: target/analysis/analysis.json) (reached via: {via})",
                g.rank, g.order, g.method,
            ),
        });
    }
}
