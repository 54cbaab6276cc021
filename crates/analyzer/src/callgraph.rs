//! Whole-workspace call graph with per-function panic summaries.
//!
//! Built from the parsed ASTs of every workspace file. Calls are
//! resolved *nominally* — by name, arity, and receiver kind, scoped to
//! the caller's crate and its workspace dependencies (parsed from
//! `Cargo.toml`) — because the analyzer has no type information. That
//! over-approximates the real graph: a call may resolve to several
//! same-named functions, and edges never go missing, which is the safe
//! direction for a reachability *proof* (a panic can be reported
//! spuriously but not silently missed by resolution).
//!
//! The per-function **panic summary** is the list of sites where the
//! function itself can abort:
//!
//! * `panic!` / `todo!` / `unimplemented!` / `unreachable!`
//! * `.unwrap()` / `.expect(..)`
//! * `base[index]` with no *dominating bounds observation*: an index
//!   is considered guarded when, on every path reaching it, the same
//!   receiver (by flattened text) already had `.len()`, `.is_empty()`,
//!   `.get()`, `.get_mut()`, `.contains_key()`, `.contains()`,
//!   `.first()` or `.last()` called on it (a must-dataflow over the
//!   CFG), or when the index is visibly masked (`x & LITERAL`,
//!   `x % m`). The heuristic checks that bounds were *considered*, not
//!   that the comparison is correct — liquid-check covers the rest
//!   dynamically.
//!
//! `assert!`-family macros are deliberately *not* panic sites: like
//! the `sim` crate's contract aborts, they state invariants whose
//! violation should stop the process even on a fault path.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use crate::ast::{self, Expr, File, Item};
use crate::cfg::{self, Op};
use crate::dataflow::{self, Analysis};
use crate::in_test;

/// One parsed workspace file handed to [`CallGraph::build`].
pub struct SourceFile<'a> {
    /// Workspace-relative path (`crates/<name>/src/...`).
    pub rel: &'a str,
    /// Parsed AST.
    pub ast: &'a File,
    /// `#[cfg(test)]`/`#[test]` line regions.
    pub test_regions: &'a [(u32, u32)],
}

/// A site where a function can abort the process.
#[derive(Debug, Clone)]
pub struct PanicSite {
    /// 1-based source line.
    pub line: u32,
    /// What panics (`` `.unwrap()` ``, `` `panic!` ``, "indexing
    /// `xs`"), ready for embedding in a message.
    pub what: String,
    /// Whether this is an indexing site (reported only when reachable,
    /// unlike the explicit panic family).
    pub indexing: bool,
}

/// An unresolved call site inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Callee name (method name or last path segment).
    pub name: String,
    /// Argument count (receiver excluded).
    pub arity: usize,
    /// Whether this was `recv.name(...)`.
    pub is_method: bool,
    /// First path segment of a qualified call (`Segment::open` →
    /// `Segment`, `liquid_log::storage::fsync` → `liquid_log`).
    pub qual: Option<String>,
    /// 1-based source line.
    pub line: u32,
}

/// One function in the graph.
#[derive(Debug)]
pub struct FnNode {
    /// Crate directory name (`log`, `messaging`, …).
    pub crate_name: String,
    /// Workspace-relative file path.
    pub file: String,
    /// Function name.
    pub name: String,
    /// Self type of the enclosing `impl` (first word, generics
    /// stripped), if any.
    pub self_ty: Option<String>,
    /// Whether the function is `pub` (any visibility qualifier).
    pub is_pub: bool,
    /// Whether it takes `self`.
    pub has_self: bool,
    /// Parameter count excluding `self`.
    pub arity: usize,
    /// 1-based line of the `fn`.
    pub line: u32,
    /// Whether the function sits in a test region.
    pub in_test: bool,
    /// Sites where this function itself can abort.
    pub panics: Vec<PanicSite>,
    /// Unresolved outgoing calls.
    pub calls: Vec<CallSite>,
}

impl FnNode {
    /// `crate::Type::name` / `crate::name` display form.
    pub fn qualified(&self) -> String {
        match &self.self_ty {
            Some(ty) => format!("{}::{}::{}", self.crate_name, ty, self.name),
            None => format!("{}::{}", self.crate_name, self.name),
        }
    }
}

/// The workspace call graph.
pub struct CallGraph {
    /// All collected functions.
    pub fns: Vec<FnNode>,
    /// Resolved edges: `edges[f]` = indices of possible callees.
    pub edges: Vec<Vec<usize>>,
    by_name: HashMap<String, Vec<usize>>,
    /// Workspace-internal dependencies: crate → crates it depends on.
    deps: BTreeMap<String, Vec<String>>,
}

/// Result of the reachability closure from a set of root functions.
pub struct Reachability {
    /// `parent[f]` = the caller through which `f` was first reached
    /// (`None` for roots and unreachable functions).
    pub parent: Vec<Option<usize>>,
    /// Whether each function is reachable from a root.
    pub reachable: Vec<bool>,
}

impl CallGraph {
    /// Builds the graph. `deps` maps crate directory names to the
    /// crate directory names they depend on (empty map → no crate
    /// scoping, used by small fixture trees without Cargo.toml).
    pub fn build(files: &[SourceFile<'_>], deps: BTreeMap<String, Vec<String>>) -> CallGraph {
        let mut fns = Vec::new();
        for f in files {
            let crate_name = f
                .rel
                .strip_prefix("crates/")
                .and_then(|r| r.split('/').next())
                .unwrap_or("")
                .to_string();
            collect_items(
                &f.ast.items,
                &crate_name,
                f.rel,
                f.test_regions,
                None,
                &mut fns,
            );
        }
        let mut by_name: HashMap<String, Vec<usize>> = HashMap::new();
        for (i, f) in fns.iter().enumerate() {
            by_name.entry(f.name.clone()).or_default().push(i);
        }
        let mut graph = CallGraph {
            fns,
            edges: Vec::new(),
            by_name,
            deps,
        };
        graph.edges = (0..graph.fns.len())
            .map(|i| {
                let mut out = BTreeSet::new();
                if !graph.fns[i].in_test {
                    for call in &graph.fns[i].calls {
                        for t in graph.resolve(i, call) {
                            out.insert(t);
                        }
                    }
                }
                out.into_iter().collect()
            })
            .collect();
        graph
    }

    /// Nominal resolution of one call site (see module docs).
    pub fn resolve(&self, caller: usize, call: &CallSite) -> Vec<usize> {
        let Some(cands) = self.by_name.get(&call.name) else {
            return Vec::new();
        };
        let from = &self.fns[caller];
        cands
            .iter()
            .copied()
            .filter(|&c| {
                let f = &self.fns[c];
                if f.in_test || f.has_self != call.is_method || f.arity != call.arity {
                    return false;
                }
                if !self.in_scope(&from.crate_name, &f.crate_name) {
                    return false;
                }
                match call.qual.as_deref() {
                    None => true,
                    Some("Self") => {
                        f.self_ty.is_some() && f.self_ty == from.self_ty && !call.is_method
                    }
                    Some(q) if q.chars().next().is_some_and(char::is_uppercase) => {
                        f.self_ty.as_deref() == Some(q)
                    }
                    Some(q) => match crate_of_alias(q) {
                        Some(krate) => f.crate_name == krate,
                        None => true, // module-qualified: modules unmodeled
                    },
                }
            })
            .collect()
    }

    fn in_scope(&self, from: &str, to: &str) -> bool {
        if self.deps.is_empty() || from == to {
            return true;
        }
        self.deps
            .get(from)
            .is_some_and(|ds| ds.iter().any(|d| d == to))
    }

    /// Breadth-first closure from every public function of the given
    /// crates, stopping at (not descending into) `stop_crates`.
    pub fn reach_from_pubs(&self, root_crates: &[&str], stop_crates: &[&str]) -> Reachability {
        let n = self.fns.len();
        let mut parent = vec![None; n];
        let mut reachable = vec![false; n];
        let mut queue = std::collections::VecDeque::new();
        for (i, f) in self.fns.iter().enumerate() {
            if f.is_pub && !f.in_test && root_crates.contains(&f.crate_name.as_str()) {
                reachable[i] = true;
                queue.push_back(i);
            }
        }
        while let Some(i) = queue.pop_front() {
            if stop_crates.contains(&self.fns[i].crate_name.as_str()) {
                continue; // boundary: reachable, but not traversed through
            }
            for &t in &self.edges[i] {
                if !reachable[t] {
                    reachable[t] = true;
                    parent[t] = Some(i);
                    queue.push_back(t);
                }
            }
        }
        Reachability { parent, reachable }
    }

    /// The call chain from a root to `id`, rendered as
    /// `a::b → c::d → e::f`.
    pub fn chain(&self, reach: &Reachability, id: usize) -> String {
        let mut names = vec![self.fns[id].qualified()];
        let mut cur = id;
        let mut hops = 0;
        while let Some(p) = reach.parent[cur] {
            names.push(self.fns[p].qualified());
            cur = p;
            hops += 1;
            if hops > 64 {
                break;
            }
        }
        names.reverse();
        names.join(" → ")
    }

    /// Breadth-first closure from every non-test function whose *name*
    /// is in `root_names` (the hot-path entry points). Unlike
    /// [`reach_from_pubs`] the roots are named functions, not whole
    /// crates, so the closure is the precise dynamic extent of the hot
    /// path.
    ///
    /// [`reach_from_pubs`]: Self::reach_from_pubs
    pub fn reach_from_named(&self, root_names: &[&str]) -> Reachability {
        let n = self.fns.len();
        let mut parent = vec![None; n];
        let mut reachable = vec![false; n];
        let mut queue = std::collections::VecDeque::new();
        for (i, f) in self.fns.iter().enumerate() {
            if !f.in_test && root_names.contains(&f.name.as_str()) {
                reachable[i] = true;
                queue.push_back(i);
            }
        }
        while let Some(i) = queue.pop_front() {
            for &t in &self.edges[i] {
                if !reachable[t] {
                    reachable[t] = true;
                    parent[t] = Some(i);
                    queue.push_back(t);
                }
            }
        }
        Reachability { parent, reachable }
    }

    /// The call chain from a root to `id` with a `file:line` witness
    /// per hop: `a::b (crates/a/src/lib.rs:10) → c::d (…:42)`.
    pub fn witness(&self, reach: &Reachability, id: usize) -> String {
        let mut hops_out = Vec::new();
        let mut cur = id;
        let mut hops = 0;
        loop {
            let f = &self.fns[cur];
            hops_out.push(format!("{} ({}:{})", f.qualified(), f.file, f.line));
            match reach.parent[cur] {
                Some(p) if hops <= 64 => {
                    cur = p;
                    hops += 1;
                }
                _ => break,
            }
        }
        hops_out.reverse();
        hops_out.join(" → ")
    }
}

/// The receiver type a parameter annotation names, if it is a plain
/// (possibly referenced) workspace-shaped type: `& mut RecordBatch` →
/// `RecordBatch`. Std wrappers and generics yield `None` — resolving
/// through them needs real type inference, and a wrong qualifier would
/// *drop* edges, which is the unsafe direction.
fn param_type_head(ty: &str) -> Option<String> {
    let head = ty
        .split_whitespace()
        .find(|t| !matches!(*t, "&" | "mut") && !t.starts_with('\''))?;
    let plain = head.chars().all(|c| c.is_alphanumeric() || c == '_');
    let concrete = head.chars().next().is_some_and(char::is_uppercase) && head.len() > 1;
    let wrapper = matches!(
        head,
        "Box"
            | "Arc"
            | "Rc"
            | "Option"
            | "Result"
            | "Vec"
            | "String"
            | "HashMap"
            | "HashSet"
            | "BTreeMap"
            | "BTreeSet"
            | "VecDeque"
            | "Mutex"
            | "RwLock"
            | "RefCell"
            | "Cell"
            | "PathBuf"
            | "Path"
            | "Cow"
            | "Duration"
            | "Instant"
    );
    (plain && concrete && !wrapper).then(|| head.to_string())
}

/// The crate directory behind a `liquid_*` path qualifier
/// (`liquid_log` → `log`, `liquid` → `core`), or `None` for plain
/// module names.
fn crate_of_alias(q: &str) -> Option<String> {
    if q == "liquid" {
        return Some("core".to_string());
    }
    q.strip_prefix("liquid_").map(|rest| rest.to_string())
}

fn collect_items(
    items: &[Item],
    crate_name: &str,
    rel: &str,
    regions: &[(u32, u32)],
    self_ty: Option<&str>,
    out: &mut Vec<FnNode>,
) {
    for item in items {
        match item {
            Item::Fn(f) => collect_fn(f, crate_name, rel, regions, self_ty, out),
            Item::Impl {
                self_ty: ty, items, ..
            } => {
                let first = ty.split_whitespace().next().unwrap_or(ty);
                collect_items(items, crate_name, rel, regions, Some(first), out);
            }
            Item::Trait { items, .. } => {
                collect_items(items, crate_name, rel, regions, None, out);
            }
            Item::Mod { items, .. } => {
                collect_items(items, crate_name, rel, regions, self_ty, out);
            }
            Item::Struct(_) | Item::Other { .. } => {}
        }
    }
}

fn collect_fn(
    f: &ast::Fn,
    crate_name: &str,
    rel: &str,
    regions: &[(u32, u32)],
    self_ty: Option<&str>,
    out: &mut Vec<FnNode>,
) {
    let mut panics = Vec::new();
    let mut calls = Vec::new();
    // Receiver types knowable without inference: `self`, and parameters
    // with a plain workspace-type annotation. Lets `batch.records()`
    // resolve to `RecordBatch::records` instead of every `records`.
    let mut var_tys: HashMap<String, String> = HashMap::new();
    for p in &f.params {
        let mut bound = Vec::new();
        p.pat.bound_names(&mut bound);
        if let ([name], Some(ty)) = (bound.as_slice(), param_type_head(&p.ty)) {
            var_tys.insert(name.clone(), ty);
        }
    }
    if let Some(body) = &f.body {
        ast::walk_block(body, &mut |e| match e {
            Expr::MacroCall { name, line, .. }
                if matches!(
                    name.as_str(),
                    "panic" | "todo" | "unimplemented" | "unreachable"
                ) =>
            {
                panics.push(PanicSite {
                    line: *line,
                    what: format!("`{name}!`"),
                    indexing: false,
                });
            }
            Expr::MethodCall {
                recv,
                method,
                args,
                line,
            } => {
                if matches!(method.as_str(), "unwrap" | "expect") {
                    panics.push(PanicSite {
                        line: *line,
                        what: format!("`.{method}()`"),
                        indexing: false,
                    });
                }
                let qual = match recv.as_ref() {
                    Expr::Path { segs, .. } if segs.len() == 1 => {
                        if segs[0] == "self" {
                            self_ty.map(str::to_string)
                        } else {
                            var_tys.get(&segs[0]).cloned()
                        }
                    }
                    _ => None,
                };
                calls.push(CallSite {
                    name: method.clone(),
                    arity: args.len(),
                    is_method: true,
                    qual,
                    line: *line,
                });
            }
            Expr::Call { callee, args, line } => {
                if let Expr::Path { segs, .. } = callee.as_ref() {
                    if let Some(name) = segs.last() {
                        calls.push(CallSite {
                            name: name.clone(),
                            arity: args.len(),
                            is_method: false,
                            qual: (segs.len() > 1).then(|| segs[0].clone()),
                            line: *line,
                        });
                    }
                }
            }
            _ => {}
        });
        // Unguarded indexing sites, via the must-bounds dataflow.
        let g = cfg::lower_fn(f);
        let must = dataflow::solve(&g, &MustBounds);
        for b in 0..g.blocks.len() {
            dataflow::walk_ops(&g, &MustBounds, &must, b, |_, op, fact| {
                if let Op::Index {
                    recv,
                    masked: false,
                    line,
                } = op
                {
                    match fact {
                        Some(seen) if seen.contains(recv) => {}
                        None => {} // unreachable block
                        Some(_) => panics.push(PanicSite {
                            line: *line,
                            what: format!("indexing `{recv}`"),
                            indexing: true,
                        }),
                    }
                }
            });
        }
    }
    panics.sort_by_key(|p| p.line);
    panics.dedup_by(|a, b| a.line == b.line && a.what == b.what);
    out.push(FnNode {
        crate_name: crate_name.to_string(),
        file: rel.to_string(),
        name: f.name.clone(),
        self_ty: self_ty.map(str::to_string),
        is_pub: f.is_pub,
        has_self: f.has_self,
        arity: f.params.len(),
        line: f.line,
        in_test: in_test(regions, f.line),
        panics,
        calls,
    });
    // Nested function items inside the body.
    if let Some(body) = &f.body {
        for stmt in &body.stmts {
            if let ast::Stmt::Item(item) = stmt {
                if let Item::Fn(nested) = item.as_ref() {
                    collect_fn(nested, crate_name, rel, regions, None, out);
                }
            }
        }
    }
}

/// Forward must-analysis: the set of receivers (by flattened text)
/// that have had a bounds-relevant observation on *every* path.
/// `None` is the "unvisited" top element.
pub struct MustBounds;

impl Analysis for MustBounds {
    type Fact = Option<BTreeSet<String>>;
    const BACKWARD: bool = false;

    fn boundary(&self) -> Self::Fact {
        Some(BTreeSet::new())
    }

    fn init(&self) -> Self::Fact {
        None
    }

    fn join(&self, fact: &mut Self::Fact, other: &Self::Fact) -> bool {
        match (fact.as_mut(), other) {
            (_, None) => false,
            (None, Some(o)) => {
                *fact = Some(o.clone());
                true
            }
            (Some(f), Some(o)) => {
                let before = f.len();
                f.retain(|x| o.contains(x));
                f.len() != before
            }
        }
    }

    fn transfer(&self, op: &Op, fact: &mut Self::Fact) {
        let Some(set) = fact.as_mut() else { return };
        match op {
            Op::LenObserve { recv } => {
                set.insert(recv.clone());
            }
            // Redefinition invalidates observations made through the
            // rebound name.
            Op::Assign { to, .. } | Op::Kill { var: to, .. } => {
                set.retain(|r| r.split(['.', '[']).next().is_none_or(|head| head != to));
            }
            _ => {}
        }
    }
}
