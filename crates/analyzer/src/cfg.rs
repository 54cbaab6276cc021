//! Intra-procedural control-flow graphs lowered from the AST.
//!
//! The CFG does not try to be a general-purpose IR: each basic block
//! carries a sequence of [`Op`]s — the *rule-relevant events* of the
//! function (lock acquisitions and guard deaths, assignments, calls,
//! length observations, indexing, raw arithmetic) — in evaluation
//! order, with edges for `if`/`match` branches, loop back edges, and
//! the early exits introduced by `return` and `?`. Closures are
//! lowered as *optional* branches (taken zero or one time), which
//! over-approximates both "never runs" and "runs many times" for the
//! may-analyses built on top.
//!
//! The flow-sensitive rules in [`crate::rules`] run the generic
//! worklist solver in [`crate::dataflow`] over these ops.

use std::collections::BTreeSet;

use crate::ast::{Block as AstBlock, Expr, Fn, Pat, Stmt};

/// One rule-relevant event inside a basic block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// A ranked-lock-shaped acquisition (`recv.lock()` / `.read()` /
    /// `.write()` with no arguments). Index into [`Cfg::acquires`].
    Acquire(usize),
    /// A named guard (or any binding) dies: `drop(var)`, scope end, or
    /// shadowing.
    Kill {
        /// The binding that dies.
        var: String,
    },
    /// End of statement: temporary (unbound) guards die.
    KillTemps,
    /// `let to = …` / `to = …` where the right-hand side mentions
    /// `froms` (alias and taint propagation).
    Assign {
        /// Binding being (re)defined.
        to: String,
        /// Identifier-ish names appearing in the right-hand side:
        /// bare locals, field names, and method names.
        froms: Vec<String>,
        /// 1-based source line.
        line: u32,
    },
    /// A bounds-relevant observation on a receiver: `.len()`,
    /// `.is_empty()`, `.get()`, `.get_mut()`, `.contains_key()`,
    /// `.contains()`, `.first()`, `.last()`.
    LenObserve {
        /// Flattened receiver text (see [`flatten`]).
        recv: String,
    },
    /// An `expr[index]` that can panic. `masked` is true when the
    /// index is visibly bounded (`x & LITERAL` or `x % len`).
    Index {
        /// Flattened receiver text.
        recv: String,
        /// Whether the index is mask/modulo-bounded.
        masked: bool,
        /// 1-based source line.
        line: u32,
    },
    /// A raw `+`/`-`/`*` (binary or compound assignment) over the
    /// named sources.
    Arith {
        /// The operator character.
        op: char,
        /// Names feeding either operand (locals, field names, method
        /// names).
        names: Vec<String>,
        /// 1-based source line.
        line: u32,
    },
    /// Any function or method call, kept in evaluation order so the
    /// hot-copy taint can resolve callees and spot copy sinks.
    /// Special-cased calls (`lock`/`drop`) are emitted as their
    /// dedicated ops instead, never as `Call`.
    Call {
        /// Final segment of the callee (`Vec::with_capacity` →
        /// `with_capacity`).
        name: String,
        /// Argument count (`self` excluded).
        arity: usize,
        /// Whether the call is `recv.name(...)`.
        is_method: bool,
        /// Path qualifier for free calls (`Vec::with_capacity` →
        /// `Vec`), or `None` for bare/method calls.
        qual: Option<String>,
        /// Names mentioned by the receiver (empty for free calls).
        /// Kept separate from `arg_names` so taint sinks can tell a
        /// tainted *source* from a tainted *destination*
        /// (`buf.extend_from_slice(&value)` copies payload;
        /// `buf.extend_from_slice(&header)` does not, even when `buf`
        /// holds payload).
        recv_names: Vec<String>,
        /// Names mentioned by the arguments, in order.
        arg_names: Vec<String>,
        /// 1-based source line.
        line: u32,
    },
}

/// One lock-shaped acquisition site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AcquireSite {
    /// The binding holding the guard (`let g = x.lock()`), or `None`
    /// for a temporary that dies at end of statement.
    pub var: Option<String>,
    /// Final field/identifier name of the receiver (`self.inner.state`
    /// → `state`): the key into the ranked-lock table.
    pub field: String,
    /// 1-based source line.
    pub line: u32,
}

/// A basic block: straight-line ops plus successor edges.
#[derive(Debug, Clone, Default)]
pub struct BasicBlock {
    /// Events in evaluation order.
    pub ops: Vec<Op>,
    /// Successor block indices.
    pub succs: Vec<usize>,
}

/// The control-flow graph of one function body.
#[derive(Debug, Clone)]
pub struct Cfg {
    /// All blocks; `blocks[entry]` and `blocks[exit]` delimit the
    /// function.
    pub blocks: Vec<BasicBlock>,
    /// Acquisition sites referenced by [`Op::Acquire`].
    pub acquires: Vec<AcquireSite>,
    /// Entry block index (always 0).
    pub entry: usize,
    /// Exit block index (always 1); `return` and `?` edges land here.
    pub exit: usize,
}

impl Cfg {
    /// Predecessor lists, computed on demand.
    pub fn preds(&self) -> Vec<Vec<usize>> {
        let mut preds = vec![Vec::new(); self.blocks.len()];
        for (b, blk) in self.blocks.iter().enumerate() {
            for &s in &blk.succs {
                preds[s].push(b);
            }
        }
        preds
    }
}

/// Lowers a function body to a CFG. Functions without a body (trait
/// method signatures) yield an entry→exit graph with no ops.
pub fn lower_fn(f: &Fn) -> Cfg {
    let mut b = Builder {
        cfg: Cfg {
            blocks: vec![BasicBlock::default(), BasicBlock::default()],
            acquires: Vec::new(),
            entry: 0,
            exit: 1,
        },
        cur: 0,
        loops: Vec::new(),
    };
    if let Some(body) = &f.body {
        b.lower_block(body);
    }
    let exit = b.cfg.exit;
    b.edge_to(exit);
    b.cfg
}

/// The flow-insensitive closure of `set` over one function's
/// assignments: every binding whose initializer `taints` (given its
/// right-hand names and the closure so far) joins it, to fixpoint.
pub fn closure(
    cfg: &Cfg,
    mut set: BTreeSet<String>,
    taints: &dyn std::ops::Fn(&[String], &BTreeSet<String>) -> bool,
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

/// Flattens an expression to stable receiver text for matching
/// observations to uses: `self.inner.state` → `self.inner.state`,
/// `xs[i].field` → `xs[..].field`, method calls keep their name.
pub fn flatten(e: &Expr) -> String {
    match e {
        Expr::Path { segs, .. } => segs.join("::"),
        Expr::FieldAccess { base, name, .. } => format!("{}.{name}", flatten(base)),
        Expr::Index { base, .. } => format!("{}[..]", flatten(base)),
        Expr::MethodCall { recv, method, .. } => format!("{}.{method}()", flatten(recv)),
        Expr::Call { callee, .. } => format!("{}()", flatten(callee)),
        Expr::Ref { expr, .. } | Expr::Unary { operand: expr, .. } => flatten(expr),
        Expr::Try { expr, .. } | Expr::Cast { expr, .. } => flatten(expr),
        _ => "?".to_string(),
    }
}

/// The final field/identifier name of a receiver chain
/// (`self.inner.state` → `state`).
pub fn last_name(e: &Expr) -> Option<String> {
    match e {
        Expr::Path { segs, .. } => segs.last().cloned(),
        Expr::FieldAccess { name, .. } => Some(name.clone()),
        Expr::MethodCall { method, .. } => Some(method.clone()),
        Expr::Index { base, .. } => last_name(base),
        Expr::Ref { expr, .. } | Expr::Unary { operand: expr, .. } => last_name(expr),
        Expr::Try { expr, .. } | Expr::Cast { expr, .. } => last_name(expr),
        _ => None,
    }
}

/// Collects the identifier-ish names an expression mentions: bare
/// (single-segment) path idents, field-access names, and method names,
/// recursively. Used for assignment/taint sources and arithmetic
/// operands.
pub fn names(e: &Expr, out: &mut Vec<String>) {
    match e {
        Expr::Path { segs, .. } => {
            if segs.len() == 1 {
                out.push(segs[0].clone());
            }
        }
        Expr::Lit { .. } => {}
        Expr::FieldAccess { base, name, .. } => {
            out.push(name.clone());
            names(base, out);
        }
        Expr::MethodCall {
            recv, method, args, ..
        } => {
            out.push(method.clone());
            names(recv, out);
            for a in args {
                names(a, out);
            }
        }
        Expr::Call { callee, args, .. } => {
            names(callee, out);
            for a in args {
                names(a, out);
            }
        }
        Expr::Index { base, index, .. } => {
            names(base, out);
            names(index, out);
        }
        Expr::Binary { lhs, rhs, .. } => {
            names(lhs, out);
            names(rhs, out);
        }
        Expr::Unary { operand, .. } => names(operand, out),
        Expr::Assign { lhs, rhs, .. } => {
            names(lhs, out);
            names(rhs, out);
        }
        Expr::Ref { expr, .. } | Expr::Try { expr, .. } | Expr::Cast { expr, .. } => {
            names(expr, out)
        }
        Expr::Tuple { elems, .. } | Expr::Array { elems, .. } => {
            for e in elems {
                names(e, out);
            }
        }
        Expr::Range { lo, hi, .. } => {
            if let Some(lo) = lo {
                names(lo, out);
            }
            if let Some(hi) = hi {
                names(hi, out);
            }
        }
        Expr::MacroCall { args, .. } => {
            for a in args {
                names(a, out);
            }
        }
        Expr::StructLit { fields, base, .. } => {
            for (_, v) in fields {
                names(v, out);
            }
            if let Some(b) = base {
                names(b, out);
            }
        }
        Expr::Return { value, .. } | Expr::Break { value, .. } => {
            if let Some(v) = value {
                names(v, out);
            }
        }
        // Control-flow expressions in value position: conservatively
        // collect from the scrutinee/condition only; their bodies get
        // their own ops during lowering.
        Expr::If { cond, .. } => names(cond, out),
        Expr::Match { scrutinee, .. } => names(scrutinee, out),
        Expr::While { cond, .. } => names(cond, out),
        Expr::For { iter, .. } => names(iter, out),
        Expr::Closure { body, .. } => names(body, out),
        Expr::Loop { .. } | Expr::Block(_) | Expr::Continue { .. } => {}
    }
}

struct LoopCtx {
    head: usize,
    exit: usize,
}

struct Builder {
    cfg: Cfg,
    cur: usize,
    loops: Vec<LoopCtx>,
}

impl Builder {
    fn new_block(&mut self) -> usize {
        self.cfg.blocks.push(BasicBlock::default());
        self.cfg.blocks.len() - 1
    }

    fn push(&mut self, op: Op) {
        self.cfg.blocks[self.cur].ops.push(op);
    }

    fn edge_to(&mut self, to: usize) {
        if !self.cfg.blocks[self.cur].succs.contains(&to) {
            self.cfg.blocks[self.cur].succs.push(to);
        }
    }

    /// Ends the current block with an edge to `to` and switches to a
    /// fresh block (used after `return`/`break`/`continue`; the fresh
    /// block is unreachable unless something else jumps to it).
    fn divert(&mut self, to: usize) {
        self.edge_to(to);
        self.cur = self.new_block();
    }

    fn lower_block(&mut self, block: &AstBlock) {
        let mut scope: Vec<String> = Vec::new();
        for stmt in &block.stmts {
            match stmt {
                Stmt::Let {
                    pat,
                    init,
                    else_block,
                    line,
                } => {
                    let mut bound = Vec::new();
                    pat.bound_names(&mut bound);
                    // Shadowing kills the previous binding of each name
                    // (including a previous guard). This must precede the
                    // initializer: the acquire site the init may create is
                    // about to be named after the same binding, and the
                    // shadow-kill must not destroy the new guard.
                    for name in &bound {
                        self.push(Op::Kill { var: name.clone() });
                    }
                    let acquires_before = self.cfg.acquires.len();
                    if let Some(init) = init {
                        self.lower_expr(init);
                    }
                    // A single-binding `let` whose initializer *is* a
                    // guard names it; any other guard taken in the
                    // initializer is a temporary that dies with the
                    // statement (`let n = m.read().len();`).
                    if bound.len() == 1 && init.as_ref().is_some_and(is_guard) {
                        if let Some(site) = self.cfg.acquires[acquires_before..]
                            .iter_mut()
                            .rev()
                            .find(|s| s.var.is_none())
                        {
                            site.var = Some(bound[0].clone());
                        }
                    }
                    let mut froms = Vec::new();
                    if let Some(init) = init {
                        names(init, &mut froms);
                    }
                    for name in &bound {
                        self.push(Op::Assign {
                            to: name.clone(),
                            froms: froms.clone(),
                            line: *line,
                        });
                        if !scope.contains(name) {
                            scope.push(name.clone());
                        }
                    }
                    if let Some(else_block) = else_block {
                        // `let … else { diverges }`: the else branch
                        // runs when the pattern fails, then diverges.
                        let merge = self.new_block();
                        let else_b = self.new_block();
                        self.edge_to(merge);
                        self.edge_to(else_b);
                        self.cur = else_b;
                        self.lower_block(else_block);
                        let exit = self.cfg.exit;
                        self.edge_to(exit);
                        self.cur = merge;
                    }
                    self.push(Op::KillTemps);
                }
                Stmt::Expr { expr, .. } => {
                    self.lower_expr(expr);
                    self.push(Op::KillTemps);
                }
                Stmt::Item(_) => {}
            }
        }
        self.kill_all(&scope);
    }

    /// Scope exit: every binding in `scope` dies, innermost first.
    fn kill_all(&mut self, scope: &[String]) {
        for var in scope.iter().rev() {
            self.push(Op::Kill { var: var.clone() });
        }
    }

    fn lower_pat_bindings(&mut self, pat: &Pat, scope: &mut Vec<String>, froms: &[String]) {
        let mut bound = Vec::new();
        pat.bound_names(&mut bound);
        for name in bound {
            self.push(Op::Kill { var: name.clone() });
            self.push(Op::Assign {
                to: name.clone(),
                froms: froms.to_vec(),
                line: 0,
            });
            scope.push(name);
        }
    }

    /// Lowers a block that binds pattern names on entry (loop bodies,
    /// match arms, if-let branches) and kills them on exit.
    fn lower_bound_block(&mut self, pat: Option<&Pat>, source: Option<&Expr>, block: &AstBlock) {
        let mut scope = Vec::new();
        if let Some(pat) = pat {
            let mut froms = Vec::new();
            if let Some(src) = source {
                names(src, &mut froms);
            }
            self.lower_pat_bindings(pat, &mut scope, &froms);
        }
        self.lower_block(block);
        self.kill_all(&scope);
    }

    /// A closure is an optional branch: it may or may not run. Its
    /// parameters are bound from `froms` — the receiver's names when it
    /// is passed to a method (`records.map(|r| …)` yields items of
    /// `records`), none otherwise.
    fn lower_closure(&mut self, params: &[Pat], body: &Expr, froms: &[String]) {
        let clos_b = self.new_block();
        let join = self.new_block();
        self.edge_to(clos_b);
        self.edge_to(join);
        self.cur = clos_b;
        let mut scope = Vec::new();
        for p in params {
            self.lower_pat_bindings(p, &mut scope, froms);
        }
        self.lower_expr(body);
        self.kill_all(&scope);
        self.edge_to(join);
        self.cur = join;
    }

    fn lower_opt(&mut self, e: Option<&Expr>) {
        if let Some(e) = e {
            self.lower_expr(e);
        }
    }

    fn lower_expr(&mut self, e: &Expr) {
        match e {
            Expr::Path { .. } | Expr::Lit { .. } => {}
            Expr::FieldAccess { base, .. } => self.lower_expr(base),
            Expr::MethodCall {
                recv,
                method,
                args,
                line,
            } => {
                self.lower_expr(recv);
                let mut recv_ns = Vec::new();
                names(recv, &mut recv_ns);
                for a in args {
                    match a {
                        Expr::Closure { params, body, .. } => {
                            self.lower_closure(params, body, &recv_ns)
                        }
                        _ => self.lower_expr(a),
                    }
                }
                let mut consumed = true;
                match method.as_str() {
                    "lock" | "read" | "write" if args.is_empty() => {
                        if let Some(field) = last_name(recv) {
                            self.cfg.acquires.push(AcquireSite {
                                var: None,
                                field,
                                line: *line,
                            });
                            let idx = self.cfg.acquires.len() - 1;
                            self.push(Op::Acquire(idx));
                        }
                    }
                    "len" | "is_empty" | "get" | "get_mut" | "contains_key" | "contains"
                    | "first" | "last" => {
                        self.push(Op::LenObserve {
                            recv: flatten(recv),
                        });
                    }
                    _ => consumed = false,
                }
                if !consumed {
                    let mut arg_ns = Vec::new();
                    for a in args {
                        names(a, &mut arg_ns);
                    }
                    self.push(Op::Call {
                        name: method.clone(),
                        arity: args.len(),
                        is_method: true,
                        qual: None,
                        recv_names: recv_ns,
                        arg_names: arg_ns,
                        line: *line,
                    });
                }
            }
            Expr::Call { callee, args, line } => {
                // `drop(g)` releases the guard.
                let mut call: Option<(String, Option<String>)> = None;
                if let Expr::Path { segs, .. } = callee.as_ref() {
                    if segs.len() == 1 && segs[0] == "drop" && args.len() == 1 {
                        if let Expr::Path { segs: arg, .. } = &args[0] {
                            if arg.len() == 1 {
                                self.push(Op::Kill {
                                    var: arg[0].clone(),
                                });
                                return;
                            }
                        }
                    }
                    if let Some(name) = segs.last() {
                        call = Some((name.clone(), (segs.len() > 1).then(|| segs[0].clone())));
                    }
                } else {
                    self.lower_expr(callee);
                }
                for a in args {
                    self.lower_expr(a);
                }
                if let Some((name, qual)) = call {
                    let mut arg_ns = Vec::new();
                    for a in args {
                        names(a, &mut arg_ns);
                    }
                    self.push(Op::Call {
                        name,
                        arity: args.len(),
                        is_method: false,
                        qual,
                        recv_names: Vec::new(),
                        arg_names: arg_ns,
                        line: *line,
                    });
                }
            }
            Expr::Index { base, index, line } => {
                self.lower_expr(base);
                self.lower_expr(index);
                self.push(Op::Index {
                    recv: flatten(base),
                    masked: is_masked_index(index),
                    line: *line,
                });
            }
            Expr::Binary { op, lhs, rhs, line } => {
                self.lower_expr(lhs);
                self.lower_expr(rhs);
                if matches!(op.as_str(), "+" | "-" | "*") {
                    let mut ns = Vec::new();
                    names(lhs, &mut ns);
                    names(rhs, &mut ns);
                    self.push(Op::Arith {
                        op: op.chars().next().unwrap_or('+'),
                        names: ns,
                        line: *line,
                    });
                }
            }
            Expr::Unary { operand, .. } => self.lower_expr(operand),
            Expr::Assign { lhs, op, rhs, line } => {
                self.lower_expr(rhs);
                if let Some(op) = op {
                    if matches!(op.as_str(), "+" | "-" | "*") {
                        let mut ns = Vec::new();
                        names(lhs, &mut ns);
                        names(rhs, &mut ns);
                        self.push(Op::Arith {
                            op: op.chars().next().unwrap_or('+'),
                            names: ns,
                            line: *line,
                        });
                    }
                }
                match lhs.as_ref() {
                    Expr::Path { segs, .. } if segs.len() == 1 => {
                        let mut froms = Vec::new();
                        names(rhs, &mut froms);
                        if op.is_some() {
                            // `x += y` reads x too.
                            froms.push(segs[0].clone());
                        }
                        self.push(Op::Assign {
                            to: segs[0].clone(),
                            froms,
                            line: *line,
                        });
                    }
                    other => self.lower_expr(other),
                }
            }
            Expr::Ref { expr, .. } | Expr::Cast { expr, .. } => self.lower_expr(expr),
            Expr::Try { expr, .. } => {
                // `e?`: the error path leaves the function here.
                self.lower_expr(expr);
                let next = self.new_block();
                let exit = self.cfg.exit;
                self.edge_to(exit);
                self.edge_to(next);
                self.cur = next;
            }
            Expr::If {
                pat,
                cond,
                then,
                else_,
                line: _,
            } => {
                self.lower_expr(cond);
                let branch_point = self.cur;
                let then_b = self.new_block();
                let join = self.new_block();
                self.cfg.blocks[branch_point].succs.push(then_b);
                self.cur = then_b;
                self.lower_bound_block(pat.as_ref(), Some(cond), then);
                self.edge_to(join);
                self.cur = branch_point;
                match else_ {
                    Some(else_expr) => {
                        let else_b = self.new_block();
                        self.edge_to(else_b);
                        self.cur = else_b;
                        self.lower_expr(else_expr);
                        self.edge_to(join);
                    }
                    None => self.edge_to(join),
                }
                self.cur = join;
            }
            Expr::Match {
                scrutinee, arms, ..
            } => {
                self.lower_expr(scrutinee);
                let branch_point = self.cur;
                let join = self.new_block();
                if arms.is_empty() {
                    // `match never {}`: fall through (scrutinee is !).
                    self.cfg.blocks[branch_point].succs.push(join);
                }
                for arm in arms {
                    let arm_b = self.new_block();
                    self.cfg.blocks[branch_point].succs.push(arm_b);
                    self.cur = arm_b;
                    let mut scope = Vec::new();
                    let mut froms = Vec::new();
                    names(scrutinee, &mut froms);
                    self.lower_pat_bindings(&arm.pat, &mut scope, &froms);
                    if let Some(guard) = &arm.guard {
                        self.lower_expr(guard);
                    }
                    self.lower_expr(&arm.body);
                    self.kill_all(&scope);
                    self.edge_to(join);
                }
                self.cur = join;
            }
            Expr::While {
                pat, cond, body, ..
            } => {
                let head = self.new_block();
                let exit_b = self.new_block();
                self.edge_to(head);
                self.cur = head;
                self.lower_expr(cond);
                let body_b = self.new_block();
                self.edge_to(body_b);
                self.edge_to(exit_b);
                self.cur = body_b;
                self.loops.push(LoopCtx { head, exit: exit_b });
                self.lower_bound_block(pat.as_ref(), Some(cond), body);
                self.loops.pop();
                self.edge_to(head);
                self.cur = exit_b;
            }
            Expr::Loop { body, .. } => {
                let head = self.new_block();
                let exit_b = self.new_block();
                self.edge_to(head);
                self.cur = head;
                self.loops.push(LoopCtx { head, exit: exit_b });
                self.lower_block(body);
                self.loops.pop();
                self.edge_to(head);
                self.cur = exit_b;
            }
            Expr::For {
                pat, iter, body, ..
            } => {
                self.lower_expr(iter);
                let head = self.new_block();
                let exit_b = self.new_block();
                self.edge_to(head);
                self.cur = head;
                let body_b = self.new_block();
                self.edge_to(body_b);
                self.edge_to(exit_b);
                self.cur = body_b;
                self.loops.push(LoopCtx { head, exit: exit_b });
                self.lower_bound_block(Some(pat), Some(iter), body);
                self.loops.pop();
                self.edge_to(head);
                self.cur = exit_b;
            }
            Expr::Block(b) => {
                self.lower_block(b);
            }
            Expr::Return { value, .. } => {
                self.lower_opt(value.as_deref());
                let exit = self.cfg.exit;
                self.divert(exit);
            }
            Expr::Break { value, .. } => {
                self.lower_opt(value.as_deref());
                let target = self.loops.last().map_or(self.cfg.exit, |l| l.exit);
                self.divert(target);
            }
            Expr::Continue { .. } => {
                let target = self.loops.last().map_or(self.cfg.exit, |l| l.head);
                self.divert(target);
            }
            Expr::Closure { params, body, .. } => self.lower_closure(params, body, &[]),
            Expr::MacroCall { args, .. } => {
                for a in args {
                    self.lower_expr(a);
                }
            }
            Expr::StructLit { fields, base, .. } => {
                for (_, v) in fields {
                    self.lower_expr(v);
                }
                self.lower_opt(base.as_deref());
            }
            Expr::Tuple { elems, .. } | Expr::Array { elems, .. } => {
                for e in elems {
                    self.lower_expr(e);
                }
            }
            Expr::Range { lo, hi, .. } => {
                self.lower_opt(lo.as_deref());
                self.lower_opt(hi.as_deref());
            }
        }
    }
}

/// Whether an index expression is visibly bounded: `x & LITERAL`,
/// `x % m`, or either of those under an `as` cast.
fn is_masked_index(e: &Expr) -> bool {
    match e {
        Expr::Cast { expr, .. } => is_masked_index(expr),
        Expr::Binary { op, rhs, .. } if op == "&" => {
            matches!(rhs.as_ref(), Expr::Lit { .. } | Expr::Cast { .. })
        }
        Expr::Binary { op, .. } if op == "%" => true,
        _ => false,
    }
}

/// Whether a `let` initializer evaluates to a lock guard itself, so
/// the binding holds it to the end of the scope: `m.lock()`, through
/// `?`, `.unwrap()`/`.expect(..)`, `&`/`&mut` and `*` (a borrow of a
/// deref extends the temporary's life to the binding's).
fn is_guard(e: &Expr) -> bool {
    match e {
        Expr::MethodCall {
            recv, method, args, ..
        } => match method.as_str() {
            "lock" | "read" | "write" => args.is_empty(),
            "unwrap" | "expect" => is_guard(recv),
            _ => false,
        },
        Expr::Try { expr, .. } | Expr::Ref { expr, .. } => is_guard(expr),
        Expr::Unary { op, operand, .. } => *op == '*' && is_guard(operand),
        _ => false,
    }
}
