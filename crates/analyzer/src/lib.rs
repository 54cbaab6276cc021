#![forbid(unsafe_code)]
//! `liquid-lint`: project-specific static analysis for the Liquid
//! workspace.
//!
//! The build environment is offline (no registry), so stock clippy
//! plugins are unavailable; the invariants that matter to this codebase
//! are enforced by an in-repo pass instead. The analyzer is layered as
//! a small reusable IR — [`lexer`] → [`parse`]/[`ast`] → [`cfg`] (with
//! the generic [`dataflow`] solver) → the whole-workspace
//! [`callgraph`] — and the rules in [`rules`] run at whichever layer
//! gives them the precision they need:
//!
//! * **panic-reachability** — interprocedural proof that no `panic!`
//!   family macro, `.unwrap()`/`.expect()`, or unguarded indexing is
//!   reachable from the public API of the fault-injected crates
//!   (`log`, `kv`, `messaging`, `processing`). Findings carry the call
//!   chain that reaches the site.
//! * **unchecked-offset-arithmetic** — raw `+`/`-`/`*` on values
//!   flowing from offset/high-watermark/epoch fields (seeded from the
//!   `log`/`messaging` struct declarations) must be
//!   `checked_*`/`saturating_*`.
//! * **lock-order** — nested lock acquisitions must follow the rank
//!   table declared in `sim::lockdep::RANKS` (strictly descending),
//!   checked over the CFG's may-held lock sets.
//! * **fault-site** — every `injector.tick("site")` string must be
//!   registered in `sim::failure::SITES`, and every registered site
//!   must have at least one call site.
//! * **obs-instrument** — every fault-injection site used by the tree
//!   must have a twin metric: a registry instrument
//!   (`counter`/`gauge`/`histogram`) registered under the same name,
//!   so an injected failure is always visible in an [`obs
//!   snapshot`](../liquid_obs/stats/index.html). Skipped when the
//!   `obs` crate is absent (fixture trees).
//! * **raw-thread** — `std::thread::spawn`/`scope`/`Builder` and
//!   `parking_lot` primitives are confined to `crates/sim`; everything
//!   else spawns through `liquid_sim::thread` and locks through
//!   `liquid_sim::lockdep`, so liquid-check can schedule it.
//! * **forbid-unsafe** — every crate's `lib.rs` carries
//!   `#![forbid(unsafe_code)]` and no `unsafe` token appears anywhere.
//! * **hot-copy** — interprocedural zero-copy taint over the batched
//!   produce/fetch hot path: no deep copy (`to_vec`, `to_string`,
//!   `extend_from_slice`, `String::from`, …) of payload bytes reachable
//!   from the hot roots; findings carry the root→copy call-chain
//!   witness (see [`hotpath`]).
//!
//! DESIGN.md §9 keeps the catch ledger: what each lint caught, the
//! mutation that re-introduces it, and what fires on it first. A lint
//! with no catch does not belong here; lockdep, the chaos sweep and the
//! model checker hold the locking rules at run time.
//!
//! The analyzer writes nothing but its findings. Findings can be
//! suppressed with a `lint:allow` comment directive
//! (see [`lexer::AllowDirective`]); a directive that is malformed,
//! names an unknown lint, or suppresses nothing is itself a finding
//! (lint **lint-allow**), so the escape hatch cannot rot silently.
//! Directives stack: several allows on consecutive lines all cover the
//! first non-directive line below them.

pub mod ast;
pub mod callgraph;
pub mod cfg;
pub mod dataflow;
pub mod hotpath;
pub mod lexer;
pub mod parse;
pub mod rules;

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::fs;
use std::path::Path;

use lexer::{lex, Lexed, Token, TokenKind};

/// Every lint name the analyzer can emit (and that `lint:allow` may
/// reference).
pub const LINTS: &[&str] = &[
    "panic-reachability",
    "unchecked-offset-arithmetic",
    "lock-order",
    "fault-site",
    "obs-instrument",
    "raw-thread",
    "forbid-unsafe",
    "hot-copy",
    "lint-allow",
];

/// One lint violation.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// Workspace-relative path with forward slashes.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Lint name (one of [`LINTS`]).
    pub lint: &'static str,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.lint, self.message
        )
    }
}

/// RFC 8259 string escape for the `--json` output (hand-rolled — the
/// build environment has no serde).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// The fault-site registry parsed out of `crates/sim/src/failure.rs`.
#[derive(Debug, Clone)]
pub struct SiteRegistry {
    /// Registered site names, in declaration order.
    pub names: Vec<String>,
    /// Line of the `SITES` declaration (for attributing findings).
    pub line: u32,
}

/// The lock rank table parsed out of `crates/sim/src/lockdep.rs`.
#[derive(Debug, Clone)]
pub struct RankTable {
    /// `(rank name, order)` pairs, in declaration order.
    pub entries: Vec<(String, u32)>,
    /// Line of the `RANKS` declaration.
    pub line: u32,
}

impl RankTable {
    /// The order declared for `rank`, if any.
    pub fn order_of(&self, rank: &str) -> Option<u32> {
        self.entries
            .iter()
            .find(|(n, _)| n == rank)
            .map(|(_, o)| *o)
    }
}

/// Cross-file context the rules need. The single-source-of-truth
/// tables live in the `sim` crate's *source* and are parsed from it
/// with the same lexer, so the analyzer can never drift from the
/// runtime checks without a finding; the offset seeds are filled in
/// by [`analyze_root`]'s context phase.
#[derive(Debug, Clone, Default)]
pub struct Context {
    /// `None` when `failure.rs` is absent (fixture trees); membership
    /// checks are skipped then, but sites are still collected.
    pub sites: Option<SiteRegistry>,
    /// `None` when `lockdep.rs` is absent; the lock-order rule is
    /// skipped then.
    pub ranks: Option<RankTable>,
    /// Offset-domain field names parsed from `log`/`messaging` struct
    /// declarations (taint seeds for unchecked-offset-arithmetic).
    pub offset_seeds: BTreeSet<String>,
    /// Whether the tree ships the `obs` crate; the obs-instrument
    /// twin-metric check only runs when it does, so fixture trees
    /// exercising other lints are not forced to register metrics.
    pub has_obs: bool,
}

impl Context {
    /// Builds the sim-table part of the context from a workspace root.
    /// Missing files are tolerated (fixture trees); files that exist
    /// but cannot be parsed produce findings.
    pub fn from_root(root: &Path) -> (Context, Vec<Finding>) {
        let mut ctx = Context::default();
        let mut findings = Vec::new();

        let failure = root.join("crates/sim/src/failure.rs");
        if let Ok(src) = fs::read_to_string(&failure) {
            match parse_sites(&src) {
                Some(reg) => ctx.sites = Some(reg),
                None => findings.push(Finding {
                    file: "crates/sim/src/failure.rs".to_string(),
                    line: 1,
                    lint: "fault-site",
                    message: "could not parse the `SITES` registry (expected \
                              `pub const SITES: &[&str] = &[\"...\", ...];`)"
                        .to_string(),
                }),
            }
        }

        ctx.has_obs = root.join("crates/obs/src/registry.rs").is_file();

        let lockdep = root.join("crates/sim/src/lockdep.rs");
        if let Ok(src) = fs::read_to_string(&lockdep) {
            match parse_ranks(&src) {
                Some(table) => ctx.ranks = Some(table),
                None => findings.push(Finding {
                    file: "crates/sim/src/lockdep.rs".to_string(),
                    line: 1,
                    lint: "lock-order",
                    message: "could not parse the `RANKS` table (expected \
                              `pub const RANKS: &[(&str, u32)] = &[(\"name\", N), ...];`)"
                        .to_string(),
                }),
            }
        }

        (ctx, findings)
    }
}

/// Parses `const SITES: ... = &[...]` from `failure.rs` source.
pub fn parse_sites(src: &str) -> Option<SiteRegistry> {
    let tokens = lex(src).tokens;
    let start = find_const(&tokens, "SITES")?;
    let line = tokens[start].line;
    let mut names = Vec::new();
    for t in &tokens[start..] {
        if t.is_punct(';') {
            break;
        }
        if t.kind == TokenKind::Str {
            names.push(t.text.clone());
        }
    }
    if names.is_empty() {
        None
    } else {
        Some(SiteRegistry { names, line })
    }
}

/// Parses `const RANKS: ... = &[("name", order), ...]` from
/// `lockdep.rs` source.
pub fn parse_ranks(src: &str) -> Option<RankTable> {
    let tokens = lex(src).tokens;
    let start = find_const(&tokens, "RANKS")?;
    let line = tokens[start].line;
    let mut entries = Vec::new();
    let mut pending: Option<String> = None;
    for t in &tokens[start..] {
        if t.is_punct(';') {
            break;
        }
        match t.kind {
            TokenKind::Str => pending = Some(t.text.clone()),
            TokenKind::Number => {
                if let Some(name) = pending.take() {
                    let digits: String = t.text.chars().filter(|c| *c != '_').collect();
                    if let Ok(order) = digits.parse::<u32>() {
                        entries.push((name, order));
                    }
                }
            }
            _ => {}
        }
    }
    if entries.is_empty() {
        None
    } else {
        Some(RankTable { entries, line })
    }
}

fn find_const(tokens: &[Token], name: &str) -> Option<usize> {
    (1..tokens.len()).find(|&i| tokens[i].is_ident(name) && tokens[i - 1].is_ident("const"))
}

/// `#[cfg(test)]` / `#[test]` item spans as inclusive line ranges.
/// Recovered by brace matching: the region runs from the attribute to
/// the end of the item it decorates (`;` or the matching `}` of the
/// item's first block).
pub fn test_regions(tokens: &[Token]) -> Vec<(u32, u32)> {
    let mut regions = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        if !(tokens[i].is_punct('#') && tokens.get(i + 1).is_some_and(|t| t.is_punct('['))) {
            i += 1;
            continue;
        }
        let (is_test, mut j) = parse_attr(tokens, i + 1);
        if !is_test {
            i = j;
            continue;
        }
        // Skip any further attributes on the same item.
        while j + 1 < tokens.len() && tokens[j].is_punct('#') && tokens[j + 1].is_punct('[') {
            let (_, after) = parse_attr(tokens, j + 1);
            j = after;
        }
        let (end_idx, end_line) = item_end(tokens, j);
        regions.push((tokens[i].line, end_line));
        i = end_idx;
    }
    regions
}

/// Whether `line` falls inside any test region.
pub fn in_test(regions: &[(u32, u32)], line: u32) -> bool {
    regions.iter().any(|&(a, b)| (a..=b).contains(&line))
}

/// From the index of an attribute's `[`, returns (is-test-attribute,
/// index just past the matching `]`). A test attribute is `#[test]` or
/// anything containing a literal `cfg ( test )` sequence; `not(test)`
/// does not match.
fn parse_attr(tokens: &[Token], open: usize) -> (bool, usize) {
    let mut depth = 0usize;
    let mut j = open;
    let mut close = tokens.len();
    while j < tokens.len() {
        if tokens[j].is_punct('[') {
            depth += 1;
        } else if tokens[j].is_punct(']') {
            depth -= 1;
            if depth == 0 {
                close = j;
                break;
            }
        }
        j += 1;
    }
    let inner = &tokens[open + 1..close.min(tokens.len())];
    let is_test = (inner.len() == 1 && inner[0].is_ident("test"))
        || inner.windows(4).any(|w| {
            w[0].is_ident("cfg")
                && w[1].is_punct('(')
                && w[2].is_ident("test")
                && w[3].is_punct(')')
        });
    (is_test, close.saturating_add(1).min(tokens.len()))
}

/// Scans forward from the first token of an item to its end: a `;` at
/// bracket depth zero, or the matching `}` of its first brace block.
/// Returns (index past the end, last line of the item).
fn item_end(tokens: &[Token], start: usize) -> (usize, u32) {
    let mut paren = 0i32;
    let mut brack = 0i32;
    let mut k = start;
    while k < tokens.len() {
        let t = &tokens[k];
        if t.is_punct('(') {
            paren += 1;
        } else if t.is_punct(')') {
            paren -= 1;
        } else if t.is_punct('[') {
            brack += 1;
        } else if t.is_punct(']') {
            brack -= 1;
        } else if t.is_punct(';') && paren == 0 && brack == 0 {
            return (k + 1, t.line);
        } else if t.is_punct('{') && paren == 0 && brack == 0 {
            let mut depth = 1i32;
            k += 1;
            while k < tokens.len() && depth > 0 {
                if tokens[k].is_punct('{') {
                    depth += 1;
                } else if tokens[k].is_punct('}') {
                    depth -= 1;
                }
                k += 1;
            }
            let line = tokens.get(k.saturating_sub(1)).map_or(0, |t| t.line);
            return (k, line);
        }
        k += 1;
    }
    (tokens.len(), tokens.last().map_or(0, |t| t.line))
}

/// One loaded workspace file: lexed, test-masked, and (when the parser
/// succeeds) parsed. A parse failure is tolerated — token rules still
/// run; the `every_workspace_file_parses` test keeps the real tree at
/// 100% parse coverage.
pub struct SourceData {
    /// Workspace-relative path with forward slashes.
    pub rel: String,
    /// Lexer output (tokens + allow directives).
    pub lexed: Lexed,
    /// `#[cfg(test)]`/`#[test]` line regions.
    pub regions: Vec<(u32, u32)>,
    /// Parsed AST, `None` when the parser rejected the file.
    pub ast: Option<ast::File>,
}

/// Lexes and parses one file.
pub fn load_source(rel: &str, src: &str) -> SourceData {
    let lexed = lex(src);
    let regions = test_regions(&lexed.tokens);
    let ast = parse::parse_file(&lexed.tokens).ok();
    SourceData {
        rel: rel.to_string(),
        lexed,
        regions,
        ast,
    }
}

/// Runs the per-file rules (everything except panic-reachability and
/// the cross-tree checks) over one loaded file, *without* `lint:allow`
/// suppression. Returns the raw findings plus the
/// `injector.tick("...")` sites seen.
pub fn analyze_file_raw(ctx: &Context, data: &SourceData) -> (Vec<Finding>, Vec<(String, u32)>) {
    let crate_name = data
        .rel
        .strip_prefix("crates/")
        .and_then(|r| r.split('/').next())
        .unwrap_or("");
    let mut raw = Vec::new();
    let mut tick_sites = Vec::new();
    let tokens = &data.lexed.tokens;
    rules::fault_sites(ctx, &data.rel, tokens, &mut raw, &mut tick_sites);
    rules::raw_thread(crate_name, &data.rel, tokens, &data.regions, &mut raw);
    rules::forbid_unsafe(&data.rel, tokens, &mut raw);
    if let Some(ast) = &data.ast {
        rules::lock_order(ctx, &data.rel, ast, &mut raw);
        rules::unchecked_offset_arithmetic(
            ctx,
            crate_name,
            &data.rel,
            ast,
            &data.regions,
            &mut raw,
        );
    }
    (raw, tick_sites)
}

/// Applies `lint:allow` suppression to one file's raw findings and
/// appends the surviving findings (plus any directive-hygiene
/// findings) to `out`.
///
/// A directive covers its own line and the first non-directive line
/// below it, so directives for different lints can stack above a
/// single offending line.
pub fn apply_allows(data: &SourceData, mut raw: Vec<Finding>, out: &mut Vec<Finding>) {
    let allows = &data.lexed.allows;
    let directive_lines: BTreeSet<u32> = allows.iter().map(|a| a.line).collect();
    let target = |a: u32| {
        let mut t = a + 1;
        while directive_lines.contains(&t) {
            t += 1;
        }
        t
    };
    let mut used = vec![false; allows.len()];
    raw.retain(|f| {
        let hit = allows
            .iter()
            .position(|a| a.lint == f.lint && (a.line == f.line || target(a.line) == f.line));
        match hit {
            Some(i) => {
                used[i] = true;
                false
            }
            None => true,
        }
    });
    out.extend(raw);
    for (i, a) in allows.iter().enumerate() {
        if !LINTS.contains(&a.lint.as_str()) {
            out.push(Finding {
                file: data.rel.clone(),
                line: a.line,
                lint: "lint-allow",
                message: format!("lint:allow names unknown lint \"{}\"", a.lint),
            });
        } else if !used[i] && !in_test(&data.regions, a.line) {
            out.push(Finding {
                file: data.rel.clone(),
                line: a.line,
                lint: "lint-allow",
                message: format!(
                    "unused lint:allow({}) — it suppresses nothing on this line or the line \
                     below the directive stack",
                    a.lint
                ),
            });
        }
    }
    for &line in &data.lexed.malformed_allows {
        out.push(Finding {
            file: data.rel.clone(),
            line,
            lint: "lint-allow",
            message: "malformed lint:allow directive (expected \
                      lint:allow(<lint>, reason=<why>))"
                .to_string(),
        });
    }
}

/// Workspace-relative paths of every `crates/*/src/**/*.rs` file,
/// sorted for deterministic output.
pub fn workspace_files(root: &Path) -> Result<Vec<String>, String> {
    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<_> = fs::read_dir(&crates_dir)
        .map_err(|e| format!("cannot read {}: {e}", crates_dir.display()))?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();
    let mut files = Vec::new();
    for c in crate_dirs {
        let src = c.join("src");
        if src.is_dir() {
            collect_rs(root, &src, &mut files)?;
        }
    }
    files.sort();
    Ok(files)
}

fn collect_rs(root: &Path, dir: &Path, out: &mut Vec<String>) -> Result<(), String> {
    let mut entries: Vec<_> = fs::read_dir(dir)
        .map_err(|e| format!("cannot read {}: {e}", dir.display()))?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .collect();
    entries.sort();
    for p in entries {
        if p.is_dir() {
            collect_rs(root, &p, out)?;
        } else if p.extension().is_some_and(|e| e == "rs") {
            let rel = p
                .strip_prefix(root)
                .map_err(|e| format!("path {} not under root: {e}", p.display()))?;
            let rel: Vec<String> = rel
                .components()
                .map(|c| c.as_os_str().to_string_lossy().into_owned())
                .collect();
            out.push(rel.join("/"));
        }
    }
    Ok(())
}

/// Workspace-internal dependency edges, parsed from each crate's
/// `Cargo.toml` `[dependencies]` section: `liquid-foo.workspace =
/// true` → crate directory `foo` (`liquid` itself is `crates/core`).
/// Dev-dependencies are excluded — test-only edges must not extend the
/// panic-reachability proof. Empty when no manifests exist (fixture
/// trees), which disables crate scoping in the call graph.
pub fn workspace_deps(root: &Path) -> BTreeMap<String, Vec<String>> {
    let mut deps = BTreeMap::new();
    let Ok(entries) = fs::read_dir(root.join("crates")) else {
        return deps;
    };
    for entry in entries.filter_map(|e| e.ok()) {
        let dir = entry.path();
        let Some(name) = dir.file_name().map(|n| n.to_string_lossy().into_owned()) else {
            continue;
        };
        let Ok(manifest) = fs::read_to_string(dir.join("Cargo.toml")) else {
            continue;
        };
        let mut in_deps = false;
        let mut edges = Vec::new();
        for line in manifest.lines() {
            let line = line.trim();
            if line.starts_with('[') {
                in_deps = line == "[dependencies]";
                continue;
            }
            if !in_deps {
                continue;
            }
            let Some(key) = line.split(['.', '=', ' ']).next() else {
                continue;
            };
            if key == "liquid" {
                edges.push("core".to_string());
            } else if let Some(rest) = key.strip_prefix("liquid-") {
                edges.push(rest.to_string());
            }
        }
        deps.insert(name, edges);
    }
    deps
}

/// Offset-domain taint seeds: field names of structs declared in
/// `crates/log` and `crates/messaging` whose names match the offset
/// domain ([`rules::is_offset_name`]).
fn offset_seeds(files: &[SourceData]) -> BTreeSet<String> {
    let mut seeds = BTreeSet::new();
    for f in files {
        if !(f.rel.starts_with("crates/log/") || f.rel.starts_with("crates/messaging/")) {
            continue;
        }
        let Some(ast) = &f.ast else { continue };
        collect_struct_seeds(&ast.items, &mut seeds);
    }
    seeds
}

fn collect_struct_seeds(items: &[ast::Item], seeds: &mut BTreeSet<String>) {
    for item in items {
        match item {
            ast::Item::Struct(s) => {
                for field in &s.fields {
                    if rules::is_offset_name(&field.name) {
                        seeds.insert(field.name.clone());
                    }
                }
            }
            ast::Item::Impl { items, .. }
            | ast::Item::Trait { items, .. }
            | ast::Item::Mod { items, .. } => collect_struct_seeds(items, seeds),
            _ => {}
        }
    }
}

/// Runs every rule over the whole workspace plus the cross-tree checks
/// (panic reachability, hot-copy, unused registry entries, rank-table
/// drift) and returns the findings.
pub fn analyze_root(root: &Path) -> Result<Vec<Finding>, String> {
    // Phase A: read, lex, parse.
    let (mut ctx, ctx_findings) = Context::from_root(root);
    let mut files = Vec::new();
    for rel in workspace_files(root)? {
        let src =
            fs::read_to_string(root.join(&rel)).map_err(|e| format!("cannot read {rel}: {e}"))?;
        files.push(load_source(&rel, &src));
    }

    // Phase B: workspace context — taint seeds and the call graph.
    ctx.offset_seeds = offset_seeds(&files);
    let sources: Vec<callgraph::SourceFile<'_>> = files
        .iter()
        .filter_map(|f| {
            f.ast.as_ref().map(|ast| callgraph::SourceFile {
                rel: &f.rel,
                ast,
                test_regions: &f.regions,
            })
        })
        .collect();
    let graph = callgraph::CallGraph::build(&sources, workspace_deps(root));

    // Phase C: per-file rules, the interprocedural proof, then
    // `lint:allow` suppression per file.
    let mut raw_by_file: BTreeMap<&str, Vec<Finding>> = BTreeMap::new();
    let mut used_sites: BTreeSet<String> = BTreeSet::new();
    // Site name → first *non-test* `injector.tick` call site (files are
    // visited in sorted order, so "first" is deterministic). Only these
    // need twin metrics; a tick in a `#[test]` is not a hot path.
    let mut lib_sites: BTreeMap<String, (String, u32)> = BTreeMap::new();
    let mut instruments: BTreeSet<String> = BTreeSet::new();
    for f in &files {
        let (raw, ticks) = analyze_file_raw(&ctx, f);
        raw_by_file.entry(&f.rel).or_default().extend(raw);
        for (site, line) in ticks {
            if !in_test(&f.regions, line) {
                lib_sites
                    .entry(site.clone())
                    .or_insert_with(|| (f.rel.clone(), line));
            }
            used_sites.insert(site);
        }
        rules::obs_instruments(&f.lexed.tokens, &mut instruments);
    }
    let mut cross_findings = Vec::new();
    rules::panic_reachability(&graph, &mut cross_findings);
    hotpath::hot_copy(&graph, &files, &mut cross_findings);
    for finding in cross_findings {
        match files.iter().find(|f| f.rel == finding.file) {
            Some(f) => raw_by_file.entry(&f.rel).or_default().push(finding),
            None => raw_by_file.entry("").or_default().push(finding),
        }
    }

    let mut findings = ctx_findings;
    for f in &files {
        let raw = raw_by_file.remove(f.rel.as_str()).unwrap_or_default();
        apply_allows(f, raw, &mut findings);
    }
    for (_, orphans) in raw_by_file {
        findings.extend(orphans);
    }

    // Cross-tree checks (not suppressible: they have no single line to
    // hang an allow on).
    if let Some(reg) = &ctx.sites {
        for name in &reg.names {
            if !used_sites.contains(name) {
                findings.push(Finding {
                    file: "crates/sim/src/failure.rs".to_string(),
                    line: reg.line,
                    lint: "fault-site",
                    message: format!(
                        "registered fault site \"{name}\" has no injector.tick(\"{name}\") call site"
                    ),
                });
            }
        }
    }
    if ctx.has_obs {
        for (site, (file, line)) in &lib_sites {
            if !instruments.contains(site) {
                findings.push(Finding {
                    file: file.clone(),
                    line: *line,
                    lint: "obs-instrument",
                    message: format!(
                        "fault site \"{site}\" has no twin obs instrument — register a \
                         counter/gauge/histogram named \"{site}\" so injected failures at \
                         this site stay visible in registry snapshots"
                    ),
                });
            }
        }
    }
    if let Some(ranks) = &ctx.ranks {
        for (file, field, rank) in rules::LOCK_FIELDS {
            if !ranks.entries.iter().any(|(n, _)| n == rank) {
                findings.push(Finding {
                    file: "crates/sim/src/lockdep.rs".to_string(),
                    line: ranks.line,
                    lint: "lock-order",
                    message: format!(
                        "lock field {file}::{field} maps to rank \"{rank}\", which is not \
                         declared in sim::lockdep::RANKS"
                    ),
                });
            }
        }
        // The reverse direction: a rank declared in the runtime table
        // that no [`rules::LOCK_FIELDS`] entry maps to is invisible to
        // the lock-order check.
        for (name, _) in &ranks.entries {
            if !rules::LOCK_FIELDS.iter().any(|(_, _, rank)| rank == name) {
                findings.push(Finding {
                    file: "crates/sim/src/lockdep.rs".to_string(),
                    line: ranks.line,
                    lint: "lock-order",
                    message: format!(
                        "rank \"{name}\" is declared in sim::lockdep::RANKS but no lock field \
                         in rules::LOCK_FIELDS maps to it — the static lock checkers cannot \
                         see its acquisitions"
                    ),
                });
            }
        }
    }
    findings.sort();
    findings.dedup();
    Ok(findings)
}
