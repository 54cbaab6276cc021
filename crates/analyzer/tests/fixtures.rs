//! End-to-end fixture tests: each lint gets a minimal workspace tree
//! that trips it (binary exits 1 under `--deny`) and a sibling tree
//! that is clean (exit 0). Trees are written to a per-test temp
//! directory and linted through the real `liquid-lint` binary, so the
//! CLI plumbing (arg parsing, root override, exit codes) is covered
//! too, not just the library.

use std::fs;
use std::path::PathBuf;
use std::process::{Command, Output};

/// All fixture crate roots carry this so the forbid-unsafe lint stays
/// quiet in fixtures that target a different lint.
const LIB_HEADER: &str = "#![forbid(unsafe_code)]\n";

/// The real rank table, mirrored into lock-order fixtures so the
/// cross-tree drift check (every `LOCK_FIELDS` rank must be declared)
/// finds nothing to complain about.
const RANKS_RS: &str = r#"
pub const RANKS: &[(&str, u32)] = &[
    ("dfs.state", 96),
    ("dfs.stats", 94),
    ("stack.feeds", 80),
    ("stack.managed", 75),
    ("yarn.state", 70),
    ("producer.batches", 65),
    ("consumer.state", 60),
    ("group.groups", 50),
    ("offsets.inner", 45),
    ("cluster.state", 40),
    ("partition.state", 35),
    ("coord.tree", 15),
    ("log.readcache", 8),
    ("log.pagecache", 5),
    ("acl.grants", 3),
];
"#;

/// Writes `files` (workspace-relative path, contents) under a fresh
/// temp root and returns the root.
fn fixture(name: &str, files: &[(&str, &str)]) -> PathBuf {
    let root =
        std::env::temp_dir().join(format!("liquid-lint-fixture-{}-{name}", std::process::id()));
    if root.exists() {
        fs::remove_dir_all(&root).unwrap();
    }
    for (rel, contents) in files {
        let path = root.join(rel);
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        fs::write(path, contents).unwrap();
    }
    root
}

fn lint(root: &PathBuf) -> Output {
    Command::new(env!("CARGO_BIN_EXE_liquid-lint"))
        .args(["--deny", "--root"])
        .arg(root)
        .output()
        .unwrap()
}

/// Asserts the tree trips the named lint: exit 1 and at least one
/// finding tagged `[lint]` in the output.
fn assert_hit(root: &PathBuf, lint_name: &str) {
    let out = lint(root);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(1),
        "expected findings under --deny; stdout:\n{stdout}"
    );
    assert!(
        stdout.contains(&format!("[{lint_name}]")),
        "expected a [{lint_name}] finding; stdout:\n{stdout}"
    );
}

/// Asserts the tree is clean: exit 0 and the "clean" banner.
fn assert_clean(root: &PathBuf) {
    let out = lint(root);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(0),
        "expected clean; stdout:\n{stdout}"
    );
    assert!(stdout.contains("liquid-lint: clean"), "stdout:\n{stdout}");
}

#[test]
fn panic_reachability_fires_on_fault_crate_and_spares_tests() {
    let hit = fixture(
        "panic-reach-hit",
        &[(
            "crates/kv/src/lib.rs",
            "#![forbid(unsafe_code)]\n\
             pub fn read(v: Option<u32>) -> u32 {\n    v.unwrap()\n}\n",
        )],
    );
    assert_hit(&hit, "panic-reachability");

    // Same call, but inside a #[test] — masked.
    let clean = fixture(
        "panic-reach-clean",
        &[(
            "crates/kv/src/lib.rs",
            "#![forbid(unsafe_code)]\n\
             pub fn read(v: Option<u32>) -> Option<u32> {\n    v\n}\n\
             #[test]\nfn t() {\n    read(Some(1)).unwrap();\n}\n",
        )],
    );
    assert_clean(&clean);
}

#[test]
fn panic_reachability_proves_through_the_call_graph() {
    // The panic is in a *private* helper; the finding must name the
    // public entry point that reaches it.
    let hit = fixture(
        "panic-reach-chain",
        &[(
            "crates/kv/src/lib.rs",
            "#![forbid(unsafe_code)]\n\
             pub fn entry(v: Option<u32>) -> u32 {\n    helper(v)\n}\n\
             fn helper(v: Option<u32>) -> u32 {\n    v.unwrap()\n}\n",
        )],
    );
    let out = lint(&hit);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "stdout:\n{stdout}");
    assert!(stdout.contains("[panic-reachability]"), "stdout:\n{stdout}");
    assert!(
        stdout.contains("kv::entry"),
        "finding must carry the call chain from the public API; stdout:\n{stdout}"
    );

    // A private helper nothing public reaches is not reported.
    let clean = fixture(
        "panic-reach-dead",
        &[(
            "crates/kv/src/lib.rs",
            "#![forbid(unsafe_code)]\n\
             pub fn entry() -> u32 {\n    7\n}\n\
             #[cfg(test)]\nmod tests {\n\
             \x20   fn helper(v: Option<u32>) -> u32 {\n        v.unwrap()\n    }\n\
             \x20   #[test]\n    fn t() {\n        helper(Some(1));\n    }\n\
             }\n",
        )],
    );
    assert_clean(&clean);
}

#[test]
fn panic_reachability_flags_unguarded_indexing_but_not_guarded() {
    let hit = fixture(
        "index-hit",
        &[(
            "crates/log/src/lib.rs",
            "#![forbid(unsafe_code)]\n\
             pub fn head(v: &[u32]) -> u32 {\n    v[0]\n}\n",
        )],
    );
    assert_hit(&hit, "panic-reachability");

    // A dominating bounds observation on the same receiver is proof.
    let clean = fixture(
        "index-clean",
        &[(
            "crates/log/src/lib.rs",
            "#![forbid(unsafe_code)]\n\
             pub fn head(v: &[u32]) -> u32 {\n\
             \x20   if v.is_empty() {\n        return 0;\n    }\n\
             \x20   v[0]\n}\n",
        )],
    );
    assert_clean(&clean);
}

#[test]
fn panic_reachability_honors_allow_directive() {
    let clean = fixture(
        "panic-reach-allow",
        &[(
            "crates/kv/src/lib.rs",
            "#![forbid(unsafe_code)]\n\
             pub fn read(v: Option<u32>) -> u32 {\n\
             \x20   // lint:allow(panic-reachability, reason=fixture invariant)\n\
             \x20   v.unwrap()\n}\n",
        )],
    );
    assert_clean(&clean);
}

#[test]
fn unchecked_offset_arithmetic_fires_in_fault_crates_only() {
    let hit = fixture(
        "offset-arith-hit",
        &[(
            "crates/log/src/lib.rs",
            "#![forbid(unsafe_code)]\n\
             pub fn advance(offset: u64) -> u64 {\n    offset + 1\n}\n",
        )],
    );
    assert_hit(&hit, "unchecked-offset-arithmetic");

    // checked_add is the prescribed fix.
    let checked = fixture(
        "offset-arith-checked",
        &[(
            "crates/log/src/lib.rs",
            "#![forbid(unsafe_code)]\n\
             pub fn advance(offset: u64) -> Option<u64> {\n    offset.checked_add(1)\n}\n",
        )],
    );
    assert_clean(&checked);

    // The same raw arithmetic outside a fault crate is not in scope.
    let helper_crate = fixture(
        "offset-arith-helper",
        &[(
            "crates/core/src/lib.rs",
            "#![forbid(unsafe_code)]\n\
             pub fn advance(offset: u64) -> u64 {\n    offset + 1\n}\n",
        )],
    );
    assert_clean(&helper_crate);
}

#[test]
fn unchecked_offset_arithmetic_follows_assignment_taint() {
    // `x` is not offset-named, but it was assigned from one.
    let hit = fixture(
        "offset-taint",
        &[(
            "crates/messaging/src/lib.rs",
            "#![forbid(unsafe_code)]\n\
             pub fn f(high_watermark: u64) -> u64 {\n\
             \x20   let x = high_watermark;\n\
             \x20   x * 2\n}\n",
        )],
    );
    assert_hit(&hit, "unchecked-offset-arithmetic");
}

#[test]
fn lock_order_lint_fires_on_rank_inversion() {
    // cluster.rs re-acquires its own ranked lock while the first guard
    // is still live — equal order is not strictly descending.
    let hit = fixture(
        "lock-order-hit",
        &[
            ("crates/sim/src/lockdep.rs", RANKS_RS),
            (
                "crates/messaging/src/cluster.rs",
                "pub fn f(state: &L) {\n\
                 \x20   let a = state.lock();\n\
                 \x20   let b = state.lock();\n\
                 }\n",
            ),
        ],
    );
    assert_hit(&hit, "lock-order");

    // Dropping the first guard before re-acquiring is fine.
    let clean = fixture(
        "lock-order-clean",
        &[
            ("crates/sim/src/lockdep.rs", RANKS_RS),
            (
                "crates/messaging/src/cluster.rs",
                "pub fn f(state: &L) {\n\
                 \x20   let a = state.lock();\n\
                 \x20   drop(a);\n\
                 \x20   let b = state.lock();\n\
                 }\n",
            ),
        ],
    );
    assert_clean(&clean);
}

#[test]
fn lock_order_lint_drops_let_initializer_temporaries() {
    // A guard taken inside a `let` initializer that does not bind it
    // dies at the end of the statement, so the write below holds
    // nothing.
    let clean = fixture(
        "lock-order-temp-clean",
        &[
            ("crates/sim/src/lockdep.rs", RANKS_RS),
            (
                "crates/messaging/src/offsets.rs",
                "pub fn read(&self) -> u64 {\n\
                 \x20   let from = self.inner.read().leader;\n\
                 \x20   let mut index = self.inner.write();\n\
                 \x20   index.leader = from;\n\
                 \x20   0\n\
                 }\n",
            ),
        ],
    );
    assert_clean(&clean);

    // A borrow of the guard's deref extends it to the binding: held.
    let hit = fixture(
        "lock-order-temp-hit",
        &[
            ("crates/sim/src/lockdep.rs", RANKS_RS),
            (
                "crates/messaging/src/offsets.rs",
                "pub fn read(&self) -> u64 {\n\
                 \x20   let index = &*self.inner.read();\n\
                 \x20   let mut next = self.inner.write();\n\
                 \x20   next.leader = index.leader;\n\
                 \x20   0\n\
                 }\n",
            ),
        ],
    );
    assert_hit(&hit, "lock-order");
}

#[test]
fn lock_order_lint_reports_rank_table_drift() {
    // A RANKS table missing a name that LOCK_FIELDS maps to is drift:
    // the static and runtime checkers would silently disagree.
    let hit = fixture(
        "lock-drift-hit",
        &[(
            "crates/sim/src/lockdep.rs",
            "pub const RANKS: &[(&str, u32)] = &[(\"cluster.state\", 40)];\n",
        )],
    );
    assert_hit(&hit, "lock-order");
}

#[test]
fn fault_site_lint_checks_registry_both_ways() {
    // An unregistered tick() string AND a registered site nobody calls.
    let hit = fixture(
        "fault-site-hit",
        &[
            (
                "crates/sim/src/failure.rs",
                "pub const SITES: &[&str] = &[\"log.append\"];\n",
            ),
            (
                "crates/log/src/lib.rs",
                "#![forbid(unsafe_code)]\n\
                 pub fn f(injector: &I) {\n    injector.tick(\"log.bogus\");\n}\n",
            ),
        ],
    );
    let out = lint(&hit);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "stdout:\n{stdout}");
    assert!(
        stdout.contains("\"log.bogus\" is not registered"),
        "stdout:\n{stdout}"
    );
    assert!(
        stdout.contains("\"log.append\" has no injector.tick"),
        "stdout:\n{stdout}"
    );

    // Call the registered site and both directions are satisfied.
    let clean = fixture(
        "fault-site-clean",
        &[
            (
                "crates/sim/src/failure.rs",
                "pub const SITES: &[&str] = &[\"log.append\"];\n",
            ),
            (
                "crates/log/src/lib.rs",
                "#![forbid(unsafe_code)]\n\
                 pub fn f(injector: &I) {\n    injector.tick(\"log.append\");\n}\n",
            ),
        ],
    );
    assert_clean(&clean);
}

#[test]
fn fault_site_lint_rejects_non_literal_sites() {
    let hit = fixture(
        "fault-site-dynamic",
        &[
            (
                "crates/sim/src/failure.rs",
                "pub const SITES: &[&str] = &[\"log.append\"];\n",
            ),
            (
                "crates/log/src/lib.rs",
                "#![forbid(unsafe_code)]\n\
                 pub fn f(injector: &I, site: &str) {\n\
                 \x20   injector.tick(\"log.append\");\n\
                 \x20   injector.tick(site);\n}\n",
            ),
        ],
    );
    assert_hit(&hit, "fault-site");
}

#[test]
fn obs_instrument_lint_requires_twin_metrics_for_tick_sites() {
    // The obs crate is present, a lib-code tick site exists, but no
    // instrument is registered under the site's name.
    let obs_registry = "pub struct Registry;\n";
    let hit = fixture(
        "obs-instrument-hit",
        &[
            (
                "crates/sim/src/failure.rs",
                "pub const SITES: &[&str] = &[\"log.append\"];\n",
            ),
            ("crates/obs/src/lib.rs", LIB_HEADER),
            ("crates/obs/src/registry.rs", obs_registry),
            (
                "crates/log/src/lib.rs",
                "#![forbid(unsafe_code)]\n\
                 pub fn f(injector: &I) {\n    injector.tick(\"log.append\");\n}\n",
            ),
        ],
    );
    let out = lint(&hit);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "stdout:\n{stdout}");
    assert!(
        stdout.contains("[obs-instrument]") && stdout.contains("no twin obs instrument"),
        "stdout:\n{stdout}"
    );
    // The finding is attributed to the tick call site, not the registry.
    assert!(
        stdout.contains("crates/log/src/lib.rs:3"),
        "stdout:\n{stdout}"
    );

    // Registering a same-named counter anywhere in the tree satisfies it.
    let clean = fixture(
        "obs-instrument-clean",
        &[
            (
                "crates/sim/src/failure.rs",
                "pub const SITES: &[&str] = &[\"log.append\"];\n",
            ),
            ("crates/obs/src/lib.rs", LIB_HEADER),
            ("crates/obs/src/registry.rs", obs_registry),
            (
                "crates/log/src/lib.rs",
                "#![forbid(unsafe_code)]\n\
                 pub fn f(injector: &I, reg: &R) {\n\
                 \x20   let _c = reg.counter(\"log.append\");\n\
                 \x20   injector.tick(\"log.append\");\n}\n",
            ),
        ],
    );
    assert_clean(&clean);

    // Without the obs crate the check is skipped entirely (fixture
    // trees for the other lints stay minimal).
    let skipped = fixture(
        "obs-instrument-skipped",
        &[
            (
                "crates/sim/src/failure.rs",
                "pub const SITES: &[&str] = &[\"log.append\"];\n",
            ),
            (
                "crates/log/src/lib.rs",
                "#![forbid(unsafe_code)]\n\
                 pub fn f(injector: &I) {\n    injector.tick(\"log.append\");\n}\n",
            ),
        ],
    );
    assert_clean(&skipped);
}

#[test]
fn obs_instrument_lint_ignores_test_only_tick_sites() {
    // A tick that only happens inside #[test] code needs no twin.
    let clean = fixture(
        "obs-instrument-test-tick",
        &[
            (
                "crates/sim/src/failure.rs",
                "pub const SITES: &[&str] = &[\"log.append\"];\n",
            ),
            ("crates/obs/src/lib.rs", LIB_HEADER),
            ("crates/obs/src/registry.rs", "pub struct Registry;\n"),
            (
                "crates/log/src/lib.rs",
                "#![forbid(unsafe_code)]\n\
                 #[test]\nfn t() {\n    let injector = I;\n    injector.tick(\"log.append\");\n}\n",
            ),
        ],
    );
    assert_clean(&clean);
}

#[test]
fn forbid_unsafe_lint_requires_attribute_and_bans_token() {
    let missing_attr = fixture(
        "unsafe-missing-attr",
        &[("crates/core/src/lib.rs", "pub fn f() {}\n")],
    );
    assert_hit(&missing_attr, "forbid-unsafe");

    let unsafe_token = fixture(
        "unsafe-token",
        &[(
            "crates/core/src/lib.rs",
            "#![forbid(unsafe_code)]\n\
             pub fn f(p: *const u32) -> u32 {\n    unsafe { *p }\n}\n",
        )],
    );
    assert_hit(&unsafe_token, "forbid-unsafe");

    let clean = fixture(
        "unsafe-clean",
        &[(
            "crates/core/src/lib.rs",
            "#![forbid(unsafe_code)]\npub fn f() {}\n",
        )],
    );
    assert_clean(&clean);
}

#[test]
fn lint_allow_lint_rejects_unused_and_unknown_directives() {
    let unused = fixture(
        "allow-unused",
        &[(
            "crates/core/src/lib.rs",
            "#![forbid(unsafe_code)]\n\
             // lint:allow(panic, reason=suppresses nothing)\n\
             pub fn f() {}\n",
        )],
    );
    assert_hit(&unused, "lint-allow");

    let unknown = fixture(
        "allow-unknown",
        &[(
            "crates/core/src/lib.rs",
            "#![forbid(unsafe_code)]\n\
             pub fn f() {\n\
             \x20   // lint:allow(speling, reason=no such lint)\n\
             \x20   panic!(\"x\");\n}\n",
        )],
    );
    assert_hit(&unknown, "lint-allow");
}

#[test]
fn raw_thread_lint_confines_spawns_to_sim() {
    let hit = fixture(
        "raw-thread-hit",
        &[(
            "crates/processing/src/lib.rs",
            "#![forbid(unsafe_code)]\n\
             pub fn f() {\n    std::thread::spawn(|| {});\n}\n",
        )],
    );
    assert_hit(&hit, "raw-thread");

    // `use std::thread;` then a bare `thread::spawn` is the same escape.
    let bare = fixture(
        "raw-thread-bare",
        &[(
            "crates/processing/src/lib.rs",
            "#![forbid(unsafe_code)]\n\
             use std::thread;\n\
             pub fn f() {\n    thread::spawn(|| {});\n}\n",
        )],
    );
    assert_hit(&bare, "raw-thread");

    let parking = fixture(
        "raw-thread-parking-lot",
        &[(
            "crates/core/src/lib.rs",
            "#![forbid(unsafe_code)]\n\
             use parking_lot::Mutex;\n\
             pub struct S(Mutex<u32>);\n",
        )],
    );
    assert_hit(&parking, "raw-thread");

    // The schedulable wrappers are the sanctioned path, tests are
    // masked, and crates/sim itself implements the raw spawning.
    let clean = fixture(
        "raw-thread-clean",
        &[
            (
                "crates/processing/src/lib.rs",
                "#![forbid(unsafe_code)]\n\
                 pub fn f() {\n    liquid_sim::thread::spawn(|| {});\n}\n\
                 #[test]\nfn t() {\n    std::thread::spawn(|| {}).join().ok();\n}\n",
            ),
            (
                "crates/sim/src/lib.rs",
                "#![forbid(unsafe_code)]\n\
                 pub fn f() {\n    std::thread::spawn(|| {});\n}\n",
            ),
        ],
    );
    assert_clean(&clean);
}

#[test]
fn json_output_reports_findings_and_keeps_deny_exit_codes() {
    let hit = fixture(
        "json-hit",
        &[
            ("crates/sim/src/lockdep.rs", RANKS_RS),
            (
                "crates/core/src/lib.rs",
                "#![forbid(unsafe_code)]\npub fn f() {\n    std::thread::spawn(|| {});\n}\n",
            ),
            (
                // A lock-order inversion so one message contains quotes
                // the JSON encoder must escape.
                "crates/messaging/src/cluster.rs",
                "pub fn f(state: &L) {\n\
                 \x20   let a = state.lock();\n\
                 \x20   let b = state.lock();\n\
                 }\n",
            ),
        ],
    );
    let json = |extra: &[&str]| {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_liquid-lint"));
        cmd.args(["--json", "--root"]).arg(&hit).args(extra);
        cmd.output().unwrap()
    };

    let out = json(&[]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "--json alone stays exit 0");
    assert!(
        stdout.trim_start().starts_with("{\"findings\":["),
        "stdout:\n{stdout}"
    );
    assert!(
        stdout.contains("\"lint\":\"raw-thread\""),
        "stdout:\n{stdout}"
    );
    assert!(
        stdout.contains("\"file\":\"crates/core/src/lib.rs\""),
        "stdout:\n{stdout}"
    );
    assert!(stdout.contains("\"line\":3"), "stdout:\n{stdout}");
    assert!(stdout.contains("\"count\":2"), "stdout:\n{stdout}");
    assert!(
        stdout.contains("\\\"cluster.state\\\""),
        "quotes inside messages must be escaped; stdout:\n{stdout}"
    );

    // --deny semantics are unchanged under --json.
    assert_eq!(json(&["--deny"]).status.code(), Some(1));

    let clean = fixture("json-clean", &[("crates/core/src/lib.rs", LIB_HEADER)]);
    let out = Command::new(env!("CARGO_BIN_EXE_liquid-lint"))
        .args(["--json", "--deny", "--root"])
        .arg(&clean)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0));
    assert_eq!(
        String::from_utf8_lossy(&out.stdout).trim(),
        "{\"findings\":[],\"count\":0}"
    );
}

#[test]
fn only_flag_filters_findings_by_path_prefix() {
    // One finding per crate; --only keeps just the selected crate's.
    let root = fixture(
        "only-filter",
        &[
            (
                "crates/core/src/lib.rs",
                "#![forbid(unsafe_code)]\npub fn f() {\n    std::thread::spawn(|| {});\n}\n",
            ),
            (
                "crates/kv/src/lib.rs",
                "#![forbid(unsafe_code)]\npub fn g(v: Option<u32>) -> u32 {\n    v.unwrap()\n}\n",
            ),
        ],
    );
    let run = |extra: &[&str]| {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_liquid-lint"));
        cmd.args(["--deny", "--root"]).arg(&root).args(extra);
        cmd.output().unwrap()
    };

    let all = run(&[]);
    let stdout = String::from_utf8_lossy(&all.stdout);
    assert!(
        stdout.contains("crates/core/src/lib.rs"),
        "stdout:\n{stdout}"
    );
    assert!(stdout.contains("crates/kv/src/lib.rs"), "stdout:\n{stdout}");

    let core_only = run(&["--only", "crates/core"]);
    let stdout = String::from_utf8_lossy(&core_only.stdout);
    assert_eq!(core_only.status.code(), Some(1));
    assert!(
        stdout.contains("crates/core/src/lib.rs"),
        "stdout:\n{stdout}"
    );
    assert!(
        !stdout.contains("crates/kv/src/lib.rs"),
        "--only must drop other crates' findings; stdout:\n{stdout}"
    );

    // Filtering away every finding satisfies --deny.
    let none = run(&["--only", "crates/messaging"]);
    assert_eq!(none.status.code(), Some(0));
}

#[test]
fn hot_copy_lint_fires_on_payload_copy_in_hot_callee() {
    // The seeded regression: the copy is NOT in the hot root itself but
    // in a callee whose parameter is not payload-named — only the
    // interprocedural parameter-taint fixpoint can connect
    // `batch.records()` at the call site to `buf.to_vec()` in the
    // callee.
    let hit = fixture(
        "hot-copy-hit",
        &[(
            "crates/messaging/src/cluster.rs",
            "pub fn produce_batch(batch: &B) -> Vec<u8> {\n\
             \x20   stage(batch.records())\n\
             }\n\
             fn stage(buf: &[u8]) -> Vec<u8> {\n\
             \x20   buf.to_vec()\n\
             }\n",
        )],
    );
    let out = lint(&hit);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "stdout:\n{stdout}");
    assert!(stdout.contains("[hot-copy]"), "stdout:\n{stdout}");
    assert!(
        stdout.contains("`.to_vec()` deep-copies payload bytes"),
        "stdout:\n{stdout}"
    );

    // The witness must spell out the root→copy chain with a file:line
    // per hop.
    assert!(
        stdout.contains(
            "reached via: messaging::produce_batch (crates/messaging/src/cluster.rs:1) \
             → messaging::stage (crates/messaging/src/cluster.rs:4)"
        ),
        "finding must carry the full call-chain witness; stdout:\n{stdout}"
    );

    // Sharing the buffer instead of copying is the fix.
    let clean = fixture(
        "hot-copy-clean",
        &[(
            "crates/messaging/src/cluster.rs",
            "pub fn produce_batch(batch: &B) -> B {\n\
             \x20   stage(batch.records())\n\
             }\n\
             fn stage(buf: &B) -> B {\n\
             \x20   buf.slice()\n\
             }\n",
        )],
    );
    assert_clean(&clean);
}

#[test]
fn hot_copy_lint_fires_on_string_copies_of_payload() {
    // A payload-derived `&str` copied into a `String` in a hot callee:
    // through `.to_string()`, `String::from`, and a closure whose
    // parameter is an item of the payload receiver.
    let hit = fixture(
        "hot-copy-string-hit",
        &[(
            "crates/messaging/src/cluster.rs",
            "pub fn poll_batches(batch: &B) -> Vec<String> {\n\
             \x20   label(batch.records());\n\
             \x20   name(batch.records());\n\
             \x20   batch.records().map(|r| String::from(r)).collect()\n\
             }\n\
             fn label(buf: &[u8]) -> String {\n\
             \x20   let s = std::str::from_utf8(buf).unwrap_or(\"\");\n\
             \x20   s.to_string()\n\
             }\n\
             fn name(buf: &[u8]) -> String {\n\
             \x20   let s = std::str::from_utf8(buf).unwrap_or(\"\");\n\
             \x20   String::from(s)\n\
             }\n",
        )],
    );
    let out = lint(&hit);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "stdout:\n{stdout}");
    for at in [
        "cluster.rs:4: [hot-copy] `String::from`",
        "cluster.rs:8: [hot-copy] `.to_string()`",
        "cluster.rs:12: [hot-copy] `String::from`",
    ] {
        assert!(stdout.contains(at), "missing {at}; stdout:\n{stdout}");
    }

    // The same conversions of names that carry no payload are fine.
    let clean = fixture(
        "hot-copy-string-clean",
        &[(
            "crates/messaging/src/cluster.rs",
            "pub fn poll_batches(group: &str) -> String {\n\
             \x20   let g = String::from(group);\n\
             \x20   g.to_string()\n\
             }\n",
        )],
    );
    assert_clean(&clean);
}

#[test]
fn hot_copy_lint_spares_cold_paths_and_clones() {
    // The same deep copy in a function the hot roots never reach is
    // out of scope — compaction may copy all it wants.
    let cold = fixture(
        "hot-copy-cold",
        &[(
            "crates/log/src/compaction.rs",
            "pub fn produce_batch(batch: &B) -> u64 {\n\
             \x20   batch.len()\n\
             }\n\
             pub fn compact(records: &[u8]) -> Vec<u8> {\n\
             \x20   records.to_vec()\n\
             }\n",
        )],
    );
    assert_clean(&cold);

    // `.clone()` on a payload carrier is a Bytes refcount bump — the
    // sanctioned share, never a finding.
    let cloned = fixture(
        "hot-copy-clone",
        &[(
            "crates/messaging/src/cluster.rs",
            "pub fn produce_batch(batch: &B) -> B {\n\
             \x20   batch.clone()\n\
             }\n",
        )],
    );
    assert_clean(&cloned);
}

#[test]
fn hot_copy_lint_honors_allow_and_reports_unused_or_malformed() {
    // A used directive with a reason suppresses the finding.
    let allowed = fixture(
        "hot-copy-allow",
        &[(
            "crates/messaging/src/cluster.rs",
            "pub fn produce_batch(batch: &B) -> Vec<u8> {\n\
             \x20   // lint:allow(hot-copy, reason=wire serialization owns this copy)\n\
             \x20   batch.to_vec()\n\
             }\n",
        )],
    );
    assert_clean(&allowed);

    // A directive that suppresses nothing is itself a finding.
    let unused = fixture(
        "hot-copy-allow-unused",
        &[(
            "crates/messaging/src/cluster.rs",
            "pub fn produce_batch(batch: &B) -> B {\n\
             \x20   // lint:allow(hot-copy, reason=suppresses nothing)\n\
             \x20   batch.share()\n\
             }\n",
        )],
    );
    assert_hit(&unused, "lint-allow");

    // A directive without a reason is malformed.
    let malformed = fixture(
        "hot-copy-allow-malformed",
        &[(
            "crates/messaging/src/cluster.rs",
            "pub fn produce_batch(batch: &B) -> Vec<u8> {\n\
             \x20   // lint:allow(hot-copy)\n\
             \x20   batch.to_vec()\n\
             }\n",
        )],
    );
    assert_hit(&malformed, "lint-allow");
}

#[test]
fn only_flag_accepts_lint_names_and_rejects_unknown() {
    // One [hot-copy] finding, no [lock-order] findings.
    let root = fixture(
        "only-lint-name",
        &[
            ("crates/sim/src/lockdep.rs", RANKS_RS),
            (
                "crates/messaging/src/cluster.rs",
                "pub fn produce_batch(batch: &B) -> Vec<u8> {\n\
                 \x20   batch.to_vec()\n\
                 }\n",
            ),
        ],
    );
    let run = |extra: &[&str]| {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_liquid-lint"));
        cmd.args(["--deny", "--root"]).arg(&root).args(extra);
        cmd.output().unwrap()
    };

    let hot_copy_only = run(&["--only", "hot-copy"]);
    let stdout = String::from_utf8_lossy(&hot_copy_only.stdout);
    assert_eq!(hot_copy_only.status.code(), Some(1), "stdout:\n{stdout}");
    assert!(stdout.contains("[hot-copy]"), "stdout:\n{stdout}");

    // A known lint with no findings in this tree filters to clean.
    let lock_order_only = run(&["--only", "lock-order"]);
    assert_eq!(lock_order_only.status.code(), Some(0));

    // An unknown bare name is a usage error (exit 2), not a silent
    // empty filter that would green-light a typo in CI.
    let bogus = run(&["--only", "hot-copyy"]);
    assert_eq!(bogus.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&bogus.stderr);
    assert!(
        stderr.contains("neither a path prefix nor a known lint"),
        "stderr:\n{stderr}"
    );
    assert!(
        stderr.contains("hot-copy"),
        "the error must list known lints; stderr:\n{stderr}"
    );
}

#[test]
fn rank_tables_and_guard_inventory_agree() {
    // Three copies of the rank table must agree: the runtime table
    // (sim::lockdep::RANKS, parsed from source), the analyzer's
    // field→rank map (rules::LOCK_FIELDS), and the ranks with an
    // acquire site in the real tree.
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .unwrap();

    let src = fs::read_to_string(root.join("crates/sim/src/lockdep.rs")).unwrap();
    let table = src
        .split_once("pub const RANKS: &[(&str, u32)] = &[")
        .expect("RANKS table present")
        .1
        .split_once("];")
        .expect("RANKS table terminated")
        .0;
    let declared: std::collections::BTreeSet<&str> = table.split('"').skip(1).step_by(2).collect();
    assert!(!declared.is_empty());

    let mapped: std::collections::BTreeSet<&str> = liquid_lint::rules::LOCK_FIELDS
        .iter()
        .map(|&(_, _, rank)| rank)
        .collect();
    assert_eq!(
        declared, mapped,
        "sim::lockdep::RANKS and rules::LOCK_FIELDS drifted apart"
    );

    // Every ranked field has an acquire site somewhere in the tree.
    let mut inventory = std::collections::BTreeSet::new();
    for rel in liquid_lint::workspace_files(&root).unwrap() {
        let base = rel.rsplit('/').next().unwrap();
        let data = liquid_lint::load_source(&rel, &fs::read_to_string(root.join(&rel)).unwrap());
        let Some(ast) = &data.ast else { continue };
        liquid_lint::rules::for_each_fn(&ast.items, &mut |f| {
            for site in liquid_lint::cfg::lower_fn(f).acquires {
                inventory.extend(
                    liquid_lint::rules::LOCK_FIELDS
                        .iter()
                        .filter(|&&(file, field, _)| file == base && field == site.field)
                        .map(|&(_, _, rank)| rank),
                );
            }
        });
    }
    assert_eq!(
        inventory, declared,
        "the ranked acquire sites drifted from the declared ranks"
    );
}

#[test]
fn real_workspace_is_clean() {
    // The acceptance bar: `liquid-lint --deny` exits 0 on the actual
    // tree. CARGO_MANIFEST_DIR is crates/analyzer, so the workspace
    // root is two levels up.
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .unwrap();
    assert_clean(&root);
}

#[test]
fn unknown_flag_is_a_usage_error() {
    let out = Command::new(env!("CARGO_BIN_EXE_liquid-lint"))
        .arg("--frobnicate")
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
}
