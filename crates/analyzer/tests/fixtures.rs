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
fn dropped_result_lint_fires_on_discarded_workspace_result() {
    // `log_op` provably returns Result everywhere in the (fixture)
    // workspace, so discarding it is a swallowed error.
    let hit = fixture(
        "dropped-hit",
        &[(
            "crates/core/src/lib.rs",
            "#![forbid(unsafe_code)]\n\
             pub fn log_op() -> Result<u32, String> {\n    Ok(1)\n}\n\
             pub fn caller() {\n    log_op();\n}\n",
        )],
    );
    assert_hit(&hit, "dropped-result");

    // Propagating with `?` (or binding the value) is the fix.
    let clean = fixture(
        "dropped-clean",
        &[(
            "crates/core/src/lib.rs",
            "#![forbid(unsafe_code)]\n\
             pub fn log_op() -> Result<u32, String> {\n    Ok(1)\n}\n\
             pub fn caller() -> Result<u32, String> {\n    let v = log_op()?;\n    Ok(v)\n}\n",
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
fn panic_lint_fires_outside_fault_crates() {
    let hit = fixture(
        "panic-hit",
        &[(
            "crates/core/src/lib.rs",
            "#![forbid(unsafe_code)]\npub fn f() {\n    panic!(\"boom\");\n}\n",
        )],
    );
    assert_hit(&hit, "panic");

    let clean = fixture(
        "panic-clean",
        &[(
            "crates/core/src/lib.rs",
            // .unwrap() is tolerated outside the fault crates; the
            // panic family is not.
            "#![forbid(unsafe_code)]\npub fn f(v: Option<u32>) -> u32 {\n    v.unwrap()\n}\n",
        )],
    );
    assert_clean(&clean);
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
fn raw_io_lint_confines_fs_to_storage_layer() {
    let hit = fixture(
        "raw-io-hit",
        &[(
            "crates/kv/src/lib.rs",
            "#![forbid(unsafe_code)]\n\
             pub fn f() {\n    let _ = std::fs::read(\"x\");\n}\n",
        )],
    );
    assert_hit(&hit, "raw-io");

    // The same call in an allowed storage file passes.
    let clean = fixture(
        "raw-io-clean",
        &[
            ("crates/kv/src/lib.rs", LIB_HEADER),
            (
                "crates/kv/src/wal.rs",
                "pub fn f() {\n    let _ = std::fs::read(\"x\");\n}\n",
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
fn guard_liveness_lint_flags_dead_guards_under_ticks() {
    let hit = fixture(
        "guard-live-hit",
        &[
            ("crates/sim/src/lockdep.rs", RANKS_RS),
            (
                "crates/messaging/src/cluster.rs",
                "pub fn f(state: &L, injector: &I) {\n\
                 \x20   let st = state.lock();\n\
                 \x20   injector.tick(\"cluster.election\");\n\
                 }\n",
            ),
        ],
    );
    let out = lint(&hit);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "stdout:\n{stdout}");
    assert!(stdout.contains("[guard-liveness]"), "stdout:\n{stdout}");
    assert!(
        stdout.contains("holding ranked lock \"cluster.state\""),
        "finding must name the held lock; stdout:\n{stdout}"
    );
    assert!(
        stdout.contains("whose guard `st` is never used afterwards"),
        "finding must prove the guard dead; stdout:\n{stdout}"
    );

    // Releasing the guard before the fallible operation is the fix.
    let dropped = fixture(
        "guard-live-dropped",
        &[
            ("crates/sim/src/lockdep.rs", RANKS_RS),
            (
                "crates/messaging/src/cluster.rs",
                "pub fn f(state: &L, injector: &I) {\n\
                 \x20   let st = state.lock();\n\
                 \x20   drop(st);\n\
                 \x20   injector.tick(\"cluster.election\");\n\
                 }\n",
            ),
        ],
    );
    assert_clean(&dropped);

    // A guard that is still read after the tick marks a deliberate
    // critical section — the liveness analysis spares it. This is the
    // precision the old token-level held-io rule lacked.
    let live = fixture(
        "guard-live-critical-section",
        &[
            ("crates/sim/src/lockdep.rs", RANKS_RS),
            (
                "crates/messaging/src/cluster.rs",
                "pub fn f(state: &L, injector: &I) {\n\
                 \x20   let mut st = state.lock();\n\
                 \x20   injector.tick(\"cluster.election\");\n\
                 \x20   st.touch();\n\
                 }\n",
            ),
        ],
    );
    assert_clean(&live);

    // Raw I/O under a dead guard is the same hazard as a tick.
    let io_hit = fixture(
        "guard-live-raw-io",
        &[
            ("crates/sim/src/lockdep.rs", RANKS_RS),
            (
                "crates/coord/src/tree.rs",
                "pub fn f(state: &L) {\n\
                 \x20   let st = state.lock();\n\
                 \x20   let _ = std::fs::read(\"x\");\n\
                 }\n",
            ),
        ],
    );
    assert_hit(&io_hit, "guard-liveness");
}

#[test]
fn json_output_reports_findings_and_keeps_deny_exit_codes() {
    let hit = fixture(
        "json-hit",
        &[
            ("crates/sim/src/lockdep.rs", RANKS_RS),
            (
                "crates/core/src/lib.rs",
                "#![forbid(unsafe_code)]\npub fn f() {\n    panic!(\"boom\");\n}\n",
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
    assert!(stdout.contains("\"lint\":\"panic\""), "stdout:\n{stdout}");
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
                "#![forbid(unsafe_code)]\npub fn f() {\n    panic!(\"boom\");\n}\n",
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
fn lock_cost_lint_fires_on_io_under_hot_guard() {
    // produce_batch (a hot root) ticks an injectable fault site while
    // the ranked cluster.state guard is live. The guard is read
    // afterwards, so guard-liveness stays quiet — this is exactly the
    // deliberate-critical-section shape only lock-cost can price.
    let hit = fixture(
        "lock-cost-hit",
        &[
            ("crates/sim/src/lockdep.rs", RANKS_RS),
            (
                "crates/messaging/src/cluster.rs",
                "pub fn produce_batch(state: &L, injector: &I) {\n\
                 \x20   let mut st = state.lock();\n\
                 \x20   injector.tick(\"cluster.election\");\n\
                 \x20   st.touch();\n\
                 }\n",
            ),
        ],
    );
    let out = lint(&hit);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "stdout:\n{stdout}");
    assert!(stdout.contains("[lock-cost]"), "stdout:\n{stdout}");
    assert!(
        stdout.contains("critical section of \"cluster.state\""),
        "finding must name the ranked guard; stdout:\n{stdout}"
    );

    // Dropping the guard before the fallible operation is the fix.
    let clean = fixture(
        "lock-cost-clean",
        &[
            ("crates/sim/src/lockdep.rs", RANKS_RS),
            (
                "crates/messaging/src/cluster.rs",
                "pub fn produce_batch(state: &L, injector: &I) {\n\
                 \x20   let st = state.lock();\n\
                 \x20   drop(st);\n\
                 \x20   injector.tick(\"cluster.election\");\n\
                 }\n",
            ),
        ],
    );
    assert_clean(&clean);

    // The same section in a function the hot roots never reach is
    // priced in the report but not a lint finding.
    let cold = fixture(
        "lock-cost-cold",
        &[
            ("crates/sim/src/lockdep.rs", RANKS_RS),
            (
                "crates/messaging/src/cluster.rs",
                "pub fn produce_batch(state: &L) -> u64 {\n\
                 \x20   let st = state.lock();\n\
                 \x20   st.len()\n\
                 }\n\
                 pub fn maintenance(state: &L, injector: &I) {\n\
                 \x20   let mut st = state.lock();\n\
                 \x20   injector.tick(\"cluster.election\");\n\
                 \x20   st.touch();\n\
                 }\n",
            ),
        ],
    );
    assert_clean(&cold);
}

#[test]
fn lock_cost_lint_fires_interprocedurally_and_honors_allow() {
    // The I/O happens in a callee — the guard's cost must include the
    // callee's summary, not just the ops textually under the lock.
    let hit = fixture(
        "lock-cost-callee",
        &[
            ("crates/sim/src/lockdep.rs", RANKS_RS),
            (
                "crates/messaging/src/cluster.rs",
                "pub fn produce_batch(state: &L, injector: &I) {\n\
                 \x20   let mut st = state.lock();\n\
                 \x20   append(injector);\n\
                 \x20   st.touch();\n\
                 }\n\
                 fn append(injector: &I) {\n\
                 \x20   injector.tick(\"log.append\");\n\
                 }\n",
            ),
        ],
    );
    assert_hit(&hit, "lock-cost");

    // A reasoned allow on the acquisition suppresses it.
    let allowed = fixture(
        "lock-cost-allowed",
        &[
            ("crates/sim/src/lockdep.rs", RANKS_RS),
            (
                "crates/messaging/src/cluster.rs",
                "pub fn produce_batch(state: &L, injector: &I) {\n\
                 \x20   // lint:allow(lock-cost, reason=crash atomicity requires append under the guard)\n\
                 \x20   let mut st = state.lock();\n\
                 \x20   injector.tick(\"cluster.election\");\n\
                 \x20   st.touch();\n\
                 }\n",
            ),
        ],
    );
    assert_clean(&allowed);
}

#[test]
fn lock_cost_report_is_written_with_schema_and_ranking() {
    let root = fixture(
        "lock-cost-report",
        &[
            ("crates/sim/src/lockdep.rs", RANKS_RS),
            (
                "crates/messaging/src/cluster.rs",
                "pub fn fetch_batch(state: &L) -> u64 {\n\
                 \x20   let st = state.lock();\n\
                 \x20   st.len()\n\
                 }\n",
            ),
        ],
    );
    let out = lint(&root);
    assert_eq!(out.status.code(), Some(0));
    let report = fs::read_to_string(root.join("target/analysis/analysis.json")).unwrap();
    assert!(
        report.starts_with("{\"schema\":\"analysis/v1\""),
        "report:\n{report}"
    );
    assert!(
        report.contains("\"rank\":\"cluster.state\""),
        "report:\n{report}"
    );
    assert!(report.contains("\"order\":40"), "report:\n{report}");
    assert!(
        report.contains("\"function\":\"messaging::fetch_batch\""),
        "report:\n{report}"
    );
    assert!(report.contains("\"hot\":true"), "report:\n{report}");
    assert!(report.contains("\"census\":["), "report:\n{report}");
}

#[test]
fn shard_lint_fires_on_partition_local_hot_guard_with_witness() {
    // A hot root holds the coarse cluster.state lock exclusively, but
    // every guarded access is keyed by the TopicPartition — the
    // analyzer must prove the section partition-local and flag the
    // guard as shardable-but-coarse.
    let hit = fixture(
        "shard-local-hit",
        &[
            ("crates/sim/src/lockdep.rs", RANKS_RS),
            (
                "crates/messaging/src/cluster.rs",
                "pub fn produce_batch(state: &L, tp: &TopicPartition) -> u64 {\n\
                 \x20   let mut st = state.lock();\n\
                 \x20   st.append(tp)\n\
                 }\n",
            ),
        ],
    );
    let out = lint(&hit);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "stdout:\n{stdout}");
    assert!(stdout.contains("[shard]"), "stdout:\n{stdout}");
    assert!(
        stdout.contains("critical section of \"cluster.state\""),
        "finding must name the guard; stdout:\n{stdout}"
    );
    assert!(
        stdout.contains("partition-local state (keyed by `tp`)"),
        "finding must carry the key evidence; stdout:\n{stdout}"
    );
    assert!(
        stdout.contains("per-partition shards"),
        "finding must prescribe the split; stdout:\n{stdout}"
    );

    // The report carries the witness: kind, access, and a
    // `qualified (file:line)` chain hop for the guard function.
    let report = fs::read_to_string(hit.join("target/analysis/analysis.json")).unwrap();
    assert!(
        report.starts_with("{\"schema\":\"analysis/v1\""),
        "report:\n{report}"
    );
    assert!(
        report.contains("\"shard\":\"partition-local\""),
        "report:\n{report}"
    );
    assert!(
        report.contains("\"kind\":\"partition-key\""),
        "report:\n{report}"
    );
    assert!(
        report.contains("\"chain\":\"messaging::produce_batch (crates/messaging/src/cluster.rs:"),
        "witness chains must be qualified-name (file:line) hops; report:\n{report}"
    );
}

#[test]
fn shard_lint_classifies_cross_partition_access_through_callees() {
    // The guard section reaches the topic map without a partition key
    // — and does it inside a callee, so the cross evidence must ride
    // the call graph back to the guard with a multi-hop witness chain.
    let root = fixture(
        "shard-cross",
        &[
            ("crates/sim/src/lockdep.rs", RANKS_RS),
            (
                "crates/messaging/src/cluster.rs",
                "pub fn produce_batch(state: &L) -> u64 {\n\
                 \x20   let st = state.lock();\n\
                 \x20   scan(&st)\n\
                 }\n\
                 fn scan(st: &S) -> u64 {\n\
                 \x20   st.topics.iter().count()\n\
                 }\n",
            ),
        ],
    );
    // Cross-partition guards are not shardable: no finding.
    assert_clean(&root);
    let report = fs::read_to_string(root.join("target/analysis/analysis.json")).unwrap();
    assert!(
        report.contains("\"shard\":\"cross-partition\""),
        "report:\n{report}"
    );
    assert!(
        report.contains("\"kind\":\"cross-collection\""),
        "report:\n{report}"
    );
    assert!(
        report.contains(" \u{2192} messaging::scan (crates/messaging/src/cluster.rs:"),
        "the witness chain must walk into the callee; report:\n{report}"
    );
}

#[test]
fn shard_lint_is_conservative_on_unknown_keys() {
    // The guarded access is neither provably keyed nor a known
    // cross-partition collection: the verdict must stay `unknown` and
    // the lint must NOT prescribe a split it cannot prove safe.
    let root = fixture(
        "shard-unknown",
        &[
            ("crates/sim/src/lockdep.rs", RANKS_RS),
            (
                "crates/messaging/src/cluster.rs",
                "pub fn produce_batch(state: &L) -> u64 {\n\
                 \x20   let mut st = state.lock();\n\
                 \x20   st.bump()\n\
                 }\n",
            ),
        ],
    );
    assert_clean(&root);
    let report = fs::read_to_string(root.join("target/analysis/analysis.json")).unwrap();
    assert!(
        report.contains("\"shard\":\"unknown\""),
        "report:\n{report}"
    );
}

#[test]
fn shard_lint_honors_allow_directive() {
    let allowed = fixture(
        "shard-allowed",
        &[
            ("crates/sim/src/lockdep.rs", RANKS_RS),
            (
                "crates/messaging/src/cluster.rs",
                "pub fn produce_batch(state: &L, tp: &TopicPartition) -> u64 {\n\
                 \x20   // lint:allow(shard, reason=the append and the watermark update must stay one atomic section until the split lands)\n\
                 \x20   let mut st = state.lock();\n\
                 \x20   st.append(tp)\n\
                 }\n",
            ),
        ],
    );
    assert_clean(&allowed);
}

#[test]
fn only_flag_accepts_lint_names_and_rejects_unknown() {
    // Same tree as the partition-local hit: one [shard] finding, no
    // [lock-cost] findings.
    let root = fixture(
        "only-lint-name",
        &[
            ("crates/sim/src/lockdep.rs", RANKS_RS),
            (
                "crates/messaging/src/cluster.rs",
                "pub fn produce_batch(state: &L, tp: &TopicPartition) -> u64 {\n\
                 \x20   let mut st = state.lock();\n\
                 \x20   st.append(tp)\n\
                 }\n",
            ),
        ],
    );
    let run = |extra: &[&str]| {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_liquid-lint"));
        cmd.args(["--deny", "--root"]).arg(&root).args(extra);
        cmd.output().unwrap()
    };

    let shard_only = run(&["--only", "shard"]);
    let stdout = String::from_utf8_lossy(&shard_only.stdout);
    assert_eq!(shard_only.status.code(), Some(1), "stdout:\n{stdout}");
    assert!(stdout.contains("[shard]"), "stdout:\n{stdout}");

    // A known lint with no findings in this tree filters to clean.
    let lock_cost_only = run(&["--only", "lock-cost"]);
    assert_eq!(lock_cost_only.status.code(), Some(0));

    // An unknown bare name is a usage error (exit 2), not a silent
    // empty filter that would green-light a typo in CI.
    let bogus = run(&["--only", "shardd"]);
    assert_eq!(bogus.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&bogus.stderr);
    assert!(
        stderr.contains("neither a path prefix nor a known lint"),
        "stderr:\n{stderr}"
    );
    assert!(
        stderr.contains("shard"),
        "the error must list known lints; stderr:\n{stderr}"
    );
}

#[test]
fn atomicity_lint_validates_reacquire_gaps() {
    // The canonical split shape: resolve a shard handle under the
    // metadata guard, drop it, lock the shard. The carried `Arc` *is*
    // the revalidation — machine-validated, no finding.
    let clean = fixture(
        "atomicity-reacquire",
        &[
            ("crates/sim/src/lockdep.rs", RANKS_RS),
            (
                "crates/messaging/src/cluster.rs",
                "pub fn produce(state: &L) {\n\
                 \x20   let st = state.lock();\n\
                 \x20   let shard = st.resolve();\n\
                 \x20   drop(st);\n\
                 \x20   let mut ps = shard.part.lock();\n\
                 \x20   ps.touch();\n\
                 }\n",
            ),
        ],
    );
    assert_clean(&clean);
}

#[test]
fn atomicity_lint_fires_on_stale_use_across_drop() {
    // A snapshot taken under the dropped guard is consulted as state
    // inside the next critical section — the TOCTOU shape the pass
    // exists for.
    let hit = fixture(
        "atomicity-stale",
        &[
            ("crates/sim/src/lockdep.rs", RANKS_RS),
            (
                "crates/messaging/src/cluster.rs",
                "pub fn produce(state: &L, shard: &S) {\n\
                 \x20   let st = state.lock();\n\
                 \x20   let snap = st.snapshot();\n\
                 \x20   drop(st);\n\
                 \x20   let mut ps = shard.part.lock();\n\
                 \x20   snap.probe();\n\
                 \x20   ps.touch();\n\
                 }\n",
            ),
        ],
    );
    let out = lint(&hit);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "stdout:\n{stdout}");
    assert!(stdout.contains("[atomicity]"), "stdout:\n{stdout}");
    assert!(
        stdout.contains("derived under \"cluster.state\""),
        "finding must name the source rank; stdout:\n{stdout}"
    );
    assert!(
        stdout.contains("\"partition.state\" section"),
        "finding must name the live section; stdout:\n{stdout}"
    );
}

#[test]
fn atomicity_lint_witnesses_interprocedural_consults() {
    // The consult happens inside a helper the stale value is passed
    // to — the witness chain must ride the call graph into the callee.
    let hit = fixture(
        "atomicity-interproc",
        &[
            ("crates/sim/src/lockdep.rs", RANKS_RS),
            (
                "crates/messaging/src/cluster.rs",
                "pub fn produce(state: &L, shard: &S) {\n\
                 \x20   let st = state.lock();\n\
                 \x20   let snap = st.snapshot();\n\
                 \x20   drop(st);\n\
                 \x20   let mut ps = shard.part.lock();\n\
                 \x20   consult(snap);\n\
                 \x20   ps.touch();\n\
                 }\n\
                 fn consult(snap: &M) -> usize {\n\
                 \x20   snap.len()\n\
                 }\n",
            ),
        ],
    );
    let out = lint(&hit);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "stdout:\n{stdout}");
    assert!(stdout.contains("[atomicity]"), "stdout:\n{stdout}");
    // Witness-chain format: read → drop → use hop(s), file:line each,
    // ending in the callee that performs the consult.
    assert!(
        stdout.contains(
            "read crates/messaging/src/cluster.rs:3 \u{2192} \
             drop crates/messaging/src/cluster.rs:4 \u{2192} \
             messaging::produce (crates/messaging/src/cluster.rs:6) \u{2192} \
             messaging::consult (crates/messaging/src/cluster.rs:9)"
        ),
        "witness chain must carry file:line per hop; stdout:\n{stdout}"
    );
}

#[test]
fn atomicity_lint_detects_scope_end_drops() {
    // No explicit drop: the guard dies at the end of its block, and
    // the witness renders the drop hop as "scope end".
    let hit = fixture(
        "atomicity-scope-end",
        &[
            ("crates/sim/src/lockdep.rs", RANKS_RS),
            (
                "crates/messaging/src/cluster.rs",
                "pub fn produce(state: &L, shard: &S) {\n\
                 \x20   let mut snap = M::empty();\n\
                 \x20   {\n\
                 \x20       let st = state.lock();\n\
                 \x20       snap = st.snapshot();\n\
                 \x20       st.touch();\n\
                 \x20   }\n\
                 \x20   let mut ps = shard.part.lock();\n\
                 \x20   snap.probe();\n\
                 \x20   ps.touch();\n\
                 }\n",
            ),
        ],
    );
    let out = lint(&hit);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "stdout:\n{stdout}");
    assert!(stdout.contains("[atomicity]"), "stdout:\n{stdout}");
    assert!(
        stdout.contains("scope end"),
        "implicit drops must render as scope end; stdout:\n{stdout}"
    );
}

#[test]
fn atomicity_lint_honors_allow_directive() {
    // A reasoned allow directly above the stale consult suppresses the
    // finding (and counts as used, so lint-allow stays quiet too).
    let allowed = fixture(
        "atomicity-allowed",
        &[
            ("crates/sim/src/lockdep.rs", RANKS_RS),
            (
                "crates/messaging/src/cluster.rs",
                "pub fn produce(state: &L, shard: &S) {\n\
                 \x20   let st = state.lock();\n\
                 \x20   let snap = st.snapshot();\n\
                 \x20   drop(st);\n\
                 \x20   let mut ps = shard.part.lock();\n\
                 \x20   // lint:allow(atomicity, reason=snap is a conservative liveness hint and the section revalidates authoritative state)\n\
                 \x20   snap.probe();\n\
                 \x20   ps.touch();\n\
                 }\n",
            ),
        ],
    );
    assert_clean(&allowed);
}

#[test]
fn atomicity_lint_spares_carried_keys_and_cold_sections() {
    // A stale value in argument/key position next to the live guard is
    // the carried-key shape (fresh state keyed by the snapshot), and a
    // use with no ranked guard live is not a critical-section gap:
    // neither is a finding.
    let clean = fixture(
        "atomicity-carried",
        &[
            ("crates/sim/src/lockdep.rs", RANKS_RS),
            (
                "crates/messaging/src/cluster.rs",
                "pub fn produce(state: &L, shard: &S) {\n\
                 \x20   let st = state.lock();\n\
                 \x20   let snap = st.snapshot();\n\
                 \x20   drop(st);\n\
                 \x20   let mut ps = shard.part.lock();\n\
                 \x20   ps.apply(snap);\n\
                 \x20   drop(ps);\n\
                 \x20   snap.probe();\n\
                 }\n",
            ),
        ],
    );
    assert_clean(&clean);
}

#[test]
fn atomicity_census_of_real_tree_has_no_unknown_gaps() {
    // Whole-tree acceptance: every ranked guard carries a verdict, no
    // gap anywhere is unknown-classified, and no offset-index site has
    // a gap at all.
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .unwrap();
    let (_, report) = liquid_lint::analyze_root(&root).unwrap();
    let guards = &report.guards;
    assert!(!guards.is_empty());
    assert!(
        guards
            .iter()
            .all(|g| g.gap_verdict != liquid_lint::atomicity::Verdict::Unknown),
        "unknown-classified gaps on the real tree"
    );
    // The only stale-use verdicts are the two allowed broker-liveness
    // hints on the cluster.state produce paths.
    for g in guards {
        if g.gap_verdict == liquid_lint::atomicity::Verdict::StaleUse {
            assert_eq!(g.rank, "cluster.state", "unexpected stale-use on {g:?}");
            assert!(
                !g.gap_witness.is_empty(),
                "stale verdict without witness: {g:?}"
            );
        }
    }
    // The offset index is one lock held across each whole call: no
    // `offsets.inner` site carries a value across a drop and reacquire.
    let offsets: Vec<_> = guards
        .iter()
        .filter(|g| g.rank == "offsets.inner")
        .collect();
    assert!(!offsets.is_empty(), "offsets.inner sites in the census");
    for g in offsets {
        assert!(!g.gap, "offsets.inner site with a gap: {g:?}");
    }
}

#[test]
fn rank_tables_and_guard_inventory_agree() {
    // Three copies of the rank table must agree: the runtime table
    // (sim::lockdep::RANKS, parsed from source), the analyzer's
    // field→rank map (rules::LOCK_FIELDS), and the ranks with an
    // acquire site in the lock analysis report of the real tree.
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

    let (_, report) = liquid_lint::analyze_root(&root).unwrap();
    let inventory: std::collections::BTreeSet<&str> =
        report.guards.iter().map(|g| g.rank).collect();
    assert_eq!(
        inventory, declared,
        "the lock report's guard inventory drifted from the declared ranks"
    );
}

#[test]
fn partition_state_keeps_a_proven_local_site() {
    // The split the shard verdicts motivated: the partition.state shards
    // keep at least one analyzer-proven partition-local acquire site.
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .unwrap();
    let (_, report) = liquid_lint::analyze_root(&root).unwrap();
    assert!(report
        .guards
        .iter()
        .any(|g| g.rank == "partition.state"
            && g.shard == liquid_lint::shard::Verdict::PartitionLocal));
}

#[test]
fn census_baseline_is_checked_when_present() {
    let root = fixture(
        "census-baseline",
        &[
            ("crates/sim/src/lockdep.rs", RANKS_RS),
            (
                "crates/messaging/src/cluster.rs",
                "pub fn fetch_batch(state: &L) -> u64 {\n\
                 \x20   let st = state.lock();\n\
                 \x20   st.len()\n\
                 }\n",
            ),
        ],
    );
    // No baseline file: nothing to check.
    assert_clean(&root);

    // The baseline the refresh command writes (the report minus its
    // guard rows) equals the census: clean.
    let report = fs::read_to_string(root.join("target/analysis/analysis.json")).unwrap();
    let baseline: String = report
        .lines()
        .filter(|l| !l.contains("\"file\":"))
        .map(|l| format!("{l}\n"))
        .collect();
    assert!(
        baseline.contains("{\"rank\":\"cluster.state\",\"order\":40,\"sites\":1,"),
        "baseline:\n{baseline}"
    );
    let path = root.join("ci/analysis-baseline.json");
    fs::create_dir_all(path.parent().unwrap()).unwrap();
    fs::write(&path, &baseline).unwrap();
    assert_clean(&root);

    // One site off: exactly one finding, on the baseline row, under the
    // lint that owns the column.
    fs::write(&path, baseline.replace("\"sites\":1,", "\"sites\":2,")).unwrap();
    let out = lint(&root);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "stdout:\n{stdout}");
    assert!(
        stdout.contains(
            "ci/analysis-baseline.json:2: [lock-cost] lock census drift on \"cluster.state\": \
             sites 2 \u{2192} 1"
        ),
        "stdout:\n{stdout}"
    );
    assert!(
        stdout.contains("liquid-lint: 1 finding(s)"),
        "stdout:\n{stdout}"
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
