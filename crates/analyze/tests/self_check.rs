//! The analyzer's own acceptance gate, run as part of `cargo test`:
//!
//! 1. The committed workspace is clean — zero error-severity diagnostics.
//!    This is the same check CI runs via `cargo run -p bshm-analyze`, so a
//!    violation fails the test suite even before the CI job executes.
//! 2. Introducing a violation is actually caught (the gate is live, not
//!    vacuous): seeded fixtures trip each rule.
//! 3. The drift auditors fail on mutated copies of the synchronized
//!    artifacts — a new TraceEvent variant unknown to the replay checker,
//!    a dispatched-but-undocumented subcommand, a bumped schema version,
//!    a rule missing from the committed `ANALYZE_RULES.json` manifest.
//! 4. The graph/taint layers hold their committed invariants on the real
//!    workspace: low unresolved fraction, zero concurrency-audit findings
//!    reachable from the solver entry points, and a seeded wall-clock →
//!    TraceEvent fixture fails analysis.

use bshm_analyze::{analyze_files, analyze_source, analyze_workspace_full, DriftInputs};
use std::path::PathBuf;

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

#[test]
fn committed_workspace_is_clean_and_fast() {
    // Generous wall-clock bound: the whole three-layer pass (lint rules,
    // item parse, call graph, taint, drift audits) must stay interactive
    // so pre-merge checks never become minutes-slow. Debug builds on a
    // loaded CI box run ~10x slower than release; 60s is ~20x headroom
    // over the observed debug-mode runtime.
    let started = std::time::Instant::now();
    let wa = analyze_workspace_full(&workspace_root()).expect("workspace analyzable");
    let elapsed = started.elapsed();
    let report = &wa.report;
    let rendered = report.render_human();
    assert_eq!(
        report.errors, 0,
        "lint/drift errors in committed tree:\n{rendered}"
    );
    assert_eq!(
        report.warnings, 0,
        "stale pragmas in committed tree:\n{rendered}"
    );
    // Sanity: the walk actually visited the workspace, not an empty dir.
    assert!(
        report.files_scanned > 100,
        "only {} files scanned",
        report.files_scanned
    );
    assert!(
        elapsed < std::time::Duration::from_secs(60),
        "analyze took {elapsed:?}; the graph passes made pre-merge checks too slow"
    );
}

#[test]
fn call_graph_unresolved_bucket_stays_small() {
    let wa = analyze_workspace_full(&workspace_root()).expect("workspace analyzable");
    let g = &wa.graph;
    // The workspace has ~1500 fns; a collapse in item parsing or call
    // resolution would show up as a tiny graph or a ballooning bucket.
    assert!(g.fns > 500, "only {} fns in the call graph", g.fns);
    assert!(g.edges > 1000, "only {} resolved edges", g.edges);
    assert!(
        g.unresolved_fraction < 0.15,
        "unresolved fraction {:.3} breached the committed threshold (sample: {:?})",
        g.unresolved_fraction,
        g.unresolved_sample
    );
}

#[test]
fn concurrency_audit_is_clean_on_solver_paths() {
    let wa = analyze_workspace_full(&workspace_root()).expect("workspace analyzable");
    let a = &wa.taint.audit;
    // The 12 algorithm decision paths all enter through non-test algos
    // fns; a shrunken entry set would make the zero-findings claim vacuous.
    assert!(a.entry_points >= 12, "only {} entry points", a.entry_points);
    assert!(
        a.reachable_fns > a.entry_points,
        "solver closure did not expand past its entry points"
    );
    assert_eq!(
        a.unordered_iter_reachable, 0,
        "unordered iteration reachable from solvers"
    );
    assert_eq!(
        a.interior_mutability_reachable, 0,
        "interior mutability reachable from solvers"
    );
    assert_eq!(a.shared_mutable_statics, 0, "static mut in library crates");
    // Every surviving suppression carries its reason into the artifact.
    assert!(wa.taint.suppressed.iter().all(|s| !s.reason.is_empty()));
}

#[test]
fn seeded_wall_clock_to_trace_event_path_fails_analysis() {
    // The ISSUE's acceptance fixture: wall-clock value flowing through a
    // helper into a TraceEvent emission must fail whole-workspace analysis
    // with a taint-path error (on top of the per-file wall-clock lint).
    let sources = vec![
        (
            "crates/sim/src/seeded_stamp.rs".to_string(),
            "pub fn seeded_stamp() -> u64 { elapsed_ns(std::time::Instant::now()) }\n\
             fn elapsed_ns(_t: u64) -> u64 { 0 }\n"
                .to_string(),
        ),
        (
            "crates/sim/src/seeded_emit.rs".to_string(),
            "pub fn seeded_emit(p: &mut Probe) { p.record(TraceEvent::Tick { t: seeded_stamp() }); }\n"
                .to_string(),
        ),
    ];
    let wa = analyze_files(&sources);
    assert!(wa.report.errors > 0, "fixture passed analysis");
    assert!(
        wa.report.diagnostics.iter().any(|d| d.rule == "taint-path"
            && d.file == "crates/sim/src/seeded_stamp.rs"
            && d.message.contains("wall-clock")),
        "no taint-path error: {:?}",
        wa.report.diagnostics
    );
}

#[test]
fn seeded_violations_are_caught() {
    // One fixture per rule, written as library-crate code (strict context).
    let cases: &[(&str, &str)] = &[
        ("no-panic", "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n"),
        ("no-panic", "fn f() { panic!(\"boom\"); }\n"),
        ("float-eq", "fn f(rate: f64) -> bool { rate == 0.5 }\n"),
        ("lossy-cast", "fn f(x: u64) -> u32 { x as u32 }\n"),
        (
            "wall-clock",
            "fn f() { let _t = std::time::Instant::now(); }\n",
        ),
        ("no-print", "fn f() { println!(\"dbg\"); }\n"),
    ];
    for (rule, src) in cases {
        let diags = analyze_source("crates/core/src/seeded.rs", src);
        assert!(
            diags.iter().any(|d| d.rule == *rule),
            "fixture for {rule} produced {diags:?}"
        );
    }
    // The faults crate is a strict library crate too.
    let diags = analyze_source(
        "crates/faults/src/seeded.rs",
        "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n",
    );
    assert!(
        diags.iter().any(|d| d.rule == "no-panic"),
        "faults crate not strict: {diags:?}"
    );
    // no-raw-trace-write fires only in obs/sim, outside the sink module.
    let raw = "fn f(p: &std::path::Path) { let _ = std::fs::write(p, \"x\"); }\n";
    let diags = analyze_source("crates/obs/src/seeded.rs", raw);
    assert!(
        diags.iter().any(|d| d.rule == "no-raw-trace-write"),
        "raw trace write not caught: {diags:?}"
    );
    assert!(analyze_source("crates/obs/src/sink.rs", raw)
        .iter()
        .all(|d| d.rule != "no-raw-trace-write"));
}

#[test]
fn pragma_suppresses_seeded_violation() {
    let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() } // bshm-allow(no-panic): fixture\n";
    let diags = analyze_source("crates/core/src/seeded.rs", src);
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn test_code_is_exempt() {
    let src = "#[cfg(test)]\nmod tests {\n  #[test]\n  fn t() { None::<u32>.unwrap(); }\n}\n";
    let diags = analyze_source("crates/core/src/seeded.rs", src);
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn drift_auditor_fails_on_mutated_event_schema() {
    let root = workspace_root();
    let mut inputs = DriftInputs::load(&root).expect("artifacts readable");
    assert!(inputs.audit().is_empty(), "baseline drift audit must pass");

    // Add a TraceEvent variant the replay checker has never heard of.
    let marker = "pub enum TraceEvent {";
    assert!(inputs.event_rs.contains(marker), "event.rs changed shape");
    inputs.event_rs = inputs.event_rs.replace(
        marker,
        "pub enum TraceEvent {\n    PhantomVariantForDriftTest { t: u64 },",
    );
    let diags = inputs.audit();
    assert!(
        diags
            .iter()
            .any(|d| d.rule == "drift/trace-schema"
                && d.message.contains("PhantomVariantForDriftTest")),
        "mutated event.rs not caught: {diags:?}"
    );
}

#[test]
fn drift_auditor_fails_on_undocumented_subcommand() {
    let root = workspace_root();
    let mut inputs = DriftInputs::load(&root).expect("artifacts readable");
    inputs.commands_rs = inputs.commands_rs.replace(
        "match cmd.as_str() {",
        "match cmd.as_str() {\n        \"phantom-subcommand\" => run_phantom(),",
    );
    let diags = inputs.audit();
    assert!(
        diags
            .iter()
            .any(|d| d.rule == "drift/cli" && d.message.contains("phantom-subcommand")),
        "undocumented subcommand not caught: {diags:?}"
    );
}

#[test]
fn drift_auditor_fails_on_rules_manifest_drift() {
    let root = workspace_root();
    let mut inputs = DriftInputs::load(&root).expect("artifacts readable");
    assert!(inputs.audit().is_empty(), "baseline drift audit must pass");

    // Drop a registered rule from the committed manifest.
    let pruned = inputs.rules_manifest.replace("    \"no-panic\",\n", "");
    assert_ne!(
        pruned, inputs.rules_manifest,
        "mutation must actually apply"
    );
    inputs.rules_manifest = pruned;
    let diags = inputs.audit();
    assert!(
        diags
            .iter()
            .any(|d| d.rule == "drift/rules-manifest" && d.message.contains("no-panic")),
        "pruned manifest not caught: {diags:?}"
    );
}

#[test]
fn drift_auditor_fails_on_schema_version_bump() {
    let root = workspace_root();
    let mut inputs = DriftInputs::load(&root).expect("artifacts readable");
    let bumped = inputs.baseline_rs.replace(
        "pub const SCHEMA_VERSION: u64 = 7;",
        "pub const SCHEMA_VERSION: u64 = 8;",
    );
    assert_ne!(bumped, inputs.baseline_rs, "mutation must actually apply");
    inputs.baseline_rs = bumped;
    let diags = inputs.audit();
    assert!(
        diags.iter().any(|d| d.rule == "drift/bench-schema"),
        "schema bump not caught: {diags:?}"
    );
}
