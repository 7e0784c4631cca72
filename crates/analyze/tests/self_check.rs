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
//!
//! The generic rules (no panics, casts, prints, clock reads, float
//! equality, hash-ordered iteration, mutable statics, raw file writes,
//! unbounded channels) are clippy lints, enforced by CI's clippy step;
//! `rules.rs`'s unit tests pin each one's configuration.

use bshm_analyze::{analyze_source, analyze_workspace, DriftInputs};
use std::path::PathBuf;

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

#[test]
fn committed_workspace_is_clean_and_fast() {
    // Generous wall-clock bound: the whole pass (lint rules, drift
    // audits) must stay interactive
    // so pre-merge checks never become minutes-slow. Debug builds on a
    // loaded CI box run ~10x slower than release; 60s is ~20x headroom
    // over the observed debug-mode runtime.
    let started = std::time::Instant::now();
    let report = analyze_workspace(&workspace_root()).expect("workspace analyzable");
    let elapsed = started.elapsed();
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
        "analyze took {elapsed:?}; pre-merge checks became too slow"
    );
}

#[test]
fn seeded_violations_are_caught() {
    // One fixture per rule, each at a path inside the rule's scope.
    let cases: &[(&str, &str, &str)] = &[
        (
            "no-raw-metric",
            "crates/sim/src/seeded.rs",
            "fn f(m: &mut Metrics) { m.opens += 1; }\n",
        ),
        (
            "no-untyped-reject",
            "crates/core/src/seeded.rs",
            "fn f(l: &mut L) { l.rejected(m, \"full\"); }\n",
        ),
        (
            "no-untyped-reject",
            "crates/faults/src/seeded.rs",
            "fn f(c: &mut C) { c.reject(\"busy\"); }\n",
        ),
        (
            "no-unbounded-buffer",
            "crates/obs/src/seeded.rs",
            "fn f() -> VecDeque<u64> { VecDeque::new() }\n",
        ),
    ];
    for (rule, path, src) in cases {
        let diags = analyze_source(path, src);
        assert!(
            diags.iter().any(|d| d.rule == *rule),
            "fixture for {rule} produced {diags:?}"
        );
    }
    // no-raw-metric exempts the recorder fold, its one sanctioned site.
    assert!(analyze_source(
        "crates/obs/src/recorder.rs",
        "fn f(m: &mut Metrics) { m.opens += 1; }\n"
    )
    .is_empty());
}

#[test]
fn pragma_suppresses_seeded_violation() {
    let src = "fn f(m: &mut Metrics) { m.opens += 1; } // bshm-allow(no-raw-metric): fixture\n";
    let diags = analyze_source("crates/sim/src/seeded.rs", src);
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn test_code_is_exempt() {
    let src = "#[cfg(test)]\nmod tests {\n  #[test]\n  fn t() { let mut m = Metrics::default(); m.opens += 1; }\n}\n";
    let diags = analyze_source("crates/sim/src/seeded.rs", src);
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
    let pruned = inputs
        .rules_manifest
        .replace("    \"no-raw-metric\",\n", "");
    assert_ne!(
        pruned, inputs.rules_manifest,
        "mutation must actually apply"
    );
    inputs.rules_manifest = pruned;
    let diags = inputs.audit();
    assert!(
        diags
            .iter()
            .any(|d| d.rule == "drift/rules-manifest" && d.message.contains("no-raw-metric")),
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
