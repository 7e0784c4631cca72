//! `bshm-analyze` — in-tree static analysis for the bshm workspace.
//!
//! The correctness story of this reproduction rests on invariants the
//! compiler cannot see: exact cost accounting over integer time,
//! deterministic replayable traces, and a hand-synchronized TraceEvent
//! schema shared by the emitter, the replay checker and the Prometheus
//! encoder. The generic parts of that story — no panics, lossy casts,
//! prints, clock reads, float equality, hash-ordered iteration or
//! mutable statics in shipping code — are built-in clippy lints, set in
//! each crate root and in `clippy.toml`, and CI's clippy step enforces
//! them. This crate keeps what clippy cannot express: a
//! comment/string/raw-string-aware tokenizer ([`lexer`]), three
//! codebase-specific rules with per-line `// bshm-allow(rule): reason`
//! pragmas ([`diag`], [`rules`]), and cross-artifact drift auditors
//! ([`drift`]).
//!
//! Run it as `cargo run -p bshm-analyze` (add `-- --format json` for the
//! CI artifact). Exit status is non-zero iff any error-severity
//! diagnostic survives pragma filtering.

// Non-test code compares floats through explicit tolerances and reads
// the clock only through `bshm_obs::clock` (lists in clippy.toml).
#![cfg_attr(not(test), deny(clippy::float_cmp, clippy::disallowed_methods))]

pub mod context;
pub mod diag;
pub mod drift;
pub mod lexer;
pub mod rules;
pub mod walk;

use context::FileContext;
use diag::{Diagnostic, Report};
use std::path::Path;

/// Lints one file's source text (pragmas applied). Exposed so fixture
/// tests and external tools can run single-file checks.
#[must_use]
pub fn analyze_source(rel_path: &str, src: &str) -> Vec<Diagnostic> {
    let ctx = FileContext::classify(rel_path);
    let toks = lexer::tokenize(src);
    let in_test = context::test_regions(&toks);
    let (pragmas, mut diags) = diag::collect_pragmas(&toks, &ctx.path);
    // Rules see comment-free streams; keep the test mask aligned.
    let mut code = Vec::with_capacity(toks.len());
    let mut mask = Vec::with_capacity(toks.len());
    for (t, &flag) in toks.iter().zip(&in_test) {
        if !t.is_comment() {
            code.push(t.clone());
            mask.push(flag);
        }
    }
    let findings = rules::check_file(&ctx, &code, &mask);
    diags.extend(diag::apply_pragmas(findings, &pragmas, &ctx.path));
    diags
}

/// Runs the drift auditors against in-memory copies of the synchronized
/// artifacts. Tests feed mutated copies through this to prove the gate
/// trips; [`analyze_workspace`] feeds the real files.
#[must_use]
pub struct DriftInputs {
    /// `crates/obs/src/event.rs`.
    pub event_rs: String,
    /// `crates/obs/src/replay.rs`.
    pub replay_rs: String,
    /// `crates/obs/src/recorder.rs`.
    pub recorder_rs: String,
    /// `crates/obs/src/prometheus.rs`.
    pub prometheus_rs: String,
    /// `crates/cli/src/commands.rs`.
    pub commands_rs: String,
    /// `crates/cli/src/args.rs`.
    pub args_rs: String,
    /// `README.md`.
    pub readme: String,
    /// `crates/bench/src/baseline.rs`.
    pub baseline_rs: String,
    /// `EXPERIMENTS.md`.
    pub experiments_md: String,
    /// `ANALYZE_RULES.json` — the committed rule manifest.
    pub rules_manifest: String,
    /// `crates/bench/src/bin/reproduce.rs` — the EXPERIMENTS.md generator.
    pub reproduce_rs: String,
}

impl DriftInputs {
    /// Loads the real artifacts from a workspace root.
    ///
    /// # Errors
    /// Names the first file that could not be read.
    pub fn load(root: &Path) -> Result<DriftInputs, String> {
        let read = |rel: &str| {
            std::fs::read_to_string(root.join(rel)).map_err(|e| format!("reading {rel}: {e}"))
        };
        Ok(DriftInputs {
            event_rs: read("crates/obs/src/event.rs")?,
            replay_rs: read("crates/obs/src/replay.rs")?,
            recorder_rs: read("crates/obs/src/recorder.rs")?,
            prometheus_rs: read("crates/obs/src/prometheus.rs")?,
            commands_rs: read("crates/cli/src/commands.rs")?,
            args_rs: read("crates/cli/src/args.rs")?,
            readme: read("README.md")?,
            baseline_rs: read("crates/bench/src/baseline.rs")?,
            experiments_md: read("EXPERIMENTS.md")?,
            rules_manifest: read("ANALYZE_RULES.json")?,
            reproduce_rs: read("crates/bench/src/bin/reproduce.rs")?,
        })
    }

    /// Runs every drift auditor over these inputs.
    #[must_use]
    pub fn audit(&self) -> Vec<Diagnostic> {
        let mut out = drift::audit_trace_schema(
            &self.event_rs,
            &self.replay_rs,
            &self.recorder_rs,
            &self.prometheus_rs,
        );
        out.extend(drift::audit_cli(
            &self.commands_rs,
            &self.args_rs,
            &self.readme,
        ));
        out.extend(drift::audit_bench_schema(
            &self.baseline_rs,
            &self.experiments_md,
        ));
        out.extend(drift::audit_rules_manifest(
            &self.rules_manifest,
            &self.experiments_md,
            &self.reproduce_rs,
        ));
        out
    }
}

/// Analyzes a whole workspace: lints every first-party `.rs` file and
/// runs the drift auditors against the real artifacts.
///
/// # Errors
/// Propagates unreadable source files and drift artifacts (a missing
/// synchronized file is itself a drift failure worth a hard error).
pub fn analyze_workspace(root: &Path) -> Result<Report, String> {
    let paths = walk::rust_files(root);
    let mut diags = Vec::new();
    for path in &paths {
        let src = std::fs::read_to_string(path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        diags.extend(analyze_source(&walk::rel(root, path), &src));
    }
    diags.extend(DriftInputs::load(root)?.audit());
    Ok(Report::new(diags, paths.len()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn analyze_source_applies_pragmas() {
        let src = "fn f(m: &mut Metrics) {\n  m.ops += 1; // bshm-allow(no-raw-metric): fixture\n  m.opens += 1;\n}\n";
        let d = analyze_source("crates/obs/src/x.rs", src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].line, 3);
    }

    #[test]
    fn analyze_source_reports_malformed_pragma() {
        let src = "fn f(m: &mut Metrics) { m.ops += 1; } // bshm-allow(no-raw-metric)\n";
        let d = analyze_source("crates/obs/src/x.rs", src);
        assert!(d.iter().any(|d| d.rule == "pragma-syntax"), "{d:?}");
        // The raw write still fires: a broken pragma suppresses nothing.
        assert!(d.iter().any(|d| d.rule == "no-raw-metric"), "{d:?}");
    }
}
