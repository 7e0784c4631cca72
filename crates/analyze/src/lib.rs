//! `bshm-analyze` — in-tree static analysis for the bshm workspace.
//!
//! The correctness story of this reproduction rests on invariants the
//! compiler cannot see: exact cost accounting over integer time,
//! deterministic replayable traces, and a hand-synchronized TraceEvent
//! schema shared by the emitter, the replay checker and the Prometheus
//! encoder. Because the build is offline (registry deps are in-tree
//! shims), clippy plugins/dylint are unavailable — so the analyzer is an
//! ordinary workspace crate: a comment/string/raw-string-aware tokenizer
//! ([`lexer`]), a rule engine with severities and per-line
//! `// bshm-allow(rule): reason` pragmas ([`diag`], [`rules`]), and
//! cross-artifact drift auditors ([`drift`]).
//!
//! Since PR 9 the per-file rules sit under a three-layer whole-workspace
//! stack: an item parser ([`items`]) builds a symbol table on the lexer,
//! a call graph ([`graph`]) resolves intra-workspace calls best-effort
//! (with the unresolved remainder itself reported), and a taint engine
//! ([`taint`]) propagates nondeterminism from sources to trace/bench/
//! checkpoint/alert sinks along that graph, plus a concurrency-readiness
//! audit over the solver entry points.
//!
//! Run it as `cargo run -p bshm-analyze` (add `-- --format json` for the
//! CI artifact, `--graph`/`--taint` for the layer reports). Exit status
//! is non-zero iff any error-severity diagnostic survives pragma
//! filtering.

pub mod context;
pub mod diag;
pub mod drift;
pub mod graph;
pub mod items;
pub mod lexer;
pub mod rules;
pub mod taint;
pub mod walk;

use context::FileContext;
use diag::{Diagnostic, Report};
use std::collections::BTreeMap;
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

/// The full three-layer result: merged diagnostics plus the graph and
/// taint reports that `--graph`/`--taint` serialize for CI.
pub struct WorkspaceAnalysis {
    /// Per-file rules + taint/audit findings + drift audits, post-pragma.
    pub report: Report,
    /// Call-graph statistics, including the unresolved bucket.
    pub graph: graph::GraphReport,
    /// Taint propagation + concurrency-audit summary.
    pub taint: taint::TaintReport,
}

/// The pure whole-workspace core: lints, call graph, and taint over a set
/// of `(rel_path, source)` files. No filesystem access — fixture tests
/// feed synthetic workspaces through this; [`analyze_workspace_full`]
/// feeds the real one (and appends the drift audits, which need non-Rust
/// artifacts).
///
/// Pragmas are applied exactly once per file, over the *merged* per-file
/// and graph-level findings — so a `bshm-allow(taint-path)` line pragma
/// suppresses the cross-file finding anchored there, and a pragma used
/// only by a taint finding does not misfire as `pragma-unused`.
#[must_use]
pub fn analyze_files(sources: &[(String, String)]) -> WorkspaceAnalysis {
    let mut parsed: Vec<graph::ParsedFile> = Vec::with_capacity(sources.len());
    let mut pragmas_per = Vec::with_capacity(sources.len());
    let mut findings_per: Vec<Vec<Diagnostic>> = Vec::with_capacity(sources.len());
    let mut diags = Vec::new();
    for (rel, src) in sources {
        let ctx = FileContext::classify(rel);
        let toks = lexer::tokenize(src);
        let in_test = context::test_regions(&toks);
        let (pragmas, pragma_diags) = diag::collect_pragmas(&toks, &ctx.path);
        diags.extend(pragma_diags);
        let pf = graph::ParsedFile::build(rel, &toks, &in_test);
        findings_per.push(rules::check_file(&pf.ctx, &pf.code, &pf.mask));
        pragmas_per.push(pragmas);
        parsed.push(pf);
    }
    let g = graph::build(&parsed);
    let (taint_findings, mut taint_report) = taint::analyze(&parsed, &g);
    let index: BTreeMap<&str, usize> = parsed
        .iter()
        .enumerate()
        .map(|(i, pf)| (pf.rel.as_str(), i))
        .collect();
    for f in taint_findings {
        match index.get(f.file.as_str()) {
            Some(&i) => findings_per[i].push(f),
            None => diags.push(f),
        }
    }
    for (i, findings) in findings_per.into_iter().enumerate() {
        let (kept, suppressed) =
            diag::apply_pragmas_tracked(findings, &pragmas_per[i], &parsed[i].rel);
        diags.extend(kept);
        for (d, reason) in suppressed {
            if matches!(d.rule.as_str(), "taint-path" | "concurrency-audit") {
                taint_report.suppressed.push(taint::SuppressedPath {
                    rule: d.rule,
                    file: d.file,
                    line: d.line,
                    reason,
                });
            }
        }
    }
    WorkspaceAnalysis {
        report: Report::new(diags, sources.len()),
        graph: g.report,
        taint: taint_report,
    }
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

/// Analyzes a whole workspace: lints every first-party `.rs` file, builds
/// the call graph, runs taint + the concurrency audit, and runs the drift
/// auditors against the real artifacts.
///
/// # Errors
/// Propagates unreadable source files and drift artifacts (a missing
/// synchronized file is itself a drift failure worth a hard error).
pub fn analyze_workspace_full(root: &Path) -> Result<WorkspaceAnalysis, String> {
    let paths = walk::rust_files(root);
    let mut sources = Vec::with_capacity(paths.len());
    for path in &paths {
        let rel = walk::rel(root, path);
        let src = std::fs::read_to_string(path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        sources.push((rel, src));
    }
    let mut wa = analyze_files(&sources);
    let mut diags = std::mem::take(&mut wa.report.diagnostics);
    diags.extend(DriftInputs::load(root)?.audit());
    wa.report = Report::new(diags, paths.len());
    Ok(wa)
}

/// Back-compat wrapper around [`analyze_workspace_full`] returning only
/// the diagnostic report.
///
/// # Errors
/// See [`analyze_workspace_full`].
pub fn analyze_workspace(root: &Path) -> Result<Report, String> {
    Ok(analyze_workspace_full(root)?.report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn analyze_source_applies_pragmas() {
        let src = "fn f() {\n  x.unwrap(); // bshm-allow(no-panic): fixture\n  y.unwrap();\n}\n";
        let d = analyze_source("crates/core/src/x.rs", src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].line, 3);
    }

    #[test]
    fn analyze_source_reports_malformed_pragma() {
        let src = "fn f() { x.unwrap(); } // bshm-allow(no-panic)\n";
        let d = analyze_source("crates/core/src/x.rs", src);
        assert!(d.iter().any(|d| d.rule == "pragma-syntax"), "{d:?}");
        // The unwrap still fires: a broken pragma suppresses nothing.
        assert!(d.iter().any(|d| d.rule == "no-panic"), "{d:?}");
    }

    #[test]
    fn analyze_files_merges_taint_findings_with_per_file_rules() {
        // The wall-clock read fires both the per-file rule and (via the
        // callee edge into the TraceEvent emitter) a taint-path finding.
        let sources = vec![
            (
                "crates/sim/src/stamp.rs".to_string(),
                "pub fn stamp() -> u64 { let t = Instant::now(); emit(t); 0 }\n".to_string(),
            ),
            (
                "crates/sim/src/emit.rs".to_string(),
                "pub fn emit(t: u64) { record(TraceEvent::Tick { t }); }\n".to_string(),
            ),
        ];
        let wa = analyze_files(&sources);
        let rules: Vec<&str> = wa
            .report
            .diagnostics
            .iter()
            .map(|d| d.rule.as_str())
            .collect();
        assert!(rules.contains(&"wall-clock"), "{rules:?}");
        assert!(rules.contains(&"taint-path"), "{rules:?}");
        assert!(wa.graph.fns >= 2);
        assert_eq!(wa.taint.sources, 1);
    }

    #[test]
    fn taint_pragma_suppresses_and_is_listed_not_unused() {
        // Pragmas apply once over the merged findings: one line pragma per
        // rule silences the cross-file taint finding without tripping
        // `pragma-unused`, and the suppression lands in the taint report.
        let sources = vec![
            (
                "crates/sim/src/stamp.rs".to_string(),
                "pub fn stamp() -> u64 {\n  // bshm-allow(wall-clock): fixture — sanctioned read\n  // bshm-allow(taint-path): fixture — value never keys a fold\n  let t = Instant::now(); emit(t); 0\n}\n".to_string(),
            ),
            (
                "crates/sim/src/emit.rs".to_string(),
                "pub fn emit(t: u64) { record(TraceEvent::Tick { t }); }\n".to_string(),
            ),
        ];
        let wa = analyze_files(&sources);
        assert_eq!(wa.report.errors, 0, "{:?}", wa.report.diagnostics);
        assert_eq!(wa.report.warnings, 0, "{:?}", wa.report.diagnostics);
        assert_eq!(wa.taint.suppressed.len(), 1, "{:?}", wa.taint.suppressed);
        assert_eq!(wa.taint.suppressed[0].rule, "taint-path");
        assert!(wa.taint.suppressed[0].reason.contains("never keys a fold"));
    }
}
