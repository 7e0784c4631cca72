//! The lint rules no built-in clippy lint expresses, tuned to this
//! codebase's invariants.
//!
//! The generic rules (no panics, casts, prints, clock reads, float
//! equality, …) are clippy lints configured in the crate roots and
//! `clippy.toml`; see `DESIGN.md` § Static analysis. Each rule here walks
//! the token stream of one file (comments stripped, test regions masked)
//! and emits raw findings; pragma filtering happens in the engine
//! afterwards.

use crate::context::FileContext;
use crate::diag::Diagnostic;
use crate::lexer::{Tok, TokKind};

/// A rule's identity and scope, used by `--list-rules` and the docs test.
pub struct RuleInfo {
    /// Slug used in diagnostics and pragmas.
    pub name: &'static str,
    /// One-line description.
    pub summary: &'static str,
}

/// Every lint rule the engine runs (drift auditors are separate).
pub const RULES: [RuleInfo; 3] = [
    RuleInfo {
        name: "no-raw-metric",
        summary: "no direct assignment to Metrics counter/gauge fields in obs/sim outside the recorder fold; mutate through Recorder::record or Metrics::update",
    },
    RuleInfo {
        name: "no-untyped-reject",
        summary: "candidate rejections in scheduler code must carry a typed RejectReason — no string/char literals as reject/rejected/noted probe arguments (stringly-typed reasons break the labeled ops families)",
    },
    RuleInfo {
        name: "no-unbounded-buffer",
        summary: "ring/queue types (VecDeque) in obs must declare a capacity — no VecDeque::new(), and the file must name a `capacity`/`with_capacity` bound (the health plane's buffers stay O(1) by design)",
    },
];

/// Runs every applicable rule over one file's code tokens.
///
/// `toks` must be comment-free; `in_test[i]` masks tokens inside
/// `#[cfg(test)]`/`#[test]` regions.
#[must_use]
pub fn check_file(ctx: &FileContext, toks: &[Tok], in_test: &[bool]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    if ctx.all_test {
        return out;
    }
    let live = |i: usize| !in_test.get(i).copied().unwrap_or(false);
    if matches!(ctx.crate_name.as_str(), "obs" | "sim")
        && !ctx.path.ends_with("obs/src/recorder.rs")
    {
        out.extend(no_raw_metric(ctx, toks, &live));
    }
    if ctx.strict_library || ctx.crate_name == "chart" {
        out.extend(no_untyped_reject(ctx, toks, &live));
    }
    if ctx.crate_name == "obs" {
        out.extend(no_unbounded_buffer(ctx, toks, &live));
    }
    out
}

/// `no-unbounded-buffer`: ring/queue types in obs without a declared bound.
///
/// The live health plane holds long-running state (flight-recorder ring,
/// rolling-window history) inside the trace hot path, so every `VecDeque`
/// in the obs crate must be capacity-bounded: `VecDeque::new()` is always
/// flagged, and a file that mentions `VecDeque` at all must also name a
/// `capacity`/`with_capacity` identifier somewhere, proving the bound is
/// part of the type's contract rather than an accident of today's usage.
fn no_unbounded_buffer(
    ctx: &FileContext,
    toks: &[Tok],
    live: &dyn Fn(usize) -> bool,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let declares_bound = toks.iter().enumerate().any(|(i, t)| {
        live(i)
            && t.kind == TokKind::Ident
            && matches!(t.text.as_str(), "capacity" | "with_capacity")
    });
    let mut first_use: Option<&Tok> = None;
    for (i, t) in toks.iter().enumerate() {
        if !live(i) || !t.is_ident("VecDeque") {
            continue;
        }
        if first_use.is_none() {
            first_use = Some(t);
        }
        // `VecDeque::new()` grows without limit no matter what else the
        // file declares.
        if toks.get(i + 1).is_some_and(|n| n.is_punct("::"))
            && toks.get(i + 2).is_some_and(|n| n.is_ident("new"))
        {
            out.push(Diagnostic::error(
                "no-unbounded-buffer",
                &ctx.path,
                t.line,
                "VecDeque::new() in obs is an unbounded buffer; construct with with_capacity and evict at the bound, or justify with `// bshm-allow(no-unbounded-buffer): reason`".to_string(),
            ));
        }
    }
    if let Some(t) = first_use {
        if !declares_bound {
            out.push(Diagnostic::error(
                "no-unbounded-buffer",
                &ctx.path,
                t.line,
                "VecDeque used in obs without a declared capacity anywhere in the file; ring/queue state in the health plane must be bounded, or justify with `// bshm-allow(no-unbounded-buffer): reason`".to_string(),
            ));
        }
    }
    out
}

/// `no-untyped-reject`: rejection probes fed a literal instead of a
/// [`RejectReason`].
///
/// The decision x-ray's labeled families (`bshm_ops_rejected_total{reason=…}`)
/// iterate `RejectReason::ALL`; a stringly-typed reason would silently
/// fall outside every family. The probe API only takes the enum, so this
/// catches the drive-by shortcut before it grows a `&str` overload.
fn no_untyped_reject(
    ctx: &FileContext,
    toks: &[Tok],
    live: &dyn Fn(usize) -> bool,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if !live(i)
            || t.kind != TokKind::Ident
            || !matches!(t.text.as_str(), "reject" | "rejected" | "noted")
        {
            continue;
        }
        let prev_is_dot = i > 0 && toks[i - 1].is_punct(".");
        if !prev_is_dot || !toks.get(i + 1).is_some_and(|n| n.is_punct("(")) {
            continue;
        }
        // Scan the argument list for string/char literals.
        let mut depth = 0i32;
        let mut j = i + 1;
        while let Some(a) = toks.get(j) {
            if a.is_punct("(") {
                depth += 1;
            } else if a.is_punct(")") {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            } else if matches!(a.kind, TokKind::Str | TokKind::Char) {
                out.push(Diagnostic::error(
                    "no-untyped-reject",
                    &ctx.path,
                    a.line,
                    format!(
                        "literal {} passed to `.{}(…)`; rejection reasons are typed — use a RejectReason variant so the labeled ops families count it, or justify with `// bshm-allow(no-untyped-reject): reason`",
                        a.text, t.text
                    ),
                ));
                break;
            }
            j += 1;
        }
    }
    out
}

/// Metric field names of `bshm_obs::Metrics` whose mutation the
/// `no-raw-metric` rule polices. Histogram/timeline vectors are appended
/// via methods and are not assignable targets, so they are omitted.
const METRIC_FIELDS: [&str; 28] = [
    "arrivals",
    "departures",
    "placements",
    "opened_placements",
    "reused_placements",
    "opens",
    "closes",
    "traced_cost",
    "cost_by_type",
    "open_peak_by_type",
    "utilization_sum",
    "decision_ns_sum",
    "crashes",
    "displaced_jobs",
    "recovered_jobs",
    "dropped_jobs",
    "recovery_ns_sum",
    "gap_samples",
    "last_lower_bound",
    "last_attributed_cost",
    "max_gap_ratio",
    "ops",
    "ops_hist",
    "ops_sum",
    "alerts",
    "alerts_by_reason",
    "tenant_transitions",
    "degradations",
];

/// `no-raw-metric`: direct mutation of `Metrics` counter/gauge fields.
///
/// Every metric mutation in obs/sim must flow through the recorder's
/// event fold (`Metrics::update`, in `obs/src/recorder.rs`, the one file
/// the caller exempts) — the rolling windows fold through it too — so the
/// Prometheus exposition, the drift auditors, the windows and the replay
/// fold can never disagree about a counter's provenance.
fn no_raw_metric(ctx: &FileContext, toks: &[Tok], live: &dyn Fn(usize) -> bool) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if !live(i) || t.kind != TokKind::Ident || !METRIC_FIELDS.contains(&t.text.as_str()) {
            continue;
        }
        // `<expr> . field =` or `<expr> . field op=` — a field write, not
        // a read, a method call, or a struct-literal/pattern position.
        // `+=` is not a fused lexer token, so a compound assignment shows
        // up as an operator punct followed by a bare `=` (while `==`, `=>`
        // ARE fused, so comparisons never look like writes).
        let prev_is_dot = i > 0 && toks[i - 1].is_punct(".");
        let compound =
            |n: &Tok| ["+", "-", "*", "/", "%", "|", "&", "^"].contains(&n.text.as_str());
        let next_mutates = toks.get(i + 1).is_some_and(|n| {
            n.is_punct("=")
                || (n.kind == TokKind::Punct
                    && compound(n)
                    && toks.get(i + 2).is_some_and(|m| m.is_punct("=")))
        });
        if prev_is_dot && next_mutates {
            out.push(Diagnostic::error(
                "no-raw-metric",
                &ctx.path,
                t.line,
                format!(
                    "raw write to metric field `{}` outside the recorder fold; route it through Recorder::record or Metrics::update, or justify with `// bshm-allow(no-raw-metric): reason`",
                    t.text
                ),
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::test_regions;
    use crate::lexer::tokenize;

    fn check(path: &str, src: &str) -> Vec<Diagnostic> {
        let ctx = FileContext::classify(path);
        let toks = tokenize(src);
        let in_test = test_regions(&toks);
        let (code, mask): (Vec<Tok>, Vec<bool>) = toks
            .into_iter()
            .zip(in_test)
            .filter(|(t, _)| !t.is_comment())
            .unzip();
        check_file(&ctx, &code, &mask)
    }

    #[test]
    fn no_raw_metric_rule() {
        // Writes to Metrics fields are flagged in obs/sim…
        for src in [
            "fn f(m: &mut Metrics) { m.gap_samples += 1; }",
            "fn f(m: &mut Metrics) { m.last_lower_bound = lb; }",
            "fn f(m: &mut Metrics) { m.traced_cost -= x; }",
        ] {
            for path in ["crates/obs/src/replay.rs", "crates/sim/src/driver.rs"] {
                let d = check(path, src);
                assert!(
                    d.iter().any(|d| d.rule == "no-raw-metric"),
                    "{path} {src}: {d:?}"
                );
            }
        }
        // …but the recorder fold is the one sanctioned site; the rolling
        // windows fold through it and get no exemption of their own.
        let src = "fn f(m: &mut Metrics) { m.gap_samples += 1; }";
        assert!(check("crates/obs/src/recorder.rs", src).is_empty());
        assert!(check("crates/obs/src/window.rs", src)
            .iter()
            .any(|d| d.rule == "no-raw-metric"));
        // Other crates (faults' own report counters, cli, bench) are out
        // of scope; so are test regions.
        assert!(check("crates/faults/src/runner.rs", src).is_empty());
        assert!(check("crates/cli/src/commands.rs", src).is_empty());
        let test_src = "#[cfg(test)]\nmod tests { fn f() { m.gap_samples += 1; } }";
        assert!(check("crates/obs/src/replay.rs", test_src).is_empty());
        // Reads, comparisons, method calls, and struct literals are clean.
        for src in [
            "fn f(m: &Metrics) -> u64 { m.gap_samples }",
            "fn f(m: &Metrics) { if m.gap_samples == 3 { g(); } }",
            "fn f(m: &Metrics) { if m.opens <= 4 { g(); } }",
            "fn f(m: &Metrics) { assert(m.gap_samples >= 1); }",
            "fn f() -> M { M { gap_samples: 1 } }",
            "fn f(v: &mut Vec<u64>) { v.placements(); }",
        ] {
            let d = check("crates/obs/src/replay.rs", src);
            assert!(d.iter().all(|d| d.rule != "no-raw-metric"), "{src}: {d:?}");
        }
        // A pragma on the line silences it (engine-level, but the raw
        // finding still points at the right rule name for the pragma).
        let d = check(
            "crates/obs/src/replay.rs",
            "fn f(m: &mut Metrics) { m.crashes += 1; }",
        );
        assert!(d
            .iter()
            .any(|d| d.message.contains("bshm-allow(no-raw-metric)")));
    }

    #[test]
    fn no_untyped_reject_rule() {
        // String/char reasons are flagged wherever the probes live…
        for src in [
            "fn f(l: &mut L) { l.rejected(m, \"capacity\"); }",
            "fn f(c: &mut C) { c.reject(\"busy\"); }",
            "fn f(l: &mut L) { l.noted('a'); }",
        ] {
            for path in [
                "crates/core/src/ops.rs",
                "crates/chart/src/strips.rs",
                "crates/algos/src/dbp/offline_fit.rs",
            ] {
                let d = check(path, src);
                assert!(
                    d.iter().any(|d| d.rule == "no-untyped-reject"),
                    "{path} {src}: {d:?}"
                );
            }
        }
        // …typed enum variants and variables are clean, as are unrelated
        // idents and non-library crates.
        for src in [
            "fn f(l: &mut L) { l.rejected(m, RejectReason::Capacity); }",
            "fn f(c: &mut C) { c.reject(reason); }",
            "fn f(l: &mut L) { l.noted(RejectReason::Admission); }",
            "fn f() { log::rejected; }",
            "fn f(v: &V) { v.rejected_count(\"x\"); }",
        ] {
            let d = check("crates/algos/src/dec/online.rs", src);
            assert!(
                d.iter().all(|d| d.rule != "no-untyped-reject"),
                "{src}: {d:?}"
            );
        }
        assert!(check(
            "crates/cli/src/commands.rs",
            "fn f(c: &mut C) { c.reject(\"busy\"); }"
        )
        .is_empty());
        let test_src = "#[cfg(test)]\nmod tests { fn f(c: &mut C) { c.reject(\"busy\"); } }";
        assert!(check("crates/core/src/ops.rs", test_src).is_empty());
    }

    #[test]
    fn no_unbounded_buffer_rule() {
        // An unbounded ring in obs is flagged even when the file declares
        // a capacity elsewhere.
        let d = check(
            "crates/obs/src/flight.rs",
            "struct R { capacity: usize }\nfn f() -> VecDeque<u64> { VecDeque::new() }",
        );
        assert!(d.iter().any(|d| d.rule == "no-unbounded-buffer"), "{d:?}");
        // Using VecDeque with no capacity identifier anywhere: flagged.
        let d = check(
            "crates/obs/src/seeded.rs",
            "struct R { ring: VecDeque<u64> }\nfn f(r: &mut R) { r.ring.push_back(1); }",
        );
        assert!(d.iter().any(|d| d.rule == "no-unbounded-buffer"), "{d:?}");
        // Bounded construction with a declared capacity: clean.
        let d = check(
            "crates/obs/src/flight.rs",
            "struct R { capacity: usize, ring: VecDeque<u64> }\nfn f(c: usize) -> VecDeque<u64> { VecDeque::with_capacity(c) }",
        );
        assert!(d.iter().all(|d| d.rule != "no-unbounded-buffer"), "{d:?}");
        // Other crates (sim's event queues, cli) are out of scope; so are
        // test regions.
        let src = "fn f() -> VecDeque<u64> { VecDeque::new() }";
        assert!(check("crates/sim/src/driver.rs", src).is_empty());
        assert!(check("crates/cli/src/commands.rs", src).is_empty());
        let test_src = "#[cfg(test)]\nmod tests { fn f() -> VecDeque<u64> { VecDeque::new() } }";
        assert!(check("crates/obs/src/flight.rs", test_src).is_empty());
        // The finding names the pragma that would silence it.
        let d = check("crates/obs/src/seeded.rs", src);
        assert!(d
            .iter()
            .any(|d| d.message.contains("bshm-allow(no-unbounded-buffer)")));
    }

    // The retired generic rules are clippy lints now. Each test below pins
    // one rule's clippy twin to the scope the rule had: where it is on,
    // where it is off, and that every sanctioned exception is a reasoned
    // `expect`. CI's clippy step does the flagging itself.

    use crate::walk;
    use std::collections::BTreeSet;
    use std::path::PathBuf;

    const LIBRARIES: [&str; 5] = ["core", "algos", "sim", "obs", "faults"];
    const PANICS: [&str; 6] = [
        "clippy::unwrap_used",
        "clippy::expect_used",
        "clippy::panic",
        "clippy::unreachable",
        "clippy::todo",
        "clippy::unimplemented",
    ];
    const CASTS: [&str; 4] = [
        "clippy::cast_possible_truncation",
        "clippy::cast_sign_loss",
        "clippy::cast_possible_wrap",
        "clippy::cast_lossless",
    ];
    const CLOCKS: [&str; 2] = ["std::time::Instant::now", "std::time::SystemTime::now"];
    const TRACE_WRITES: [&str; 2] = ["std::fs::File::create", "std::fs::write"];

    fn root() -> PathBuf {
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
    }

    /// The file at workspace path `rel`, or "" when there is none.
    fn read(rel: &str) -> String {
        std::fs::read_to_string(root().join(rel)).unwrap_or_default()
    }

    /// The attributes in `src` as `(inner, body)`, whitespace removed:
    /// `#![deny(a, b)]` is `(true, "deny(a,b)")`.
    fn attributes(src: &str) -> Vec<(bool, String)> {
        let mut out = Vec::new();
        let mut rest = src;
        while let Some(hash) = rest.find('#') {
            rest = &rest[hash + 1..];
            let inner = rest.starts_with("![");
            let Some(body) = rest.strip_prefix(if inner { "![" } else { "[" }) else {
                continue;
            };
            let mut depth = 1;
            let Some(end) = body.find(|c| {
                depth += match c {
                    '[' => 1,
                    ']' => -1,
                    _ => 0,
                };
                depth == 0
            }) else {
                break;
            };
            out.push((inner, body[..end].split_whitespace().collect()));
            rest = &body[end..];
        }
        out
    }

    /// The crate root that compiles workspace path `rel`.
    fn crate_root(rel: &str) -> String {
        match format!("/{rel}").split_once("/src/") {
            Some((_, file)) if file == "main.rs" || file.starts_with("bin/") => rel.to_string(),
            Some((dir, _)) => format!("{dir}/src/lib.rs")
                .trim_start_matches('/')
                .to_string(),
            None => rel.to_string(),
        }
    }

    /// The clippy.toml clippy reads for `rel`: its crate's own, else the
    /// workspace's.
    fn clippy_toml(rel: &str) -> String {
        let own = match rel.split('/').collect::<Vec<_>>()[..] {
            ["crates", name, ..] => read(&format!("crates/{name}/clippy.toml")),
            _ => String::new(),
        };
        if own.is_empty() {
            read("clippy.toml")
        } else {
            own
        }
    }

    /// Everything clippy rejects in workspace path `rel` (which need not
    /// exist): the lints its crate root and the file itself deny, plus
    /// the method and macro paths of its clippy.toml where
    /// `disallowed_methods` or `disallowed_macros` is denied. `test` asks
    /// the same of the file's `#[cfg(test)]` code.
    fn banned(rel: &str, test: bool) -> BTreeSet<String> {
        let mut src = read(&crate_root(rel));
        if crate_root(rel) != rel {
            src += &read(rel);
        }
        let mut out = BTreeSet::new();
        for (_, body) in attributes(&src).into_iter().filter(|(inner, _)| *inner) {
            let body = match body.strip_prefix("cfg_attr(not(test),") {
                Some(_) if test => continue,
                Some(gated) => gated.to_string(),
                None => body,
            };
            if let Some(lints) = body.strip_prefix("deny(") {
                let lints = lints.trim_end_matches(')').split(',');
                out.extend(lints.filter(|l| !l.is_empty()).map(String::from));
            }
        }
        let mut section = "";
        for line in clippy_toml(rel).lines() {
            if let Some((key, _)) = line.split_once(" = [") {
                section = if key == "disallowed-methods" {
                    "clippy::disallowed_methods"
                } else {
                    "clippy::disallowed_macros"
                };
            }
            let path = line
                .split_once("path = \"")
                .and_then(|(_, p)| p.split_once('"'));
            if let Some((path, _)) = path.filter(|_| out.contains(section)) {
                out.insert(path.to_string());
            }
        }
        out
    }

    /// Asserts that each of `items` is rejected (`on`) or allowed (`!on`)
    /// in `rel`'s non-test code, or its test code when `test`.
    fn assert_banned(rel: &str, test: bool, items: &[&str], on: bool) {
        let banned = banned(rel, test);
        for item in items {
            assert_eq!(
                banned.contains(*item),
                on,
                "{rel} (test code: {test}): {item}"
            );
        }
    }

    /// A file in each library crate.
    fn library_files() -> Vec<String> {
        LIBRARIES
            .iter()
            .map(|c| format!("crates/{c}/src/x.rs"))
            .collect()
    }

    /// Every crate root of the workspace.
    fn crate_roots() -> Vec<String> {
        let roots: Vec<String> = walk::rust_files(&root())
            .iter()
            .map(|p| walk::rel(&root(), p))
            .filter(|r| crate_root(r) == *r && r.contains("src/"))
            .collect();
        assert!(
            roots.len() >= 16,
            "only {} crate roots: {roots:?}",
            roots.len()
        );
        roots
    }

    /// The files that expect any of `lints` to fire, after checking that
    /// every such expectation gives a reason. The analyzer's own sources
    /// are skipped: their fixtures spell attributes inside strings.
    fn expecting(lints: &[&str]) -> BTreeSet<String> {
        let mut files = BTreeSet::new();
        for path in walk::rust_files(&root()) {
            let rel = walk::rel(&root(), &path);
            if rel.starts_with("crates/analyze/") {
                continue;
            }
            for (_, body) in attributes(&read(&rel)) {
                let Some(args) = body.strip_prefix("expect(") else {
                    continue;
                };
                if args
                    .split(',')
                    .any(|a| lints.contains(&a.trim_end_matches(')')))
                {
                    assert!(args.contains("reason=\""), "{rel}: #[{body}] has no reason");
                    files.insert(rel.clone());
                }
            }
        }
        files
    }

    #[test]
    fn no_panic_positive() {
        for rel in library_files() {
            assert_banned(&rel, false, &PANICS, true);
        }
    }

    #[test]
    fn no_panic_negative() {
        // The panics that stay are reasoned expectations, and only in the
        // library crates, where the lints are on (elsewhere an
        // expectation would go unfulfilled).
        let files = expecting(&PANICS);
        assert!(files.len() >= 9, "{files:?}");
        for rel in &files {
            assert!(
                LIBRARIES
                    .iter()
                    .any(|c| rel.starts_with(&format!("crates/{c}/src/"))),
                "{rel}"
            );
        }
    }

    #[test]
    fn no_panic_skips_tests_and_non_library() {
        for rel in library_files() {
            assert_banned(&rel, true, &PANICS, false);
        }
        for rel in [
            "crates/cli/src/x.rs",
            "crates/cli/src/main.rs",
            "crates/bench/src/x.rs",
            "crates/serve/src/x.rs",
            "crates/core/tests/t.rs",
        ] {
            assert_banned(rel, false, &PANICS, false);
        }
    }

    #[test]
    fn float_eq_positive() {
        for rel in crate_roots() {
            assert_banned(&rel, false, &["clippy::float_cmp"], true);
        }
        assert_banned("crates/bench/src/x.rs", false, &["clippy::float_cmp"], true);
    }

    #[test]
    fn float_eq_negative() {
        for rel in crate_roots() {
            assert_banned(&rel, true, &["clippy::float_cmp"], false);
        }
        assert_eq!(
            expecting(&["clippy::float_cmp"]),
            BTreeSet::from(["crates/obs/src/prometheus.rs".to_string()])
        );
    }

    #[test]
    fn lossy_cast_positive() {
        for rel in library_files() {
            assert_banned(&rel, false, &CASTS, true);
        }
    }

    #[test]
    fn lossy_cast_negative() {
        for rel in library_files() {
            assert_banned(&rel, true, &CASTS, false);
        }
        // Outside the library crates the rule is off.
        for rel in ["crates/bench/src/x.rs", "crates/cli/src/x.rs", "src/x.rs"] {
            assert_banned(rel, false, &CASTS, false);
        }
        for rel in expecting(&CASTS) {
            assert!(
                LIBRARIES
                    .iter()
                    .any(|c| rel.starts_with(&format!("crates/{c}/src/"))),
                "{rel}"
            );
        }
    }

    #[test]
    fn wall_clock_positive_and_span_exempt() {
        for rel in crate_roots() {
            assert_banned(&rel, false, &CLOCKS, true);
            assert_banned(&rel, true, &CLOCKS, false);
        }
        // The clock module is the one sanctioned read; a span or any
        // other obs file is not exempt.
        assert_banned("crates/obs/src/span.rs", false, &CLOCKS, true);
        assert!(read("crates/obs/src/clock.rs").contains("Instant::now()"));
        assert_eq!(
            expecting(&["clippy::disallowed_methods"]),
            BTreeSet::from([
                "crates/obs/src/clock.rs".to_string(),
                "crates/obs/src/sink.rs".to_string(),
            ])
        );
    }

    #[test]
    fn no_print_rule() {
        let prints = [
            "clippy::print_stdout",
            "clippy::print_stderr",
            "clippy::dbg_macro",
        ];
        for rel in library_files() {
            assert_banned(&rel, false, &prints, true);
            assert_banned(&rel, true, &prints, false);
        }
        // CLI crates may print.
        for rel in ["crates/cli/src/x.rs", "crates/cli/src/main.rs"] {
            assert_banned(rel, false, &prints, false);
        }
    }

    #[test]
    fn no_raw_trace_write_rule() {
        for rel in ["crates/obs/src/recorder.rs", "crates/sim/src/driver.rs"] {
            assert_banned(rel, false, &TRACE_WRITES, true);
            assert_banned(rel, true, &TRACE_WRITES, false);
            // Reading is fine; only the raw write constructors are banned.
            assert_banned(rel, false, &["std::fs::read_to_string"], false);
        }
        // Other crates (cli writes schedules, bench writes reports) are
        // out of scope.
        for rel in [
            "crates/cli/src/commands.rs",
            "crates/faults/src/runner.rs",
            "crates/bench/src/x.rs",
        ] {
            assert_banned(rel, false, &TRACE_WRITES, false);
        }
        // The sink module is the sanctioned writer.
        assert!(expecting(&["clippy::disallowed_methods"]).contains("crates/obs/src/sink.rs"));
    }

    #[test]
    fn no_unbounded_channel_rule() {
        let unbounded = [
            "std::collections::VecDeque::new",
            "std::sync::mpsc::channel",
        ];
        let bounded = [
            "std::collections::VecDeque::with_capacity",
            "std::sync::mpsc::sync_channel",
        ];
        for rel in ["crates/serve/src/queue.rs", "crates/serve/src/transport.rs"] {
            assert_banned(rel, false, &unbounded, true);
            assert_banned(rel, false, &bounded, false);
            assert_banned(rel, true, &unbounded, false);
        }
        // Other crates (sim's event queues, cli) are out of scope.
        for rel in ["crates/sim/src/driver.rs", "crates/cli/src/commands.rs"] {
            assert_banned(rel, false, &unbounded, false);
        }
    }

    #[test]
    fn unordered_iter_rule() {
        let lint = ["clippy::iter_over_hash_type"];
        for rel in library_files() {
            assert_banned(&rel, false, &lint, true);
            assert_banned(&rel, true, &lint, false);
        }
        assert_banned("crates/cli/src/commands.rs", false, &lint, false);
    }

    #[test]
    fn shared_mutable_static_rule() {
        let statics = ["std::thread_local", "static_mut_refs", "unsafe_code"];
        for rel in library_files() {
            assert_banned(&rel, false, &statics, true);
            assert_banned(&rel, true, &statics, false);
        }
        assert_banned("crates/cli/src/x.rs", false, &statics, false);
    }

    #[test]
    fn must_use_accessor_rule() {
        let lint = ["clippy::must_use_candidate"];
        for rel in ["crates/core/src/schedule.rs", "crates/core/src/cost.rs"] {
            assert_banned(rel, false, &lint, true);
        }
        for rel in ["crates/core/src/x.rs", "crates/algos/src/x.rs"] {
            assert_banned(rel, false, &lint, false);
        }
    }
}
