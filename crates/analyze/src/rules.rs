//! The lint rules, tuned to this codebase's invariants.
//!
//! Each rule walks the token stream of one file (comments stripped, test
//! regions masked) and emits raw findings; pragma filtering happens in the
//! engine afterwards. See `DESIGN.md` § Static analysis for the rationale
//! behind each rule.

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
/// `taint-path` and `concurrency-audit` are whole-workspace rules
/// implemented in `taint.rs` over the call graph; they are listed here so
/// `--list-rules`, pragmas, and the committed manifest see one registry.
pub const RULES: [RuleInfo; 15] = [
    RuleInfo {
        name: "no-panic",
        summary: "no unwrap/expect/panic!/unreachable!/todo! in non-test code of library crates (core, algos, sim, obs, faults)",
    },
    RuleInfo {
        name: "float-eq",
        summary: "no ==/!= on expressions with float operands (costs and rates compare exactly as integers, floats need epsilons)",
    },
    RuleInfo {
        name: "lossy-cast",
        summary: "no raw `as` casts to integer types in library crates; use From/try_from or bshm_core::convert helpers",
    },
    RuleInfo {
        name: "wall-clock",
        summary: "no Instant::now/SystemTime::now outside obs::span (timing goes through the span/clock layer; for machine-independent profiles prefer the deterministic OpCounter columns from `bshm xray`)",
    },
    RuleInfo {
        name: "no-print",
        summary: "no println!/eprintln!/print!/eprint!/dbg! in library crates (output goes through Probe/Recorder or returned values)",
    },
    RuleInfo {
        name: "must-use-accessor",
        summary: "pub fns returning a value in bshm-core's schedule.rs/cost.rs must be #[must_use] (dropped Schedule/cost results hide accounting bugs)",
    },
    RuleInfo {
        name: "no-raw-trace-write",
        summary: "no File::create/fs::write in obs/sim outside obs::sink; trace-shaped output goes through the crash-safe writer (TraceWriter/atomic_write)",
    },
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
    RuleInfo {
        name: "unordered-iter",
        summary: "no iteration over HashMap/HashSet values in library crates — iteration order varies per process and per run; use BTreeMap/BTreeSet so replay and sharded solving stay deterministic",
    },
    RuleInfo {
        name: "shared-mutable-static",
        summary: "no `static mut` or thread_local! state in library crates — shared mutable globals race under sharded solving and make runs depend on thread interleaving",
    },
    RuleInfo {
        name: "taint-path",
        summary: "no call-graph path from a nondeterminism source (wall-clock, unseeded RNG, unordered iteration, env/thread-id reads, pointer addresses) to a determinism sink (TraceEvent emission, bench baseline writers, checkpoint digests, SLO alert stamps)",
    },
    RuleInfo {
        name: "concurrency-audit",
        summary: "no unordered iteration or interior-mutability state in fns reachable from the solver entry points — the pre-flight gate for sharded solving (ROADMAP item 1)",
    },
    RuleInfo {
        name: "no-unbounded-channel",
        summary: "queue/ring construction in the serve crate must state a capacity — no VecDeque::new() or unbounded mpsc::channel(); admission answers overflow with typed Overload backpressure, never silent growth",
    },
];

/// Integer-typed cast targets the `lossy-cast` rule polices.
const INT_TYPES: [&str; 12] = [
    "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize",
];

/// Runs every applicable rule over one file's code tokens.
///
/// `toks` must be comment-free (see [`crate::diag::code_only`]);
/// `in_test[i]` masks tokens inside `#[cfg(test)]`/`#[test]` regions.
#[must_use]
pub fn check_file(ctx: &FileContext, toks: &[Tok], in_test: &[bool]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    if ctx.all_test {
        return out;
    }
    let live = |i: usize| !in_test.get(i).copied().unwrap_or(false);
    if ctx.strict_library {
        out.extend(no_panic(ctx, toks, &live));
        out.extend(no_print(ctx, toks, &live));
        out.extend(lossy_cast(ctx, toks, &live));
        out.extend(unordered_iter(ctx, toks, &live));
        out.extend(shared_mutable_static(ctx, toks, &live));
    }
    out.extend(float_eq(ctx, toks, &live));
    if !ctx.path.ends_with("obs/src/span.rs") {
        out.extend(wall_clock(ctx, toks, &live));
    }
    if ctx.path.ends_with("core/src/schedule.rs") || ctx.path.ends_with("core/src/cost.rs") {
        out.extend(must_use_accessor(ctx, toks, &live));
    }
    if matches!(ctx.crate_name.as_str(), "obs" | "sim") && !ctx.path.ends_with("obs/src/sink.rs") {
        out.extend(no_raw_trace_write(ctx, toks, &live));
    }
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
    if ctx.crate_name == "serve" {
        out.extend(no_unbounded_channel(ctx, toks, &live));
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

/// `no-unbounded-channel`: queue construction in the serve crate without
/// a stated capacity.
///
/// The resident service's entire backpressure story rests on every queue
/// being bounded: a full queue answers with a typed `Overload` carrying a
/// deterministic retry-after, never silent growth. So in `crates/serve`
/// the rule flags `VecDeque::new()` and the unbounded `mpsc::channel()`
/// constructor (`sync_channel(cap)` is the bounded std form), and any
/// file touching `VecDeque` or `channel` must name a
/// `capacity`/`with_capacity`/`sync_channel` bound somewhere — the bound
/// is part of the contract, not an accident of today's usage.
fn no_unbounded_channel(
    ctx: &FileContext,
    toks: &[Tok],
    live: &dyn Fn(usize) -> bool,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let declares_bound = toks.iter().enumerate().any(|(i, t)| {
        live(i)
            && t.kind == TokKind::Ident
            && matches!(
                t.text.as_str(),
                "capacity" | "with_capacity" | "sync_channel"
            )
    });
    let mut first_use: Option<&Tok> = None;
    for (i, t) in toks.iter().enumerate() {
        if !live(i) || t.kind != TokKind::Ident {
            continue;
        }
        if t.is_ident("VecDeque") {
            if first_use.is_none() {
                first_use = Some(t);
            }
            if toks.get(i + 1).is_some_and(|n| n.is_punct("::"))
                && toks.get(i + 2).is_some_and(|n| n.is_ident("new"))
            {
                out.push(Diagnostic::error(
                    "no-unbounded-channel",
                    &ctx.path,
                    t.line,
                    "VecDeque::new() in serve is an unbounded queue; construct with with_capacity and reject overflow with a typed Overload, or justify with `// bshm-allow(no-unbounded-channel): reason`".to_string(),
                ));
            }
        }
        // `mpsc::channel()` is the unbounded constructor; the bounded
        // std form is `mpsc::sync_channel(cap)`.
        if t.is_ident("mpsc")
            && toks.get(i + 1).is_some_and(|n| n.is_punct("::"))
            && toks.get(i + 2).is_some_and(|n| n.is_ident("channel"))
        {
            out.push(Diagnostic::error(
                "no-unbounded-channel",
                &ctx.path,
                t.line,
                "mpsc::channel() in serve is unbounded; use mpsc::sync_channel(capacity) so senders block/fail at the bound, or justify with `// bshm-allow(no-unbounded-channel): reason`".to_string(),
            ));
        }
    }
    if let Some(t) = first_use {
        if !declares_bound {
            out.push(Diagnostic::error(
                "no-unbounded-channel",
                &ctx.path,
                t.line,
                "VecDeque used in serve without a declared capacity anywhere in the file; admission/queue state in the service must be bounded, or justify with `// bshm-allow(no-unbounded-channel): reason`".to_string(),
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

/// `no-raw-trace-write`: direct file writes in the trace-producing crates.
///
/// Everything trace-shaped that obs or sim persists must go through
/// `bshm_obs::sink` (`TraceWriter` for streams, `atomic_write` for
/// snapshots) so a kill mid-write can never tear more than the final
/// line. `obs/src/sink.rs` itself — the one sanctioned call site — is
/// exempted by the caller.
fn no_raw_trace_write(
    ctx: &FileContext,
    toks: &[Tok],
    live: &dyn Fn(usize) -> bool,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if !live(i) || t.kind != TokKind::Ident {
            continue;
        }
        let calls = |head: &str, method: &str| {
            t.is_ident(head)
                && toks.get(i + 1).is_some_and(|n| n.is_punct("::"))
                && toks.get(i + 2).is_some_and(|n| n.is_ident(method))
        };
        if calls("File", "create") || calls("fs", "write") {
            let what = format!("{}::{}", t.text, toks[i + 2].text);
            out.push(Diagnostic::error(
                "no-raw-trace-write",
                &ctx.path,
                t.line,
                format!(
                    "raw {what} outside obs::sink; use TraceWriter/atomic_write so a kill cannot tear the output, or justify with `// bshm-allow(no-raw-trace-write): reason`"
                ),
            ));
        }
    }
    out
}

/// One unordered-iteration site found by [`unordered_iter_sites`].
pub struct UnorderedIterSite {
    /// Source line of the receiver identifier.
    pub line: u32,
    /// Token index of the receiver identifier in the scanned stream.
    pub idx: usize,
    /// Human-readable form, e.g. `records.values()`.
    pub what: String,
}

/// Methods whose call on a `HashMap`/`HashSet` observes iteration order.
const ITER_METHODS: [&str; 10] = [
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_keys",
    "into_values",
    "into_iter",
    "drain",
    "retain",
];

/// Finds iteration over `HashMap`/`HashSet`-typed locals, params, and
/// fields in one file. Shared between the per-file `unordered-iter` rule
/// and the taint engine's `UnorderedIter` source detector.
///
/// Heuristic, by design: a name is *hash-typed* when the file declares it
/// as `name: …HashMap/HashSet…` (param, field, or annotated let — the type
/// window stops at a depth-0 `, ; ) = ( {`) or binds it via
/// `name = HashMap::…`/`HashSet::…`. A *site* is an order-observing method
/// call or a `for … in` loop whose receiver root is that name — bare, or
/// behind exactly `self.` — so `machine.jobs.iter()` (a `Vec` field whose
/// name collides with a hash-typed param elsewhere) stays clean. Known
/// miss: iteration through an intermediate local (`let g = m.lock(); …
/// g.drain()`), which renames the collection; conversions to BTreeMap at
/// the declaration remove the name from the hash set and the miss with it.
#[must_use]
pub fn unordered_iter_sites(toks: &[Tok], live: &dyn Fn(usize) -> bool) -> Vec<UnorderedIterSite> {
    let mut hash_names: std::collections::BTreeSet<&str> = std::collections::BTreeSet::new();
    for (i, t) in toks.iter().enumerate() {
        if !live(i) || t.kind != TokKind::Ident {
            continue;
        }
        if toks.get(i + 1).is_some_and(|n| n.is_punct(":")) {
            let mut angle = 0i32;
            for w in toks.iter().take((i + 14).min(toks.len())).skip(i + 2) {
                if w.is_punct("<") {
                    angle += 1;
                } else if w.is_punct(">") {
                    angle -= 1;
                } else if angle == 0
                    && w.kind == TokKind::Punct
                    && matches!(w.text.as_str(), "," | ";" | ")" | "=" | "(" | "{")
                {
                    break;
                }
                if w.is_ident("HashMap") || w.is_ident("HashSet") {
                    hash_names.insert(&t.text);
                    break;
                }
            }
        }
        if toks.get(i + 1).is_some_and(|n| n.is_punct("="))
            && toks
                .get(i + 2)
                .is_some_and(|n| n.is_ident("HashMap") || n.is_ident("HashSet"))
        {
            hash_names.insert(&t.text);
        }
    }
    if hash_names.is_empty() {
        return Vec::new();
    }
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if !live(i) || t.kind != TokKind::Ident || !hash_names.contains(t.text.as_str()) {
            continue;
        }
        // Receiver root only: bare `name`, or exactly `self . name`.
        if i > 0 && toks[i - 1].is_punct(".") && !(i >= 2 && toks[i - 2].is_ident("self")) {
            continue;
        }
        // `name . method (` with an order-observing method.
        if toks.get(i + 1).is_some_and(|n| n.is_punct("."))
            && toks.get(i + 2).is_some_and(|n| {
                n.kind == TokKind::Ident && ITER_METHODS.contains(&n.text.as_str())
            })
            && toks.get(i + 3).is_some_and(|n| n.is_punct("("))
        {
            out.push(UnorderedIterSite {
                line: t.line,
                idx: i,
                what: format!("{}.{}()", t.text, toks[i + 2].text),
            });
            continue;
        }
        // `for x in [& [mut]] [self .] name {` — direct IntoIterator use.
        if toks.get(i + 1).is_some_and(|n| n.is_punct("{")) {
            let mut b = i;
            if b >= 2 && toks[b - 1].is_punct(".") && toks[b - 2].is_ident("self") {
                b -= 2;
            }
            if b >= 1 && toks[b - 1].is_ident("mut") {
                b -= 1;
            }
            if b >= 1 && toks[b - 1].is_punct("&") {
                b -= 1;
            }
            if b >= 1 && toks[b - 1].is_ident("in") {
                out.push(UnorderedIterSite {
                    line: t.line,
                    idx: i,
                    what: format!("for … in {}", t.text),
                });
            }
        }
    }
    out
}

/// `unordered-iter`: iteration over hash-ordered collections in library
/// code. Order differs between processes (SipHash keys are randomized) and
/// between runs, so anything fold-ordered downstream — replay, digests,
/// report rows — silently diverges.
fn unordered_iter(
    ctx: &FileContext,
    toks: &[Tok],
    live: &dyn Fn(usize) -> bool,
) -> Vec<Diagnostic> {
    unordered_iter_sites(toks, live)
        .into_iter()
        .map(|s| {
            Diagnostic::error(
                "unordered-iter",
                &ctx.path,
                s.line,
                format!(
                    "iteration over unordered collection ({}); HashMap/HashSet order varies per process and breaks replay — switch to BTreeMap/BTreeSet, or justify with `// bshm-allow(unordered-iter): reason`",
                    s.what
                ),
            )
        })
        .collect()
}

/// `shared-mutable-static`: `static mut` / `thread_local!` globals in
/// library code. Both make results depend on thread interleaving the
/// moment solving is sharded (ROADMAP item 1); `Sync` statics behind
/// `Mutex`/`OnceLock` are fine and not matched.
fn shared_mutable_static(
    ctx: &FileContext,
    toks: &[Tok],
    live: &dyn Fn(usize) -> bool,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if !live(i) || t.kind != TokKind::Ident {
            continue;
        }
        if t.is_ident("static") && toks.get(i + 1).is_some_and(|n| n.is_ident("mut")) {
            out.push(Diagnostic::error(
                "shared-mutable-static",
                &ctx.path,
                t.line,
                "`static mut` in a library crate; unsynchronized global state races under sharded solving — use a Sync wrapper (Mutex/OnceLock/atomic) or pass state explicitly, or justify with `// bshm-allow(shared-mutable-static): reason`".to_string(),
            ));
        }
        if t.is_ident("thread_local") && toks.get(i + 1).is_some_and(|n| n.is_punct("!")) {
            out.push(Diagnostic::error(
                "shared-mutable-static",
                &ctx.path,
                t.line,
                "thread_local! in a library crate; per-thread state makes results depend on which worker runs the code — pass state explicitly, or justify with `// bshm-allow(shared-mutable-static): reason`".to_string(),
            ));
        }
    }
    out
}

/// `no-panic`: panicking constructs in shipping library code.
fn no_panic(ctx: &FileContext, toks: &[Tok], live: &dyn Fn(usize) -> bool) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if !live(i) || t.kind != TokKind::Ident {
            continue;
        }
        let next_is = |s: &str| toks.get(i + 1).is_some_and(|n| n.is_punct(s));
        let prev_is_dot = i > 0 && toks[i - 1].is_punct(".");
        let finding = match t.text.as_str() {
            "unwrap" | "expect" if prev_is_dot && next_is("(") => {
                Some(format!(".{}() panics on the error path", t.text))
            }
            "panic" | "unreachable" | "todo" | "unimplemented" if next_is("!") => {
                Some(format!("{}! aborts cost accounting mid-run", t.text))
            }
            _ => None,
        };
        if let Some(what) = finding {
            out.push(Diagnostic::error(
                "no-panic",
                &ctx.path,
                t.line,
                format!(
                    "{what}; return a Result or justify with `// bshm-allow(no-panic): reason`"
                ),
            ));
        }
    }
    out
}

/// `no-print`: direct console output from library crates.
fn no_print(ctx: &FileContext, toks: &[Tok], live: &dyn Fn(usize) -> bool) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if !live(i) || t.kind != TokKind::Ident {
            continue;
        }
        let is_macro = toks.get(i + 1).is_some_and(|n| n.is_punct("!"));
        if is_macro
            && matches!(
                t.text.as_str(),
                "println" | "print" | "eprintln" | "eprint" | "dbg"
            )
        {
            out.push(Diagnostic::error(
                "no-print",
                &ctx.path,
                t.line,
                format!(
                    "{}! in a library crate; route output through Probe/Recorder or return it",
                    t.text
                ),
            ));
        }
    }
    out
}

/// Collects the comparison operand window on one side of position `op`,
/// walking `dir` (+1/-1), skipping balanced bracket groups but including
/// their contents, and stopping at expression boundaries.
fn operand_window(toks: &[Tok], op: usize, dir: i64) -> Vec<usize> {
    const BOUNDARY: [&str; 9] = [";", ",", "{", "}", "&&", "||", "=", "==", "!="];
    let mut idxs = Vec::new();
    let mut depth = 0i32;
    let mut i = op as i64 + dir;
    let (open, close) = if dir < 0 { (")", "(") } else { ("(", ")") };
    while i >= 0 && (i as usize) < toks.len() && idxs.len() < 48 {
        let t = &toks[i as usize];
        if t.is_punct(open) || t.is_punct("]") && dir < 0 || t.is_punct("[") && dir > 0 {
            depth += 1;
        } else if t.is_punct(close) || t.is_punct("[") && dir < 0 || t.is_punct("]") && dir > 0 {
            if depth == 0 {
                break;
            }
            depth -= 1;
        } else if depth == 0
            && (BOUNDARY.contains(&t.text.as_str()) && t.kind == TokKind::Punct
                || t.is_ident("if")
                || t.is_ident("return")
                || t.is_ident("let")
                || t.is_ident("while"))
        {
            break;
        }
        idxs.push(i as usize);
        i += dir;
    }
    idxs
}

/// `float-eq`: exact equality on float-typed expressions.
///
/// Heuristic: a `==`/`!=` is flagged when either operand window contains a
/// float literal, an `f32`/`f64` type token, or a cast to float. Windows
/// are bracket-balanced so `if i == 0 { 0.0 }` (float only in the body)
/// stays clean while `(x as f64) == y` is caught.
fn float_eq(ctx: &FileContext, toks: &[Tok], live: &dyn Fn(usize) -> bool) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if !live(i) || !(t.is_punct("==") || t.is_punct("!=")) {
            continue;
        }
        let floaty = |idxs: &[usize]| {
            idxs.iter().any(|&j| {
                toks[j].kind == TokKind::Float || toks[j].is_ident("f64") || toks[j].is_ident("f32")
            })
        };
        if floaty(&operand_window(toks, i, -1)) || floaty(&operand_window(toks, i, 1)) {
            out.push(Diagnostic::error(
                "float-eq",
                &ctx.path,
                t.line,
                format!(
                    "`{}` on a float expression; compare integer costs exactly or use an epsilon helper",
                    t.text
                ),
            ));
        }
    }
    out
}

/// `lossy-cast`: raw `as` casts to integer types in library code.
///
/// Casts of integer literals (`7 as u64`) are compile-time checkable and
/// exempt; everything else must go through `From`, `try_from`, or the
/// audited helpers in `bshm_core::convert`.
fn lossy_cast(ctx: &FileContext, toks: &[Tok], live: &dyn Fn(usize) -> bool) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if !live(i) || !t.is_ident("as") {
            continue;
        }
        let Some(target) = toks.get(i + 1) else {
            continue;
        };
        if target.kind != TokKind::Ident || !INT_TYPES.contains(&target.text.as_str()) {
            continue;
        }
        if i > 0 && toks[i - 1].kind == TokKind::Int {
            continue;
        }
        out.push(Diagnostic::error(
            "lossy-cast",
            &ctx.path,
            t.line,
            format!(
                "raw `as {}` cast; use From/try_from or bshm_core::convert, or justify with `// bshm-allow(lossy-cast): reason`",
                target.text
            ),
        ));
    }
    out
}

/// `wall-clock`: direct clock reads outside the span layer.
fn wall_clock(ctx: &FileContext, toks: &[Tok], live: &dyn Fn(usize) -> bool) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if !live(i) || t.kind != TokKind::Ident {
            continue;
        }
        if (t.text == "Instant" || t.text == "SystemTime")
            && toks.get(i + 1).is_some_and(|n| n.is_punct("::"))
            && toks.get(i + 2).is_some_and(|n| n.is_ident("now"))
        {
            out.push(Diagnostic::error(
                "wall-clock",
                &ctx.path,
                t.line,
                format!(
                    "{}::now() outside obs::span; use bshm_obs::span::now() so timing stays mockable and replay-safe",
                    t.text
                ),
            ));
        }
    }
    out
}

/// `must-use-accessor`: value-returning `pub fn`s in bshm-core's schedule
/// and cost modules must carry `#[must_use]`.
fn must_use_accessor(
    ctx: &FileContext,
    toks: &[Tok],
    live: &dyn Fn(usize) -> bool,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if !live(i) || !t.is_ident("pub") {
            continue;
        }
        // `pub` [`(crate)` etc.] `fn` name
        let mut j = i + 1;
        if toks.get(j).is_some_and(|n| n.is_punct("(")) {
            while j < toks.len() && !toks[j].is_punct(")") {
                j += 1;
            }
            j += 1;
        }
        if !toks.get(j).is_some_and(|n| n.is_ident("fn")) {
            continue;
        }
        let Some(name) = toks.get(j + 1) else {
            continue;
        };
        // Does the signature have a return type? Scan to the body `{` (or
        // `;` for trait decls) at angle/paren depth 0, looking for `->`.
        let mut k = j + 2;
        let mut paren = 0i32;
        let mut returns_value = false;
        while k < toks.len() {
            let tk = &toks[k];
            if tk.is_punct("(") || tk.is_punct("[") {
                paren += 1;
            } else if tk.is_punct(")") || tk.is_punct("]") {
                paren -= 1;
            } else if paren == 0 && tk.is_punct("->") {
                returns_value = true;
            } else if paren == 0 && (tk.is_punct("{") || tk.is_punct(";")) {
                break;
            }
            k += 1;
        }
        if !returns_value {
            continue;
        }
        // Look back for `#[must_use]` among the attributes directly above:
        // walk preceding tokens while they form `# [ … ]` groups.
        let mut has_must_use = false;
        let mut b = i;
        while b >= 1 {
            if !toks[b - 1].is_punct("]") {
                break;
            }
            let mut d = 0i32;
            let mut s = b - 1;
            loop {
                if toks[s].is_punct("]") {
                    d += 1;
                } else if toks[s].is_punct("[") {
                    d -= 1;
                    if d == 0 {
                        break;
                    }
                }
                if s == 0 {
                    break;
                }
                s -= 1;
            }
            let attr_has = toks[s..b].iter().any(|a| a.is_ident("must_use"));
            has_must_use |= attr_has;
            if s == 0 || !toks[s - 1].is_punct("#") {
                break;
            }
            b = s - 1;
        }
        if !has_must_use {
            out.push(Diagnostic::error(
                "must-use-accessor",
                &ctx.path,
                t.line,
                format!(
                    "pub fn {} returns a value but is not #[must_use]; a dropped Schedule/cost result hides accounting bugs",
                    name.text
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
    use crate::diag::code_only;
    use crate::lexer::tokenize;

    fn check(path: &str, src: &str) -> Vec<Diagnostic> {
        let ctx = FileContext::classify(path);
        let toks = tokenize(src);
        let in_test_all = test_regions(&toks);
        let code: Vec<_> = toks
            .iter()
            .zip(&in_test_all)
            .filter(|(t, _)| !t.is_comment())
            .collect();
        let code_toks: Vec<_> = code.iter().map(|(t, _)| (*t).clone()).collect();
        let flags: Vec<bool> = code.iter().map(|(_, f)| **f).collect();
        let _ = code_only(&toks);
        check_file(&ctx, &code_toks, &flags)
    }

    const LIB: &str = "crates/core/src/x.rs";

    #[test]
    fn no_panic_positive() {
        for src in [
            "fn f() { x.unwrap(); }",
            "fn f() { x.expect(\"msg\"); }",
            "fn f() { panic!(\"boom\"); }",
            "fn f() { unreachable!(); }",
            "fn f() { todo!(); }",
        ] {
            let d = check(LIB, src);
            assert!(d.iter().any(|d| d.rule == "no-panic"), "{src}: {d:?}");
        }
    }

    #[test]
    fn no_panic_negative() {
        for src in [
            "fn f() { x.unwrap_or(0); }",
            "fn f() { x.unwrap_or_default(); }",
            "fn f() { x.unwrap_or_else(|| 0); }",
            "fn f() -> Result<(), E> { x? }",
            // Strings and comments don't count.
            "fn f() { let s = \"don't panic!()\"; } // unwrap() here is a comment",
        ] {
            assert!(check(LIB, src).is_empty(), "{src}");
        }
    }

    #[test]
    fn no_panic_skips_tests_and_non_library() {
        let src = "#[cfg(test)]\nmod tests { fn f() { x.unwrap(); } }";
        assert!(check(LIB, src).is_empty());
        assert!(check("crates/cli/src/x.rs", "fn f() { x.unwrap(); }").is_empty());
        assert!(check("crates/core/tests/t.rs", "fn f() { x.unwrap(); }").is_empty());
    }

    #[test]
    fn float_eq_positive() {
        for src in [
            "fn f() { if a == 0.0 { g(); } }",
            "fn f() { if (x as f64) == y { g(); } }",
            "fn f() { assert_cmp(a != 1e-9); }",
            "fn f() { if cost_ratio == other as f64 { g(); } }",
        ] {
            let d = check("crates/bench/src/x.rs", src);
            assert!(d.iter().any(|d| d.rule == "float-eq"), "{src}: {d:?}");
        }
    }

    #[test]
    fn float_eq_negative() {
        for src in [
            "fn f() { if i == 0 { return 0.0; } }", // float only in the body
            "fn f() { let lo = if i == 0 { 0.0 } else { x as f64 }; }",
            "fn f() { if cost == other_cost { g(); } }", // integer costs
            "fn f() { if a <= 4.0 + 1e-9 { g(); } }",    // ordering, not equality
        ] {
            let d = check("crates/bench/src/x.rs", src);
            assert!(d.is_empty(), "{src}: {d:?}");
        }
    }

    #[test]
    fn lossy_cast_positive() {
        for src in [
            "fn f() { let x = n as u32; }",
            "fn f() { let x = len() as usize; }",
            "fn f() { let x = (a + b) as u64; }",
        ] {
            let d = check(LIB, src);
            assert!(d.iter().any(|d| d.rule == "lossy-cast"), "{src}: {d:?}");
        }
    }

    #[test]
    fn lossy_cast_negative() {
        for src in [
            "fn f() { let x = 7 as u64; }", // literal: compile-time checkable
            "fn f() { let x = u64::from(n); }",
            "fn f() { let x = u32::try_from(n)?; }",
            "fn f() { let x = n as f64; }", // float cast: not this rule
            "fn f() { let t = x as TimePoint; }", // alias target: not an int keyword
        ] {
            let d = check(LIB, src);
            assert!(d.iter().all(|d| d.rule != "lossy-cast"), "{src}: {d:?}");
        }
        // Outside strict library crates the rule is off.
        assert!(check("crates/bench/src/x.rs", "fn f() { let x = n as u32; }").is_empty());
    }

    #[test]
    fn wall_clock_positive_and_span_exempt() {
        let src = "fn f() { let t = Instant::now(); }";
        let d = check("crates/sim/src/driver.rs", src);
        assert!(d.iter().any(|d| d.rule == "wall-clock"), "{d:?}");
        let d = check(
            "crates/bench/src/x.rs",
            "fn f() { let t = std::time::SystemTime::now(); }",
        );
        assert!(d.iter().any(|d| d.rule == "wall-clock"), "{d:?}");
        assert!(check("crates/obs/src/span.rs", src).is_empty());
    }

    #[test]
    fn no_print_rule() {
        let d = check(LIB, "fn f() { println!(\"x\"); }");
        assert!(d.iter().any(|d| d.rule == "no-print"));
        let d = check(LIB, "fn f() { dbg!(x); }");
        assert!(d.iter().any(|d| d.rule == "no-print"));
        // CLI crates may print.
        assert!(check("crates/cli/src/x.rs", "fn f() { println!(\"x\"); }").is_empty());
        // writeln! to a writer is fine anywhere.
        assert!(check(LIB, "fn f(w: &mut W) { writeln!(w, \"x\"); }").is_empty());
    }

    #[test]
    fn no_raw_trace_write_rule() {
        let src = "fn f(p: &Path) { let _ = File::create(p); }";
        for path in ["crates/obs/src/recorder.rs", "crates/sim/src/driver.rs"] {
            let d = check(path, src);
            assert!(
                d.iter().any(|d| d.rule == "no-raw-trace-write"),
                "{path}: {d:?}"
            );
        }
        let d = check(
            "crates/obs/src/recorder.rs",
            "fn f() { std::fs::write(\"t.jsonl\", text); }",
        );
        assert!(d.iter().any(|d| d.rule == "no-raw-trace-write"), "{d:?}");
        // The sink module itself is the sanctioned call site.
        assert!(check("crates/obs/src/sink.rs", src).is_empty());
        // Other crates (cli writes schedules, bench writes reports) are
        // out of scope; so are test regions.
        assert!(check("crates/cli/src/commands.rs", src).is_empty());
        assert!(check("crates/faults/src/runner.rs", src).is_empty());
        let test_src = "#[cfg(test)]\nmod tests { fn f() { let _ = File::create(p); } }";
        assert!(check("crates/obs/src/recorder.rs", test_src).is_empty());
        // Reading is fine; only the raw write constructors are flagged.
        let d = check(
            "crates/obs/src/replay.rs",
            "fn f(p: &str) { let _ = std::fs::read_to_string(p); }",
        );
        assert!(d.is_empty(), "{d:?}");
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

    #[test]
    fn no_unbounded_channel_rule() {
        // VecDeque::new() in serve is flagged even with a capacity named
        // elsewhere in the file.
        let d = check(
            "crates/serve/src/queue.rs",
            "struct Q { capacity: usize }\nfn f() -> VecDeque<u64> { VecDeque::new() }",
        );
        assert!(d.iter().any(|d| d.rule == "no-unbounded-channel"), "{d:?}");
        // An unbounded std channel: flagged.
        let d = check(
            "crates/serve/src/transport.rs",
            "fn f() { let (tx, rx) = mpsc::channel(); }",
        );
        assert!(d.iter().any(|d| d.rule == "no-unbounded-channel"), "{d:?}");
        // VecDeque with no bound identifier anywhere: flagged.
        let d = check(
            "crates/serve/src/service.rs",
            "struct Q { items: VecDeque<u64> }\nfn f(q: &mut Q) { q.items.push_back(1); }",
        );
        assert!(d.iter().any(|d| d.rule == "no-unbounded-channel"), "{d:?}");
        // Bounded construction and the bounded channel form: clean.
        let d = check(
            "crates/serve/src/queue.rs",
            "struct Q { capacity: usize, items: VecDeque<u64> }\n\
             fn f(c: usize) -> VecDeque<u64> { VecDeque::with_capacity(c) }\n\
             fn g(c: usize) { let (tx, rx) = mpsc::sync_channel(c); }",
        );
        assert!(d.iter().all(|d| d.rule != "no-unbounded-channel"), "{d:?}");
        // Other crates and test regions stay out of scope.
        let src = "fn f() -> VecDeque<u64> { VecDeque::new() }";
        assert!(check("crates/sim/src/driver.rs", src).is_empty());
        assert!(check("crates/cli/src/commands.rs", src).is_empty());
        let test_src = "#[cfg(test)]\nmod tests { fn f() -> VecDeque<u64> { VecDeque::new() } }";
        assert!(check("crates/serve/src/queue.rs", test_src).is_empty());
        // The finding names the pragma that would silence it.
        let d = check("crates/serve/src/queue.rs", src);
        assert!(d
            .iter()
            .any(|d| d.message.contains("bshm-allow(no-unbounded-channel)")));
    }

    #[test]
    fn unordered_iter_rule() {
        // Annotated lets, params, fields, and HashMap::new() bindings all
        // register the name; iteration methods and for-loops are flagged.
        for src in [
            "fn f() { let m: HashMap<u32, u32> = HashMap::new(); for v in m.values() { g(v); } }",
            "fn f(m: &HashMap<u32, u32>) { for (k, v) in m.iter() { g(k, v); } }",
            "fn f() { let mut s = HashSet::new(); s.retain(|x| p(x)); }",
            "struct R { index: HashMap<u32, u32> }\nimpl R { fn f(&mut self) { self.index.drain(); } }",
            "fn f(m: HashMap<u32, u32>) { for v in m { g(v); } }",
            "fn f(m: &mut HashMap<u32, u32>) { for v in &mut m { g(v); } }",
        ] {
            let d = check(LIB, src);
            assert!(d.iter().any(|d| d.rule == "unordered-iter"), "{src}: {d:?}");
        }
        // Lookups and inserts are fine; so are BTree collections, Vec
        // fields whose name collides with a hash-typed param elsewhere,
        // non-library crates, and test regions.
        for src in [
            "fn f(m: &HashMap<u32, u32>) -> Option<&u32> { m.get(&1) }",
            "fn f(m: &mut HashMap<u32, u32>) { m.insert(1, 2); m.remove(&1); }",
            "fn f() { let m: BTreeMap<u32, u32> = BTreeMap::new(); for v in m.values() { g(v); } }",
            // `jobs` is hash-typed as a param, but `machine.jobs` is a
            // different (Vec) field — receiver-root matching keeps it clean.
            "fn f(jobs: &HashMap<u32, u32>, machine: &M) { for j in machine.jobs.iter() { g(j); } }",
            "fn f(v: &[u32]) { for x in v.iter() { g(x); } }",
        ] {
            let d = check(LIB, src);
            assert!(d.iter().all(|d| d.rule != "unordered-iter"), "{src}: {d:?}");
        }
        let src = "fn f(m: &HashMap<u32, u32>) { for v in m.values() { g(v); } }";
        assert!(check("crates/cli/src/commands.rs", src).is_empty());
        let test_src =
            "#[cfg(test)]\nmod tests { fn f(m: &HashMap<u32, u32>) { for v in m.values() { g(v); } } }";
        assert!(check(LIB, test_src).is_empty());
    }

    #[test]
    fn shared_mutable_static_rule() {
        let d = check(LIB, "static mut COUNTER: u64 = 0;");
        assert!(d.iter().any(|d| d.rule == "shared-mutable-static"), "{d:?}");
        let d = check(LIB, "thread_local! { static TL: u32 = 0; }");
        assert!(d.iter().any(|d| d.rule == "shared-mutable-static"), "{d:?}");
        // Sync statics are fine; so are non-library crates and tests.
        for src in [
            "static REGISTRY: OnceLock<Mutex<u64>> = OnceLock::new();",
            "static NAMES: [&str; 2] = [\"a\", \"b\"];",
        ] {
            let d = check(LIB, src);
            assert!(
                d.iter().all(|d| d.rule != "shared-mutable-static"),
                "{src}: {d:?}"
            );
        }
        assert!(check("crates/cli/src/x.rs", "static mut C: u64 = 0;").is_empty());
        let test_src = "#[cfg(test)]\nmod tests { static mut C: u64 = 0; }";
        assert!(check(LIB, test_src).is_empty());
    }

    #[test]
    fn must_use_accessor_rule() {
        let path = "crates/core/src/schedule.rs";
        let d = check(path, "impl S { pub fn cost(&self) -> u64 { self.c } }");
        assert!(d.iter().any(|d| d.rule == "must-use-accessor"), "{d:?}");
        // Annotated: clean.
        let d = check(
            path,
            "impl S { #[must_use]\npub fn cost(&self) -> u64 { self.c } }",
        );
        assert!(d.is_empty(), "{d:?}");
        // No return value: clean.
        let d = check(path, "impl S { pub fn clear(&mut self) { self.c = 0; } }");
        assert!(d.is_empty(), "{d:?}");
        // Other core files are out of scope for this rule.
        let d = check(
            "crates/core/src/job.rs",
            "impl S { pub fn cost(&self) -> u64 { self.c } }",
        );
        assert!(d.is_empty(), "{d:?}");
        // Stacked attributes with must_use first still count.
        let d = check(
            path,
            "impl S { #[must_use]\n#[inline]\npub fn cost(&self) -> u64 { self.c } }",
        );
        assert!(d.is_empty(), "{d:?}");
    }
}
