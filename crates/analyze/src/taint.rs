//! Layer 3: the determinism taint engine and the concurrency-readiness
//! audit.
//!
//! Every guarantee downstream of a trace — byte-identical replay, alert
//! ledgers, checkpoint digests, bench baselines — holds only if the values
//! written there are functions of the input alone. This pass finds the
//! places where they are not: **sources** of nondeterminism (wall-clock
//! reads, unseeded RNG, unordered `HashMap`/`HashSet` iteration,
//! environment/thread-id reads, pointer-address casts) whose values can
//! reach a **sink** (TraceEvent emission or folding, bench baseline
//! writers, checkpoint digests, SLO alert stamping) along the call graph.
//!
//! Propagation is deliberately coarse — function-level, not value-level:
//! a fn containing a source taints every transitive caller (the value
//! escapes through returns/out-params in the worst case), and a source is
//! reported when any fn in that caller closure can also reach a sink
//! through its callees. Combined with the graph's over-approximated
//! method edges this can only over-report, so a clean run is a real
//! guarantee; false positives are silenced per line with
//! `// bshm-allow(taint-path): reason` and surface in the report's
//! suppression list.
//!
//! The **concurrency audit** is the pre-flight gate for sharded solving
//! (ROADMAP item 1): starting from the solver entry points (every
//! non-test fn in `crates/algos`, plus `run_online*` in sim), it walks
//! callees and flags unordered-collection iteration and interior-
//! mutability types (`RefCell`, `Cell`, `UnsafeCell`, `Rc`) inside the
//! reachable set — state that breaks determinism or `Send`-safety the
//! moment the 12 algorithm decision paths run on a work-stealing pool.

use crate::diag::Diagnostic;
use crate::graph::{CallGraph, ParsedFile};
use crate::lexer::TokKind;
use crate::rules::unordered_iter_sites;
use serde::Serialize;
use std::collections::BTreeMap;

/// Kinds of nondeterminism sources the engine recognizes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Serialize)]
pub enum SourceKind {
    /// `Instant::now`/`SystemTime::now` outside the sanctioned `obs::clock`.
    WallClock,
    /// `thread_rng`/`from_entropy`/`OsRng`/`rand::random` — RNG without a
    /// seed recorded in the instance.
    UnseededRng,
    /// Iteration over `HashMap`/`HashSet` (order varies per process).
    UnorderedIter,
    /// `env::var*`/`env::temp_dir`/`process::id` reads.
    EnvRead,
    /// `thread::current().id()`-style thread identity.
    ThreadId,
    /// Pointer-address observation (`as *const _ as usize`).
    PtrAddr,
}

impl SourceKind {
    fn describe(self) -> &'static str {
        match self {
            SourceKind::WallClock => "wall-clock read",
            SourceKind::UnseededRng => "unseeded RNG",
            SourceKind::UnorderedIter => "unordered HashMap/HashSet iteration",
            SourceKind::EnvRead => "environment read",
            SourceKind::ThreadId => "thread-identity read",
            SourceKind::PtrAddr => "pointer-address observation",
        }
    }
}

/// Kinds of determinism-sensitive sinks.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Serialize)]
pub enum SinkKind {
    /// TraceEvent construction or folding (replay must be byte-identical).
    TraceEmit,
    /// Bench baseline report writer (`write_report`).
    BenchWrite,
    /// Checkpoint digest (`instance_digest`).
    CheckpointDigest,
    /// SLO alert stamping (`AlertReason`).
    AlertStamp,
}

impl SinkKind {
    fn describe(self) -> &'static str {
        match self {
            SinkKind::TraceEmit => "TraceEvent emission/fold",
            SinkKind::BenchWrite => "bench baseline writer",
            SinkKind::CheckpointDigest => "checkpoint digest",
            SinkKind::AlertStamp => "SLO alert stamp",
        }
    }
}

/// One source occurrence, attached to the fn whose body contains it.
struct SourceSite {
    kind: SourceKind,
    file: usize,
    line: u32,
    node: usize,
    what: String,
}

/// Serializable taint summary — the `--taint` CI artifact.
#[derive(Debug, Serialize)]
pub struct TaintReport {
    /// Source occurrences found in non-test code (pre-pragma).
    pub sources: usize,
    /// Source occurrences by kind name.
    pub sources_by_kind: BTreeMap<String, usize>,
    /// Fns containing at least one sink.
    pub sink_fns: usize,
    /// Fns in the tainted closure (contain or transitively call a source).
    pub tainted_fns: usize,
    /// Raw source→sink findings before pragma filtering.
    pub raw_findings: usize,
    /// Pragma-suppressed findings, with their reasons (filled by the
    /// engine after pragma application).
    pub suppressed: Vec<SuppressedPath>,
    /// Concurrency-readiness audit summary.
    pub audit: AuditSummary,
}

/// A `taint-path`/`concurrency-audit` finding silenced by a pragma.
#[derive(Clone, Debug, Serialize)]
pub struct SuppressedPath {
    /// Rule the pragma names.
    pub rule: String,
    /// File of the pragma.
    pub file: String,
    /// Line of the pragma.
    pub line: u32,
    /// The justification the pragma carries.
    pub reason: String,
}

/// Concurrency-readiness audit counters.
#[derive(Debug, Default, Serialize)]
pub struct AuditSummary {
    /// Solver entry points (non-test algos fns + sim `run_online*`).
    pub entry_points: usize,
    /// Fns reachable from those entry points.
    pub reachable_fns: usize,
    /// Unordered-iteration sites inside the reachable set (pre-pragma).
    pub unordered_iter_reachable: usize,
    /// Interior-mutability mentions inside the reachable set (pre-pragma).
    pub interior_mutability_reachable: usize,
    /// Non-test `static mut` items in library crates.
    pub shared_mutable_statics: usize,
}

/// Interior-mutability / non-`Send` types the audit flags.
const INTERIOR_MUT: [&str; 4] = ["RefCell", "Cell", "UnsafeCell", "Rc"];

/// Runs taint propagation and the concurrency audit over the workspace.
/// Returns raw findings (pragma filtering happens in the engine) plus the
/// report skeleton (`suppressed` left empty for the engine to fill).
#[must_use]
pub fn analyze(files: &[ParsedFile], graph: &CallGraph) -> (Vec<Diagnostic>, TaintReport) {
    let sources = collect_sources(files, graph);
    let sinks = collect_sinks(files, graph);

    // Tainted closure: fns containing a source, plus transitive callers
    // (the nondeterministic value escapes upward through return values).
    let source_nodes: Vec<usize> = sources.iter().map(|s| s.node).collect();
    let tainted = graph.callers_of(&source_nodes);

    // Sink-reaching: fns containing a sink, plus transitive callers
    // (a caller of a sink-containing fn can feed it arguments).
    let sink_nodes: Vec<usize> = sinks.keys().copied().collect();
    let sink_reach = graph.callers_of(&sink_nodes);

    // A source fires when some fn both holds the tainted value and can
    // reach a sink: `danger[n]` = some fn in callers*(n) is sink-reaching.
    // Seed with sink-reaching fns and push the flag down callee edges —
    // if a caller is dangerous, everything it calls feeds a dangerous
    // context.
    let danger_seeds: Vec<usize> = (0..graph.nodes.len()).filter(|&n| sink_reach[n]).collect();
    let danger = graph.reachable_from(&danger_seeds);

    let mut findings = Vec::new();
    for s in &sources {
        if !danger[s.node] {
            continue;
        }
        let (via, sink_node, sink_kind) = witness_path(graph, &sinks, &sink_reach, s.node);
        let sink_desc = match (sink_node, sink_kind) {
            (Some(sn), Some(sk)) => {
                format!("{} sink `{}`", sk.describe(), graph.nodes[sn].key)
            }
            _ => "a determinism sink".to_string(),
        };
        findings.push(Diagnostic::error(
            "taint-path",
            &files[s.file].rel,
            s.line,
            format!(
                "{} ({}) in `{}` can reach {}{}; make the value input-deterministic or justify with `// bshm-allow(taint-path): reason`",
                s.kind.describe(),
                s.what,
                graph.nodes[s.node].key,
                sink_desc,
                via
            ),
        ));
    }

    // Concurrency-readiness audit.
    let mut audit = AuditSummary::default();
    let entries: Vec<usize> = graph
        .nodes
        .iter()
        .enumerate()
        .filter(|(_, n)| {
            !n.is_test
                && (n.crate_name == "algos"
                    || (n.crate_name == "sim" && n.key.contains("::run_online")))
        })
        .map(|(i, _)| i)
        .collect();
    audit.entry_points = entries.len();
    let reachable = graph.reachable_from(&entries);
    audit.reachable_fns = reachable.iter().filter(|&&r| r).count();
    for s in &sources {
        if s.kind == SourceKind::UnorderedIter && reachable[s.node] {
            audit.unordered_iter_reachable += 1;
            findings.push(Diagnostic::error(
                "concurrency-audit",
                &files[s.file].rel,
                s.line,
                format!(
                    "unordered iteration ({}) in `{}` is reachable from the solver entry points; sharded solving (ROADMAP item 1) would make its order racy — switch to BTreeMap/BTreeSet, or justify with `// bshm-allow(concurrency-audit): reason`",
                    s.what,
                    graph.nodes[s.node].key
                ),
            ));
        }
    }
    for (fi, pf) in files.iter().enumerate() {
        if pf.ctx.crate_name == "analyze" {
            continue;
        }
        for (ti, t) in pf.code.iter().enumerate() {
            if t.kind != TokKind::Ident || !INTERIOR_MUT.contains(&t.text.as_str()) {
                continue;
            }
            if pf.mask.get(ti).copied().unwrap_or(false) {
                continue;
            }
            let Some(node) = graph.owner_of(fi, ti) else {
                continue;
            };
            if !reachable[node] {
                continue;
            }
            audit.interior_mutability_reachable += 1;
            findings.push(Diagnostic::error(
                "concurrency-audit",
                &pf.rel,
                t.line,
                format!(
                    "interior-mutability type `{}` in `{}` is reachable from the solver entry points; it is not safely shareable across a work-stealing pool — use owned state or Sync primitives, or justify with `// bshm-allow(concurrency-audit): reason`",
                    t.text,
                    graph.nodes[node].key
                ),
            ));
        }
        // Shared mutable statics are counted workspace-wide for library
        // crates; the per-file `shared-mutable-static` rule carries the
        // line-level diagnostic.
        if pf.ctx.strict_library {
            audit.shared_mutable_statics += pf
                .items
                .statics
                .iter()
                .filter(|s| s.is_mut && !s.is_test)
                .count();
        }
    }

    let mut by_kind: BTreeMap<String, usize> = BTreeMap::new();
    for s in &sources {
        *by_kind.entry(format!("{:?}", s.kind)).or_default() += 1;
    }
    let report = TaintReport {
        sources: sources.len(),
        sources_by_kind: by_kind,
        sink_fns: sinks.len(),
        tainted_fns: tainted.iter().filter(|&&t| t).count(),
        raw_findings: findings.len(),
        suppressed: Vec::new(),
        audit,
    };
    (findings, report)
}

/// Reconstructs a human-readable witness: the chain of callers from the
/// source fn up to the first sink-reaching fn, then down to the sink.
fn witness_path(
    graph: &CallGraph,
    sinks: &BTreeMap<usize, SinkKind>,
    sink_reach: &[bool],
    source_node: usize,
) -> (String, Option<usize>, Option<SinkKind>) {
    // Up-phase BFS: source_node → nearest caller that reaches a sink.
    let up = bfs_to(graph, source_node, &graph.callers, &|n| sink_reach[n]);
    let Some(up_chain) = up else {
        return (String::new(), None, None);
    };
    let pivot = *up_chain.last().unwrap_or(&source_node);
    // Down-phase BFS: pivot → nearest sink-containing fn via callees.
    let down = bfs_to(graph, pivot, &graph.callees, &|n| sinks.contains_key(&n));
    let Some(down_chain) = down else {
        return (String::new(), None, None);
    };
    let sink_node = *down_chain.last().unwrap_or(&pivot);
    let kind = sinks.get(&sink_node).copied();
    // Render at most a handful of hops: `via a ← b → c`.
    let mut hops: Vec<String> = Vec::new();
    for &n in up_chain.iter().skip(1).take(3) {
        hops.push(format!("← `{}`", graph.nodes[n].key));
    }
    for &n in down_chain.iter().skip(1).take(3) {
        hops.push(format!("→ `{}`", graph.nodes[n].key));
    }
    let via = if hops.is_empty() {
        String::new()
    } else {
        format!(" (via {})", hops.join(" "))
    };
    (via, Some(sink_node), kind)
}

/// Shortest path from `start` along `adj` to any node satisfying `goal`,
/// returned as the node chain `[start, …, goal]`.
fn bfs_to(
    graph: &CallGraph,
    start: usize,
    adj: &[Vec<usize>],
    goal: &dyn Fn(usize) -> bool,
) -> Option<Vec<usize>> {
    let mut parent: Vec<Option<usize>> = vec![None; graph.nodes.len()];
    let mut seen = vec![false; graph.nodes.len()];
    let mut queue = std::collections::VecDeque::new();
    seen[start] = true;
    queue.push_back(start);
    while let Some(n) = queue.pop_front() {
        if goal(n) {
            let mut chain = vec![n];
            let mut cur = n;
            while let Some(p) = parent[cur] {
                chain.push(p);
                cur = p;
            }
            chain.reverse();
            return Some(chain);
        }
        for &m in &adj[n] {
            if !seen[m] {
                seen[m] = true;
                parent[m] = Some(n);
                queue.push_back(m);
            }
        }
    }
    None
}

/// Scans every file for source occurrences in non-test fn bodies.
fn collect_sources(files: &[ParsedFile], graph: &CallGraph) -> Vec<SourceSite> {
    let mut out = Vec::new();
    for (fi, pf) in files.iter().enumerate() {
        // The analyzer's own pattern tables would light up every detector.
        if pf.ctx.crate_name == "analyze" || pf.ctx.all_test {
            continue;
        }
        let live = |i: usize| !pf.mask.get(i).copied().unwrap_or(false);
        let push =
            |idx: usize, line: u32, kind: SourceKind, what: String, out: &mut Vec<SourceSite>| {
                if let Some(node) = graph.owner_of(fi, idx) {
                    if !graph.nodes[node].is_test {
                        out.push(SourceSite {
                            kind,
                            file: fi,
                            line,
                            node,
                            what,
                        });
                    }
                }
            };
        for (i, t) in pf.code.iter().enumerate() {
            if !live(i) || t.kind != TokKind::Ident {
                continue;
            }
            let path2 = |head: &str, tail: &[&str]| {
                t.is_ident(head)
                    && pf.code.get(i + 1).is_some_and(|n| n.is_punct("::"))
                    && pf
                        .code
                        .get(i + 2)
                        .is_some_and(|n| tail.iter().any(|m| n.is_ident(m)))
            };
            let seg2 = |i: usize| pf.code.get(i + 2).map_or(String::new(), |n| n.text.clone());
            // Wall-clock — except the sanctioned clock module.
            if !pf.rel.ends_with("obs/src/clock.rs")
                && (path2("Instant", &["now"]) || path2("SystemTime", &["now"]))
            {
                push(
                    i,
                    t.line,
                    SourceKind::WallClock,
                    format!("{}::now", t.text),
                    &mut out,
                );
            }
            // Unseeded RNG.
            if matches!(t.text.as_str(), "thread_rng" | "from_entropy")
                || t.is_ident("OsRng")
                || path2("rand", &["random"])
            {
                push(i, t.line, SourceKind::UnseededRng, t.text.clone(), &mut out);
            }
            // Environment reads.
            if path2("env", &["var", "vars", "var_os", "temp_dir"]) || path2("process", &["id"]) {
                push(
                    i,
                    t.line,
                    SourceKind::EnvRead,
                    format!("{}::{}", t.text, seg2(i)),
                    &mut out,
                );
            }
            // Thread identity.
            if path2("thread", &["current"]) || t.is_ident("ThreadId") {
                push(i, t.line, SourceKind::ThreadId, t.text.clone(), &mut out);
            }
            // Pointer-address observation: `as *const/mut … as usize`.
            if t.is_ident("as")
                && pf.code.get(i + 1).is_some_and(|n| n.is_punct("*"))
                && pf
                    .code
                    .get(i + 2)
                    .is_some_and(|n| n.is_ident("const") || n.is_ident("mut"))
            {
                let addr_cast = pf.code[i + 3..(i + 19).min(pf.code.len())]
                    .windows(2)
                    .any(|w| w[0].is_ident("as") && w[1].is_ident("usize"));
                if addr_cast {
                    push(
                        i,
                        t.line,
                        SourceKind::PtrAddr,
                        "as *const _ as usize".to_string(),
                        &mut out,
                    );
                }
            }
        }
        // Unordered-collection iteration (shared with the per-file rule).
        for site in unordered_iter_sites(&pf.code, &live) {
            push(
                site.idx,
                site.line,
                SourceKind::UnorderedIter,
                site.what,
                &mut out,
            );
        }
    }
    out
}

/// Finds sink-containing fns: node id → the (first) sink kind inside.
fn collect_sinks(files: &[ParsedFile], graph: &CallGraph) -> BTreeMap<usize, SinkKind> {
    let mut out = BTreeMap::new();
    for (fi, pf) in files.iter().enumerate() {
        if pf.ctx.crate_name == "analyze" || pf.ctx.all_test {
            continue;
        }
        for (i, t) in pf.code.iter().enumerate() {
            if t.kind != TokKind::Ident || pf.mask.get(i).copied().unwrap_or(false) {
                continue;
            }
            let kind = match t.text.as_str() {
                "TraceEvent" => SinkKind::TraceEmit,
                "write_report" => SinkKind::BenchWrite,
                "instance_digest" => SinkKind::CheckpointDigest,
                "AlertReason" => SinkKind::AlertStamp,
                _ => continue,
            };
            if let Some(node) = graph.owner_of(fi, i) {
                if !graph.nodes[node].is_test {
                    out.entry(node).or_insert(kind);
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::test_regions;
    use crate::graph::build;
    use crate::lexer::tokenize;

    fn parse(rel: &str, src: &str) -> ParsedFile {
        let toks = tokenize(src);
        let mask = test_regions(&toks);
        ParsedFile::build(rel, &toks, &mask)
    }

    fn run(files: Vec<ParsedFile>) -> (Vec<Diagnostic>, TaintReport) {
        let graph = build(&files);
        analyze(&files, &graph)
    }

    #[test]
    fn wall_clock_to_trace_event_path_is_flagged() {
        // The ISSUE's acceptance fixture: a wall-clock read whose value
        // flows through a caller into a TraceEvent emission.
        let files = vec![
            parse(
                "crates/sim/src/stamp.rs",
                "pub fn stamp() -> u64 { let t = Instant::now(); elapsed(t) }\nfn elapsed(_t: u64) -> u64 { 0 }\n",
            ),
            parse(
                "crates/sim/src/emit.rs",
                "pub fn emit(p: &Probe) { let s = stamp(); p.record(TraceEvent::Arrival { t: s }); }\n",
            ),
        ];
        let (findings, report) = run(files);
        assert!(
            findings.iter().any(|d| d.rule == "taint-path"
                && d.file == "crates/sim/src/stamp.rs"
                && d.message.contains("wall-clock")
                && d.message.contains("TraceEvent")),
            "{findings:?}"
        );
        assert_eq!(report.sources, 1);
        assert!(report.raw_findings >= 1);
    }

    #[test]
    fn source_without_sink_path_is_silent() {
        // A wall-clock read in a fn nothing sink-shaped ever calls.
        let files = vec![parse(
            "crates/sim/src/lonely.rs",
            "pub fn lonely() -> u64 { let _t = Instant::now(); 0 }\n",
        )];
        let (findings, report) = run(files);
        assert!(findings.is_empty(), "{findings:?}");
        assert_eq!(report.sources, 1);
        assert_eq!(report.raw_findings, 0);
    }

    #[test]
    fn test_code_is_exempt() {
        let files = vec![parse(
            "crates/sim/src/t.rs",
            "pub fn emit(p: &Probe) { p.record(TraceEvent::Tick); }\n#[cfg(test)]\nmod tests { fn f() { let _ = Instant::now(); super::emit(&p); } }\n",
        )];
        let (findings, report) = run(files);
        assert!(findings.is_empty(), "{findings:?}");
        assert_eq!(report.sources, 0);
    }

    #[test]
    fn unordered_iter_reachable_from_solver_trips_audit() {
        let files = vec![
            parse(
                "crates/algos/src/solver.rs",
                "pub fn dec_offline() { helper(); }\n",
            ),
            parse(
                "crates/core/src/state.rs",
                "pub fn helper() { let m: HashMap<u32, u32> = HashMap::new(); for v in m.values() { let _ = v; } }\n",
            ),
        ];
        let (findings, report) = run(files);
        assert!(
            findings
                .iter()
                .any(|d| d.rule == "concurrency-audit" && d.file == "crates/core/src/state.rs"),
            "{findings:?}"
        );
        assert_eq!(report.audit.unordered_iter_reachable, 1);
        assert!(report.audit.entry_points >= 1);
    }

    #[test]
    fn interior_mutability_reachable_trips_audit() {
        let files = vec![parse(
            "crates/algos/src/cellular.rs",
            "pub fn plan() { let c = RefCell::new(0u32); let _ = c; }\n",
        )];
        let (findings, report) = run(files);
        assert!(
            findings
                .iter()
                .any(|d| d.rule == "concurrency-audit" && d.message.contains("RefCell")),
            "{findings:?}"
        );
        assert_eq!(report.audit.interior_mutability_reachable, 1);
    }

    #[test]
    fn interior_mutability_off_solver_paths_is_quiet() {
        // Same token in a crate the solvers never call: audit stays quiet.
        let files = vec![parse(
            "crates/cli/src/render.rs",
            "pub fn paint() { let c = RefCell::new(0u32); let _ = c; }\n",
        )];
        let (findings, report) = run(files);
        assert!(findings.is_empty(), "{findings:?}");
        assert_eq!(report.audit.interior_mutability_reachable, 0);
    }

    #[test]
    fn env_read_reaching_bench_writer_is_flagged() {
        let files = vec![parse(
            "crates/bench/src/drive.rs",
            "pub fn drive() { let d = env::var(\"OUT\"); save(d); }\nfn save(_d: Result<String, E>) { write_report(&r, &p); }\n",
        )];
        let (findings, _) = run(files);
        assert!(
            findings
                .iter()
                .any(|d| d.rule == "taint-path" && d.message.contains("environment read")),
            "{findings:?}"
        );
    }

    #[test]
    fn static_mut_is_counted() {
        let files = vec![parse(
            "crates/core/src/globals.rs",
            "static mut COUNTER: u64 = 0;\npub fn f() {}\n",
        )];
        let (_, report) = run(files);
        assert_eq!(report.audit.shared_mutable_statics, 1);
    }
}
