//! Layer 2: a best-effort intra-workspace call graph.
//!
//! [`build`] takes every parsed file ([`ParsedFile`]) and resolves the
//! call sites in each function body against a workspace symbol table.
//! Resolution is deliberately conservative in the direction the taint
//! engine needs: a method call resolves to *every* workspace impl fn with
//! that name (over-approximating the callee set means taint can only
//! over-propagate, never silently miss a path), and anything that looks
//! workspace-local but does not match lands in an explicit `unresolved`
//! bucket that is itself part of the report — the graph admits what it
//! does not know instead of pretending completeness.
//!
//! Call sites classify four ways:
//! - **resolved** — matched one or more workspace fns; edges exist.
//! - **external** — `std`/shim paths, unmatched method names, imports
//!   from non-workspace crates.
//! - **construction** — `Type(…)` / `Enum::Variant(…)` value builders.
//! - **unresolved** — workspace-looking (a `crate::`/`bshm_*` path, a
//!   known type with an unknown assoc fn, a bare snake_case name that
//!   matches nothing — usually a closure) with no match.

use crate::context::FileContext;
use crate::items::{parse_items, FileItems};
use crate::lexer::{Tok, TokKind};
use serde::Serialize;
use std::collections::BTreeMap;

/// One file, tokenized and item-parsed, ready for graph/taint passes.
pub struct ParsedFile {
    /// Workspace-relative path.
    pub rel: String,
    /// Path classification (crate, strictness, test-ness).
    pub ctx: FileContext,
    /// Comment-free token stream.
    pub code: Vec<Tok>,
    /// Per-token test-region mask, aligned with `code`.
    pub mask: Vec<bool>,
    /// Items extracted from `code`.
    pub items: FileItems,
}

impl ParsedFile {
    /// Builds a parsed file from a raw (comment-carrying) token stream and
    /// its aligned test mask.
    #[must_use]
    pub fn build(rel: &str, toks: &[Tok], in_test: &[bool]) -> ParsedFile {
        let mut code = Vec::with_capacity(toks.len());
        let mut mask = Vec::with_capacity(toks.len());
        for (t, &flag) in toks.iter().zip(in_test) {
            if !t.is_comment() {
                code.push(t.clone());
                mask.push(flag);
            }
        }
        let items = parse_items(&code, &mask);
        ParsedFile {
            rel: rel.to_string(),
            ctx: FileContext::classify(rel),
            code,
            mask,
            items,
        }
    }
}

/// One function node in the workspace call graph.
#[derive(Clone, Debug)]
pub struct FnNode {
    /// Index of the owning file in the `files` slice.
    pub file: usize,
    /// Index into that file's `items.fns`.
    pub item: usize,
    /// Display key: `crate::module::SelfTy::name`.
    pub key: String,
    /// Owning crate (directory name under `crates/`).
    pub crate_name: String,
    /// Whether the fn is test-only (test region or all-test file).
    pub is_test: bool,
}

/// A call site that looked workspace-local but matched nothing.
#[derive(Clone, Debug, Serialize)]
pub struct UnresolvedCall {
    /// File of the call site.
    pub file: String,
    /// Line of the call site.
    pub line: u32,
    /// The path as written (`::`-joined).
    pub path: String,
}

/// The call graph: nodes plus forward/reverse adjacency.
pub struct CallGraph {
    /// All workspace fns, in file/item order.
    pub nodes: Vec<FnNode>,
    /// `callees[n]` — node ids `n` calls (deduplicated, sorted).
    pub callees: Vec<Vec<usize>>,
    /// `callers[n]` — node ids that call `n` (deduplicated, sorted).
    pub callers: Vec<Vec<usize>>,
    /// Per-node id of the enclosing file's fn, by (file, body token idx):
    /// `fn_at[file]` maps a token index to the node whose body contains it.
    pub owner: Vec<Vec<(usize, usize, usize)>>,
    /// Aggregate call-site classification counts and samples.
    pub report: GraphReport,
}

/// Serializable summary — the `--graph` CI artifact.
#[derive(Debug, Serialize)]
pub struct GraphReport {
    /// Workspace fns found.
    pub fns: usize,
    /// Distinct resolved edges.
    pub edges: usize,
    /// Call sites that resolved to workspace fns.
    pub calls_resolved: usize,
    /// Call sites classified external (std/shims/unmatched methods).
    pub calls_external: usize,
    /// Call sites classified as value construction.
    pub calls_construction: usize,
    /// Workspace-looking call sites with no match.
    pub calls_unresolved: usize,
    /// `calls_unresolved / (calls_resolved + calls_unresolved)`.
    pub unresolved_fraction: f64,
    /// Per-crate fn/edge counts.
    pub per_crate: BTreeMap<String, CrateGraphStats>,
    /// First [`UNRESOLVED_SAMPLE_CAP`] unresolved sites, for triage.
    pub unresolved_sample: Vec<UnresolvedCall>,
}

/// Per-crate slice of the graph summary.
#[derive(Debug, Default, Serialize)]
pub struct CrateGraphStats {
    /// Fns defined in the crate.
    pub fns: usize,
    /// Resolved call sites inside the crate's fns.
    pub calls_resolved: usize,
    /// Unresolved call sites inside the crate's fns.
    pub calls_unresolved: usize,
}

/// Cap on unresolved sites embedded in the JSON report.
pub const UNRESOLVED_SAMPLE_CAP: usize = 50;

/// Workspace lib names → crate directory names. `crate`/`self`/`super`
/// normalize to the calling file's own crate.
const LIB_TO_CRATE: [(&str, &str); 11] = [
    ("bshm_core", "core"),
    ("bshm_algos", "algos"),
    ("bshm_sim", "sim"),
    ("bshm_obs", "obs"),
    ("bshm_faults", "faults"),
    ("bshm_serve", "serve"),
    ("bshm_bench", "bench"),
    ("bshm_cli", "cli"),
    ("bshm_chart", "chart"),
    ("bshm_workload", "workload"),
    ("bshm_analyze", "analyze"),
];

/// Std-trait method names that legitimately attach to workspace types via
/// derives or blanket impls; an unmatched `Type::name` with one of these
/// is external, not unresolved.
const DERIVED_METHODS: [&str; 18] = [
    "from",
    "try_from",
    "into",
    "try_into",
    "default",
    "clone",
    "to_string",
    "from_str",
    "fmt",
    "eq",
    "ne",
    "cmp",
    "partial_cmp",
    "hash",
    "serialize",
    "deserialize",
    "min",
    "max",
];

fn lib_to_crate(seg: &str) -> Option<&'static str> {
    LIB_TO_CRATE
        .iter()
        .find(|(lib, _)| *lib == seg)
        .map(|(_, c)| *c)
}

struct Symbols {
    /// (crate, fn name) → node ids of free fns.
    free: BTreeMap<(String, String), Vec<usize>>,
    /// Fn name → node ids of free fns anywhere (cross-crate fallback).
    free_any: BTreeMap<String, Vec<usize>>,
    /// (self type, fn name) → node ids of methods/assoc fns.
    methods: BTreeMap<(String, String), Vec<usize>>,
    /// Method name → node ids (receiver-blind `.name(…)` resolution).
    methods_any: BTreeMap<String, Vec<usize>>,
    /// Workspace type names (structs/enums/unions).
    types: BTreeMap<String, ()>,
}

/// Builds the call graph over all parsed files.
#[must_use]
pub fn build(files: &[ParsedFile]) -> CallGraph {
    // 1. Nodes and symbol tables.
    let mut nodes = Vec::new();
    let mut owner: Vec<Vec<(usize, usize, usize)>> = vec![Vec::new(); files.len()];
    let mut sym = Symbols {
        free: BTreeMap::new(),
        free_any: BTreeMap::new(),
        methods: BTreeMap::new(),
        methods_any: BTreeMap::new(),
        types: BTreeMap::new(),
    };
    for (fi, pf) in files.iter().enumerate() {
        for ty in &pf.items.types {
            sym.types.insert(ty.name.clone(), ());
        }
        for (ii, f) in pf.items.fns.iter().enumerate() {
            let id = nodes.len();
            let mut key = format!("{}::", pf.ctx.crate_name);
            for m in &f.module {
                key.push_str(m);
                key.push_str("::");
            }
            if let Some(ty) = &f.self_ty {
                key.push_str(ty);
                key.push_str("::");
            }
            key.push_str(&f.name);
            nodes.push(FnNode {
                file: fi,
                item: ii,
                key,
                crate_name: pf.ctx.crate_name.clone(),
                is_test: f.is_test || pf.ctx.all_test,
            });
            if let Some((s, e)) = f.body {
                owner[fi].push((s, e, id));
            }
            match &f.self_ty {
                Some(ty) => {
                    sym.methods
                        .entry((ty.clone(), f.name.clone()))
                        .or_default()
                        .push(id);
                    sym.methods_any.entry(f.name.clone()).or_default().push(id);
                }
                None => {
                    sym.free
                        .entry((pf.ctx.crate_name.clone(), f.name.clone()))
                        .or_default()
                        .push(id);
                    sym.free_any.entry(f.name.clone()).or_default().push(id);
                }
            }
        }
        owner[fi].sort_unstable();
    }

    // 2. Call extraction + resolution per fn body.
    let mut callees: Vec<Vec<usize>> = vec![Vec::new(); nodes.len()];
    let mut report = GraphReport {
        fns: nodes.len(),
        edges: 0,
        calls_resolved: 0,
        calls_external: 0,
        calls_construction: 0,
        calls_unresolved: 0,
        unresolved_fraction: 0.0,
        per_crate: BTreeMap::new(),
        unresolved_sample: Vec::new(),
    };
    for node_id in 0..nodes.len() {
        let node = &nodes[node_id];
        let pf = &files[node.file];
        let f = &pf.items.fns[node.item];
        let Some((bs, be)) = f.body else {
            continue;
        };
        let crate_stats = report.per_crate.entry(node.crate_name.clone()).or_default();
        crate_stats.fns += 1;
        let mut i = bs + 1;
        while i < be.min(pf.code.len()) {
            let t = &pf.code[i];
            if t.kind != TokKind::Ident {
                i += 1;
                continue;
            }
            // Macro invocation: `name !(…)` — not a fn call.
            if pf.code.get(i + 1).is_some_and(|n| n.is_punct("!")) {
                i += 1;
                continue;
            }
            // The call's opening paren, allowing one turbofish `::<…>`.
            let mut j = i + 1;
            if pf.code.get(j).is_some_and(|n| n.is_punct("::"))
                && pf.code.get(j + 1).is_some_and(|n| n.is_punct("<"))
            {
                let mut depth = 0i32;
                let mut k = j + 1;
                while k < be {
                    if pf.code[k].is_punct("<") {
                        depth += 1;
                    } else if pf.code[k].is_punct(">") {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    k += 1;
                }
                j = k + 1;
            }
            if !pf.code.get(j).is_some_and(|n| n.is_punct("(")) {
                i += 1;
                continue;
            }
            // Skip definitions and control keywords (`let (a, b) = …` and
            // friends put a `(` right after a keyword).
            if matches!(
                t.text.as_str(),
                "fn" | "if"
                    | "while"
                    | "for"
                    | "match"
                    | "return"
                    | "loop"
                    | "let"
                    | "in"
                    | "else"
                    | "move"
            ) {
                i += 1;
                continue;
            }
            let prev = i.checked_sub(1).map(|p| &pf.code[p]);
            let is_method = prev.is_some_and(|p| p.is_punct("."));
            // `fn name(` — a nested fn definition, not a call.
            if prev.is_some_and(|p| p.is_ident("fn")) {
                i += 1;
                continue;
            }
            let resolved: Resolution = if is_method {
                resolve_method(&sym, &t.text)
            } else {
                // Collect the `::` path leading here.
                let mut segs = vec![t.text.clone()];
                let mut b = i;
                while b >= 2
                    && pf.code[b - 1].is_punct("::")
                    && pf.code[b - 2].kind == TokKind::Ident
                {
                    segs.insert(0, pf.code[b - 2].text.clone());
                    b -= 2;
                }
                resolve_path(&sym, &segs, &node.crate_name, f.self_ty.as_deref())
            };
            match resolved {
                Resolution::Workspace(ids) => {
                    report.calls_resolved += 1;
                    crate_stats.calls_resolved += 1;
                    callees[node_id].extend(ids);
                }
                Resolution::External => report.calls_external += 1,
                Resolution::Construction => report.calls_construction += 1,
                Resolution::Unresolved(path) => {
                    report.calls_unresolved += 1;
                    crate_stats.calls_unresolved += 1;
                    if report.unresolved_sample.len() < UNRESOLVED_SAMPLE_CAP {
                        report.unresolved_sample.push(UnresolvedCall {
                            file: pf.rel.clone(),
                            line: t.line,
                            path,
                        });
                    }
                }
            }
            i = j + 1;
        }
    }

    // 3. Dedup edges, build reverse adjacency.
    let mut callers: Vec<Vec<usize>> = vec![Vec::new(); nodes.len()];
    for (n, list) in callees.iter_mut().enumerate() {
        list.sort_unstable();
        list.dedup();
        report.edges += list.len();
        for &c in list.iter() {
            callers[c].push(n);
        }
    }
    for list in &mut callers {
        list.sort_unstable();
        list.dedup();
    }
    let contested = report.calls_resolved + report.calls_unresolved;
    if contested > 0 {
        // Precision loss is irrelevant here: this is a reporting ratio.
        report.unresolved_fraction = report.calls_unresolved as f64 / contested as f64;
    }
    CallGraph {
        nodes,
        callees,
        callers,
        owner,
        report,
    }
}

enum Resolution {
    Workspace(Vec<usize>),
    External,
    Construction,
    Unresolved(String),
}

/// `.name(…)` — receiver type unknown, so resolve to every workspace fn
/// with that method name (conservative over-approximation); unmatched
/// names are std/shim methods.
fn resolve_method(sym: &Symbols, name: &str) -> Resolution {
    match sym.methods_any.get(name) {
        Some(ids) => Resolution::Workspace(ids.clone()),
        None => Resolution::External,
    }
}

const EXTERNAL_HEADS: [&str; 12] = [
    "std",
    "core",
    "alloc",
    "serde",
    "serde_json",
    "rand",
    "libc",
    "String",
    "Vec",
    "Box",
    "Option",
    "Result",
];

fn is_upper(s: &str) -> bool {
    s.chars().next().is_some_and(char::is_uppercase)
}

/// Resolves a (possibly qualified) non-method call path.
fn resolve_path(
    sym: &Symbols,
    segs: &[String],
    caller_crate: &str,
    caller_self_ty: Option<&str>,
) -> Resolution {
    let name = segs.last().map_or("", String::as_str);
    if segs.len() == 1 {
        // Bare call: free fn in the caller's own crate, else anywhere in
        // the workspace (imports are name-stable), else classify.
        if let Some(ids) = sym.free.get(&(caller_crate.to_string(), name.to_string())) {
            return Resolution::Workspace(ids.clone());
        }
        if let Some(ids) = sym.free_any.get(name) {
            return Resolution::Workspace(ids.clone());
        }
        if is_upper(name) {
            // `Some(…)`, `Ok(…)`, `JobId(…)` — tuple/variant construction.
            return Resolution::Construction;
        }
        // Usually a closure or a `use`d std fn; the bucket reports it.
        return Resolution::Unresolved(name.to_string());
    }
    let qual = &segs[segs.len() - 2];
    let head = &segs[0];
    // `Self::helper(…)` — the current impl block's type.
    let qual = if qual == "Self" {
        caller_self_ty.unwrap_or(qual)
    } else {
        qual
    };
    // Assoc fn / method on a workspace type.
    if sym.types.contains_key(qual) || sym.methods.keys().any(|(t, _)| t == qual) {
        if let Some(ids) = sym.methods.get(&(qual.to_string(), name.to_string())) {
            return Resolution::Workspace(ids.clone());
        }
        if is_upper(name) {
            // `TraceEvent::Alert(…)` — enum variant construction.
            return Resolution::Construction;
        }
        if DERIVED_METHODS.contains(&name) {
            return Resolution::External;
        }
        return Resolution::Unresolved(segs.join("::"));
    }
    // Crate-qualified free fn: `bshm_core::cost::job_index(…)`,
    // `crate::pool::place(…)`.
    let target_crate = match head.as_str() {
        "crate" | "self" | "super" => Some(caller_crate),
        h => lib_to_crate(h),
    };
    if let Some(tc) = target_crate {
        if let Some(ids) = sym.free.get(&(tc.to_string(), name.to_string())) {
            return Resolution::Workspace(ids.clone());
        }
        if is_upper(name) {
            return Resolution::Construction;
        }
        return Resolution::Unresolved(segs.join("::"));
    }
    if EXTERNAL_HEADS.contains(&head.as_str()) || !is_upper(qual) {
        // `std::mem::take`, `serde_json::to_string`, module paths of
        // non-workspace crates.
        return Resolution::External;
    }
    // Unknown uppercase qualifier: a std/shim type (`HashMap::new`,
    // `Instant::now`) — external.
    Resolution::External
}

impl CallGraph {
    /// The node whose body contains token index `tok` of file `file`, if
    /// any (bodies never overlap except via nested fns; innermost wins).
    #[must_use]
    pub fn owner_of(&self, file: usize, tok: usize) -> Option<usize> {
        self.owner
            .get(file)?
            .iter()
            .filter(|&&(s, e, _)| s <= tok && tok <= e)
            .min_by_key(|&&(s, e, _)| e - s)
            .map(|&(_, _, id)| id)
    }

    /// Forward closure (callees) from `seeds`, as a node-indexed flag set.
    #[must_use]
    pub fn reachable_from(&self, seeds: &[usize]) -> Vec<bool> {
        self.closure(seeds, &self.callees)
    }

    /// Reverse closure (callers) from `seeds`, as a node-indexed flag set.
    #[must_use]
    pub fn callers_of(&self, seeds: &[usize]) -> Vec<bool> {
        self.closure(seeds, &self.callers)
    }

    fn closure(&self, seeds: &[usize], adj: &[Vec<usize>]) -> Vec<bool> {
        let mut seen = vec![false; self.nodes.len()];
        let mut queue: Vec<usize> = Vec::new();
        for &s in seeds {
            if s < seen.len() && !seen[s] {
                seen[s] = true;
                queue.push(s);
            }
        }
        while let Some(n) = queue.pop() {
            for &m in &adj[n] {
                if !seen[m] {
                    seen[m] = true;
                    queue.push(m);
                }
            }
        }
        seen
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::test_regions;
    use crate::lexer::tokenize;

    fn parse(rel: &str, src: &str) -> ParsedFile {
        let toks = tokenize(src);
        let mask = test_regions(&toks);
        ParsedFile::build(rel, &toks, &mask)
    }

    fn node(g: &CallGraph, key_suffix: &str) -> usize {
        g.nodes
            .iter()
            .position(|n| n.key.ends_with(key_suffix))
            .unwrap_or_else(|| panic!("no node ending in {key_suffix}"))
    }

    #[test]
    fn resolves_free_fn_calls_same_crate() {
        let files = vec![parse(
            "crates/core/src/a.rs",
            "pub fn outer() { inner(); }\nfn inner() {}\n",
        )];
        let g = build(&files);
        let o = node(&g, "core::outer");
        let i = node(&g, "core::inner");
        assert_eq!(g.callees[o], vec![i]);
        assert_eq!(g.callers[i], vec![o]);
        assert_eq!(g.report.calls_resolved, 1);
        assert_eq!(g.report.calls_unresolved, 0);
    }

    #[test]
    fn resolves_cross_crate_qualified_calls() {
        let files = vec![
            parse(
                "crates/core/src/cost.rs",
                "pub fn job_index() -> u32 { 1 }\n",
            ),
            parse(
                "crates/algos/src/x.rs",
                "pub fn run() { let _ = bshm_core::cost::job_index(); }\n",
            ),
        ];
        let g = build(&files);
        let r = node(&g, "algos::run");
        let j = node(&g, "core::job_index");
        assert_eq!(g.callees[r], vec![j]);
    }

    #[test]
    fn cli_calls_into_serve_resolve_to_the_workspace() {
        let files = vec![
            parse(
                "crates/serve/src/drill.rs",
                "pub fn overload_drill() -> u32 { 1 }\n",
            ),
            parse(
                "crates/cli/src/commands.rs",
                "pub fn cmd_drill() { let _ = bshm_serve::drill::overload_drill(); }\n",
            ),
        ];
        let g = build(&files);
        let c = node(&g, "cli::cmd_drill");
        let d = node(&g, "serve::overload_drill");
        assert_eq!(g.callees[c], vec![d]);
        assert_eq!(g.report.calls_external, 0);
    }

    #[test]
    fn method_calls_over_approximate() {
        let files = vec![
            parse(
                "crates/sim/src/pool.rs",
                "pub struct Pool;\nimpl Pool { pub fn place(&mut self) {} }\n",
            ),
            parse(
                "crates/algos/src/y.rs",
                "pub fn go(p: &mut Pool) { p.place(); }\n",
            ),
        ];
        let g = build(&files);
        let go = node(&g, "algos::go");
        let place = node(&g, "Pool::place");
        assert_eq!(g.callees[go], vec![place]);
        // Std methods do not pollute the unresolved bucket.
        let files = vec![parse(
            "crates/core/src/z.rs",
            "pub fn f(v: &mut Vec<u32>) { v.push(1); v.sort(); }\n",
        )];
        let g = build(&files);
        assert_eq!(g.report.calls_unresolved, 0);
        assert_eq!(g.report.calls_external, 2);
    }

    #[test]
    fn constructions_and_macros_are_not_calls() {
        let files = vec![parse(
            "crates/core/src/w.rs",
            "pub enum E { V(u32) }\npub struct T(u32);\npub fn f() -> (E, T, Option<u32>) { let v = vec![1]; let _ = v; (E::V(1), T(2), Some(3)) }\n",
        )];
        let g = build(&files);
        assert_eq!(g.report.calls_unresolved, 0, "{:?}", g.report);
        assert_eq!(g.report.calls_construction, 3);
        assert_eq!(g.report.calls_resolved, 0);
    }

    #[test]
    fn self_calls_resolve_within_impl() {
        let files = vec![parse(
            "crates/obs/src/r.rs",
            "pub struct R;\nimpl R { fn helper() {} pub fn run() { Self::helper(); } }\n",
        )];
        let g = build(&files);
        let run = node(&g, "R::run");
        let h = node(&g, "R::helper");
        assert_eq!(g.callees[run], vec![h]);
    }

    #[test]
    fn unresolved_bucket_reports_closure_calls() {
        let files = vec![parse(
            "crates/core/src/c.rs",
            "pub fn f() { let g = |x: u32| x + 1; let _ = g(1); }\n",
        )];
        let g = build(&files);
        assert_eq!(g.report.calls_unresolved, 1);
        assert_eq!(g.report.unresolved_sample.len(), 1);
        assert_eq!(g.report.unresolved_sample[0].path, "g");
    }

    #[test]
    fn owner_of_maps_tokens_to_fns() {
        let files = vec![parse(
            "crates/core/src/o.rs",
            "pub fn a() { let x = 1; }\npub fn b() { let y = 2; }\n",
        )];
        let g = build(&files);
        let pf = &files[0];
        let y_idx = pf.code.iter().position(|t| t.is_ident("y")).unwrap();
        let owner = g.owner_of(0, y_idx).unwrap();
        assert!(g.nodes[owner].key.ends_with("core::b"));
    }

    #[test]
    fn closures_reach_transitively() {
        let files = vec![parse(
            "crates/core/src/t.rs",
            "pub fn a() { b(); }\nfn b() { c(); }\nfn c() {}\nfn lonely() {}\n",
        )];
        let g = build(&files);
        let a = node(&g, "core::a");
        let c = node(&g, "core::c");
        let lonely = node(&g, "core::lonely");
        let fwd = g.reachable_from(&[a]);
        assert!(fwd[c] && !fwd[lonely]);
        let back = g.callers_of(&[c]);
        assert!(back[a] && !back[lonely]);
    }
}
