//! Cross-artifact drift auditors.
//!
//! The TraceEvent schema, the CLI surface, and the BENCH report schema
//! each live in several hand-synchronized places. These auditors parse the
//! actual artifacts (source files, markdown, committed JSON) and fail when
//! any copy falls out of step. They take file *contents*, not paths, so
//! tests can feed mutated copies and prove the gate trips.

use crate::diag::Diagnostic;
use crate::lexer::{tokenize, Tok, TokKind};

/// Variant names of a `pub enum <name>` declared in `src`.
#[must_use]
pub fn enum_variants(src: &str, enum_name: &str) -> Vec<String> {
    let toks: Vec<Tok> = tokenize(src)
        .into_iter()
        .filter(|t| !t.is_comment())
        .collect();
    let mut out = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if toks[i].is_ident("enum") && toks.get(i + 1).is_some_and(|t| t.is_ident(enum_name)) {
            // Skip generics to the opening brace.
            let mut j = i + 2;
            while j < toks.len() && !toks[j].is_punct("{") {
                j += 1;
            }
            let mut depth = 0i32;
            let mut expect_variant = true;
            while j < toks.len() {
                let t = &toks[j];
                if t.is_punct("{") || t.is_punct("(") {
                    depth += 1;
                    if depth > 1 {
                        expect_variant = false;
                    }
                } else if t.is_punct("}") || t.is_punct(")") {
                    depth -= 1;
                    if depth == 0 && t.is_punct("}") {
                        return out;
                    }
                } else if depth == 1 {
                    if t.is_punct(",") {
                        expect_variant = true;
                    } else if t.is_punct("#") {
                        // Variant attribute: skip its [ … ] group.
                        let mut d = 0i32;
                        j += 1;
                        while j < toks.len() {
                            if toks[j].is_punct("[") {
                                d += 1;
                            } else if toks[j].is_punct("]") {
                                d -= 1;
                                if d == 0 {
                                    break;
                                }
                            }
                            j += 1;
                        }
                    } else if expect_variant && t.kind == TokKind::Ident {
                        out.push(t.text.clone());
                        expect_variant = false;
                    }
                }
                j += 1;
            }
            return out;
        }
        i += 1;
    }
    out
}

/// Field names of `pub struct <name> { pub field: … }` declared in `src`.
#[must_use]
pub fn struct_fields(src: &str, struct_name: &str) -> Vec<String> {
    let toks: Vec<Tok> = tokenize(src)
        .into_iter()
        .filter(|t| !t.is_comment())
        .collect();
    let mut out = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if toks[i].is_ident("struct") && toks.get(i + 1).is_some_and(|t| t.is_ident(struct_name)) {
            let mut j = i + 2;
            while j < toks.len() && !toks[j].is_punct("{") {
                j += 1;
            }
            let mut depth = 0i32;
            while j < toks.len() {
                let t = &toks[j];
                if t.is_punct("{") || t.is_punct("(") || t.is_punct("<") {
                    depth += 1;
                } else if t.is_punct("}") || t.is_punct(")") || t.is_punct(">") {
                    depth -= 1;
                    if depth == 0 && t.is_punct("}") {
                        return out;
                    }
                } else if depth == 1
                    && t.is_ident("pub")
                    && toks.get(j + 1).map(|n| n.kind.clone()) == Some(TokKind::Ident)
                    && toks.get(j + 2).is_some_and(|n| n.is_punct(":"))
                {
                    out.push(toks[j + 1].text.clone());
                }
                j += 1;
            }
            return out;
        }
        i += 1;
    }
    out
}

/// Whether the token sequence `Path :: name` occurs anywhere in `src`
/// (comments excluded, so a commented-out match arm does not count).
#[must_use]
pub fn mentions_path(src: &str, head: &str, name: &str) -> bool {
    let toks: Vec<Tok> = tokenize(src)
        .into_iter()
        .filter(|t| !t.is_comment())
        .collect();
    toks.windows(3)
        .any(|w| w[0].is_ident(head) && w[1].is_punct("::") && w[2].is_ident(name))
}

/// Whether `ident` occurs as a code identifier in `src`.
#[must_use]
pub fn mentions_ident(src: &str, ident: &str) -> bool {
    tokenize(src)
        .iter()
        .any(|t| !t.is_comment() && t.is_ident(ident))
}

/// Audits the TraceEvent pipeline: every variant declared in `event.rs`
/// must be consumed by the replay checker (`replay.rs`) and folded into
/// metrics by the recorder (`recorder.rs`), whose fields in turn must all
/// be encoded by the Prometheus encoder (`prometheus.rs`). Together these
/// guarantee a new event kind cannot silently skip replay or exposition.
#[must_use]
pub fn audit_trace_schema(
    event_rs: &str,
    replay_rs: &str,
    recorder_rs: &str,
    prometheus_rs: &str,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let variants = enum_variants(event_rs, "TraceEvent");
    if variants.is_empty() {
        out.push(Diagnostic::error(
            "drift/trace-schema",
            "crates/obs/src/event.rs",
            0,
            "could not find any TraceEvent variants (parser drift?)",
        ));
        return out;
    }
    for v in &variants {
        for (file, src, role) in [
            ("crates/obs/src/replay.rs", replay_rs, "replay checker"),
            (
                "crates/obs/src/recorder.rs",
                recorder_rs,
                "metrics recorder",
            ),
        ] {
            if !mentions_path(src, "TraceEvent", v) {
                out.push(Diagnostic::error(
                    "drift/trace-schema",
                    file,
                    0,
                    format!(
                        "TraceEvent::{v} is declared in event.rs but never matched by the {role}"
                    ),
                ));
            }
        }
        // `kind()` must name the variant as a string for trace tooling.
        if !event_rs.contains(&format!("\"{v}\"")) {
            out.push(Diagnostic::error(
                "drift/trace-schema",
                "crates/obs/src/event.rs",
                0,
                format!("TraceEvent::{v} has no string name in kind()"),
            ));
        }
    }
    for f in struct_fields(recorder_rs, "Metrics") {
        if !mentions_ident(prometheus_rs, &f) {
            out.push(Diagnostic::error(
                "drift/prometheus",
                "crates/obs/src/prometheus.rs",
                0,
                format!("Metrics::{f} is recorded but never encoded in the Prometheus exposition"),
            ));
        }
    }
    out
}

/// Subcommand names dispatched by `commands.rs` (string-literal match arms
/// of the `dispatch` function, aliases like `--help`/`-h` excluded).
#[must_use]
pub fn cli_subcommands(commands_rs: &str) -> Vec<String> {
    let toks: Vec<Tok> = tokenize(commands_rs)
        .into_iter()
        .filter(|t| !t.is_comment())
        .collect();
    // Find `match cmd . as_str ( ) {` and walk its arms.
    let mut out = Vec::new();
    for i in 0..toks.len() {
        if !(toks[i].is_ident("match") && toks.get(i + 1).is_some_and(|t| t.is_ident("cmd"))) {
            continue;
        }
        let mut j = i;
        while j < toks.len() && !toks[j].is_punct("{") {
            j += 1;
        }
        let mut depth = 0i32;
        while j < toks.len() {
            let t = &toks[j];
            if t.is_punct("{") {
                depth += 1;
            } else if t.is_punct("}") {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            } else if depth == 1 && t.kind == TokKind::Str {
                // Arm pattern literal: `"gen" =>` or `"help" | "--help"`.
                let is_pattern = toks
                    .get(j + 1)
                    .is_some_and(|n| n.is_punct("=>") || n.is_punct("|"))
                    || j > 0 && toks[j - 1].is_punct("|");
                let name = t.text.trim_matches('"').to_string();
                if is_pattern && !name.starts_with('-') && !out.contains(&name) {
                    out.push(name);
                }
            }
            j += 1;
        }
        break;
    }
    out
}

/// Subcommands documented in a usage/README text: occurrences of
/// `bshm <word>` (word of lowercase letters and dashes).
#[must_use]
pub fn documented_subcommands(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    for chunk in text.split("bshm").skip(1) {
        let rest = chunk.trim_start_matches([' ', '\t']);
        if rest.len() == chunk.len() {
            continue; // not followed by whitespace: `bshm-core` etc.
        }
        let word: String = rest
            .chars()
            .take_while(|c| c.is_ascii_lowercase() || *c == '-')
            .collect();
        if !word.is_empty() && !word.starts_with('-') && !out.contains(&word) {
            out.push(word);
        }
    }
    out
}

/// The string literal assigned to `const USAGE` in `commands.rs`.
#[must_use]
pub fn usage_literal(commands_rs: &str) -> String {
    let toks = tokenize(commands_rs);
    for (i, t) in toks.iter().enumerate() {
        if t.is_ident("USAGE") {
            if let Some(s) = toks[i..].iter().find(|t| t.kind == TokKind::Str) {
                // Undo the `\` line continuations of the raw source text.
                return s.text.replace("\\\n", "\n").replace("\\n", "\n");
            }
        }
    }
    String::new()
}

/// Audits the CLI surface: every dispatched subcommand must appear in the
/// USAGE string and in the README, and vice versa (no documented command
/// that the dispatcher rejects). `args.rs`'s boolean switches must be
/// spelled in USAGE too, so `--metrics`-style flags stay documented.
#[must_use]
pub fn audit_cli(commands_rs: &str, args_rs: &str, readme: &str) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let dispatched = cli_subcommands(commands_rs);
    if dispatched.is_empty() {
        out.push(Diagnostic::error(
            "drift/cli",
            "crates/cli/src/commands.rs",
            0,
            "could not find the dispatch match (parser drift?)",
        ));
        return out;
    }
    let usage = usage_literal(commands_rs);
    let in_usage = documented_subcommands(&usage);
    let in_readme = documented_subcommands(readme);
    for c in &dispatched {
        if c == "help" {
            continue; // `bshm help` is the usage screen itself
        }
        if !in_usage.contains(c) {
            out.push(Diagnostic::error(
                "drift/cli",
                "crates/cli/src/commands.rs",
                0,
                format!("subcommand `{c}` is dispatched but missing from the USAGE string"),
            ));
        }
        if !in_readme.contains(c) {
            out.push(Diagnostic::error(
                "drift/cli",
                "README.md",
                0,
                format!("subcommand `{c}` is dispatched but never shown in README"),
            ));
        }
    }
    for c in in_usage.iter().chain(&in_readme) {
        if !dispatched.contains(c) && c != "help" {
            out.push(Diagnostic::error(
                "drift/cli",
                "crates/cli/src/commands.rs",
                0,
                format!("documented subcommand `{c}` is not handled by dispatch"),
            ));
        }
    }
    // Boolean switches declared in args.rs must be documented in USAGE.
    let toks = tokenize(args_rs);
    for (i, t) in toks.iter().enumerate() {
        if t.is_ident("BOOLEAN_FLAGS") {
            for s in toks[i..].iter().take_while(|t| !t.is_punct(";")) {
                if s.kind == TokKind::Str {
                    let flag = format!("--{}", s.text.trim_matches('"'));
                    if !usage.contains(&flag) {
                        out.push(Diagnostic::error(
                            "drift/cli",
                            "crates/cli/src/args.rs",
                            s.line,
                            format!("boolean switch `{flag}` is not documented in USAGE"),
                        ));
                    }
                }
            }
            break;
        }
    }
    out
}

/// Slugs of every drift auditor, used by `--list-rules`, pragma-name
/// validation, and the committed `ANALYZE_RULES.json` manifest.
pub const DRIFT_AUDITORS: [&str; 5] = [
    "drift/trace-schema",
    "drift/prometheus",
    "drift/cli",
    "drift/bench-schema",
    "drift/rules-manifest",
];

/// Extracts the string array stored under `"key"` in a JSON document.
/// Same shallow string-extraction style as the other auditors — enough
/// for the flat manifest format, with no dependence on a deserializer.
#[must_use]
pub fn json_string_array(json: &str, key: &str) -> Option<Vec<String>> {
    let rest = json.split(&format!("\"{key}\"")).nth(1)?;
    let start = rest.find('[')?;
    let end = start + rest[start..].find(']')?;
    Some(
        rest[start + 1..end]
            .split(',')
            .map(|s| s.trim().trim_matches('"'))
            .filter(|s| !s.is_empty())
            .map(str::to_string)
            .collect(),
    )
}

/// Audits the rule registry against its committed manifest and docs:
/// `ANALYZE_RULES.json` must list exactly the registered rules and drift
/// auditors (name/count/order drift trips the build, same pattern as the
/// schema auditors), and every rule name must appear in the EXPERIMENTS.md
/// taxonomy table *and* in the `reproduce` generator's static text, so
/// regenerating the docs can never silently drop the taxonomy.
#[must_use]
pub fn audit_rules_manifest(
    manifest_json: &str,
    experiments_md: &str,
    reproduce_rs: &str,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let expected_rules: Vec<&str> = crate::rules::RULES.iter().map(|r| r.name).collect();
    let sections: [(&str, &[&str]); 2] = [
        ("rules", &expected_rules),
        ("drift_auditors", &DRIFT_AUDITORS),
    ];
    for (key, expected) in sections {
        let Some(listed) = json_string_array(manifest_json, key) else {
            out.push(Diagnostic::error(
                "drift/rules-manifest",
                "ANALYZE_RULES.json",
                0,
                format!("manifest has no `{key}` array; regenerate it from `--list-rules`"),
            ));
            continue;
        };
        for e in expected {
            if !listed.iter().any(|l| l == e) {
                out.push(Diagnostic::error(
                    "drift/rules-manifest",
                    "ANALYZE_RULES.json",
                    0,
                    format!("`{e}` is registered but missing from the manifest's `{key}` array"),
                ));
            }
        }
        for l in &listed {
            if !expected.contains(&l.as_str()) {
                out.push(Diagnostic::error(
                    "drift/rules-manifest",
                    "ANALYZE_RULES.json",
                    0,
                    format!("manifest `{key}` lists `{l}`, which is not registered"),
                ));
            }
        }
        if out.is_empty() && listed != *expected {
            out.push(Diagnostic::error(
                "drift/rules-manifest",
                "ANALYZE_RULES.json",
                0,
                format!("manifest `{key}` order differs from the registry"),
            ));
        }
    }
    for name in &expected_rules {
        let span = format!("`{name}`");
        if !experiments_md.contains(&span) {
            out.push(Diagnostic::error(
                "drift/rules-manifest",
                "EXPERIMENTS.md",
                0,
                format!("rule {span} is missing from the EXPERIMENTS.md rule-taxonomy table"),
            ));
        }
        if !reproduce_rs.contains(&span) {
            out.push(Diagnostic::error(
                "drift/rules-manifest",
                "crates/bench/src/bin/reproduce.rs",
                0,
                format!(
                    "rule {span} is missing from the reproduce generator's taxonomy section; regenerated docs would drop it"
                ),
            ));
        }
    }
    out
}

/// Extracts `pub const SCHEMA_VERSION: u64 = N` from `baseline.rs`.
#[must_use]
pub fn bench_schema_version(baseline_rs: &str) -> Option<u64> {
    let toks: Vec<Tok> = tokenize(baseline_rs)
        .into_iter()
        .filter(|t| !t.is_comment())
        .collect();
    for (i, t) in toks.iter().enumerate() {
        if t.is_ident("SCHEMA_VERSION") {
            return toks[i..]
                .iter()
                .take_while(|t| !t.is_punct(";"))
                .find(|t| t.kind == TokKind::Int)
                .and_then(|t| t.text.parse().ok());
        }
    }
    None
}

/// Audits the bench report schema: the `SCHEMA_VERSION` constant in
/// `bench/src/baseline.rs` must match the version EXPERIMENTS.md documents
/// (as `schema_version = N`).
#[must_use]
pub fn audit_bench_schema(baseline_rs: &str, experiments_md: &str) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let Some(version) = bench_schema_version(baseline_rs) else {
        out.push(Diagnostic::error(
            "drift/bench-schema",
            "crates/bench/src/baseline.rs",
            0,
            "could not find SCHEMA_VERSION constant (parser drift?)",
        ));
        return out;
    };
    let documented = experiments_md
        .split("schema_version = ")
        .nth(1)
        .map(|rest| {
            rest.chars()
                .take_while(char::is_ascii_digit)
                .collect::<String>()
        })
        .and_then(|s| s.parse::<u64>().ok());
    match documented {
        Some(d) if d == version => {}
        Some(d) => out.push(Diagnostic::error(
            "drift/bench-schema",
            "EXPERIMENTS.md",
            0,
            format!("EXPERIMENTS.md documents schema_version = {d} but baseline.rs says {version}"),
        )),
        None => out.push(Diagnostic::error(
            "drift/bench-schema",
            "EXPERIMENTS.md",
            0,
            format!("EXPERIMENTS.md does not state `schema_version = {version}` (add it so readers know which schema the docs describe)"),
        )),
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const EVENT: &str = r#"
        pub enum TraceEvent {
            Arrival { t: u64, size: u64 },
            #[serde(rename = "open")]
            MachineOpen { t: u64 },
            Departure { t: u64 },
        }
        impl TraceEvent {
            pub fn kind(&self) -> &'static str {
                match self {
                    TraceEvent::Arrival { .. } => "Arrival",
                    TraceEvent::MachineOpen { .. } => "MachineOpen",
                    TraceEvent::Departure { .. } => "Departure",
                }
            }
        }
    "#;

    #[test]
    fn enum_variant_extraction() {
        assert_eq!(
            enum_variants(EVENT, "TraceEvent"),
            ["Arrival", "MachineOpen", "Departure"]
        );
        assert!(enum_variants(EVENT, "Nope").is_empty());
    }

    #[test]
    fn struct_field_extraction() {
        let src =
            "pub struct Metrics { pub arrivals: u64, hidden: u64, pub cost_by_type: Vec<u64>, }";
        assert_eq!(struct_fields(src, "Metrics"), ["arrivals", "cost_by_type"]);
    }

    #[test]
    fn trace_schema_clean_when_all_mentioned() {
        let consumer = "fn f(e: &TraceEvent) { match e { TraceEvent::Arrival{..} => 1, TraceEvent::MachineOpen{..} => 2, TraceEvent::Departure{..} => 3 }; }";
        let prom = "fn encode(metrics: &Metrics) { metrics.arrivals; }";
        let recorder = format!("{consumer} pub struct Metrics {{ pub arrivals: u64 }}");
        let d = audit_trace_schema(EVENT, consumer, &recorder, prom);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn trace_schema_catches_missing_variant() {
        // Replay handles only two of the three variants.
        let partial = "fn f(e: &TraceEvent) { match e { TraceEvent::Arrival{..} => 1, TraceEvent::Departure{..} => 3, _ => 0 }; }";
        let full = "fn f(e: &TraceEvent) { TraceEvent::Arrival; TraceEvent::MachineOpen; TraceEvent::Departure; } pub struct Metrics {}";
        let d = audit_trace_schema(EVENT, partial, full, "");
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("MachineOpen"));
        assert!(d[0].file.contains("replay"));
    }

    #[test]
    fn trace_schema_catches_unencoded_metric_field() {
        let consumer = "fn f(e: &TraceEvent) { TraceEvent::Arrival; TraceEvent::MachineOpen; TraceEvent::Departure; }";
        let recorder =
            format!("{consumer} pub struct Metrics {{ pub arrivals: u64, pub new_field: u64 }}");
        let prom = "fn encode(m: &Metrics) { m.arrivals; }";
        let d = audit_trace_schema(EVENT, consumer, &recorder, prom);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("new_field"));
    }

    const COMMANDS: &str = r#"
        const USAGE: &str = "USAGE: bshm gen --n N\n  bshm solve --alg X\n";
        pub fn dispatch(cmd: &str) {
            match cmd.as_str() {
                "gen" => 1,
                "solve" => 2,
                "help" | "--help" | "-h" => 3,
                other => 4,
            };
        }
    "#;

    #[test]
    fn cli_subcommand_extraction() {
        assert_eq!(cli_subcommands(COMMANDS), ["gen", "solve", "help"]);
    }

    #[test]
    fn cli_clean_when_in_sync() {
        let readme = "Run `bshm gen` then `bshm solve`.";
        let args = "const BOOLEAN_FLAGS: &[&str] = &[];";
        let d = audit_cli(COMMANDS, args, readme);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn cli_catches_undocumented_subcommand() {
        let readme = "Run `bshm gen` only.";
        let args = "const BOOLEAN_FLAGS: &[&str] = &[];";
        let d = audit_cli(COMMANDS, args, readme);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("`solve`"));
        assert!(d[0].file.contains("README"));
    }

    #[test]
    fn cli_catches_phantom_documented_subcommand() {
        let readme = "Run `bshm gen`, `bshm solve` and `bshm frobnicate`.";
        let args = "const BOOLEAN_FLAGS: &[&str] = &[];";
        let d = audit_cli(COMMANDS, args, readme);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("frobnicate"));
    }

    #[test]
    fn cli_catches_undocumented_boolean_flag() {
        let readme = "`bshm gen` and `bshm solve`.";
        let args = r#"const BOOLEAN_FLAGS: &[&str] = &["metrics"];"#;
        let d = audit_cli(COMMANDS, args, readme);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("--metrics"));
    }

    #[test]
    fn bench_schema_version_extraction() {
        assert_eq!(
            bench_schema_version("pub const SCHEMA_VERSION: u64 = 3;"),
            Some(3)
        );
        assert_eq!(bench_schema_version("fn nope() {}"), None);
    }

    #[test]
    fn bench_schema_audit() {
        let rs = "pub const SCHEMA_VERSION: u64 = 1;";
        let md_ok = "The report schema is `schema_version = 1`.";
        let md_stale = "The report schema is `schema_version = 9`.";
        assert!(audit_bench_schema(rs, md_ok).is_empty());
        let d = audit_bench_schema(rs, md_stale);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("documents schema_version = 9"));
        let d = audit_bench_schema(rs, "no mention");
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("does not state"));
    }

    fn full_manifest() -> String {
        let rules: Vec<String> = crate::rules::RULES
            .iter()
            .map(|r| format!("\"{}\"", r.name))
            .collect();
        let auds: Vec<String> = DRIFT_AUDITORS.iter().map(|a| format!("\"{a}\"")).collect();
        format!(
            "{{\n  \"rules\": [{}],\n  \"drift_auditors\": [{}]\n}}\n",
            rules.join(", "),
            auds.join(", ")
        )
    }

    fn full_taxonomy() -> String {
        crate::rules::RULES
            .iter()
            .map(|r| format!("| `{}` | x |\n", r.name))
            .collect()
    }

    #[test]
    fn json_string_array_extraction() {
        let j = "{\"rules\": [\"a\", \"b\"], \"other\": []}";
        assert_eq!(json_string_array(j, "rules").unwrap(), ["a", "b"]);
        assert_eq!(json_string_array(j, "other").unwrap(), Vec::<String>::new());
        assert!(json_string_array(j, "missing").is_none());
    }

    #[test]
    fn rules_manifest_clean_when_in_sync() {
        let tax = full_taxonomy();
        let d = audit_rules_manifest(&full_manifest(), &tax, &tax);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn rules_manifest_catches_missing_and_unknown_rules() {
        let tax = full_taxonomy();
        // Drop one registered rule from the manifest.
        let missing = full_manifest().replace("\"no-raw-metric\", ", "");
        let d = audit_rules_manifest(&missing, &tax, &tax);
        assert!(
            d.iter().any(|d| d.message.contains("`no-raw-metric`")
                && d.message.contains("missing from the manifest")),
            "{d:?}"
        );
        // Add a rule the registry does not know.
        let phantom =
            full_manifest().replace("\"no-raw-metric\"", "\"no-raw-metric\", \"made-up\"");
        let d = audit_rules_manifest(&phantom, &tax, &tax);
        assert!(
            d.iter()
                .any(|d| d.message.contains("`made-up`") && d.message.contains("not registered")),
            "{d:?}"
        );
        // No rules array at all.
        let d = audit_rules_manifest("{}", &tax, &tax);
        assert!(d.iter().any(|d| d.message.contains("no `rules` array")));
    }

    #[test]
    fn rules_manifest_catches_doc_and_generator_drift() {
        let tax = full_taxonomy();
        let gutted = tax.replace("`no-untyped-reject`", "`no–untyped-reject`");
        let d = audit_rules_manifest(&full_manifest(), &gutted, &tax);
        assert!(
            d.iter()
                .any(|d| d.file == "EXPERIMENTS.md" && d.message.contains("`no-untyped-reject`")),
            "{d:?}"
        );
        let d = audit_rules_manifest(&full_manifest(), &tax, &gutted);
        assert!(d.iter().any(|d| d.file.contains("reproduce.rs")), "{d:?}");
    }

    #[test]
    fn documented_subcommands_ignore_crate_names() {
        let text = "bshm-core is a crate; run bshm gen or\nbshm   solve.";
        assert_eq!(documented_subcommands(text), ["gen", "solve"]);
    }
}
