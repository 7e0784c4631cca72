//! Diagnostics, severities, and the `bshm-allow` pragma machinery.

use crate::lexer::Tok;
use serde::Serialize;
use std::collections::BTreeMap;
use std::fmt;

/// How bad a finding is. `Error`s gate CI; `Warning`s are advisory.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Serialize)]
pub enum Severity {
    /// Advisory: reported, does not fail the run.
    Warning,
    /// Gating: any error makes the analyzer exit non-zero.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// One finding: rule, where, what.
#[derive(Clone, Debug, Serialize)]
pub struct Diagnostic {
    /// Rule slug (`no-raw-metric`, `drift/trace-schema`, …).
    pub rule: String,
    /// Severity of this finding.
    pub severity: Severity,
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line (0 for whole-file/cross-file findings).
    pub line: u32,
    /// Human explanation with the offending snippet.
    pub message: String,
}

impl Diagnostic {
    /// Builds an error-severity diagnostic.
    #[must_use]
    pub fn error(rule: &str, file: &str, line: u32, message: impl Into<String>) -> Self {
        Diagnostic {
            rule: rule.to_string(),
            severity: Severity::Error,
            file: file.to_string(),
            line,
            message: message.into(),
        }
    }

    /// Builds a warning-severity diagnostic.
    #[must_use]
    pub fn warning(rule: &str, file: &str, line: u32, message: impl Into<String>) -> Self {
        Diagnostic {
            severity: Severity::Warning,
            ..Diagnostic::error(rule, file, line, message)
        }
    }

    /// `file:line: severity[rule] message` (line elided when 0).
    #[must_use]
    pub fn render(&self) -> String {
        if self.line == 0 {
            format!(
                "{}: {}[{}] {}",
                self.file, self.severity, self.rule, self.message
            )
        } else {
            format!(
                "{}:{}: {}[{}] {}",
                self.file, self.line, self.severity, self.rule, self.message
            )
        }
    }
}

/// A parsed `// bshm-allow(rule): reason` pragma.
///
/// A pragma suppresses diagnostics of `rule` on its own line, and — when
/// the comment stands alone on its line — on the next source line too, so
/// both trailing and preceding placements work:
///
/// ```text
/// m.ops += 1; // bshm-allow(no-raw-metric): the one sanctioned fold
/// // bshm-allow(no-raw-metric): the one sanctioned fold
/// m.ops += 1;
/// ```
#[derive(Clone, Debug)]
pub struct Pragma {
    /// The rule slug being allowed.
    pub rule: String,
    /// The justification after the colon (must be non-empty).
    pub reason: String,
    /// Line of the comment itself.
    pub line: u32,
    /// Lines the pragma covers (the comment line, plus the following line
    /// for standalone comments).
    pub covers: Vec<u32>,
}

/// Extracts `bshm-allow` pragmas from a token stream.
///
/// Malformed pragmas (missing rule parens or empty reason) are reported as
/// `pragma-syntax` errors rather than silently ignored — a pragma that
/// does not parse must not look like it is suppressing anything.
#[must_use]
pub fn collect_pragmas(toks: &[Tok], file: &str) -> (Vec<Pragma>, Vec<Diagnostic>) {
    let mut pragmas = Vec::new();
    let mut diags = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if !t.is_comment() || !t.text.contains("bshm-allow") {
            continue;
        }
        // Only plain comments carry pragmas: doc comments (`///`, `//!`,
        // `/**`, `/*!`) merely *talk about* them, as this file does.
        let doc = ["///", "//!", "/**", "/*!"]
            .iter()
            .any(|p| t.text.starts_with(p));
        if doc {
            continue;
        }
        let Some(rest) = t.text.split("bshm-allow").nth(1) else {
            continue;
        };
        let parsed = rest
            .strip_prefix('(')
            .and_then(|r| r.split_once(')'))
            .and_then(|(rule, after)| {
                let reason = after.strip_prefix(':')?.trim();
                (!rule.trim().is_empty() && !reason.is_empty())
                    .then(|| (rule.trim().to_string(), reason.to_string()))
            });
        let Some((rule, reason)) = parsed else {
            diags.push(Diagnostic::error(
                "pragma-syntax",
                file,
                t.line,
                "malformed pragma: expected `bshm-allow(rule): reason` with a non-empty reason",
            ));
            continue;
        };
        // Standalone comment (no code token earlier on its line) also
        // covers the next token's line.
        let standalone = !toks[..i]
            .iter()
            .rev()
            .take_while(|p| p.line == t.line)
            .any(|p| !p.is_comment());
        let mut covers = vec![t.line];
        if standalone {
            if let Some(next) = toks[i + 1..].iter().find(|n| !n.is_comment()) {
                covers.push(next.line);
            }
        }
        pragmas.push(Pragma {
            rule,
            reason,
            line: t.line,
            covers,
        });
    }
    (pragmas, diags)
}

/// Whether `name` names something a pragma can suppress: a registered
/// rule, a drift auditor slug, or the blanket `all`.
#[must_use]
pub fn known_rule(name: &str) -> bool {
    name == "all"
        || crate::rules::RULES.iter().any(|r| r.name == name)
        || crate::drift::DRIFT_AUDITORS.contains(&name)
}

/// Applies pragmas to raw findings: covered findings are dropped, pragmas
/// that cover nothing are reported as `pragma-unused` warnings so stale
/// suppressions do not accumulate, and a pragma naming a rule the registry
/// has never heard of gets `pragma-unknown-rule` instead (a typo'd slug
/// must not read as a merely-stale suppression).
#[must_use]
pub fn apply_pragmas(findings: Vec<Diagnostic>, pragmas: &[Pragma], file: &str) -> Vec<Diagnostic> {
    let mut used = vec![false; pragmas.len()];
    let mut out: Vec<Diagnostic> = findings
        .into_iter()
        .filter(|d| {
            let hit = pragmas
                .iter()
                .position(|p| (p.rule == d.rule || p.rule == "all") && p.covers.contains(&d.line));
            if let Some(i) = hit {
                used[i] = true;
            }
            hit.is_none()
        })
        .collect();
    for (p, used) in pragmas.iter().zip(used) {
        if !known_rule(&p.rule) {
            out.push(Diagnostic::warning(
                "pragma-unknown-rule",
                file,
                p.line,
                format!(
                    "bshm-allow({}) names a rule the registry does not know; run `--list-rules` for valid slugs",
                    p.rule
                ),
            ));
        } else if !used {
            out.push(Diagnostic::warning(
                "pragma-unused",
                file,
                p.line,
                format!(
                    "bshm-allow({}) suppresses nothing on the lines it covers",
                    p.rule
                ),
            ));
        }
    }
    out
}

/// The full analysis result, serializable as the CI artifact.
#[derive(Debug, Default, Serialize)]
pub struct Report {
    /// Every finding that survived pragma filtering, in path/line order.
    pub diagnostics: Vec<Diagnostic>,
    /// Files scanned by the lint rules.
    pub files_scanned: usize,
    /// Count of error-severity findings.
    pub errors: usize,
    /// Count of warning-severity findings.
    pub warnings: usize,
}

impl Report {
    /// Builds a report from findings, computing the counts and ordering.
    #[must_use]
    pub fn new(mut diagnostics: Vec<Diagnostic>, files_scanned: usize) -> Self {
        diagnostics.sort_by(|a, b| (&a.file, a.line, &a.rule).cmp(&(&b.file, b.line, &b.rule)));
        let errors = diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count();
        let warnings = diagnostics.len() - errors;
        Report {
            diagnostics,
            files_scanned,
            errors,
            warnings,
        }
    }

    /// Human-readable rendering: findings then a per-rule summary line.
    #[must_use]
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&d.render());
            out.push('\n');
        }
        let mut by_rule: BTreeMap<&str, usize> = BTreeMap::new();
        for d in &self.diagnostics {
            *by_rule.entry(&d.rule).or_default() += 1;
        }
        if !by_rule.is_empty() {
            out.push('\n');
            for (rule, n) in by_rule {
                out.push_str(&format!("  {rule}: {n}\n"));
            }
        }
        out.push_str(&format!(
            "bshm-analyze: {} file(s) scanned, {} error(s), {} warning(s)\n",
            self.files_scanned, self.errors, self.warnings
        ));
        out
    }

    /// JSON rendering (the CI artifact format).
    ///
    /// # Errors
    /// Propagates serializer failure (should not happen for this type).
    pub fn render_json(&self) -> Result<String, String> {
        serde_json::to_string_pretty(self).map_err(|e| format!("serializing report: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::tokenize;

    #[test]
    fn trailing_pragma_covers_own_line() {
        let toks = tokenize("m.ops += 1; // bshm-allow(no-raw-metric): the one sanctioned fold\n");
        let (pragmas, diags) = collect_pragmas(&toks, "f.rs");
        assert!(diags.is_empty());
        assert_eq!(pragmas.len(), 1);
        assert_eq!(pragmas[0].rule, "no-raw-metric");
        assert_eq!(pragmas[0].covers, vec![1]);
    }

    #[test]
    fn standalone_pragma_covers_next_line() {
        let toks = tokenize(
            "// bshm-allow(no-unbounded-buffer): bounded by the caller\nlet q = VecDeque::new();\n",
        );
        let (pragmas, _) = collect_pragmas(&toks, "f.rs");
        assert_eq!(pragmas[0].covers, vec![1, 2]);
    }

    #[test]
    fn malformed_pragma_is_reported() {
        for bad in [
            "// bshm-allow(no-raw-metric)\n",     // no reason
            "// bshm-allow(no-raw-metric):\n",    // empty reason
            "// bshm-allow no-raw-metric: why\n", // no parens
        ] {
            let toks = tokenize(bad);
            let (pragmas, diags) = collect_pragmas(&toks, "f.rs");
            assert!(pragmas.is_empty(), "{bad}");
            assert_eq!(diags.len(), 1, "{bad}");
            assert_eq!(diags[0].rule, "pragma-syntax", "{bad}");
        }
    }

    #[test]
    fn doc_comments_do_not_carry_pragmas() {
        // Doc text *describing* the pragma syntax (as this module's own
        // docs do) must neither suppress anything nor count as malformed.
        for doc in [
            "/// Write `// bshm-allow` to suppress\nfn f() {}\n",
            "//! bshm-allow(no-raw-metric): looks real but is documentation\nfn f() {}\n",
            "/** bshm-allow stuff */\nfn f() {}\n",
        ] {
            let toks = tokenize(doc);
            let (pragmas, diags) = collect_pragmas(&toks, "f.rs");
            assert!(pragmas.is_empty(), "{doc}");
            assert!(diags.is_empty(), "{doc}");
        }
    }

    #[test]
    fn apply_drops_covered_and_flags_unused() {
        let toks = tokenize(
            "m.ops += 1; // bshm-allow(no-raw-metric): fine\n// bshm-allow(no-raw-metric): stale\nlet a = 1;\n",
        );
        let (pragmas, _) = collect_pragmas(&toks, "f.rs");
        let findings = vec![Diagnostic::error("no-raw-metric", "f.rs", 1, "raw write")];
        let out = apply_pragmas(findings, &pragmas, "f.rs");
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rule, "pragma-unused");
        assert_eq!(out[0].line, 2);
    }

    #[test]
    fn unknown_rule_pragma_is_flagged_as_such() {
        let toks = tokenize("let x = 1; // bshm-allow(no-pnaic): typo'd slug\n");
        let (pragmas, diags) = collect_pragmas(&toks, "f.rs");
        assert!(diags.is_empty());
        let out = apply_pragmas(Vec::new(), &pragmas, "f.rs");
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].rule, "pragma-unknown-rule");
        // Known-but-idle pragmas still read as stale, not unknown.
        let toks = tokenize("let x = 1; // bshm-allow(no-raw-metric): nothing here\n");
        let (pragmas, _) = collect_pragmas(&toks, "f.rs");
        let out = apply_pragmas(Vec::new(), &pragmas, "f.rs");
        assert_eq!(out[0].rule, "pragma-unused");
        // Drift slugs and `all` are known names.
        assert!(known_rule("all"));
        assert!(known_rule("drift/rules-manifest"));
        assert!(known_rule("no-raw-metric"));
        assert!(!known_rule("no-pnaic"));
    }

    #[test]
    fn report_counts_and_renders() {
        let r = Report::new(
            vec![
                Diagnostic::error("no-raw-metric", "b.rs", 3, "x"),
                Diagnostic::warning("pragma-unused", "a.rs", 1, "y"),
            ],
            2,
        );
        assert_eq!(r.errors, 1);
        assert_eq!(r.warnings, 1);
        // Sorted by file.
        assert_eq!(r.diagnostics[0].file, "a.rs");
        let text = r.render_human();
        assert!(text.contains("b.rs:3: error[no-raw-metric]"));
        assert!(text.contains("2 file(s) scanned, 1 error(s), 1 warning(s)"));
        let json = r.render_json().unwrap();
        assert!(json.contains("\"rule\": \"no-raw-metric\""));
    }
}
