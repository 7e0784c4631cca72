//! CLI entry point: `cargo run -p bshm-analyze [-- OPTIONS]`.
//!
//! Options:
//!   --format human|json   output format (default human)
//!   --out FILE            also write the JSON report to FILE
//!   --root DIR            workspace root (default: auto-detect)
//!   --list-rules          print the rule table and exit
//!
//! Exit status: 0 when no error-severity diagnostics remain, 1 otherwise,
//! 2 on usage/IO errors.

// Non-test code compares floats through explicit tolerances and reads
// the clock only through `bshm_obs::clock` (lists in clippy.toml).
#![cfg_attr(not(test), deny(clippy::float_cmp, clippy::disallowed_methods))]

use bshm_analyze::{analyze_workspace, drift, rules};
use std::path::PathBuf;
use std::process::ExitCode;

fn run() -> Result<bool, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut format = "human".to_string();
    let mut out_path: Option<String> = None;
    let mut root: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--format" => {
                format = it
                    .next()
                    .ok_or_else(|| "--format expects human|json".to_string())?
                    .clone();
            }
            "--out" => {
                out_path = Some(
                    it.next()
                        .ok_or_else(|| "--out expects a path".to_string())?
                        .clone(),
                );
            }
            "--root" => {
                root = Some(PathBuf::from(
                    it.next()
                        .ok_or_else(|| "--root expects a path".to_string())?,
                ));
            }
            "--list-rules" => {
                for r in rules::RULES {
                    println!("{:<22} {}", r.name, r.summary);
                }
                let drift_lines = [
                    ("drift/trace-schema", "drift: TraceEvent variants vs replay/recorder, Metrics fields vs prometheus encoder"),
                    ("drift/prometheus", "drift: Metrics fields vs the Prometheus exposition (reported under trace-schema's auditor)"),
                    ("drift/cli", "drift: dispatch match vs USAGE vs README vs args.rs switches"),
                    ("drift/bench-schema", "drift: bench SCHEMA_VERSION vs EXPERIMENTS.md"),
                    ("drift/rules-manifest", "drift: rule registry vs committed ANALYZE_RULES.json vs EXPERIMENTS.md taxonomy vs reproduce generator"),
                ];
                // Every auditor slug gets a line, and vice versa — the
                // self-check pins this list to drift::DRIFT_AUDITORS.
                for (slug, line) in drift_lines {
                    assert!(drift::DRIFT_AUDITORS.contains(&slug));
                    println!("{slug:<22} {line}");
                }
                return Ok(true);
            }
            other => return Err(format!("unknown option {other:?}")),
        }
    }
    if !matches!(format.as_str(), "human" | "json") {
        return Err(format!("--format: expected human|json, got {format:?}"));
    }
    let root = match root {
        Some(r) => r,
        // The binary lives in crates/analyze; the workspace root is two up.
        None => PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../.."),
    };
    let report = analyze_workspace(&root)?;
    if format == "json" {
        println!("{}", report.render_json()?);
    } else {
        print!("{}", report.render_human());
    }
    if let Some(p) = out_path {
        std::fs::write(&p, report.render_json()?).map_err(|e| format!("writing {p}: {e}"))?;
    }
    Ok(report.errors == 0)
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("bshm-analyze: {e}");
            ExitCode::from(2)
        }
    }
}
