//! `baseline` — runs the performance observatory's deterministic suite
//! and gates it.
//!
//! ```text
//! baseline [--quick] [--out FILE]
//! ```
//!
//! Pushes the deterministic workload suite through all registered
//! schedulers and, with `--out`, writes the schema-versioned report to
//! `FILE`. A `--quick` run is checked against the committed answers golden
//! (`crates/bench/golden/quick_answers.txt`), the same check the tier-1
//! test runs. Exits 1 when any answer differs or the NoProbe overhead
//! bound is breached, and 2 on a usage or write error.

// Non-test code compares floats through explicit tolerances and reads
// the clock only through `bshm_obs::clock` (lists in clippy.toml).
#![cfg_attr(not(test), deny(clippy::float_cmp, clippy::disallowed_methods))]

use bshm_bench::baseline::{gate, run_suite, write_report};
use std::io::Write;
use std::path::PathBuf;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = run(&args, &mut std::io::stdout(), &mut std::io::stderr());
    std::process::exit(code);
}

const USAGE: &str = "usage: baseline [--quick] [--out FILE]";

/// Runs the baseline harness; returns the process exit code.
fn run(args: &[String], out: &mut dyn Write, err: &mut dyn Write) -> i32 {
    let mut quick = false;
    let mut out_path = None;
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        match arg.as_str() {
            "--quick" if !quick => quick = true,
            "--out" if out_path.is_none() => {
                let Some(path) = rest.next() else {
                    let _ = writeln!(err, "--out expects a file\n{USAGE}");
                    return 2;
                };
                out_path = Some(PathBuf::from(path));
            }
            _ => {
                let _ = writeln!(err, "unexpected argument `{arg}`\n{USAGE}");
                return 2;
            }
        }
    }
    let _ = writeln!(
        err,
        "running baseline suite ({} mode)…",
        if quick { "quick" } else { "full" }
    );
    let report = run_suite(quick);
    if let Some(path) = &out_path {
        if let Err(e) = write_report(&report, path) {
            let _ = writeln!(err, "error: {e}");
            return 2;
        }
        let _ = writeln!(out, "wrote {}", path.display());
    }
    let probe = &report.probe_overhead;
    let _ = writeln!(
        out,
        "probe overhead: NoProbe {:.2}x uninstrumented (bound {:.2}x, {})",
        probe.factor,
        probe.bound,
        if probe.within_bound { "ok" } else { "BREACHED" }
    );
    match gate(&report) {
        Ok(()) => {
            if quick {
                let _ = writeln!(out, "answers: identical to golden/quick_answers.txt");
            }
            0
        }
        Err(e) => {
            let _ = writeln!(out, "{e}");
            1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bshm_bench::baseline::BaselineReport;

    #[test]
    fn quick_run_writes_report_and_compare_gates_regressions() {
        let dir = std::env::temp_dir().join(format!("bshm-baseline-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let out_path = dir.join("quick.json");
        let args = ["--quick", "--out", &out_path.to_string_lossy()].map(String::from);
        let (mut out, mut err) = (Vec::new(), Vec::new());
        let code = run(&args, &mut out, &mut err);
        let rendered = String::from_utf8(out).unwrap();
        assert_eq!(code, 0, "{rendered}{}", String::from_utf8_lossy(&err));
        assert!(rendered.contains("answers: identical"), "{rendered}");

        // The written report reads back and passes the gate as it stands.
        let text = std::fs::read_to_string(&out_path).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        let report: BaselineReport = serde_json::from_str(&text).unwrap();
        assert_eq!(report.workloads.len(), 3);
        assert_eq!(gate(&report), Ok(()));

        // One more unit of cost is a regression the gate names.
        let mut worse = report.clone();
        worse.workloads[0].algorithms[0].cost += 1;
        let e = gate(&worse).unwrap_err();
        let key = format!(
            "{}/{} cost: golden ",
            worse.workloads[0].workload, worse.workloads[0].algorithms[0].alg
        );
        assert!(e.contains(&key), "{e}");
    }

    #[test]
    fn usage_on_no_subcommand() {
        // The binary takes no subcommand: the retired `run` and `compare`
        // and their flags are usage errors, reported before any suite work
        // starts.
        for args in [
            &["compare", "a.json", "b.json"][..],
            &["run", "--quick"],
            &["--quick", "--threshold", "1.5"],
            &["--quick", "--quick"],
            &["--out"],
            &["--out", "a.json", "--out", "b.json"],
        ] {
            let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
            let (mut out, mut err) = (Vec::new(), Vec::new());
            assert_eq!(run(&args, &mut out, &mut err), 2, "{args:?}");
            assert!(
                String::from_utf8(err).unwrap().contains("usage"),
                "{args:?}"
            );
        }
    }
}
