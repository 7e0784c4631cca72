//! `reproduce` — regenerates the evaluation tables and figure series.
//!
//! ```text
//! reproduce all                        # every experiment
//! reproduce t1 f3 a2                   # a subset
//! reproduce all --update-experiments   # also rewrite EXPERIMENTS.md
//! reproduce --check all                # diff against the committed files
//! reproduce --list                     # what exists
//! ```
//!
//! Each experiment prints an aligned table, and also writes
//! `bench_results/<id>.json` and `bench_results/<id>.md`. With
//! `--update-experiments`, the measured tables are assembled into
//! `EXPERIMENTS.md` (paper claim vs measured, per experiment).
//!
//! `--check` writes nothing: it rebuilds the same files in memory and
//! compares them with the committed ones (and with `EXPERIMENTS.md` when
//! every experiment runs), names each file that differs with its first
//! differing line, and exits 1 if any does. `BSHM_RESULTS_DIR` and
//! `BSHM_EXPERIMENTS_MD` move where both modes read and write.

// Non-test code compares floats through explicit tolerances and reads
// the clock only through `bshm_obs::clock` (lists in clippy.toml).
#![cfg_attr(not(test), deny(clippy::float_cmp, clippy::disallowed_methods))]

use bshm_bench::table::Table;
use bshm_bench::{run_experiment, ALL_EXPERIMENTS};
use std::io::Write;
use std::path::{Path, PathBuf};

/// Where the harness writes its files, and `--check` reads them.
struct Paths {
    /// The directory of `<id>.json` and `<id>.md`.
    results: PathBuf,
    /// The assembled `EXPERIMENTS.md`.
    experiments_md: PathBuf,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let paths = Paths {
        results: PathBuf::from(
            std::env::var("BSHM_RESULTS_DIR").unwrap_or_else(|_| "bench_results".to_string()),
        ),
        experiments_md: PathBuf::from(
            std::env::var("BSHM_EXPERIMENTS_MD").unwrap_or_else(|_| "EXPERIMENTS.md".to_string()),
        ),
    };
    let code = run(args, &paths, &mut std::io::stdout(), &mut std::io::stderr());
    std::process::exit(code);
}

/// Runs the reproduce harness, writing tables (or, with `--check`, the
/// differences) to `out` and progress / warnings to `err`. Returns the
/// process exit code.
fn run(mut args: Vec<String>, paths: &Paths, out: &mut dyn Write, err: &mut dyn Write) -> i32 {
    if args.iter().any(|a| a == "--list") {
        for id in ALL_EXPERIMENTS {
            let _ = writeln!(out, "{id}");
        }
        return 0;
    }
    let update_experiments = args.iter().any(|a| a == "--update-experiments");
    let check = args.iter().any(|a| a == "--check");
    args.retain(|a| a != "--update-experiments" && a != "--check");
    if check && update_experiments {
        let _ = writeln!(err, "--check writes nothing; drop --update-experiments");
        return 1;
    }
    let ids: Vec<String> = if args.is_empty() || args.iter().any(|a| a == "all") {
        ALL_EXPERIMENTS.iter().map(|s| s.to_string()).collect()
    } else {
        args
    };
    let every = ids
        .iter()
        .map(|id| id.to_lowercase())
        .eq(ALL_EXPERIMENTS.iter().map(|id| id.to_string()));
    let mut failed = false;
    let mut tables: Vec<Table> = Vec::new();
    for id in ids {
        let start = bshm_obs::clock::now();
        let Some(table) = run_experiment(&id) else {
            let _ = writeln!(err, "unknown experiment id: {id} (try --list)");
            failed = true;
            continue;
        };
        let _ = writeln!(
            err,
            "[{} finished in {:.1}s]",
            table.id,
            start.elapsed().as_secs_f64()
        );
        if !check {
            let _ = writeln!(out, "{}", table.render());
            if let Err(e) = std::fs::create_dir_all(&paths.results) {
                let _ = writeln!(
                    err,
                    "warning: could not create {}: {e}",
                    paths.results.display()
                );
            }
            for (path, text) in table_files(&table, &paths.results) {
                if let Err(e) = std::fs::write(&path, text) {
                    let _ = writeln!(err, "warning: could not write {}: {e}", path.display());
                }
            }
        }
        tables.push(table);
    }
    if check {
        let mut files: Vec<(PathBuf, String)> = tables
            .iter()
            .flat_map(|t| table_files(t, &paths.results))
            .collect();
        if every {
            files.push((paths.experiments_md.clone(), experiments_md(&tables)));
        }
        let mut differing = 0;
        for (path, rebuilt) in &files {
            if let Some(difference) = first_difference(path, rebuilt) {
                let _ = writeln!(out, "{difference}");
                differing += 1;
            }
        }
        let _ = writeln!(out, "check: {differing} of {} files differ", files.len());
        failed |= differing > 0;
    } else if update_experiments {
        match std::fs::write(&paths.experiments_md, experiments_md(&tables)) {
            Ok(()) => {
                let _ = writeln!(err, "wrote {}", paths.experiments_md.display());
            }
            Err(e) => {
                let _ = writeln!(err, "error writing {}: {e}", paths.experiments_md.display());
                failed = true;
            }
        }
    }
    i32::from(failed)
}

/// The two files a table is kept in under `dir`, with their contents.
fn table_files(table: &Table, dir: &Path) -> [(PathBuf, String); 2] {
    let id = table.id.to_lowercase();
    [
        (dir.join(format!("{id}.json")), table.to_json()),
        (dir.join(format!("{id}.md")), table.render_markdown()),
    ]
}

/// `None` when the file at `path` holds exactly `rebuilt`; otherwise a
/// report naming the file and its first differing line.
fn first_difference(path: &Path, rebuilt: &str) -> Option<String> {
    let committed = match std::fs::read_to_string(path) {
        Ok(text) if text == rebuilt => return None,
        Ok(text) => text,
        Err(e) => return Some(format!("{}: cannot read: {e}", path.display())),
    };
    let (mut old, mut new) = (committed.lines(), rebuilt.lines());
    let mut line = 1;
    loop {
        match (old.next(), new.next()) {
            (Some(a), Some(b)) if a == b => line += 1,
            (a, b) => {
                return Some(format!(
                    "{}:{line}: differs\n  committed: {}\n  rebuilt:   {}",
                    path.display(),
                    a.unwrap_or("(end of file)"),
                    b.unwrap_or("(end of file)")
                ))
            }
        }
    }
}

/// Assembles EXPERIMENTS.md: paper claim vs measured table, per experiment.
fn experiments_md(tables: &[Table]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    out.push_str(
        "# EXPERIMENTS — paper-vs-measured\n\n\
         *Busy-Time Scheduling on Heterogeneous Machines* (Ren & Tang, IPDPS 2020)\n\
         is a theory paper with no empirical section, so \"paper\" below means the\n\
         stated theorem/conjecture and \"measured\" is this implementation evaluated\n\
         against the paper's own §II lower bound (eq. (1)) on the reproducible\n\
         workloads defined in `crates/bench/src/experiments/` (see DESIGN.md §6 for\n\
         the experiment index). Regenerate this file with:\n\n\
         ```sh\n\
         cargo run --release -p bshm-bench --bin reproduce -- all --update-experiments\n\
         ```\n\n\
         Ratios are cost / lower-bound, so they *over*-state the true ratio vs OPT\n\
         (T3 quantifies the gap: the LB is within ~1.1–1.25× of OPT on small\n\
         instances). All schedules are re-validated for feasibility before any\n\
         number is recorded; a bound violation would panic the harness.\n\n",
    );
    // Static sections below are kept byte-identical to the committed
    // EXPERIMENTS.md (the drift auditor reads the schema_version literal
    // out of the file, so regeneration must not lose it).
    out.push_str(
        r#"## Performance observatory (counts baseline & answers golden)

Besides the claim tables below, the harness keeps a counts-only
baseline of every registered scheduler, run with

```sh
cargo run --release -p bshm-bench --bin baseline -- --quick
```

The report (written with `--out FILE`) is schema-versioned (currently
`schema_version = 7`; the
constant lives in `crates/bench/src/baseline.rs` and `bshm-analyze`
fails CI if this paragraph drifts from it) and records, for
each deterministic suite workload (`dec-poisson-uniform`,
`inc-diurnal-pareto`, `gen-bimodal-vmsizes`) and each of the twelve
registered schedulers, only columns that a run reproduces exactly on
any machine: `peak_open_by_type`, `cost` + `ratio` vs the §II lower
bound, `placements`, and `schedule_digest` (FNV-1a of the schedule's
JSON, which pins every placement directly). `probe_overhead` stores
the asserted NoProbe-vs-uninstrumented driver factor and its bound: a
ratio of two timings taken in the same run, so the bound holds on any
machine. Schema v2
added two recovery-overhead columns measured in a separate faulted
run (fixed plan `seeded:1313:3`, same-type recovery): `displaced_jobs`
(jobs knocked off crashed machines) and `recovery_cost_ratio`
(recovery-machine busy-time cost over the fault-free base cost).
Schema v3 added two gap-observatory columns from the same traced run,
now driven through `GapProbe`: `final_gap_ratio` (final accrued cost
over the incremental §II lower bound at the horizon — equals `ratio`
by the attribution-exactness invariant, recorded independently as a
cross-check) and `max_gap_ratio` (the worst instantaneous
cost-over-bound ratio across all gap samples in the run).
Schema v4 added four decision x-ray columns from a separate run under
the x-ray driver (`bshm xray` / `registry::run_xray`):
`ops_per_decision_p50/p95/p99` (histogram-estimated operations —
machines scanned + capacity comparisons — per placement decision) and
`total_scan_ops` (the run's total scan work, an exact integer). They
are counters derived from control flow, not clocks.
Schema v5 added `alerts_fired` from the same traced run, now driven
through `HealthProbe` under the default SLO spec: alerts raised over
the run. The engine's rules read only the event clock and fixed-point
milli values, so the count is deterministic per workload/algorithm.
Schema v6 added the resident-service `service` section: the verdicts
of both `bshm drill` robustness drills (`crash_recovery_passed`,
`overload_passed`, `restore_ok`) plus deterministic counters from a
fixed pressure scenario (`overloads`, `sheds`, `final_rung`,
`rung_name`). Everything in the section rides the event clock and
seeded fault plans.
Schema v7 dropped the wall-clock columns (`wall_ns`,
`decision_ns_p50/p95/p99`, `windowed_p99_ns`, `spans`) and added
`schedule_digest`.

**Cost-attribution rule** (`bshm gap-report`, `bshm_obs::CostLedger`):
the job whose placement opens a machine pays the opening busy-time
segment; each extension segment is split across the jobs occupying
the machine in proportion to their sizes, with largest-remainder
rounding and the final share taking the exact remainder. Charges are
exact integers and sum exactly (integer equality) to total schedule
cost; `unattributed` is non-zero only for corrupt/truncated traces.

## Live health plane (SLO gating & alert taxonomy)

`bshm health TRACE.jsonl` evaluates a declarative SLO spec against a
recorded trace and exits non-zero on breach; `bshm watch` renders the
same rolling windows as a dashboard. The spec grammar is a
semicolon-separated rule list (any subset, any order):

```text
window:W          event-clock window width (default 64)
gap:MILLI:N       gap ratio > MILLI/1000 for N consecutive windows
storm:C           ≥ C jobs displaced by crashes within one window
latency:MILLI:N   windowed p99 > MILLI/1000 × the run-start baseline
                  for N consecutive windows
drops:C           ≥ C jobs dropped within one window
```

The default spec is `window:64;gap:20000:2;storm:1;drops:1` (the
latency rule is deliberately absent from the default: it reads the
wall clock, so CI gates on the event-clock rules only). Each breach
emits a `TraceEvent::Alert` into the trace itself with a typed
reason — the full taxonomy is `gap-breach`, `displacement-storm`,
`latency-regression`, `drop-surge` — stamped with the closed window's
end time, and dumps the flight recorder (the last 256 events, bounded
ring) to `alert-NNN-<reason>.jsonl` when snapshots are enabled.
Because every rule reads the event clock and fixed-point milli
integers, the alert stream is byte-identical across same-seed runs;
the fault-injection suite proves each directive trips exactly its
expected reason (`crash`/`seeded` → `displacement-storm`,
`oversized` → `drop-surge`), and `bshm health --expect REASON` turns
that proof into a CI assertion.

## Fault injection & checkpoint format

Fault runs are driven by a deterministic `FaultPlan` spec — a
comma-separated list of directives:

```text
crash:T:M            kill machine index M of type T at time T
storm:T:N:SIZE:DUR   burst of N synthetic arrivals at time T
oversized:T:SIZE:DUR inject a job larger than any machine type at T
seeded:SEED:N        N pseudo-random crashes drawn from SEED
```

(`""` or `none` means no faults; an empty plan is byte-identical to
the unfaulted driver.) Recovery policies are `same-type`,
`first-fit`, and `degrade`; recovered jobs land only on machines the
policy itself opens, so recovery cost is accounted separately from
base cost. Checkpoints (`bshm crash-test`, or `RunOptions` in
`bshm-faults`) are JSON decision logs: an FNV-1a digest of the instance, the
algorithm/policy/plan fingerprints, and the prefix of placement
decisions; restore replays the prefix, verifies every decision
matches, and continues — producing a final schedule and trace suffix
byte-identical to the uninterrupted run.

To read a gate failure: `baseline --quick` and the tier-1 test
`quick_suite_measures_every_algorithm` compare every deterministic
column with `crates/bench/golden/quick_answers.txt`, exactly and in
both directions. Each failing line names one `scope column` with the
golden and the run's value; the message then prints the run's full
answers, to paste over the golden only when an answer is meant to
change. The binary also exits non-zero when the probe bound is
breached. Wall-clock time is gated apart from this, in CI, by
`ci/clock_gate.py`: it runs `perfbench` built at the merge base and at
the head in alternating pairs on one machine.
"#,
    );
    out.push_str(
        r#"## Resident service (protocol, degradation ladder & drills)

`bshm serve` hosts many supervised tenant instances in one resident
process (`--script FILE` replays a request file deterministically;
`--socket PATH` serves a std Unix socket). The line protocol:

```text
ADMIT <name> <alg> <priority> <family>:<n>:<seed> [faults]
SUBMIT <name> <units>   queue work; full queue -> typed OVERLOAD
STEP <name>             advance one batch, checkpoint at the stop
KILL <name>             kill mid-batch (torn log, memory dropped)
RESTORE <name>          checkpoint + salvaged log -> digest proof
HEALTH <name>           the tenant's SLO report summary
STATS                   full service status as JSON
DRAIN                   checkpoint + publish everything, stop intake
QUIT / SHUTDOWN         end the session
```

Workload families are `dec`, `inc`, and `saw` (the three catalog
shapes); `faults` is the same `FaultPlan` grammar as above. A full
queue answers `OVERLOAD tenant=<t> retry-after <d> attempt <n>
queued <q>/<cap>` where `<d>` replays exactly from the seeded
jittered-exponential `BackoffSchedule` (`bshm-faults`), counted in
service STEPs — clients wait out backpressure by driving steps,
never by sleeping. Sustained SLO pressure (the health plane above,
evaluated per batch) walks the degradation ladder; each transition
is a `Degradation` event on the durable service trace:

| rung | name | effect |
|---|---|---|
| 0 | `full-service` | everything on, gap gauges live |
| 1 | `no-gap-gauges` | optimality-gap gauges disabled |
| 2 | `cheapest-algorithm` | every tenant rebased onto `first-fit-any` |
| 3 | `shed-tenants` | lowest-priority tenants drained and shed |

`bshm drill` runs the two CI robustness drills and writes a JSON
report (`--report`); both are deterministic end to end, so a failing
check is always reproducible:

| drill | proves |
|---|---|
| `crash-recovery` | kill mid-batch, restore from checkpoint + salvaged torn log; restored tenant is FNV-digest-identical (checkpoint, event history, placement sequence) to a never-killed reference; lifecycle arc (`admitted` -> `killed` -> `restored`) on the service trace |
| `overload` | queues never exceed capacity; every rejection is a typed `OVERLOAD` whose retry-after replays from the seeded schedule; the ladder walks every rung and sheds exactly the lowest-priority tenant, all on the trace |

"#,
    );
    out.push_str(
        r#"## Static-analysis rule taxonomy

The generic rules are built-in clippy lints, set in the crate roots and
`clippy.toml` and enforced by CI's clippy step (`-D warnings`).
`bshm-analyze` runs in CI over every first-party crate for the rules
clippy cannot express (see README § Static analysis). Its registry is
pinned by the committed `ANALYZE_RULES.json` manifest — adding,
renaming, or dropping a rule without updating the manifest, this table,
and the doc generator fails the build (`drift/rules-manifest`).

| rule | guards |
|---|---|
| `no-raw-metric` | metric mutations go through the recorder fold (`Metrics::update`) |
| `no-untyped-reject` | rejection probes take a typed RejectReason, never strings |
| `no-unbounded-buffer` | obs ring/queue buffers declare a capacity bound |

Cross-artifact drift auditors (same engine, non-Rust artifacts):
`drift/trace-schema`, `drift/prometheus`, `drift/cli`,
`drift/bench-schema`, `drift/rules-manifest`.

Clippy lints, in non-test code of the library crates unless noted:

| clippy lint | guards |
|---|---|
| `unwrap_used`, `expect_used`, `panic`, `unreachable`, `todo`, `unimplemented` | no panics in library-crate code |
| `cast_possible_truncation`, `cast_sign_loss`, `cast_possible_wrap`, `cast_lossless` | no lossy `as` casts in library crates |
| `float_cmp` (every crate) | no exact `==`/`!=` on floats |
| `disallowed_methods` (every crate) | no Instant/SystemTime reads outside `obs::clock`; in obs/sim, trace-shaped output goes through the crash-safe sink; in serve, queues and channels declare a capacity |
| `print_stdout`, `print_stderr`, `dbg_macro` | no console output from library crates |
| `iter_over_hash_type` | no `for` loop over a HashMap/HashSet (order is per-process random) |
| `disallowed_macros`, `static_mut_refs`, `unsafe_code` | no `thread_local!`/`static mut` state in library crates |
| `must_use_candidate` (core's `schedule.rs`, `cost.rs`) | value-returning core accessors are `#[must_use]` |

"#,
    );
    out.push_str("## Summary\n\n| exp | claim (paper) | verdict |\n|---|---|---|\n");
    for t in tables {
        let verdict = t
            .notes
            .first()
            .map_or_else(|| "see table".to_string(), |n| n.clone());
        let _ = writeln!(out, "| {} | {} | {} |", t.id, t.claim, verdict);
    }
    out.push('\n');
    for t in tables {
        let _ = writeln!(out, "## {} — {}\n", t.id, t.title);
        let _ = writeln!(out, "**Paper claim.** {}\n", t.claim);
        let _ = writeln!(out, "**Measured.**\n\n{}", t.render_markdown());
        for n in &t.notes {
            let _ = writeln!(out, "- {n}");
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Paths under a fresh scratch directory named after `test`.
    fn scratch_paths(test: &str) -> Paths {
        let dir =
            std::env::temp_dir().join(format!("bshm-reproduce-{test}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Paths {
            results: dir.join("results"),
            experiments_md: dir.join("EXPERIMENTS.md"),
        }
    }

    fn run_with(args: &[&str], paths: &Paths) -> (i32, String) {
        let (mut out, mut err) = (Vec::new(), Vec::new());
        let args = args.iter().map(|a| a.to_string()).collect();
        let code = run(args, paths, &mut out, &mut err);
        (code, String::from_utf8(out).unwrap())
    }

    #[test]
    fn check_names_each_differing_file_and_line() {
        let paths = scratch_paths("check");
        assert_eq!(run_with(&["a8"], &paths).0, 0);
        let (code, out) = run_with(&["--check", "a8"], &paths);
        assert_eq!((code, out.as_str()), (0, "check: 0 of 2 files differ\n"));

        // A moved cell on line 3 of the markdown, and a missing JSON file.
        let md = paths.results.join("a8.md");
        let text = std::fs::read_to_string(&md).unwrap();
        let mut lines: Vec<&str> = text.lines().collect();
        let moved = format!("{} moved", lines[2]);
        lines[2] = &moved;
        std::fs::write(&md, lines.join("\n") + "\n").unwrap();
        std::fs::remove_file(paths.results.join("a8.json")).unwrap();
        let (code, out) = run_with(&["--check", "a8"], &paths);
        assert_eq!(code, 1);
        assert!(out.contains("a8.json: cannot read"), "{out}");
        assert!(
            out.contains(&format!("{}:3: differs", md.display())),
            "{out}"
        );
        assert!(out.contains(&format!("  committed: {moved}\n")), "{out}");
        assert!(out.ends_with("check: 2 of 2 files differ\n"), "{out}");
        // Nothing was rewritten, and a subset never reads EXPERIMENTS.md.
        assert!(!paths.results.join("a8.json").exists());
        assert!(!paths.experiments_md.exists());

        assert_eq!(
            run_with(&["--check", "--update-experiments", "a8"], &paths).0,
            1
        );
        let _ = std::fs::remove_dir_all(paths.results.parent().unwrap());
    }

    #[test]
    fn list_goes_to_out_not_err() {
        let (mut out, mut err) = (Vec::new(), Vec::new());
        let code = run(
            vec!["--list".into()],
            &scratch_paths("list"),
            &mut out,
            &mut err,
        );
        assert_eq!(code, 0);
        assert!(err.is_empty());
        let listed = String::from_utf8(out).unwrap();
        for id in ALL_EXPERIMENTS {
            assert!(listed.lines().any(|l| l == id), "missing {id}");
        }
    }

    #[test]
    fn unknown_id_reports_on_err_and_fails() {
        let (mut out, mut err) = (Vec::new(), Vec::new());
        let code = run(
            vec!["nope".into()],
            &scratch_paths("nope"),
            &mut out,
            &mut err,
        );
        assert_eq!(code, 1);
        assert!(String::from_utf8(err)
            .unwrap()
            .contains("unknown experiment id: nope"));
    }
}
