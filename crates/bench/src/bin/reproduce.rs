//! `reproduce` — regenerates the evaluation tables and figure series.
//!
//! ```text
//! reproduce all                        # every experiment
//! reproduce t1 f3 a2                   # a subset
//! reproduce all --update-experiments   # also rewrite EXPERIMENTS.md
//! reproduce --list                     # what exists
//! ```
//!
//! Each experiment prints an aligned table, and also writes
//! `bench_results/<id>.json` and `bench_results/<id>.md`. With
//! `--update-experiments`, the measured tables are assembled into
//! `EXPERIMENTS.md` (paper claim vs measured, per experiment).
//!
//! Hot-path span timing (`bshm_obs::span`) is enabled for the whole run, so
//! every table — and its JSON — carries a `spans` breakdown of where the
//! experiment spent its time (`core::lower_bound`, `algos::dec_offline`,
//! `sim::on_arrival`, …).

use bshm_bench::table::Table;
use bshm_bench::{run_experiment, ALL_EXPERIMENTS};
use std::io::Write;
use std::path::PathBuf;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = run(args, &mut std::io::stdout(), &mut std::io::stderr());
    std::process::exit(code);
}

/// Runs the reproduce harness, writing tables to `out` and progress /
/// warnings to `err`. Returns the process exit code.
fn run(mut args: Vec<String>, out: &mut dyn Write, err: &mut dyn Write) -> i32 {
    if args.iter().any(|a| a == "--list") {
        for id in ALL_EXPERIMENTS {
            let _ = writeln!(out, "{id}");
        }
        return 0;
    }
    let update_experiments = args.iter().any(|a| a == "--update-experiments");
    args.retain(|a| a != "--update-experiments");
    let ids: Vec<String> = if args.is_empty() || args.iter().any(|a| a == "all") {
        ALL_EXPERIMENTS.iter().map(|s| s.to_string()).collect()
    } else {
        args
    };
    let out_dir = PathBuf::from(
        // bshm-allow(taint-path): selects only WHERE reports are written; table contents are seed-deterministic
        std::env::var("BSHM_RESULTS_DIR").unwrap_or_else(|_| "bench_results".to_string()),
    );
    // Time the hot paths so each table's JSON gains a span breakdown.
    bshm_obs::span::set_enabled(true);
    let _ = bshm_obs::span::take(); // discard anything recorded before us
    let mut failed = false;
    let mut tables: Vec<Table> = Vec::new();
    for id in ids {
        let Some(mut table) = ({
            let start = bshm_obs::span::now();
            let t = run_experiment(&id);
            if let Some(t) = &t {
                let _ = writeln!(
                    err,
                    "[{} finished in {:.1}s]",
                    t.id,
                    start.elapsed().as_secs_f64()
                );
            }
            t
        }) else {
            let _ = writeln!(err, "unknown experiment id: {id} (try --list)");
            failed = true;
            continue;
        };
        table.spans = bshm_obs::span::take();
        let _ = writeln!(out, "{}", table.render());
        if let Err(e) = table.write_json(&out_dir) {
            let _ = writeln!(err, "warning: could not write JSON for {}: {e}", table.id);
        }
        let md_path = out_dir.join(format!("{}.md", table.id.to_lowercase()));
        if let Err(e) = std::fs::write(&md_path, table.render_markdown()) {
            let _ = writeln!(err, "warning: could not write {}: {e}", md_path.display());
        }
        tables.push(table);
    }
    if update_experiments {
        let path = PathBuf::from(
            // bshm-allow(taint-path): selects only WHERE the doc is written; generated text is seed-deterministic
            std::env::var("BSHM_EXPERIMENTS_MD").unwrap_or_else(|_| "EXPERIMENTS.md".to_string()),
        );
        match std::fs::write(&path, experiments_md(&tables)) {
            Ok(()) => {
                let _ = writeln!(err, "wrote {}", path.display());
            }
            Err(e) => {
                let _ = writeln!(err, "error writing {}: {e}", path.display());
                failed = true;
            }
        }
    }
    i32::from(failed)
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
        r#"## Performance observatory (baselines & regression gating)

Besides the claim tables below, the harness keeps a performance
baseline: `BENCH_*.json` at the repo root, regenerated with

```sh
cargo run --release -p bshm-bench --bin baseline -- run --out BENCH_PR10.json
```

The report is schema-versioned (currently `schema_version = 6`; the
constant lives in `crates/bench/src/baseline.rs` and `bshm-analyze`
fails CI if this paragraph drifts from it) and records, for
each deterministic suite workload (`dec-poisson-uniform`,
`inc-diurnal-pareto`, `gen-bimodal-vmsizes`) and each of the twelve
registered schedulers: `wall_ns` (end-to-end wall clock),
`decision_ns_p50/p95/p99` (histogram-estimated placement latency),
`peak_open_by_type`, `cost` + `ratio` vs the §II lower bound, and a
per-run `spans` breakdown. `probe_overhead` stores the asserted
NoProbe-vs-uninstrumented driver factor and its bound. Schema v2
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
the x-ray driver (`bshm xray` / `registry::run_xray`, so decision-latency
columns are never inflated by the extra bookkeeping):
`ops_per_decision_p50/p95/p99` (histogram-estimated operations —
machines scanned + capacity comparisons — per placement decision) and
`total_scan_ops` (the run's total scan work, an exact integer).
Unlike the `*_ns` columns these are deterministic counters derived
from control flow, so they compare exactly across machines; the
comparator gates them at the timing threshold whenever job counts
match.
Schema v5 added two live-health-plane columns from the same traced
run, now driven through `HealthProbe` under the default SLO spec:
`alerts_fired` (alerts raised over the run — the engine's rules read
only the event clock and fixed-point milli values, so the count is
deterministic per workload/algorithm and any growth on the same
workload gates exactly like `cost`) and `windowed_p99_ns` (the worst
per-window decision-latency p99 from the rolling-window fold —
wall-clock, gated at the timing threshold on matching job counts).
Schema v6 added the resident-service `service` section: the verdicts
of both `bshm drill` robustness drills (`crash_recovery_passed`,
`overload_passed`, `restore_ok` — a failed drill regresses regardless
of the prior report) plus deterministic counters from a fixed
pressure scenario (`overloads`, `sheds`, `final_rung`, `rung_name`).
Everything in the section rides the event clock and seeded fault
plans, so counter growth gates exactly like `cost`.

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

To read a regression report (`baseline compare OLD NEW`, or
`run --compare` against the most recent prior `BENCH_*.json`): each
row is `workload/alg/metric` with old/new values and the growth
factor; rows marked `<< REGRESSION` breached the gate (timing
metrics: factor over the `--threshold`, default 1.5x, only when job
counts match; `cost`: any growth on the same workload; probe
overhead: factor over its recorded bound). `FAIL:` lines repeat the
breaches and the binary exits non-zero — this is the CI gate.
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

`bshm-analyze` runs in CI over every first-party crate (per-file token
rules, then a whole-workspace item-graph/call-graph/taint pass; see
README § Static analysis). The registry is pinned by the committed
`ANALYZE_RULES.json` manifest — adding, renaming, or dropping a rule
without updating the manifest, this table, and the doc generator fails
the build (`drift/rules-manifest`).

| rule | guards |
|---|---|
| `no-panic` | no unwrap/expect/panic! in library-crate code |
| `float-eq` | no exact `==`/`!=` on float expressions |
| `lossy-cast` | no raw `as` casts to integer types in library crates |
| `wall-clock` | no Instant/SystemTime reads outside `obs::span` |
| `no-print` | no console output from library crates |
| `must-use-accessor` | value-returning core accessors are `#[must_use]` |
| `no-raw-trace-write` | trace-shaped output goes through the crash-safe sink |
| `no-raw-metric` | metric mutations go through the recorder fold (`Metrics::update`) |
| `no-untyped-reject` | rejection probes take a typed RejectReason, never strings |
| `no-unbounded-buffer` | obs ring/queue buffers declare a capacity bound |
| `unordered-iter` | no HashMap/HashSet iteration in library crates (order is per-process random) |
| `shared-mutable-static` | no `static mut`/`thread_local!` state in library crates |
| `taint-path` | no call-graph path from a nondeterminism source (clock, unseeded RNG, unordered iteration, env/thread-id, pointer address) to a trace/bench/checkpoint/alert sink |
| `concurrency-audit` | no unordered iteration or interior mutability reachable from the solver entry points (pre-flight gate for sharded solving) |
| `no-unbounded-channel` | serve queues/channels declare a capacity; overflow is typed Overload backpressure, never silent growth |

Cross-artifact drift auditors (same engine, non-Rust artifacts):
`drift/trace-schema`, `drift/prometheus`, `drift/cli`,
`drift/bench-schema`, `drift/rules-manifest`.

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

    #[test]
    fn list_goes_to_out_not_err() {
        let (mut out, mut err) = (Vec::new(), Vec::new());
        let code = run(vec!["--list".into()], &mut out, &mut err);
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
        let code = run(vec!["nope".into()], &mut out, &mut err);
        assert_eq!(code, 1);
        assert!(String::from_utf8(err)
            .unwrap()
            .contains("unknown experiment id: nope"));
    }
}
