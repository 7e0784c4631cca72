//! The `bshm` subcommands.

use crate::args::Flags;
use crate::spec;
use bshm_algos::registry;
use bshm_chart::placement::PlacementOrder;
use bshm_core::analysis::{machine_timeline, schedule_stats, timeline_csv};
use bshm_core::instance::Instance;
use bshm_core::lower_bound::{lower_bound, lp_lower_bound};
use bshm_core::ops::{OpCounter, RejectReason};
use bshm_core::schedule::Schedule;
use bshm_core::validate::validate_schedule;
use bshm_core::{schedule_cost, Cost};
use bshm_faults::{FaultOutcome, FaultPlan};
use bshm_obs::{replay, NoProbe, Probe, Recorder};
use bshm_sim::OnlineScheduler;
use bshm_workload::WorkloadSpec;
use std::io::Write;

/// The registry's run functions, under the names the cli's callers
/// import them by.
pub use registry::{online_or_scripted, run_traced as run_alg_traced, run_xray as run_alg_xray};

type Out<'a> = &'a mut dyn Write;

const USAGE: &str = "\
bshm — busy-time scheduling on heterogeneous machines

USAGE:
  bshm gen      --n N --catalog SPEC --arrivals SPEC --durations SPEC --sizes SPEC
                [--seed S] [--out FILE]
  bshm solve    --instance FILE --alg NAME [--out FILE]
                [--trace FILE] [--metrics] [--metrics-format prometheus|json]
                [--gap] [--faults SPEC] [--recover POLICY]
  bshm replay   --trace FILE [--instance FILE --schedule FILE] [--rows N]
                [--salvage] [--gap] [--report FILE]
  bshm gap-report TRACE.jsonl [--instance FILE] [--format json|console]
                [--rows N] [--out FILE]
  bshm crash-test --instance FILE [--alg NAME] [--faults SPEC]
                [--recover POLICY] [--stop-after N] [--artifacts DIR]
  bshm export-metrics --trace FILE [--format prometheus|json] [--alg LABEL]
                [--out FILE]
  bshm top      TRACE.jsonl [--cols N]
  bshm watch    TRACE.jsonl [--window W] [--rows N] [--follow N]
  bshm health   TRACE.jsonl [--slo SPEC] [--expect REASON]
                [--snapshots DIR] [--report FILE]
  bshm explain  --job J (--trace FILE | --instance FILE [--alg NAME])
                [--machine M]
  bshm xray     (TRACE.jsonl | --instance FILE [--alg NAME]) [--trace FILE]
                [--format console|json] [--out FILE] [--cols N] [--rows N]
  bshm validate --instance FILE --schedule FILE
  bshm lb       --instance FILE
  bshm info     --instance FILE
  bshm render   --instance FILE [--cols N] [--rows N]
  bshm export-csv --instance FILE [--out FILE]
  (gen also accepts --from-csv FILE to import a trace instead of sampling)
  bshm algs     (list scheduler names)
  bshm serve    --data-dir DIR (--script FILE | --socket PATH)
                [--queue-capacity N] [--batch N] [--slo SPEC] [--patience N]
  bshm drill    --data-dir DIR [--kind crash-recovery|overload|all]
                [--report FILE]

OBSERVABILITY:
  solve --trace FILE   streams a JSONL event log (arrivals, placements
                       with decision latency, machine opens/closes, cost
                       accruals, departures)
  solve --metrics      prints aggregated run metrics as JSON
  solve --metrics-format prometheus
                       prints them as Prometheus text exposition instead
  replay               rebuilds the busy-machine timeline from a trace;
                       with --instance and --schedule it cross-checks the
                       trace against the schedule-derived timeline
  export-metrics       folds a recorded trace JSONL into an exposition
                       snapshot (Prometheus text or JSON)
  top                  console summary of a trace: open-machine gauge
                       timeline, utilization, latency quantiles, accrual
                       rates per machine type
  solve --gap          maintain live gap gauges while solving: one
                       GapSample (incremental lower bound vs accrued cost)
                       per distinct timestamp, emitted into the trace and
                       summarized after the run
  replay --gap         rebuild the gap timeline from a trace's GapSample
                       events; pre-gap traces are recomputed from the
                       --instance catalog (with a loud note)
  gap-report           per-step gap timeline plus the per-job cost
                       attribution table (opener pays the opening segment,
                       extensions split proportionally by occupant size),
                       as console text or JSON
  explain              why a job landed where it did: the candidate
                       machines its scheduler examined, each typed
                       rejection, the winner and the deterministic op
                       counts of that one decision
  xray                 run (or read) a decision-traced execution and
                       report ops-per-decision quantiles, rejection
                       breakdown, scan-length-vs-pool-size curve and
                       per-machine utilization heat rows; --trace records
                       the Decision-bearing event stream for later replay

LIVE HEALTH PLANE:
  watch                rolling dashboard of a (possibly live) trace:
                       event-clock windows with open-machine and arrival
                       sparklines, windowed latency quantiles, windowed
                       gap ratio and alert counts; tolerates a torn
                       trailing line, and --follow N polls the file N
                       more times for growth
  health               evaluate an SLO spec against a trace, exiting
                       nonzero on breach (CI-usable); --expect REASON
                       inverts the check (pass iff that typed alert
                       fired), --snapshots DIR dumps the flight-recorder
                       ring at each alert, --report FILE writes the JSON
                       health report
  slo:                 window:W;gap:MILLI:N;storm:C;latency:MILLI:N;drops:C
                       (fixed-point milli thresholds; N = consecutive
                       windows; alert reasons: gap-breach,
                       displacement-storm, latency-regression, drop-surge)

FAULTS & RECOVERY:
  solve --faults SPEC  inject machine crashes, arrival storms and oversized
                       jobs mid-run; displaced jobs are re-placed by the
                       --recover policy onto separately-billed recovery
                       machines (base cost vs recovery cost stay distinct)
  replay --salvage     tolerate a torn trailing line (killed writer):
                       replay the valid prefix, report dropped lines
                       and the exact bytes lost to the tear
  crash-test           end-to-end robustness check: run, kill at a
                       checkpoint, salvage the torn trace, restore from the
                       checkpoint, verify schedule/cost/trace-suffix
                       equality; nonzero exit on any mismatch

RESIDENT SERVICE:
  serve                host many supervised tenant instances behind the
                       line protocol (ADMIT / SUBMIT / STEP / KILL /
                       RESTORE / HEALTH / STATS / DRAIN / QUIT); --script
                       replays a request file deterministically, --socket
                       serves the same protocol on a Unix socket; full
                       queues answer with typed OVERLOAD + seeded
                       retry-after, sustained SLO pressure walks the
                       degradation ladder (full-service → no-gap-gauges →
                       cheapest-algorithm → shed-tenants)
  drill                run the CI robustness drills: crash-recovery
                       (kill a tenant mid-batch, restore from checkpoint
                       + salvaged log, digest-identical proof) and
                       overload (bounded queues, deterministic
                       retry-afters, every ladder rung); nonzero exit on
                       any failed check

SPEC GRAMMARS:
  catalog:   dec:M:G | inc:M:G | saw:M:G | ec2-dec | ec2-inc | custom:4x1,16x2
  arrivals:  poisson:GAP | diurnal:BASE:PEAK:PERIOD | batch | regular:GAP
  durations: uniform:MIN:MAX | pareto:MIN:MAX:ALPHA | bimodal:S:L:P | fixed:D
  sizes:     uniform:MIN:MAX | pareto:MIN:MAX:ALPHA | discrete:1x4,8x1
  faults:    crash:T:M | storm:T:N:SIZE:DUR | oversized:T:SIZE:DUR
             | seeded:SEED:N   (comma-separated; `none` = no faults)
  recover:   same-type | first-fit | degrade
";

/// Dispatches a full argv (`["gen", "--n", "10", …]`).
pub fn dispatch(argv: &[String], out: Out) -> Result<(), String> {
    let Some((cmd, rest)) = argv.split_first() else {
        let _ = write!(out, "{USAGE}");
        return Ok(());
    };
    let flags = Flags::parse(rest)?;
    match cmd.as_str() {
        "gen" => cmd_gen(&flags, out),
        "solve" => cmd_solve(&flags, out),
        "crash-test" => cmd_crash_test(&flags, out),
        "replay" => cmd_replay(&flags, out),
        "gap-report" => cmd_gap_report(&flags, out),
        "export-metrics" => cmd_export_metrics(&flags, out),
        "top" => cmd_top(&flags, out),
        "watch" => cmd_watch(&flags, out),
        "health" => cmd_health(&flags, out),
        "explain" => cmd_explain(&flags, out),
        "xray" => cmd_xray(&flags, out),
        "validate" => cmd_validate(&flags, out),
        "lb" => cmd_lb(&flags, out),
        "info" => cmd_info(&flags, out),
        "render" => cmd_render(&flags, out),
        "export-csv" => cmd_export_csv(&flags, out),
        "serve" => cmd_serve(&flags, out),
        "drill" => cmd_drill(&flags, out),
        "algs" => {
            for a in registry::names() {
                let _ = writeln!(out, "{a}");
            }
            Ok(())
        }
        "help" | "--help" | "-h" => {
            let _ = write!(out, "{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command {other:?}; try `bshm help`")),
    }
}

fn load_instance(flags: &Flags) -> Result<Instance, String> {
    let path = flags.require("instance")?;
    let data = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    serde_json::from_str(&data).map_err(|e| format!("parsing {path}: {e}"))
}

fn write_or_print(out: Out, path: Option<&str>, json: &str, what: &str) -> Result<(), String> {
    match path {
        Some(p) => {
            std::fs::write(p, json).map_err(|e| format!("writing {p}: {e}"))?;
            let _ = writeln!(out, "wrote {what} to {p}");
        }
        None => {
            let _ = writeln!(out, "{json}");
        }
    }
    Ok(())
}

fn cmd_gen(flags: &Flags, out: Out) -> Result<(), String> {
    let catalog = spec::parse_catalog(flags.get("catalog").unwrap_or("dec:3:4"))?;
    let instance = if let Some(path) = flags.get("from-csv") {
        // Bring-your-own-trace: jobs from CSV, catalog from the flag.
        let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        let jobs = bshm_workload::parse_csv(&text).map_err(|e| format!("{path}: {e}"))?;
        Instance::new(jobs, catalog).map_err(|e| format!("{path}: {e}"))?
    } else {
        let spec = WorkloadSpec {
            n: flags.get_or("n", 100usize)?,
            seed: flags.get_or("seed", 0u64)?,
            arrivals: spec::parse_arrivals(flags.get("arrivals").unwrap_or("poisson:3"))?,
            durations: spec::parse_durations(flags.get("durations").unwrap_or("uniform:10:60"))?,
            sizes: spec::parse_sizes(flags.get("sizes").unwrap_or("uniform:1:16"))?,
        };
        spec.generate(catalog)
    };
    let json = serde_json::to_string_pretty(&instance).expect("instances serialize");
    write_or_print(out, flags.get("out"), &json, "instance")
}

fn cmd_export_csv(flags: &Flags, out: Out) -> Result<(), String> {
    let instance = load_instance(flags)?;
    let csv = bshm_workload::to_csv(instance.jobs());
    match flags.get("out") {
        Some(p) => {
            std::fs::write(p, &csv).map_err(|e| format!("writing {p}: {e}"))?;
            let _ = writeln!(out, "wrote {} jobs to {p}", instance.job_count());
        }
        None => {
            let _ = write!(out, "{csv}");
        }
    }
    Ok(())
}

/// Parses a `--metrics-format`/`--format` value.
fn parse_metrics_format(value: Option<&str>, flag: &str) -> Result<MetricsFormat, String> {
    match value {
        None | Some("json") => Ok(MetricsFormat::Json),
        Some("prometheus") => Ok(MetricsFormat::Prometheus),
        Some(other) => Err(format!(
            "--{flag}: expected `prometheus` or `json`, got {other:?}"
        )),
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum MetricsFormat {
    Json,
    Prometheus,
}

/// The recorder a `solve` run streams into, writing `--trace` when given.
fn recorder(alg: &str, instance: &Instance, trace_path: Option<&str>) -> Result<Recorder, String> {
    let rec = Recorder::new(alg, instance.catalog().len());
    match trace_path {
        Some(p) => rec.with_file(p).map_err(|e| format!("creating {p}: {e}")),
        None => Ok(rec),
    }
}

/// Reports a finished recorder: the trace's event count, and the metrics
/// in `metrics` format when `--metrics` asked for them.
fn report_recorder(
    out: Out,
    rec: Recorder,
    trace_path: Option<&str>,
    metrics: Option<MetricsFormat>,
) -> Result<(), String> {
    let written = rec.events_written();
    let m = rec.into_metrics()?;
    if let Some(p) = trace_path {
        let _ = writeln!(out, "wrote {written} trace events to {p}");
    }
    match metrics {
        Some(MetricsFormat::Prometheus) => {
            let _ = write!(out, "{}", bshm_obs::encode_prometheus(&m));
        }
        Some(MetricsFormat::Json) => {
            let _ = write!(out, "{}", m.summary());
            let json = serde_json::to_string_pretty(&m).expect("metrics serialize");
            let _ = writeln!(out, "{json}");
        }
        None => {}
    }
    Ok(())
}

fn cmd_solve(flags: &Flags, out: Out) -> Result<(), String> {
    let instance = load_instance(flags)?;
    let alg = flags.get("alg").unwrap_or("auto");
    if let Some(spec) = flags.get("faults") {
        return cmd_solve_faulted(flags, out, &instance, alg, spec);
    }
    let trace_path = flags.get("trace");
    let format = parse_metrics_format(flags.get("metrics-format"), "metrics-format")?;
    let want_metrics = flags.has("metrics") || flags.get("metrics-format").is_some();
    let want_gap = flags.has("gap");
    // With --gap, the gauges' settled lower bound equals the full sweep's,
    // so the sweep below runs only when the gap timeline has no point.
    let (schedule, gauge_lb) = if trace_path.is_some() || want_metrics || want_gap {
        let mut rec = recorder(alg, &instance, trace_path)?;
        // --gap wraps the recorder in a GapProbe: the trace and metrics
        // then carry one GapSample per distinct timestamp.
        let (schedule, gap_timeline, rec) = if want_gap {
            let mut gp = bshm_obs::GapProbe::new(instance.catalog(), rec);
            let schedule = run_alg_traced(alg, &instance, &mut gp)?;
            if let Some(e) = gp.error() {
                return Err(format!("BUG: gap gauges over {alg}'s own stream: {e}"));
            }
            let (rec, timeline) = gp.into_parts();
            (schedule, Some(timeline), rec)
        } else {
            let schedule = run_alg_traced(alg, &instance, &mut rec)?;
            (schedule, None, rec)
        };
        report_recorder(out, rec, trace_path, want_metrics.then_some(format))?;
        if let Some(tl) = &gap_timeline {
            if !(want_metrics && format == MetricsFormat::Prometheus) {
                match (tl.final_point(), tl.final_ratio()) {
                    (Some(p), Some(r)) => {
                        let _ = writeln!(
                            out,
                            "gap gauges:   final {r:.3} (cost {} vs lower bound {}), \
                             max {:.3} over {} samples",
                            p.cost,
                            p.lower_bound,
                            tl.max_ratio(),
                            tl.points.len()
                        );
                    }
                    _ => {
                        let _ =
                            writeln!(out, "gap gauges:   no sample with a positive lower bound");
                    }
                }
            }
        }
        let gauge_lb = gap_timeline
            .as_ref()
            .and_then(|tl| tl.final_point())
            .map(|p| Cost::from(p.lower_bound));
        (schedule, gauge_lb)
    } else {
        (run_alg_traced(alg, &instance, &mut NoProbe)?, None)
    };
    validate_schedule(&schedule, &instance).map_err(|e| format!("BUG: {alg} infeasible: {e}"))?;
    let cost: Cost = schedule_cost(&schedule, &instance);
    let lb = gauge_lb.unwrap_or_else(|| lower_bound(&instance));
    // Prometheus exposition must stay machine-parseable: suppress the
    // human report (schedule writing still happens).
    if !(want_metrics && format == MetricsFormat::Prometheus) {
        let stats = schedule_stats(&schedule, &instance);
        let _ = writeln!(out, "algorithm:    {alg}");
        let _ = writeln!(out, "cost:         {cost}");
        let _ = writeln!(out, "lower bound:  {lb}");
        let _ = writeln!(out, "ratio:        {:.3}", cost as f64 / lb as f64);
        let _ = writeln!(
            out,
            "machines:     {} used, peak {} busy",
            stats.machines_used, stats.peak_total
        );
        let _ = writeln!(out, "utilization:  {:.1}%", stats.utilization * 100.0);
    }
    if let Some(path) = flags.get("out") {
        let json = serde_json::to_string_pretty(&schedule).expect("schedules serialize");
        std::fs::write(path, json).map_err(|e| format!("writing {path}: {e}"))?;
        if !(want_metrics && format == MetricsFormat::Prometheus) {
            let _ = writeln!(out, "wrote schedule to {path}");
        }
    }
    Ok(())
}

/// `solve --faults`: run under fault injection with recovery.
///
/// The resulting schedule is an *execution record* — a recovered job
/// appears on both its crashed machine and its recovery machine — so
/// feasibility validation does not apply; the fault/recovery ledger is
/// printed instead, with recovery cost kept separate from base cost.
fn cmd_solve_faulted(
    flags: &Flags,
    out: Out,
    instance: &Instance,
    alg: &str,
    spec: &str,
) -> Result<(), String> {
    if flags.has("gap") {
        return Err(
            "--gap is not supported together with --faults (an execution record bills \
             recovered jobs twice); record a --trace and run `bshm gap-report` on it instead"
                .to_string(),
        );
    }
    let plan = FaultPlan::parse(spec)?;
    let policy_name = flags.get("recover").unwrap_or("same-type");
    let mut policy = bshm_faults::policy_by_name(policy_name)?;
    let mut scheduler = online_or_scripted(alg, instance)?;
    let trace_path = flags.get("trace");
    let format = parse_metrics_format(flags.get("metrics-format"), "metrics-format")?;
    let want_metrics = flags.has("metrics") || flags.get("metrics-format").is_some();
    let run = |probe: &mut dyn Probe,
               scheduler: &mut dyn OnlineScheduler,
               policy: &mut dyn bshm_faults::RecoveryPolicy|
     -> Result<FaultOutcome, String> {
        bshm_faults::run_online_faulted(instance, scheduler, &plan, policy, probe)
            .map_err(|e| e.to_string())
    };
    let outcome = if trace_path.is_some() || want_metrics {
        let mut rec = recorder(alg, instance, trace_path)?;
        let outcome = run(&mut rec, &mut *scheduler, &mut *policy)?;
        report_recorder(out, rec, trace_path, want_metrics.then_some(format))?;
        outcome
    } else {
        run(&mut NoProbe, &mut *scheduler, &mut *policy)?
    };
    let r = &outcome.report;
    if !(want_metrics && format == MetricsFormat::Prometheus) {
        let _ = writeln!(out, "algorithm:    {alg} + {policy_name} recovery");
        let _ = writeln!(out, "faults:       {}", plan.spec());
        let _ = writeln!(
            out,
            "crashes:      {} applied, {} skipped (target absent/retired)",
            r.crashes, r.crashes_skipped
        );
        let _ = writeln!(out, "injected:     {} jobs", r.injected);
        let _ = writeln!(
            out,
            "displaced:    {} jobs ({} recovered, {} arrivals rerouted)",
            r.displaced, r.recovered, r.rerouted
        );
        let _ = writeln!(out, "dropped:      {} jobs", r.dropped.len());
        for (job, reason) in &r.dropped {
            let _ = writeln!(out, "  job {}: {reason}", job.0);
        }
        let _ = writeln!(out, "base cost:    {}", r.base_cost);
        let _ = writeln!(
            out,
            "recovery:     cost {} (ratio {:.3} of base)",
            r.recovery_cost,
            r.recovery_cost_ratio()
        );
    }
    if let Some(path) = flags.get("out") {
        let json = serde_json::to_string_pretty(&outcome.schedule).expect("schedules serialize");
        std::fs::write(path, json).map_err(|e| format!("writing {path}: {e}"))?;
        if !(want_metrics && format == MetricsFormat::Prometheus) {
            let _ = writeln!(out, "wrote execution record to {path}");
        }
    }
    Ok(())
}

/// `crash-test`: run, kill at a checkpoint, salvage, restore, verify.
///
/// Exits nonzero when any verification (salvaged prefix, final schedule,
/// cost ledgers, trace suffix) fails to match the uninterrupted run.
fn cmd_crash_test(flags: &Flags, out: Out) -> Result<(), String> {
    let instance = load_instance(flags)?;
    let alg = flags.get("alg").unwrap_or("first-fit-any");
    let plan = FaultPlan::parse(flags.get("faults").unwrap_or("seeded:42:3"))?;
    let policy_name = flags.get("recover").unwrap_or("same-type");
    // Default kill point: roughly mid-run (each job contributes an arrival
    // and a departure driver event; the harness clamps into range).
    let stop_after = flags.get_or("stop-after", instance.job_count() as u64)?;
    let artifacts = flags.get("artifacts").map(std::path::PathBuf::from);
    if let Some(dir) = &artifacts {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    }
    // Surface unknown-algorithm/policy errors once, before the factories
    // (which must be infallible) re-build fresh state per run.
    online_or_scripted(alg, &instance)?;
    bshm_faults::policy_by_name(policy_name)?;
    let mut make_scheduler =
        || online_or_scripted(alg, &instance).expect("algorithm validated above");
    let mut make_policy =
        || bshm_faults::policy_by_name(policy_name).expect("policy validated above");
    let report = bshm_faults::crash_test(
        &instance,
        &mut make_scheduler,
        &plan,
        &mut make_policy,
        stop_after,
        artifacts.as_deref(),
    )
    .map_err(|e| e.to_string())?;
    let _ = writeln!(out, "{}", report.summary());
    if let Some(dir) = &artifacts {
        let _ = writeln!(
            out,
            "artifacts:  {} (torn trace .partial + checkpoint)",
            dir.display()
        );
    }
    if report.passed() {
        Ok(())
    } else {
        Err("crash-test verification failed (see summary above)".to_string())
    }
}

/// Reads and parses a trace JSONL file, rejecting empty/truncated input.
fn load_trace(path: &str) -> Result<Vec<bshm_obs::TraceEvent>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let events = replay::parse_jsonl(&text)?;
    if events.is_empty() {
        return Err(format!(
            "trace {path} contains no events (empty or truncated file?)"
        ));
    }
    Ok(events)
}

fn cmd_export_metrics(flags: &Flags, out: Out) -> Result<(), String> {
    let path = flags.require("trace")?;
    let events = load_trace(path)?;
    // Unlike `solve --metrics` (whose JSON dump predates this command),
    // the exposition snapshot defaults to Prometheus text.
    let format = match flags.get("format") {
        None => MetricsFormat::Prometheus,
        some => parse_metrics_format(some, "format")?,
    };
    let label = flags.get("alg").unwrap_or("trace");
    let n_types = replay::infer_n_types(&events);
    let metrics = replay::metrics_from_events(label, &events, n_types);
    let rendered = match format {
        MetricsFormat::Prometheus => bshm_obs::encode_prometheus(&metrics),
        MetricsFormat::Json => {
            serde_json::to_string_pretty(&metrics).expect("metrics serialize") + "\n"
        }
    };
    match flags.get("out") {
        Some(p) => {
            std::fs::write(p, &rendered).map_err(|e| format!("writing {p}: {e}"))?;
            let _ = writeln!(out, "wrote metrics snapshot to {p}");
        }
        None => {
            let _ = write!(out, "{rendered}");
        }
    }
    Ok(())
}

/// Scales `v` in `0..=peak` to one of nine block glyphs (space for 0).
fn gauge_glyph(v: u32, peak: u32) -> char {
    const BLOCKS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    if v == 0 || peak == 0 {
        return ' ';
    }
    let idx = ((u64::from(v) * 8).div_ceil(u64::from(peak.max(1))) as usize).clamp(1, 8);
    BLOCKS[idx - 1]
}

fn cmd_top(flags: &Flags, out: Out) -> Result<(), String> {
    let path = match (flags.positional().first(), flags.get("trace")) {
        (Some(p), _) => p.clone(),
        (None, Some(p)) => p.to_string(),
        (None, None) => return Err("top needs a trace: `bshm top TRACE.jsonl`".to_string()),
    };
    let events = load_trace(&path)?;
    let cols = flags.get_or("cols", 64usize)?.max(2);
    let n_types = replay::infer_n_types(&events);
    let metrics = replay::metrics_from_events("trace", &events, n_types);
    let timeline = replay::replay_timeline(&events, n_types);
    let t0 = events.first().map_or(0, bshm_obs::TraceEvent::time);
    let t1 = events.last().map_or(0, bshm_obs::TraceEvent::time);

    let _ = writeln!(out, "trace:        {path}");
    let _ = writeln!(
        out,
        "events:       {} over [{t0}, {t1}] across {n_types} machine types",
        events.len()
    );
    let _ = writeln!(
        out,
        "jobs:         {} arrived, {} departed, {} placed ({} opened / {} reused)",
        metrics.arrivals,
        metrics.departures,
        metrics.placements,
        metrics.opened_placements,
        metrics.reused_placements
    );

    // Per-type open-machine gauge, sampled over the trace's time span.
    let _ = writeln!(out, "\nopen machines (sampled gauge, {cols} columns):");
    let sample = |ty: usize| -> Vec<u32> {
        (0..cols)
            .map(|c| {
                let t = t0 + (t1 - t0) * c as u64 / (cols as u64 - 1).max(1);
                timeline.at(t).get(ty).copied().unwrap_or(0)
            })
            .collect()
    };
    for ty in 0..n_types {
        let peak = metrics.open_peak_by_type.get(ty).copied().unwrap_or(0);
        let row: String = sample(ty).iter().map(|&v| gauge_glyph(v, peak)).collect();
        let _ = writeln!(out, "  type{ty} peak {peak:>4} |{row}|");
    }

    // Utilization histogram as horizontal bars.
    let _ = writeln!(out, "\nmachine fill at placement (decile histogram):");
    let max_count = metrics.utilization_hist.iter().copied().max().unwrap_or(0);
    for (i, &c) in metrics.utilization_hist.iter().enumerate() {
        let (lo, hi) = bshm_obs::recorder::utilization_bucket_bounds(i);
        let width = if max_count == 0 {
            0
        } else {
            (c as usize * 40).div_ceil(max_count as usize)
        };
        let _ = writeln!(
            out,
            "  [{lo:.1},{hi:.1}) {:<40} {c}",
            "#".repeat(width.min(40))
        );
    }

    // Decision latency quantiles; offline and clock-free traces carry no
    // timed decisions, so theirs are absent rather than ~0 ns.
    let quantile = |q| {
        metrics
            .decision_ns_quantile(q)
            .map_or_else(|| "n/a".to_string(), |ns| format!("~{ns:.0} ns"))
    };
    let _ = writeln!(
        out,
        "\ndecision latency: p50 {}, p95 {}, p99 {} ({} decisions, {} ns total)",
        quantile(0.50),
        quantile(0.95),
        quantile(0.99),
        metrics.placements,
        metrics.decision_ns_sum
    );

    // Cost accrual table per machine type.
    let mut accruals = vec![0u64; n_types];
    let mut busy_ticks = vec![0u64; n_types];
    let mut rates = vec![0u64; n_types];
    for e in &events {
        if let bshm_obs::TraceEvent::CostAccrual {
            machine_type,
            busy,
            rate,
            ..
        } = *e
        {
            if let Some(i) = accruals.get_mut(machine_type.0) {
                *i += 1;
            }
            if let Some(b) = busy_ticks.get_mut(machine_type.0) {
                *b += busy;
            }
            if let Some(r) = rates.get_mut(machine_type.0) {
                *r = rate;
            }
        }
    }
    let total_cost = metrics.traced_cost.max(1);
    let _ = writeln!(out, "\ncost accrual by type:");
    let _ = writeln!(
        out,
        "  {:>5} {:>9} {:>11} {:>6} {:>12} {:>6}",
        "type", "accruals", "busy-ticks", "rate", "cost", "share"
    );
    for ty in 0..n_types {
        let cost = metrics.cost_by_type.get(ty).copied().unwrap_or(0);
        let _ = writeln!(
            out,
            "  {ty:>5} {:>9} {:>11} {:>6} {cost:>12} {:>5.1}%",
            accruals[ty],
            busy_ticks[ty],
            rates[ty],
            cost as f64 * 100.0 / total_cost as f64
        );
    }
    let _ = writeln!(out, "  total cost: {}", metrics.traced_cost);

    // Live gap gauges, when the trace carries GapSample events.
    let gap = bshm_obs::gap_timeline_from_events(&events);
    if !gap.points.is_empty() {
        match (gap.points.last(), gap.final_ratio()) {
            (Some(last), Some(r)) => {
                let _ = writeln!(
                    out,
                    "\ngap gauges:   final {r:.3} (cost {} vs lower bound {}), \
                     max {:.3} over {} samples",
                    last.cost,
                    last.lower_bound,
                    gap.max_ratio(),
                    gap.points.len()
                );
            }
            _ => {
                let _ = writeln!(
                    out,
                    "\ngap gauges:   no sample with a positive lower bound \
                     ({} samples)",
                    gap.points.len()
                );
            }
        }
    }
    Ok(())
}

/// Resolves the trace argument shared by the trace-reading subcommands:
/// first positional, falling back to `--trace`.
fn trace_arg(flags: &Flags, cmd: &str) -> Result<String, String> {
    match (flags.positional().first(), flags.get("trace")) {
        (Some(p), _) => Ok(p.clone()),
        (None, Some(p)) => Ok(p.to_string()),
        (None, None) => Err(format!("{cmd} needs a trace: `bshm {cmd} TRACE.jsonl`")),
    }
}

/// `health`: evaluate an SLO spec against a recorded trace and exit
/// nonzero on breach — the CI-facing face of the live health plane.
///
/// The trace is read twice through the streaming iterator (never held in
/// memory): one pass to infer the catalog width, one to feed the
/// [`bshm_obs::HealthProbe`]. Because the engine's rules are event-clock
/// and fixed-point only, the verdict for a given trace and spec is fully
/// deterministic.
fn cmd_health(flags: &Flags, out: Out) -> Result<(), String> {
    let path = trace_arg(flags, "health")?;
    let spec = spec::parse_slo(flags.get("slo").unwrap_or(bshm_obs::DEFAULT_SLO_SPEC))?;
    // Pass 1 (streaming): the catalog width.
    let mut n_types = 0usize;
    let mut total = 0u64;
    for e in replay::stream_jsonl_file(std::path::Path::new(&path))? {
        n_types = n_types.max(replay::event_type_bound(&e?));
        total += 1;
    }
    if total == 0 {
        return Err(format!(
            "trace {path} contains no events (empty or truncated file?)"
        ));
    }
    // Pass 2 (streaming): feed the health plane.
    let mut probe = bshm_obs::HealthProbe::new(spec, n_types, NoProbe);
    if let Some(dir) = flags.get("snapshots") {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {dir}: {e}"))?;
        probe = probe.with_snapshot_dir(dir);
    }
    for e in replay::stream_jsonl_file(std::path::Path::new(&path))? {
        probe.record(&e?);
    }
    let (_, report) = probe.into_parts();
    let _ = writeln!(out, "trace:        {path} ({total} events)");
    let _ = write!(out, "{}", report.summary());
    for s in &report.snapshots {
        let _ = writeln!(out, "snapshot:     {s}");
    }
    for s in &report.snapshot_errors {
        let _ = writeln!(out, "snapshot err: {s}");
    }
    if let Some(p) = flags.get("report") {
        bshm_obs::write_health_report(std::path::Path::new(p), &report)?;
        let _ = writeln!(out, "wrote health report to {p}");
    }
    match flags.get("expect") {
        Some(name) => {
            let reason = bshm_obs::AlertReason::parse(name).ok_or_else(|| {
                let all: Vec<&str> = bshm_obs::AlertReason::ALL
                    .iter()
                    .map(|r| r.as_str())
                    .collect();
                format!(
                    "--expect: unknown alert reason {name:?} (one of: {})",
                    all.join(", ")
                )
            })?;
            let n = report.count(reason);
            if n > 0 {
                let _ = writeln!(out, "expected:     [{name}] fired {n} time(s)");
                Ok(())
            } else {
                Err(format!(
                    "expected alert [{name}] did not fire ({} alert(s) total)",
                    report.alerts.len()
                ))
            }
        }
        None if report.breached() => Err(format!(
            "SLO breached: {} alert(s) fired (see list above)",
            report.alerts.len()
        )),
        None => {
            let _ = writeln!(out, "SLO:          PASS (no alerts)");
            Ok(())
        }
    }
}

/// `watch`: the rolling dashboard of a (possibly live) trace.
///
/// Streams the trace into a bounded [`bshm_obs::RollingWindows`] fold and
/// renders the retained windows: open-machine/arrival sparklines (the
/// same glyph scale as `bshm top`), windowed latency quantiles, windowed
/// gap ratio and per-window alert counts. A torn trailing line — what a
/// live writer mid-flush looks like — truncates the view instead of
/// failing. `--follow N` re-polls the file N more times.
fn cmd_watch(flags: &Flags, out: Out) -> Result<(), String> {
    let path = trace_arg(flags, "watch")?;
    let width = flags.get_or("window", 64u64)?;
    if width == 0 {
        return Err("--window must be positive".to_string());
    }
    let rows = flags.get_or("rows", 12usize)?.max(1);
    let polls = flags.get_or("follow", 0u32)?;
    let mut seen = watch_render(out, &path, width, rows)?;
    for poll in 1..=polls {
        std::thread::sleep(std::time::Duration::from_millis(250));
        let _ = writeln!(out, "\n── poll {poll}/{polls}");
        let now = watch_render(out, &path, width, rows)?;
        if now == seen {
            let _ = writeln!(out, "(no new events)");
        }
        seen = now;
    }
    Ok(())
}

/// One render of the `watch` dashboard. Returns the parsed event count,
/// so the `--follow` loop can report an idle poll.
fn watch_render(out: Out, path: &str, width: u64, rows: usize) -> Result<u64, String> {
    // Pass 1 (streaming): catalog width; a torn tail ends the view early.
    let mut n_types = 0usize;
    let mut total = 0u64;
    let mut torn: Option<String> = None;
    for e in replay::stream_jsonl_file(std::path::Path::new(path))? {
        match e {
            Ok(e) => {
                n_types = n_types.max(replay::event_type_bound(&e));
                total += 1;
            }
            Err(note) => {
                torn = Some(note);
                break;
            }
        }
    }
    // Pass 2 (streaming): fold into a ring of at most `rows` windows; the
    // totals merge every window as it closes, evicted ones included.
    let mut rw = bshm_obs::RollingWindows::new(width, rows, n_types);
    let mut totals = bshm_obs::Metrics::new("window", n_types);
    for e in replay::stream_jsonl_file(std::path::Path::new(path))? {
        let Ok(e) = e else { break };
        rw.observe(&e, |w| totals.merge(&w.metrics));
    }
    // The in-progress window joins the dashboard.
    if let Some(w) = rw.flush() {
        totals.merge(&w.metrics);
    }
    let hist = rw.history();

    let _ = writeln!(out, "trace:        {path}");
    let _ = writeln!(
        out,
        "events:       {total} over {} machine type(s), window width {width}",
        n_types
    );
    if let Some(note) = &torn {
        let _ = writeln!(
            out,
            "tail:         torn mid-write (live writer?) — showing the valid prefix ({note})"
        );
    }
    let _ = writeln!(
        out,
        "windows:      {} shown of {} closed (ring capacity {rows})",
        hist.len(),
        hist.len() as u64 + rw.evicted()
    );

    // Sparklines across the retained windows, on `top`'s glyph scale.
    let gauge32 = |v: u64| u32::try_from(v).unwrap_or(u32::MAX);
    let spark = |vals: &[u64]| -> (String, u64) {
        let peak = vals.iter().copied().max().unwrap_or(0);
        let row: String = vals
            .iter()
            .map(|&v| gauge_glyph(gauge32(v), gauge32(peak)))
            .collect();
        (row, peak)
    };
    let opens: Vec<u64> = hist
        .iter()
        .map(bshm_obs::WindowStats::open_machines)
        .collect();
    let arrivals: Vec<u64> = hist.iter().map(|w| w.metrics.arrivals).collect();
    let (row, peak) = spark(&opens);
    let _ = writeln!(out, "open machines |{row}| peak {peak}");
    let (row, peak) = spark(&arrivals);
    let _ = writeln!(out, "arrivals      |{row}| peak {peak}");

    // Per-window table: the same quantities the SLO engine sees.
    let _ = writeln!(
        out,
        "\n{:>7} {:>13} {:>5} {:>6} {:>9} {:>7} {:>6} {:>6}",
        "window", "span", "arr", "place", "p99-ns", "gap", "alerts", "open"
    );
    for w in hist {
        let gap = w.gap_ratio_milli().map_or_else(
            || "-".to_string(),
            |m| format!("{}.{:03}", m / 1000, m % 1000),
        );
        let p99 = w
            .decision_ns_quantile(0.99)
            .map_or_else(|| "-".to_string(), |q| format!("{q:.0}"));
        let _ = writeln!(
            out,
            "{:>7} {:>13} {:>5} {:>6} {:>9} {:>7} {:>6} {:>6}",
            w.window,
            format!("[{},{})", w.start, w.end),
            w.metrics.arrivals,
            w.metrics.placements,
            p99,
            gap,
            w.metrics.alerts,
            w.open_machines()
        );
    }
    let _ = writeln!(
        out,
        "\ntotals:       {} arrivals, {} placements, {} alert(s), cost {}",
        totals.arrivals, totals.placements, totals.alerts, totals.traced_cost
    );
    Ok(total)
}

/// Decision-bearing events for `explain`/`xray`: read from a recorded
/// trace when `path` is given, otherwise re-run `--alg` on `--instance`
/// under the x-ray driver. Returns the events, the algorithm label and a
/// human-readable source description.
fn xray_events(
    path: Option<&str>,
    flags: &Flags,
    out: Out,
) -> Result<(Vec<bshm_obs::TraceEvent>, String, String), String> {
    if let Some(path) = path {
        let events = load_trace(path)?;
        if !events
            .iter()
            .any(|e| matches!(e, bshm_obs::TraceEvent::Decision { .. }))
        {
            return Err(format!(
                "trace {path} carries no Decision events (recorded without the x-ray?); \
                 re-record it with `bshm xray --instance FILE --alg NAME --trace {path}`"
            ));
        }
        let alg = flags.get("alg").unwrap_or("trace").to_string();
        return Ok((events, alg, format!("trace {path}")));
    }
    let instance = load_instance(flags)
        .map_err(|e| format!("need a Decision-bearing trace or --instance FILE: {e}"))?;
    let alg = flags.get("alg").unwrap_or("auto").to_string();
    let mut collector = bshm_obs::Collector::default();
    run_alg_xray(&alg, &instance, &mut collector)?;
    if let Some(p) = flags.get("trace") {
        let buf = bshm_obs::jsonl_string(&collector.events)
            .map_err(|e| format!("encoding trace: {e}"))?;
        std::fs::write(p, buf).map_err(|e| format!("writing {p}: {e}"))?;
        let _ = writeln!(out, "wrote {} trace events to {p}", collector.events.len());
    }
    Ok((collector.events, alg.clone(), format!("live {alg} run")))
}

/// `explain`: why was job J placed on machine M? Prints the one decision
/// that placed the job — every candidate its scheduler examined, each
/// typed rejection, the winner and the decision's deterministic op counts.
fn cmd_explain(flags: &Flags, out: Out) -> Result<(), String> {
    let job_id: u32 = flags
        .require("job")?
        .parse()
        .map_err(|e| format!("--job: {e}"))?;
    let job = bshm_core::job::JobId(job_id);
    let (events, _, source) = xray_events(flags.get("trace"), flags, out)?;
    let decision = events.iter().find_map(|e| match e {
        bshm_obs::TraceEvent::Decision {
            t,
            job: j,
            machine,
            placed,
            pool_size,
            candidates,
            ops,
        } if *j == job => Some((*t, *machine, *placed, *pool_size, candidates, ops)),
        _ => None,
    });
    let Some((t, machine, placed, pool_size, candidates, ops)) = decision else {
        return Err(format!(
            "no decision recorded for job {job_id} (unknown id, or the job was never placed)"
        ));
    };
    let size = events.iter().find_map(|e| match e {
        bshm_obs::TraceEvent::Arrival { job: j, size, .. } if *j == job => Some(*size),
        _ => None,
    });
    let _ = writeln!(out, "source:       {source}");
    match size {
        Some(s) => {
            let _ = writeln!(out, "job {job_id}:       size {s}, arrived t={t}");
        }
        None => {
            let _ = writeln!(out, "job {job_id}:       arrived t={t}");
        }
    }
    let _ = writeln!(
        out,
        "decision:     machine {} ({}), {} machine(s) known to the scheduler",
        machine.0,
        placed.as_str(),
        pool_size
    );
    let _ = writeln!(
        out,
        "ops:          {} scanned, {} comparisons, {} rejections",
        ops.machines_scanned,
        ops.capacity_comparisons,
        ops.total_rejected()
    );
    if candidates.is_empty() {
        let _ = writeln!(out, "rejected before the winner: none");
    } else {
        let _ = writeln!(out, "rejected before the winner:");
        for c in candidates {
            let _ = writeln!(out, "  machine {}: {}", c.machine.0, c.reason.as_str());
        }
    }
    let noted: Vec<String> = RejectReason::ALL
        .iter()
        .filter_map(|&r| {
            let counted = ops.rejected(r);
            let attributed = candidates.iter().filter(|c| c.reason == r).count() as u64;
            (counted > attributed).then(|| format!("{} ×{}", r.as_str(), counted - attributed))
        })
        .collect();
    if !noted.is_empty() {
        let _ = writeln!(out, "also noted (no single machine): {}", noted.join(", "));
    }
    if let Some(expect) = flags.get("machine") {
        let expect: u32 = expect.parse().map_err(|e| format!("--machine: {e}"))?;
        if expect == machine.0 {
            let _ = writeln!(out, "confirmed:    job {job_id} landed on machine {expect}");
        } else {
            let _ = writeln!(
                out,
                "mismatch:     job {job_id} landed on machine {}, not machine {expect}",
                machine.0
            );
        }
    }
    Ok(())
}

/// One pool-size bucket of the scan-length curve.
#[derive(serde::Serialize)]
struct XrayScanRow {
    /// Smallest pool size in the bucket.
    pool_lo: u64,
    /// Largest pool size in the bucket.
    pool_hi: u64,
    /// Decisions taken at these pool sizes.
    decisions: u64,
    /// Mean machines scanned per decision in the bucket.
    mean_scanned: f64,
}

/// One machine's row in the utilization heat table.
#[derive(serde::Serialize)]
struct XrayMachineRow {
    /// The machine id.
    machine: u32,
    /// Its catalog type.
    machine_type: usize,
    /// Its capacity.
    capacity: u64,
    /// Total time with at least one active job.
    busy_time: u64,
    /// Mean `load / capacity` over busy time (0 when never busy).
    mean_utilization: f64,
}

/// The machine-readable `xray --format json` payload.
#[derive(serde::Serialize)]
struct XrayReport {
    /// Where the events came from.
    source: String,
    /// Algorithm label.
    algorithm: String,
    /// Number of placement decisions.
    decisions: u64,
    /// Total scan work (machines scanned + comparisons) over the run.
    total_scan_ops: u64,
    /// Folded op-counter totals.
    ops: OpCounter,
    /// Ops-per-decision quantiles (bucketed estimates).
    ops_per_decision_p50: f64,
    /// 95th percentile.
    ops_per_decision_p95: f64,
    /// 99th percentile.
    ops_per_decision_p99: f64,
    /// Rejection counts by typed reason.
    rejections: std::collections::BTreeMap<String, u64>,
    /// Scan length vs pool size, in power-of-two pool buckets.
    scan_curve: Vec<XrayScanRow>,
    /// Per-machine utilization summary.
    machines: Vec<XrayMachineRow>,
}

/// Buckets a pool size for the scan curve: 0, 1, 2–3, 4–7, …
fn pool_bucket(pool: u64) -> usize {
    match pool {
        0 => 0,
        p => 1 + p.ilog2() as usize,
    }
}

/// `xray`: the op-count profile of a decision-traced run.
fn cmd_xray(flags: &Flags, out: Out) -> Result<(), String> {
    let input = match (flags.positional().first(), flags.get("instance")) {
        (Some(p), _) => Some(p.clone()),
        (None, Some(_)) => None,
        (None, None) => {
            return Err(
                "xray needs a trace (`bshm xray TRACE.jsonl`) or --instance FILE".to_string(),
            )
        }
    };
    let (events, alg, source) = xray_events(input.as_deref(), flags, out)?;
    let decisions: Vec<(u64, OpCounter)> = events
        .iter()
        .filter_map(|e| match e {
            bshm_obs::TraceEvent::Decision { pool_size, ops, .. } => Some((*pool_size, **ops)),
            _ => None,
        })
        .collect();
    if decisions.is_empty() {
        return Err(format!("{source} carries no Decision events"));
    }
    let n_types = replay::infer_n_types(&events);
    let metrics = replay::metrics_from_events(&alg, &events, n_types);
    let mut totals = OpCounter::default();
    for (_, ops) in &decisions {
        totals.fold(ops);
    }
    let (p50, p95, p99) = (
        metrics.ops_per_decision_quantile(0.50).unwrap_or(0.0),
        metrics.ops_per_decision_quantile(0.95).unwrap_or(0.0),
        metrics.ops_per_decision_quantile(0.99).unwrap_or(0.0),
    );
    // Scan length vs pool size, in power-of-two pool buckets.
    let n_buckets = decisions
        .iter()
        .map(|&(p, _)| pool_bucket(p) + 1)
        .max()
        .unwrap_or(1);
    let mut bucket_count = vec![0u64; n_buckets];
    let mut bucket_scanned = vec![0u64; n_buckets];
    for &(pool, ops) in &decisions {
        let b = pool_bucket(pool);
        bucket_count[b] += 1;
        bucket_scanned[b] += ops.machines_scanned;
    }
    let scan_curve: Vec<XrayScanRow> = (0..n_buckets)
        .filter(|&b| bucket_count[b] > 0)
        .map(|b| XrayScanRow {
            pool_lo: if b == 0 { 0 } else { 1 << (b - 1) },
            pool_hi: if b == 0 { 0 } else { (1 << b) - 1 },
            decisions: bucket_count[b],
            mean_scanned: bucket_scanned[b] as f64 / bucket_count[b] as f64,
        })
        .collect();
    let usage = replay::machine_utilization(&events);
    let machines: Vec<XrayMachineRow> = usage
        .iter()
        .map(|u| XrayMachineRow {
            machine: u.machine.0,
            machine_type: u.machine_type.0,
            capacity: u.capacity,
            busy_time: u.busy_time(),
            mean_utilization: u.mean_utilization().unwrap_or(0.0),
        })
        .collect();
    let rejections: std::collections::BTreeMap<String, u64> = RejectReason::ALL
        .iter()
        .map(|&r| (r.as_str().to_string(), totals.rejected(r)))
        .collect();
    let rendered = match flags.get("format").unwrap_or("console") {
        "json" => {
            let report = XrayReport {
                source,
                algorithm: alg,
                decisions: totals.decisions,
                total_scan_ops: totals.total_ops(),
                ops: totals,
                ops_per_decision_p50: p50,
                ops_per_decision_p95: p95,
                ops_per_decision_p99: p99,
                rejections,
                scan_curve,
                machines,
            };
            serde_json::to_string_pretty(&report).expect("xray reports serialize") + "\n"
        }
        "console" => {
            let mut buf: Vec<u8> = Vec::new();
            let b: Out = &mut buf;
            let _ = writeln!(b, "decision x-ray: {alg} ({source})");
            let _ = writeln!(
                b,
                "decisions:    {} ({} opened / {} reused, {} rejections)",
                totals.decisions,
                totals.machines_opened,
                totals.machines_reused,
                totals.total_rejected()
            );
            let _ = writeln!(
                b,
                "ops/decision: p50 ~{p50:.0}, p95 ~{p95:.0}, p99 ~{p99:.0} \
                 ({} scan ops total: {} scanned + {} comparisons)",
                totals.total_ops(),
                totals.machines_scanned,
                totals.capacity_comparisons
            );
            let noted: Vec<String> = rejections
                .iter()
                .filter(|&(_, &n)| n > 0)
                .map(|(r, n)| format!("{r} {n}"))
                .collect();
            let _ = writeln!(
                b,
                "rejections:   {}",
                if noted.is_empty() {
                    "none".to_string()
                } else {
                    noted.join(", ")
                }
            );
            let _ = writeln!(b, "\nscan length vs open-pool size:");
            let _ = writeln!(
                b,
                "  {:>11} {:>10} {:>13}",
                "pool", "decisions", "mean scanned"
            );
            for row in &scan_curve {
                let pool = if row.pool_lo == row.pool_hi {
                    format!("{}", row.pool_lo)
                } else {
                    format!("{}-{}", row.pool_lo, row.pool_hi)
                };
                let _ = writeln!(
                    b,
                    "  {pool:>11} {:>10} {:>13.1}",
                    row.decisions, row.mean_scanned
                );
            }
            let cols = flags.get_or("cols", 48usize)?.max(2);
            let max_rows = flags.get_or("rows", 16usize)?;
            let t0 = events.first().map_or(0, bshm_obs::TraceEvent::time);
            let t1 = events.last().map_or(0, bshm_obs::TraceEvent::time);
            let _ = writeln!(
                b,
                "\nutilization heat (fill = load/capacity, {cols} columns over [{t0}, {t1}]):"
            );
            for u in usage.iter().take(max_rows) {
                let row: String = (0..cols)
                    .map(|c| {
                        let t = t0 + (t1 - t0) * c as u64 / (cols as u64 - 1).max(1);
                        let load = u
                            .points
                            .iter()
                            .take_while(|p| p.t <= t)
                            .last()
                            .map_or(0, |p| p.load);
                        gauge_glyph(
                            u32::try_from(load).unwrap_or(u32::MAX),
                            u32::try_from(u.capacity).unwrap_or(u32::MAX),
                        )
                    })
                    .collect();
                let _ = writeln!(
                    b,
                    "  m{:<4} type{} cap {:>6} |{row}| mean {:>5.1}%",
                    u.machine.0,
                    u.machine_type.0,
                    u.capacity,
                    u.mean_utilization().unwrap_or(0.0) * 100.0
                );
            }
            if usage.len() > max_rows {
                let _ = writeln!(
                    b,
                    "  … {} more machines (pass --rows N for more)",
                    usage.len() - max_rows
                );
            }
            String::from_utf8(buf).map_err(|e| format!("BUG: non-utf8 report: {e}"))?
        }
        other => {
            return Err(format!(
                "--format: expected `console` or `json`, got {other:?}"
            ))
        }
    };
    match flags.get("out") {
        Some(p) => {
            std::fs::write(p, &rendered).map_err(|e| format!("writing {p}: {e}"))?;
            let _ = writeln!(out, "wrote x-ray report to {p}");
        }
        None => {
            let _ = write!(out, "{rendered}");
        }
    }
    Ok(())
}

/// Salvage statistics in a `replay --report` JSON document.
#[derive(serde::Serialize)]
struct SalvageStats {
    /// Events recovered from the valid prefix.
    kept_events: u64,
    /// Damaged lines dropped (the torn line and everything after it).
    dropped_lines: u64,
    /// Exact bytes lost to the tear.
    dropped_bytes: u64,
}

/// What `replay --report FILE` writes.
#[derive(serde::Serialize)]
struct ReplayReport {
    /// Trace the report was built from.
    trace: String,
    /// Total events replayed.
    events: u64,
    /// Event counts by kind.
    kinds: std::collections::BTreeMap<String, usize>,
    /// Total cost accrued in the trace.
    traced_cost: u64,
    /// Salvage accounting (present iff `--salvage` was passed).
    salvage: Option<SalvageStats>,
}

fn cmd_replay(flags: &Flags, out: Out) -> Result<(), String> {
    let path = flags.require("trace")?;
    // --salvage tolerates a torn trailing line (what a killed writer
    // leaves behind): replay the valid prefix, report what was dropped.
    let mut salvage_stats = None;
    let events = if flags.has("salvage") {
        let s = bshm_obs::sink::salvage_jsonl(std::path::Path::new(path))?;
        let _ = writeln!(
            out,
            "salvage:      kept {} events, dropped {} damaged line(s) / {} byte(s)",
            s.events.len(),
            s.dropped_lines,
            s.dropped_bytes
        );
        if s.events.is_empty() {
            return Err(format!("trace {path} contains no salvageable events"));
        }
        salvage_stats = Some(SalvageStats {
            kept_events: bshm_core::convert::count_u64(s.events.len()),
            dropped_lines: s.dropped_lines,
            dropped_bytes: s.dropped_bytes,
        });
        s.events
    } else {
        load_trace(path)?
    };
    let mut kinds: std::collections::BTreeMap<&'static str, usize> =
        std::collections::BTreeMap::new();
    for e in &events {
        *kinds.entry(e.kind()).or_default() += 1;
    }
    let traced_cost: u64 = events
        .iter()
        .filter_map(|e| match *e {
            bshm_obs::TraceEvent::CostAccrual { busy, rate, .. } => Some(busy * rate),
            _ => None,
        })
        .sum();
    // An instance fixes the timeline's width to its catalog, including
    // top types the trace never opened.
    let instance = match flags.get("instance") {
        Some(_) => Some(load_instance(flags)?),
        None => None,
    };
    let traced_types = replay::infer_n_types(&events);
    let n_types = match &instance {
        Some(instance) if traced_types > instance.catalog().len() => {
            return Err(format!(
                "trace references machine type {} but the instance catalog has {} type(s)",
                traced_types - 1,
                instance.catalog().len()
            ))
        }
        Some(instance) => instance.catalog().len(),
        None => traced_types,
    };
    let _ = writeln!(out, "trace:        {path}");
    let _ = writeln!(out, "events:       {}", events.len());
    for (kind, count) in &kinds {
        let _ = writeln!(out, "  {kind:<12} {count}");
    }
    let _ = writeln!(out, "traced cost:  {traced_cost}");

    let timeline = replay::replay_timeline(&events, n_types);
    let _ = writeln!(out, "\nbusy machines by type:");
    let mut header = format!("{:>8}", "t");
    for i in 0..n_types {
        header.push_str(&format!(" {:>6}", format!("type{i}")));
    }
    let _ = writeln!(out, "{header}");
    let max_rows = flags.get_or("rows", 40usize)?;
    for (i, (t, row)) in timeline.grid.iter().zip(timeline.busy.iter()).enumerate() {
        if i >= max_rows {
            let _ = writeln!(
                out,
                "  … {} more transitions (pass --rows N for more)",
                timeline.grid.len() - max_rows
            );
            break;
        }
        let mut line = format!("{t:>8}");
        for v in row {
            line.push_str(&format!(" {v:>6}"));
        }
        let _ = writeln!(out, "{line}");
    }

    match (&instance, flags.get("schedule")) {
        (Some(instance), Some(spath)) => {
            let data =
                std::fs::read_to_string(spath).map_err(|e| format!("reading {spath}: {e}"))?;
            let schedule: Schedule =
                serde_json::from_str(&data).map_err(|e| format!("parsing {spath}: {e}"))?;
            let reference = machine_timeline(&schedule, instance);
            replay::cross_check(&timeline, &reference)
                .map_err(|e| format!("trace disagrees with schedule timeline: {e}"))?;
            let _ = writeln!(
                out,
                "\ncross-check: replayed timeline matches machine_timeline ({} grid points)",
                reference.grid.len()
            );
        }
        (None, None) => {}
        // `--instance` alone feeds the gap-timeline fallback below.
        (Some(_), None) if flags.has("gap") => {}
        _ => {
            return Err(
                "cross-checking needs both --instance and --schedule (or neither)".to_string(),
            )
        }
    }
    if flags.has("gap") {
        let (gap_tl, recomputed) = gap_timeline_for(&events, flags, path)?;
        if recomputed {
            let _ = writeln!(
                out,
                "\nNOTE: trace predates gap gauges (no GapSample events); gap timeline \
                 recomputed from the --instance catalog"
            );
        }
        print_gap_timeline(out, &gap_tl, max_rows);
    }
    if let Some(report_path) = flags.get("report") {
        let report = ReplayReport {
            trace: path.to_string(),
            events: bshm_core::convert::count_u64(events.len()),
            kinds: kinds.into_iter().map(|(k, v)| (k.to_string(), v)).collect(),
            traced_cost,
            salvage: salvage_stats,
        };
        let json =
            serde_json::to_string(&report).map_err(|e| format!("encoding replay report: {e}"))?;
        std::fs::write(report_path, &json).map_err(|e| format!("writing {report_path}: {e}"))?;
        let _ = writeln!(out, "wrote replay report to {report_path}");
    }
    Ok(())
}

/// The gap timeline of a trace: recorded `GapSample` events when present,
/// otherwise recomputed from the `--instance` catalog (flagged by the
/// returned bool, so callers print a loud note).
fn gap_timeline_for(
    events: &[bshm_obs::TraceEvent],
    flags: &Flags,
    path: &str,
) -> Result<(bshm_obs::GapTimeline, bool), String> {
    let recorded = bshm_obs::gap_timeline_from_events(events);
    if !recorded.points.is_empty() {
        return Ok((recorded, false));
    }
    if flags.get("instance").is_none() {
        return Err(format!(
            "trace {path} carries no GapSample events (recorded before the gap \
             observatory?); pass --instance FILE so the gap timeline can be recomputed \
             from its catalog"
        ));
    }
    let instance = load_instance(flags)?;
    Ok((
        bshm_obs::compute_gap_timeline(events, instance.catalog()),
        true,
    ))
}

/// Renders a gap timeline as a console table plus a final/max summary.
fn print_gap_timeline(out: Out, tl: &bshm_obs::GapTimeline, max_rows: usize) {
    let _ = writeln!(out, "\ngap timeline ({} samples):", tl.points.len());
    let _ = writeln!(
        out,
        "{:>8} {:>12} {:>12} {:>8}",
        "t", "lower-bound", "cost", "ratio"
    );
    for p in tl.points.iter().take(max_rows) {
        let ratio = p
            .ratio()
            .map_or_else(|| "-".to_string(), |r| format!("{r:.3}"));
        let _ = writeln!(
            out,
            "{:>8} {:>12} {:>12} {ratio:>8}",
            p.t, p.lower_bound, p.cost
        );
    }
    if tl.points.len() > max_rows {
        let _ = writeln!(
            out,
            "  … {} more samples (pass --rows N for more)",
            tl.points.len() - max_rows
        );
    }
    match (tl.final_point(), tl.final_ratio()) {
        (Some(p), Some(r)) => {
            let _ = writeln!(
                out,
                "final gap:    {r:.3} (cost {} vs lower bound {}), max {:.3}",
                p.cost,
                p.lower_bound,
                tl.max_ratio()
            );
        }
        _ => {
            let _ = writeln!(out, "final gap:    undefined (lower bound is zero)");
        }
    }
}

/// The machine-readable `gap-report --format json` payload.
#[derive(serde::Serialize)]
struct GapReport {
    /// Trace the report was built from.
    trace: String,
    /// Whether the timeline was recomputed (pre-gap trace) instead of
    /// read from recorded `GapSample` events.
    recomputed: bool,
    /// Where the timeline came from: `"recorded"` (GapSample events) or
    /// `"recomputed"` (pre-gauge trace replayed against the catalog).
    gap_source: String,
    /// Number of gap samples.
    samples: u64,
    /// `cost / lower_bound` at the last sample (0 when undefined).
    final_ratio: f64,
    /// Largest ratio over all samples.
    max_ratio: f64,
    /// The per-timestamp gap timeline.
    timeline: Vec<bshm_obs::GapPoint>,
    /// Total busy-time cost accrued by the trace.
    total_cost: u64,
    /// Cost charged to jobs (equals `total_cost` on well-formed traces).
    attributed_cost: u64,
    /// Cost from orphan accruals (corrupt traces only).
    unattributed_cost: u64,
    /// Per-job attribution, most expensive first.
    attribution: Vec<GapReportRow>,
}

/// One row of the per-job attribution table.
#[derive(serde::Serialize)]
struct GapReportRow {
    /// The job id.
    job: u32,
    /// Busy-time cost charged to this job.
    cost: u64,
    /// `cost / total_cost` (0 when the total is zero).
    share: f64,
}

/// Saturates an exact attribution cost into a JSON-representable `u64`.
fn sat_cost(x: Cost) -> u64 {
    u64::try_from(x).unwrap_or(u64::MAX)
}

/// `gap-report`: per-step gap timeline + per-job cost attribution from a
/// trace, as console text or JSON.
fn cmd_gap_report(flags: &Flags, out: Out) -> Result<(), String> {
    let path = match (flags.positional().first(), flags.get("trace")) {
        (Some(p), _) => p.clone(),
        (None, Some(p)) => p.to_string(),
        (None, None) => {
            return Err("gap-report needs a trace: `bshm gap-report TRACE.jsonl`".to_string())
        }
    };
    let events = load_trace(&path)?;
    let (timeline, recomputed) = gap_timeline_for(&events, flags, &path)?;
    let ledger = bshm_obs::CostLedger::from_events(&events);
    if ledger.attributed_sum() + ledger.unattributed() != ledger.total() {
        return Err(format!(
            "BUG: attribution ledger does not balance: {} attributed + {} unattributed != {} total",
            ledger.attributed_sum(),
            ledger.unattributed(),
            ledger.total()
        ));
    }
    let max_rows = flags.get_or("rows", 40usize)?;
    let rendered = match flags.get("format").unwrap_or("console") {
        "json" => {
            let total = ledger.total();
            let attribution = ledger
                .table()
                .into_iter()
                .map(|(job, cost)| GapReportRow {
                    job: job.0,
                    cost: sat_cost(cost),
                    share: if total == 0 {
                        0.0
                    } else {
                        sat_cost(cost) as f64 / sat_cost(total) as f64
                    },
                })
                .collect();
            let report = GapReport {
                trace: path.clone(),
                recomputed,
                gap_source: if recomputed { "recomputed" } else { "recorded" }.to_string(),
                samples: timeline.points.len() as u64,
                final_ratio: timeline.final_ratio().unwrap_or(0.0),
                max_ratio: timeline.max_ratio(),
                timeline: timeline.points.clone(),
                total_cost: sat_cost(total),
                attributed_cost: sat_cost(ledger.attributed_sum()),
                unattributed_cost: sat_cost(ledger.unattributed()),
                attribution,
            };
            serde_json::to_string_pretty(&report).expect("gap reports serialize") + "\n"
        }
        "console" => {
            let mut buf: Vec<u8> = Vec::new();
            let b: Out = &mut buf;
            if recomputed {
                let _ = writeln!(
                    b,
                    "NOTE: trace predates gap gauges (no GapSample events); gap timeline \
                     recomputed from the --instance catalog"
                );
            }
            let _ = writeln!(b, "trace:        {path}");
            print_gap_timeline(b, &timeline, max_rows);
            let _ = writeln!(
                b,
                "\ncost attribution (opener pays the opening segment, extensions split \
                 proportionally by occupant size):"
            );
            let _ = writeln!(b, "{:>8} {:>12} {:>7}", "job", "cost", "share");
            let table = ledger.table();
            let total = sat_cost(ledger.total()).max(1);
            for &(job, cost) in table.iter().take(max_rows) {
                let _ = writeln!(
                    b,
                    "{:>8} {:>12} {:>6.1}%",
                    job.0,
                    sat_cost(cost),
                    sat_cost(cost) as f64 * 100.0 / total as f64
                );
            }
            if table.len() > max_rows {
                let _ = writeln!(
                    b,
                    "  … {} more jobs (pass --rows N for more)",
                    table.len() - max_rows
                );
            }
            let _ = writeln!(
                b,
                "total:        {} cost, {} attributed over {} jobs, {} unattributed",
                ledger.total(),
                ledger.attributed_sum(),
                table.len(),
                ledger.unattributed()
            );
            String::from_utf8(buf).map_err(|e| format!("BUG: non-utf8 report: {e}"))?
        }
        other => {
            return Err(format!(
                "--format: expected `console` or `json`, got {other:?}"
            ))
        }
    };
    match flags.get("out") {
        Some(p) => {
            std::fs::write(p, &rendered).map_err(|e| format!("writing {p}: {e}"))?;
            let _ = writeln!(out, "wrote gap report to {p}");
        }
        None => {
            let _ = write!(out, "{rendered}");
        }
    }
    Ok(())
}

fn cmd_validate(flags: &Flags, out: Out) -> Result<(), String> {
    let instance = load_instance(flags)?;
    let path = flags.require("schedule")?;
    let data = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let schedule: Schedule =
        serde_json::from_str(&data).map_err(|e| format!("parsing {path}: {e}"))?;
    match validate_schedule(&schedule, &instance) {
        Ok(()) => {
            let _ = writeln!(
                out,
                "feasible; cost {}",
                schedule_cost(&schedule, &instance)
            );
            Ok(())
        }
        Err(e) => Err(format!("infeasible: {e}")),
    }
}

fn cmd_lb(flags: &Flags, out: Out) -> Result<(), String> {
    let instance = load_instance(flags)?;
    let exact = lower_bound(&instance);
    let lp = lp_lower_bound(&instance);
    let _ = writeln!(out, "exact lower bound: {exact}");
    let _ = writeln!(out, "LP relaxation:     {lp:.2}");
    Ok(())
}

fn cmd_info(flags: &Flags, out: Out) -> Result<(), String> {
    let instance = load_instance(flags)?;
    let st = instance.stats();
    let _ = writeln!(out, "jobs:        {}", instance.job_count());
    let _ = writeln!(
        out,
        "types:       {} ({:?})",
        instance.catalog().len(),
        instance.classify()
    );
    for (i, t) in instance.catalog().types().iter().enumerate() {
        let _ = writeln!(
            out,
            "  type {i}: capacity {:>8}, rate {:>8}",
            t.capacity, t.rate
        );
    }
    let _ = writeln!(
        out,
        "span:        [{}, {})",
        st.first_arrival, st.last_departure
    );
    let _ = writeln!(
        out,
        "durations:   {}..{} (mu = {:.2})",
        st.min_duration,
        st.max_duration,
        st.mu()
    );
    let _ = writeln!(out, "max size:    {}", st.max_size);
    let peak = bshm_core::sweep::load_profile(instance.jobs()).max();
    let _ = writeln!(out, "peak load:   {peak}");
    Ok(())
}

fn cmd_render(flags: &Flags, out: Out) -> Result<(), String> {
    let instance = load_instance(flags)?;
    let cols = flags.get_or("cols", 100usize)?;
    let rows = flags.get_or("rows", 24usize)?;
    let placement = bshm_chart::placement::place_jobs(instance.jobs(), PlacementOrder::Arrival);
    let _ = write!(
        out,
        "{}",
        bshm_chart::render::render_placement(&placement, cols, rows)
    );
    // Also show the busy-machine CSV head for the auto schedule.
    let schedule = bshm_algos::auto_offline(&instance, PlacementOrder::Arrival);
    let csv = timeline_csv(&machine_timeline(&schedule, &instance));
    let head: Vec<&str> = csv.lines().take(6).collect();
    let _ = writeln!(out, "\nmachine timeline (head):\n{}", head.join("\n"));
    Ok(())
}

fn service_config(flags: &Flags, data_dir: &str) -> Result<bshm_serve::ServiceConfig, String> {
    let mut config = bshm_serve::ServiceConfig::new(data_dir);
    config.queue_capacity = flags.get_or("queue-capacity", config.queue_capacity)?;
    config.batch_events = flags.get_or("batch", config.batch_events)?;
    config.patience = flags.get_or("patience", config.patience)?;
    if let Some(spec) = flags.get("slo") {
        config.slo = bshm_obs::slo::SloSpec::parse(spec)?;
    }
    Ok(config)
}

fn cmd_serve(flags: &Flags, out: Out) -> Result<(), String> {
    let data_dir = flags.require("data-dir")?;
    let config = service_config(flags, data_dir)?;
    let mut service = bshm_serve::Service::new(config, bshm_serve::builtin_factory())?;
    match (flags.get("script"), flags.get("socket")) {
        (Some(script), None) => {
            // Deterministic one-shot mode: replay a request script and
            // print every request/response pair.
            let text =
                std::fs::read_to_string(script).map_err(|e| format!("reading {script}: {e}"))?;
            for line in text.lines() {
                let request = line.trim();
                if request.is_empty() || request.starts_with('#') {
                    continue;
                }
                let reply = service.handle_line(request);
                let _ = writeln!(out, "> {request}");
                let _ = writeln!(out, "{reply}");
                if matches!(request, "QUIT" | "SHUTDOWN") {
                    break;
                }
            }
            Ok(())
        }
        (None, Some(socket)) => {
            let _ = writeln!(out, "serving on {socket} (send QUIT to stop)");
            bshm_serve::serve_unix(&mut service, std::path::Path::new(socket))
        }
        _ => Err("serve needs exactly one of --script FILE or --socket PATH".to_string()),
    }
}

fn cmd_drill(flags: &Flags, out: Out) -> Result<(), String> {
    let data_dir = flags.require("data-dir")?;
    let kind = flags.get("kind").unwrap_or("all");
    let dir = std::path::Path::new(data_dir);
    let mut reports = Vec::with_capacity(2);
    if matches!(kind, "all" | "crash-recovery") {
        reports.push(bshm_serve::crash_recovery_drill(dir)?);
    }
    if matches!(kind, "all" | "overload") {
        reports.push(bshm_serve::overload_drill(dir)?);
    }
    if reports.is_empty() {
        return Err(format!(
            "--kind {kind:?}: expected crash-recovery, overload or all"
        ));
    }
    let json = serde_json::to_string(&reports).map_err(|e| format!("encoding drills: {e}"))?;
    write_or_print(out, flags.get("report"), &json, "drill report")?;
    for r in &reports {
        let failed = r.checks.iter().filter(|c| !c.passed).count();
        let _ = writeln!(
            out,
            "{}: {} ({} checks, {} failed)",
            r.kind,
            if r.passed { "PASS" } else { "FAIL" },
            r.checks.len(),
            failed
        );
    }
    if reports.iter().all(|r| r.passed) {
        Ok(())
    } else {
        Err("drill failed (see report for the failing checks)".to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_cmd(args: &str) -> (i32, String) {
        let argv: Vec<String> = args.split_whitespace().map(str::to_string).collect();
        let mut buf = Vec::new();
        let code = crate::run(&argv, &mut buf);
        (code, String::from_utf8(buf).unwrap())
    }

    fn tmp(name: &str) -> String {
        let dir = std::env::temp_dir().join("bshm-cli-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name).to_string_lossy().into_owned()
    }

    #[test]
    fn help_prints_usage() {
        let (code, out) = run_cmd("help");
        assert_eq!(code, 0);
        assert!(out.contains("USAGE"));
    }

    #[test]
    fn unknown_command_fails() {
        let (code, out) = run_cmd("frobnicate");
        assert_eq!(code, 2);
        assert!(out.contains("unknown command"));
    }

    #[test]
    fn gen_solve_validate_round_trip() {
        let inst = tmp("inst.json");
        let sched = tmp("sched.json");
        let (code, out) = run_cmd(&format!(
            "gen --n 40 --seed 3 --catalog dec:3:4 --arrivals poisson:3 \
             --durations uniform:10:40 --sizes uniform:1:64 --out {inst}"
        ));
        assert_eq!(code, 0, "{out}");
        let (code, out) = run_cmd(&format!("solve --instance {inst} --alg auto --out {sched}"));
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("ratio:"));
        let (code, out) = run_cmd(&format!("validate --instance {inst} --schedule {sched}"));
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("feasible"));
    }

    #[test]
    fn every_registered_alg_solves() {
        let inst = tmp("inst2.json");
        let (code, _) = run_cmd(&format!(
            "gen --n 25 --seed 5 --catalog saw:4:4 --arrivals poisson:4 \
             --durations uniform:10:30 --sizes pareto:1:100:1.3 --out {inst}"
        ));
        assert_eq!(code, 0);
        for alg in registry::names() {
            let (code, out) = run_cmd(&format!("solve --instance {inst} --alg {alg}"));
            assert_eq!(code, 0, "alg {alg}: {out}");
        }
    }

    #[test]
    fn lb_info_render_work() {
        let inst = tmp("inst3.json");
        run_cmd(&format!(
            "gen --n 20 --seed 1 --catalog inc:3:4 --arrivals batch \
             --durations fixed:10 --sizes uniform:1:16 --out {inst}"
        ));
        let (code, out) = run_cmd(&format!("lb --instance {inst}"));
        assert_eq!(code, 0);
        assert!(out.contains("exact lower bound"));
        let (code, out) = run_cmd(&format!("info --instance {inst}"));
        assert_eq!(code, 0);
        assert!(out.contains("mu = 1.00"));
        let (code, out) = run_cmd(&format!("render --instance {inst} --cols 40 --rows 10"));
        assert_eq!(code, 0);
        assert!(out.contains("machine timeline"));
    }

    #[test]
    fn csv_import_export_round_trip() {
        let inst = tmp("inst-csv.json");
        let csv_out = tmp("trace.csv");
        run_cmd(&format!(
            "gen --n 15 --seed 2 --catalog dec:2:4 --out {inst}"
        ));
        let (code, out) = run_cmd(&format!("export-csv --instance {inst} --out {csv_out}"));
        assert_eq!(code, 0, "{out}");
        // Re-import the CSV with a different catalog and solve it.
        let inst2 = tmp("inst-csv2.json");
        let (code, out) = run_cmd(&format!(
            "gen --from-csv {csv_out} --catalog custom:16x1,64x3 --out {inst2}"
        ));
        assert_eq!(code, 0, "{out}");
        let (code, out) = run_cmd(&format!("solve --instance {inst2} --alg auto"));
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("ratio:"));
    }

    #[test]
    fn csv_import_reports_bad_lines() {
        let bad = tmp("bad.csv");
        std::fs::write(&bad, "id,size,arrival,departure\n1,2,9,5\n").unwrap();
        let (code, out) = run_cmd(&format!("gen --from-csv {bad} --catalog dec:2:4"));
        assert_eq!(code, 2);
        assert!(out.contains("line 2"), "{out}");
    }

    #[test]
    fn solve_trace_replays_to_exact_machine_timeline() {
        // The tentpole acceptance path: a dec-online trace whose replayed
        // per-type timeline exactly matches machine_timeline's output.
        let inst = tmp("inst-trace.json");
        let sched = tmp("sched-trace.json");
        let trace = tmp("trace.jsonl");
        let (code, out) = run_cmd(&format!(
            "gen --n 60 --seed 11 --catalog dec:3:4 --arrivals poisson:2 \
             --durations uniform:5:40 --sizes uniform:1:48 --out {inst}"
        ));
        assert_eq!(code, 0, "{out}");
        let (code, out) = run_cmd(&format!(
            "solve --instance {inst} --alg dec-online --trace {trace} --metrics --out {sched}"
        ));
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("trace events"), "{out}");
        assert!(out.contains("\"algorithm\": \"dec-online\""), "{out}");

        // Replay the trace directly against core's machine_timeline.
        let instance: Instance =
            serde_json::from_str(&std::fs::read_to_string(&inst).unwrap()).unwrap();
        let schedule: Schedule =
            serde_json::from_str(&std::fs::read_to_string(&sched).unwrap()).unwrap();
        let events =
            bshm_obs::replay::parse_jsonl(&std::fs::read_to_string(&trace).unwrap()).unwrap();
        let replayed = bshm_obs::replay::replay_timeline(&events, instance.catalog().len());
        let reference = machine_timeline(&schedule, &instance);
        bshm_obs::replay::cross_check(&replayed, &reference).unwrap();

        // And the replay subcommand agrees.
        let (code, out) = run_cmd(&format!(
            "replay --trace {trace} --instance {inst} --schedule {sched}"
        ));
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("matches machine_timeline"), "{out}");
        assert!(out.contains("busy machines by type"), "{out}");
    }

    #[test]
    fn every_alg_traces_cost_consistently() {
        // For every registered algorithm, the trace's accrued cost must
        // equal the schedule's exact cost, and the replayed timeline must
        // match the schedule-derived one.
        let inst = tmp("inst-trace-all.json");
        let (code, _) = run_cmd(&format!(
            "gen --n 30 --seed 7 --catalog saw:3:4 --arrivals poisson:4 \
             --durations uniform:8:25 --sizes pareto:1:60:1.4 --out {inst}"
        ));
        assert_eq!(code, 0);
        let instance: Instance =
            serde_json::from_str(&std::fs::read_to_string(&inst).unwrap()).unwrap();
        for alg in registry::names() {
            let mut collector = bshm_obs::Collector::default();
            let schedule = run_alg_traced(alg, &instance, &mut collector).unwrap();
            let traced: u64 = collector
                .events
                .iter()
                .filter_map(|e| match *e {
                    bshm_obs::TraceEvent::CostAccrual { busy, rate, .. } => Some(busy * rate),
                    _ => None,
                })
                .sum();
            assert_eq!(
                u128::from(traced),
                schedule_cost(&schedule, &instance),
                "alg {alg}: traced cost diverges"
            );
            let replayed =
                bshm_obs::replay::replay_timeline(&collector.events, instance.catalog().len());
            let reference = machine_timeline(&schedule, &instance);
            bshm_obs::replay::cross_check(&replayed, &reference)
                .unwrap_or_else(|e| panic!("alg {alg}: {e}"));
        }
    }

    #[test]
    fn xray_decisions_replay_identically_for_every_alg() {
        // The acceptance property: for every registered algorithm, the
        // x-ray is deterministic (identical placement sequence and
        // identical OpCounter totals across runs, integer equality), the
        // Decision stream mirrors the Placement stream 1:1, per-decision
        // counters fold back to the run totals, and instrumentation never
        // perturbs the schedule itself.
        let inst = tmp("inst-xray-all.json");
        let (code, _) = run_cmd(&format!(
            "gen --n 30 --seed 11 --catalog saw:3:4 --arrivals poisson:4 \
             --durations uniform:8:25 --sizes pareto:1:60:1.4 --out {inst}"
        ));
        assert_eq!(code, 0);
        let instance: Instance =
            serde_json::from_str(&std::fs::read_to_string(&inst).unwrap()).unwrap();
        for alg in registry::names() {
            let mut c1 = bshm_obs::Collector::default();
            let mut c2 = bshm_obs::Collector::default();
            let (s1, t1) = run_alg_xray(alg, &instance, &mut c1).unwrap();
            let (s2, t2) = run_alg_xray(alg, &instance, &mut c2).unwrap();
            assert_eq!(s1, s2, "alg {alg}: schedule not deterministic");
            assert_eq!(t1, t2, "alg {alg}: op totals not deterministic");
            // Placement events carry wall-clock decision_ns; the Decision
            // stream is derived from control flow alone and must be
            // byte-identical across runs.
            let decision_events = |c: &bshm_obs::Collector| -> Vec<bshm_obs::TraceEvent> {
                c.events
                    .iter()
                    .filter(|e| matches!(e, bshm_obs::TraceEvent::Decision { .. }))
                    .cloned()
                    .collect()
            };
            assert_eq!(
                decision_events(&c1),
                decision_events(&c2),
                "alg {alg}: decision trace differs"
            );
            assert_eq!(
                s1,
                run_alg_traced(alg, &instance, &mut NoProbe).unwrap(),
                "alg {alg}: x-ray perturbed the schedule"
            );
            let placements: Vec<(u32, u32)> = c1
                .events
                .iter()
                .filter_map(|e| match e {
                    bshm_obs::TraceEvent::Placement { job, machine, .. } => {
                        Some((job.0, machine.0))
                    }
                    _ => None,
                })
                .collect();
            let decisions: Vec<(u32, u32)> = c1
                .events
                .iter()
                .filter_map(|e| match e {
                    bshm_obs::TraceEvent::Decision { job, machine, .. } => Some((job.0, machine.0)),
                    _ => None,
                })
                .collect();
            assert!(!decisions.is_empty(), "alg {alg}: no decisions recorded");
            assert_eq!(placements, decisions, "alg {alg}: decision/placement skew");
            let mut folded = bshm_core::ops::OpCounter::default();
            for e in &c1.events {
                if let bshm_obs::TraceEvent::Decision { ops, .. } = e {
                    folded.fold(ops);
                }
            }
            assert_eq!(folded, t1, "alg {alg}: folded decision ops != run totals");
            assert_eq!(
                folded.decisions,
                placements.len() as u64,
                "alg {alg}: decision count != placements"
            );
        }
    }

    #[test]
    fn explain_names_the_winning_machine() {
        let inst = tmp("inst-explain.json");
        run_cmd(&format!(
            "gen --n 12 --seed 9 --catalog dec:3:4 --arrivals poisson:3 \
             --durations uniform:10:30 --sizes uniform:1:40 --out {inst}"
        ));
        let (code, out) = run_cmd(&format!(
            "explain --job 0 --instance {inst} --alg first-fit-any"
        ));
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("decision:"), "{out}");
        assert!(out.contains("ops:"), "{out}");
        // Pinning the wrong machine is called out, not silently accepted.
        let (code, out) = run_cmd(&format!(
            "explain --job 0 --machine 4096 --instance {inst} --alg first-fit-any"
        ));
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("mismatch:"), "{out}");
        // Unknown jobs fail loudly.
        let (code, out) = run_cmd(&format!(
            "explain --job 9999 --instance {inst} --alg first-fit-any"
        ));
        assert_eq!(code, 2);
        assert!(out.contains("no decision recorded"), "{out}");
    }

    #[test]
    fn xray_profiles_live_runs_and_recorded_traces() {
        let inst = tmp("inst-xray.json");
        let trace = tmp("xray.jsonl");
        run_cmd(&format!(
            "gen --n 25 --seed 13 --catalog saw:3:4 --arrivals poisson:4 \
             --durations uniform:8:25 --sizes uniform:1:50 --out {inst}"
        ));
        // Live run, recording a decision-bearing trace on the side.
        let (code, out) = run_cmd(&format!(
            "xray --instance {inst} --alg best-fit --trace {trace}"
        ));
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("decision x-ray"), "{out}");
        assert!(out.contains("scan length vs open-pool size"), "{out}");
        assert!(out.contains("utilization heat"), "{out}");
        // The recorded trace feeds both xray and explain after the fact.
        let (code, out) = run_cmd(&format!("xray {trace}"));
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("decision x-ray"), "{out}");
        let (code, out) = run_cmd(&format!("explain --job 0 --trace {trace}"));
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("decision:"), "{out}");
        // The JSON report carries the schema-v4 op columns.
        let report = tmp("xray.json");
        let (code, out) = run_cmd(&format!("xray {trace} --format json --out {report}"));
        assert_eq!(code, 0, "{out}");
        let json = std::fs::read_to_string(&report).unwrap();
        assert!(json.contains("\"total_scan_ops\""), "{json}");
        assert!(json.contains("\"ops_per_decision_p95\""), "{json}");
        assert!(json.contains("\"scan_curve\""), "{json}");
        assert!(json.contains("\"rejections\""), "{json}");
        // Decision-free traces are rejected with a pointer at the recorder.
        let plain = tmp("xray-plain.jsonl");
        run_cmd(&format!(
            "solve --instance {inst} --alg best-fit --trace {plain}"
        ));
        let (code, out) = run_cmd(&format!("xray {plain}"));
        assert_eq!(code, 2);
        assert!(out.contains("no Decision events"), "{out}");
    }

    /// The 2-allocation placement inspects only the rectangles live at each
    /// arrival, so dec-offline's x-ray work per job stays flat as the
    /// instance grows instead of growing with the whole placement.
    #[test]
    fn dec_offline_xray_ops_per_job_stay_flat() {
        let ops_per_job = |n: usize| {
            let inst = tmp(&format!("inst-xray-scale-{n}.json"));
            let (code, out) = run_cmd(&format!(
                "gen --n {n} --seed 1 --catalog dec:4:4 --out {inst}"
            ));
            assert_eq!(code, 0, "{out}");
            let instance: Instance =
                serde_json::from_str(&std::fs::read_to_string(&inst).unwrap()).unwrap();
            let (_, totals) = registry::run_xray("dec-offline", &instance, &mut NoProbe).unwrap();
            totals.total_ops() as f64 / n as f64
        };
        let (small, large) = (ops_per_job(1_000), ops_per_job(8_000));
        assert!(
            large <= 1.5 * small,
            "ops per job grew from {small:.1} at 1k jobs to {large:.1} at 8k"
        );
    }

    /// A single well-formed trace line (arrival of one job).
    fn one_event_line() -> String {
        serde_json::to_string(&bshm_obs::TraceEvent::Arrival {
            t: 0,
            job: bshm_core::job::JobId(0),
            size: 1,
        })
        .unwrap()
            + "\n"
    }

    #[test]
    fn replay_needs_both_cross_check_files() {
        let trace = tmp("lonely.jsonl");
        std::fs::write(&trace, one_event_line()).unwrap();
        let inst = tmp("inst-lonely.json");
        run_cmd(&format!("gen --n 4 --catalog dec:2:4 --out {inst}"));
        let (code, out) = run_cmd(&format!("replay --trace {trace} --instance {inst}"));
        assert_eq!(code, 2);
        assert!(out.contains("both --instance and --schedule"), "{out}");
    }

    #[test]
    fn replay_rejects_malformed_trace() {
        let trace = tmp("bad.jsonl");
        std::fs::write(&trace, "{\"Nope\":{}}\n").unwrap();
        let (code, out) = run_cmd(&format!("replay --trace {trace}"));
        assert_eq!(code, 2);
        assert!(out.contains("trace line 1"), "{out}");
    }

    #[test]
    fn replay_rejects_empty_trace() {
        // A zero-byte file and a blank-lines-only file both fail with a
        // clear message instead of printing an empty report.
        for (name, content) in [("empty.jsonl", ""), ("blank.jsonl", "\n\n  \n")] {
            let trace = tmp(name);
            std::fs::write(&trace, content).unwrap();
            let (code, out) = run_cmd(&format!("replay --trace {trace}"));
            assert_eq!(code, 2, "{name}: {out}");
            assert!(out.contains("no events"), "{name}: {out}");
        }
    }

    #[test]
    fn replay_rejects_truncated_trace() {
        // A valid line followed by a half-written one (cut mid-object, as a
        // crashed producer would leave it) reports the bad line number.
        let line = one_event_line();
        let truncated = &line[..line.len() / 2];
        let trace = tmp("truncated.jsonl");
        std::fs::write(&trace, format!("{line}{truncated}")).unwrap();
        let (code, out) = run_cmd(&format!("replay --trace {trace}"));
        assert_eq!(code, 2);
        assert!(out.contains("trace line 2"), "{out}");
    }

    #[test]
    fn solve_metrics_format_prometheus_is_valid_exposition() {
        let inst = tmp("inst-prom.json");
        run_cmd(&format!(
            "gen --n 30 --seed 9 --catalog dec:3:4 --arrivals poisson:3 \
             --durations uniform:10:40 --sizes uniform:1:48 --out {inst}"
        ));
        let (code, out) = run_cmd(&format!(
            "solve --instance {inst} --alg dec-online --metrics-format prometheus"
        ));
        assert_eq!(code, 0, "{out}");
        // The whole stdout is the scrape: no human report lines allowed.
        bshm_obs::validate_exposition(&out).unwrap();
        assert!(out.contains("bshm_placements_total{algorithm=\"dec-online\"}"));
        assert!(out.contains("bshm_decision_latency_ns_bucket"));
        assert!(!out.contains("ratio:"), "{out}");
    }

    #[test]
    fn solve_metrics_format_json_keeps_report() {
        let inst = tmp("inst-promj.json");
        run_cmd(&format!("gen --n 10 --catalog dec:2:4 --out {inst}"));
        let (code, out) = run_cmd(&format!(
            "solve --instance {inst} --alg auto --metrics-format json"
        ));
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("\"algorithm\": \"auto\""), "{out}");
        assert!(out.contains("ratio:"), "{out}");
        let (code, out) = run_cmd(&format!(
            "solve --instance {inst} --alg auto --metrics-format yaml"
        ));
        assert_eq!(code, 2);
        assert!(out.contains("expected `prometheus` or `json`"), "{out}");
    }

    #[test]
    fn export_metrics_converts_trace_to_exposition() {
        let inst = tmp("inst-export.json");
        let trace = tmp("export.jsonl");
        run_cmd(&format!(
            "gen --n 25 --seed 13 --catalog saw:3:4 --arrivals poisson:3 \
             --durations uniform:5:30 --sizes uniform:1:32 --out {inst}"
        ));
        let (code, out) = run_cmd(&format!(
            "solve --instance {inst} --alg gen-online --trace {trace}"
        ));
        assert_eq!(code, 0, "{out}");
        // Default format is prometheus; the snapshot must validate.
        let (code, out) = run_cmd(&format!("export-metrics --trace {trace} --alg gen-online"));
        assert_eq!(code, 0, "{out}");
        bshm_obs::validate_exposition(&out).unwrap();
        assert!(out.contains("algorithm=\"gen-online\""), "{out}");
        // JSON format round-trips through serde.
        let (code, out) = run_cmd(&format!("export-metrics --trace {trace} --format json"));
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("\"arrivals\""), "{out}");
        // --out writes the snapshot to a file.
        let snap = tmp("snapshot.prom");
        let (code, _) = run_cmd(&format!("export-metrics --trace {trace} --out {snap}"));
        assert_eq!(code, 0);
        bshm_obs::validate_exposition(&std::fs::read_to_string(&snap).unwrap()).unwrap();
        // Empty traces are rejected like replay rejects them.
        let empty = tmp("export-empty.jsonl");
        std::fs::write(&empty, "").unwrap();
        let (code, out) = run_cmd(&format!("export-metrics --trace {empty}"));
        assert_eq!(code, 2);
        assert!(out.contains("no events"), "{out}");
    }

    #[test]
    fn top_renders_console_summary() {
        let inst = tmp("inst-top.json");
        let trace = tmp("top.jsonl");
        run_cmd(&format!(
            "gen --n 40 --seed 21 --catalog dec:3:4 --arrivals poisson:2 \
             --durations uniform:10:50 --sizes uniform:1:40 --out {inst}"
        ));
        let (code, out) = run_cmd(&format!(
            "solve --instance {inst} --alg dec-online --trace {trace}"
        ));
        assert_eq!(code, 0, "{out}");
        let (code, out) = run_cmd(&format!("top {trace} --cols 40"));
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("open machines"), "{out}");
        assert!(out.contains("decision latency"), "{out}");
        assert!(out.contains("cost accrual by type"), "{out}");
        assert!(out.contains("total cost"), "{out}");
        // --trace spelling works too, and an empty trace fails cleanly.
        let (code, _) = run_cmd(&format!("top --trace {trace}"));
        assert_eq!(code, 0);
        let (code, out) = run_cmd("top");
        assert_eq!(code, 2);
        assert!(out.contains("top needs a trace"), "{out}");
    }

    #[test]
    fn solve_metrics_time_only_online_decisions() {
        // Offline schedules trace through synthesized events that were
        // never timed: their latency histogram stays empty, so there is no
        // quantile and `top` prints n/a. Online decisions are timed.
        #[derive(serde::Deserialize)]
        struct Latency {
            decision_ns_hist: Vec<u64>,
        }
        let inst = tmp("inst-latency.json");
        run_cmd(&format!(
            "gen --n 40 --seed 21 --catalog dec:3:4 --arrivals poisson:2 \
             --durations uniform:10:50 --sizes uniform:1:40 --out {inst}"
        ));
        for (alg, timed) in [("dec-offline", false), ("dec-online", true)] {
            let trace = tmp(&format!("latency-{alg}.jsonl"));
            let (code, out) = run_cmd(&format!(
                "solve --instance {inst} --alg {alg} --metrics --trace {trace}"
            ));
            assert_eq!(code, 0, "{out}");
            let start = out.find("\n{\n").expect("metrics JSON") + 1;
            let end = start + out[start..].find("\n}\n").expect("metrics JSON end") + 2;
            let m: Latency = serde_json::from_str(&out[start..end]).unwrap();
            let p50 = bshm_obs::bucket_quantile(
                &m.decision_ns_hist,
                bshm_obs::recorder::decision_ns_bucket_bounds,
                0.5,
            );
            assert_eq!(p50.is_some(), timed, "{alg}: {:?}", m.decision_ns_hist);
            let (code, out) = run_cmd(&format!("top {trace}"));
            assert_eq!(code, 0, "{out}");
            assert_eq!(
                out.contains("decision latency: p50 n/a"),
                !timed,
                "{alg}: {out}"
            );
        }
    }

    #[test]
    fn solve_gap_emits_samples_and_gap_report_reads_them() {
        let inst = tmp("inst-gap.json");
        let trace = tmp("gap.jsonl");
        run_cmd(&format!(
            "gen --n 30 --seed 17 --catalog dec:3:4 --arrivals poisson:3 \
             --durations uniform:10:40 --sizes uniform:1:48 --out {inst}"
        ));
        let (code, out) = run_cmd(&format!(
            "solve --instance {inst} --alg dec-online --gap --trace {trace}"
        ));
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("gap gauges:"), "{out}");
        // The trace carries the gauges as GapSample events.
        let events =
            bshm_obs::replay::parse_jsonl(&std::fs::read_to_string(&trace).unwrap()).unwrap();
        let recorded = bshm_obs::gap_timeline_from_events(&events);
        assert!(!recorded.points.is_empty());
        // Console report: timeline + attribution table, exactly balanced.
        let (code, out) = run_cmd(&format!("gap-report {trace}"));
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("gap timeline"), "{out}");
        assert!(out.contains("cost attribution"), "{out}");
        assert!(out.contains("0 unattributed"), "{out}");
        assert!(!out.contains("NOTE:"), "{out}");
        // JSON report round-trips through the serde shim.
        let report = tmp("gap-report.json");
        let (code, out) = run_cmd(&format!("gap-report {trace} --format json --out {report}"));
        assert_eq!(code, 0, "{out}");
        let json = std::fs::read_to_string(&report).unwrap();
        assert!(json.contains("\"attribution\""), "{json}");
        assert!(json.contains("\"final_ratio\""), "{json}");
        assert!(json.contains("\"unattributed_cost\": 0"), "{json}");
        assert!(json.contains("\"gap_source\": \"recorded\""), "{json}");
        // Unknown formats fail loudly.
        let (code, out) = run_cmd(&format!("gap-report {trace} --format yaml"));
        assert_eq!(code, 2);
        assert!(out.contains("expected `console` or `json`"), "{out}");
    }

    #[test]
    fn solve_gap_reports_the_sweep_lower_bound() {
        let lb_line = |out: &str| -> String {
            out.lines()
                .find(|l| l.starts_with("lower bound:"))
                .unwrap_or_else(|| panic!("no lower bound line in {out}"))
                .to_string()
        };
        for family in ["dec", "inc", "saw"] {
            let inst = tmp(&format!("inst-gap-lb-{family}.json"));
            let (code, out) = run_cmd(&format!(
                "gen --n 30 --seed 19 --catalog {family}:3:4 --arrivals poisson:3 \
                 --durations uniform:10:40 --sizes uniform:1:48 --out {inst}"
            ));
            assert_eq!(code, 0, "{out}");
            for alg in registry::names() {
                let (code, plain) = run_cmd(&format!("solve --instance {inst} --alg {alg}"));
                assert_eq!(code, 0, "{family} {alg}: {plain}");
                let (code, gap) = run_cmd(&format!("solve --instance {inst} --alg {alg} --gap"));
                assert_eq!(code, 0, "{family} {alg}: {gap}");
                assert_eq!(lb_line(&gap), lb_line(&plain), "{family} {alg}");
            }
        }
    }

    #[test]
    fn gap_fallback_recomputes_pre_gap_traces() {
        let inst = tmp("inst-pregap.json");
        let trace = tmp("pregap.jsonl");
        run_cmd(&format!(
            "gen --n 20 --seed 23 --catalog saw:3:4 --arrivals poisson:4 \
             --durations uniform:8:25 --sizes uniform:1:40 --out {inst}"
        ));
        // A pre-observatory trace: no --gap, so no GapSample events.
        let (code, out) = run_cmd(&format!(
            "solve --instance {inst} --alg gen-online --trace {trace}"
        ));
        assert_eq!(code, 0, "{out}");
        // Without the catalog the timeline cannot be rebuilt: loud error.
        let (code, out) = run_cmd(&format!("gap-report {trace}"));
        assert_eq!(code, 2);
        assert!(out.contains("no GapSample events"), "{out}");
        let (code, out) = run_cmd(&format!("replay --trace {trace} --gap"));
        assert_eq!(code, 2);
        assert!(out.contains("no GapSample events"), "{out}");
        // With --instance both recompute, with a loud note.
        let (code, out) = run_cmd(&format!("gap-report {trace} --instance {inst}"));
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("NOTE: trace predates gap gauges"), "{out}");
        assert!(out.contains("final gap:"), "{out}");
        let (code, out) = run_cmd(&format!("replay --trace {trace} --gap --instance {inst}"));
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("NOTE: trace predates gap gauges"), "{out}");
        assert!(out.contains("gap timeline"), "{out}");
        // The JSON report says, machine-readably, that the timeline was
        // recomputed rather than read from recorded gauges.
        let report = tmp("pregap-report.json");
        let (code, out) = run_cmd(&format!(
            "gap-report {trace} --instance {inst} --format json --out {report}"
        ));
        assert_eq!(code, 0, "{out}");
        let json = std::fs::read_to_string(&report).unwrap();
        assert!(json.contains("\"gap_source\": \"recomputed\""), "{json}");
        // The recomputed fallback agrees with live gauges on the final
        // cost: it must equal the trace's accrued cost.
        let events =
            bshm_obs::replay::parse_jsonl(&std::fs::read_to_string(&trace).unwrap()).unwrap();
        let instance: Instance =
            serde_json::from_str(&std::fs::read_to_string(&inst).unwrap()).unwrap();
        let tl = bshm_obs::compute_gap_timeline(&events, instance.catalog());
        let traced: u64 = events
            .iter()
            .filter_map(|e| match *e {
                bshm_obs::TraceEvent::CostAccrual { busy, rate, .. } => Some(busy * rate),
                _ => None,
            })
            .sum();
        assert_eq!(tl.final_point().unwrap().cost, traced);
    }

    #[test]
    fn solve_gap_rejects_faults() {
        let inst = tmp("inst-gapfault.json");
        run_cmd(&format!("gen --n 10 --catalog dec:2:4 --out {inst}"));
        let (code, out) = run_cmd(&format!(
            "solve --instance {inst} --alg first-fit-any --faults seeded:1:2 --gap"
        ));
        assert_eq!(code, 2);
        assert!(
            out.contains("not supported together with --faults"),
            "{out}"
        );
    }

    #[test]
    fn solve_rejects_unknown_alg() {
        let inst = tmp("inst4.json");
        run_cmd(&format!("gen --n 5 --catalog dec:2:4 --out {inst}"));
        let (code, out) = run_cmd(&format!("solve --instance {inst} --alg nope"));
        assert_eq!(code, 2);
        assert!(out.contains("unknown algorithm"));
    }

    #[test]
    fn watch_renders_the_rolling_dashboard() {
        let inst = tmp("inst-watch.json");
        let trace = tmp("watch.jsonl");
        run_cmd(&format!(
            "gen --n 30 --seed 5 --catalog saw:3:4 --arrivals poisson:4 \
             --durations uniform:8:25 --sizes uniform:1:40 --out {inst}"
        ));
        let (code, out) = run_cmd(&format!(
            "solve --instance {inst} --alg best-fit --trace {trace} --gap"
        ));
        assert_eq!(code, 0, "{out}");
        // A narrow window and small ring: eviction keeps the view bounded.
        let (code, out) = run_cmd(&format!("watch {trace} --window 8 --rows 4"));
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("open machines |"), "{out}");
        assert!(out.contains("arrivals      |"), "{out}");
        assert!(out.contains("windows:"), "{out}");
        // The totals merge every closed window, evicted ones included, so
        // they equal the whole-trace fold that export-metrics reports.
        let (code, json) = run_cmd(&format!("export-metrics --trace {trace} --format json"));
        assert_eq!(code, 0, "{json}");
        let field = |name: &str| -> String {
            let key = format!("\"{name}\": ");
            json.lines()
                .find_map(|l| l.trim().strip_prefix(key.as_str()))
                .unwrap_or_else(|| panic!("no {name} in {json}"))
                .trim_end_matches(',')
                .to_string()
        };
        let totals = format!(
            "totals:       {} arrivals, {} placements, {} alert(s), cost {}",
            field("arrivals"),
            field("placements"),
            field("alerts"),
            field("traced_cost")
        );
        assert!(out.contains(&totals), "{totals}\n{out}");
        assert!(out.contains("windows:      4 shown of "), "{out}");
        // A torn trailing line — a live writer mid-flush — truncates the
        // dashboard to the valid prefix instead of failing.
        let mut text = std::fs::read_to_string(&trace).unwrap();
        text.push_str("{\"Arrival\":{\"t\":9");
        std::fs::write(&trace, text).unwrap();
        let (code, out) = run_cmd(&format!("watch {trace} --window 8 --rows 4"));
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("torn mid-write"), "{out}");
        let (code, out) = run_cmd(&format!("watch {trace} --window 0"));
        assert_eq!(code, 2);
        assert!(out.contains("--window must be positive"), "{out}");
    }

    #[test]
    fn health_gates_clean_and_faulted_traces() {
        let inst = tmp("inst-health.json");
        run_cmd(&format!(
            "gen --n 30 --seed 7 --catalog dec:3:4 --arrivals poisson:4 \
             --durations uniform:8:25 --sizes uniform:1:40 --out {inst}"
        ));
        // A clean run passes the default SLO with exit 0.
        let clean = tmp("health-clean.jsonl");
        let (code, out) = run_cmd(&format!(
            "solve --instance {inst} --alg first-fit-any --trace {clean}"
        ));
        assert_eq!(code, 0, "{out}");
        let (code, out) = run_cmd(&format!("health {clean}"));
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("PASS (no alerts)"), "{out}");
        // A crash-faulted run trips the displacement-storm rule, leaves a
        // flight-recorder snapshot per alert, and writes the JSON report.
        let faulted = tmp("health-faulted.jsonl");
        let (code, out) = run_cmd(&format!(
            "solve --instance {inst} --alg first-fit-any \
             --faults seeded:42:4,crash:30:0,storm:25:6:8:15 --trace {faulted}"
        ));
        assert_eq!(code, 0, "{out}");
        let snaps = tmp("health-snaps");
        let report = tmp("health-report.json");
        let (code, out) = run_cmd(&format!(
            "health {faulted} --expect displacement-storm --snapshots {snaps} \
             --report {report}"
        ));
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("[displacement-storm] fired"), "{out}");
        assert!(std::fs::read_dir(&snaps).unwrap().next().is_some());
        let json = std::fs::read_to_string(&report).unwrap();
        assert!(json.contains("DisplacementStorm"), "{json}");
        // Without --expect the same trace is an SLO breach: nonzero exit.
        let (code, out) = run_cmd(&format!("health {faulted}"));
        assert_eq!(code, 2);
        assert!(out.contains("SLO breached"), "{out}");
        // Unknown --expect reasons are rejected with the valid set.
        let (code, out) = run_cmd(&format!("health {faulted} --expect nope"));
        assert_eq!(code, 2);
        assert!(out.contains("unknown alert reason"), "{out}");
        assert!(out.contains("displacement-storm"), "{out}");
    }

    #[test]
    fn replay_salvage_reports_dropped_bytes() {
        let trace = tmp("torn-bytes.jsonl");
        let torn = "{\"MachineOpen\":{\"t\":3,\"mach";
        std::fs::write(&trace, format!("{}{torn}", one_event_line())).unwrap();
        let (code, out) = run_cmd(&format!("replay --trace {trace} --salvage"));
        assert_eq!(code, 0, "{out}");
        assert!(
            out.contains(&format!(
                "dropped 1 damaged line(s) / {} byte(s)",
                torn.len()
            )),
            "{out}"
        );
    }

    #[test]
    fn validate_rejects_corrupt_schedule() {
        let inst = tmp("inst5.json");
        run_cmd(&format!("gen --n 5 --catalog dec:2:4 --out {inst}"));
        let bad = tmp("bad-sched.json");
        // An empty schedule: every job unassigned.
        std::fs::write(&bad, serde_json::to_string(&Schedule::new()).unwrap()).unwrap();
        let (code, out) = run_cmd(&format!("validate --instance {inst} --schedule {bad}"));
        assert_eq!(code, 2);
        assert!(out.contains("infeasible"));
    }

    #[test]
    fn replay_salvage_writes_json_report_with_byte_accounting() {
        let trace = tmp("torn-report.jsonl");
        let torn = "{\"MachineOpen\":{\"t\":3,\"mach";
        std::fs::write(
            &trace,
            format!("{}{}{torn}", one_event_line(), one_event_line()),
        )
        .unwrap();
        let report = tmp("replay-report.json");
        let (code, out) = run_cmd(&format!(
            "replay --trace {trace} --salvage --report {report}"
        ));
        assert_eq!(code, 0, "{out}");
        let json = std::fs::read_to_string(&report).unwrap();
        assert!(json.contains("\"kept_events\":2"), "{json}");
        assert!(json.contains("\"dropped_lines\":1"), "{json}");
        assert!(
            json.contains(&format!("\"dropped_bytes\":{}", torn.len())),
            "{json}"
        );
        // Without --salvage the report records no salvage section.
        let clean = tmp("clean-report.jsonl");
        std::fs::write(&clean, one_event_line()).unwrap();
        let report2 = tmp("replay-report-clean.json");
        let (code, _) = run_cmd(&format!("replay --trace {clean} --report {report2}"));
        assert_eq!(code, 0);
        let json = std::fs::read_to_string(&report2).unwrap();
        assert!(json.contains("\"salvage\":null"), "{json}");
    }

    /// Two tenants' events interleaved into ONE shared sink must restore
    /// to exactly the digests their isolated logs produce — for every
    /// registered algorithm, offline ones included (they serve through
    /// `ScriptScheduler`, so the whole registry is service-hostable).
    #[test]
    fn interleaved_shared_log_restores_isolated_digests_for_all_algorithms() {
        use bshm_faults::checkpoint::fnv1a64;
        let make = |seed: u64| {
            WorkloadSpec {
                n: 24,
                seed,
                arrivals: spec::parse_arrivals("poisson:3").unwrap(),
                durations: spec::parse_durations("uniform:8:25").unwrap(),
                sizes: spec::parse_sizes("uniform:1:40").unwrap(),
            }
            .generate(spec::parse_catalog("dec:3:4").unwrap())
        };
        let (inst_a, inst_b) = (make(101), make(202));
        let digest = |events: &[bshm_obs::TraceEvent]| -> u64 {
            let mut text = String::new();
            for e in events {
                text.push_str(&serde_json::to_string(e).unwrap());
                text.push('\n');
            }
            fnv1a64(text.as_bytes())
        };
        for alg in registry::names() {
            let run = |instance: &Instance| -> Vec<bshm_obs::TraceEvent> {
                let mut scheduler = online_or_scripted(alg, instance).unwrap();
                let mut probe = bshm_obs::Deterministic(bshm_obs::Collector::default());
                bshm_sim::run_online_probed(instance, &mut scheduler.as_mut(), &mut probe).unwrap();
                probe.0.events
            };
            let (events_a, events_b) = (run(&inst_a), run(&inst_b));
            // Interleave both tenants' streams into one shared sink.
            let shared = tmp(&format!("shared-{alg}.jsonl"));
            let path = std::path::Path::new(&shared);
            let mut sink = bshm_serve::SharedSink::create(path).unwrap();
            let mut ia = events_a.iter();
            let mut ib = events_b.iter();
            loop {
                match (ia.next(), ib.next()) {
                    (None, None) => break,
                    (a, b) => {
                        if let Some(e) = a {
                            sink.write("a", e).unwrap();
                        }
                        if let Some(e) = b {
                            sink.write("b", e).unwrap();
                        }
                    }
                }
            }
            sink.finalize().unwrap();
            // Splitting the shared log restores the isolated streams
            // byte-for-byte (hence digest-for-digest).
            let (split, dropped_lines, dropped_bytes) = bshm_serve::salvage_tagged(path).unwrap();
            assert_eq!((dropped_lines, dropped_bytes), (0, 0), "{alg}");
            assert_eq!(split["a"], events_a, "{alg}: tenant a stream diverged");
            assert_eq!(split["b"], events_b, "{alg}: tenant b stream diverged");
            assert_eq!(digest(&split["a"]), digest(&events_a), "{alg}");
            assert_eq!(digest(&split["b"]), digest(&events_b), "{alg}");
        }
    }

    #[test]
    fn serve_script_runs_protocol_deterministically() {
        let dir = tmp("serve-data");
        std::fs::remove_dir_all(&dir).ok();
        let script = tmp("serve-script.txt");
        std::fs::write(
            &script,
            "# a tiny resident session\n\
             ADMIT a dec-online 5 dec:40:11\n\
             SUBMIT a 2\n\
             STEP a\n\
             KILL a\n\
             RESTORE a\n\
             STATS\n\
             DRAIN\n\
             QUIT\n",
        )
        .unwrap();
        let (code, out) = run_cmd(&format!("serve --data-dir {dir} --script {script}"));
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("OK admitted a"), "{out}");
        assert!(out.contains("OK stepped a"), "{out}");
        assert!(out.contains("OK killed a"), "{out}");
        assert!(out.contains("verified=true"), "{out}");
        assert!(out.contains("OK drained 1"), "{out}");
        assert!(out.contains("OK bye"), "{out}");
        // The identical script replays to the identical transcript.
        let dir2 = tmp("serve-data-2");
        std::fs::remove_dir_all(&dir2).ok();
        let (_, out2) = run_cmd(&format!("serve --data-dir {dir2} --script {script}"));
        assert_eq!(
            out.replace(&dir, "DIR"),
            out2.replace(&dir2, "DIR"),
            "service transcript must be deterministic"
        );
        // An offline algorithm is hostable too (via ScriptScheduler).
        let script3 = tmp("serve-script-offline.txt");
        std::fs::write(
            &script3,
            "ADMIT off dec-offline 5 dec:30:3\nSUBMIT off 1\nSTEP off\nQUIT\n",
        )
        .unwrap();
        let dir3 = tmp("serve-data-3");
        std::fs::remove_dir_all(&dir3).ok();
        let (code, out) = run_cmd(&format!("serve --data-dir {dir3} --script {script3}"));
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("OK stepped off"), "{out}");
        for d in [dir, dir2, dir3] {
            std::fs::remove_dir_all(&d).ok();
        }
    }

    #[test]
    fn drill_subcommand_passes_and_writes_report() {
        let dir = tmp("drill-data");
        std::fs::remove_dir_all(&dir).ok();
        let report = tmp("drill-report.json");
        let (code, out) = run_cmd(&format!("drill --data-dir {dir} --report {report}"));
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("crash-recovery: PASS"), "{out}");
        assert!(out.contains("overload: PASS"), "{out}");
        let json = std::fs::read_to_string(&report).unwrap();
        assert!(json.contains("\"kind\":\"crash-recovery\""), "{json}");
        assert!(json.contains("\"kind\":\"overload\""), "{json}");
        assert!(json.contains("queues-never-exceed-capacity"), "{json}");
        let (code, out) = run_cmd(&format!("drill --data-dir {dir} --kind bogus"));
        assert_eq!(code, 2, "{out}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
