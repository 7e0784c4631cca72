//! Performance observatory: the deterministic benchmark baseline and the
//! answers golden that gates it.
//!
//! [`run_suite`] pushes a fixed workload trio (DEC, INC, and general
//! catalogs; reproducible seeds) through every scheduler in
//! [`bshm_algos::registry`] with a live [`Recorder`] probe, and records
//! per algorithm only columns that a run reproduces exactly on any
//! machine: cost vs the §II lower bound, peak open machines per type, a
//! digest of the schedule itself, the gap gauges, x-ray op counts, SLO
//! alerts, and recovery overhead from a separate run under the fixed
//! [`FAULT_PLAN_SPEC`] fault plan. It also measures the `NoProbe` driver
//! overhead against the un-instrumented driver and asserts it stays within
//! [`PROBE_OVERHEAD_BOUND`]; that is a ratio of two timings taken in the
//! same run, so it holds on any machine.
//!
//! [`check_answers_golden`] compares a quick run with the committed
//! `golden/quick_answers.txt`, exactly and in both directions. The tier-1
//! test and `baseline --quick` run the same check. Wall-clock performance
//! is measured from outside the crates by `perfbench/`.

use bshm_algos::registry::{self, online_or_scripted, run_traced, run_xray};
use bshm_core::instance::Instance;
use bshm_core::lower_bound::lower_bound;
use bshm_core::schedule_cost;
use bshm_core::validate::validate_schedule;
use bshm_faults::checkpoint::fnv1a64;
use bshm_faults::{run_online_faulted, FaultPlan, SameType};
use bshm_obs::{clock, GapProbe, HealthProbe, NoProbe, Recorder, SloSpec};
use bshm_serve::{builtin_factory, crash_recovery_drill, overload_drill, Service, ServiceConfig};
use bshm_sim::{run_online, run_online_probed};
use bshm_workload::catalogs::{dec_geometric, inc_geometric, sawtooth};
use bshm_workload::{ArrivalProcess, DurationLaw, SizeLaw, WorkloadSpec};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::path::Path;

/// Version stamp of the report schema (`baseline --out`). Bump on breaking
/// changes.
///
/// v2 added the recovery-overhead columns (`displaced_jobs`,
/// `recovery_cost_ratio`) measured under [`FAULT_PLAN_SPEC`].
///
/// v3 added the gap-observatory columns (`final_gap_ratio`,
/// `max_gap_ratio`) from running the traced measurement through
/// [`GapProbe`] (live incremental-lower-bound gauges).
///
/// v4 added the decision x-ray columns (`ops_per_decision_p50/p95/p99`,
/// `total_scan_ops`) from a separate run under the x-ray driver
/// (`registry::run_xray`): deterministic operation counts, not clocks, so they
/// compare exactly across machines.
///
/// v5 added `alerts_fired`: alerts under the default SLO spec,
/// event-clock deterministic, measured by wrapping the traced run in a
/// [`HealthProbe`].
///
/// v6 added the resident-service section (`service`): both `bshm drill`
/// robustness drills (crash-recovery restore verification, overload
/// ladder walk) plus deterministic counters from a fixed pressure
/// scenario — typed `OVERLOAD` rejections, tenants shed, the final
/// degradation rung. Everything in the section is event-clock and seeded.
///
/// v7 made the report counts-only. The wall-clock columns left:
/// `wall_ns`, `decision_ns_p50/p95/p99`, `windowed_p99_ns` and the
/// per-run `spans` breakdown, together with the report's `label`. It
/// added `schedule_digest`, which pins every placement directly.
pub const SCHEMA_VERSION: u64 = 7;

/// The fixed fault plan behind the recovery-overhead columns: a handful
/// of seeded machine crashes, deterministic per workload. Every algorithm
/// rides the same plan, so the columns compare like for like.
pub const FAULT_PLAN_SPEC: &str = "seeded:1313:3";

/// The asserted probe-overhead bound: the `NoProbe` driver path must stay
/// within this factor of the un-instrumented driver (best-of-N wall
/// clock). `NoProbe::enabled()` is a constant `false`, so every
/// instrumentation branch monomorphizes away and the true factor is
/// ~1.0×; the slack absorbs shared-runner timing noise.
pub const PROBE_OVERHEAD_BOUND: f64 = 3.0;

/// The committed answers of a quick suite run: one
/// `<scope> <column> <value>` line per deterministic column.
pub(crate) const ANSWERS_GOLDEN: &str = include_str!("../golden/quick_answers.txt");

/// A full observatory report, as `baseline --out` writes it.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct BaselineReport {
    /// Schema version ([`SCHEMA_VERSION`]).
    pub schema_version: u64,
    /// Whether the quick (CI-sized) workload grid was used.
    pub quick: bool,
    /// The command that regenerates this report.
    pub command: String,
    /// One entry per suite workload.
    pub workloads: Vec<WorkloadBaseline>,
    /// The asserted probe-overhead measurement.
    pub probe_overhead: ProbeOverhead,
    /// The resident-service robustness section (v6).
    pub service: ServiceBaseline,
}

/// The v6 resident-service section: drill verdicts plus deterministic
/// counters from a fixed overload scenario. Every field is event-clock
/// and seeded — no wall time — so two runs of the same binary agree
/// byte for byte.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ServiceBaseline {
    /// Every crash-recovery drill check held (digest-identical restore,
    /// salvaged torn bytes, lifecycle arc on the service trace, …).
    pub crash_recovery_passed: bool,
    /// Every overload drill check held (bounded queues, schedule-exact
    /// retry-afters, full ladder walk, lowest-priority shed, …).
    pub overload_passed: bool,
    /// The drill's restored tenant was FNV-digest-identical to the
    /// never-killed reference.
    pub restore_ok: bool,
    /// Typed `OVERLOAD` rejections issued over the pressure scenario.
    pub overloads: u64,
    /// Tenants shed by the ladder's bottom rung.
    pub sheds: u64,
    /// The degradation rung the scenario ends on (3 = shed-tenants).
    pub final_rung: u64,
    /// That rung's name.
    pub rung_name: String,
}

/// All algorithms measured on one deterministic workload.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct WorkloadBaseline {
    /// Workload name (catalog + arrival/duration/size laws).
    pub workload: String,
    /// Number of jobs (differs between quick and full runs).
    pub jobs: u64,
    /// The §II lower bound for the instance.
    pub lower_bound: u64,
    /// One entry per algorithm, in registry order.
    pub algorithms: Vec<AlgBaseline>,
}

/// One (algorithm, workload) measurement.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct AlgBaseline {
    /// Scheduler name (`bshm solve --alg` spelling).
    pub alg: String,
    /// Peak simultaneously-open machines per catalog type.
    pub peak_open_by_type: Vec<u32>,
    /// Schedule cost.
    pub cost: u64,
    /// Cost over the lower bound.
    pub ratio: f64,
    /// Placement decisions made (= jobs).
    pub placements: u64,
    /// FNV-1a digest of the schedule's JSON (`serde_json::to_string`):
    /// equal digests mean every job sits on the same machine.
    pub schedule_digest: u64,
    /// Jobs displaced by the [`FAULT_PLAN_SPEC`] crashes in a separate
    /// faulted run (the cost columns above stay fault-free).
    pub displaced_jobs: u64,
    /// Recovery cost over base cost in that faulted run (0 when no crash
    /// landed on a live machine).
    pub recovery_cost_ratio: f64,
    /// Final live gap gauge: accrued cost over the incremental §II lower
    /// bound at the horizon. Equals `ratio` by the attribution-exactness
    /// invariant; recorded independently as a cross-check.
    pub final_gap_ratio: f64,
    /// Worst instantaneous cost-over-bound ratio across all gap samples.
    pub max_gap_ratio: f64,
    /// Median operations (machines scanned + capacity comparisons) per
    /// placement decision, from a separate x-ray run (histogram estimate
    /// over deterministic counters).
    pub ops_per_decision_p50: f64,
    /// 95th-percentile ops per decision.
    pub ops_per_decision_p95: f64,
    /// 99th-percentile ops per decision.
    pub ops_per_decision_p99: f64,
    /// Total scan work over the whole run: machines scanned plus capacity
    /// comparisons, exact integer.
    pub total_scan_ops: u64,
    /// Alerts fired by the default SLO spec over the traced run. The
    /// engine's rules are event-clock and fixed-point only, so this count
    /// is deterministic per (workload, algorithm) and compares exactly.
    pub alerts_fired: u64,
}

/// The probe-overhead check: `NoProbe` vs the un-instrumented driver.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ProbeOverhead {
    /// Best-of-N wall clock of `run_online` (no probe plumbing), ns.
    pub uninstrumented_ns: u64,
    /// Best-of-N wall clock of `run_online_probed(…, NoProbe)`, ns.
    pub noprobe_ns: u64,
    /// `noprobe_ns / uninstrumented_ns`.
    pub factor: f64,
    /// The bound the factor is asserted against.
    pub bound: f64,
    /// Whether `factor <= bound` held when measured.
    pub within_bound: bool,
}

/// The deterministic workload trio the suite runs. Quick mode shrinks
/// job counts for CI; seeds and laws never change, so two runs of the
/// same mode schedule identically.
fn suite_instances(quick: bool) -> Vec<(String, Instance)> {
    let n = if quick { 120 } else { 1_000 };
    let dec = {
        let catalog = dec_geometric(4, 4);
        let max = catalog.max_capacity();
        WorkloadSpec {
            n,
            seed: 101,
            arrivals: ArrivalProcess::Poisson { mean_gap: 3.0 },
            durations: DurationLaw::Uniform { min: 10, max: 60 },
            sizes: SizeLaw::Uniform { min: 1, max },
        }
        .generate(catalog)
    };
    let inc = {
        let catalog = inc_geometric(4, 4);
        let max = catalog.max_capacity();
        WorkloadSpec {
            n,
            seed: 202,
            arrivals: ArrivalProcess::Diurnal {
                base: 0.1,
                peak: 0.8,
                period: 200,
            },
            durations: DurationLaw::BoundedPareto {
                min: 5,
                max: 200,
                alpha: 1.5,
            },
            sizes: SizeLaw::HeavyTail {
                min: 1,
                max,
                alpha: 1.3,
            },
        }
        .generate(catalog)
    };
    let gen = {
        let catalog = sawtooth(4, 4);
        let max = catalog.max_capacity();
        WorkloadSpec {
            n,
            seed: 303,
            arrivals: ArrivalProcess::Poisson { mean_gap: 2.0 },
            durations: DurationLaw::Bimodal {
                short: 8,
                long: 120,
                p_long: 0.2,
            },
            sizes: crate::experiments::vm_sizes(max),
        }
        .generate(catalog)
    };
    vec![
        ("dec-poisson-uniform".to_string(), dec),
        ("inc-diurnal-pareto".to_string(), inc),
        ("gen-bimodal-vmsizes".to_string(), gen),
    ]
}

/// Runs one algorithm on one instance under a live recorder wrapped in
/// the health probe and the gap probe, returning the full measurement
/// row. The gap probe sits outermost so its `GapSample` gauges flow
/// through the health plane's windowed gap rule.
fn measure_alg(alg: &str, instance: &Instance, lb: u128) -> AlgBaseline {
    let n_types = instance.catalog().len();
    let mut probe = GapProbe::new(
        instance.catalog(),
        HealthProbe::new(SloSpec::default(), n_types, Recorder::new(alg, n_types)),
    );
    let schedule =
        run_traced(alg, instance, &mut probe).unwrap_or_else(|e| panic!("baseline alg {alg}: {e}"));
    if let Some(err) = probe.error() {
        panic!("baseline alg {alg}: gap gauges over the run's own stream: {err}");
    }
    let (health, timeline) = probe.into_parts();
    let (rec, health_report) = health.into_parts();
    let metrics = rec
        .into_metrics()
        .unwrap_or_else(|e| panic!("baseline alg {alg}: {e}"));
    if let Err(e) = validate_schedule(&schedule, instance) {
        panic!("baseline alg {alg} produced an infeasible schedule: {e}");
    }
    let cost = schedule_cost(&schedule, instance);
    let schedule_json = serde_json::to_string(&schedule).expect("schedules serialize");
    let (displaced_jobs, recovery_cost_ratio) = measure_recovery(alg, instance);
    let (ops_p50, ops_p95, ops_p99, total_scan_ops) = measure_ops(alg, instance);
    AlgBaseline {
        alg: alg.to_string(),
        peak_open_by_type: metrics.open_peak_by_type.clone(),
        cost: u64::try_from(cost).expect("suite costs fit u64"),
        ratio: cost as f64 / lb as f64,
        placements: metrics.placements,
        schedule_digest: fnv1a64(schedule_json.as_bytes()),
        displaced_jobs,
        recovery_cost_ratio,
        final_gap_ratio: timeline.final_ratio().unwrap_or(0.0),
        max_gap_ratio: timeline.max_ratio(),
        ops_per_decision_p50: ops_p50,
        ops_per_decision_p95: ops_p95,
        ops_per_decision_p99: ops_p99,
        total_scan_ops,
        alerts_fired: bshm_core::convert::count_u64(health_report.alerts.len()),
    }
}

/// Runs the algorithm once more under the x-ray driver and returns the
/// deterministic op-count columns.
fn measure_ops(alg: &str, instance: &Instance) -> (f64, f64, f64, u64) {
    let mut rec = Recorder::new(alg, instance.catalog().len());
    let (_, totals) = run_xray(alg, instance, &mut rec)
        .unwrap_or_else(|e| panic!("baseline alg {alg} under x-ray: {e}"));
    let metrics = rec
        .into_metrics()
        .unwrap_or_else(|e| panic!("baseline alg {alg} under x-ray: {e}"));
    (
        metrics.ops_per_decision_quantile(0.50).unwrap_or(0.0),
        metrics.ops_per_decision_quantile(0.95).unwrap_or(0.0),
        metrics.ops_per_decision_quantile(0.99).unwrap_or(0.0),
        totals.total_ops(),
    )
}

/// Runs the algorithm once more under [`FAULT_PLAN_SPEC`] (same-type
/// recovery, no probe) and returns the recovery-overhead columns. Offline
/// algorithms replay their schedule through the script scheduler, exactly
/// as `bshm solve --faults` does.
fn measure_recovery(alg: &str, instance: &Instance) -> (u64, f64) {
    let plan = FaultPlan::parse(FAULT_PLAN_SPEC).expect("fixed fault spec parses");
    let mut scheduler =
        online_or_scripted(alg, instance).unwrap_or_else(|e| panic!("baseline alg {alg}: {e}"));
    let mut policy = SameType::default();
    let outcome = run_online_faulted(instance, &mut *scheduler, &plan, &mut policy, &mut NoProbe)
        .unwrap_or_else(|e| panic!("baseline alg {alg} under {FAULT_PLAN_SPEC}: {e}"));
    (
        outcome.report.displaced,
        outcome.report.recovery_cost_ratio(),
    )
}

/// Measures the resident-service section: runs both CI drills, then a
/// fixed pressure scenario (the overload drill's shape: tiny queues,
/// short patience, crash-heavy seeded fault plans) driven until the
/// degradation ladder bottoms out, and returns the deterministic
/// counters. Artifacts land in a per-process directory under the system
/// temp directory and are removed on the way out.
fn measure_service(quick: bool) -> ServiceBaseline {
    let mode = if quick { "quick" } else { "full" };
    // bshm-allow(taint-path): selects only where the drills write; their verdicts and counters are seed-deterministic
    let dir = std::env::temp_dir().join(format!("bshm-baseline-{mode}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let crash = crash_recovery_drill(&dir.join("crash"))
        .unwrap_or_else(|e| panic!("crash-recovery drill: {e}"));
    let overload =
        overload_drill(&dir.join("overload")).unwrap_or_else(|e| panic!("overload drill: {e}"));
    let restore_ok = crash
        .checks
        .iter()
        .any(|c| c.name == "digest-identical" && c.passed);

    let mut config = ServiceConfig::new(dir.join("counters"));
    config.batch_events = 8;
    config.queue_capacity = 2;
    config.patience = 1;
    config.slo = SloSpec::parse("window:16;storm:1;drops:1").expect("fixed SLO spec parses");
    let mut service =
        Service::new(config, builtin_factory()).unwrap_or_else(|e| panic!("service baseline: {e}"));
    for line in [
        "ADMIT hi first-fit-any 5 dec:120:31 seeded:41:8",
        "ADMIT lo first-fit-any 1 dec:120:32 seeded:42:8",
    ] {
        let reply = service.handle_line(line);
        assert!(
            !reply.starts_with("ERR"),
            "service baseline: `{line}` -> {reply}"
        );
    }
    let mut overloads = 0u64;
    // Saturate hi's queue first so backpressure shows up immediately,
    // then keep both tenants under submit+step pressure until shedding.
    for _ in 0..8 {
        if service.handle_line("SUBMIT hi 1").starts_with("OVERLOAD") {
            overloads += 1;
        }
    }
    let mut steps = 0u32;
    while !service.ladder().shedding() && steps < 64 {
        for name in ["hi", "lo"] {
            if service.ladder().shedding() {
                break;
            }
            if service
                .handle_line(&format!("SUBMIT {name} 1"))
                .starts_with("OVERLOAD")
            {
                overloads += 1;
            }
            let reply = service.handle_line(&format!("STEP {name}"));
            assert!(
                !reply.starts_with("ERR") || reply.contains("was shed"),
                "service baseline: STEP {name} -> {reply}"
            );
        }
        steps += 1;
    }
    let stats = service.stats();
    let sheds = bshm_core::convert::count_u64(stats.tenants.iter().filter(|t| t.shed).count());
    let reply = service.handle_line("DRAIN");
    assert!(
        reply.starts_with("OK"),
        "service baseline: DRAIN -> {reply}"
    );
    let _ = std::fs::remove_dir_all(&dir);
    ServiceBaseline {
        crash_recovery_passed: crash.passed,
        overload_passed: overload.passed,
        restore_ok,
        overloads,
        sheds,
        final_rung: stats.rung,
        rung_name: stats.rung_name.to_string(),
    }
}

/// Measures the `NoProbe` overhead: best-of-N wall clock of the probed
/// driver with the null probe against the un-instrumented driver, on a
/// DEC workload sized to dominate timer noise.
#[must_use]
pub fn measure_probe_overhead(quick: bool) -> ProbeOverhead {
    let catalog = dec_geometric(4, 4);
    let max = catalog.max_capacity();
    let inst = WorkloadSpec {
        n: if quick { 2_000 } else { 8_000 },
        seed: 7,
        arrivals: ArrivalProcess::Poisson { mean_gap: 3.0 },
        durations: DurationLaw::Uniform { min: 10, max: 60 },
        sizes: SizeLaw::Uniform { min: 1, max },
    }
    .generate(catalog);
    let reps = 5;
    let best = |f: &dyn Fn()| -> u64 {
        (0..reps)
            .map(|_| {
                let t = clock::now();
                f();
                clock::elapsed_ns(t)
            })
            .min()
            .unwrap_or(u64::MAX)
    };
    let uninstrumented_ns = best(&|| {
        run_online(&inst, &mut bshm_algos::DecOnline::new(inst.catalog()))
            .expect("dec-online never overloads");
    });
    let noprobe_ns = best(&|| {
        run_online_probed(
            &inst,
            &mut bshm_algos::DecOnline::new(inst.catalog()),
            &mut NoProbe,
        )
        .expect("dec-online never overloads");
    });
    let factor = noprobe_ns as f64 / uninstrumented_ns.max(1) as f64;
    ProbeOverhead {
        uninstrumented_ns,
        noprobe_ns,
        factor,
        bound: PROBE_OVERHEAD_BOUND,
        within_bound: factor <= PROBE_OVERHEAD_BOUND,
    }
}

/// Runs the full observatory suite: every registered algorithm on each
/// deterministic workload, plus the probe-overhead check.
#[must_use]
pub fn run_suite(quick: bool) -> BaselineReport {
    let workloads = suite_instances(quick)
        .into_iter()
        .map(|(name, instance)| {
            let lb = lower_bound(&instance);
            let algorithms = registry::names()
                .map(|alg| measure_alg(alg, &instance, lb))
                .collect();
            WorkloadBaseline {
                workload: name,
                jobs: instance.job_count() as u64,
                lower_bound: u64::try_from(lb).expect("suite bounds fit u64"),
                algorithms,
            }
        })
        .collect();
    BaselineReport {
        schema_version: SCHEMA_VERSION,
        quick,
        command: format!(
            "cargo run --release -p bshm-bench --bin baseline --{}",
            if quick { " --quick" } else { "" }
        ),
        workloads,
        probe_overhead: measure_probe_overhead(quick),
        service: measure_service(quick),
    }
}

// ------------------------------------------------------------ answers

/// Every deterministic column of `report` as `("scope column", value)`,
/// with scope `workload`, `workload/alg` or `service`. Floats print in
/// Rust's shortest round-trip form, so equal strings mean equal bits.
#[must_use]
pub(crate) fn answer_lines(report: &BaselineReport) -> Vec<(String, String)> {
    let mut lines = Vec::new();
    macro_rules! cols {
        ($scope:expr, $row:expr, $($col:ident)*) => {$(
            lines.push((format!("{} {}", $scope, stringify!($col)), format!("{:?}", $row.$col)));
        )*};
    }
    for w in &report.workloads {
        cols!(w.workload, w, jobs lower_bound);
        for a in &w.algorithms {
            cols!(format!("{}/{}", w.workload, a.alg), a, cost ratio placements
                peak_open_by_type total_scan_ops ops_per_decision_p50 ops_per_decision_p95
                ops_per_decision_p99 final_gap_ratio max_gap_ratio alerts_fired
                displaced_jobs recovery_cost_ratio schedule_digest);
        }
    }
    let s = &report.service;
    cols!("service", s, crash_recovery_passed overload_passed restore_ok overloads sheds
        final_rung);
    lines.push(("service rung_name".to_string(), s.rung_name.clone()));
    lines
}

/// `report`'s answers in the golden's text form.
#[must_use]
pub(crate) fn answers_text(report: &BaselineReport) -> String {
    let mut text =
        String::from("# Deterministic columns of `baseline --quick`; see check_answers_golden.\n");
    for (key, value) in answer_lines(report) {
        text.push_str(&format!("{key} {value}\n"));
    }
    text
}

/// Compares `report` against an answers text in both directions and
/// returns one line per differing `scope column`; empty means equal.
#[must_use]
pub(crate) fn answers_diff(report: &BaselineReport, golden: &str) -> Vec<String> {
    let mut diffs = Vec::new();
    let mut want: BTreeMap<String, String> = BTreeMap::new();
    for line in golden.lines().filter(|l| !l.starts_with('#')) {
        let mut parts = line.splitn(3, ' ');
        match (parts.next(), parts.next(), parts.next()) {
            (Some(scope), Some(column), Some(value)) => {
                want.insert(format!("{scope} {column}"), value.to_string());
            }
            _ => diffs.push(format!("malformed golden line: {line}")),
        }
    }
    for (key, value) in answer_lines(report) {
        match want.remove(&key) {
            Some(golden) if golden == value => {}
            Some(golden) => diffs.push(format!("{key}: golden {golden}, got {value}")),
            None => diffs.push(format!("{key}: {value} is not in the golden")),
        }
    }
    diffs.extend(
        want.into_iter()
            .map(|(key, golden)| format!("{key}: golden {golden}, missing from the run")),
    );
    diffs
}

/// Compares a quick `report` against the committed golden
/// (`golden/quick_answers.txt`). The error names every differing
/// `scope column` and carries the run's full answers text, so a change
/// that means to move an answer can paste it over the golden and say why.
///
/// # Errors
/// Any answer that differs from the golden, in either direction.
pub fn check_answers_golden(report: &BaselineReport) -> Result<(), String> {
    let diffs = answers_diff(report, ANSWERS_GOLDEN);
    if diffs.is_empty() {
        return Ok(());
    }
    Err(format!(
        "quick suite answers differ from golden/quick_answers.txt:\n{}\n\n\
         this run's answers:\n{}",
        diffs.join("\n"),
        answers_text(report)
    ))
}

/// The verdict `baseline` exits on: the probe-overhead bound always, and
/// for a quick report the committed answers golden too. A full report has
/// no golden, so the probe bound alone gates it.
///
/// # Errors
/// A breached probe bound, or (quick only) any answer that differs from
/// the golden; the message names each.
pub fn gate(report: &BaselineReport) -> Result<(), String> {
    let mut failures = Vec::new();
    let probe = &report.probe_overhead;
    if !probe.within_bound {
        failures.push(format!(
            "probe_overhead: NoProbe {:.2}x uninstrumented breaches the {:.2}x bound",
            probe.factor, probe.bound
        ));
    }
    if report.quick {
        if let Err(e) = check_answers_golden(report) {
            failures.push(e);
        }
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures.join("\n"))
    }
}

/// Writes a report as pretty JSON.
///
/// # Errors
/// Propagates filesystem errors.
pub fn write_report(report: &BaselineReport, path: &Path) -> Result<(), String> {
    let json = serde_json::to_string_pretty(report).expect("reports serialize");
    std::fs::write(path, json + "\n").map_err(|e| format!("writing {}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    /// One quick suite run shared by the tests that need a real report.
    fn quick_report() -> &'static BaselineReport {
        static REPORT: OnceLock<BaselineReport> = OnceLock::new();
        REPORT.get_or_init(|| run_suite(true))
    }

    fn tiny_report() -> BaselineReport {
        BaselineReport {
            schema_version: SCHEMA_VERSION,
            quick: true,
            command: "test".into(),
            workloads: vec![WorkloadBaseline {
                workload: "w".into(),
                jobs: 10,
                lower_bound: 100,
                algorithms: vec![AlgBaseline {
                    alg: "dec-online".into(),
                    peak_open_by_type: vec![2, 1],
                    cost: 120,
                    ratio: 1.2,
                    placements: 10,
                    schedule_digest: 0xfeed,
                    displaced_jobs: 2,
                    recovery_cost_ratio: 0.05,
                    final_gap_ratio: 1.2,
                    max_gap_ratio: 1.4,
                    ops_per_decision_p50: 3.0,
                    ops_per_decision_p95: 8.0,
                    ops_per_decision_p99: 12.0,
                    total_scan_ops: 60,
                    alerts_fired: 0,
                }],
            }],
            probe_overhead: ProbeOverhead {
                uninstrumented_ns: 1_000,
                noprobe_ns: 1_100,
                factor: 1.1,
                bound: PROBE_OVERHEAD_BOUND,
                within_bound: true,
            },
            service: ServiceBaseline {
                crash_recovery_passed: true,
                overload_passed: true,
                restore_ok: true,
                overloads: 9,
                sheds: 1,
                final_rung: 3,
                rung_name: "shed-tenants".into(),
            },
        }
    }

    #[test]
    fn identical_reports_pass() {
        // The answers text parses back to the report it came from,
        // including values with spaces (`peak_open_by_type`).
        let r = tiny_report();
        assert_eq!(answers_diff(&r, &answers_text(&r)), Vec::<String>::new());
        // A line without a value is reported, not a panic.
        let diffs = answers_diff(&r, "w jobs\n");
        assert_eq!(diffs[0], "malformed golden line: w jobs");
        assert_eq!(diffs.len(), 1 + answer_lines(&r).len());
    }

    #[test]
    fn report_round_trips_through_json() {
        let r = tiny_report();
        let json = serde_json::to_string_pretty(&r).unwrap();
        let back: BaselineReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.schema_version, r.schema_version);
        assert_eq!(back.workloads.len(), 1);
        assert_eq!(back.workloads[0].algorithms[0].alg, "dec-online");
        assert_eq!(
            back.workloads[0].algorithms[0].peak_open_by_type,
            vec![2, 1]
        );
        assert_eq!(back.workloads[0].algorithms[0].schedule_digest, 0xfeed);
        assert!((back.probe_overhead.factor - 1.1).abs() < 1e-12);
    }

    #[test]
    fn golden_diff_names_each_mutated_column() {
        // Every behaviour the golden gates: a change to any one
        // deterministic column of a quick report shows up as exactly one
        // diff line naming that `scope column`, whichever way it moved.
        let report = quick_report();
        let golden = answers_text(report);
        assert!(answers_diff(report, &golden).is_empty());
        let w = &report.workloads[0];
        let row = format!("{}/{}", w.workload, w.algorithms[0].alg);
        type Mutation = fn(&mut BaselineReport);
        let cases: [(String, Mutation); 6] = [
            (format!("{row} cost"), |r| {
                r.workloads[0].algorithms[0].cost += 1
            }),
            (format!("{row} alerts_fired"), |r| {
                r.workloads[0].algorithms[0].alerts_fired += 1;
            }),
            (format!("{row} total_scan_ops"), |r| {
                r.workloads[0].algorithms[0].total_scan_ops *= 2;
            }),
            ("service crash_recovery_passed".to_string(), |r| {
                r.service.crash_recovery_passed = false;
            }),
            ("service overloads".to_string(), |r| {
                r.service.overloads += 1
            }),
            (format!("{row} schedule_digest"), |r| {
                r.workloads[0].algorithms[0].schedule_digest ^= 1;
            }),
        ];
        for (key, mutate) in cases {
            let mut mutated = report.clone();
            mutate(&mut mutated);
            let diffs = answers_diff(&mutated, &golden);
            assert_eq!(diffs.len(), 1, "{key}: {diffs:?}");
            assert!(
                diffs[0].starts_with(&format!("{key}: golden ")),
                "{key}: {diffs:?}"
            );
        }
    }

    /// The diff of `tiny_report` mutated by `mutate` against the tiny
    /// report's own answers text as the golden.
    fn tiny_diff(mutate: impl Fn(&mut BaselineReport)) -> Vec<String> {
        let old = tiny_report();
        let golden = answers_text(&old);
        let mut new = old.clone();
        mutate(&mut new);
        answers_diff(&new, &golden)
    }

    /// Asserts that `diffs` holds exactly one line per key in `keys`, in
    /// order, each naming that `scope column` against its golden value.
    fn assert_names(diffs: &[String], keys: &[&str]) {
        assert_eq!(diffs.len(), keys.len(), "{diffs:?}");
        for (diff, key) in diffs.iter().zip(keys) {
            assert!(
                diff.starts_with(&format!("{key}: golden ")),
                "{key}: {diffs:?}"
            );
        }
    }

    #[test]
    fn cost_growth_on_same_workload_fails() {
        assert_names(
            &tiny_diff(|r| r.workloads[0].algorithms[0].cost += 1),
            &["w/dec-online cost"],
        );
        // The golden is exact: a cheaper schedule is a change to explain
        // too, not a silent pass.
        assert_names(
            &tiny_diff(|r| r.workloads[0].algorithms[0].cost -= 1),
            &["w/dec-online cost"],
        );
    }

    #[test]
    fn new_alerts_on_same_workload_fail_the_gate() {
        assert_names(
            &tiny_diff(|r| r.workloads[0].algorithms[0].alerts_fired = 2),
            &["w/dec-online alerts_fired"],
        );
    }

    #[test]
    fn scan_ops_blowup_fails_the_gate() {
        assert_names(
            &tiny_diff(|r| {
                r.workloads[0].algorithms[0].total_scan_ops *= 2;
                r.workloads[0].algorithms[0].ops_per_decision_p95 *= 2.0;
            }),
            &[
                "w/dec-online total_scan_ops",
                "w/dec-online ops_per_decision_p95",
            ],
        );
    }

    #[test]
    fn failed_drill_or_counter_growth_fails_the_gate() {
        assert_names(
            &tiny_diff(|r| r.service.restore_ok = false),
            &["service restore_ok"],
        );
        assert_names(
            &tiny_diff(|r| {
                r.service.overloads += 1;
                r.service.sheds += 1;
            }),
            &["service overloads", "service sheds"],
        );
    }

    #[test]
    fn probe_bound_breach_fails_even_without_matching_workloads() {
        // A full report has no golden, so its workloads match nothing, yet
        // the probe bound still gates it.
        let mut r = tiny_report();
        r.quick = false;
        assert_eq!(gate(&r), Ok(()));
        r.probe_overhead.factor = r.probe_overhead.bound * 2.0;
        r.probe_overhead.within_bound = false;
        let err = gate(&r).unwrap_err();
        assert!(err.starts_with("probe_overhead: "), "{err}");
        assert!(!err.contains("golden"), "{err}");
    }

    #[test]
    fn quick_suite_measures_every_algorithm() {
        let report = quick_report();
        assert_eq!(report.schema_version, SCHEMA_VERSION);
        assert_eq!(report.workloads.len(), 3);
        for w in &report.workloads {
            assert_eq!(w.algorithms.len(), registry::names().len());
            assert!(w.lower_bound > 0);
            for a in &w.algorithms {
                assert!(
                    a.ratio >= 1.0 - 1e-9,
                    "{}/{}: {}",
                    w.workload,
                    a.alg,
                    a.ratio
                );
                assert_eq!(a.placements, w.jobs, "{}/{}", w.workload, a.alg);
                // The gap columns cross-check the cost columns exactly:
                // final gauge ratio == cost/lb, and the worst instantaneous
                // ratio can only be at least the final one.
                assert!(
                    (a.final_gap_ratio - a.ratio).abs() < 1e-12,
                    "{}/{}: final_gap_ratio {} vs ratio {}",
                    w.workload,
                    a.alg,
                    a.final_gap_ratio,
                    a.ratio
                );
                assert!(
                    a.max_gap_ratio >= a.final_gap_ratio - 1e-12,
                    "{}/{}: max {} < final {}",
                    w.workload,
                    a.alg,
                    a.max_gap_ratio,
                    a.final_gap_ratio
                );
                // The x-ray columns: every decision scans or compares
                // something, and the quantiles are ordered.
                assert!(a.total_scan_ops > 0, "{}/{}", w.workload, a.alg);
                assert!(
                    a.ops_per_decision_p50 <= a.ops_per_decision_p95 + 1e-9
                        && a.ops_per_decision_p95 <= a.ops_per_decision_p99 + 1e-9,
                    "{}/{}: ops quantiles out of order",
                    w.workload,
                    a.alg
                );
            }
        }
        // The recovery columns exist and the fixed plan actually bites on
        // at least one (workload, algorithm) pair.
        assert!(
            report
                .workloads
                .iter()
                .flat_map(|w| &w.algorithms)
                .any(|a| a.displaced_jobs > 0),
            "{FAULT_PLAN_SPEC} displaced nothing anywhere"
        );
        for w in &report.workloads {
            for a in &w.algorithms {
                assert!(a.recovery_cost_ratio >= 0.0, "{}/{}", w.workload, a.alg);
            }
        }
        // Determinism across runs and commits: every deterministic column
        // equals the committed golden exactly.
        if let Err(e) = check_answers_golden(report) {
            panic!("{e}");
        }
        // The asserted probe bound.
        assert!(
            report.probe_overhead.within_bound,
            "NoProbe overhead {:.2}x exceeds {:.2}x",
            report.probe_overhead.factor, report.probe_overhead.bound
        );
        // The v6 service section: both drills pass and the pressure
        // scenario bottoms the ladder out deterministically.
        assert!(report.service.crash_recovery_passed);
        assert!(report.service.overload_passed);
        assert!(report.service.restore_ok);
        assert_eq!(report.service.final_rung, 3, "{}", report.service.rung_name);
        assert_eq!(report.service.rung_name, "shed-tenants");
        assert_eq!(report.service.sheds, 1);
        assert!(
            report.service.overloads >= 6,
            "{}",
            report.service.overloads
        );
    }

    #[test]
    fn high_concurrency_placement_ops_stay_bounded() {
        // `bshm gen --n 4000 --seed 1 --catalog dec:4:4 --durations
        // uniform:1000:6000`: about 1,170 jobs run at once. Sorting the live
        // rectangles for every job cost 5,622 x-ray ops per decision here
        // (p50 ~5,642); walking the skyline's edges costs 435 (p50 ~260).
        // Op counts are deterministic, so the bound holds on any machine.
        let inst = WorkloadSpec {
            n: 4_000,
            seed: 1,
            arrivals: ArrivalProcess::Poisson { mean_gap: 3.0 },
            durations: DurationLaw::Uniform {
                min: 1_000,
                max: 6_000,
            },
            sizes: SizeLaw::Uniform { min: 1, max: 16 },
        }
        .generate(dec_geometric(4, 4));
        let (p50, _, _, total) = measure_ops("dec-offline", &inst);
        let mean = total as f64 / inst.job_count() as f64;
        assert!(
            p50 <= 1_000.0 && mean <= 1_000.0,
            "dec-offline ops per decision: p50 {p50}, mean {mean}"
        );
    }
}
