//! Performance observatory: deterministic benchmark baselines,
//! schema-versioned `BENCH_*.json` reports, and a regression comparator.
//!
//! [`run_suite`] pushes a fixed workload trio (DEC, INC, and general
//! catalogs; reproducible seeds) through every scheduler in
//! [`bshm_algos::registry`] with a live [`Recorder`] probe and span
//! timing, and records per-algorithm wall-clock, decision-latency
//! quantiles, peak open machines per type, cost vs the §II lower bound,
//! and recovery overhead (displaced jobs + recovery-cost ratio) from a
//! separate run under the fixed [`FAULT_PLAN_SPEC`] fault plan. It also
//! measures the `NoProbe` driver overhead against the un-instrumented
//! driver and asserts it stays within [`PROBE_OVERHEAD_BOUND`].
//!
//! [`compare`] diffs two reports: timing metrics are gated by a
//! configurable factor threshold (only when the job counts match, so a
//! `--quick` CI run never "regresses" against a full local baseline on
//! size alone), deterministic metrics (cost, ratio, peaks) are reported
//! whenever they moved, and the probe-overhead factor is always checked
//! against its recorded bound. The `baseline` binary exits non-zero on
//! any breach.

use bshm_algos::registry::{self, online_or_scripted, run_traced, run_xray};
use bshm_core::instance::Instance;
use bshm_core::lower_bound::lower_bound;
use bshm_core::schedule_cost;
use bshm_core::validate::validate_schedule;
use bshm_faults::{run_online_faulted, FaultPlan, SameType};
use bshm_obs::span::{self, SpanStat};
use bshm_obs::{GapProbe, HealthProbe, NoProbe, Recorder, SloSpec};
use bshm_serve::{builtin_factory, crash_recovery_drill, overload_drill, Service, ServiceConfig};
use bshm_sim::{run_online, run_online_probed};
use bshm_workload::catalogs::{dec_geometric, inc_geometric, sawtooth};
use bshm_workload::{ArrivalProcess, DurationLaw, SizeLaw, WorkloadSpec};
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};

/// Version stamp of the `BENCH_*.json` schema. Bump on breaking changes
/// so the comparator can refuse apples-to-oranges diffs.
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
/// v5 added the live-health-plane columns: `alerts_fired` (alerts under
/// the default SLO spec, event-clock deterministic, gated exactly like
/// cost) and `windowed_p99_ns` (the worst per-window decision-latency p99
/// from the rolling-window fold, wall-clock and gated like the other
/// timing columns), both measured by wrapping the traced run in a
/// [`HealthProbe`].
///
/// v6 added the resident-service section (`service`): both `bshm drill`
/// robustness drills (crash-recovery restore verification, overload
/// ladder walk) plus deterministic counters from a fixed pressure
/// scenario — typed `OVERLOAD` rejections, tenants shed, the final
/// degradation rung. Everything in the section is event-clock and seeded,
/// so it compares exactly; the drill verdicts and counter growth are
/// gated like cost. The section is required, so pre-v6 files no longer
/// load (the version bump is the breaking-change signal).
pub const SCHEMA_VERSION: u64 = 6;

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

/// Default regression threshold: a timing metric regresses when it grows
/// by more than this factor over the prior baseline.
pub const DEFAULT_THRESHOLD: f64 = 1.5;

/// A full observatory report (`BENCH_*.json`).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct BaselineReport {
    /// Schema version ([`SCHEMA_VERSION`]).
    pub schema_version: u64,
    /// Free-form label (e.g. `PR3`).
    pub label: String,
    /// Whether the quick (CI-sized) workload grid was used.
    pub quick: bool,
    /// The command that regenerates this file.
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
/// byte for byte and the comparator gates them exactly.
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
    /// End-to-end wall clock for the traced run, nanoseconds.
    pub wall_ns: u64,
    /// Median per-placement decision latency (ns, histogram estimate).
    pub decision_ns_p50: f64,
    /// 95th-percentile decision latency (ns).
    pub decision_ns_p95: f64,
    /// 99th-percentile decision latency (ns).
    pub decision_ns_p99: f64,
    /// Peak simultaneously-open machines per catalog type.
    pub peak_open_by_type: Vec<u32>,
    /// Schedule cost.
    pub cost: u64,
    /// Cost over the lower bound.
    pub ratio: f64,
    /// Placement decisions made (= jobs).
    pub placements: u64,
    /// Jobs displaced by the [`FAULT_PLAN_SPEC`] crashes in a separate
    /// faulted run (the timing/cost columns above stay fault-free).
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
    /// Worst per-window decision-latency p99 (ns) across the rolling
    /// windows retained by the health probe — the windowed counterpart of
    /// `decision_ns_p99`, showing latency bursts the whole-run quantile
    /// averages away. Wall-clock: gated like the other timing columns.
    pub windowed_p99_ns: f64,
    /// Hot-path span breakdown for this run (wall-clock per phase).
    pub spans: Vec<SpanStat>,
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
/// the health probe and the gap probe, with span timing, returning the
/// full measurement row. The gap probe sits outermost so its `GapSample`
/// gauges flow through the health plane's windowed gap rule.
fn measure_alg(alg: &str, instance: &Instance, lb: u128) -> AlgBaseline {
    // Spans are process-global: drain before so the row only carries this
    // run's timings.
    let _ = span::take();
    let n_types = instance.catalog().len();
    let mut probe = GapProbe::new(
        instance.catalog(),
        HealthProbe::new(SloSpec::default(), n_types, Recorder::new(alg, n_types)),
    );
    let start = bshm_obs::span::now();
    let schedule =
        run_traced(alg, instance, &mut probe).unwrap_or_else(|e| panic!("baseline alg {alg}: {e}"));
    let wall_ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
    let spans = span::take();
    if let Some(err) = probe.error() {
        panic!("baseline alg {alg}: gap gauges over the run's own stream: {err}");
    }
    let (health, timeline) = probe.into_parts();
    // The driver finished the probe chain, so every window (including the
    // trailing partial one) is in the history ring by now.
    let windowed_p99_ns = health
        .windows()
        .history()
        .iter()
        .filter_map(|w| w.decision_ns_quantile(0.99))
        .fold(0.0_f64, f64::max);
    let (rec, health_report) = health.into_parts();
    let metrics = rec
        .into_metrics()
        .unwrap_or_else(|e| panic!("baseline alg {alg}: {e}"));
    if let Err(e) = validate_schedule(&schedule, instance) {
        panic!("baseline alg {alg} produced an infeasible schedule: {e}");
    }
    let cost = schedule_cost(&schedule, instance);
    let (displaced_jobs, recovery_cost_ratio) = measure_recovery(alg, instance);
    let (ops_p50, ops_p95, ops_p99, total_scan_ops) = measure_ops(alg, instance);
    AlgBaseline {
        alg: alg.to_string(),
        wall_ns,
        decision_ns_p50: metrics.decision_ns_quantile(0.50).unwrap_or(0.0),
        decision_ns_p95: metrics.decision_ns_quantile(0.95).unwrap_or(0.0),
        decision_ns_p99: metrics.decision_ns_quantile(0.99).unwrap_or(0.0),
        peak_open_by_type: metrics.open_peak_by_type.clone(),
        cost: u64::try_from(cost).expect("suite costs fit u64"),
        ratio: cost as f64 / lb as f64,
        placements: metrics.placements,
        displaced_jobs,
        recovery_cost_ratio,
        final_gap_ratio: timeline.final_ratio().unwrap_or(0.0),
        max_gap_ratio: timeline.max_ratio(),
        ops_per_decision_p50: ops_p50,
        ops_per_decision_p95: ops_p95,
        ops_per_decision_p99: ops_p99,
        total_scan_ops,
        alerts_fired: bshm_core::convert::count_u64(health_report.alerts.len()),
        windowed_p99_ns,
        spans,
    }
}

/// Runs the algorithm once more under the x-ray driver (the timing
/// columns above stay on the plain probed path, so decision latencies are
/// never inflated by decision-trace bookkeeping) and returns the
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
/// counters. Artifacts land under `target/` (relative to the invoking
/// directory, like the `BENCH_*.json` output itself) and are removed on
/// the way out.
fn measure_service(label: &str) -> ServiceBaseline {
    let dir = Path::new("target").join(format!("service-drill-{label}"));
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
                let t = bshm_obs::span::now();
                f();
                u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
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
pub fn run_suite(quick: bool, label: &str) -> BaselineReport {
    span::set_enabled(true);
    let _ = span::take();
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
    span::set_enabled(false);
    let _ = span::take();
    BaselineReport {
        schema_version: SCHEMA_VERSION,
        label: label.to_string(),
        quick,
        command: format!(
            "cargo run --release -p bshm-bench --bin baseline -- run{} --out BENCH_{label}.json",
            if quick { " --quick" } else { "" }
        ),
        workloads,
        probe_overhead: measure_probe_overhead(quick),
        service: measure_service(label),
    }
}

// ------------------------------------------------------------ comparator

/// One per-metric difference between two reports.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Delta {
    /// `workload/alg/metric` path.
    pub metric: String,
    /// Prior value.
    pub old: f64,
    /// Current value.
    pub new: f64,
    /// `new / old` (∞ when old is 0 and new is not).
    pub factor: f64,
    /// Whether this delta breaches the threshold.
    pub regression: bool,
}

/// The comparator's verdict on two reports.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Comparison {
    /// Every compared metric that moved (or regressed).
    pub deltas: Vec<Delta>,
    /// Human-readable breach descriptions; empty means pass.
    pub regressions: Vec<String>,
    /// Comparisons skipped with the reason (size mismatch etc.).
    pub skipped: Vec<String>,
}

impl Comparison {
    /// Whether the new report passes (no regression).
    #[must_use]
    pub fn passed(&self) -> bool {
        self.regressions.is_empty()
    }

    /// Renders the comparison as an aligned console report.
    #[must_use]
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<55} {:>14} {:>14} {:>8}",
            "metric", "old", "new", "factor"
        );
        for d in &self.deltas {
            let _ = writeln!(
                out,
                "{:<55} {:>14.0} {:>14.0} {:>7.2}x{}",
                d.metric,
                d.old,
                d.new,
                d.factor,
                if d.regression { "  << REGRESSION" } else { "" }
            );
        }
        for s in &self.skipped {
            let _ = writeln!(out, "skipped: {s}");
        }
        if self.passed() {
            let _ = writeln!(out, "PASS: no metric regressed");
        } else {
            for r in &self.regressions {
                let _ = writeln!(out, "FAIL: {r}");
            }
        }
        out
    }
}

/// Exact-zero test for baseline metrics: counters and byte totals arrive
/// as integral floats, so the comparison is with the smallest positive
/// value rather than `== 0.0` (which the `float-eq` lint bans).
fn is_zero(x: f64) -> bool {
    x.abs() < f64::MIN_POSITIVE
}

fn push_delta(cmp: &mut Comparison, metric: String, old: f64, new: f64, gate: Option<f64>) {
    let factor = if is_zero(old) {
        if is_zero(new) {
            1.0
        } else {
            f64::INFINITY
        }
    } else {
        new / old
    };
    let regression = gate.is_some_and(|t| factor > t);
    // Keep the report focused: record gated metrics always, ungated ones
    // only when they moved.
    if gate.is_some() || (factor - 1.0).abs() > 1e-9 {
        if regression {
            cmp.regressions.push(format!(
                "{metric}: {old:.0} -> {new:.0} ({factor:.2}x > {:.2}x threshold)",
                gate.unwrap_or(f64::INFINITY)
            ));
        }
        cmp.deltas.push(Delta {
            metric,
            old,
            new,
            factor,
            regression,
        });
    }
}

/// Diffs `new` against `old` with a timing-regression `threshold`.
///
/// Timing metrics (wall clock, latency quantiles) are gated only when the
/// workloads have identical job counts; deterministic metrics (cost,
/// ratio, peaks, placements) are reported whenever they moved but only
/// gated on equal sizes too. The probe-overhead factor is always gated
/// against the bound recorded in `new`.
#[must_use]
pub fn compare(old: &BaselineReport, new: &BaselineReport, threshold: f64) -> Comparison {
    let mut cmp = Comparison {
        deltas: Vec::new(),
        regressions: Vec::new(),
        skipped: Vec::new(),
    };
    if old.schema_version != new.schema_version {
        cmp.skipped.push(format!(
            "schema version changed ({} -> {}): workload metrics not compared",
            old.schema_version, new.schema_version
        ));
    } else {
        for nw in &new.workloads {
            let Some(ow) = old.workloads.iter().find(|w| w.workload == nw.workload) else {
                cmp.skipped.push(format!(
                    "workload {} absent from prior baseline",
                    nw.workload
                ));
                continue;
            };
            if ow.jobs != nw.jobs {
                cmp.skipped.push(format!(
                    "workload {}: job count {} vs {} (quick vs full?), timing not gated",
                    nw.workload, ow.jobs, nw.jobs
                ));
                continue;
            }
            for na in &nw.algorithms {
                let Some(oa) = ow.algorithms.iter().find(|a| a.alg == na.alg) else {
                    cmp.skipped.push(format!(
                        "{}/{} absent from prior baseline",
                        nw.workload, na.alg
                    ));
                    continue;
                };
                let path = |m: &str| format!("{}/{}/{m}", nw.workload, na.alg);
                push_delta(
                    &mut cmp,
                    path("wall_ns"),
                    oa.wall_ns as f64,
                    na.wall_ns as f64,
                    Some(threshold),
                );
                push_delta(
                    &mut cmp,
                    path("decision_ns_p95"),
                    oa.decision_ns_p95,
                    na.decision_ns_p95,
                    Some(threshold),
                );
                push_delta(
                    &mut cmp,
                    path("decision_ns_p99"),
                    oa.decision_ns_p99,
                    na.decision_ns_p99,
                    Some(threshold),
                );
                // Deterministic on a fixed workload: any growth is a real
                // algorithmic change, so gate at 1.0 (shrinking is fine).
                push_delta(
                    &mut cmp,
                    path("cost"),
                    oa.cost as f64,
                    na.cost as f64,
                    Some(1.0 + 1e-9),
                );
                let (opeak, npeak) = (
                    oa.peak_open_by_type
                        .iter()
                        .map(|&p| u64::from(p))
                        .sum::<u64>(),
                    na.peak_open_by_type
                        .iter()
                        .map(|&p| u64::from(p))
                        .sum::<u64>(),
                );
                push_delta(
                    &mut cmp,
                    path("peak_open_total"),
                    opeak as f64,
                    npeak as f64,
                    None,
                );
                // Recovery overhead is deterministic too, but legitimate
                // policy/plan tuning moves it: report, don't gate.
                push_delta(
                    &mut cmp,
                    path("displaced_jobs"),
                    oa.displaced_jobs as f64,
                    na.displaced_jobs as f64,
                    None,
                );
                // The gap gauges track cost (already gated above); any
                // worst-case drift is worth seeing but not gating.
                push_delta(
                    &mut cmp,
                    path("max_gap_ratio"),
                    oa.max_gap_ratio,
                    na.max_gap_ratio,
                    None,
                );
                // The op counts are deterministic (control flow, not
                // clocks), but legitimate algorithm work moves them a
                // little; gate blowups at the timing threshold. Only
                // reached on matching job counts, so quick-vs-full size
                // differences never fire these.
                push_delta(
                    &mut cmp,
                    path("total_scan_ops"),
                    oa.total_scan_ops as f64,
                    na.total_scan_ops as f64,
                    Some(threshold),
                );
                push_delta(
                    &mut cmp,
                    path("ops_per_decision_p95"),
                    oa.ops_per_decision_p95,
                    na.ops_per_decision_p95,
                    Some(threshold),
                );
                push_delta(
                    &mut cmp,
                    path("ops_per_decision_p99"),
                    oa.ops_per_decision_p99,
                    na.ops_per_decision_p99,
                    Some(threshold),
                );
                // Alert counts are event-clock deterministic on a fixed
                // workload: any new alert is a real behavioural change,
                // so gate growth exactly (like cost; quieter is fine).
                push_delta(
                    &mut cmp,
                    path("alerts_fired"),
                    oa.alerts_fired as f64,
                    na.alerts_fired as f64,
                    Some(1.0 + 1e-9),
                );
                // Windowed latency bursts are wall-clock: same gate as
                // the whole-run quantiles.
                push_delta(
                    &mut cmp,
                    path("windowed_p99_ns"),
                    oa.windowed_p99_ns,
                    na.windowed_p99_ns,
                    Some(threshold),
                );
            }
        }
    }
    // The resident-service section: drill verdicts are hard gates (a
    // failed drill is a robustness regression, full stop); the counters
    // are deterministic, so any growth is a real behavioural change and
    // gates exactly, like cost — fewer overloads or sheds is fine.
    for (name, ok) in [
        ("crash_recovery_passed", new.service.crash_recovery_passed),
        ("overload_passed", new.service.overload_passed),
        ("restore_ok", new.service.restore_ok),
    ] {
        if !ok {
            cmp.regressions
                .push(format!("service/{name}: drill failed"));
        }
    }
    if old.schema_version == new.schema_version {
        push_delta(
            &mut cmp,
            "service/overloads".to_string(),
            old.service.overloads as f64,
            new.service.overloads as f64,
            Some(1.0 + 1e-9),
        );
        push_delta(
            &mut cmp,
            "service/sheds".to_string(),
            old.service.sheds as f64,
            new.service.sheds as f64,
            Some(1.0 + 1e-9),
        );
        push_delta(
            &mut cmp,
            "service/final_rung".to_string(),
            old.service.final_rung as f64,
            new.service.final_rung as f64,
            Some(1.0 + 1e-9),
        );
    }
    if new.probe_overhead.factor > new.probe_overhead.bound {
        cmp.regressions.push(format!(
            "probe_overhead: NoProbe driver is {:.2}x the uninstrumented driver (bound {:.2}x)",
            new.probe_overhead.factor, new.probe_overhead.bound
        ));
    }
    push_delta(
        &mut cmp,
        "probe_overhead/factor".to_string(),
        old.probe_overhead.factor,
        new.probe_overhead.factor,
        None,
    );
    cmp
}

// ------------------------------------------------------------ file I/O

/// Writes a report as pretty JSON.
///
/// # Errors
/// Propagates filesystem errors.
pub fn write_report(report: &BaselineReport, path: &Path) -> Result<(), String> {
    let json = serde_json::to_string_pretty(report).expect("reports serialize");
    std::fs::write(path, json + "\n").map_err(|e| format!("writing {}: {e}", path.display()))
}

/// Loads a `BENCH_*.json` report.
///
/// # Errors
/// Reports unreadable files or schema mismatches.
pub fn load_report(path: &Path) -> Result<BaselineReport, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    let report: BaselineReport =
        serde_json::from_str(&text).map_err(|e| format!("parsing {}: {e}", path.display()))?;
    if report.schema_version > SCHEMA_VERSION {
        return Err(format!(
            "{}: schema version {} is newer than this binary ({})",
            path.display(),
            report.schema_version,
            SCHEMA_VERSION
        ));
    }
    Ok(report)
}

/// Natural-sort key: digit runs compare numerically, so `BENCH_PR10` >
/// `BENCH_PR9`.
fn natural_key(name: &str) -> Vec<(u64, String)> {
    let mut key = Vec::new();
    let mut chars = name.chars().peekable();
    while let Some(&c) = chars.peek() {
        if c.is_ascii_digit() {
            let mut n = 0u64;
            while let Some(&d) = chars.peek() {
                let Some(v) = d.to_digit(10) else { break };
                n = n.saturating_mul(10).saturating_add(u64::from(v));
                chars.next();
            }
            key.push((n, String::new()));
        } else {
            let mut s = String::new();
            while let Some(&d) = chars.peek() {
                if d.is_ascii_digit() {
                    break;
                }
                s.push(d);
                chars.next();
            }
            key.push((u64::MAX, s));
        }
    }
    key
}

/// Finds the most recent prior `BENCH_*.json` in `dir` (highest under
/// natural ordering), skipping `exclude` (the file being written).
#[must_use]
pub fn find_previous_baseline(dir: &Path, exclude: Option<&Path>) -> Option<PathBuf> {
    let exclude_name = exclude.and_then(Path::file_name);
    let mut candidates: Vec<PathBuf> = std::fs::read_dir(dir)
        .ok()?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| {
            let Some(name) = p.file_name().and_then(|n| n.to_str()) else {
                return false;
            };
            name.starts_with("BENCH_")
                && name.ends_with(".json")
                && Some(p.file_name().unwrap_or_default()) != exclude_name
        })
        .collect();
    candidates.sort_by_key(|p| natural_key(&p.file_name().unwrap_or_default().to_string_lossy()));
    candidates.pop()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_report() -> BaselineReport {
        BaselineReport {
            schema_version: SCHEMA_VERSION,
            label: "TEST".into(),
            quick: true,
            command: "test".into(),
            workloads: vec![WorkloadBaseline {
                workload: "w".into(),
                jobs: 10,
                lower_bound: 100,
                algorithms: vec![AlgBaseline {
                    alg: "dec-online".into(),
                    wall_ns: 1_000_000,
                    decision_ns_p50: 100.0,
                    decision_ns_p95: 400.0,
                    decision_ns_p99: 900.0,
                    peak_open_by_type: vec![2, 1],
                    cost: 120,
                    ratio: 1.2,
                    placements: 10,
                    displaced_jobs: 2,
                    recovery_cost_ratio: 0.05,
                    final_gap_ratio: 1.2,
                    max_gap_ratio: 1.4,
                    ops_per_decision_p50: 3.0,
                    ops_per_decision_p95: 8.0,
                    ops_per_decision_p99: 12.0,
                    total_scan_ops: 60,
                    alerts_fired: 0,
                    windowed_p99_ns: 1_200.0,
                    spans: vec![],
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
        let r = tiny_report();
        let cmp = compare(&r, &r, DEFAULT_THRESHOLD);
        assert!(cmp.passed(), "{}", cmp.render());
    }

    #[test]
    fn synthetic_latency_regression_fails() {
        // The acceptance gate: a 2x decision-latency regression must
        // breach the default 1.5x threshold.
        let old = tiny_report();
        let mut new = old.clone();
        for w in &mut new.workloads {
            for a in &mut w.algorithms {
                a.decision_ns_p95 *= 2.0;
                a.decision_ns_p99 *= 2.0;
                a.wall_ns *= 2;
            }
        }
        let cmp = compare(&old, &new, DEFAULT_THRESHOLD);
        assert!(!cmp.passed());
        assert!(
            cmp.regressions
                .iter()
                .any(|r| r.contains("decision_ns_p95")),
            "{:?}",
            cmp.regressions
        );
        assert!(cmp.render().contains("REGRESSION"));
        // The same 2x move passes a 3x threshold.
        assert!(compare(&old, &new, 3.0).passed());
    }

    #[test]
    fn scan_ops_blowup_fails_the_gate() {
        // The v4 gate: a 2x jump in deterministic scan work breaches the
        // default 1.5x threshold like any timing regression would.
        let old = tiny_report();
        let mut new = old.clone();
        new.workloads[0].algorithms[0].total_scan_ops *= 2;
        new.workloads[0].algorithms[0].ops_per_decision_p95 *= 2.0;
        let cmp = compare(&old, &new, DEFAULT_THRESHOLD);
        assert!(!cmp.passed());
        assert!(cmp.regressions.iter().any(|r| r.contains("total_scan_ops")));
        assert!(cmp
            .regressions
            .iter()
            .any(|r| r.contains("ops_per_decision_p95")));
        // Size-aware: on mismatched job counts the ops gate is skipped.
        new.workloads[0].jobs = 77;
        let cmp = compare(&old, &new, DEFAULT_THRESHOLD);
        assert!(cmp.passed(), "{}", cmp.render());
    }

    #[test]
    fn cost_growth_on_same_workload_fails() {
        let old = tiny_report();
        let mut new = old.clone();
        new.workloads[0].algorithms[0].cost += 1;
        let cmp = compare(&old, &new, DEFAULT_THRESHOLD);
        assert!(!cmp.passed());
        assert!(cmp.regressions.iter().any(|r| r.contains("cost")));
    }

    #[test]
    fn new_alerts_on_same_workload_fail_the_gate() {
        // The v5 gate: a previously quiet (workload, algorithm) pair that
        // starts alerting under the default SLO is a regression, exactly
        // like a cost increase; going quiet again is fine.
        let old = tiny_report();
        let mut new = old.clone();
        new.workloads[0].algorithms[0].alerts_fired = 2;
        let cmp = compare(&old, &new, DEFAULT_THRESHOLD);
        assert!(!cmp.passed());
        assert!(cmp.regressions.iter().any(|r| r.contains("alerts_fired")));
        assert!(compare(&new, &old, DEFAULT_THRESHOLD).passed());
        // Windowed latency bursts ride the timing threshold instead.
        let mut slow = old.clone();
        slow.workloads[0].algorithms[0].windowed_p99_ns *= 2.0;
        let cmp = compare(&old, &slow, DEFAULT_THRESHOLD);
        assert!(!cmp.passed());
        assert!(cmp
            .regressions
            .iter()
            .any(|r| r.contains("windowed_p99_ns")));
        assert!(compare(&old, &slow, 3.0).passed());
    }

    #[test]
    fn failed_drill_or_counter_growth_fails_the_gate() {
        // The v6 gates: a failed drill regresses regardless of the prior
        // report, and counter growth regresses exactly like cost.
        let old = tiny_report();
        let mut new = old.clone();
        new.service.restore_ok = false;
        let cmp = compare(&old, &new, DEFAULT_THRESHOLD);
        assert!(!cmp.passed());
        assert!(cmp
            .regressions
            .iter()
            .any(|r| r.contains("service/restore_ok")));

        let mut noisy = old.clone();
        noisy.service.overloads += 1;
        noisy.service.sheds += 1;
        let cmp = compare(&old, &noisy, DEFAULT_THRESHOLD);
        assert!(!cmp.passed());
        assert!(cmp
            .regressions
            .iter()
            .any(|r| r.contains("service/overloads")));
        assert!(cmp.regressions.iter().any(|r| r.contains("service/sheds")));
        // Quieter service behaviour passes the growth gate.
        assert!(compare(&noisy, &old, DEFAULT_THRESHOLD).passed());
    }

    #[test]
    fn size_mismatch_skips_instead_of_flaking() {
        let old = tiny_report();
        let mut new = old.clone();
        new.workloads[0].jobs = 1_000;
        new.workloads[0].algorithms[0].wall_ns *= 100;
        let cmp = compare(&old, &new, DEFAULT_THRESHOLD);
        assert!(cmp.passed(), "{}", cmp.render());
        assert!(!cmp.skipped.is_empty());
    }

    #[test]
    fn probe_bound_breach_fails_even_without_matching_workloads() {
        let old = tiny_report();
        let mut new = old.clone();
        new.probe_overhead.factor = new.probe_overhead.bound * 2.0;
        new.probe_overhead.within_bound = false;
        let cmp = compare(&old, &new, DEFAULT_THRESHOLD);
        assert!(!cmp.passed());
        assert!(cmp.regressions.iter().any(|r| r.contains("probe_overhead")));
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
        assert!((back.probe_overhead.factor - 1.1).abs() < 1e-12);
    }

    #[test]
    fn natural_ordering_picks_highest_pr() {
        let dir = std::env::temp_dir().join("bshm-baseline-prev");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        for name in ["BENCH_PR3.json", "BENCH_PR10.json", "BENCH_PR9.json"] {
            std::fs::write(dir.join(name), "{}").unwrap();
        }
        std::fs::write(dir.join("BENCH_notes.txt"), "").unwrap();
        let prev = find_previous_baseline(&dir, None).unwrap();
        assert_eq!(prev.file_name().unwrap(), "BENCH_PR10.json");
        // The file being written is excluded from candidates.
        let prev = find_previous_baseline(&dir, Some(&dir.join("BENCH_PR10.json"))).unwrap();
        assert_eq!(prev.file_name().unwrap(), "BENCH_PR9.json");
    }

    #[test]
    fn quick_suite_measures_every_algorithm() {
        let report = run_suite(true, "TEST");
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
                assert!(a.wall_ns > 0);
                assert!(!a.spans.is_empty(), "{}/{}: no spans", w.workload, a.alg);
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
                // The health-plane columns: every suite run places jobs,
                // so some window carries a real latency quantile.
                assert!(a.windowed_p99_ns > 0.0, "{}/{}", w.workload, a.alg);
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
        check_answers_golden(&report);
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
        // Comparing a suite run against itself passes. (Not against a
        // second run: micro-sized quick runs have wall-clock noise beyond
        // any sane threshold; the binary's --compare path gates runs of
        // matching size, which CI keeps honest with release builds.)
        assert!(compare(&report, &report, DEFAULT_THRESHOLD).passed());
    }

    /// The committed answers of a quick suite run: one
    /// `<scope> <column> <value>` line per deterministic column.
    const ANSWERS_GOLDEN: &str = include_str!("../golden/quick_answers.txt");

    /// Every deterministic column of `report` as `("scope column", value)`,
    /// with scope `workload`, `workload/alg` or `service`. Floats print in
    /// Rust's shortest round-trip form, so equal strings mean equal bits.
    fn answer_lines(report: &BaselineReport) -> Vec<(String, String)> {
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
                    displaced_jobs recovery_cost_ratio);
            }
        }
        let s = &report.service;
        cols!("service", s, crash_recovery_passed overload_passed restore_ok overloads sheds
            final_rung);
        lines.push(("service rung_name".to_string(), s.rung_name.clone()));
        lines
    }

    /// Compares `report` against [`ANSWERS_GOLDEN`] in both directions and
    /// fails naming every differing `scope column`. The failure message
    /// also carries the run's full answers text, so a change that means to
    /// move an answer can paste it over the golden and say why.
    fn check_answers_golden(report: &BaselineReport) {
        let actual = answer_lines(report);
        let mut golden: std::collections::BTreeMap<String, String> = ANSWERS_GOLDEN
            .lines()
            .filter(|l| !l.starts_with('#'))
            .map(|line| {
                let mut parts = line.splitn(3, ' ');
                let key = format!("{} {}", parts.next().unwrap(), parts.next().unwrap());
                (key, parts.next().unwrap().to_string())
            })
            .collect();
        let mut diffs = Vec::new();
        for (key, value) in &actual {
            match golden.remove(key) {
                Some(want) if want == *value => {}
                Some(want) => diffs.push(format!("{key}: golden {want}, got {value}")),
                None => diffs.push(format!("{key}: {value} is not in the golden")),
            }
        }
        diffs.extend(
            golden
                .into_iter()
                .map(|(key, want)| format!("{key}: golden {want}, missing from the run")),
        );
        let mut text = String::from(
            "# Deterministic columns of `baseline run --quick`; see check_answers_golden.\n",
        );
        for (key, value) in &actual {
            text.push_str(&format!("{key} {value}\n"));
        }
        assert!(
            diffs.is_empty(),
            "quick suite answers differ from golden/quick_answers.txt:\n{}\n\n\
             this run's answers:\n{text}",
            diffs.join("\n")
        );
    }
}
