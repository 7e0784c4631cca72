//! Property tests for the live health plane, across every registered
//! algorithm.
//!
//! Two invariants on random instances:
//!
//! * **Windowed ≡ whole-run** — the [`bshm_obs::RollingWindows`] fold cut
//!   at *any* window width, its closed windows merged in order with
//!   [`Metrics::merge`](bshm_obs::Metrics::merge), equals the whole-run
//!   [`Metrics`](bshm_obs::Metrics) of the same trace on every field:
//!   counters and histograms add up, peaks max, the gauge timelines
//!   concatenate, and the carried gap gauge ends at the whole-run value.
//!   The windows *are* the run. Only the float `utilization_sum` may
//!   differ, by re-association, within 1e-9 relative.
//! * **Deterministic alerting** — running the same algorithm on the same
//!   instance twice under a [`bshm_obs::HealthProbe`] yields
//!   byte-identical alert ledgers (the SLO engine reads only event-clock
//!   and fixed-point quantities, never the wall clock).
//! * **Width-free folds** — `bshm health` and `bshm watch` start their
//!   gauges at zero types and let [`Metrics::update`](bshm_obs::Metrics::update)
//!   widen them. Folded from width 0, a trace gives the metrics of a fold
//!   at its inferred width (gauge rows equal after zero-padding), and
//!   [`bshm_obs::RollingWindows`] gives the same open machines in every
//!   window.

use bshm_algos::registry;
use bshm_cli::commands::{online_or_scripted, run_alg_traced};
use bshm_core::instance::Instance;
use bshm_core::job::Job;
use bshm_core::machine::{Catalog, MachineType};
use bshm_faults::{run_online_faulted, FaultPlan, SameType};
use bshm_obs::replay::{infer_n_types, metrics_from_events};
use bshm_obs::{Collector, GapProbe, HealthProbe, Metrics, RollingWindows, SloSpec, TraceEvent};
use proptest::prelude::*;

fn catalog() -> Catalog {
    Catalog::new(vec![MachineType::new(4, 1), MachineType::new(16, 3)]).unwrap()
}

fn arb_instance() -> impl Strategy<Value = Instance> {
    prop::collection::vec((1u64..=16, 0u64..200, 1u64..=60), 1..50).prop_map(|raw| {
        let jobs: Vec<Job> = raw
            .into_iter()
            .enumerate()
            .map(|(i, (size, arr, dur))| Job::new(i as u32, size, arr, arr + dur))
            .collect();
        Instance::new(jobs, catalog()).unwrap()
    })
}

/// Folds `events` from width 0 and at their inferred width, whole-run
/// and in rolling windows of `width`, and compares the two.
fn check_width_free(label: &str, events: &[TraceEvent], width: u64) {
    let n_types = infer_n_types(events);
    let wide = metrics_from_events(label, events, n_types);
    let mut narrow = metrics_from_events(label, events, 0);
    // Rows taken before a type first appears are shorter.
    for g in &mut narrow.gauge_timeline {
        assert!(g.busy.len() <= n_types, "{}", label);
        g.busy.resize(n_types, 0);
    }
    assert_eq!(&narrow, &wide, "{}", label);

    let open_machines = |start: usize| {
        let mut rw = RollingWindows::new(width, 4, start);
        let mut open = Vec::new();
        for e in events {
            rw.observe(e, |w| open.push(w.open_machines()));
        }
        open.extend(rw.flush().map(bshm_obs::WindowStats::open_machines));
        open
    };
    let open = open_machines(n_types);
    assert!(
        open.iter().any(|&n| n > 0),
        "{}: no window has an open machine",
        label
    );
    assert_eq!(open_machines(0), open, "{}", label);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// For every algorithm, and for one faulted run, a fold that starts
    /// at width 0 loses nothing against one that starts at the width the
    /// trace implies.
    #[test]
    fn width_zero_folds_match_the_inferred_width(
        inst in arb_instance(),
        width in 1u64..=64,
    ) {
        for alg in registry::names() {
            let mut probe = GapProbe::new(inst.catalog(), Collector::default());
            run_alg_traced(alg, &inst, &mut probe).unwrap();
            let (collector, _) = probe.into_parts();
            check_width_free(alg, &collector.events, width);
        }
        // Machine 0 exists right after the first arrival, so it crashes.
        let first = inst.jobs().iter().map(|j| j.arrival).min().unwrap();
        let plan = FaultPlan::parse(&format!("seeded:42:3,crash:{}:0", first + 1)).unwrap();
        let mut scheduler = online_or_scripted("first-fit-any", &inst).unwrap();
        let mut faulted = Collector::default();
        run_online_faulted(&inst, &mut *scheduler, &plan, &mut SameType::default(), &mut faulted)
            .unwrap();
        prop_assert!(faulted.events.iter().any(|e| matches!(e, TraceEvent::MachineCrash { .. })));
        check_width_free("first-fit-any --faults", &faulted.events, width);
    }

    /// For every algorithm and an arbitrary window width: cutting the
    /// trace into rolling windows loses nothing — merging all closed
    /// windows in order equals the whole-run metrics fold, field by field.
    #[test]
    fn windows_converge_to_whole_run_metrics_for_every_alg(
        inst in arb_instance(),
        width in 1u64..=64,
    ) {
        for alg in registry::names() {
            let mut probe = GapProbe::new(inst.catalog(), Collector::default());
            run_alg_traced(alg, &inst, &mut probe).unwrap();
            let (collector, _) = probe.into_parts();
            let whole = metrics_from_events(alg, &collector.events, 2);

            // A deliberately tiny ring: eviction must not affect the
            // convergence (the windows are merged as observe() closes them).
            let mut rw = RollingWindows::new(width, 4, 2);
            let mut merged = Metrics::new(alg, 2);
            for e in &collector.events {
                rw.observe(e, |w| merged.merge(&w.metrics));
            }
            if let Some(w) = rw.flush() {
                merged.merge(&w.metrics);
            }

            // Float addition re-associates across windows; everything
            // else is exact.
            let slack = 1e-9 * whole.utilization_sum.abs().max(1.0);
            prop_assert!(
                (merged.utilization_sum - whole.utilization_sum).abs() <= slack,
                "alg {}: utilization_sum {} vs {}",
                alg,
                merged.utilization_sum,
                whole.utilization_sum
            );
            merged.utilization_sum = whole.utilization_sum;
            prop_assert_eq!(&merged, &whole, "alg {}", alg);
        }
    }

    /// The alert ledger is a pure function of the trace: two live runs of
    /// the same (algorithm, instance, SLO) produce byte-identical alert
    /// records, even though wall-clock decision latencies differ.
    #[test]
    fn alert_ledger_is_deterministic_for_every_alg(inst in arb_instance()) {
        // A hair-trigger gap rule: any window whose gap ratio exceeds
        // 1.001× files an alert, so most runs actually alert.
        let spec = SloSpec::parse("window:16;gap:1001:1;storm:1;drops:1").unwrap();
        for alg in registry::names() {
            let run = || {
                let health = HealthProbe::new(spec.clone(), 2, Collector::default());
                let mut probe = GapProbe::new(inst.catalog(), health);
                run_alg_traced(alg, &inst, &mut probe).unwrap();
                let (health, _) = probe.into_parts();
                let (collector, report) = health.into_parts();
                (collector, report)
            };
            let (c1, r1) = run();
            let (c2, r2) = run();
            let bytes = |r: &bshm_obs::HealthReport| {
                serde_json::to_string(&r.alerts).expect("alert records serialize")
            };
            prop_assert_eq!(bytes(&r1), bytes(&r2), "alg {}", alg);
            // The alerts the report lists are the alerts in the trace.
            let in_trace = |c: &Collector| {
                c.events
                    .iter()
                    .filter(|e| matches!(e, bshm_obs::TraceEvent::Alert { .. }))
                    .count() as u64
            };
            prop_assert_eq!(in_trace(&c1), r1.alerts.len() as u64, "alg {}", alg);
            prop_assert_eq!(in_trace(&c2), in_trace(&c1), "alg {}", alg);
        }
    }
}
