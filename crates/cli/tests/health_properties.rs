//! Property tests for the live health plane, across every registered
//! algorithm.
//!
//! Two invariants on random instances:
//!
//! * **Windowed ≡ whole-run** — the [`bshm_obs::RollingWindows`] fold cut
//!   at *any* window width sums (via [`bshm_obs::sum_windows`]) to exactly
//!   the whole-run [`Metrics`](bshm_obs::Metrics) of the same trace:
//!   counters add up, the log₂ latency histograms merge bucket-by-bucket,
//!   and the carried gap gauges end at the whole-run values. The windows
//!   *are* the run — integer equality, no estimation slack.
//! * **Deterministic alerting** — running the same algorithm on the same
//!   instance twice under a [`bshm_obs::HealthProbe`] yields
//!   byte-identical alert ledgers (the SLO engine reads only event-clock
//!   and fixed-point quantities, never the wall clock).

use bshm_algos::registry;
use bshm_cli::commands::run_alg_traced;
use bshm_core::instance::Instance;
use bshm_core::job::Job;
use bshm_core::machine::{Catalog, MachineType};
use bshm_obs::replay::metrics_from_events;
use bshm_obs::{sum_windows, Collector, GapProbe, HealthProbe, RollingWindows, SloSpec};
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// For every algorithm and an arbitrary window width: cutting the
    /// trace into rolling windows loses nothing — the sum of all closed
    /// windows equals the whole-run metrics fold, field by field.
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
            // convergence (we collect closed windows from observe()).
            let mut rw = RollingWindows::new(width, 4, 2);
            let mut closed = Vec::new();
            for e in &collector.events {
                closed.extend(rw.observe(e));
            }
            closed.extend(rw.flush());
            let sum = sum_windows(&closed);

            prop_assert_eq!(sum.arrivals, whole.arrivals, "alg {}", alg);
            prop_assert_eq!(sum.departures, whole.departures, "alg {}", alg);
            prop_assert_eq!(sum.placements, whole.placements, "alg {}", alg);
            prop_assert_eq!(sum.opened_placements, whole.opened_placements, "alg {}", alg);
            prop_assert_eq!(sum.opens, whole.opens, "alg {}", alg);
            prop_assert_eq!(sum.closes, whole.closes, "alg {}", alg);
            prop_assert_eq!(sum.crashes, whole.crashes, "alg {}", alg);
            prop_assert_eq!(sum.displaced_jobs, whole.displaced_jobs, "alg {}", alg);
            prop_assert_eq!(sum.recovered_jobs, whole.recovered_jobs, "alg {}", alg);
            prop_assert_eq!(sum.dropped_jobs, whole.dropped_jobs, "alg {}", alg);
            prop_assert_eq!(sum.traced_cost, whole.traced_cost, "alg {}", alg);
            prop_assert_eq!(sum.gap_samples, whole.gap_samples, "alg {}", alg);
            prop_assert_eq!(&sum.decision_ns_hist, &whole.decision_ns_hist, "alg {}", alg);
            prop_assert_eq!(sum.decision_ns_sum, whole.decision_ns_sum, "alg {}", alg);
            prop_assert_eq!(sum.last_lower_bound, whole.last_lower_bound, "alg {}", alg);
            prop_assert_eq!(sum.last_attributed_cost, whole.last_attributed_cost, "alg {}", alg);
            prop_assert_eq!(sum.alerts, whole.alerts, "alg {}", alg);

            // The fold's own parallel whole-run totals agree too.
            let totals = rw.totals();
            prop_assert_eq!(totals.arrivals, whole.arrivals, "alg {}", alg);
            prop_assert_eq!(totals.traced_cost, whole.traced_cost, "alg {}", alg);
            prop_assert_eq!(totals.placements, whole.placements, "alg {}", alg);
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
