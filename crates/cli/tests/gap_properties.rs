//! Property tests for the gap observatory, across every registered
//! algorithm.
//!
//! Two exact-integer invariants are checked on random instances:
//!
//! * **Attribution exactness** — the [`bshm_obs::CostLedger`] charges
//!   every unit of busy-time cost to some job, and the charges sum
//!   *exactly* (integer equality, no rounding slack) to the schedule's
//!   true cost.
//! * **Incremental ≡ full sweep** — the event-by-event
//!   [`bshm_core::IncrementalLowerBound`] agrees with the full-sweep
//!   [`bshm_core::lower_bound`] of the observed prefix after *every*
//!   arrival/departure, and with the whole-instance bound at the horizon.

use bshm_algos::registry;
use bshm_cli::commands::run_alg_traced;
use bshm_core::instance::Instance;
use bshm_core::job::Job;
use bshm_core::lower_bound::lower_bound;
use bshm_core::machine::{Catalog, MachineType};
use bshm_core::schedule_cost;
use bshm_core::IncrementalLowerBound;
use bshm_obs::{CostLedger, GapProbe, NoProbe, TraceEvent};
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
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// For every algorithm: the ledger's per-job charges sum exactly to
    /// the schedule's true cost, and the live gap gauges close at that
    /// same cost over the full-sweep lower bound.
    #[test]
    fn attribution_sums_exactly_to_total_cost_for_every_alg(inst in arb_instance()) {
        let lb = lower_bound(&inst);
        for alg in registry::names() {
            let mut probe = GapProbe::new(inst.catalog(), bshm_obs::Collector::default());
            let schedule = run_alg_traced(alg, &inst, &mut probe).unwrap();
            prop_assert!(probe.error().is_none(), "alg {}: {:?}", alg, probe.error());
            let true_cost = schedule_cost(&schedule, &inst);
            let (collector, timeline) = probe.into_parts();

            // Exact integer attribution: attributed == total == schedule cost.
            let ledger = CostLedger::from_events(&collector.events);
            prop_assert_eq!(ledger.unattributed(), 0, "alg {}", alg);
            prop_assert_eq!(ledger.total(), true_cost, "alg {}", alg);
            prop_assert_eq!(ledger.attributed_sum(), ledger.total(), "alg {}", alg);

            // The final gap gauge reads the same cost and the full-sweep LB.
            let last = timeline.final_point().copied().unwrap();
            prop_assert_eq!(u128::from(last.cost), true_cost, "alg {}", alg);
            prop_assert_eq!(u128::from(last.lower_bound), lb, "alg {}", alg);
            // Every sample's gauges agree with the flat Metrics fold.
            let metrics = bshm_obs::replay::metrics_from_events(alg, &collector.events, 2);
            prop_assert_eq!(metrics.gap_samples as usize, timeline.points.len());
            prop_assert_eq!(metrics.last_attributed_cost, last.cost);
            prop_assert_eq!(metrics.last_lower_bound, last.lower_bound);
        }
    }

    /// The incremental lower bound equals the full-sweep bound of the
    /// observed prefix after every single event.
    #[test]
    fn incremental_lb_equals_full_sweep_after_every_event(inst in arb_instance()) {
        // Drive arrivals/departures in the canonical driver order
        // (departure-side first at equal times).
        let mut events: Vec<(u64, bool, u64)> = Vec::new();
        for j in inst.jobs() {
            events.push((j.arrival, true, j.size));
            events.push((j.departure, false, j.size));
        }
        events.sort_by_key(|&(t, is_arrival, size)| (t, is_arrival, size));
        let mut ilb = IncrementalLowerBound::new(inst.catalog());
        for (t, is_arrival, size) in events {
            if is_arrival {
                ilb.arrive(t, size).unwrap();
            } else {
                ilb.depart(t, size).unwrap();
            }
            // `verify_against_full_sweep` clips the true jobs to the
            // prefix [0, now) itself, so the instance's jobs are the
            // ground truth at every step.
            let check = ilb.verify_against_full_sweep(inst.jobs());
            prop_assert!(check.is_ok(), "after t={}: {:?}", t, check);
        }
        prop_assert_eq!(ilb.accumulated(), lower_bound(&inst));
    }

    /// Recomputing the gap timeline from a recorded (gap-free) trace is
    /// identical to the gauges a live probe would have emitted.
    #[test]
    fn computed_timeline_matches_live_for_every_alg(inst in arb_instance()) {
        for alg in registry::names() {
            let mut plain = bshm_obs::Collector::default();
            run_alg_traced(alg, &inst, &mut plain).unwrap();
            prop_assert!(plain.events.iter().all(|e| !matches!(e, TraceEvent::GapSample { .. })));
            let computed = bshm_obs::compute_gap_timeline(&plain.events, inst.catalog());

            let mut live = GapProbe::new(inst.catalog(), NoProbe);
            run_alg_traced(alg, &inst, &mut live).unwrap();
            prop_assert_eq!(computed.points, live.into_timeline().points, "alg {}", alg);
        }
    }
}
