//! Property tests: every registered algorithm's trace — live for the
//! online family, post-hoc synthesized for the offline family — survives
//! a JSONL serialize → parse → replay round trip and cross-checks against
//! the schedule-derived machine timeline.

use bshm_algos::registry;
use bshm_cli::commands::run_alg_traced;
use bshm_core::analysis::machine_timeline;
use bshm_core::instance::Instance;
use bshm_core::job::Job;
use bshm_core::machine::{Catalog, MachineType};
use bshm_core::schedule_cost;
use bshm_obs::{replay, Collector, TraceEvent};
use proptest::prelude::*;

fn arb_instance() -> impl Strategy<Value = Instance> {
    // Small instances keep 12 algorithms × many cases affordable; three
    // capacity tiers exercise the per-class paths of the dec/inc solvers.
    prop::collection::vec((1u64..=24, 0u64..120, 1u64..=40), 1..30).prop_map(|raw| {
        let jobs: Vec<Job> = raw
            .into_iter()
            .enumerate()
            .map(|(i, (size, arr, dur))| Job::new(i as u32, size, arr, arr + dur))
            .collect();
        let catalog = Catalog::new(vec![
            MachineType::new(4, 1),
            MachineType::new(8, 2),
            MachineType::new(32, 5),
        ])
        .unwrap();
        Instance::new(jobs, catalog).unwrap()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn every_algorithm_trace_round_trips_through_jsonl(inst in arb_instance()) {
        for alg in registry::names() {
            let mut collector = Collector::default();
            let schedule = run_alg_traced(alg, &inst, &mut collector).unwrap();
            prop_assert!(!collector.events.is_empty(), "alg {}: empty trace", alg);

            // JSONL round trip loses nothing.
            let jsonl: String = collector
                .events
                .iter()
                .map(|e| serde_json::to_string(e).unwrap() + "\n")
                .collect();
            let parsed = replay::parse_jsonl(&jsonl).unwrap();
            prop_assert_eq!(&parsed, &collector.events, "alg {} diverges after parse", alg);

            // The parsed stream replays to the schedule's exact timeline.
            // (Inference only sees types the run actually opened, so it
            // lower-bounds the catalog size.)
            let n_types = inst.catalog().len();
            prop_assert!(replay::infer_n_types(&parsed) <= n_types, "alg {}", alg);
            let replayed = replay::replay_timeline(&parsed, n_types);
            let reference = machine_timeline(&schedule, &inst);
            if let Err(e) = replay::cross_check(&replayed, &reference) {
                prop_assert!(false, "alg {}: {}", alg, e);
            }

            // Folded metrics agree with the trace and the schedule.
            let metrics = replay::metrics_from_events(alg, &parsed, n_types);
            prop_assert_eq!(metrics.arrivals as usize, inst.job_count(), "alg {}", alg);
            prop_assert_eq!(metrics.placements, metrics.arrivals, "alg {}", alg);
            prop_assert_eq!(
                u128::from(metrics.traced_cost),
                schedule_cost(&schedule, &inst),
                "alg {}: traced cost diverges",
                alg
            );
            let accrued: u64 = parsed
                .iter()
                .filter_map(|e| match *e {
                    TraceEvent::CostAccrual { busy, rate, .. } => Some(busy * rate),
                    _ => None,
                })
                .sum();
            prop_assert_eq!(accrued, metrics.traced_cost, "alg {}", alg);
        }
    }
}
