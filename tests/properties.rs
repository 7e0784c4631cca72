//! Property-based tests (proptest): structural invariants over random
//! instances, placements and catalogs.

use bshm::algos::registry;
use bshm::chart::placement::{overshoot, place_jobs, verify_two_allocation, PlacementOrder};
use bshm::core::normalize::NormalizedCatalog;
use bshm::prelude::*;
use proptest::prelude::*;

/// Random job list: sizes 1..=64, arrivals 0..200, durations 1..=60.
fn arb_jobs(max_n: usize) -> impl Strategy<Value = Vec<Job>> {
    prop::collection::vec((1u64..=64, 0u64..200, 1u64..=60), 1..max_n).prop_map(|raw| {
        raw.into_iter()
            .enumerate()
            .map(|(i, (size, arr, dur))| Job::new(i as u32, size, arr, arr + dur))
            .collect()
    })
}

/// Random valid catalog covering sizes up to 64: strictly increasing
/// capacities and rates, with the top capacity forced to 64+.
fn arb_catalog() -> impl Strategy<Value = Catalog> {
    (1usize..=4, 1u64..=6, 1u64..=5).prop_map(|(m, gstep, rstep)| {
        let mut types = Vec::new();
        let mut g = 2u64;
        let mut r = 1u64;
        for _ in 0..m {
            types.push(MachineType::new(g, r));
            g = g * (1 + gstep) + 1;
            r = r * (1 + rstep) + 1;
        }
        // Ensure the top type fits every size we generate.
        if types.last().unwrap().capacity < 64 {
            let last = *types.last().unwrap();
            types.push(MachineType::new(64 + last.capacity, last.rate * 2 + 1));
        }
        Catalog::new(types).expect("constructed increasing")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn placement_never_triple_overlaps(jobs in arb_jobs(60)) {
        for order in [PlacementOrder::Arrival, PlacementOrder::SizeDescending] {
            let p = place_jobs(&jobs, order);
            prop_assert_eq!(p.len(), jobs.len());
            prop_assert!(verify_two_allocation(&p).is_none());
        }
    }

    #[test]
    fn placement_overshoot_is_bounded_by_peak(jobs in arb_jobs(60)) {
        // The greedy placement may exceed the demand curve, but never by
        // more than the peak demand itself (it could not have been blocked
        // otherwise).
        let p = place_jobs(&jobs, PlacementOrder::Arrival);
        let peak2 = 2 * bshm::core::sweep::load_profile(&jobs).max();
        prop_assert!(overshoot(&p) <= peak2);
    }

    #[test]
    fn every_scheduler_feasible_and_above_lb(
        jobs in arb_jobs(40),
        catalog in arb_catalog(),
    ) {
        let instance = Instance::new(jobs, catalog).expect("valid");
        let lb = lower_bound(&instance);
        for name in registry::names() {
            let s = registry::run_traced(name, &instance, &mut NoProbe).unwrap();
            prop_assert!(validate_schedule(&s, &instance).is_ok(), "{} infeasible", name);
            prop_assert!(schedule_cost(&s, &instance) >= lb, "{} beat the LB", name);
        }
    }

    #[test]
    fn normalization_postconditions(catalog in arb_catalog()) {
        let norm = NormalizedCatalog::from_catalog(&catalog);
        // Rounded rates are strictly increasing powers of two.
        let rates = norm.rates_pow2();
        prop_assert_eq!(rates[0], 1);
        for w in rates.windows(2) {
            prop_assert!(w[1] > w[0]);
            prop_assert!(w[1] % w[0] == 0);
        }
        for &r in rates {
            prop_assert!(r.is_power_of_two());
        }
        // The top type always survives (so every job still fits).
        prop_assert_eq!(
            norm.catalog().max_capacity(),
            catalog.max_capacity()
        );
        // Original rates of survivors are within 2× of base×rounded.
        let base = u128::from(catalog.types()[0].rate);
        for (i, t) in norm.catalog().types().iter().enumerate() {
            let rounded = u128::from(rates[i]);
            prop_assert!(rounded * base >= u128::from(t.rate));
        }
    }

    #[test]
    fn lower_bound_monotone_under_job_removal(jobs in arb_jobs(30)) {
        // Removing a job can only lower (or keep) the bound.
        prop_assume!(jobs.len() >= 2);
        let catalog = Catalog::new(vec![
            MachineType::new(8, 1),
            MachineType::new(64, 3),
        ]).unwrap();
        let full = Instance::new(jobs.clone(), catalog.clone()).unwrap();
        let mut fewer = jobs;
        fewer.pop();
        let sub = Instance::new(fewer, catalog).unwrap();
        prop_assert!(lower_bound(&sub) <= lower_bound(&full));
    }

    #[test]
    fn cost_accounting_consistency(jobs in arb_jobs(40), catalog in arb_catalog()) {
        // Total cost equals the sum of the per-type breakdown.
        let instance = Instance::new(jobs, catalog).expect("valid");
        let s = inc_offline(&instance, PlacementOrder::Arrival);
        let total = schedule_cost(&s, &instance);
        let by_type: u128 = bshm::core::cost::cost_by_type(&s, &instance)
            .iter()
            .map(|(_, c)| c)
            .sum();
        prop_assert_eq!(total, by_type);
    }

    #[test]
    fn interval_set_union_length_bounds(
        spans in prop::collection::vec((0u64..1000, 1u64..100), 1..20)
    ) {
        let intervals: Vec<Interval> =
            spans.iter().map(|&(a, len)| Interval::new(a, a + len)).collect();
        let set: IntervalSet = intervals.iter().copied().collect();
        let sum: u64 = intervals.iter().map(Interval::len).sum();
        let hull = intervals.iter().copied().reduce(|a, b| a.hull(&b)).unwrap();
        // Union length ≤ sum of lengths, and ≤ hull length; covers each input.
        prop_assert!(set.total_len() <= sum);
        prop_assert!(set.total_len() <= hull.len());
        for iv in &intervals {
            prop_assert!(set.contains_interval(iv));
        }
    }
}
