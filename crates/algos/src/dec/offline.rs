//! DEC-OFFLINE (§III-A): the iterative strip algorithm, Theorem 1's
//! 14-approximation for offline BSHM-DEC (×2 for rate normalization).

use bshm_chart::placement::{place_jobs_logged, PlacementOrder};
use bshm_chart::strips::schedule_strips_logged;
use bshm_core::instance::Instance;
use bshm_core::job::Job;
use bshm_core::machine::TypeIndex;
use bshm_core::normalize::NormalizedCatalog;
use bshm_core::ops::DecisionLog;
use bshm_core::schedule::Schedule;

/// Runs DEC-OFFLINE and returns a schedule over the *original* catalog.
///
/// Iteration `i` (over the power-of-2-normalized sub-catalog):
///
/// 1. take every not-yet-scheduled job of size ≤ `g_i`,
/// 2. place them in a fresh demand chart (2-allocation),
/// 3. slice into strips of height `g_i/2`,
/// 4. schedule everything intersecting the bottom `2·(r̂_{i+1}/r̂_i − 1)`
///    strips onto type-`i` machines (one per strip, two per boundary);
///    the final iteration has no bottom limit.
///
/// Jobs not reached by the bottom strips are re-placed in the next
/// iteration's chart, exactly as in the paper.
///
/// ```
/// use bshm_algos::dec_offline;
/// use bshm_chart::placement::PlacementOrder;
/// use bshm_core::{validate_schedule, Catalog, Instance, Job, MachineType};
/// let catalog = Catalog::new(vec![
///     MachineType::new(4, 1),   // amortized 0.25
///     MachineType::new(16, 2),  // amortized 0.125 → DEC regime
/// ]).unwrap();
/// let inst = Instance::new(
///     vec![Job::new(0, 3, 0, 10), Job::new(1, 12, 5, 30)],
///     catalog,
/// ).unwrap();
/// let schedule = dec_offline(&inst, PlacementOrder::Arrival);
/// assert!(validate_schedule(&schedule, &inst).is_ok());
/// ```
#[must_use]
pub fn dec_offline(instance: &Instance, order: PlacementOrder) -> Schedule {
    dec_offline_with_depth(instance, order, 2)
}

/// [`dec_offline`] with per-job op accounting: each job's 2-allocation
/// search and strip placement are charged to its trace in `log`; a job
/// deferred past the bottom strips keeps accumulating into the *same*
/// trace on later iterations (its decision count stays 1).
#[must_use]
pub fn dec_offline_logged(
    instance: &Instance,
    order: PlacementOrder,
    log: &mut DecisionLog,
) -> Schedule {
    dec_offline_inner(instance, order, 2, log)
}

/// DEC-OFFLINE with a configurable bottom-strip depth: iteration `i` keeps
/// the bottom `depth·(r̂_{i+1}/r̂_i − 1)` strips on type-`i` machines. The
/// paper's algorithm (and [`dec_offline`]) uses `depth = 2`; the A6
/// ablation sweeps it. `depth ≥ 1`.
#[must_use]
pub fn dec_offline_with_depth(instance: &Instance, order: PlacementOrder, depth: u64) -> Schedule {
    dec_offline_inner(instance, order, depth, &mut DecisionLog::disabled())
}

fn dec_offline_inner(
    instance: &Instance,
    order: PlacementOrder,
    depth: u64,
    log: &mut DecisionLog,
) -> Schedule {
    assert!(depth >= 1, "strip depth must be at least 1");
    let norm = NormalizedCatalog::from_catalog(instance.catalog());
    let m = norm.len();
    let mut schedule = Schedule::new();
    let mut remaining: Vec<Job> = instance.jobs().to_vec();

    for i in 0..m {
        if remaining.is_empty() {
            break;
        }
        let g_i = norm.catalog().get(TypeIndex(i)).capacity;
        // 𝒥̈_i: eligible jobs (size ≤ g_i) not scheduled in prior iterations.
        let (eligible, too_big): (Vec<Job>, Vec<Job>) =
            remaining.into_iter().partition(|j| j.size <= g_i);
        remaining = too_big;
        if eligible.is_empty() {
            continue;
        }
        let placement = place_jobs_logged(&eligible, order, log);
        let bottom = if i + 1 < m {
            Some(depth * (norm.rate_ratio(TypeIndex(i)) - 1))
        } else {
            None
        };
        let leftovers = schedule_strips_logged(
            &mut schedule,
            &placement,
            g_i, // doubled-unit strip height = g_i ⇒ real height g_i/2
            bottom,
            TypeIndex(i),
            &format!("dec-off/it{i}"),
            log,
        );
        remaining.extend(leftovers);
    }
    debug_assert!(remaining.is_empty(), "final iteration schedules everything");
    norm.translate_schedule(&schedule)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bshm_core::cost::schedule_cost;
    use bshm_core::lower_bound::lower_bound;
    use bshm_core::machine::{Catalog, MachineType};
    use bshm_core::validate::validate_schedule;

    /// A DEC catalog with power-of-2 rates and doubling-plus capacities.
    fn dec_catalog() -> Catalog {
        Catalog::new(vec![
            MachineType::new(4, 1),
            MachineType::new(16, 2),
            MachineType::new(64, 4),
        ])
        .unwrap()
    }

    #[test]
    fn schedules_everything_feasibly() {
        let jobs = vec![
            Job::new(0, 2, 0, 10),
            Job::new(1, 3, 5, 20),
            Job::new(2, 10, 0, 15),
            Job::new(3, 40, 8, 30),
            Job::new(4, 1, 25, 40),
            Job::new(5, 16, 26, 50),
            Job::new(6, 4, 0, 5),
        ];
        let inst = Instance::new(jobs, dec_catalog()).unwrap();
        let s = dec_offline(&inst, PlacementOrder::Arrival);
        assert_eq!(validate_schedule(&s, &inst), Ok(()));
    }

    #[test]
    fn single_small_job_uses_cheapest_type() {
        let inst = Instance::new(vec![Job::new(0, 1, 0, 10)], dec_catalog()).unwrap();
        let s = dec_offline(&inst, PlacementOrder::Arrival);
        assert_eq!(validate_schedule(&s, &inst), Ok(()));
        let mut s2 = s.clone();
        s2.prune_empty();
        assert_eq!(s2.machine_count(), 1);
        assert_eq!(s2.machines()[0].machine_type, TypeIndex(0));
        assert_eq!(schedule_cost(&s, &inst), 10);
    }

    #[test]
    fn big_job_lands_on_big_machine() {
        let inst = Instance::new(vec![Job::new(0, 60, 0, 10)], dec_catalog()).unwrap();
        let s = dec_offline(&inst, PlacementOrder::Arrival);
        assert_eq!(validate_schedule(&s, &inst), Ok(()));
        let used: Vec<_> = s.machines().iter().filter(|m| !m.jobs.is_empty()).collect();
        assert_eq!(used.len(), 1);
        assert_eq!(used[0].machine_type, TypeIndex(2));
    }

    #[test]
    fn heavy_uniform_load_prefers_bulk_machines() {
        // 64 unit jobs over one window: bulk should end up mostly on the
        // cheap-per-unit type-2 machines, cost ≤ 28 × LB (Thm 1 + rounding).
        let jobs: Vec<Job> = (0..64).map(|i| Job::new(i, 1, 0, 100)).collect();
        let inst = Instance::new(jobs, dec_catalog()).unwrap();
        let s = dec_offline(&inst, PlacementOrder::Arrival);
        assert_eq!(validate_schedule(&s, &inst), Ok(()));
        let cost = schedule_cost(&s, &inst);
        let lb = lower_bound(&inst);
        assert!(lb > 0);
        assert!(cost <= 28 * lb, "cost {cost} > 28×LB {lb}");
    }

    #[test]
    fn respects_theorem_bound_on_random_batch() {
        // Deterministic pseudo-random batch across size classes.
        let jobs: Vec<Job> = (0..120u32)
            .map(|i| {
                let x = u64::from(i);
                let size = 1 + (x * 37 + 11) % 60;
                let arr = (x * 13) % 200;
                let dur = 5 + (x * 7) % 45;
                Job::new(i, size, arr, arr + dur)
            })
            .collect();
        let inst = Instance::new(jobs, dec_catalog()).unwrap();
        let s = dec_offline(&inst, PlacementOrder::Arrival);
        assert_eq!(validate_schedule(&s, &inst), Ok(()));
        let cost = schedule_cost(&s, &inst);
        let lb = lower_bound(&inst);
        assert!(cost <= 28 * lb, "cost {cost} > 28×LB {lb}");
    }

    #[test]
    fn depth_variants_all_feasible() {
        let jobs: Vec<Job> = (0..80u32)
            .map(|i| {
                let x = u64::from(i);
                Job::new(
                    i,
                    1 + (x * 37) % 60,
                    (x * 11) % 150,
                    (x * 11) % 150 + 10 + x % 30,
                )
            })
            .collect();
        let inst = Instance::new(jobs, dec_catalog()).unwrap();
        for depth in [1u64, 2, 4, 8] {
            let s = dec_offline_with_depth(&inst, PlacementOrder::Arrival, depth);
            assert_eq!(validate_schedule(&s, &inst), Ok(()), "depth {depth}");
        }
        // depth 2 is the default.
        assert_eq!(
            dec_offline(&inst, PlacementOrder::Arrival),
            dec_offline_with_depth(&inst, PlacementOrder::Arrival, 2)
        );
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_depth_rejected() {
        let inst = Instance::new(vec![Job::new(0, 1, 0, 10)], dec_catalog()).unwrap();
        let _ = dec_offline_with_depth(&inst, PlacementOrder::Arrival, 0);
    }

    #[test]
    fn works_on_non_power_of_two_rates() {
        // Rates 3, 5, 11 → normalized 1, 2, 4; type pruning may apply.
        let catalog = Catalog::new(vec![
            MachineType::new(4, 3),
            MachineType::new(16, 5),
            MachineType::new(64, 11),
        ])
        .unwrap();
        let jobs: Vec<Job> = (0..40u32)
            .map(|i| {
                let x = u64::from(i);
                Job::new(i, 1 + (x * 17) % 50, (x * 5) % 60, (x * 5) % 60 + 10)
            })
            .collect();
        let inst = Instance::new(jobs, catalog).unwrap();
        let s = dec_offline(&inst, PlacementOrder::Arrival);
        assert_eq!(validate_schedule(&s, &inst), Ok(()));
    }
}
