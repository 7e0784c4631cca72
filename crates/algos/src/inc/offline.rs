//! INC-OFFLINE (§IV): size-class partitioning + per-class Dual Coloring,
//! a 9-approximation for offline BSHM-INC.

use crate::dbp::dual_coloring_logged;
use bshm_chart::placement::PlacementOrder;
use bshm_core::instance::Instance;
use bshm_core::job::Job;
use bshm_core::machine::TypeIndex;
use bshm_core::ops::{DecisionLog, OpProbe};
use bshm_core::schedule::Schedule;

/// Partitions the instance's jobs into size classes
/// `𝒥_i = {J : s(J) ∈ (g_{i-1}, g_i]}` and schedules each class separately
/// on its own type with the Dual Coloring algorithm. Lemma 4 shows the
/// partition loses at most 9/4 against the optimal configuration at any
/// time; Dual Coloring's 4×⌈load/g⌉ machine bound then yields the
/// 9-approximation.
#[must_use]
pub fn inc_offline(instance: &Instance, order: PlacementOrder) -> Schedule {
    inc_offline_logged(instance, order, &mut DecisionLog::disabled())
}

/// [`inc_offline`] with per-job op accounting (class lookup = one
/// comparison; the per-class Dual Coloring then charges placement and
/// strip work to each job's trace).
#[must_use]
pub fn inc_offline_logged(
    instance: &Instance,
    order: PlacementOrder,
    log: &mut DecisionLog,
) -> Schedule {
    let catalog = instance.catalog();
    let mut classes: Vec<Vec<Job>> = vec![Vec::new(); catalog.len()];
    for job in instance.jobs() {
        log.begin(job.id);
        log.compared(1);
        #[expect(
            clippy::expect_used,
            reason = "instances are validated on construction — every job fits the top type"
        )]
        let class = catalog.size_class(job.size).expect("instance validated");
        classes[class.0].push(*job);
    }
    let mut schedule = Schedule::new();
    for (i, jobs) in classes.iter().enumerate() {
        dual_coloring_logged(
            &mut schedule,
            jobs,
            TypeIndex(i),
            catalog.get(TypeIndex(i)).capacity,
            order,
            &format!("inc-off/class{i}"),
            log,
        );
    }
    schedule
}

/// Size-class partitioning + per-class First-Fit-Decreasing by duration
/// (the Flammini-style heuristic of ref \[7\], lifted to heterogeneous
/// machines the same way INC-OFFLINE lifts Dual Coloring). No BSHM-wide
/// guarantee is claimed; it serves as a strong offline comparator in the
/// F5/T4 experiments.
#[must_use]
pub fn partitioned_ffd(instance: &Instance) -> Schedule {
    partitioned_ffd_logged(instance, &mut DecisionLog::disabled())
}

/// [`partitioned_ffd`] with per-job op accounting (see
/// [`crate::dbp::offline_first_fit_logged`] for the fit-scan rules).
#[must_use]
pub fn partitioned_ffd_logged(instance: &Instance, log: &mut DecisionLog) -> Schedule {
    let catalog = instance.catalog();
    let mut classes: Vec<Vec<Job>> = vec![Vec::new(); catalog.len()];
    for job in instance.jobs() {
        log.begin(job.id);
        log.compared(1);
        #[expect(
            clippy::expect_used,
            reason = "instances are validated on construction — every job fits the top type"
        )]
        let class = catalog.size_class(job.size).expect("instance validated");
        classes[class.0].push(*job);
    }
    let mut schedule = Schedule::new();
    for (i, jobs) in classes.iter().enumerate() {
        if jobs.is_empty() {
            continue;
        }
        crate::dbp::first_fit_decreasing_duration_logged(
            &mut schedule,
            jobs,
            TypeIndex(i),
            catalog.get(TypeIndex(i)).capacity,
            &format!("ffd/class{i}"),
            log,
        );
    }
    schedule
}

#[cfg(test)]
mod tests {
    use super::*;
    use bshm_core::cost::schedule_cost;
    use bshm_core::lower_bound::lower_bound;
    use bshm_core::machine::{Catalog, MachineType};
    use bshm_core::validate::validate_schedule;

    /// An INC catalog: amortized rate grows with capacity.
    fn inc_catalog() -> Catalog {
        Catalog::new(vec![
            MachineType::new(4, 1),
            MachineType::new(16, 8),
            MachineType::new(64, 64),
        ])
        .unwrap()
    }

    #[test]
    fn partitions_by_size_class() {
        let jobs = vec![
            Job::new(0, 2, 0, 10),  // class 0
            Job::new(1, 10, 0, 10), // class 1
            Job::new(2, 50, 0, 10), // class 2
        ];
        let inst = Instance::new(jobs, inc_catalog()).unwrap();
        let s = inc_offline(&inst, PlacementOrder::Arrival);
        assert_eq!(validate_schedule(&s, &inst), Ok(()));
        let mut types: Vec<usize> = s
            .machines()
            .iter()
            .filter(|m| !m.jobs.is_empty())
            .map(|m| m.machine_type.0)
            .collect();
        types.sort_unstable();
        assert_eq!(types, vec![0, 1, 2]);
    }

    #[test]
    fn never_upgrades_small_jobs() {
        // Unlike DEC, small jobs stay on small machines even under load.
        let jobs: Vec<Job> = (0..30).map(|i| Job::new(i, 2, 0, 10)).collect();
        let inst = Instance::new(jobs, inc_catalog()).unwrap();
        let s = inc_offline(&inst, PlacementOrder::Arrival);
        assert_eq!(validate_schedule(&s, &inst), Ok(()));
        assert!(s
            .machines()
            .iter()
            .filter(|m| !m.jobs.is_empty())
            .all(|m| m.machine_type == TypeIndex(0)));
    }

    #[test]
    fn within_9x_lower_bound_times_rounding() {
        let jobs: Vec<Job> = (0..150u32)
            .map(|i| {
                let x = u64::from(i);
                let size = 1 + (x * 29 + 3) % 64;
                let arr = (x * 17) % 400;
                Job::new(i, size, arr, arr + 8 + (x * 5) % 30)
            })
            .collect();
        let inst = Instance::new(jobs, inc_catalog()).unwrap();
        let s = inc_offline(&inst, PlacementOrder::Arrival);
        assert_eq!(validate_schedule(&s, &inst), Ok(()));
        let cost = schedule_cost(&s, &inst);
        let lb = lower_bound(&inst);
        assert!(cost <= 9 * lb, "cost {cost} > 9×LB {lb}");
    }

    #[test]
    fn single_job_costs_its_class_rate() {
        let inst = Instance::new(vec![Job::new(0, 10, 5, 25)], inc_catalog()).unwrap();
        let s = inc_offline(&inst, PlacementOrder::Arrival);
        assert_eq!(schedule_cost(&s, &inst), 20 * 8);
    }
}
