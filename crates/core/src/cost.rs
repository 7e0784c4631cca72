//! Busy-time cost accounting.
//!
//! A machine of type `i` is charged `r_i` per tick while busy (hosting at
//! least one active job). The cost of a machine instance is therefore
//! `r_i · len(⋃_{J assigned} I(J))`, and the schedule cost is the sum over
//! machine instances. Costs are exact `u128` integers (rate × ticks).

// A dropped Schedule or cost result hides accounting bugs: every public
// fn that returns a plain value is `#[must_use]`.
#![deny(clippy::must_use_candidate)]

use crate::instance::Instance;
use crate::job::{Job, JobId};
use crate::schedule::{MachineSchedule, Schedule};
use crate::time::IntervalSet;
use std::collections::HashMap;

/// An exact accumulated cost (rate × ticks summed over machines).
pub type Cost = u128;

/// Index from job id to job, for schedules that reference instance jobs.
#[must_use]
pub fn job_index(instance: &Instance) -> HashMap<JobId, Job> {
    instance.jobs().iter().map(|j| (j.id, *j)).collect()
}

/// The busy set of one machine: the union of its jobs' active intervals.
#[must_use]
#[expect(
    clippy::expect_used,
    reason = "documented contract — run validate_schedule before costing"
)]
pub fn machine_busy_set(machine: &MachineSchedule, jobs: &HashMap<JobId, Job>) -> IntervalSet {
    machine
        .jobs
        .iter()
        .map(|id| jobs.get(id).expect("assigned job exists").interval())
        .collect()
}

/// Busy time (ticks) of one machine.
#[must_use]
pub fn machine_busy_time(machine: &MachineSchedule, jobs: &HashMap<JobId, Job>) -> u64 {
    machine_busy_set(machine, jobs).total_len()
}

/// Total accumulated cost of a schedule against an instance's catalog and
/// job intervals.
///
/// Panics if the schedule references a job id that is not in the instance
/// (run [`crate::validate::validate_schedule`] first for a proper error).
#[must_use]
pub fn schedule_cost(schedule: &Schedule, instance: &Instance) -> Cost {
    let jobs = job_index(instance);
    schedule
        .machines()
        .iter()
        .map(|m| {
            let rate = instance.catalog().get(m.machine_type).rate;
            u128::from(machine_busy_time(m, &jobs)) * u128::from(rate)
        })
        .sum()
}

/// Per-type breakdown of a schedule's cost: `(busy ticks, cost)` per
/// catalog type. Useful for the evaluation harness.
#[must_use]
pub fn cost_by_type(schedule: &Schedule, instance: &Instance) -> Vec<(u64, Cost)> {
    let jobs = job_index(instance);
    let mut out = vec![(0u64, 0u128); instance.catalog().len()];
    for m in schedule.machines() {
        let busy = machine_busy_time(m, &jobs);
        let rate = instance.catalog().get(m.machine_type).rate;
        let slot = &mut out[m.machine_type.0];
        slot.0 += busy;
        slot.1 += u128::from(busy) * u128::from(rate);
    }
    out
}

/// The trivially safe upper bound: every job on its own machine of its size
/// class. Every algorithm should beat or match this on non-degenerate
/// inputs; it also serves as a sanity ceiling in tests.
#[must_use]
pub fn one_machine_per_job_cost(instance: &Instance) -> Cost {
    instance
        .jobs()
        .iter()
        .map(|j| {
            #[expect(clippy::expect_used, reason = "Instance::new rejects oversize jobs")]
            let class = instance
                .catalog()
                .size_class(j.size)
                .expect("instance validated");
            let rate = instance.catalog().get(class).rate;
            u128::from(j.duration()) * u128::from(rate)
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::Job;
    use crate::machine::{Catalog, MachineType, TypeIndex};

    fn setup() -> (Instance, Schedule) {
        let catalog = Catalog::new(vec![MachineType::new(4, 1), MachineType::new(16, 3)]).unwrap();
        let jobs = vec![
            Job::new(0, 2, 0, 10),
            Job::new(1, 2, 5, 20),
            Job::new(2, 10, 30, 40),
        ];
        let instance = Instance::new(jobs, catalog).unwrap();
        let mut s = Schedule::new();
        let m0 = s.add_machine(TypeIndex(0), "small");
        s.assign(m0, JobId(0));
        s.assign(m0, JobId(1));
        let m1 = s.add_machine(TypeIndex(1), "big");
        s.assign(m1, JobId(2));
        (instance, s)
    }

    #[test]
    fn busy_time_is_union_not_sum() {
        let (inst, s) = setup();
        let jobs = job_index(&inst);
        // Jobs [0,10) and [5,20) overlap → busy time 20, not 25.
        assert_eq!(machine_busy_time(&s.machines()[0], &jobs), 20);
        assert_eq!(machine_busy_time(&s.machines()[1], &jobs), 10);
    }

    #[test]
    fn schedule_cost_sums_rate_weighted_busy_time() {
        let (inst, s) = setup();
        // 20·1 + 10·3 = 50.
        assert_eq!(schedule_cost(&s, &inst), 50);
    }

    #[test]
    fn cost_by_type_breakdown() {
        let (inst, s) = setup();
        assert_eq!(cost_by_type(&s, &inst), vec![(20, 20), (10, 30)]);
    }

    #[test]
    fn idle_gaps_cost_nothing() {
        let catalog = Catalog::new(vec![MachineType::new(4, 2)]).unwrap();
        let jobs = vec![Job::new(0, 1, 0, 5), Job::new(1, 1, 100, 105)];
        let inst = Instance::new(jobs, catalog).unwrap();
        let mut s = Schedule::new();
        let m = s.add_machine(TypeIndex(0), "gap");
        s.assign(m, JobId(0));
        s.assign(m, JobId(1));
        // Two busy spans of 5 ticks each at rate 2: cost 20, not 210.
        assert_eq!(schedule_cost(&s, &inst), 20);
    }

    #[test]
    fn one_machine_per_job_bound() {
        let (inst, s) = setup();
        // 10·1 + 15·1 + 10·3 = 55 ≥ actual 50.
        assert_eq!(one_machine_per_job_cost(&inst), 55);
        assert!(schedule_cost(&s, &inst) <= one_machine_per_job_cost(&inst));
    }

    #[test]
    fn empty_machines_are_free() {
        let (inst, mut s) = setup();
        let before = schedule_cost(&s, &inst);
        let _ = s.add_machine(TypeIndex(1), "never-used");
        assert_eq!(schedule_cost(&s, &inst), before);
    }
}
