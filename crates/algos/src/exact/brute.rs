//! Branch-and-bound exact solver.
//!
//! Finds a provably optimal BSHM schedule by enumerating job→machine
//! assignments in arrival order, with three standard reductions:
//!
//! * machines are only ever *opened*, one fresh machine per type per
//!   branch point (empty machines of the same type are interchangeable);
//! * partial cost is exact and monotone (busy time only grows), so any
//!   partial solution at least as expensive as the incumbent is cut;
//! * the incumbent starts at the one-machine-per-job schedule.
//!
//! Exponential in general — intended for ground-truth ratios on instances
//! of ≤ ~12 jobs (experiment T3). A node budget caps runaway searches.

use bshm_core::cost::Cost;
use bshm_core::instance::Instance;
use bshm_core::job::Job;
use bshm_core::machine::TypeIndex;
use bshm_core::schedule::Schedule;

/// Result of an exact search.
#[derive(Clone, Debug)]
pub struct ExactResult {
    /// The optimal cost.
    pub cost: Cost,
    /// An optimal schedule.
    pub schedule: Schedule,
    /// Search nodes visited.
    pub nodes: u64,
}

struct BbMachine {
    type_idx: usize,
    capacity: u64,
    rate: u64,
    /// Indices into the job array, in arrival order.
    jobs: Vec<usize>,
    busy_end: u64,
    busy: u64,
}

struct Search<'a> {
    jobs: &'a [Job],
    types: Vec<(u64, u64)>, // (capacity, rate)
    machines: Vec<BbMachine>,
    cost: Cost,
    best_cost: Cost,
    best_assignment: Vec<(usize, Vec<usize>)>, // (type, job indices)
    nodes: u64,
    budget: u64,
    exhausted: bool,
}

impl Search<'_> {
    /// Max load on machine `mi` during `job`'s interval if it were added.
    fn fits(&self, mi: usize, job: &Job) -> bool {
        let m = &self.machines[mi];
        if job.size > m.capacity {
            return false;
        }
        // Load profile restricted to I(J): events of overlapping jobs.
        let mut events: Vec<(u64, i128)> = Vec::new();
        for &ji in &m.jobs {
            let other = &self.jobs[ji];
            if other.interval().overlaps(&job.interval()) {
                events.push((other.arrival.max(job.arrival), i128::from(other.size)));
                events.push((other.departure.min(job.departure), -i128::from(other.size)));
            }
        }
        events.sort_unstable_by_key(|&(t, d)| (t, d));
        let mut load: i128 = 0;
        let free = i128::from(m.capacity - job.size);
        for (_, d) in events {
            load += d;
            if load > free {
                return false;
            }
        }
        true
    }

    /// Assigns `job` (index `ji`) to machine `mi`; returns undo info
    /// `(prev_busy_end, prev_busy, cost_delta)`.
    fn assign(&mut self, mi: usize, ji: usize) -> (u64, u64, Cost) {
        let job = &self.jobs[ji];
        let m = &mut self.machines[mi];
        let prev_end = m.busy_end;
        let prev_busy = m.busy;
        // Jobs arrive in non-decreasing order, so the union of intervals
        // grows only on the right.
        let added = job.departure.saturating_sub(m.busy_end.max(job.arrival));
        m.busy += added;
        m.busy_end = m.busy_end.max(job.departure);
        m.jobs.push(ji);
        let delta = u128::from(added) * u128::from(m.rate);
        self.cost += delta;
        (prev_end, prev_busy, delta)
    }

    fn undo(&mut self, mi: usize, undo: (u64, u64, Cost)) {
        let m = &mut self.machines[mi];
        m.jobs.pop();
        m.busy_end = undo.0;
        m.busy = undo.1;
        self.cost -= undo.2;
    }

    fn rec(&mut self, ji: usize) {
        self.nodes += 1;
        if self.nodes > self.budget {
            self.exhausted = true;
            return;
        }
        if self.cost >= self.best_cost {
            return;
        }
        if ji == self.jobs.len() {
            self.best_cost = self.cost;
            self.best_assignment = self
                .machines
                .iter()
                .filter(|m| !m.jobs.is_empty())
                .map(|m| (m.type_idx, m.jobs.clone()))
                .collect();
            return;
        }
        let job = self.jobs[ji];
        // Existing machines.
        for mi in 0..self.machines.len() {
            if self.exhausted {
                return;
            }
            // Empty machines are handled by the "open new" branches below;
            // skipping them here avoids symmetric duplicates.
            if self.machines[mi].jobs.is_empty() {
                continue;
            }
            if self.fits(mi, &job) {
                let undo = self.assign(mi, ji);
                self.rec(ji + 1);
                self.undo(mi, undo);
            }
        }
        // One fresh machine per sufficient type.
        for t in 0..self.types.len() {
            if self.exhausted {
                return;
            }
            let (capacity, rate) = self.types[t];
            if capacity < job.size {
                continue;
            }
            self.machines.push(BbMachine {
                type_idx: t,
                capacity,
                rate,
                jobs: Vec::new(),
                busy_end: 0,
                busy: 0,
            });
            let mi = self.machines.len() - 1;
            let undo = self.assign(mi, ji);
            self.rec(ji + 1);
            self.undo(mi, undo);
            self.machines.pop();
        }
    }
}

/// Computes an optimal schedule, or `None` when the node budget
/// (default 20 million) is exhausted before the search completes.
#[must_use]
pub fn exact_optimal(instance: &Instance, budget: Option<u64>) -> Option<ExactResult> {
    let jobs = instance.jobs();
    let types: Vec<(u64, u64)> = instance
        .catalog()
        .types()
        .iter()
        .map(|t| (t.capacity, t.rate))
        .collect();
    // Incumbent: one machine per job.
    let init_cost = bshm_core::cost::one_machine_per_job_cost(instance);
    #[expect(
        clippy::expect_used,
        reason = "instances are validated on construction — every job fits the top type"
    )]
    let init_assignment: Vec<(usize, Vec<usize>)> = jobs
        .iter()
        .enumerate()
        .map(|(i, j)| {
            (
                instance.catalog().size_class(j.size).expect("validated").0,
                vec![i],
            )
        })
        .collect();
    let mut search = Search {
        jobs,
        types,
        machines: Vec::new(),
        cost: 0,
        best_cost: init_cost + 1, // allow matching the incumbent exactly
        best_assignment: init_assignment,
        nodes: 0,
        budget: budget.unwrap_or(20_000_000),
        exhausted: false,
    };
    search.rec(0);
    if search.exhausted {
        return None;
    }
    let mut schedule = Schedule::new();
    for (t, job_idxs) in &search.best_assignment {
        let mid = schedule.add_machine(TypeIndex(*t), "exact");
        for &ji in job_idxs {
            schedule.assign(mid, jobs[ji].id);
        }
    }
    Some(ExactResult {
        cost: search.best_cost.min(init_cost),
        schedule,
        nodes: search.nodes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bshm_core::cost::schedule_cost;
    use bshm_core::lower_bound::lower_bound;
    use bshm_core::machine::{Catalog, MachineType};
    use bshm_core::validate::validate_schedule;

    fn catalog() -> Catalog {
        Catalog::new(vec![MachineType::new(4, 2), MachineType::new(10, 3)]).unwrap()
    }

    #[test]
    fn single_job() {
        let inst = Instance::new(vec![Job::new(0, 2, 0, 10)], catalog()).unwrap();
        let r = exact_optimal(&inst, None).unwrap();
        assert_eq!(r.cost, 20);
        assert_eq!(validate_schedule(&r.schedule, &inst), Ok(()));
    }

    #[test]
    fn prefers_shared_big_machine() {
        // Three size-3 jobs on [0,10): 3 small machines cost 60; one big
        // (capacity 10 ≥ 9) costs 30.
        let jobs: Vec<Job> = (0..3).map(|i| Job::new(i, 3, 0, 10)).collect();
        let inst = Instance::new(jobs, catalog()).unwrap();
        let r = exact_optimal(&inst, None).unwrap();
        assert_eq!(r.cost, 30);
        assert_eq!(validate_schedule(&r.schedule, &inst), Ok(()));
        assert_eq!(schedule_cost(&r.schedule, &inst), 30);
    }

    #[test]
    fn reuses_machine_across_time() {
        // Two sequential jobs share one small machine: cost 2·(10+10) = 40?
        // No — busy time is 20 ticks × rate 2 = 40 either way; but one
        // machine vs two costs the same here. Add an overlap to force
        // distinction: staggered jobs [0,10) and [5,15) of size 3 don't fit
        // one small machine (6 > 4) → big machine [0,15): 45, or two small:
        // 2·10·2 = 40. Optimal 40.
        let jobs = vec![Job::new(0, 3, 0, 10), Job::new(1, 3, 5, 15)];
        let inst = Instance::new(jobs, catalog()).unwrap();
        let r = exact_optimal(&inst, None).unwrap();
        assert_eq!(r.cost, 40);
    }

    #[test]
    fn never_below_lower_bound() {
        let jobs: Vec<Job> = (0..7u32)
            .map(|i| {
                let x = u64::from(i);
                Job::new(i, 1 + (x * 3) % 9, (x * 4) % 20, (x * 4) % 20 + 5 + x % 7)
            })
            .collect();
        let inst = Instance::new(jobs, catalog()).unwrap();
        let r = exact_optimal(&inst, None).unwrap();
        assert_eq!(validate_schedule(&r.schedule, &inst), Ok(()));
        assert!(r.cost >= lower_bound(&inst));
        assert_eq!(schedule_cost(&r.schedule, &inst), r.cost);
    }

    #[test]
    fn beats_or_matches_heuristics() {
        let jobs: Vec<Job> = (0..6u32)
            .map(|i| {
                let x = u64::from(i);
                Job::new(i, 1 + (x * 5) % 8, (x * 6) % 15, (x * 6) % 15 + 8)
            })
            .collect();
        let inst = Instance::new(jobs, catalog()).unwrap();
        let r = exact_optimal(&inst, None).unwrap();
        let dec = crate::dec::dec_offline(&inst, bshm_chart::placement::PlacementOrder::Arrival);
        assert!(r.cost <= schedule_cost(&dec, &inst));
        let inc = crate::inc::inc_offline(&inst, bshm_chart::placement::PlacementOrder::Arrival);
        assert!(r.cost <= schedule_cost(&inc, &inst));
    }

    #[test]
    fn budget_exhaustion_returns_none() {
        let jobs: Vec<Job> = (0..10).map(|i| Job::new(i, 1, 0, 10)).collect();
        let inst = Instance::new(jobs, catalog()).unwrap();
        assert!(exact_optimal(&inst, Some(5)).is_none());
    }
}
