//! INC-ONLINE (§IV): size-class partitioning + per-class First Fit,
//! `(9/4)μ + 27/4`-competitive for non-clairvoyant BSHM-INC.

use crate::dbp::FirstFitRoster;
use bshm_core::machine::Catalog;
use bshm_core::ops::{NoOps, OpProbe};
use bshm_core::schedule::MachineId;
use bshm_sim::driver::{ArrivalView, OnlineScheduler};
use bshm_sim::pool::MachinePool;

/// The INC-ONLINE scheduler: one unlimited First-Fit roster of type-`i`
/// machines per size class `i`; a job is packed First-Fit within its own
/// class and never visits another type.
#[derive(Clone, Debug)]
pub struct IncOnline {
    rosters: Vec<FirstFitRoster>,
}

impl IncOnline {
    /// Builds the policy for a catalog.
    #[must_use]
    pub fn new(catalog: &Catalog) -> Self {
        let rosters = catalog
            .indices()
            .map(|i| FirstFitRoster::new(i, None, "inc"))
            .collect();
        Self { rosters }
    }
}

impl IncOnline {
    fn decide<P: OpProbe + ?Sized>(
        &mut self,
        view: ArrivalView,
        pool: &mut MachinePool,
        ops: &mut P,
    ) -> MachineId {
        ops.compared(1);
        #[expect(
            clippy::expect_used,
            reason = "instances are validated on construction — every job fits the top type"
        )]
        let class = pool
            .catalog()
            .size_class(view.size)
            .expect("job fits the largest type");
        #[expect(
            clippy::expect_used,
            reason = "a roster with no cap opens a fresh machine rather than fail"
        )]
        let (m, how) = self.rosters[class.0]
            .try_place_ops(view.size, pool, ops)
            .expect("uncapped roster always places");
        ops.committed(m, how);
        m
    }
}

impl OnlineScheduler for IncOnline {
    fn on_arrival(&mut self, view: ArrivalView, pool: &mut MachinePool) -> MachineId {
        self.decide(view, pool, &mut NoOps)
    }

    fn on_arrival_explained(
        &mut self,
        view: ArrivalView,
        pool: &mut MachinePool,
        ops: &mut dyn OpProbe,
    ) -> MachineId {
        self.decide(view, pool, ops)
    }

    fn name(&self) -> &'static str {
        "inc-online"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bshm_core::cost::schedule_cost;
    use bshm_core::instance::Instance;
    use bshm_core::job::Job;
    use bshm_core::lower_bound::lower_bound;
    use bshm_core::machine::{MachineType, TypeIndex};
    use bshm_core::validate::validate_schedule;
    use bshm_sim::driver::run_online;

    fn inc_catalog() -> Catalog {
        Catalog::new(vec![
            MachineType::new(4, 1),
            MachineType::new(16, 8),
            MachineType::new(64, 64),
        ])
        .unwrap()
    }

    #[test]
    fn packs_within_class_only() {
        let jobs = vec![
            Job::new(0, 2, 0, 10),
            Job::new(1, 2, 0, 10),
            Job::new(2, 12, 0, 10),
        ];
        let inst = Instance::new(jobs, inc_catalog()).unwrap();
        let s = run_online(&inst, &mut IncOnline::new(inst.catalog())).unwrap();
        assert_eq!(validate_schedule(&s, &inst), Ok(()));
        let used: Vec<_> = s.machines().iter().filter(|m| !m.jobs.is_empty()).collect();
        assert_eq!(used.len(), 2);
        // Both small jobs share the type-0 machine.
        assert_eq!(used[0].jobs.len(), 2);
        assert_eq!(used[0].machine_type, TypeIndex(0));
        assert_eq!(used[1].machine_type, TypeIndex(1));
    }

    #[test]
    fn reuses_idle_machines_first_fit() {
        // Sequential jobs reuse machine 0 of their class.
        let jobs: Vec<Job> = (0..6)
            .map(|i| Job::new(i, 3, u64::from(i) * 10, u64::from(i) * 10 + 10))
            .collect();
        let inst = Instance::new(jobs, inc_catalog()).unwrap();
        let s = run_online(&inst, &mut IncOnline::new(inst.catalog())).unwrap();
        assert_eq!(
            s.machines().iter().filter(|m| !m.jobs.is_empty()).count(),
            1
        );
        assert_eq!(schedule_cost(&s, &inst), 60);
    }

    #[test]
    fn bounded_against_lower_bound() {
        let jobs: Vec<Job> = (0..200u32)
            .map(|i| {
                let x = u64::from(i);
                let size = 1 + (x * 23 + 5) % 64;
                let arr = (x * 7) % 500;
                Job::new(i, size, arr, arr + 10 + (x * 11) % 30) // μ ≤ 4
            })
            .collect();
        let inst = Instance::new(jobs, inc_catalog()).unwrap();
        let s = run_online(&inst, &mut IncOnline::new(inst.catalog())).unwrap();
        assert_eq!(validate_schedule(&s, &inst), Ok(()));
        let cost = schedule_cost(&s, &inst);
        let lb = lower_bound(&inst);
        let mu = inst.stats().mu_ceil();
        // Paper bound: (9/4)μ + 27/4 < 3μ + 7.
        assert!(
            cost <= (3 * u128::from(mu) + 7) * lb,
            "cost {cost} vs bound ({mu}) × LB {lb}"
        );
    }
}
