//! Baseline policies the paper's algorithms are compared against (T4/F6).
//!
//! None of these carries a competitive guarantee for BSHM; they represent
//! what a practitioner might deploy without the paper: dedicated machines,
//! greedy first-fit/best-fit across whatever is open, and single-type
//! fleets.

use bshm_core::machine::{Catalog, TypeIndex};
use bshm_core::ops::{NoOps, OpProbe, PlaceReason, RejectReason};
use bshm_core::schedule::MachineId;
use bshm_sim::driver::{ArrivalView, OnlineScheduler};
use bshm_sim::pool::MachinePool;

/// Opens a dedicated smallest-fitting machine per job — the trivial upper
/// bound (`one_machine_per_job_cost` in `bshm-core`).
#[derive(Clone, Copy, Debug, Default)]
pub struct OneMachinePerJob;

impl OneMachinePerJob {
    fn decide<P: OpProbe + ?Sized>(
        &mut self,
        view: ArrivalView,
        pool: &mut MachinePool,
        ops: &mut P,
    ) -> MachineId {
        // One capacity comparison: the size-class fit test.
        ops.compared(1);
        #[expect(
            clippy::expect_used,
            reason = "instances are validated on construction — every job fits the top type"
        )]
        let class = pool.catalog().size_class(view.size).expect("job fits");
        let m = pool.create(class, format!("dedicated/{}", view.id));
        ops.committed(m, PlaceReason::Opened);
        m
    }
}

impl OnlineScheduler for OneMachinePerJob {
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
        "one-machine-per-job"
    }
}

/// Greedy First-Fit over *all* open machines in creation order, opening a
/// smallest-fitting-type machine when nothing fits. Ignores machine types
/// when reusing — the classic fragmentation-prone strategy.
#[derive(Clone, Debug, Default)]
pub struct FirstFitAny {
    open: Vec<MachineId>,
}

impl FirstFitAny {
    fn decide<P: OpProbe + ?Sized>(
        &mut self,
        view: ArrivalView,
        pool: &mut MachinePool,
        ops: &mut P,
    ) -> MachineId {
        for &m in &self.open {
            ops.scanned(m);
            ops.compared(1);
            if pool.residual(m) >= view.size {
                ops.committed(m, PlaceReason::Reused);
                return m;
            }
            ops.rejected(m, RejectReason::Capacity);
        }
        ops.compared(1);
        #[expect(
            clippy::expect_used,
            reason = "instances are validated on construction — every job fits the top type"
        )]
        let class = pool.catalog().size_class(view.size).expect("job fits");
        let m = pool.create(class, format!("ff-any#{}", self.open.len()));
        self.open.push(m);
        ops.committed(m, PlaceReason::Opened);
        m
    }
}

impl OnlineScheduler for FirstFitAny {
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
        "first-fit-any"
    }
}

/// Best-Fit: place on the open machine with the smallest sufficient
/// residual capacity; open a smallest-fitting-type machine otherwise.
#[derive(Clone, Debug, Default)]
pub struct BestFit {
    open: Vec<MachineId>,
}

impl BestFit {
    fn decide<P: OpProbe + ?Sized>(
        &mut self,
        view: ArrivalView,
        pool: &mut MachinePool,
        ops: &mut P,
    ) -> MachineId {
        let mut best: Option<(u64, MachineId)> = None;
        for &m in &self.open {
            ops.scanned(m);
            ops.compared(1);
            let r = pool.residual(m);
            if r < view.size {
                ops.rejected(m, RejectReason::Capacity);
                continue;
            }
            match best {
                None => best = Some((r, m)),
                Some(cur) => {
                    ops.compared(1);
                    if (r, m) < cur {
                        best = Some((r, m));
                    }
                }
            }
        }
        if let Some((_, m)) = best {
            ops.committed(m, PlaceReason::Reused);
            return m;
        }
        ops.compared(1);
        #[expect(
            clippy::expect_used,
            reason = "instances are validated on construction — every job fits the top type"
        )]
        let class = pool.catalog().size_class(view.size).expect("job fits");
        let m = pool.create(class, format!("best-fit#{}", self.open.len()));
        self.open.push(m);
        ops.committed(m, PlaceReason::Opened);
        m
    }
}

impl OnlineScheduler for BestFit {
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
        "best-fit"
    }
}

/// Next-Fit: only the most recently opened machine is ever reused; when
/// the job doesn't fit there, a new smallest-fitting-type machine opens.
/// The cheapest possible bookkeeping and the weakest packer — a floor for
/// the comparison tables.
#[derive(Clone, Debug, Default)]
pub struct NextFit {
    current: Option<MachineId>,
    opened: usize,
}

impl NextFit {
    fn decide<P: OpProbe + ?Sized>(
        &mut self,
        view: ArrivalView,
        pool: &mut MachinePool,
        ops: &mut P,
    ) -> MachineId {
        if let Some(m) = self.current {
            ops.scanned(m);
            ops.compared(1);
            if pool.residual(m) >= view.size {
                ops.committed(m, PlaceReason::Reused);
                return m;
            }
            ops.rejected(m, RejectReason::Capacity);
        }
        ops.compared(1);
        #[expect(
            clippy::expect_used,
            reason = "instances are validated on construction — every job fits the top type"
        )]
        let class = pool.catalog().size_class(view.size).expect("job fits");
        let m = pool.create(class, format!("next-fit#{}", self.opened));
        self.opened += 1;
        self.current = Some(m);
        ops.committed(m, PlaceReason::Opened);
        m
    }
}

impl OnlineScheduler for NextFit {
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
        "next-fit"
    }
}

/// Random-Fit: place on a uniformly random open machine that fits (seeded
/// xorshift — deterministic per seed), opening a smallest-fitting-type
/// machine when none does. Isolates how much First Fit's lowest-index
/// discipline actually buys.
#[derive(Clone, Debug)]
pub struct RandomFit {
    open: Vec<MachineId>,
    state: u64,
}

impl RandomFit {
    /// Seeded constructor (seed 0 is mapped to a fixed non-zero state).
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self {
            open: Vec::new(),
            state: if seed == 0 {
                0x9E37_79B9_7F4A_7C15
            } else {
                seed
            },
        }
    }

    fn next_u64(&mut self) -> u64 {
        // xorshift64*.
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

impl RandomFit {
    fn decide<P: OpProbe + ?Sized>(
        &mut self,
        view: ArrivalView,
        pool: &mut MachinePool,
        ops: &mut P,
    ) -> MachineId {
        let mut fitting: Vec<MachineId> = Vec::new();
        for &m in &self.open {
            ops.scanned(m);
            ops.compared(1);
            if pool.residual(m) >= view.size {
                fitting.push(m);
            } else {
                ops.rejected(m, RejectReason::Capacity);
            }
        }
        if !fitting.is_empty() {
            let idx = self.next_u64() % bshm_core::convert::count_u64(fitting.len());
            // idx < fitting.len(), so it always fits back into usize.
            let pick = bshm_core::convert::usize_from_u64(idx).unwrap_or(0);
            let m = fitting[pick];
            ops.committed(m, PlaceReason::Reused);
            return m;
        }
        ops.compared(1);
        #[expect(
            clippy::expect_used,
            reason = "instances are validated on construction — every job fits the top type"
        )]
        let class = pool.catalog().size_class(view.size).expect("job fits");
        let m = pool.create(class, format!("random-fit#{}", self.open.len()));
        self.open.push(m);
        ops.committed(m, PlaceReason::Opened);
        m
    }
}

impl OnlineScheduler for RandomFit {
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
        "random-fit"
    }
}

/// First-Fit restricted to a single machine type (defaults to the largest,
/// which can host every job). Models a homogeneous fleet.
#[derive(Clone, Debug)]
pub struct SingleType {
    machine_type: Option<TypeIndex>,
    open: Vec<MachineId>,
}

impl SingleType {
    /// Uses only `machine_type`; every job must fit it.
    #[must_use]
    pub fn with_type(machine_type: TypeIndex) -> Self {
        Self {
            machine_type: Some(machine_type),
            open: Vec::new(),
        }
    }

    /// Uses only the catalog's largest type.
    #[must_use]
    pub fn largest() -> Self {
        Self {
            machine_type: None,
            open: Vec::new(),
        }
    }

    fn resolve(&self, catalog: &Catalog) -> TypeIndex {
        self.machine_type.unwrap_or(TypeIndex(catalog.len() - 1))
    }
}

impl SingleType {
    fn decide<P: OpProbe + ?Sized>(
        &mut self,
        view: ArrivalView,
        pool: &mut MachinePool,
        ops: &mut P,
    ) -> MachineId {
        let t = self.resolve(pool.catalog());
        ops.compared(1);
        assert!(
            view.size <= pool.catalog().get(t).capacity,
            "job {} does not fit the single fleet type",
            view.id
        );
        for &m in &self.open {
            ops.scanned(m);
            ops.compared(1);
            if pool.residual(m) >= view.size {
                ops.committed(m, PlaceReason::Reused);
                return m;
            }
            ops.rejected(m, RejectReason::Capacity);
        }
        let m = pool.create(t, format!("single#{}", self.open.len()));
        self.open.push(m);
        ops.committed(m, PlaceReason::Opened);
        m
    }
}

impl OnlineScheduler for SingleType {
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
        "single-type"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bshm_core::cost::schedule_cost;
    use bshm_core::instance::Instance;
    use bshm_core::job::Job;
    use bshm_core::machine::MachineType;
    use bshm_core::validate::validate_schedule;
    use bshm_sim::driver::run_online;

    fn catalog() -> Catalog {
        Catalog::new(vec![MachineType::new(4, 1), MachineType::new(16, 3)]).unwrap()
    }

    fn jobs() -> Vec<Job> {
        vec![
            Job::new(0, 3, 0, 10),
            Job::new(1, 2, 2, 12),
            Job::new(2, 12, 4, 14),
            Job::new(3, 1, 6, 16),
            Job::new(4, 4, 15, 25),
        ]
    }

    #[test]
    fn all_baselines_feasible() {
        let inst = Instance::new(jobs(), catalog()).unwrap();
        let s1 = run_online(&inst, &mut OneMachinePerJob).unwrap();
        let s2 = run_online(&inst, &mut FirstFitAny::default()).unwrap();
        let s3 = run_online(&inst, &mut BestFit::default()).unwrap();
        let s4 = run_online(&inst, &mut SingleType::largest()).unwrap();
        let s5 = run_online(&inst, &mut NextFit::default()).unwrap();
        let s6 = run_online(&inst, &mut RandomFit::new(3)).unwrap();
        for s in [&s1, &s2, &s3, &s4, &s5, &s6] {
            assert_eq!(validate_schedule(s, &inst), Ok(()));
        }
        // Reuse strictly beats dedicated machines here.
        assert!(schedule_cost(&s2, &inst) <= schedule_cost(&s1, &inst));
    }

    #[test]
    fn next_fit_forgets_old_machines() {
        // Three jobs: first fills a machine, second opens a new one, third
        // would fit machine 1 but next-fit only looks at machine 2.
        let catalog = Catalog::new(vec![MachineType::new(4, 1)]).unwrap();
        let inst = Instance::new(
            vec![
                Job::new(0, 2, 0, 10),
                Job::new(1, 4, 1, 10), // doesn't fit machine 0 (2+4 > 4)
                Job::new(2, 2, 2, 10), // fits machine 0, but NF opens #2
            ],
            catalog,
        )
        .unwrap();
        let s = run_online(&inst, &mut NextFit::default()).unwrap();
        assert_eq!(validate_schedule(&s, &inst), Ok(()));
        assert_eq!(s.used_machine_count(), 3);
    }

    #[test]
    fn random_fit_is_deterministic_per_seed() {
        let inst = Instance::new(jobs(), catalog()).unwrap();
        let a = run_online(&inst, &mut RandomFit::new(7)).unwrap();
        let b = run_online(&inst, &mut RandomFit::new(7)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn one_machine_per_job_matches_core_bound() {
        let inst = Instance::new(jobs(), catalog()).unwrap();
        let s = run_online(&inst, &mut OneMachinePerJob).unwrap();
        assert_eq!(
            schedule_cost(&s, &inst),
            bshm_core::cost::one_machine_per_job_cost(&inst)
        );
    }

    #[test]
    fn best_fit_prefers_tight_machine() {
        // Machine A residual 2, machine B residual 4 → size-2 job goes to A.
        let catalog = Catalog::new(vec![MachineType::new(6, 1)]).unwrap();
        let inst = Instance::new(
            vec![
                Job::new(0, 4, 0, 10), // opens A, residual 2
                Job::new(1, 2, 1, 10), // best-fit → A (residual 2 < 6)
            ],
            catalog,
        )
        .unwrap();
        let s = run_online(&inst, &mut BestFit::default()).unwrap();
        assert_eq!(
            s.machines().iter().filter(|m| !m.jobs.is_empty()).count(),
            1
        );
    }

    #[test]
    fn single_type_uses_one_type_only() {
        let inst = Instance::new(jobs(), catalog()).unwrap();
        let s = run_online(&inst, &mut SingleType::largest()).unwrap();
        assert!(s.machines().iter().all(|m| m.machine_type == TypeIndex(1)));
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn single_small_type_rejects_big_job() {
        let inst = Instance::new(jobs(), catalog()).unwrap();
        let _ = run_online(&inst, &mut SingleType::with_type(TypeIndex(0)));
    }
}
