//! GENERAL-ONLINE (§V): DEC-ONLINE-style Group A/B First-Fit along the
//! type forest's ancestor paths, conjectured `O(√m·μ)`-competitive.

use crate::dbp::FirstFitRoster;
use crate::general::forest::TypeForest;
use bshm_core::machine::{Catalog, TypeIndex};
use bshm_core::normalize::NormalizedCatalog;
use bshm_core::ops::{NoOps, OpProbe, PlaceReason, RejectReason};
use bshm_core::schedule::MachineId;
use bshm_sim::driver::{ArrivalView, OnlineScheduler};
use bshm_sim::pool::MachinePool;

/// The general-case online scheduler.
///
/// Per node `j`: a Group-A roster (jobs ≤ `g_j/2`, First-Fit) and a
/// Group-B roster (one job at a time), capped at
/// `4·⌈(1/√|C(k)|)·r̂_k/r̂_j⌉` concurrent machines for non-roots and
/// unlimited at roots. A job of class `i` walks only `i`'s ancestor path:
/// big jobs (`> g_i/2`) try Group B at `i` then Group A at the proper
/// ancestors; small jobs go Group-A First-Fit from `i` along the path.
/// As in [`crate::dec::DecOnline`], a non-doubling catalog may strand a
/// big job, which then lands on an unlimited per-node overflow roster.
#[derive(Clone, Debug)]
pub struct GeneralOnline {
    norm: NormalizedCatalog,
    forest: TypeForest,
    group_a: Vec<FirstFitRoster>,
    group_b: Vec<FirstFitRoster>,
    overflow: Vec<FirstFitRoster>,
    overflow_placements: usize,
}

impl GeneralOnline {
    /// Builds the policy for a catalog.
    #[must_use]
    pub fn new(catalog: &Catalog) -> Self {
        let norm = NormalizedCatalog::from_catalog(catalog);
        let forest = TypeForest::build(&norm);
        let m = norm.len();
        let mut group_a = Vec::with_capacity(m);
        let mut group_b = Vec::with_capacity(m);
        let mut overflow = Vec::with_capacity(m);
        for j in 0..m {
            let cap = forest
                .bottom_strips(j, &norm)
                // A cap beyond addressable memory is effectively unlimited.
                .map(|b| usize::try_from(4 * b).unwrap_or(usize::MAX));
            let orig = norm.original_index(TypeIndex(j));
            group_a.push(FirstFitRoster::new(orig, cap, "gen-A"));
            group_b.push(FirstFitRoster::new(orig, cap, "gen-B"));
            overflow.push(FirstFitRoster::new(orig, None, "gen-ovf"));
        }
        Self {
            norm,
            forest,
            group_a,
            group_b,
            overflow,
            overflow_placements: 0,
        }
    }

    /// Jobs that needed the overflow fallback.
    #[must_use]
    pub fn overflow_placements(&self) -> usize {
        self.overflow_placements
    }

    fn g(&self, j: usize) -> u64 {
        self.norm.catalog().get(TypeIndex(j)).capacity
    }

    fn decide<P: OpProbe + ?Sized>(
        &mut self,
        view: ArrivalView,
        pool: &mut MachinePool,
        ops: &mut P,
    ) -> MachineId {
        #[expect(
            clippy::expect_used,
            reason = "normalization keeps the top type, so every job has a class"
        )]
        let class = self
            .norm
            .catalog()
            .size_class(view.size)
            .expect("job fits the largest kept type")
            .0;
        let path = self.forest.ancestor_path(class);
        ops.compared(1);
        let big = 2 * view.size > self.g(class);
        if big {
            if let Some((m, how)) = self.group_b[class].try_place_idle_ops(pool, ops) {
                ops.committed(m, how);
                return m;
            }
            for &j in &path[1..] {
                ops.compared(1);
                if 2 * view.size <= self.g(j) {
                    if let Some((m, how)) = self.group_a[j].try_place_ops(view.size, pool, ops) {
                        ops.committed(m, how);
                        return m;
                    }
                } else {
                    ops.noted(RejectReason::Admission);
                }
            }
            self.overflow_placements += 1;
            #[expect(
                clippy::expect_used,
                reason = "overflow rosters are uncapped and always open a machine"
            )]
            let (m, how) = self.overflow[class]
                .try_place_idle_ops(pool, ops)
                .expect("unlimited overflow roster");
            let how = if how.opened() {
                PlaceReason::OpenedOverflow
            } else {
                how
            };
            ops.committed(m, how);
            return m;
        }
        for &j in &path {
            ops.compared(1);
            if 2 * view.size <= self.g(j) {
                if let Some((m, how)) = self.group_a[j].try_place_ops(view.size, pool, ops) {
                    ops.committed(m, how);
                    return m;
                }
            } else {
                ops.noted(RejectReason::Admission);
            }
        }
        // Root roster is unlimited; reaching here means the root's
        // half-capacity rule rejected the job (non-doubling catalog).
        self.overflow_placements += 1;
        #[expect(
            clippy::expect_used,
            reason = "overflow rosters are uncapped and always open a machine"
        )]
        let (m, how) = self.overflow[class]
            .try_place_idle_ops(pool, ops)
            .expect("unlimited overflow roster");
        let how = if how.opened() {
            PlaceReason::OpenedOverflow
        } else {
            how
        };
        ops.committed(m, how);
        m
    }
}

impl OnlineScheduler for GeneralOnline {
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
        "general-online"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bshm_core::cost::schedule_cost;
    use bshm_core::instance::Instance;
    use bshm_core::job::Job;
    use bshm_core::lower_bound::lower_bound;
    use bshm_core::machine::MachineType;
    use bshm_core::validate::validate_schedule;
    use bshm_sim::driver::run_online;

    fn sawtooth_catalog() -> Catalog {
        Catalog::new(vec![
            MachineType::new(4, 1),
            MachineType::new(16, 2),
            MachineType::new(20, 4),
            MachineType::new(128, 8),
        ])
        .unwrap()
    }

    fn pseudo_jobs(n: u32, max_size: u64, horizon: u64) -> Vec<Job> {
        (0..n)
            .map(|i| {
                let x = u64::from(i);
                let size = 1 + (x * 31 + 13) % max_size;
                let arr = (x * 19) % horizon;
                Job::new(i, size, arr, arr + 6 + (x * 3) % 24)
            })
            .collect()
    }

    #[test]
    fn feasible_on_sawtooth() {
        let inst = Instance::new(pseudo_jobs(150, 128, 400), sawtooth_catalog()).unwrap();
        let mut sched = GeneralOnline::new(inst.catalog());
        let s = run_online(&inst, &mut sched).unwrap();
        assert_eq!(validate_schedule(&s, &inst), Ok(()));
        let cost = schedule_cost(&s, &inst);
        let lb = lower_bound(&inst);
        // Loose sanity cap (μ ≤ 5, m = 4).
        assert!(cost <= 400 * lb, "cost {cost} vs LB {lb}");
    }

    #[test]
    fn stays_on_ancestor_path() {
        // A class-2 job (size in (16, 20]) may use types 2 or 3 only —
        // never type 0 or 1 (not ancestors of 2).
        let inst = Instance::new(vec![Job::new(0, 18, 0, 10)], sawtooth_catalog()).unwrap();
        let mut sched = GeneralOnline::new(inst.catalog());
        let s = run_online(&inst, &mut sched).unwrap();
        let used: Vec<_> = s.machines().iter().filter(|m| !m.jobs.is_empty()).collect();
        assert_eq!(used.len(), 1);
        assert!(used[0].machine_type.0 >= 2);
    }

    #[test]
    fn small_jobs_first_fit_within_class() {
        let jobs: Vec<Job> = (0..4).map(|i| Job::new(i, 1, 0, 10)).collect();
        let inst = Instance::new(jobs, sawtooth_catalog()).unwrap();
        let mut sched = GeneralOnline::new(inst.catalog());
        let s = run_online(&inst, &mut sched).unwrap();
        assert_eq!(validate_schedule(&s, &inst), Ok(()));
        let used: Vec<_> = s.machines().iter().filter(|m| !m.jobs.is_empty()).collect();
        assert_eq!(used.len(), 1);
        assert_eq!(used[0].machine_type, TypeIndex(0));
    }

    #[test]
    fn matches_inc_online_shape_on_inc_catalog() {
        let catalog = Catalog::new(vec![
            MachineType::new(4, 1),
            MachineType::new(16, 8),
            MachineType::new(64, 64),
        ])
        .unwrap();
        let inst = Instance::new(pseudo_jobs(80, 64, 200), catalog).unwrap();
        let mut gen = GeneralOnline::new(inst.catalog());
        let sg = run_online(&inst, &mut gen).unwrap();
        let mut inc = crate::inc::IncOnline::new(inst.catalog());
        let si = run_online(&inst, &mut inc).unwrap();
        assert_eq!(validate_schedule(&sg, &inst), Ok(()));
        // All-roots forest: the Group-A/B split differs from plain First
        // Fit, but both must be feasible and in the same cost regime.
        let cg = schedule_cost(&sg, &inst);
        let ci = schedule_cost(&si, &inst);
        assert!(cg <= 4 * ci && ci <= 4 * cg, "gen {cg} vs inc {ci}");
    }
}
