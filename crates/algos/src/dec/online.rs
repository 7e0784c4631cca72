//! DEC-ONLINE (§III-B): the Group A / Group B First-Fit policy,
//! `32·(μ+1)`-competitive for non-clairvoyant BSHM-DEC (Theorem 2).

use crate::dbp::FirstFitRoster;
use bshm_core::machine::{Catalog, TypeIndex};
use bshm_core::normalize::NormalizedCatalog;
use bshm_core::ops::{NoOps, OpProbe, PlaceReason, RejectReason};
use bshm_core::schedule::MachineId;
use bshm_sim::driver::{ArrivalView, OnlineScheduler};
use bshm_sim::pool::MachinePool;

/// The DEC-ONLINE scheduler.
///
/// Two groups of machines per (normalized) type `i`:
///
/// * **Group A** — accepts only jobs of size ≤ `g_i/2`, packed First-Fit;
/// * **Group B** — one job at a time, reserved for jobs of size in
///   `(g_i/2, g_i]`.
///
/// For `i < m`, each group may run at most `4·(r̂_{i+1}/r̂_i − 1)` type-`i`
/// machines concurrently; type-`m` machines are unlimited. A job of size in
/// `(g_i/2, g_i]` tries the lowest-indexed empty Group-B type-`i` machine,
/// spilling into Group A at types `> i` (First-Fit) when none is empty;
/// a job of size in `(g_{i-1}, g_i/2]` goes straight to Group A First-Fit
/// starting at type `i`.
///
/// When the catalog's capacities do not double between consecutive
/// normalized types (possible since the DEC property is stated on the
/// *original* rates), a spilled big job may fit no Group-A machine; such
/// jobs land on an unlimited per-type *overflow* roster (one job at a
/// time). This never happens on doubling catalogs; the count is exposed
/// for the A2/A4 diagnostics.
#[derive(Clone, Debug)]
pub struct DecOnline {
    norm: NormalizedCatalog,
    group_a: Vec<FirstFitRoster>,
    group_b: Vec<FirstFitRoster>,
    overflow: Vec<FirstFitRoster>,
    overflow_placements: usize,
    use_group_b: bool,
}

impl DecOnline {
    /// Builds the policy for a catalog (normalizes rates internally).
    #[must_use]
    pub fn new(catalog: &Catalog) -> Self {
        let norm = NormalizedCatalog::from_catalog(catalog);
        let m = norm.len();
        let mut group_a = Vec::with_capacity(m);
        let mut group_b = Vec::with_capacity(m);
        let mut overflow = Vec::with_capacity(m);
        for i in 0..m {
            let cap = if i + 1 < m {
                // A cap beyond addressable memory is effectively unlimited,
                // so saturating keeps the roster semantics without a trap.
                Some(usize::try_from(4 * (norm.rate_ratio(TypeIndex(i)) - 1)).unwrap_or(usize::MAX))
            } else {
                None
            };
            let orig = norm.original_index(TypeIndex(i));
            group_a.push(FirstFitRoster::new(orig, cap, "dec-A"));
            group_b.push(FirstFitRoster::new(orig, cap, "dec-B"));
            overflow.push(FirstFitRoster::new(orig, None, "dec-ovf"));
        }
        Self {
            norm,
            group_a,
            group_b,
            overflow,
            overflow_placements: 0,
            use_group_b: true,
        }
    }

    /// Ablation variant (experiment A2): disables the dedicated Group-B
    /// rosters, so big jobs spill straight into Group A above their class
    /// (falling back to ad-hoc single-job machines when nothing admits
    /// them). Measures what the B-side reservation buys.
    #[must_use]
    pub fn without_group_b(catalog: &Catalog) -> Self {
        let mut s = Self::new(catalog);
        s.use_group_b = false;
        s
    }

    /// Number of jobs that had to use the overflow fallback (0 on
    /// capacity-doubling catalogs).
    #[must_use]
    pub fn overflow_placements(&self) -> usize {
        self.overflow_placements
    }

    /// After a run: `(job, normalized type, roster index)` for every job
    /// that landed on a Group-A or Group-B roster machine (overflow
    /// machines are excluded). Feeds the Theorem 2 proof checks
    /// ([`crate::dec::theorem2`]): roster index `idx` belongs to quadruple
    /// `j = idx/4 + 1`.
    #[must_use]
    pub fn roster_placements(
        &self,
        schedule: &bshm_core::schedule::Schedule,
    ) -> Vec<(bshm_core::job::JobId, usize, usize)> {
        let mut info: std::collections::HashMap<MachineId, (usize, usize)> =
            std::collections::HashMap::new();
        for rosters in [&self.group_a, &self.group_b] {
            for (i, roster) in rosters.iter().enumerate() {
                for (idx, &m) in roster.machines().iter().enumerate() {
                    info.insert(m, (i, idx));
                }
            }
        }
        let mut out = Vec::new();
        for (mid, machine) in schedule.iter() {
            if let Some(&(i, idx)) = info.get(&mid) {
                for &job in &machine.jobs {
                    out.push((job, i, idx));
                }
            }
        }
        out
    }

    /// Capacity of normalized type `i`.
    fn g(&self, i: usize) -> u64 {
        self.norm.catalog().get(TypeIndex(i)).capacity
    }

    /// Group-A First-Fit over normalized types `start..m`, honouring the
    /// half-capacity admission rule.
    fn place_group_a<P: OpProbe + ?Sized>(
        &mut self,
        start: usize,
        size: u64,
        pool: &mut MachinePool,
        ops: &mut P,
    ) -> Option<(MachineId, PlaceReason)> {
        for j in start..self.norm.len() {
            ops.compared(1);
            if 2 * size <= self.g(j) {
                if let Some(placed) = self.group_a[j].try_place_ops(size, pool, ops) {
                    return Some(placed);
                }
            } else {
                ops.noted(RejectReason::Admission);
            }
        }
        None
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
        let i = self
            .norm
            .catalog()
            .size_class(view.size)
            .expect("job fits the largest kept type")
            .0;
        ops.compared(1);
        let big = 2 * view.size > self.g(i);
        if big {
            // s(J) ∈ (g_i/2, g_i]: lowest-indexed empty Group-B machine…
            if self.use_group_b {
                if let Some((m, how)) = self.group_b[i].try_place_idle_ops(pool, ops) {
                    ops.committed(m, how);
                    return m;
                }
            }
            // …else Group-A First-Fit from type i+1 upward.
            if let Some((m, how)) = self.place_group_a(i + 1, view.size, pool, ops) {
                ops.committed(m, how);
                return m;
            }
            // Non-doubling catalog: dedicated overflow machine.
            self.overflow_placements += 1;
            #[expect(
                clippy::expect_used,
                reason = "overflow rosters are uncapped and always open a machine"
            )]
            let (m, how) = self.overflow[i]
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
        // s(J) ∈ (g_{i-1}, g_i/2]: Group-A First-Fit from type i upward;
        // the unlimited top type guarantees success.
        #[expect(
            clippy::expect_used,
            reason = "the top type roster is uncapped (paper Lemma 2)"
        )]
        let (m, how) = self
            .place_group_a(i, view.size, pool, ops)
            .expect("top-type Group A is unlimited and admits the job");
        ops.committed(m, how);
        m
    }
}

impl OnlineScheduler for DecOnline {
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
        "dec-online"
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

    fn dec_catalog() -> Catalog {
        Catalog::new(vec![
            MachineType::new(4, 1),
            MachineType::new(16, 2),
            MachineType::new(64, 4),
        ])
        .unwrap()
    }

    fn run(jobs: Vec<Job>) -> (Instance, bshm_core::schedule::Schedule, DecOnline) {
        let inst = Instance::new(jobs, dec_catalog()).unwrap();
        let mut sched = DecOnline::new(inst.catalog());
        let s = run_online(&inst, &mut sched).unwrap();
        (inst, s, sched)
    }

    #[test]
    fn small_jobs_pack_on_cheap_machines() {
        // Four size-1 jobs pack into one type-0 Group-A machine.
        let jobs: Vec<Job> = (0..4).map(|i| Job::new(i, 1, 0, 10)).collect();
        let (inst, s, sched) = run(jobs);
        assert_eq!(validate_schedule(&s, &inst), Ok(()));
        assert_eq!(sched.overflow_placements(), 0);
        let used: Vec<_> = s.machines().iter().filter(|m| !m.jobs.is_empty()).collect();
        assert_eq!(used.len(), 1);
        assert_eq!(used[0].machine_type, TypeIndex(0));
        assert_eq!(schedule_cost(&s, &inst), 10);
    }

    #[test]
    fn big_job_gets_group_b_machine() {
        // Size 3 ∈ (g_0/2, g_0] = (2, 4] → Group B type 0.
        let (inst, s, _) = run(vec![Job::new(0, 3, 0, 10)]);
        assert_eq!(validate_schedule(&s, &inst), Ok(()));
        let used: Vec<_> = s.machines().iter().filter(|m| !m.jobs.is_empty()).collect();
        assert_eq!(used.len(), 1);
        assert!(used[0].label.contains("dec-B"));
        assert_eq!(used[0].machine_type, TypeIndex(0));
    }

    #[test]
    fn group_b_exhaustion_spills_to_group_a_above() {
        // cap for type 0 = 4·(2−1) = 4: five concurrent size-3 jobs →
        // the fifth must go to a type-1 Group-A machine (2·3 ≤ 16).
        let jobs: Vec<Job> = (0..5).map(|i| Job::new(i, 3, 0, 10)).collect();
        let (inst, s, sched) = run(jobs);
        assert_eq!(validate_schedule(&s, &inst), Ok(()));
        assert_eq!(sched.overflow_placements(), 0);
        let spilled: Vec<_> = s
            .machines()
            .iter()
            .filter(|m| !m.jobs.is_empty() && m.machine_type == TypeIndex(1))
            .collect();
        assert_eq!(spilled.len(), 1);
        assert!(spilled[0].label.contains("dec-A"));
    }

    #[test]
    fn group_b_machines_are_reused_when_idle() {
        // Sequential big jobs share one Group-B machine.
        let jobs: Vec<Job> = (0..5)
            .map(|i| Job::new(i, 3, u64::from(i) * 10, u64::from(i) * 10 + 10))
            .collect();
        let (inst, s, _) = run(jobs);
        assert_eq!(validate_schedule(&s, &inst), Ok(()));
        let used: Vec<_> = s.machines().iter().filter(|m| !m.jobs.is_empty()).collect();
        assert_eq!(used.len(), 1);
        assert_eq!(used[0].jobs.len(), 5);
    }

    #[test]
    fn mixed_stream_is_feasible_and_bounded() {
        let jobs: Vec<Job> = (0..150u32)
            .map(|i| {
                let x = u64::from(i);
                let size = 1 + (x * 41 + 7) % 64;
                let arr = (x * 11) % 300;
                Job::new(i, size, arr, arr + 10 + (x * 3) % 20)
            })
            .collect();
        let (inst, s, sched) = run(jobs);
        assert_eq!(validate_schedule(&s, &inst), Ok(()));
        assert_eq!(sched.overflow_placements(), 0, "doubling catalog");
        // Competitive bound sanity: μ ≤ 3 here (durations 10..30), so cost
        // ≤ 2·32·(μ+1)·LB is extremely loose; just assert a generous cap.
        let cost = schedule_cost(&s, &inst);
        let lb = lower_bound(&inst);
        assert!(cost <= 256 * lb, "cost {cost} vs LB {lb}");
    }

    #[test]
    fn top_type_big_jobs_unlimited() {
        // Many concurrent jobs in (g_2/2, g_2] = (32, 64]: all Group-B top.
        let jobs: Vec<Job> = (0..10).map(|i| Job::new(i, 40, 0, 10)).collect();
        let (inst, s, sched) = run(jobs);
        assert_eq!(validate_schedule(&s, &inst), Ok(()));
        assert_eq!(sched.overflow_placements(), 0);
        assert_eq!(
            s.machines().iter().filter(|m| !m.jobs.is_empty()).count(),
            10
        );
    }
}
