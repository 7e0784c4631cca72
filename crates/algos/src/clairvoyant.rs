//! Clairvoyant online scheduling (extension; §I-A refs \[5\]\[13\]).
//!
//! When departure times are known at arrival, the competitive ratio for
//! MinUsageTime DBP drops from `Θ(μ)` to `Θ(√log μ)` (Azar & Vainstein).
//! The classification trick behind such algorithms: bucket jobs by
//! `⌈log₂ duration⌉` and only co-locate jobs of the same bucket inside
//! *bounded windows*, so a machine's paid busy span is at most a constant
//! factor of every hosted job's duration.
//!
//! [`DurationClassFirstFit`] is a practical windowed variant of this idea,
//! generalized to heterogeneous machines by running it per size class
//! (the INC partitioning): a machine opened for a class-`k` job (duration
//! in `[2^k, 2^{k+1})` base units) accepts later jobs only while they fit
//! its capacity **and** depart before the machine's window closes
//! (`4·2^k` base units after the first arrival). Experiment F7 measures
//! what clairvoyance buys over non-clairvoyant First Fit.

use bshm_core::machine::Catalog;
use bshm_core::ops::{NoOps, OpProbe, PlaceReason, RejectReason};
use bshm_core::schedule::MachineId;
use bshm_core::time::TimePoint;
use bshm_sim::clairvoyant::{ClairvoyantScheduler, ClairvoyantView};
use bshm_sim::pool::MachinePool;
use std::collections::HashMap;

/// One open windowed machine.
#[derive(Clone, Copy, Debug)]
struct Windowed {
    machine: MachineId,
    /// Jobs must depart at or before this time to be admitted.
    window_end: TimePoint,
}

/// Clairvoyant duration-class First Fit (see module docs).
#[derive(Clone, Debug)]
pub struct DurationClassFirstFit {
    /// Base duration unit δ; class of a job = ⌊log₂(duration/δ)⌋.
    base: u64,
    /// Open machines per (size class, duration class), in creation order.
    rosters: HashMap<(usize, u32), Vec<Windowed>>,
    machines_opened: usize,
}

impl DurationClassFirstFit {
    /// Builds the policy; `base` is the smallest expected job duration δ
    /// (shorter jobs land in class 0 too).
    #[must_use]
    pub fn new(base: u64) -> Self {
        Self {
            base: base.max(1),
            rosters: HashMap::new(),
            machines_opened: 0,
        }
    }

    /// The duration class of a duration: ⌊log₂(max(duration, δ)/δ)⌋.
    fn duration_class(&self, duration: u64) -> u32 {
        let units = (duration.max(1)).div_ceil(self.base).max(1);
        63 - u64::leading_zeros(units) + u32::from(!units.is_power_of_two())
    }

    /// Window length for a duration class: 4·2^k·δ.
    fn window_len(&self, class: u32) -> u64 {
        self.base
            .saturating_mul(4)
            .saturating_mul(1u64 << class.min(58))
    }

    /// Machines opened over the whole run (diagnostic).
    #[must_use]
    pub fn machines_opened(&self) -> usize {
        self.machines_opened
    }

    #[expect(
        clippy::expect_used,
        reason = "instances are validated on construction — every job fits the top type"
    )]
    fn size_class(catalog: &Catalog, size: u64) -> usize {
        catalog.size_class(size).expect("job fits largest type").0
    }

    fn decide<P: OpProbe + ?Sized>(
        &mut self,
        view: ClairvoyantView,
        pool: &mut MachinePool,
        ops: &mut P,
    ) -> MachineId {
        let sclass = Self::size_class(pool.catalog(), view.size);
        let dclass = self.duration_class(view.duration());
        let window = self.window_len(dclass);
        let roster = self.rosters.entry((sclass, dclass)).or_default();
        for w in roster.iter() {
            ops.scanned(w.machine);
            ops.compared(1);
            if view.departure > w.window_end {
                ops.rejected(w.machine, RejectReason::WindowExpired);
                continue;
            }
            ops.compared(1);
            if pool.residual(w.machine) < view.size {
                ops.rejected(w.machine, RejectReason::Capacity);
                continue;
            }
            ops.committed(w.machine, PlaceReason::Reused);
            return w.machine;
        }
        let machine = pool.create(
            bshm_core::machine::TypeIndex(sclass),
            format!("clair/s{sclass}d{dclass}#{}", roster.len()),
        );
        self.machines_opened += 1;
        roster.push(Windowed {
            machine,
            window_end: view.arrival.saturating_add(window),
        });
        debug_assert!(
            view.departure <= view.arrival + window,
            "fresh window admits its opener"
        );
        ops.committed(machine, PlaceReason::Opened);
        machine
    }
}

impl ClairvoyantScheduler for DurationClassFirstFit {
    fn on_arrival(&mut self, view: ClairvoyantView, pool: &mut MachinePool) -> MachineId {
        self.decide(view, pool, &mut NoOps)
    }

    fn on_arrival_explained(
        &mut self,
        view: ClairvoyantView,
        pool: &mut MachinePool,
        ops: &mut dyn OpProbe,
    ) -> MachineId {
        self.decide(view, pool, ops)
    }

    fn name(&self) -> &'static str {
        "clairvoyant-dcff"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bshm_core::cost::schedule_cost;
    use bshm_core::instance::Instance;
    use bshm_core::job::Job;
    use bshm_core::machine::{Catalog, MachineType};
    use bshm_core::validate::validate_schedule;
    use bshm_sim::clairvoyant::run_clairvoyant;

    fn catalog() -> Catalog {
        Catalog::new(vec![MachineType::new(4, 1), MachineType::new(16, 2)]).unwrap()
    }

    #[test]
    fn duration_classes_are_log2() {
        let p = DurationClassFirstFit::new(10);
        assert_eq!(p.duration_class(1), 0);
        assert_eq!(p.duration_class(10), 0);
        assert_eq!(p.duration_class(11), 1);
        assert_eq!(p.duration_class(20), 1);
        assert_eq!(p.duration_class(21), 2);
        assert_eq!(p.duration_class(40), 2);
        assert_eq!(p.duration_class(160), 4);
    }

    #[test]
    fn separates_short_from_long() {
        // A 10-tick job and a 1000-tick job of the same size never share,
        // even though capacity would allow it.
        let inst = Instance::new(
            vec![Job::new(0, 1, 0, 10), Job::new(1, 1, 0, 1000)],
            catalog(),
        )
        .unwrap();
        let mut p = DurationClassFirstFit::new(10);
        let s = run_clairvoyant(&inst, &mut p).unwrap();
        assert_eq!(validate_schedule(&s, &inst), Ok(()));
        assert_eq!(s.used_machine_count(), 2);
    }

    #[test]
    fn same_class_jobs_share_within_window() {
        let inst = Instance::new(
            vec![
                Job::new(0, 1, 0, 10),
                Job::new(1, 1, 5, 14),
                Job::new(2, 1, 20, 30), // still inside the 40-tick window
            ],
            catalog(),
        )
        .unwrap();
        let mut p = DurationClassFirstFit::new(10);
        let s = run_clairvoyant(&inst, &mut p).unwrap();
        assert_eq!(validate_schedule(&s, &inst), Ok(()));
        assert_eq!(s.used_machine_count(), 1);
    }

    #[test]
    fn window_expiry_opens_new_machine() {
        // Second job departs after the first machine's window [0, 40).
        let inst = Instance::new(
            vec![Job::new(0, 1, 0, 10), Job::new(1, 1, 35, 45)],
            catalog(),
        )
        .unwrap();
        let mut p = DurationClassFirstFit::new(10);
        let s = run_clairvoyant(&inst, &mut p).unwrap();
        assert_eq!(s.used_machine_count(), 2);
    }

    #[test]
    fn machine_busy_span_bounded_by_window() {
        // Whatever happens, a machine's busy span never exceeds its 4·2^k
        // window — the structural property behind the √log μ analyses.
        let jobs: Vec<Job> = (0..200u32)
            .map(|i| {
                let x = u64::from(i);
                let dur = 10 + (x * 13) % 300;
                let arr = (x * 7) % 500;
                Job::new(i, 1 + x % 16, arr, arr + dur)
            })
            .collect();
        let inst = Instance::new(jobs, catalog()).unwrap();
        let mut p = DurationClassFirstFit::new(10);
        let s = run_clairvoyant(&inst, &mut p).unwrap();
        assert_eq!(validate_schedule(&s, &inst), Ok(()));
        let idx = bshm_core::cost::job_index(&inst);
        for m in s.machines().iter().filter(|m| !m.jobs.is_empty()) {
            let spans: Vec<_> = m.jobs.iter().map(|j| idx[j].interval()).collect();
            let start = spans.iter().map(|iv| iv.start()).min().unwrap();
            let end = spans.iter().map(|iv| iv.end()).max().unwrap();
            let shortest = m.jobs.iter().map(|j| idx[j].duration()).min().unwrap();
            // Window = 4·2^k·δ where 2^k·δ < 2·shortest ⇒ span ≤ 8·shortest.
            assert!(
                end - start <= 8 * shortest.max(10),
                "busy span {} vs shortest job {shortest}",
                end - start
            );
        }
    }

    #[test]
    fn beats_nothing_but_stays_feasible_on_wide_mu() {
        let jobs: Vec<Job> = (0..150u32)
            .map(|i| {
                let x = u64::from(i);
                let dur = if x % 10 == 0 { 1000 } else { 10 };
                let arr = (x * 11) % 400;
                Job::new(i, 1 + x % 4, arr, arr + dur)
            })
            .collect();
        let inst = Instance::new(jobs, catalog()).unwrap();
        let mut p = DurationClassFirstFit::new(10);
        let s = run_clairvoyant(&inst, &mut p).unwrap();
        assert_eq!(validate_schedule(&s, &inst), Ok(()));
        assert!(schedule_cost(&s, &inst) >= bshm_core::lower_bound::lower_bound(&inst));
    }
}
