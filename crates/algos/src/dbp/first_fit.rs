//! The First Fit packing rule (online, one machine type).
//!
//! Machines of a single type are indexed in creation order; an arriving job
//! is placed on the lowest-indexed machine with enough residual capacity,
//! opening a new machine when none fits. Ren, Tang, Li & Cai (ToN 2017,
//! ref \[14\]) show this is `(μ+3)`-competitive for MinUsageTime DBP in the
//! non-clairvoyant setting, matching the `μ` lower bound up to an additive
//! constant.

use bshm_core::machine::TypeIndex;
use bshm_core::ops::{NoOps, OpProbe, PlaceReason, RejectReason};
use bshm_core::schedule::MachineId;
use bshm_sim::driver::{ArrivalView, OnlineScheduler};
use bshm_sim::pool::MachinePool;

/// A reusable First-Fit roster over machines of one catalog type.
///
/// This is the building block shared by [`FirstFit`] (the m=1 scheduler),
/// INC-ONLINE (one roster per size class) and the Group-A logic of
/// DEC-ONLINE (rosters with concurrency caps).
#[derive(Clone, Debug)]
pub struct FirstFitRoster {
    machine_type: TypeIndex,
    /// Machines in index (creation) order.
    machines: Vec<MachineId>,
    /// Maximum number of machines the roster may hold (`None` = unlimited).
    cap: Option<usize>,
    label: &'static str,
}

impl FirstFitRoster {
    /// A roster of `machine_type` machines, optionally capped.
    #[must_use]
    pub fn new(machine_type: TypeIndex, cap: Option<usize>, label: &'static str) -> Self {
        Self {
            machine_type,
            machines: Vec::new(),
            cap,
            label,
        }
    }

    /// The roster's machine type.
    #[must_use]
    pub fn machine_type(&self) -> TypeIndex {
        self.machine_type
    }

    /// Machines opened so far.
    #[must_use]
    pub fn machines(&self) -> &[MachineId] {
        &self.machines
    }

    /// First-fit placement of a job of `size`, subject to an extra
    /// per-machine size admission rule (e.g. Group A's `size ≤ g/2`): the
    /// lowest-indexed open machine with `residual ≥ size` wins; otherwise a
    /// new machine is opened if the cap allows. Returns `None` when the
    /// roster is full and nothing fits.
    pub fn try_place(&mut self, size: u64, pool: &mut MachinePool) -> Option<MachineId> {
        self.try_place_ops(size, pool, &mut NoOps).map(|(m, _)| m)
    }

    /// [`FirstFitRoster::try_place`] with op accounting: every scanned
    /// machine, every residual comparison and every typed rejection is
    /// reported to `ops`. Returns the winner together with how it won
    /// (reuse vs a fresh open); the *caller* commits the decision — the
    /// roster never calls [`OpProbe::committed`], because one arrival may
    /// consult several rosters before settling.
    pub fn try_place_ops<P: OpProbe + ?Sized>(
        &mut self,
        size: u64,
        pool: &mut MachinePool,
        ops: &mut P,
    ) -> Option<(MachineId, PlaceReason)> {
        for &m in &self.machines {
            ops.scanned(m);
            ops.compared(1);
            if pool.residual(m) >= size {
                return Some((m, PlaceReason::Reused));
            }
            ops.rejected(m, RejectReason::Capacity);
        }
        if self.cap.is_none_or(|c| self.machines.len() < c) {
            let idx = self.machines.len();
            let m = pool.create(
                self.machine_type,
                format!("{}/t{}#{}", self.label, self.machine_type.0, idx),
            );
            self.machines.push(m);
            Some((m, PlaceReason::Opened))
        } else {
            ops.noted(RejectReason::RosterFull);
            None
        }
    }

    /// The lowest-indexed *idle* machine (used by Group B semantics), or a
    /// newly created one when the cap allows. `None` when every roster
    /// machine is busy and the roster is full.
    pub fn try_place_idle(&mut self, pool: &mut MachinePool) -> Option<MachineId> {
        self.try_place_idle_ops(pool, &mut NoOps).map(|(m, _)| m)
    }

    /// [`FirstFitRoster::try_place_idle`] with op accounting; busy roster
    /// machines are rejected as [`RejectReason::Busy`]. Same commit
    /// protocol as [`FirstFitRoster::try_place_ops`].
    pub fn try_place_idle_ops<P: OpProbe + ?Sized>(
        &mut self,
        pool: &mut MachinePool,
        ops: &mut P,
    ) -> Option<(MachineId, PlaceReason)> {
        for &m in &self.machines {
            ops.scanned(m);
            ops.compared(1);
            if pool.is_idle(m) {
                return Some((m, PlaceReason::ReusedIdle));
            }
            ops.rejected(m, RejectReason::Busy);
        }
        if self.cap.is_none_or(|c| self.machines.len() < c) {
            let idx = self.machines.len();
            let m = pool.create(
                self.machine_type,
                format!("{}/t{}#{}", self.label, self.machine_type.0, idx),
            );
            self.machines.push(m);
            Some((m, PlaceReason::Opened))
        } else {
            ops.noted(RejectReason::RosterFull);
            None
        }
    }
}

/// The m=1 First Fit online scheduler. Requires a single-type catalog (or
/// schedules everything on the one `machine_type` given).
#[derive(Clone, Debug)]
pub struct FirstFit {
    roster: FirstFitRoster,
}

impl FirstFit {
    /// First Fit over machines of `machine_type`.
    #[must_use]
    pub fn new(machine_type: TypeIndex) -> Self {
        Self {
            roster: FirstFitRoster::new(machine_type, None, "ff"),
        }
    }
}

impl FirstFit {
    fn decide<P: OpProbe + ?Sized>(
        &mut self,
        view: ArrivalView,
        pool: &mut MachinePool,
        ops: &mut P,
    ) -> MachineId {
        #[expect(
            clippy::expect_used,
            reason = "a roster with no cap opens a fresh machine rather than fail"
        )]
        let (m, how) = self
            .roster
            .try_place_ops(view.size, pool, ops)
            .expect("uncapped roster always places");
        ops.committed(m, how);
        m
    }
}

impl OnlineScheduler for FirstFit {
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
        "first-fit"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bshm_core::instance::Instance;
    use bshm_core::job::Job;
    use bshm_core::machine::{Catalog, MachineType};
    use bshm_core::validate::validate_schedule;
    use bshm_sim::driver::run_online;

    fn catalog(g: u64) -> Catalog {
        Catalog::new(vec![MachineType::new(g, 1)]).unwrap()
    }

    #[test]
    fn packs_lowest_indexed_first() {
        let inst = Instance::new(
            vec![
                Job::new(0, 2, 0, 10),
                Job::new(1, 2, 1, 10),
                Job::new(2, 2, 2, 10), // machine 0 is full (4/4) → machine 1
                Job::new(3, 2, 3, 10),
                Job::new(4, 2, 11, 20), // machine 0 free again
            ],
            catalog(4),
        )
        .unwrap();
        let s = run_online(&inst, &mut FirstFit::new(TypeIndex(0))).unwrap();
        assert_eq!(validate_schedule(&s, &inst), Ok(()));
        assert_eq!(s.machine_count(), 2);
        assert_eq!(s.machines()[0].jobs.len(), 3); // jobs 0, 1, 4
    }

    #[test]
    fn roster_cap_blocks() {
        let cat = catalog(4);
        let mut pool = MachinePool::new(cat);
        let mut roster = FirstFitRoster::new(TypeIndex(0), Some(1), "t");
        let m0 = roster.try_place(3, &mut pool).unwrap();
        pool.place(m0, bshm_core::job::JobId(0), 3).unwrap();
        // Machine full, cap reached.
        assert_eq!(roster.try_place(3, &mut pool), None);
        // But a size-1 job still fits the open machine.
        assert_eq!(roster.try_place(1, &mut pool), Some(m0));
    }

    #[test]
    fn idle_placement_prefers_lowest_idle() {
        let cat = catalog(4);
        let mut pool = MachinePool::new(cat);
        let mut roster = FirstFitRoster::new(TypeIndex(0), Some(2), "b");
        let m0 = roster.try_place_idle(&mut pool).unwrap();
        pool.place(m0, bshm_core::job::JobId(0), 4).unwrap();
        let m1 = roster.try_place_idle(&mut pool).unwrap();
        assert_ne!(m0, m1);
        pool.place(m1, bshm_core::job::JobId(1), 4).unwrap();
        // Both busy, cap 2 → None.
        assert_eq!(roster.try_place_idle(&mut pool), None);
        pool.remove(bshm_core::job::JobId(0), 4);
        assert_eq!(roster.try_place_idle(&mut pool), Some(m0));
    }
}
