//! The machine pool: ground truth about open machines during a simulation.
//!
//! The pool owns machine state (type, capacity, currently active jobs) and
//! *enforces* capacity at placement time, so a buggy scheduler cannot
//! silently produce an infeasible schedule. Schedulers inspect the pool
//! (loads, idleness) and create machines through it; the driver places and
//! removes jobs.

use bshm_core::job::JobId;
use bshm_core::machine::{Catalog, TypeIndex};
use bshm_core::schedule::{MachineId, Schedule};
use std::collections::HashMap;

/// One open machine.
#[derive(Clone, Debug)]
struct PoolMachine {
    machine_type: TypeIndex,
    capacity: u64,
    load: u64,
    active: Vec<JobId>,
    /// Full assignment history, for the final schedule.
    history: Vec<JobId>,
    label: String,
    /// Crashed/revoked by a fault plan: capacity is zeroed, so every
    /// further placement fails, and the still-active jobs were displaced.
    retired: bool,
}

/// Error from an infeasible placement attempt.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PlacementError {
    /// Machine that would overflow.
    pub machine: MachineId,
    /// Its capacity.
    pub capacity: u64,
    /// Load after the attempted placement.
    pub attempted_load: u64,
}

impl std::fmt::Display for PlacementError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "placement would overload machine {}: {} > {}",
            self.machine, self.attempted_load, self.capacity
        )
    }
}

impl std::error::Error for PlacementError {}

/// The set of machines opened so far in a simulation.
#[derive(Clone, Debug)]
pub struct MachinePool {
    catalog: Catalog,
    machines: Vec<PoolMachine>,
    job_location: HashMap<JobId, MachineId>,
}

impl MachinePool {
    /// An empty pool over a catalog.
    #[must_use]
    pub fn new(catalog: Catalog) -> Self {
        Self {
            catalog,
            machines: Vec::new(),
            job_location: HashMap::new(),
        }
    }

    /// The catalog.
    #[must_use]
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Opens a new machine of the given type.
    pub fn create(&mut self, machine_type: TypeIndex, label: impl Into<String>) -> MachineId {
        let id = MachineId(bshm_core::convert::index_u32(self.machines.len()));
        self.machines.push(PoolMachine {
            machine_type,
            capacity: self.catalog.get(machine_type).capacity,
            load: 0,
            active: Vec::new(),
            history: Vec::new(),
            label: label.into(),
            retired: false,
        });
        id
    }

    /// Number of machines ever opened.
    #[must_use]
    pub fn len(&self) -> usize {
        self.machines.len()
    }

    /// Whether no machine was opened yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.machines.is_empty()
    }

    /// Catalog type of a machine.
    #[must_use]
    pub fn machine_type(&self, m: MachineId) -> TypeIndex {
        self.machines[m.0 as usize].machine_type
    }

    /// Current total size of active jobs on the machine.
    #[must_use]
    pub fn load(&self, m: MachineId) -> u64 {
        self.machines[m.0 as usize].load
    }

    /// Remaining capacity.
    #[must_use]
    pub fn residual(&self, m: MachineId) -> u64 {
        let pm = &self.machines[m.0 as usize];
        pm.capacity - pm.load
    }

    /// Total capacity of the machine.
    #[must_use]
    pub fn capacity(&self, m: MachineId) -> u64 {
        self.machines[m.0 as usize].capacity
    }

    /// Cost rate of the machine's type (charged per tick while busy).
    #[must_use]
    pub fn rate(&self, m: MachineId) -> u64 {
        self.catalog
            .get(self.machines[m.0 as usize].machine_type)
            .rate
    }

    /// Whether the machine currently hosts no job.
    #[must_use]
    pub fn is_idle(&self, m: MachineId) -> bool {
        self.machines[m.0 as usize].active.is_empty()
    }

    /// Number of currently active jobs on the machine.
    #[must_use]
    pub fn active_count(&self, m: MachineId) -> usize {
        self.machines[m.0 as usize].active.len()
    }

    /// The machine currently hosting `job`, if it is active.
    #[must_use]
    pub fn locate(&self, job: JobId) -> Option<MachineId> {
        self.job_location.get(&job).copied()
    }

    /// The jobs currently active on the machine, in placement order.
    #[must_use]
    pub fn active_jobs(&self, m: MachineId) -> &[JobId] {
        &self.machines[m.0 as usize].active
    }

    /// Whether the machine was crashed/revoked ([`MachinePool::crash`]).
    #[must_use]
    pub fn is_retired(&self, m: MachineId) -> bool {
        self.machines[m.0 as usize].retired
    }

    /// Crashes/revokes a machine: its still-active jobs are evicted and
    /// returned (sorted by id, so fault handling is deterministic), its
    /// capacity drops to zero and it is marked retired — every later
    /// [`MachinePool::place`] on it fails. The assignment history is kept:
    /// the final [`Schedule`] still shows what ran there before the crash.
    pub fn crash(&mut self, m: MachineId) -> Vec<JobId> {
        let pm = &mut self.machines[m.0 as usize];
        pm.retired = true;
        pm.capacity = 0;
        pm.load = 0;
        let mut displaced = std::mem::take(&mut pm.active);
        displaced.sort_unstable();
        for j in &displaced {
            self.job_location.remove(j);
        }
        displaced
    }

    /// Places an active job of the given size; fails (leaving state
    /// unchanged) when the machine would overflow.
    pub fn place(&mut self, m: MachineId, job: JobId, size: u64) -> Result<(), PlacementError> {
        let pm = &mut self.machines[m.0 as usize];
        let attempted = pm.load + size;
        if attempted > pm.capacity {
            return Err(PlacementError {
                machine: m,
                capacity: pm.capacity,
                attempted_load: attempted,
            });
        }
        pm.load = attempted;
        pm.active.push(job);
        pm.history.push(job);
        self.job_location.insert(job, m);
        Ok(())
    }

    /// Removes a departing job; panics if the job is not active (driver
    /// bug, not scheduler bug).
    pub fn remove(&mut self, job: JobId, size: u64) -> MachineId {
        #[expect(
            clippy::expect_used,
            reason = "documented contract — a departure for an inactive job is a driver bug"
        )]
        let m = self
            .job_location
            .remove(&job)
            .expect("departing job is active");
        let pm = &mut self.machines[m.0 as usize];
        #[expect(
            clippy::expect_used,
            reason = "job_location and the machine's active list are updated together"
        )]
        let pos = pm
            .active
            .iter()
            .position(|&j| j == job)
            .expect("job listed on its machine");
        pm.active.swap_remove(pos);
        pm.load -= size;
        m
    }

    /// Converts the pool's full history into a [`Schedule`].
    #[must_use]
    pub fn into_schedule(self) -> Schedule {
        let mut schedule = Schedule::new();
        for pm in self.machines {
            let id = schedule.add_machine(pm.machine_type, pm.label);
            for j in pm.history {
                schedule.assign(id, j);
            }
        }
        schedule
    }

    /// Number of machines of each type that are currently busy.
    #[must_use]
    pub fn busy_by_type(&self) -> Vec<usize> {
        let mut out = vec![0usize; self.catalog.len()];
        for pm in &self.machines {
            if !pm.active.is_empty() {
                out[pm.machine_type.0] += 1;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bshm_core::machine::MachineType;

    fn pool() -> MachinePool {
        let catalog = Catalog::new(vec![MachineType::new(4, 1), MachineType::new(16, 3)]).unwrap();
        MachinePool::new(catalog)
    }

    #[test]
    fn create_place_remove() {
        let mut p = pool();
        let m = p.create(TypeIndex(0), "m0");
        assert!(p.is_idle(m));
        p.place(m, JobId(1), 3).unwrap();
        assert_eq!(p.load(m), 3);
        assert_eq!(p.residual(m), 1);
        assert_eq!(p.locate(JobId(1)), Some(m));
        assert!(!p.is_idle(m));
        let back = p.remove(JobId(1), 3);
        assert_eq!(back, m);
        assert!(p.is_idle(m));
        assert_eq!(p.locate(JobId(1)), None);
    }

    #[test]
    fn rejects_overflow_without_mutating() {
        let mut p = pool();
        let m = p.create(TypeIndex(0), "m0");
        p.place(m, JobId(1), 3).unwrap();
        let err = p.place(m, JobId(2), 2).unwrap_err();
        assert_eq!(err.attempted_load, 5);
        assert_eq!(p.load(m), 3);
        assert_eq!(p.active_count(m), 1);
    }

    #[test]
    fn history_survives_departures() {
        let mut p = pool();
        let m = p.create(TypeIndex(1), "big");
        p.place(m, JobId(1), 3).unwrap();
        p.remove(JobId(1), 3);
        p.place(m, JobId(2), 5).unwrap();
        let s = p.into_schedule();
        assert_eq!(s.machines()[0].jobs, vec![JobId(1), JobId(2)]);
        assert_eq!(s.machines()[0].machine_type, TypeIndex(1));
    }

    #[test]
    fn crash_evicts_and_retires() {
        let mut p = pool();
        let m = p.create(TypeIndex(1), "big");
        p.place(m, JobId(5), 3).unwrap();
        p.place(m, JobId(2), 5).unwrap();
        let displaced = p.crash(m);
        // Sorted by id for deterministic recovery ordering.
        assert_eq!(displaced, vec![JobId(2), JobId(5)]);
        assert!(p.is_retired(m));
        assert!(p.is_idle(m));
        assert_eq!(p.load(m), 0);
        assert_eq!(p.locate(JobId(2)), None);
        // A retired machine refuses every placement (capacity is zero).
        assert!(p.place(m, JobId(9), 1).is_err());
        // History survives: the schedule still shows the pre-crash runs.
        let s = p.into_schedule();
        assert_eq!(s.machines()[0].jobs, vec![JobId(5), JobId(2)]);
    }

    #[test]
    fn active_jobs_lists_current_residents() {
        let mut p = pool();
        let m = p.create(TypeIndex(1), "big");
        p.place(m, JobId(1), 3).unwrap();
        p.place(m, JobId(2), 5).unwrap();
        assert_eq!(p.active_jobs(m), &[JobId(1), JobId(2)]);
        p.remove(JobId(1), 3);
        assert_eq!(p.active_jobs(m), &[JobId(2)]);
    }

    #[test]
    fn busy_by_type_counts() {
        let mut p = pool();
        let a = p.create(TypeIndex(0), "a");
        let _b = p.create(TypeIndex(0), "b");
        let c = p.create(TypeIndex(1), "c");
        p.place(a, JobId(1), 1).unwrap();
        p.place(c, JobId(2), 10).unwrap();
        assert_eq!(p.busy_by_type(), vec![1, 1]);
    }
}
