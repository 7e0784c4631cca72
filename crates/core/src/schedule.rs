//! Schedules: the output of every BSHM algorithm.
//!
//! A schedule is a set of *machine instances*, each of a catalog type, with
//! the jobs assigned to it. A machine is busy (and charged) exactly while
//! at least one of its jobs is active; it costs nothing while idle, so a
//! machine instance here is a logical container — "rent a type-i machine
//! whenever one of these jobs is running".

// A dropped Schedule or cost result hides accounting bugs: every public
// fn that returns a plain value is `#[must_use]`.
#![deny(clippy::must_use_candidate)]

use crate::job::JobId;
use crate::machine::TypeIndex;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a machine instance within a schedule.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct MachineId(pub u32);

impl fmt::Debug for MachineId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "M{}", self.0)
    }
}

impl fmt::Display for MachineId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "M{}", self.0)
    }
}

/// One machine instance and its assigned jobs.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct MachineSchedule {
    /// Catalog type of this machine.
    pub machine_type: TypeIndex,
    /// Jobs assigned to this machine, in assignment order.
    pub jobs: Vec<JobId>,
    /// Free-form provenance label (e.g. `"dec-off/it1/strip3"`), for
    /// debugging and the evaluation harness.
    pub label: String,
}

/// A complete job-to-machine assignment.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Schedule {
    machines: Vec<MachineSchedule>,
}

impl Schedule {
    /// An empty schedule.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Opens a new machine instance of the given type.
    #[must_use = "dropping the id orphans the machine: jobs can never be assigned to it"]
    pub fn add_machine(&mut self, machine_type: TypeIndex, label: impl Into<String>) -> MachineId {
        let id = MachineId(crate::convert::index_u32(self.machines.len()));
        self.machines.push(MachineSchedule {
            machine_type,
            jobs: Vec::new(),
            label: label.into(),
        });
        id
    }

    /// Assigns a job to a machine. The caller is responsible for feasibility
    /// (checked later by [`crate::validate::validate_schedule`]).
    pub fn assign(&mut self, machine: MachineId, job: JobId) {
        self.machines[machine.0 as usize].jobs.push(job);
    }

    /// All machine instances (including any that ended up with no jobs —
    /// empty machines are never busy and cost nothing).
    #[must_use]
    pub fn machines(&self) -> &[MachineSchedule] {
        &self.machines
    }

    /// The machine with the given id.
    #[must_use]
    pub fn machine(&self, id: MachineId) -> &MachineSchedule {
        &self.machines[id.0 as usize]
    }

    /// Number of machine instances (possibly including empty ones).
    #[must_use]
    pub fn machine_count(&self) -> usize {
        self.machines.len()
    }

    /// Number of machines that received at least one job.
    #[must_use]
    pub fn used_machine_count(&self) -> usize {
        self.machines.iter().filter(|m| !m.jobs.is_empty()).count()
    }

    /// Total number of job assignments.
    #[must_use]
    pub fn assignment_count(&self) -> usize {
        self.machines.iter().map(|m| m.jobs.len()).sum()
    }

    /// Drops machines that never received a job (cosmetic; cost-neutral).
    pub fn prune_empty(&mut self) {
        self.machines.retain(|m| !m.jobs.is_empty());
    }

    /// Merges another schedule's machines into this one, renumbering ids.
    pub fn absorb(&mut self, other: Schedule) {
        self.machines.extend(other.machines);
    }

    /// Iterates `(MachineId, &MachineSchedule)`.
    #[must_use = "the iterator is the only way to read assignments back out"]
    pub fn iter(&self) -> impl Iterator<Item = (MachineId, &MachineSchedule)> {
        self.machines
            .iter()
            .enumerate()
            .map(|(i, m)| (MachineId(crate::convert::index_u32(i)), m))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_query() {
        let mut s = Schedule::new();
        let m0 = s.add_machine(TypeIndex(0), "a");
        let m1 = s.add_machine(TypeIndex(1), "b");
        s.assign(m0, JobId(10));
        s.assign(m0, JobId(11));
        s.assign(m1, JobId(12));
        assert_eq!(s.machine_count(), 2);
        assert_eq!(s.assignment_count(), 3);
        assert_eq!(s.machine(m0).jobs, vec![JobId(10), JobId(11)]);
        assert_eq!(s.machine(m1).machine_type, TypeIndex(1));
        assert_eq!(s.machine(m1).label, "b");
    }

    #[test]
    fn prune_removes_only_empty() {
        let mut s = Schedule::new();
        let _empty = s.add_machine(TypeIndex(0), "empty");
        let used = s.add_machine(TypeIndex(0), "used");
        s.assign(used, JobId(1));
        assert_eq!(s.used_machine_count(), 1);
        s.prune_empty();
        assert_eq!(s.machine_count(), 1);
        assert_eq!(s.machines()[0].label, "used");
    }

    #[test]
    fn absorb_concatenates() {
        let mut a = Schedule::new();
        let m = a.add_machine(TypeIndex(0), "a0");
        a.assign(m, JobId(0));
        let mut b = Schedule::new();
        let m = b.add_machine(TypeIndex(1), "b0");
        b.assign(m, JobId(1));
        a.absorb(b);
        assert_eq!(a.machine_count(), 2);
        assert_eq!(a.machines()[1].machine_type, TypeIndex(1));
    }
}
