//! Schedule feasibility validation.
//!
//! A feasible BSHM schedule (§I–II) must:
//! 1. assign every job of the instance to exactly one machine,
//! 2. reference only jobs that exist,
//! 3. never exceed any machine's capacity: at every time `t`, the total
//!    size of the machine's active jobs is at most `g_i`.
//!
//! (Whole-interval, uninterrupted execution on a single machine is implied
//! by the representation: a job is one assignment covering `I(J)`.)

use crate::cost::job_index;
use crate::instance::Instance;
use crate::job::{Job, JobId};
use crate::schedule::{MachineId, Schedule};
use crate::time::TimePoint;
use std::collections::HashMap;
use std::fmt;

/// A feasibility violation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ValidationError {
    /// A job from the instance never appears in the schedule.
    UnassignedJob(JobId),
    /// A job appears in two machines (or twice in one).
    DoublyAssignedJob(JobId),
    /// The schedule references a job the instance does not contain.
    UnknownJob(JobId),
    /// A machine's load exceeds its capacity at some time.
    CapacityExceeded {
        /// Offending machine.
        machine: MachineId,
        /// A witness time at which the load exceeds capacity.
        at: TimePoint,
        /// The load at the witness time.
        load: u64,
        /// The machine's capacity.
        capacity: u64,
    },
}

impl fmt::Display for ValidationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidationError::UnassignedJob(j) => write!(f, "job {j} is not assigned"),
            ValidationError::DoublyAssignedJob(j) => write!(f, "job {j} is assigned twice"),
            ValidationError::UnknownJob(j) => write!(f, "job {j} is not in the instance"),
            ValidationError::CapacityExceeded {
                machine,
                at,
                load,
                capacity,
            } => write!(
                f,
                "machine {machine} overloaded at t={at}: load {load} > capacity {capacity}"
            ),
        }
    }
}

impl std::error::Error for ValidationError {}

/// Validates a schedule against an instance. Returns the first violation
/// found, or `Ok(())` for a feasible schedule.
pub fn validate_schedule(schedule: &Schedule, instance: &Instance) -> Result<(), ValidationError> {
    let jobs = job_index(instance);
    let mut assigned: HashMap<JobId, u32> = HashMap::with_capacity(jobs.len());
    for (mid, machine) in schedule.iter() {
        let capacity = instance.catalog().get(machine.machine_type).capacity;
        let mut mjobs: Vec<Job> = Vec::with_capacity(machine.jobs.len());
        for &jid in &machine.jobs {
            let Some(job) = jobs.get(&jid) else {
                return Err(ValidationError::UnknownJob(jid));
            };
            *assigned.entry(jid).or_insert(0) += 1;
            if assigned[&jid] > 1 {
                return Err(ValidationError::DoublyAssignedJob(jid));
            }
            mjobs.push(*job);
        }
        if let Some((at, load)) = peak_overload(&mjobs, capacity) {
            return Err(ValidationError::CapacityExceeded {
                machine: mid,
                at,
                load,
                capacity,
            });
        }
    }
    for j in instance.jobs() {
        if !assigned.contains_key(&j.id) {
            return Err(ValidationError::UnassignedJob(j.id));
        }
    }
    Ok(())
}

/// Sweepline over one machine's jobs; returns a witness `(time, load)` with
/// `load > capacity`, or `None` when the machine is never overloaded.
fn peak_overload(jobs: &[Job], capacity: u64) -> Option<(TimePoint, u64)> {
    // Events: +size at arrival, −size at departure; process departures first
    // at equal times (half-open intervals).
    let mut events: Vec<(TimePoint, bool, u64)> = Vec::with_capacity(jobs.len() * 2);
    for j in jobs {
        events.push((j.arrival, false, j.size)); // false = arrival sorts after...
        events.push((j.departure, true, j.size));
    }
    // Sort by time; at equal time, departures (true) before arrivals (false):
    // `true > false`, so sort key (time, !is_departure) — simpler: (time, is_arrival).
    events.sort_unstable_by_key(|&(t, is_departure, _)| (t, u8::from(!is_departure)));
    let mut load: u64 = 0;
    for (t, is_departure, size) in events {
        if is_departure {
            load -= size;
        } else {
            load += size;
            if load > capacity {
                return Some((t, load));
            }
        }
    }
    None
}

/// Convenience: validate and panic with the violation message on failure.
/// Intended for tests and examples.
#[expect(
    clippy::panic,
    reason = "documented panicking assertion helper for tests and examples"
)]
pub fn assert_feasible(schedule: &Schedule, instance: &Instance) {
    if let Err(e) = validate_schedule(schedule, instance) {
        panic!("infeasible schedule: {e}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{Catalog, MachineType, TypeIndex};

    fn instance() -> Instance {
        let catalog = Catalog::new(vec![MachineType::new(4, 1), MachineType::new(16, 3)]).unwrap();
        Instance::new(
            vec![
                Job::new(0, 3, 0, 10),
                Job::new(1, 2, 5, 15),
                Job::new(2, 10, 0, 4),
            ],
            catalog,
        )
        .unwrap()
    }

    #[test]
    fn accepts_feasible() {
        let inst = instance();
        let mut s = Schedule::new();
        let m0 = s.add_machine(TypeIndex(1), "a");
        s.assign(m0, JobId(0));
        s.assign(m0, JobId(1));
        s.assign(m0, JobId(2));
        // Loads: [0,4): 13, [4,5): 3, [5,10): 5, [10,15): 2 — all ≤ 16.
        assert_eq!(validate_schedule(&s, &inst), Ok(()));
    }

    #[test]
    fn detects_missing_job() {
        let inst = instance();
        let mut s = Schedule::new();
        let m0 = s.add_machine(TypeIndex(1), "a");
        s.assign(m0, JobId(0));
        s.assign(m0, JobId(2));
        assert_eq!(
            validate_schedule(&s, &inst),
            Err(ValidationError::UnassignedJob(JobId(1)))
        );
    }

    #[test]
    fn detects_double_assignment() {
        let inst = instance();
        let mut s = Schedule::new();
        let m0 = s.add_machine(TypeIndex(1), "a");
        let m1 = s.add_machine(TypeIndex(1), "b");
        s.assign(m0, JobId(0));
        s.assign(m1, JobId(0));
        s.assign(m0, JobId(1));
        s.assign(m0, JobId(2));
        assert_eq!(
            validate_schedule(&s, &inst),
            Err(ValidationError::DoublyAssignedJob(JobId(0)))
        );
    }

    #[test]
    fn detects_unknown_job() {
        let inst = instance();
        let mut s = Schedule::new();
        let m0 = s.add_machine(TypeIndex(0), "a");
        s.assign(m0, JobId(99));
        assert_eq!(
            validate_schedule(&s, &inst),
            Err(ValidationError::UnknownJob(JobId(99)))
        );
    }

    #[test]
    fn detects_overload() {
        let inst = instance();
        let mut s = Schedule::new();
        // Jobs 0 (size 3) and 2 (size 10) overlap on [0,4): load 13 > 4.
        let m0 = s.add_machine(TypeIndex(0), "small");
        s.assign(m0, JobId(0));
        s.assign(m0, JobId(2));
        let m1 = s.add_machine(TypeIndex(0), "other");
        s.assign(m1, JobId(1));
        match validate_schedule(&s, &inst) {
            Err(ValidationError::CapacityExceeded {
                machine,
                load,
                capacity,
                ..
            }) => {
                assert_eq!(machine, MachineId(0));
                assert_eq!(load, 13);
                assert_eq!(capacity, 4);
            }
            other => panic!("expected overload, got {other:?}"),
        }
    }

    #[test]
    fn back_to_back_jobs_do_not_overlap() {
        // Departure at t frees capacity for an arrival at t (half-open).
        let catalog = Catalog::new(vec![MachineType::new(4, 1)]).unwrap();
        let inst =
            Instance::new(vec![Job::new(0, 4, 0, 10), Job::new(1, 4, 10, 20)], catalog).unwrap();
        let mut s = Schedule::new();
        let m = s.add_machine(TypeIndex(0), "reuse");
        s.assign(m, JobId(0));
        s.assign(m, JobId(1));
        assert_eq!(validate_schedule(&s, &inst), Ok(()));
    }
}
