//! [`ScriptScheduler`]: replays a finished (offline) [`Schedule`] as an
//! [`OnlineScheduler`], so every algorithm in the workspace — including
//! the offline ones — can run wherever an online scheduler is expected:
//! the faulted driver, checkpoint restore and the resident service.
//!
//! Machines are materialized lazily, on the first arrival routed to each
//! scripted machine, which reproduces the machine-creation order the
//! online driver would have used. Jobs the script does not know (fault
//! injections) get a dedicated smallest-fitting machine labelled
//! `script-extra/…`. The script is replayed verbatim: if a scripted
//! machine was revoked by a crash, the scheduler keeps returning it and
//! the faulted driver reroutes those arrivals through the recovery
//! policy.

use crate::driver::{ArrivalView, OnlineScheduler};
use crate::pool::MachinePool;
use bshm_core::{JobId, MachineId, Schedule, TypeIndex};
use std::collections::HashMap;

/// An [`OnlineScheduler`] that replays a precomputed schedule.
#[derive(Clone, Debug)]
pub struct ScriptScheduler {
    /// Job → index into the scripted machine list.
    job_slot: HashMap<JobId, usize>,
    slot_type: Vec<TypeIndex>,
    slot_label: Vec<String>,
    /// Pool machine backing each slot, once materialized.
    slot_machine: Vec<Option<MachineId>>,
}

impl ScriptScheduler {
    /// Wraps a finished schedule (typically from an offline solver).
    #[must_use]
    pub fn new(schedule: &Schedule) -> Self {
        let mut s = ScriptScheduler {
            job_slot: HashMap::new(),
            slot_type: Vec::with_capacity(schedule.machine_count()),
            slot_label: Vec::with_capacity(schedule.machine_count()),
            slot_machine: vec![None; schedule.machine_count()],
        };
        for (slot, (_, ms)) in schedule.iter().enumerate() {
            s.slot_type.push(ms.machine_type);
            s.slot_label.push(ms.label.clone());
            for &j in &ms.jobs {
                s.job_slot.insert(j, slot);
            }
        }
        s
    }
}

impl OnlineScheduler for ScriptScheduler {
    fn on_arrival(&mut self, view: ArrivalView, pool: &mut MachinePool) -> MachineId {
        if let Some(&slot) = self.job_slot.get(&view.id) {
            if let Some(m) = self.slot_machine[slot] {
                return m;
            }
            let m = pool.create(self.slot_type[slot], self.slot_label[slot].clone());
            self.slot_machine[slot] = Some(m);
            return m;
        }
        // Injected job the script never planned for: isolate it on its
        // own smallest-fitting machine (the faulted driver drops
        // oversized jobs before they reach any scheduler, so a fitting
        // class always exists; the fallback keeps this total anyway).
        let ty = pool
            .catalog()
            .size_class(view.size)
            .unwrap_or(TypeIndex(pool.catalog().len() - 1));
        pool.create(ty, format!("script-extra/{}", view.id))
    }

    fn name(&self) -> &'static str {
        "script"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::run_online;
    use bshm_core::{validate_schedule, Catalog, Instance, Job, MachineType};

    fn instance() -> Instance {
        let catalog = Catalog::new(vec![MachineType::new(4, 1), MachineType::new(16, 3)]).unwrap();
        Instance::new(
            vec![
                Job::new(0, 3, 0, 10),
                Job::new(1, 2, 2, 8),
                Job::new(2, 10, 4, 12),
                Job::new(3, 4, 10, 20),
            ],
            catalog,
        )
        .unwrap()
    }

    #[test]
    fn replays_an_offline_schedule_exactly() {
        let inst = instance();
        let mut script = Schedule::new();
        let big = script.add_machine(TypeIndex(1), "big");
        for id in [0u32, 1, 2, 3] {
            script.assign(big, JobId(id));
        }
        let replayed = run_online(&inst, &mut ScriptScheduler::new(&script)).unwrap();
        assert_eq!(validate_schedule(&replayed, &inst), Ok(()));
        assert_eq!(replayed, script);
    }

    #[test]
    fn unknown_jobs_get_dedicated_machines() {
        let inst = instance();
        // Script only knows jobs 0..=2; job 3 is "injected".
        let mut script = Schedule::new();
        let big = script.add_machine(TypeIndex(1), "big");
        for id in [0u32, 1, 2] {
            script.assign(big, JobId(id));
        }
        let replayed = run_online(&inst, &mut ScriptScheduler::new(&script)).unwrap();
        assert_eq!(validate_schedule(&replayed, &inst), Ok(()));
        assert_eq!(replayed.machine_count(), 2);
        assert!(replayed.machines()[1].label.starts_with("script-extra/"));
        // Job 3 (size 4) fits the small type exactly.
        assert_eq!(replayed.machines()[1].machine_type, TypeIndex(0));
    }
}
