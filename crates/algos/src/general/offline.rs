//! GENERAL-OFFLINE (§V): postorder iterative scheduling over the type
//! forest, conjectured `O(√m)`-approximate.

use crate::general::forest::TypeForest;
use bshm_chart::placement::{place_jobs_logged, PlacementOrder};
use bshm_chart::strips::schedule_strips_logged;
use bshm_core::instance::Instance;
use bshm_core::job::Job;
use bshm_core::machine::TypeIndex;
use bshm_core::normalize::NormalizedCatalog;
use bshm_core::ops::DecisionLog;
use bshm_core::schedule::Schedule;

/// Runs the general-case offline algorithm.
///
/// Jobs enter at their size-class node. Visiting the forest in postorder,
/// each node `j` builds a demand chart of its pending jobs, slices it into
/// `g_j/2` strips and keeps the bottom `⌈(1/√|C(k)|)·r̂_k/r̂_j⌉` strips on
/// type-`j` machines (`k` = parent); leftovers flow to the parent. Roots
/// schedule everything that reaches them.
///
/// On a DEC catalog the forest is a path and this degenerates to a
/// DEC-OFFLINE-style sweep; on an INC catalog every node is a root and it
/// *is* INC-OFFLINE.
#[must_use]
pub fn general_offline(instance: &Instance, order: PlacementOrder) -> Schedule {
    general_offline_logged(instance, order, &mut DecisionLog::disabled())
}

/// [`general_offline`] with per-job op accounting: placement and strip
/// work at every forest node a job visits accumulate into that job's
/// single trace (leftovers flowing to the parent resume it).
#[must_use]
pub fn general_offline_logged(
    instance: &Instance,
    order: PlacementOrder,
    log: &mut DecisionLog,
) -> Schedule {
    let norm = NormalizedCatalog::from_catalog(instance.catalog());
    let forest = TypeForest::build(&norm);
    let m = norm.len();

    // Pending jobs per node; jobs start at their size class.
    let mut pending: Vec<Vec<Job>> = vec![Vec::new(); m];
    for job in instance.jobs() {
        #[expect(
            clippy::expect_used,
            reason = "instances are validated on construction — every job fits the top type"
        )]
        let class = norm
            .catalog()
            .size_class(job.size)
            .expect("instance validated; top type survives normalization");
        pending[class.0].push(*job);
    }

    let mut schedule = Schedule::new();
    for &j in forest.postorder() {
        let jobs = std::mem::take(&mut pending[j]);
        if jobs.is_empty() {
            continue;
        }
        let g_j = norm.catalog().get(TypeIndex(j)).capacity;
        let placement = place_jobs_logged(&jobs, order, log);
        let bottom = forest.bottom_strips(j, &norm);
        let leftovers = schedule_strips_logged(
            &mut schedule,
            &placement,
            g_j,
            bottom,
            TypeIndex(j),
            &format!("gen-off/n{j}"),
            log,
        );
        match forest.parent(j) {
            Some(k) => pending[k].extend(leftovers),
            None => debug_assert!(leftovers.is_empty(), "roots schedule everything"),
        }
    }
    norm.translate_schedule(&schedule)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bshm_core::cost::schedule_cost;
    use bshm_core::lower_bound::lower_bound;
    use bshm_core::machine::{Catalog, MachineType};
    use bshm_core::validate::validate_schedule;

    fn sawtooth_catalog() -> Catalog {
        // Amortized: 0.25, 0.125, 0.2, 0.0625 — neither monotone.
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
    fn feasible_on_sawtooth_catalog() {
        let inst = Instance::new(pseudo_jobs(120, 128, 300), sawtooth_catalog()).unwrap();
        let s = general_offline(&inst, PlacementOrder::Arrival);
        assert_eq!(validate_schedule(&s, &inst), Ok(()));
        let cost = schedule_cost(&s, &inst);
        let lb = lower_bound(&inst);
        // Generous O(√m) sanity cap.
        assert!(cost <= 40 * lb, "cost {cost} vs LB {lb}");
    }

    #[test]
    fn matches_inc_offline_on_inc_catalog() {
        let catalog = Catalog::new(vec![
            MachineType::new(4, 1),
            MachineType::new(16, 8),
            MachineType::new(64, 64),
        ])
        .unwrap();
        let inst = Instance::new(pseudo_jobs(60, 64, 200), catalog).unwrap();
        let g = general_offline(&inst, PlacementOrder::Arrival);
        let i = crate::inc::inc_offline(&inst, PlacementOrder::Arrival);
        assert_eq!(validate_schedule(&g, &inst), Ok(()));
        // Same partition, same per-class machinery → identical cost.
        assert_eq!(schedule_cost(&g, &inst), schedule_cost(&i, &inst));
    }

    #[test]
    fn feasible_on_dec_catalog() {
        let catalog = Catalog::new(vec![
            MachineType::new(4, 1),
            MachineType::new(16, 2),
            MachineType::new(64, 4),
        ])
        .unwrap();
        let inst = Instance::new(pseudo_jobs(80, 64, 200), catalog).unwrap();
        let s = general_offline(&inst, PlacementOrder::Arrival);
        assert_eq!(validate_schedule(&s, &inst), Ok(()));
    }

    #[test]
    fn single_job_stays_in_class_or_ancestors() {
        let inst = Instance::new(vec![Job::new(0, 2, 0, 10)], sawtooth_catalog()).unwrap();
        let s = general_offline(&inst, PlacementOrder::Arrival);
        assert_eq!(validate_schedule(&s, &inst), Ok(()));
        let used: Vec<_> = s.machines().iter().filter(|m| !m.jobs.is_empty()).collect();
        assert_eq!(used.len(), 1);
        // Class 0's ancestor path is 0 → 1 → 3.
        assert!(matches!(used[0].machine_type.0, 0 | 1 | 3));
    }
}
