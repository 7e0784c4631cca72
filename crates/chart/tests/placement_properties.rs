//! Property tests for the 2-allocation placement and strip partitioning.

use bshm_chart::placement::{
    lowest_feasible_altitude, place_jobs, verify_two_allocation, PlacedJob, PlacementOrder,
};
use bshm_chart::strips::schedule_strips;
use bshm_core::job::Job;
use bshm_core::machine::TypeIndex;
use bshm_core::schedule::Schedule;
use proptest::prelude::*;

fn arb_jobs(max_size: u64) -> impl Strategy<Value = Vec<Job>> {
    prop::collection::vec((1..=max_size, 0u64..150, 1u64..=50), 1..50).prop_map(|raw| {
        raw.into_iter()
            .enumerate()
            .map(|(i, (size, arr, dur))| Job::new(i as u32, size, arr, arr + dur))
            .collect()
    })
}

/// Strip height (in real units) of the capacity-16 strips below.
const STRIP: u64 = 8;

const ORDERS: [PlacementOrder; 3] = [
    PlacementOrder::Arrival,
    PlacementOrder::SizeDescending,
    PlacementOrder::DurationDescending,
];

/// Jobs crowded onto a few timestamps (equal arrivals and departures), with
/// zero-gap chains (`d_i = a_{i+1}`) and sizes up to the strip height.
fn arb_tied_jobs() -> impl Strategy<Value = Vec<Job>> {
    prop::collection::vec((1..=STRIP, 0u64..12, 1u64..=6, 0u64..3), 1..30).prop_map(|raw| {
        let mut previous_departure = None;
        raw.into_iter()
            .enumerate()
            .map(|(i, (size, arr, dur, chain))| {
                // One job in three starts exactly when the previous one ends.
                let arrival = match previous_departure {
                    Some(d) if chain == 0 => d,
                    _ => arr,
                };
                previous_departure = Some(arrival + dur);
                Job::new(i as u32, size, arrival, arrival + dur)
            })
            .collect()
    })
}

/// Capacity of the machines whose strips the sizes below fill exactly.
const CAPACITY: u64 = 2 * STRIP;

/// Many jobs on few timestamps: equal arrivals and equal departures, and
/// sizes that are often a whole strip or a whole machine, so rectangles
/// stack edge to edge and touch at one altitude.
fn arb_crowded_jobs() -> impl Strategy<Value = Vec<Job>> {
    prop::collection::vec((0u8..3, 1..=CAPACITY, 0u64..8, 1u64..=4), 1..80).prop_map(|raw| {
        raw.into_iter()
            .enumerate()
            .map(|(i, (kind, size, arr, dur))| {
                let size = [STRIP, CAPACITY, size][usize::from(kind)];
                Job::new(i as u32, size, arr, arr + dur)
            })
            .collect()
    })
}

/// The greedy rule's spec, point by point: for every altitude (doubled
/// units), whether two rectangles of `placed` cover it at some time of
/// `job`'s interval. Times and altitudes are integers, so sampling each
/// integer covers every point.
fn doubly_covered(placed: &[PlacedJob], job: &Job) -> Vec<bool> {
    let top = placed.iter().map(PlacedJob::hi2).max().unwrap_or(0) as usize;
    let mut twice = vec![false; top];
    for t in job.arrival..job.departure {
        let mut cover = vec![0u32; top];
        for p in placed.iter().filter(|p| p.job.active_at(t)) {
            for c in &mut cover[p.lo2 as usize..p.hi2() as usize] {
                *c += 1;
            }
        }
        for (x, &c) in cover.iter().enumerate() {
            twice[x] |= c >= 2;
        }
    }
    twice
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn each_altitude_is_the_lowest_without_a_triple(jobs in arb_tied_jobs()) {
        for order in ORDERS {
            let p = place_jobs(&jobs, order);
            for (i, q) in p.placed().iter().enumerate() {
                let twice = doubly_covered(&p.placed()[..i], &q.job);
                let height = 2 * q.job.size as usize;
                let triple_at = |a: usize| twice.iter().skip(a).take(height).any(|&b| b);
                let lo2 = q.lo2 as usize;
                prop_assert!(!triple_at(lo2), "{order:?}: {:?} at {lo2} makes a triple", q.job);
                for a in 0..lo2 {
                    prop_assert!(triple_at(a), "{order:?}: {:?} fits lower, at {a}", q.job);
                }
            }
        }
    }

    #[test]
    fn skyline_matches_the_per_segment_search(
        crowded in arb_crowded_jobs(),
        tied in arb_tied_jobs(),
    ) {
        for jobs in [crowded, tied] {
            let p = place_jobs(&jobs, PlacementOrder::Arrival);
            for (i, q) in p.placed().iter().enumerate() {
                let live: Vec<PlacedJob> = p.placed()[..i]
                    .iter()
                    .filter(|r| r.job.departure > q.job.arrival)
                    .copied()
                    .collect();
                prop_assert_eq!(q.lo2, lowest_feasible_altitude(&live, &q.job), "{:?}", q.job);
            }
        }
    }

    #[test]
    fn no_triples_any_order(jobs in arb_jobs(32)) {
        for order in ORDERS {
            let p = place_jobs(&jobs, order);
            prop_assert!(verify_two_allocation(&p).is_none());
        }
    }

    #[test]
    fn placement_is_a_permutation(jobs in arb_jobs(32)) {
        let p = place_jobs(&jobs, PlacementOrder::Arrival);
        prop_assert_eq!(p.len(), jobs.len());
        let mut placed_ids: Vec<u32> = p.placed().iter().map(|q| q.job.id.0).collect();
        placed_ids.sort_unstable();
        let mut input_ids: Vec<u32> = jobs.iter().map(|j| j.id.0).collect();
        input_ids.sort_unstable();
        prop_assert_eq!(placed_ids, input_ids);
    }

    #[test]
    fn strips_partition_every_job(jobs in arb_jobs(16), bottom in 1u64..6) {
        // capacity 16 machines, strip height (doubled) 16.
        let p = place_jobs(&jobs, PlacementOrder::Arrival);
        let mut schedule = Schedule::new();
        let leftovers = schedule_strips(&mut schedule, &p, 16, Some(bottom), TypeIndex(0), "t");
        // Scheduled + leftover = all jobs, no duplicates.
        prop_assert_eq!(schedule.assignment_count() + leftovers.len(), jobs.len());
        let mut ids: Vec<u32> = schedule
            .machines()
            .iter()
            .flat_map(|m| m.jobs.iter().map(|j| j.0))
            .chain(leftovers.iter().map(|j| j.id.0))
            .collect();
        ids.sort_unstable();
        ids.dedup();
        prop_assert_eq!(ids.len(), jobs.len());
    }

    #[test]
    fn no_bottom_limit_means_no_leftovers(jobs in arb_jobs(16)) {
        let p = place_jobs(&jobs, PlacementOrder::Arrival);
        let mut schedule = Schedule::new();
        let leftovers = schedule_strips(&mut schedule, &p, 16, None, TypeIndex(0), "t");
        prop_assert!(leftovers.is_empty());
        prop_assert_eq!(schedule.assignment_count(), jobs.len());
    }

    #[test]
    fn deeper_bottom_strips_schedule_weakly_more(jobs in arb_jobs(16)) {
        let p = place_jobs(&jobs, PlacementOrder::Arrival);
        let mut prev_scheduled = 0usize;
        for bottom in 1..8u64 {
            let mut schedule = Schedule::new();
            let leftovers =
                schedule_strips(&mut schedule, &p, 16, Some(bottom), TypeIndex(0), "t");
            let scheduled = jobs.len() - leftovers.len();
            prop_assert!(scheduled >= prev_scheduled, "bottom {bottom}");
            prev_scheduled = scheduled;
        }
    }

    #[test]
    fn boundary_machines_host_one_job_at_a_time(jobs in arb_jobs(16)) {
        let p = place_jobs(&jobs, PlacementOrder::Arrival);
        let mut schedule = Schedule::new();
        schedule_strips(&mut schedule, &p, 16, None, TypeIndex(0), "t");
        let by_id: std::collections::HashMap<_, _> =
            jobs.iter().map(|j| (j.id, *j)).collect();
        for m in schedule.machines() {
            if !m.label.contains("bnd") {
                continue;
            }
            // No two jobs on a boundary machine may overlap in time.
            for (a, ja) in m.jobs.iter().enumerate() {
                for jb in &m.jobs[a + 1..] {
                    let (ia, ib) = (by_id[ja].interval(), by_id[jb].interval());
                    prop_assert!(!ia.overlaps(&ib), "{ja:?} {jb:?} on {}", m.label);
                }
            }
        }
    }
}
