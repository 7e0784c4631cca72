//! The placement phase: a 2-allocation of job rectangles.
//!
//! Following the Dual Coloring algorithm's placement phase (Ren & Tang,
//! SPAA 2016, used by §III-A of the BSHM paper), every job `J` is drawn as
//! a rectangle spanning its active interval `I(J)` in time and `s(J)` in
//! the demand dimension, positioned at an *altitude*, such that **no three
//! rectangles share a point** (a *2-allocation*, after Gergov).
//!
//! We use a greedy rule: jobs are processed in a configurable order
//! (arrival order by default) and each is placed at the lowest altitude
//! where it would overlap at most one already-placed rectangle at every
//! time in its interval. The ≤2-overlap invariant holds by construction
//! and is re-checked by [`verify_two_allocation`]; containment below the
//! demand curve (which Gergov's construction additionally guarantees) is
//! not enforced and is *measured* instead (see [`overshoot`]).
//!
//! ### Two searches
//!
//! In arrival order every rectangle live at a job's arrival is active at
//! that instant, and none arrives later inside the job's window, so the
//! live set reduces to one altitude profile. The sweep keeps it as a
//! skyline that changes in place: a sorted vector of altitude edges (net
//! coverage change per altitude) and a min-heap of departures that retires
//! each rectangle once its departure is at or before the next arrival. A
//! job's altitude is the first gap of height `2·s(J)` below the next region
//! covered twice or more, found by walking the edges from the bottom. The
//! ablation orders (A1) place jobs whose neighbours may arrive inside their
//! window, so they keep the per-segment search
//! ([`lowest_feasible_altitude`]), which also serves as the skyline's test
//! oracle. Both searches merge touching blocked regions, so they give the
//! same altitude for the same live set.
//!
//! Op accounting follows the work each search does: the skyline charges one
//! comparison per edge its walk reads plus one per rectangle it retires;
//! the per-segment search charges one per candidate plus one per (time
//! segment, live rectangle) pair it sweeps.
//!
//! ### Units
//!
//! The whole crate works in **doubled demand units** so that strip
//! boundaries at multiples of `g_i / 2` stay integral for odd capacities:
//! a job of size `s` occupies `2s` doubled units, a strip of height
//! `g_i / 2` occupies `g_i` doubled units.

use bshm_core::job::Job;
use bshm_core::ops::{DecisionLog, OpProbe};
use bshm_core::time::{Interval, IntervalSet};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A job with its assigned altitude (in doubled units).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PlacedJob {
    /// The job.
    pub job: Job,
    /// Bottom of the rectangle, in doubled demand units.
    pub lo2: u64,
}

impl PlacedJob {
    /// Top of the rectangle (exclusive), in doubled demand units.
    #[must_use]
    pub fn hi2(&self) -> u64 {
        self.lo2 + 2 * self.job.size
    }

    /// The altitude extent `[lo2, hi2)` as an interval.
    #[must_use]
    pub fn altitude_span(&self) -> Interval {
        Interval::new(self.lo2, self.hi2())
    }
}

/// Processing order for the greedy placement.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum PlacementOrder {
    /// By `(arrival, id)` — the order used throughout the paper's offline
    /// algorithms and the default.
    #[default]
    Arrival,
    /// Largest size first (ties by arrival). Ablation A1.
    SizeDescending,
    /// Longest duration first (ties by arrival). Ablation A1.
    DurationDescending,
}

/// A completed 2-allocation.
#[derive(Clone, Debug, Default)]
pub struct Placement {
    placed: Vec<PlacedJob>,
}

impl Placement {
    /// The placed jobs, in placement order.
    #[must_use]
    pub fn placed(&self) -> &[PlacedJob] {
        &self.placed
    }

    /// Number of placed jobs.
    #[must_use]
    pub fn len(&self) -> usize {
        self.placed.len()
    }

    /// Whether no job was placed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.placed.is_empty()
    }

    /// Highest rectangle top over all jobs (doubled units); 0 when empty.
    #[must_use]
    pub fn max_top2(&self) -> u64 {
        self.placed.iter().map(PlacedJob::hi2).max().unwrap_or(0)
    }
}

/// Greedily places `jobs` as a 2-allocation.
///
/// In [`PlacementOrder::Arrival`] the jobs are swept in arrival order over
/// an altitude skyline of the live rectangles: a rectangle retires once its
/// departure is at or before the current arrival, and each job's altitude
/// is read off the skyline's altitude edges. The two ablation orders run
/// the per-segment search ([`lowest_feasible_altitude`]) over the whole
/// placement so far, since their candidates may arrive inside the job's
/// window.
///
/// ```
/// use bshm_chart::placement::{place_jobs, verify_two_allocation, PlacementOrder};
/// use bshm_core::Job;
/// let jobs = vec![Job::new(0, 4, 0, 10), Job::new(1, 4, 0, 10), Job::new(2, 4, 0, 10)];
/// let placement = place_jobs(&jobs, PlacementOrder::Arrival);
/// // Two rectangles may share every point; the third is lifted above them.
/// assert!(verify_two_allocation(&placement).is_none());
/// assert_eq!(placement.placed()[2].lo2, 8); // doubled units
/// ```
#[must_use]
pub fn place_jobs(jobs: &[Job], order: PlacementOrder) -> Placement {
    place_jobs_logged(jobs, order, &mut DecisionLog::disabled())
}

/// [`place_jobs`] with per-job op accounting: each job's altitude search is
/// charged to its [`bshm_core::ops::OpTrace`] in `log` as capacity
/// comparisons. In arrival order that is one per skyline edge the altitude
/// walk reads plus one per rectangle retired at the job's arrival. In the
/// ablation orders it is one per placed rectangle (the overlap filter) plus
/// one per (processed time segment, live rectangle) pair in the
/// blocked-altitude sweep. No machines exist at placement time, so nothing
/// is scanned or committed here — the strip phase
/// ([`crate::strips::schedule_strips_logged`]) finishes each decision.
#[must_use]
pub fn place_jobs_logged(jobs: &[Job], order: PlacementOrder, log: &mut DecisionLog) -> Placement {
    let mut ordered: Vec<Job> = jobs.to_vec();
    match order {
        PlacementOrder::Arrival => ordered.sort_unstable_by_key(|j| (j.arrival, j.id)),
        PlacementOrder::SizeDescending => {
            ordered.sort_unstable_by_key(|j| (Reverse(j.size), j.arrival, j.id));
        }
        PlacementOrder::DurationDescending => {
            ordered.sort_unstable_by_key(|j| (Reverse(j.duration()), j.arrival, j.id));
        }
    }
    let mut placement = Placement {
        placed: Vec::with_capacity(ordered.len()),
    };
    if order == PlacementOrder::Arrival {
        let mut skyline = Skyline::default();
        for job in ordered {
            let retired = skyline.retire_until(job.arrival);
            let (lo2, read) = skyline.lowest_altitude(2 * job.size);
            log.begin(job.id);
            log.compared(retired + read);
            let placed = PlacedJob { job, lo2 };
            skyline.add(&placed);
            placement.placed.push(placed);
        }
    } else {
        for job in ordered {
            let (lo2, work) = lowest_feasible_altitude_counted(&placement.placed, &job);
            log.begin(job.id);
            log.compared(work);
            placement.placed.push(PlacedJob { job, lo2 });
        }
    }
    placement
}

/// The rectangles live at the current arrival of an arrival-order sweep,
/// kept as an altitude skyline that changes in place.
///
/// Every live rectangle is active at the current arrival (it arrived no
/// later and departs after it), so one altitude profile describes the
/// whole of the next job's window: in arrival order no rectangle arrives
/// inside it, and departures inside it only lower the coverage. Both
/// vectors grow to the peak concurrency and are reused, so a job costs no
/// heap allocation once they have.
#[derive(Debug, Default)]
struct Skyline {
    /// `(altitude, net coverage change)` at every altitude (doubled units)
    /// where the coverage of the live rectangles changes, sorted by
    /// altitude, with no zero change.
    edges: Vec<(u64, i64)>,
    /// Live rectangles as `(departure, lo2, hi2)`, earliest departure first.
    live: BinaryHeap<Reverse<(u64, u64, u64)>>,
}

impl Skyline {
    /// Adds `delta` to the coverage change at `altitude`.
    fn shift(&mut self, altitude: u64, delta: i64) {
        match self.edges.binary_search_by_key(&altitude, |&(a, _)| a) {
            Ok(i) => {
                self.edges[i].1 += delta;
                if self.edges[i].1 == 0 {
                    self.edges.remove(i);
                }
            }
            Err(i) => self.edges.insert(i, (altitude, delta)),
        }
    }

    /// Adds a placed rectangle to the live set.
    fn add(&mut self, placed: &PlacedJob) {
        self.shift(placed.lo2, 1);
        self.shift(placed.hi2(), -1);
        self.live
            .push(Reverse((placed.job.departure, placed.lo2, placed.hi2())));
    }

    /// Retires every rectangle whose departure is at or before `t`;
    /// returns how many it retired.
    fn retire_until(&mut self, t: u64) -> u64 {
        let mut retired = 0;
        while let Some(&Reverse((departure, lo2, hi2))) = self.live.peek() {
            if departure > t {
                break;
            }
            self.live.pop();
            self.shift(lo2, -1);
            self.shift(hi2, 1);
            retired += 1;
        }
        retired
    }

    /// The lowest altitude `a` at which `[a, a + height)` misses every
    /// region covered twice or more, and the number of edges read to find
    /// it. Regions that touch read as one: their shared altitude holds one
    /// net change, which leaves the coverage at two or more.
    fn lowest_altitude(&self, height: u64) -> (u64, u64) {
        let mut a = 0u64;
        let mut cover = 0i64;
        let mut read = 0u64;
        for &(altitude, delta) in &self.edges {
            read += 1;
            let before = cover;
            cover += delta;
            if before < 2 && cover >= 2 {
                if a + height <= altitude {
                    break;
                }
            } else if before >= 2 && cover < 2 {
                a = altitude;
            }
        }
        (a, read)
    }
}

/// The lowest altitude (doubled units) at which `job`'s rectangle overlaps
/// at most one rectangle of `candidates` at every time in its interval.
///
/// This is the per-segment search the ablation orders run; it serves any
/// candidate set, and is the reference the arrival-order skyline is tested
/// against.
#[must_use]
pub fn lowest_feasible_altitude(candidates: &[PlacedJob], job: &Job) -> u64 {
    lowest_feasible_altitude_counted(candidates, job).0
}

/// [`lowest_feasible_altitude`] plus its deterministic comparison count:
/// one per candidate (the overlap filter) and one per (processed time
/// segment, live rectangle) pair in the blocked-altitude sweep.
///
/// Only segments that start at the window start or at an arrival are
/// processed. Between arrivals rectangles can only depart, so a segment
/// starting at a departure alone blocks a subset of what the segment
/// before it blocks.
fn lowest_feasible_altitude_counted(candidates: &[PlacedJob], job: &Job) -> (u64, u64) {
    let window = job.interval();
    let mut work = bshm_core::convert::count_u64(candidates.len());
    // Rectangles alive somewhere in the job's window.
    let alive: Vec<&PlacedJob> = candidates
        .iter()
        .filter(|p| p.job.interval().overlaps(&window))
        .collect();
    if alive.is_empty() {
        return (0, work);
    }
    // Segment starts: the window start and every arrival inside the window
    // (an alive rectangle arriving after the window start arrives before
    // its end).
    let mut grid: Vec<u64> = vec![window.start()];
    grid.extend(
        alive
            .iter()
            .map(|p| p.job.arrival)
            .filter(|&t| t > window.start()),
    );
    grid.sort_unstable();
    grid.dedup();

    // For each segment, collect the altitude regions covered by ≥ 2
    // rectangles; the new rectangle must miss their union.
    let mut blocked: Vec<Interval> = Vec::new();
    let mut events: Vec<(u64, i32)> = Vec::with_capacity(alive.len() * 2);
    for &seg_start in &grid {
        work += bshm_core::convert::count_u64(alive.len());
        events.clear();
        for p in alive.iter().filter(|p| p.job.active_at(seg_start)) {
            events.push((p.lo2, 1));
            events.push((p.hi2(), -1));
        }
        if events.len() < 4 {
            continue;
        }
        // Sweep altitude coverage to find regions with coverage ≥ 2.
        events.sort_unstable();
        let mut cover = 0i32;
        let mut start_two: Option<u64> = None;
        for &(alt, delta) in &events {
            let before = cover;
            cover += delta;
            if before < 2 && cover >= 2 {
                start_two = Some(alt);
            } else if before >= 2 && cover < 2 {
                let s = start_two.take().expect("balanced sweep");
                if s < alt {
                    blocked.push(Interval::new(s, alt));
                }
            }
        }
        debug_assert_eq!(cover, 0);
    }
    let blocked = IntervalSet::from_intervals(blocked);
    (first_gap(&blocked, 2 * job.size), work)
}

/// Lowest `a ≥ 0` such that `[a, a + height)` misses every blocked span.
fn first_gap(blocked: &IntervalSet, height: u64) -> u64 {
    let mut a = 0u64;
    for span in blocked.iter() {
        if a + height <= span.start() {
            break;
        }
        a = a.max(span.end());
    }
    a
}

/// Checks the 2-allocation invariant: no (time, altitude) point is covered
/// by three rectangles. Returns a witness `(time, altitude)` on violation.
#[must_use]
pub fn verify_two_allocation(placement: &Placement) -> Option<(u64, u64)> {
    let placed = placement.placed();
    let mut times: Vec<u64> = placed.iter().map(|p| p.job.arrival).collect();
    times.sort_unstable();
    times.dedup();
    for &t in &times {
        let mut events: Vec<(u64, i32)> = Vec::new();
        for p in placed.iter().filter(|p| p.job.active_at(t)) {
            events.push((p.lo2, 1));
            events.push((p.hi2(), -1));
        }
        events.sort_unstable_by_key(|&(a, d)| (a, d));
        let mut cover = 0i32;
        for (alt, delta) in events {
            cover += delta;
            if cover >= 3 {
                return Some((t, alt));
            }
        }
    }
    None
}

/// Overshoot of a placement above the demand curve: the maximum, over all
/// job-arrival times, of `max rectangle top − 2·s(𝒥, t)` in doubled units
/// (0 when the placement stays within the chart, as Gergov's construction
/// would). Reported by experiment A4.
#[must_use]
pub fn overshoot(placement: &Placement) -> u64 {
    let jobs: Vec<Job> = placement.placed().iter().map(|p| p.job).collect();
    let profile = bshm_core::sweep::load_profile(&jobs);
    let grid = bshm_core::sweep::event_grid(&jobs);
    let mut worst: u64 = 0;
    // Both the demand and the placement top are constant between events, so
    // sampling every segment start covers all of time.
    for &t in &grid {
        let demand2 = 2 * profile.at(t);
        let top = placement
            .placed()
            .iter()
            .filter(|q| q.job.active_at(t))
            .map(PlacedJob::hi2)
            .max()
            .unwrap_or(0);
        worst = worst.max(top.saturating_sub(demand2));
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(id: u32, size: u64, a: u64, d: u64) -> Job {
        Job::new(id, size, a, d)
    }

    #[test]
    fn single_job_at_bottom() {
        let p = place_jobs(&[job(0, 5, 0, 10)], PlacementOrder::Arrival);
        assert_eq!(p.placed()[0].lo2, 0);
        assert_eq!(p.placed()[0].hi2(), 10);
        assert!(verify_two_allocation(&p).is_none());
    }

    #[test]
    fn two_overlapping_jobs_may_share_altitude() {
        // ≤2 overlap allowed: both can sit at altitude 0.
        let p = place_jobs(
            &[job(0, 4, 0, 10), job(1, 4, 5, 15)],
            PlacementOrder::Arrival,
        );
        assert_eq!(p.placed()[0].lo2, 0);
        assert_eq!(p.placed()[1].lo2, 0);
        assert!(verify_two_allocation(&p).is_none());
    }

    #[test]
    fn third_concurrent_job_is_lifted() {
        let jobs = [job(0, 4, 0, 10), job(1, 4, 0, 10), job(2, 4, 0, 10)];
        let p = place_jobs(&jobs, PlacementOrder::Arrival);
        assert_eq!(p.placed()[0].lo2, 0);
        assert_eq!(p.placed()[1].lo2, 0);
        // Jobs 0 and 1 cover [0,8) twice → job 2 starts at 8.
        assert_eq!(p.placed()[2].lo2, 8);
        assert!(verify_two_allocation(&p).is_none());
    }

    #[test]
    fn gap_between_blocked_regions_is_used() {
        // Two big rectangles at [0,8) twice, two more at [12,20) twice,
        // leaving a gap [8,12) for a size-2 (doubled 4) job.
        let mut placed = vec![
            PlacedJob {
                job: job(0, 4, 0, 10),
                lo2: 0,
            },
            PlacedJob {
                job: job(1, 4, 0, 10),
                lo2: 0,
            },
            PlacedJob {
                job: job(2, 4, 0, 10),
                lo2: 12,
            },
            PlacedJob {
                job: job(3, 4, 0, 10),
                lo2: 12,
            },
        ];
        let new = job(4, 2, 0, 10);
        let lo = lowest_feasible_altitude(&placed, &new);
        assert_eq!(lo, 8);
        placed.push(PlacedJob { job: new, lo2: lo });
        let p = Placement { placed };
        assert!(verify_two_allocation(&p).is_none());
    }

    #[test]
    fn too_small_gap_is_skipped() {
        let placed = vec![
            PlacedJob {
                job: job(0, 4, 0, 10),
                lo2: 0,
            },
            PlacedJob {
                job: job(1, 4, 0, 10),
                lo2: 0,
            },
            PlacedJob {
                job: job(2, 4, 0, 10),
                lo2: 10,
            },
            PlacedJob {
                job: job(3, 4, 0, 10),
                lo2: 10,
            },
        ];
        // Gap [8,10) of 2 doubled units can't fit a size-2 job (4 units).
        let lo = lowest_feasible_altitude(&placed, &job(4, 2, 0, 10));
        assert_eq!(lo, 18);
    }

    #[test]
    fn disjoint_in_time_stack_at_bottom() {
        let jobs = [job(0, 4, 0, 10), job(1, 4, 10, 20), job(2, 4, 20, 30)];
        let p = place_jobs(&jobs, PlacementOrder::Arrival);
        for pj in p.placed() {
            assert_eq!(pj.lo2, 0);
        }
    }

    #[test]
    fn blocking_respects_time_segments() {
        // Pair of rectangles only during [0,5); a job on [5,10) is free.
        let placed = vec![
            PlacedJob {
                job: job(0, 4, 0, 5),
                lo2: 0,
            },
            PlacedJob {
                job: job(1, 4, 0, 5),
                lo2: 0,
            },
        ];
        assert_eq!(lowest_feasible_altitude(&placed, &job(2, 4, 5, 10)), 0);
        // But a job spanning the pair is blocked below 8.
        assert_eq!(lowest_feasible_altitude(&placed, &job(3, 4, 4, 10)), 8);
    }

    #[test]
    fn verify_detects_triples() {
        let placed = vec![
            PlacedJob {
                job: job(0, 4, 0, 10),
                lo2: 0,
            },
            PlacedJob {
                job: job(1, 4, 0, 10),
                lo2: 0,
            },
            PlacedJob {
                job: job(2, 4, 0, 10),
                lo2: 4,
            },
        ];
        let p = Placement { placed };
        // [4,8) is covered by all three.
        assert!(verify_two_allocation(&p).is_some());
    }

    #[test]
    fn orders_produce_valid_allocations() {
        let jobs: Vec<Job> = (0..40)
            .map(|i| {
                job(
                    i,
                    1 + (i as u64 * 7) % 5,
                    (i as u64 * 3) % 50,
                    (i as u64 * 3) % 50 + 5 + (i as u64) % 11,
                )
            })
            .collect();
        for order in [
            PlacementOrder::Arrival,
            PlacementOrder::SizeDescending,
            PlacementOrder::DurationDescending,
        ] {
            let p = place_jobs(&jobs, order);
            assert_eq!(p.len(), jobs.len());
            assert!(verify_two_allocation(&p).is_none(), "order {order:?}");
        }
    }

    #[test]
    fn overshoot_zero_for_single_pair() {
        let p = place_jobs(
            &[job(0, 4, 0, 10), job(1, 4, 2, 8)],
            PlacementOrder::Arrival,
        );
        assert_eq!(overshoot(&p), 0);
    }
}
