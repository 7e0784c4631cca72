//! Schedule analytics: machine-count timelines, utilization, and per-type
//! peaks. Used by the evaluation harness and the examples; handy for any
//! downstream "what is my fleet doing" question.

use crate::cost::job_index;
use crate::instance::Instance;
use crate::schedule::Schedule;
use crate::sweep::{event_grid, segment_of};
use crate::time::TimePoint;
use serde::Serialize;

/// Piecewise-constant count of busy machines per type over time.
#[derive(Clone, Debug)]
pub struct MachineTimeline {
    /// Event grid (length `k`).
    pub grid: Vec<TimePoint>,
    /// `k − 1` rows: busy machines of each type on that segment.
    pub busy: Vec<Vec<u32>>,
}

impl MachineTimeline {
    /// Busy machines of each type at time `t` (zeros outside the grid).
    #[must_use]
    pub fn at(&self, t: TimePoint) -> Vec<u32> {
        let types = self.busy.first().map_or(0, Vec::len);
        segment_of(&self.grid, t).map_or_else(|| vec![0; types], |s| self.busy[s].clone())
    }

    /// Peak busy machines per type.
    #[must_use]
    pub fn peaks(&self) -> Vec<u32> {
        let types = self.busy.first().map_or(0, Vec::len);
        let mut out = vec![0u32; types];
        for row in &self.busy {
            for (p, &v) in out.iter_mut().zip(row) {
                *p = (*p).max(v);
            }
        }
        out
    }

    /// Peak total busy machines.
    #[must_use]
    pub fn peak_total(&self) -> u32 {
        self.busy
            .iter()
            .map(|row| row.iter().sum::<u32>())
            .max()
            .unwrap_or(0)
    }
}

/// Builds the busy-machine timeline of a schedule.
#[must_use]
pub fn machine_timeline(schedule: &Schedule, instance: &Instance) -> MachineTimeline {
    let jobs = job_index(instance);
    let grid = event_grid(instance.jobs());
    let nseg = grid.len().saturating_sub(1);
    let m = instance.catalog().len();
    let mut busy = vec![vec![0u32; m]; nseg];
    for machine in schedule.machines() {
        if machine.jobs.is_empty() {
            continue;
        }
        // The machine is busy on the union of its jobs' intervals.
        let set: crate::time::IntervalSet =
            machine.jobs.iter().map(|j| jobs[j].interval()).collect();
        for span in set.iter() {
            #[expect(
                clippy::expect_used,
                reason = "span endpoints are job arrivals/departures, which seed the grid"
            )]
            let a = grid.binary_search(&span.start()).expect("grid point");
            #[expect(
                clippy::expect_used,
                reason = "span endpoints are job arrivals/departures, which seed the grid"
            )]
            let d = grid.binary_search(&span.end()).expect("grid point");
            for row in busy.iter_mut().take(d).skip(a) {
                row[machine.machine_type.0] += 1;
            }
        }
    }
    MachineTimeline { grid, busy }
}

/// Summary statistics of one schedule.
#[derive(Clone, Debug, Serialize)]
pub struct ScheduleStats {
    /// Machines that hosted at least one job.
    pub machines_used: usize,
    /// Peak concurrently-busy machines, per catalog type.
    pub peak_by_type: Vec<u32>,
    /// Peak concurrently-busy machines, total.
    pub peak_total: u32,
    /// `∫ active job size dt / ∫ busy capacity dt` — how full the rented
    /// capacity was, in `[0, 1]`.
    pub utilization: f64,
    /// Average number of jobs per used machine.
    pub jobs_per_machine: f64,
}

/// Computes summary statistics for a (validated) schedule.
#[must_use]
pub fn schedule_stats(schedule: &Schedule, instance: &Instance) -> ScheduleStats {
    let timeline = machine_timeline(schedule, instance);
    let demand = crate::sweep::load_profile(instance.jobs()).integral();
    // Busy capacity integral: Σ over segments Σ_type busy·g·len.
    let mut busy_capacity: u128 = 0;
    for (w, row) in timeline.grid.windows(2).zip(timeline.busy.iter()) {
        let len = u128::from(w[1] - w[0]);
        for (i, &count) in row.iter().enumerate() {
            busy_capacity +=
                len * u128::from(count) * u128::from(instance.catalog().types()[i].capacity);
        }
    }
    let machines_used = schedule.used_machine_count();
    ScheduleStats {
        machines_used,
        peak_by_type: timeline.peaks(),
        peak_total: timeline.peak_total(),
        utilization: if busy_capacity == 0 {
            0.0
        } else {
            demand as f64 / busy_capacity as f64
        },
        jobs_per_machine: if machines_used == 0 {
            0.0
        } else {
            schedule.assignment_count() as f64 / machines_used as f64
        },
    }
}

/// Exports the timeline as CSV (`time,type0,type1,…`), one row per
/// segment start — ready for plotting.
#[must_use]
pub fn timeline_csv(timeline: &MachineTimeline) -> String {
    use std::fmt::Write as _;
    let types = timeline.busy.first().map_or(0, Vec::len);
    let mut out = String::from("time");
    for i in 0..types {
        let _ = write!(out, ",type{i}");
    }
    out.push('\n');
    for (w, row) in timeline.grid.windows(2).zip(timeline.busy.iter()) {
        let _ = write!(out, "{}", w[0]);
        for v in row {
            let _ = write!(out, ",{v}");
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{Job, JobId};
    use crate::machine::{Catalog, MachineType, TypeIndex};

    fn setup() -> (Instance, Schedule) {
        let catalog = Catalog::new(vec![MachineType::new(4, 1), MachineType::new(16, 2)]).unwrap();
        let jobs = vec![
            Job::new(0, 2, 0, 10),
            Job::new(1, 2, 5, 15),
            Job::new(2, 10, 0, 20),
        ];
        let instance = Instance::new(jobs, catalog).unwrap();
        let mut s = Schedule::new();
        let m0 = s.add_machine(TypeIndex(0), "small");
        s.assign(m0, JobId(0));
        s.assign(m0, JobId(1));
        let m1 = s.add_machine(TypeIndex(1), "big");
        s.assign(m1, JobId(2));
        (instance, s)
    }

    #[test]
    fn timeline_counts_busy_machines() {
        let (inst, s) = setup();
        let t = machine_timeline(&s, &inst);
        assert_eq!(t.at(0), vec![1, 1]);
        assert_eq!(t.at(12), vec![1, 1]);
        assert_eq!(t.at(16), vec![0, 1]);
        assert_eq!(t.at(25), vec![0, 0]);
        assert_eq!(t.peaks(), vec![1, 1]);
        assert_eq!(t.peak_total(), 2);
    }

    #[test]
    fn idle_gap_machines_not_counted() {
        let catalog = Catalog::new(vec![MachineType::new(4, 1)]).unwrap();
        let jobs = vec![Job::new(0, 1, 0, 5), Job::new(1, 1, 50, 55)];
        let inst = Instance::new(jobs, catalog).unwrap();
        let mut s = Schedule::new();
        let m = s.add_machine(TypeIndex(0), "gap");
        s.assign(m, JobId(0));
        s.assign(m, JobId(1));
        let t = machine_timeline(&s, &inst);
        assert_eq!(t.at(2), vec![1]);
        assert_eq!(t.at(20), vec![0]); // idle between the two jobs
        assert_eq!(t.at(52), vec![1]);
    }

    #[test]
    fn stats_utilization() {
        let (inst, s) = setup();
        let st = schedule_stats(&s, &inst);
        assert_eq!(st.machines_used, 2);
        assert_eq!(st.peak_total, 2);
        // Demand integral: 2·10 + 2·10 + 10·20 = 240.
        // Busy capacity: small on [0,15): 15·4 = 60; big on [0,20): 20·16 = 320.
        assert!((st.utilization - 240.0 / 380.0).abs() < 1e-12);
        assert!((st.jobs_per_machine - 1.5).abs() < 1e-12);
    }

    #[test]
    fn csv_has_header_and_rows() {
        let (inst, s) = setup();
        let t = machine_timeline(&s, &inst);
        let csv = timeline_csv(&t);
        let mut lines = csv.lines();
        assert_eq!(lines.next(), Some("time,type0,type1"));
        assert_eq!(lines.next(), Some("0,1,1"));
        assert!(csv.lines().count() >= 4);
    }

    #[test]
    fn empty_schedule_stats() {
        let (inst, _) = setup();
        let s = Schedule::new();
        // Not feasible (jobs unassigned) but analytics must not panic.
        let st = schedule_stats(&s, &inst);
        assert_eq!(st.machines_used, 0);
        assert_eq!(st.peak_total, 0);
        assert_eq!(st.utilization, 0.0);
    }
}
