//! The clairvoyant online setting (§I-A, refs \[5\]\[13\]): a job's
//! departure time is revealed at its arrival, and may be used for
//! placement — but decisions are still immediate and irrevocable.

use crate::driver::SimError;
use crate::pool::MachinePool;
use bshm_core::instance::Instance;
use bshm_core::job::JobId;
use bshm_core::ops::{DecisionLog, OpProbe};
use bshm_core::schedule::{MachineId, Schedule};
use bshm_core::sweep::job_events;
use bshm_core::time::{Interval, TimePoint};

/// What a clairvoyant scheduler sees at arrival: the whole job.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ClairvoyantView {
    /// The job's id.
    pub id: JobId,
    /// The job's size.
    pub size: u64,
    /// Arrival time (= current time).
    pub arrival: TimePoint,
    /// Departure time — known in this setting.
    pub departure: TimePoint,
}

impl ClairvoyantView {
    /// The job's active interval.
    #[must_use]
    pub fn interval(&self) -> Interval {
        Interval::new(self.arrival, self.departure)
    }

    /// The job's duration.
    #[must_use]
    pub fn duration(&self) -> u64 {
        self.departure - self.arrival
    }
}

/// A clairvoyant online policy.
pub trait ClairvoyantScheduler {
    /// Chooses the machine for an arriving job (departure known).
    fn on_arrival(&mut self, view: ClairvoyantView, pool: &mut MachinePool) -> MachineId;

    /// Like [`ClairvoyantScheduler::on_arrival`], but narrates the
    /// decision into `ops` (machines scanned, comparisons, typed
    /// rejections, the final commit). Defaults to the silent entry point,
    /// mirroring [`crate::driver::OnlineScheduler::on_arrival_explained`].
    fn on_arrival_explained(
        &mut self,
        view: ClairvoyantView,
        pool: &mut MachinePool,
        _ops: &mut dyn OpProbe,
    ) -> MachineId {
        self.on_arrival(view, pool)
    }

    /// Departure notification. Default: no-op.
    fn on_departure(&mut self, _job: JobId, _machine: MachineId, _pool: &MachinePool) {}

    /// Display name.
    fn name(&self) -> &'static str {
        "clairvoyant"
    }
}

/// Replays an instance for a clairvoyant policy; event order matches the
/// non-clairvoyant driver (departures before arrivals at equal times).
pub fn run_clairvoyant<S: ClairvoyantScheduler>(
    instance: &Instance,
    scheduler: &mut S,
) -> Result<Schedule, SimError> {
    run_clairvoyant_logged(instance, scheduler, &mut DecisionLog::disabled())
}

/// Like [`run_clairvoyant`], but routes every arrival through
/// [`ClairvoyantScheduler::on_arrival_explained`] with `log` as the
/// op probe, calling [`DecisionLog::begin`] per job first — so after the
/// run, `log` holds one [`bshm_core::ops::OpTrace`] per job, ready for
/// [`bshm_obs::replay::synthesize_xray`] to turn into Decision events.
/// A disabled log takes the silent entry point instead.
pub fn run_clairvoyant_logged<S: ClairvoyantScheduler>(
    instance: &Instance,
    scheduler: &mut S,
    log: &mut DecisionLog,
) -> Result<Schedule, SimError> {
    let jobs = instance.jobs();
    let mut pool = MachinePool::new(instance.catalog().clone());
    for (t, is_arrival, idx) in job_events(jobs) {
        let job = &jobs[idx];
        if is_arrival {
            let view = ClairvoyantView {
                id: job.id,
                size: job.size,
                arrival: t,
                departure: job.departure,
            };
            let m = if log.enabled() {
                log.begin(job.id);
                scheduler.on_arrival_explained(view, &mut pool, log)
            } else {
                scheduler.on_arrival(view, &mut pool)
            };
            pool.place(m, job.id, job.size)
                .map_err(|cause| SimError { job: job.id, cause })?;
        } else {
            let m = pool.remove(job.id, job.size);
            scheduler.on_departure(job.id, m, &pool);
        }
    }
    Ok(pool.into_schedule())
}

#[cfg(test)]
mod tests {
    use super::*;
    use bshm_core::job::Job;
    use bshm_core::machine::{Catalog, MachineType, TypeIndex};
    use bshm_core::validate::validate_schedule;

    /// A toy clairvoyant policy: co-locate only jobs that depart before
    /// the machine's current latest departure ("nested intervals only").
    struct NestedOnly {
        machines: Vec<(MachineId, TimePoint)>,
    }

    impl ClairvoyantScheduler for NestedOnly {
        fn on_arrival(&mut self, view: ClairvoyantView, pool: &mut MachinePool) -> MachineId {
            for &(m, horizon) in &self.machines {
                if view.departure <= horizon && pool.residual(m) >= view.size {
                    return m;
                }
            }
            let m = pool.create(TypeIndex(0), "nested");
            self.machines.push((m, view.departure));
            m
        }
    }

    #[test]
    fn clairvoyant_driver_sees_departures() {
        let catalog = Catalog::new(vec![MachineType::new(4, 1)]).unwrap();
        let inst = Instance::new(
            vec![
                Job::new(0, 2, 0, 100),  // anchor
                Job::new(1, 2, 10, 20),  // nests inside
                Job::new(2, 2, 30, 200), // outlives the anchor → new machine
            ],
            catalog,
        )
        .unwrap();
        let s = run_clairvoyant(&inst, &mut NestedOnly { machines: vec![] }).unwrap();
        assert_eq!(validate_schedule(&s, &inst), Ok(()));
        assert_eq!(s.used_machine_count(), 2);
        assert_eq!(s.machines()[0].jobs.len(), 2);
    }

    #[test]
    fn view_helpers() {
        let v = ClairvoyantView {
            id: JobId(1),
            size: 3,
            arrival: 10,
            departure: 25,
        };
        assert_eq!(v.duration(), 15);
        assert_eq!(v.interval(), Interval::new(10, 25));
    }
}
