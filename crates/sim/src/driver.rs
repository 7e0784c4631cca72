//! The non-clairvoyant event driver.
//!
//! Replays an instance's jobs as a stream of arrival/departure events in
//! [`job_events`] order (departures before arrivals at equal times —
//! intervals are half-open, so a machine freed at `t` can host an arrival
//! at `t`). The scheduler sees each arrival *without its departure time*
//! (§III-B's non-clairvoyant setting) and must choose a machine
//! immediately; decisions are irrevocable. One loop serves plain, probed
//! and x-rayed runs.

use crate::pool::MachinePool;
use bshm_core::convert::count_u64;
use bshm_core::instance::Instance;
use bshm_core::job::JobId;
use bshm_core::ops::{NoOps, OpCounter, OpProbe, OpTrace, PlaceReason};
use bshm_core::schedule::{MachineId, Schedule};
use bshm_core::sweep::job_events;
use bshm_core::time::TimePoint;
use bshm_obs::{clock, NoProbe, Probe, TraceEvent};
use std::fmt;

/// What a non-clairvoyant scheduler sees when a job arrives: everything
/// about the job *except* its departure time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ArrivalView {
    /// The job's id.
    pub id: JobId,
    /// The job's size.
    pub size: u64,
    /// The current time (= the job's arrival time).
    pub time: TimePoint,
}

/// An online scheduling policy.
///
/// Implementations keep whatever internal bookkeeping they need (machine
/// rosters, group structure, …) keyed by the [`MachineId`]s they create via
/// the pool.
pub trait OnlineScheduler {
    /// Chooses the machine for an arriving job. May open new machines
    /// through the pool; must return a machine with enough residual
    /// capacity (the driver verifies and errors otherwise).
    fn on_arrival(&mut self, view: ArrivalView, pool: &mut MachinePool) -> MachineId;

    /// Like [`OnlineScheduler::on_arrival`], but narrates the decision into
    /// `ops`: every machine scanned, every capacity comparison, every
    /// rejected candidate (with its typed reason) and the final commit.
    ///
    /// The default forwards to `on_arrival` and reports nothing, so
    /// policies opt in one at a time; the built-in `bshm-algos` policies
    /// all override this by routing both entry points through one
    /// instrumented decision body (with [`bshm_core::ops::NoOps`] on the
    /// uninstrumented path, which monomorphizes the counting away).
    fn on_arrival_explained(
        &mut self,
        view: ArrivalView,
        pool: &mut MachinePool,
        _ops: &mut dyn OpProbe,
    ) -> MachineId {
        self.on_arrival(view, pool)
    }

    /// Notification that a job departed from a machine (after the pool was
    /// updated). Default: no-op.
    fn on_departure(&mut self, _job: JobId, _machine: MachineId, _pool: &MachinePool) {}

    /// Notification that a machine was crashed/revoked by a fault plan
    /// (after its jobs were evicted from the pool). The scheduler should
    /// drop the machine from its internal rosters; if it keeps routing
    /// arrivals there anyway, the faulted driver redirects them through
    /// the active recovery policy. Default: no-op, since the base driver
    /// never crashes machines.
    fn on_machine_crash(&mut self, _machine: MachineId, _pool: &MachinePool) {}

    /// The policy's display name (for harness output).
    fn name(&self) -> &'static str {
        "online"
    }
}

impl<S: OnlineScheduler + ?Sized> OnlineScheduler for &mut S {
    fn on_arrival(&mut self, view: ArrivalView, pool: &mut MachinePool) -> MachineId {
        (**self).on_arrival(view, pool)
    }
    fn on_arrival_explained(
        &mut self,
        view: ArrivalView,
        pool: &mut MachinePool,
        ops: &mut dyn OpProbe,
    ) -> MachineId {
        (**self).on_arrival_explained(view, pool, ops)
    }
    fn on_departure(&mut self, job: JobId, machine: MachineId, pool: &MachinePool) {
        (**self).on_departure(job, machine, pool);
    }
    fn on_machine_crash(&mut self, machine: MachineId, pool: &MachinePool) {
        (**self).on_machine_crash(machine, pool);
    }
    fn name(&self) -> &'static str {
        (**self).name()
    }
}

/// Simulation failure: the scheduler chose an overfull machine.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SimError {
    /// Job whose placement failed.
    pub job: JobId,
    /// Underlying pool error.
    pub cause: crate::pool::PlacementError,
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "scheduler overloaded a machine placing {}: {}",
            self.job, self.cause
        )
    }
}

impl std::error::Error for SimError {}

/// Runs a scheduler over an instance and returns the resulting schedule.
///
/// The returned schedule assigns every job (the driver replays all of
/// them) and is feasible by construction — the pool enforces capacities —
/// but callers typically re-validate with
/// [`bshm_core::validate::validate_schedule`] in tests.
///
/// ```
/// use bshm_core::{Catalog, Instance, Job, MachineType, TypeIndex};
/// use bshm_sim::{run_online, ArrivalView, MachinePool, OnlineScheduler};
///
/// /// Every job gets a fresh machine of its size class.
/// struct Dedicated;
/// impl OnlineScheduler for Dedicated {
///     fn on_arrival(&mut self, view: ArrivalView, pool: &mut MachinePool)
///         -> bshm_core::MachineId
///     {
///         let class = pool.catalog().size_class(view.size).unwrap();
///         pool.create(class, format!("m-{}", view.id))
///     }
/// }
///
/// let catalog = Catalog::new(vec![MachineType::new(8, 1)]).unwrap();
/// let inst = Instance::new(vec![Job::new(0, 2, 0, 5)], catalog).unwrap();
/// let schedule = run_online(&inst, &mut Dedicated).unwrap();
/// assert_eq!(schedule.machine_count(), 1);
/// ```
pub fn run_online<S: OnlineScheduler>(
    instance: &Instance,
    scheduler: &mut S,
) -> Result<Schedule, SimError> {
    run_online_probed(instance, scheduler, &mut NoProbe)
}

/// Like [`run_online`], but reports every arrival, placement decision
/// (with its wall-clock latency), machine open/close transition, cost
/// accrual and departure to `probe`.
///
/// With [`NoProbe`] every instrumentation branch is guarded by a
/// monomorphized `enabled() == false` and compiles away, so [`run_online`]
/// pays nothing for the hooks. A machine "opens" when it goes idle → busy
/// and "closes" on the reverse transition, accruing `rate × busy-span`
/// cost at close; summed over a full run this equals
/// [`bshm_core::schedule_cost`] of the resulting schedule.
pub fn run_online_probed<S: OnlineScheduler, P: Probe + ?Sized>(
    instance: &Instance,
    scheduler: &mut S,
    probe: &mut P,
) -> Result<Schedule, SimError> {
    drive::<S, P, NoOps>(instance, scheduler, probe).map(|(schedule, _)| schedule)
}

/// Like [`run_online_probed`], but drives the scheduler through
/// [`OnlineScheduler::on_arrival_explained`] and emits one
/// [`TraceEvent::Decision`] right after each `Placement`: the candidates
/// the policy examined (with typed rejection reasons), the winner and how
/// it won, the pool size it scanned against and the decision's
/// deterministic [`OpCounter`]. Returns the schedule with the fold of
/// every per-decision counter, so callers can cross-check the trace
/// against the run total with integer equality.
pub fn run_online_xray<S: OnlineScheduler, P: Probe + ?Sized>(
    instance: &Instance,
    scheduler: &mut S,
    probe: &mut P,
) -> Result<(Schedule, OpCounter), SimError> {
    drive::<S, P, OpTrace>(instance, scheduler, probe)
}

/// The driver's explain hook, one per decision: [`NoOps`] on plain runs
/// (zero-sized, it compiles away like [`NoProbe`]) or the x-ray's
/// [`OpTrace`], emitted as a [`TraceEvent::Decision`].
trait Explain: OpProbe + Sized {
    const ON: bool;
    fn begin() -> Self;
    fn into_trace(self) -> Option<OpTrace>;
}

impl Explain for NoOps {
    const ON: bool = false;
    fn begin() -> Self {
        NoOps
    }
    fn into_trace(self) -> Option<OpTrace> {
        None
    }
}

impl Explain for OpTrace {
    const ON: bool = true;
    fn begin() -> Self {
        OpTrace::begin()
    }
    fn into_trace(self) -> Option<OpTrace> {
        Some(self)
    }
}

/// The one event loop behind every online run. Returns the schedule and
/// the fold of every decision's op counter (zero unless `X` records).
fn drive<S: OnlineScheduler, P: Probe + ?Sized, X: Explain>(
    instance: &Instance,
    scheduler: &mut S,
    probe: &mut P,
) -> Result<(Schedule, OpCounter), SimError> {
    let jobs = instance.jobs();
    let probing = X::ON || probe.enabled();
    let mut totals = OpCounter::default();
    // When a machine last went idle → busy; indexed by machine id, only
    // maintained while probing.
    let mut open_since: Vec<TimePoint> = Vec::new();
    let mut pool = MachinePool::new(instance.catalog().clone());
    for (t, is_arrival, idx) in job_events(jobs) {
        let job = &jobs[idx];
        if is_arrival {
            let view = ArrivalView {
                id: job.id,
                size: job.size,
                time: t,
            };
            if !probing {
                let m = scheduler.on_arrival(view, &mut pool);
                pool.place(m, job.id, job.size)
                    .map_err(|cause| SimError { job: job.id, cause })?;
                continue;
            }
            probe.on_arrival(t, job.id, job.size);
            let known_machines = pool.len();
            let mut ops = X::begin();
            let start = clock::now();
            let m = if X::ON {
                scheduler.on_arrival_explained(view, &mut pool, &mut ops)
            } else {
                scheduler.on_arrival(view, &mut pool)
            };
            let decision_ns = clock::elapsed_ns(start);
            let was_idle = pool.is_idle(m);
            pool.place(m, job.id, job.size)
                .map_err(|cause| SimError { job: job.id, cause })?;
            let ty = pool.machine_type(m);
            if was_idle {
                if open_since.len() < pool.len() {
                    open_since.resize(pool.len(), 0);
                }
                open_since[m.0 as usize] = t;
                probe.on_machine_open(t, m, ty);
            }
            let opened = (m.0 as usize) >= known_machines;
            probe.on_placement(
                t,
                job.id,
                m,
                ty,
                opened,
                decision_ns,
                pool.load(m),
                pool.capacity(m),
            );
            if let Some(mut tr) = ops.into_trace() {
                // Schedulers that haven't opted into on_arrival_explained
                // leave the trace empty; classify their commit from the
                // pool's own evidence so the Decision stream stays total.
                let placed = match tr.placed {
                    Some((_, how)) => how,
                    None if opened => PlaceReason::Opened,
                    None => PlaceReason::Reused,
                };
                if tr.placed.is_none() {
                    tr.counter.commit(placed);
                }
                totals.fold(&tr.counter);
                probe.record(&TraceEvent::Decision {
                    t,
                    job: job.id,
                    machine: m,
                    placed,
                    pool_size: count_u64(known_machines),
                    candidates: tr.candidates,
                    ops: Box::new(tr.counter),
                });
            }
        } else {
            let m = pool.remove(job.id, job.size);
            if probing {
                probe.on_departure(t, job.id, m);
                if pool.is_idle(m) {
                    let ty = pool.machine_type(m);
                    let opened_at = open_since[m.0 as usize];
                    probe.on_cost_accrual(t, m, ty, t - opened_at, pool.rate(m));
                    probe.on_machine_close(t, m, ty, opened_at);
                }
            }
            scheduler.on_departure(job.id, m, &pool);
        }
    }
    if probing {
        probe.finish();
    }
    Ok((pool.into_schedule(), totals))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bshm_core::job::Job;
    use bshm_core::machine::{Catalog, MachineType, TypeIndex};
    use bshm_core::validate::validate_schedule;
    use bshm_obs::{GapProbe, HealthProbe};

    /// Opens a dedicated smallest-fitting machine per job.
    struct OneMachinePerJob;

    impl OnlineScheduler for OneMachinePerJob {
        fn on_arrival(&mut self, view: ArrivalView, pool: &mut MachinePool) -> MachineId {
            let class = pool.catalog().size_class(view.size).expect("fits");
            pool.create(class, format!("dedicated-{}", view.id))
        }
        fn name(&self) -> &'static str {
            "one-per-job"
        }
    }

    /// Greedy first-fit over all machines, opening the largest type when
    /// nothing fits — just enough logic to exercise reuse in tests.
    struct NaiveFirstFit {
        open: Vec<MachineId>,
    }

    impl OnlineScheduler for NaiveFirstFit {
        fn on_arrival(&mut self, view: ArrivalView, pool: &mut MachinePool) -> MachineId {
            for &m in &self.open {
                if pool.residual(m) >= view.size {
                    return m;
                }
            }
            let top = TypeIndex(pool.catalog().len() - 1);
            let m = pool.create(top, "ff");
            self.open.push(m);
            m
        }
    }

    fn instance() -> Instance {
        let catalog = Catalog::new(vec![MachineType::new(4, 1), MachineType::new(16, 3)]).unwrap();
        Instance::new(
            vec![
                Job::new(0, 3, 0, 10),
                Job::new(1, 2, 2, 8),
                Job::new(2, 10, 4, 12),
                Job::new(3, 4, 10, 20), // arrives exactly when job 0 departs
            ],
            catalog,
        )
        .unwrap()
    }

    #[test]
    fn dedicated_machines_schedule_everything() {
        let inst = instance();
        let s = run_online(&inst, &mut OneMachinePerJob).unwrap();
        assert_eq!(validate_schedule(&s, &inst), Ok(()));
        assert_eq!(s.machine_count(), 4);
    }

    #[test]
    fn first_fit_reuses_machines() {
        let inst = instance();
        let s = run_online(&inst, &mut NaiveFirstFit { open: vec![] }).unwrap();
        assert_eq!(validate_schedule(&s, &inst), Ok(()));
        // 3+2+10 = 15 ≤ 16 → all four jobs fit on one big machine
        // (job 3 arrives after 0 and 1 departed).
        assert_eq!(s.machine_count(), 1);
    }

    #[test]
    fn departures_precede_arrivals_at_ties() {
        // A machine of capacity 4 can host job 3 (size 4, arrives at 10)
        // only if job 0 (departs at 10) is removed first.
        let catalog = Catalog::new(vec![MachineType::new(4, 1)]).unwrap();
        let inst =
            Instance::new(vec![Job::new(0, 4, 0, 10), Job::new(1, 4, 10, 20)], catalog).unwrap();
        struct Reuse {
            m: Option<MachineId>,
        }
        impl OnlineScheduler for Reuse {
            fn on_arrival(&mut self, _view: ArrivalView, pool: &mut MachinePool) -> MachineId {
                *self
                    .m
                    .get_or_insert_with(|| pool.create(TypeIndex(0), "only"))
            }
        }
        let s = run_online(&inst, &mut Reuse { m: None }).unwrap();
        assert_eq!(validate_schedule(&s, &inst), Ok(()));
        assert_eq!(s.machine_count(), 1);
    }

    #[test]
    fn gap_run_gauges_cost_against_lower_bound() {
        let inst = instance();
        let mut gap = GapProbe::new(inst.catalog(), bshm_obs::Collector::default());
        let s = run_online_probed(&inst, &mut OneMachinePerJob, &mut gap).unwrap();
        let (collector, timeline) = gap.into_parts();
        assert_eq!(validate_schedule(&s, &inst), Ok(()));
        // The wrapped probe saw one GapSample per distinct event time.
        let sampled = bshm_obs::gap_timeline_from_events(&collector.events);
        assert_eq!(sampled.points, timeline.points);
        let last = timeline.final_point().copied().unwrap();
        assert_eq!(
            u128::from(last.cost),
            bshm_core::schedule_cost(&s, &inst),
            "final gauge equals the schedule's true cost"
        );
        assert_eq!(
            u128::from(last.lower_bound),
            bshm_core::lower_bound(&inst),
            "final gauge equals the full-sweep lower bound"
        );
        assert!(timeline.final_ratio().unwrap() >= 1.0);
    }

    #[test]
    fn health_run_evaluates_windows_and_stays_clean() {
        let inst = instance();
        let spec = bshm_obs::SloSpec::parse("window:4;gap:20000:2;storm:1;drops:1").unwrap();
        let health = HealthProbe::new(spec, inst.catalog().len(), bshm_obs::Collector::default());
        let mut gap = GapProbe::new(inst.catalog(), health);
        let s = run_online_probed(&inst, &mut OneMachinePerJob, &mut gap).unwrap();
        let (health, timeline) = gap.into_parts();
        let (collector, report) = health.into_parts();
        assert_eq!(validate_schedule(&s, &inst), Ok(()));
        // No faults, sane gap ratio: the default-style rules stay quiet.
        assert!(!report.breached(), "unexpected alerts: {:?}", report.alerts);
        assert!(report.windows_closed > 0);
        // The health layer forwarded everything, gap samples included.
        let sampled = bshm_obs::gap_timeline_from_events(&collector.events);
        assert_eq!(sampled.points, timeline.points);
    }

    #[test]
    fn health_run_alerts_on_a_tight_gap_slo() {
        let inst = instance();
        // Any gap ratio exceeds a zero-milli threshold after one window.
        let spec = bshm_obs::SloSpec::parse("window:4;gap:0:1").unwrap();
        let health = HealthProbe::new(spec, inst.catalog().len(), bshm_obs::Collector::default());
        let mut gap = GapProbe::new(inst.catalog(), health);
        run_online_probed(&inst, &mut OneMachinePerJob, &mut gap).unwrap();
        let (collector, report) = gap.into_parts().0.into_parts();
        assert!(report.breached());
        assert!(collector
            .events
            .iter()
            .any(|e| matches!(e, TraceEvent::Alert { .. })));
    }

    #[test]
    fn xray_run_emits_one_decision_per_arrival() {
        let inst = instance();
        let mut collector = bshm_obs::Collector::default();
        let (s, totals) =
            run_online_xray(&inst, &mut NaiveFirstFit { open: vec![] }, &mut collector).unwrap();
        assert_eq!(validate_schedule(&s, &inst), Ok(()));
        let decisions: Vec<_> = collector
            .events
            .iter()
            .filter_map(|e| match *e {
                TraceEvent::Decision {
                    job,
                    machine,
                    placed,
                    pool_size,
                    ..
                } => Some((job, machine, placed, pool_size)),
                _ => None,
            })
            .collect();
        assert_eq!(decisions.len(), inst.jobs().len());
        // NaiveFirstFit hasn't opted into on_arrival_explained, so the
        // driver classifies commits from pool evidence: the first arrival
        // opens, the rest reuse the one big machine.
        assert_eq!(decisions[0].2, PlaceReason::Opened);
        assert!(decisions[1..].iter().all(|d| d.2 == PlaceReason::Reused));
        assert_eq!(
            decisions.iter().map(|d| d.3).collect::<Vec<_>>(),
            vec![0, 1, 1, 1],
            "pool_size is the machine count each decision scanned against"
        );
        assert_eq!(totals.decisions, 4);
        assert_eq!(totals.machines_opened, 1);
        assert_eq!(totals.machines_reused, 3);
        // Each Decision immediately follows its job's Placement.
        for (i, e) in collector.events.iter().enumerate() {
            if let TraceEvent::Decision { job, machine, .. } = *e {
                match collector.events[i - 1] {
                    TraceEvent::Placement {
                        job: pj,
                        machine: pm,
                        ..
                    } => {
                        assert_eq!((pj, pm), (job, machine));
                    }
                    ref other => panic!("Decision not preceded by Placement: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn overload_is_reported() {
        let catalog = Catalog::new(vec![MachineType::new(4, 1)]).unwrap();
        let inst =
            Instance::new(vec![Job::new(0, 3, 0, 10), Job::new(1, 3, 5, 15)], catalog).unwrap();
        struct Stuff {
            m: Option<MachineId>,
        }
        impl OnlineScheduler for Stuff {
            fn on_arrival(&mut self, _view: ArrivalView, pool: &mut MachinePool) -> MachineId {
                *self
                    .m
                    .get_or_insert_with(|| pool.create(TypeIndex(0), "only"))
            }
        }
        let err = run_online(&inst, &mut Stuff { m: None }).unwrap_err();
        assert_eq!(err.job, JobId(1));
        assert_eq!(err.cause.attempted_load, 6);
    }
}
