//! The faulted event driver: [`bshm_sim::run_online_probed`] plus fault
//! injection, recovery routing, and checkpoint/restore.
//!
//! Event order is `(time, class, key)` with class `0` = departure, `1` =
//! machine crash, `2` = arrival, and `key` the job id (departures and
//! arrivals) or the crash's plan index. Classes 0 and 2 reproduce the base
//! driver's `(t, is_arrival, job id)` order exactly, so a run under the
//! empty [`FaultPlan`] emits a byte-identical trace to the fault-free
//! driver — the equivalence tests pin this down.
//!
//! At a crash, the machine's still-active jobs are displaced and handed —
//! in job-id order — to the [`RecoveryPolicy`]; each is either re-placed
//! on a recovery machine or dropped with an explicit reason. Nothing is
//! lost silently and nothing panics: a scheduler that keeps routing
//! arrivals to a revoked machine has those arrivals rerouted through the
//! same policy, and only a genuine overload of a *live* machine is an
//! error, exactly as in the base driver.

use crate::checkpoint::{
    instance_digest, Checkpoint, DecisionRecord, CHECKPOINT_VERSION, DROPPED_MACHINE,
};
use crate::plan::{FaultPlan, ResolvedFaults};
use crate::recovery::{DisplacedJob, RecoveryPolicy};
use bshm_core::convert::{count_u64, index_u32};
use bshm_core::machine::Catalog;
use bshm_core::{Instance, Job, JobId, MachineId, Schedule, TimePoint};
use bshm_obs::{clock, Probe, TraceEvent};
use bshm_sim::{ArrivalView, MachinePool, OnlineScheduler, SimError};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::path::PathBuf;

/// Failure of a faulted run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FaultError {
    /// The scheduler overloaded a live machine (same as the base driver).
    Sim(SimError),
    /// Checkpoint save, fingerprint or replay-divergence failure.
    Checkpoint(String),
}

impl fmt::Display for FaultError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultError::Sim(e) => write!(f, "{e}"),
            FaultError::Checkpoint(msg) => write!(f, "checkpoint: {msg}"),
        }
    }
}

impl std::error::Error for FaultError {}

impl From<SimError> for FaultError {
    fn from(e: SimError) -> Self {
        FaultError::Sim(e)
    }
}

/// What the faults did to a run, with recovery cost kept separate from
/// the scheduler's base cost so fault-free bounds stay checkable.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultReport {
    /// Crashes that hit an existing, live machine.
    pub crashes: u64,
    /// Planned crashes whose target did not exist (yet) or was already
    /// revoked — reported, not an error.
    pub crashes_skipped: u64,
    /// Jobs injected by the plan (storms and oversized jobs).
    pub injected: u64,
    /// Lowest injected job id, when any job was injected.
    pub first_injected_id: Option<JobId>,
    /// Jobs evicted from crashed machines.
    pub displaced: u64,
    /// Displaced jobs re-placed by the recovery policy.
    pub recovered: u64,
    /// Arrivals whose scheduler-chosen machine was revoked, rerouted
    /// through the recovery policy instead.
    pub rerouted: u64,
    /// Every dropped job with its reason — the explicit no-silent-loss
    /// ledger.
    pub dropped: Vec<(JobId, String)>,
    /// Total recovery-decision latency, nanoseconds.
    pub recovery_ns: u64,
    /// Busy-time cost of scheduler-managed machines.
    pub base_cost: u128,
    /// Busy-time cost of `recovery/…` machines.
    pub recovery_cost: u128,
}

impl FaultReport {
    /// Recovery cost as a fraction of base cost (0 when base is 0).
    #[must_use]
    pub fn recovery_cost_ratio(&self) -> f64 {
        if self.base_cost == 0 {
            return 0.0;
        }
        approx_f64(self.recovery_cost) / approx_f64(self.base_cost)
    }
}

/// `u128 → f64` for reporting ratios; rounding is acceptable there.
fn approx_f64(v: u128) -> f64 {
    v as f64
}

/// Result of a (possibly interrupted) faulted run.
#[derive(Clone, Debug)]
pub struct FaultOutcome {
    /// The pool's full history — an *execution record*, not a feasible
    /// assignment: a recovered job appears on both its crashed machine and
    /// its recovery machine, so `validate_schedule` does not apply to
    /// faulted runs.
    pub schedule: Schedule,
    /// Fault and recovery accounting.
    pub report: FaultReport,
    /// `false` when the run stopped early via [`RunOptions::stop_after`].
    pub completed: bool,
    /// Driver events processed.
    pub events_processed: u64,
    /// The last checkpoint taken, when one was requested.
    pub checkpoint: Option<Checkpoint>,
}

/// Knobs for checkpointing and simulated kills.
#[derive(Debug, Default)]
pub struct RunOptions<'a> {
    /// Stop — as if the simulator process were killed — after this many
    /// driver events. The probe's `finish` is *not* called, mirroring a
    /// real crash; a checkpoint is always taken at the stop point.
    pub stop_after: Option<u64>,
    /// Take a checkpoint every N driver events.
    pub checkpoint_every: Option<u64>,
    /// Write each checkpoint here (torn-free) as it is taken.
    pub checkpoint_path: Option<PathBuf>,
    /// Restore: verify the decision prefix against this checkpoint while
    /// replaying, and suppress the trace events it already emitted.
    pub resume_from: Option<&'a Checkpoint>,
}

/// Runs `scheduler` over `instance` under a fault plan. Equivalent to
/// [`run_online_faulted_with`] under default [`RunOptions`]; with
/// [`FaultPlan::none`] it is trace-byte-equivalent to
/// [`bshm_sim::run_online_probed`].
pub fn run_online_faulted(
    instance: &Instance,
    scheduler: &mut dyn OnlineScheduler,
    plan: &FaultPlan,
    recovery: &mut dyn RecoveryPolicy,
    probe: &mut dyn Probe,
) -> Result<FaultOutcome, FaultError> {
    run_online_faulted_with(
        instance,
        scheduler,
        plan,
        recovery,
        probe,
        &RunOptions::default(),
    )
}

/// Counts probe emissions and suppresses the first `skip` of them — the
/// restore path's "already written" window.
struct GatedProbe<'a> {
    inner: &'a mut dyn Probe,
    skip: u64,
    emitted: u64,
}

impl Probe for GatedProbe<'_> {
    fn enabled(&self) -> bool {
        self.inner.enabled()
    }
    fn record(&mut self, event: &TraceEvent) {
        self.emitted += 1;
        if self.emitted > self.skip {
            self.inner.record(event);
        }
    }
    fn finish(&mut self) {
        self.inner.finish();
    }
}

/// Internal event classes; the order at equal times is the contract.
/// Crashes sit between departures and arrivals, which is why this driver
/// keeps its own three-class key instead of
/// [`bshm_core::sweep::job_events`]. On job events alone the key
/// `(t, class, job id)` orders exactly as that helper does, so an empty
/// plan replays the plain driver's stream event for event.
const CLASS_DEPARTURE: u8 = 0;
const CLASS_CRASH: u8 = 1;
const CLASS_ARRIVAL: u8 = 2;

/// The mutable core of a faulted run: pool, cost ledgers, drop ledger and
/// decision log, shared by the arrival/departure/crash handlers.
struct Engine<'p, 'cp> {
    pool: MachinePool,
    probe: GatedProbe<'p>,
    probing: bool,
    /// When each machine last went idle → busy; maintained always, since
    /// crash-time cost accrual needs it even when no probe is attached.
    open_since: Vec<TimePoint>,
    /// Machines created by the recovery policy: their busy-time is the
    /// separately-accounted recovery cost.
    recovery_owned: HashSet<MachineId>,
    /// Jobs living on recovery machines: their departures skip
    /// `scheduler.on_departure` (the scheduler never placed them there).
    foreign: HashSet<JobId>,
    /// Dropped jobs: their departure events are skipped entirely.
    gone: HashSet<JobId>,
    report: FaultReport,
    decisions: Vec<DecisionRecord>,
    /// Restore log to verify against (empty outside restores).
    expected: &'cp [DecisionRecord],
}

impl Engine<'_, '_> {
    /// Appends a decision, verifying it against the restore log's prefix.
    fn push_decision(&mut self, rec: DecisionRecord) -> Result<(), FaultError> {
        if let Some(want) = self.expected.get(self.decisions.len()) {
            if *want != rec {
                return Err(FaultError::Checkpoint(format!(
                    "replay diverged at decision {}: checkpoint recorded {want:?}, replay produced {rec:?}",
                    self.decisions.len(),
                )));
            }
        }
        self.decisions.push(rec);
        Ok(())
    }

    /// Drops a job with an explicit reason — the only way a job leaves the
    /// system without running to completion.
    fn drop_job(&mut self, t: TimePoint, job: JobId, reason: String) -> Result<(), FaultError> {
        if self.probing {
            self.probe.record(&TraceEvent::JobDropped {
                t,
                job,
                reason: reason.clone(),
            });
        }
        self.report.dropped.push((job, reason));
        self.gone.insert(job);
        self.push_decision(DecisionRecord::new(job.0, DROPPED_MACHINE, "drop"))
    }

    /// Marks a newly-busy machine open (resizing the open ledger) and
    /// emits `MachineOpen` when probing.
    fn mark_open(&mut self, t: TimePoint, m: MachineId) {
        if self.open_since.len() < self.pool.len() {
            self.open_since.resize(self.pool.len(), 0);
        }
        self.open_since[m.0 as usize] = t;
        if self.probing {
            self.probe.record(&TraceEvent::MachineOpen {
                t,
                machine: m,
                machine_type: self.pool.machine_type(m),
            });
        }
    }

    /// Closes `m`'s busy span at `t`: emits accrual/close events and
    /// charges `rate × span` to base or recovery cost by ownership.
    fn close_busy_span(&mut self, t: TimePoint, m: MachineId) {
        let ty = self.pool.machine_type(m);
        let rate = self.pool.rate(m);
        let opened_at = self.open_since[m.0 as usize];
        if self.probing {
            self.probe.record(&TraceEvent::CostAccrual {
                t,
                machine: m,
                machine_type: ty,
                busy: t - opened_at,
                rate,
            });
            self.probe.record(&TraceEvent::MachineClose {
                t,
                machine: m,
                machine_type: ty,
                opened_at,
            });
        }
        let cost = u128::from(rate) * u128::from(t - opened_at);
        if self.recovery_owned.contains(&m) {
            self.report.recovery_cost += cost;
        } else {
            self.report.base_cost += cost;
        }
    }

    /// The `Placement` event for `job` now on `m`; `m` was opened by this
    /// decision when its id is past the `known_machines` the pool held
    /// before it.
    fn placement(
        &self,
        t: TimePoint,
        job: JobId,
        m: MachineId,
        decision_ns: u64,
        known_machines: usize,
    ) -> TraceEvent {
        TraceEvent::Placement {
            t,
            job,
            machine: m,
            machine_type: self.pool.machine_type(m),
            opened: (m.0 as usize) >= known_machines,
            decision_ns,
            load: self.pool.load(m),
            capacity: self.pool.capacity(m),
        }
    }

    /// The normal arrival placement path — identical to the base driver
    /// for live machines; arrivals routed to a revoked machine fall
    /// through to the recovery policy instead.
    fn place_arrival(
        &mut self,
        t: TimePoint,
        job: &Job,
        m: MachineId,
        decision_ns: u64,
        known_machines: usize,
        recovery: &mut dyn RecoveryPolicy,
    ) -> Result<(), FaultError> {
        if self.pool.is_retired(m) {
            // The scheduler's choice is revoked: reroute through recovery.
            self.report.rerouted += 1;
            let displaced = DisplacedJob {
                id: job.id,
                size: job.size,
                from: m,
                from_type: self.pool.machine_type(m),
                t,
            };
            return self.recover_job(t, displaced, true, decision_ns, known_machines, recovery);
        }
        let was_idle = self.pool.is_idle(m);
        self.pool
            .place(m, job.id, job.size)
            .map_err(|cause| SimError { job: job.id, cause })?;
        if was_idle {
            self.mark_open(t, m);
        }
        if self.probing {
            let event = self.placement(t, job.id, m, decision_ns, known_machines);
            self.probe.record(&event);
        }
        self.push_decision(DecisionRecord::new(job.id.0, m.0, "place"))
    }

    /// Routes one job through the recovery policy: re-place on a recovery
    /// machine or drop with a reason. `reroute` distinguishes
    /// revoked-arrival reroutes (which emit a `Placement` — it is the
    /// job's first placement) from crash displacements (`JobRecovery`).
    fn recover_job(
        &mut self,
        t: TimePoint,
        job: DisplacedJob,
        reroute: bool,
        decision_ns: u64,
        known_machines: usize,
        recovery: &mut dyn RecoveryPolicy,
    ) -> Result<(), FaultError> {
        let before = self.pool.len();
        let start = clock::now();
        let chosen = recovery.recover(job, &mut self.pool);
        let recovery_ns = clock::elapsed_ns(start);
        // Anything the policy opened is a recovery machine from here on.
        for i in before..self.pool.len() {
            self.recovery_owned.insert(MachineId(index_u32(i)));
        }
        let placed = chosen.and_then(|target| {
            let was_idle = self.pool.is_idle(target);
            self.pool
                .place(target, job.id, job.size)
                .map(|()| (target, was_idle))
                .map_err(|e| {
                    format!(
                        "recovery policy `{}` chose an overfull machine: {e}",
                        recovery.name()
                    )
                })
        });
        let (target, was_idle) = match placed {
            Ok(ok) => ok,
            Err(reason) => return self.drop_job(t, job.id, reason),
        };
        let ty = self.pool.machine_type(target);
        if was_idle {
            self.mark_open(t, target);
        }
        self.report.recovery_ns = self.report.recovery_ns.saturating_add(recovery_ns);
        self.foreign.insert(job.id);
        if reroute {
            if self.probing {
                let event = self.placement(t, job.id, target, decision_ns, known_machines);
                self.probe.record(&event);
            }
            self.push_decision(DecisionRecord::new(job.id.0, target.0, "reroute"))
        } else {
            if self.probing {
                self.probe.record(&TraceEvent::JobRecovery {
                    t,
                    job: job.id,
                    from: job.from,
                    to: target,
                    machine_type: ty,
                    recovery_ns,
                });
            }
            self.report.recovered += 1;
            self.push_decision(DecisionRecord::new(job.id.0, target.0, "recover"))
        }
    }
}

/// The faulted driver with full checkpoint/restore control: prepares a
/// [`PreparedRun`] and drives it once.
///
/// See the module docs for the event model and [`RunOptions`] for the
/// checkpoint and simulated-kill knobs.
pub fn run_online_faulted_with(
    instance: &Instance,
    scheduler: &mut dyn OnlineScheduler,
    plan: &FaultPlan,
    recovery: &mut dyn RecoveryPolicy,
    probe: &mut dyn Probe,
    opts: &RunOptions<'_>,
) -> Result<FaultOutcome, FaultError> {
    // Only checkpoints carry the instance digest; a plain run skips it.
    let checkpointing =
        opts.resume_from.is_some() || opts.stop_after.is_some() || opts.checkpoint_every.is_some();
    PreparedRun::build(instance, plan, checkpointing)?.run(scheduler, recovery, probe, opts)
}

/// The instance-dependent setup of a faulted run, done once and driven
/// any number of times: the resolved faults, the sorted driver-event
/// order, the job-size map and the instance digest.
///
/// A caller that runs the same instance and plan repeatedly (a resident
/// tenant stepping through checkpointed batches) keeps one of these
/// instead of paying the resolve, sort and digest on every run.
#[derive(Debug)]
pub struct PreparedRun {
    catalog: Catalog,
    plan_spec: String,
    /// The instance's jobs followed by the plan's injected jobs.
    jobs: Vec<Job>,
    resolved: ResolvedFaults,
    /// `(t, class, key, payload)` in driver order: payload indexes `jobs`
    /// for classes 0/2 and `resolved.crashes` for class 1.
    order: Vec<(TimePoint, u8, u32, usize)>,
    size_of: HashMap<JobId, u64>,
    /// FNV digest of the instance; 0 when prepared for a run that neither
    /// checkpoints nor resumes.
    digest: u64,
}

impl PreparedRun {
    /// Prepares `instance` under `plan`, digest included.
    ///
    /// # Errors
    /// A [`FaultError::Checkpoint`] when the instance cannot be encoded
    /// for its digest.
    pub fn new(instance: &Instance, plan: &FaultPlan) -> Result<PreparedRun, FaultError> {
        Self::build(instance, plan, true)
    }

    fn build(instance: &Instance, plan: &FaultPlan, digest: bool) -> Result<Self, FaultError> {
        let resolved = plan.resolve(instance);
        let mut jobs: Vec<Job> = instance.jobs().to_vec();
        jobs.extend(resolved.injected.iter().copied());
        let mut order = Vec::with_capacity(jobs.len() * 2 + resolved.crashes.len());
        for (idx, j) in jobs.iter().enumerate() {
            order.push((j.arrival, CLASS_ARRIVAL, j.id.0, idx));
            order.push((j.departure, CLASS_DEPARTURE, j.id.0, idx));
        }
        for (idx, c) in resolved.crashes.iter().enumerate() {
            order.push((c.t, CLASS_CRASH, index_u32(idx), idx));
        }
        order.sort_unstable_by_key(|&(t, class, key, _)| (t, class, key));
        let digest = if digest {
            instance_digest(instance).map_err(FaultError::Checkpoint)?
        } else {
            0
        };
        Ok(PreparedRun {
            catalog: instance.catalog().clone(),
            plan_spec: plan.spec().to_string(),
            size_of: jobs.iter().map(|j| (j.id, j.size)).collect(),
            jobs,
            resolved,
            order,
            digest,
        })
    }

    /// Drives one run of the prepared instance: the event loop of
    /// [`run_online_faulted_with`].
    ///
    /// # Errors
    /// As [`run_online_faulted_with`].
    pub fn run(
        &self,
        scheduler: &mut dyn OnlineScheduler,
        recovery: &mut dyn RecoveryPolicy,
        probe: &mut dyn Probe,
        opts: &RunOptions<'_>,
    ) -> Result<FaultOutcome, FaultError> {
        if let Some(cp) = opts.resume_from {
            verify_fingerprints(
                cp,
                self.digest,
                scheduler.name(),
                recovery.name(),
                &self.plan_spec,
            )?;
        }

        let mut engine = Engine {
            pool: MachinePool::new(self.catalog.clone()),
            probe: GatedProbe {
                inner: probe,
                skip: opts.resume_from.map_or(0, |cp| cp.trace_events_emitted),
                emitted: 0,
            },
            probing: false,
            open_since: Vec::new(),
            recovery_owned: HashSet::new(),
            foreign: HashSet::new(),
            gone: HashSet::new(),
            report: FaultReport {
                injected: count_u64(self.resolved.injected.len()),
                first_injected_id: self.resolved.injected.first().map(|j| j.id),
                ..FaultReport::default()
            },
            decisions: Vec::new(),
            expected: opts.resume_from.map_or(&[][..], |cp| &cp.decisions),
        };
        engine.probing = engine.probe.enabled();

        let mut events_processed: u64 = 0;
        let mut last_checkpoint: Option<Checkpoint> = None;

        for &(t, class, _key, payload) in &self.order {
            match class {
                CLASS_ARRIVAL => {
                    let job = self.jobs[payload];
                    if engine.probing {
                        engine.probe.record(&TraceEvent::Arrival {
                            t,
                            job: job.id,
                            size: job.size,
                        });
                    }
                    if job.size > engine.pool.catalog().max_capacity() {
                        // Oversized injection: infeasible by construction,
                        // dropped before the scheduler ever sees it.
                        let reason = format!(
                            "oversized: size {} exceeds max machine capacity {}",
                            job.size,
                            engine.pool.catalog().max_capacity()
                        );
                        engine.drop_job(t, job.id, reason)?;
                    } else {
                        let view = ArrivalView {
                            id: job.id,
                            size: job.size,
                            time: t,
                        };
                        let known_machines = engine.pool.len();
                        if engine.probing {
                            let start = clock::now();
                            let m = scheduler.on_arrival(view, &mut engine.pool);
                            let decision_ns = clock::elapsed_ns(start);
                            engine.place_arrival(
                                t,
                                &job,
                                m,
                                decision_ns,
                                known_machines,
                                recovery,
                            )?;
                        } else {
                            let m = scheduler.on_arrival(view, &mut engine.pool);
                            engine.place_arrival(t, &job, m, 0, known_machines, recovery)?;
                        }
                    }
                }
                CLASS_DEPARTURE => {
                    let job = self.jobs[payload];
                    if !engine.gone.contains(&job.id) {
                        let m = engine.pool.remove(job.id, job.size);
                        if engine.probing {
                            engine.probe.record(&TraceEvent::Departure {
                                t,
                                job: job.id,
                                machine: m,
                            });
                        }
                        if engine.pool.is_idle(m) {
                            engine.close_busy_span(t, m);
                        }
                        if !engine.foreign.contains(&job.id) {
                            scheduler.on_departure(job.id, m, &engine.pool);
                        }
                    }
                }
                _ => {
                    let crash = self.resolved.crashes[payload];
                    let m = crash.machine;
                    let exists = usize::try_from(m.0).is_ok_and(|i| i < engine.pool.len());
                    if exists && !engine.pool.is_retired(m) {
                        let ty = engine.pool.machine_type(m);
                        let was_busy = !engine.pool.is_idle(m);
                        let displaced = engine.pool.crash(m);
                        if was_busy {
                            engine.close_busy_span(t, m);
                        }
                        if engine.probing {
                            engine.probe.record(&TraceEvent::MachineCrash {
                                t,
                                machine: m,
                                machine_type: ty,
                                displaced: count_u64(displaced.len()),
                            });
                        }
                        engine.report.crashes += 1;
                        engine.report.displaced += count_u64(displaced.len());
                        scheduler.on_machine_crash(m, &engine.pool);
                        for jid in displaced {
                            let size = self.size_of.get(&jid).copied().unwrap_or(0);
                            let dj = DisplacedJob {
                                id: jid,
                                size,
                                from: m,
                                from_type: ty,
                                t,
                            };
                            engine.recover_job(t, dj, false, 0, engine.pool.len(), recovery)?;
                        }
                    } else {
                        engine.report.crashes_skipped += 1;
                    }
                }
            }
            events_processed += 1;

            let stop_here = opts.stop_after == Some(events_processed);
            let periodic = opts
                .checkpoint_every
                .is_some_and(|every| every > 0 && events_processed.is_multiple_of(every));
            if stop_here || periodic {
                let cp = Checkpoint {
                    version: CHECKPOINT_VERSION,
                    algorithm: scheduler.name().to_string(),
                    policy: recovery.name().to_string(),
                    plan_spec: self.plan_spec.clone(),
                    instance_digest: self.digest,
                    events_processed,
                    trace_events_emitted: engine.probe.emitted,
                    decisions: engine.decisions.clone(),
                };
                if let Some(path) = &opts.checkpoint_path {
                    cp.save(path).map_err(FaultError::Checkpoint)?;
                }
                last_checkpoint = Some(cp);
            }
            if stop_here {
                // Simulated kill: no probe.finish(), partial schedule.
                return Ok(FaultOutcome {
                    schedule: engine.pool.into_schedule(),
                    report: engine.report,
                    completed: false,
                    events_processed,
                    checkpoint: last_checkpoint,
                });
            }
        }

        if engine.expected.len() > engine.decisions.len() {
            return Err(FaultError::Checkpoint(format!(
                "replay ended after {} decisions but the checkpoint recorded {}",
                engine.decisions.len(),
                engine.expected.len()
            )));
        }
        if engine.probing {
            engine.probe.finish();
        }
        Ok(FaultOutcome {
            schedule: engine.pool.into_schedule(),
            report: engine.report,
            completed: true,
            events_processed,
            checkpoint: last_checkpoint,
        })
    }
}

fn verify_fingerprints(
    cp: &Checkpoint,
    digest: u64,
    algorithm: &str,
    policy: &str,
    plan_spec: &str,
) -> Result<(), FaultError> {
    let mismatch = |what: &str, got: &str, want: &str| {
        FaultError::Checkpoint(format!(
            "{what} mismatch: checkpoint has `{want}`, this run has `{got}`"
        ))
    };
    if cp.instance_digest != digest {
        return Err(FaultError::Checkpoint(
            "instance digest mismatch: wrong instance for this checkpoint".to_string(),
        ));
    }
    if cp.algorithm != algorithm {
        return Err(mismatch("algorithm", algorithm, &cp.algorithm));
    }
    if cp.policy != policy {
        return Err(mismatch("recovery policy", policy, &cp.policy));
    }
    if cp.plan_spec != plan_spec {
        return Err(mismatch("fault plan", plan_spec, &cp.plan_spec));
    }
    Ok(())
}
