//! Per-tenant state and supervision primitives.
//!
//! A tenant is one independent scheduling instance advancing in batches
//! under the faulted driver. Its durable state is exactly two crash-safe
//! artifacts in the service data directory:
//!
//! * `<name>.checkpoint.json` — the PR5 decision-log checkpoint taken at
//!   every batch stop point (atomic temp + rename), and
//! * `<name>.events.jsonl` — the tenant's event log, extended after
//!   every batch: the published log is copied to `.partial`, the batch is
//!   appended, and the result renamed over the log, so readers never see
//!   a torn file.
//!
//! A kill mid-batch leaves a torn `.partial` log and the last good
//! checkpoint; restore salvages the log, replays the instance
//! deterministically up to the checkpoint, verifies every replayed
//! artifact digest-for-digest, and returns a [`RestoreProof`]. Memory is
//! deliberately NOT trusted across a kill: restore rebuilds everything
//! from the two disk artifacts, exactly as a restarted process would.
//!
//! A step costs the new batch plus two terms that grow with the history:
//! the driver re-runs from event 0 to verify every decision against the
//! checkpoint, and the checkpoint (the whole decision log) is saved. The
//! instance setup is prepared once, the log grows by appending, and the
//! SLO report and gap gauge are live folds fed one batch at a time.

use crate::queue::BoundedQueue;
use bshm_core::instance::Instance;
use bshm_faults::checkpoint::fnv1a64;
use bshm_faults::{
    tear_final_line, Backoff, Checkpoint, FaultError, FaultOutcome, FaultPlan, PreparedRun,
    RunOptions,
};
use bshm_obs::sink::TraceWriter;
use bshm_obs::slo::{HealthProbe, HealthReport, SloSpec};
use bshm_obs::{
    jsonl_string, write_jsonl, AlertReason, Collector, Deterministic, EventStream, GapGauge,
    NoProbe, Probe, Salvage, TraceEvent,
};
use bshm_sim::OnlineScheduler;
use bshm_workload::catalogs::{dec_geometric, inc_geometric, sawtooth};
use bshm_workload::{ArrivalProcess, DurationLaw, SizeLaw, WorkloadSpec};
use serde::Serialize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

/// Builds a boxed scheduler for an algorithm name over an instance.
///
/// The service takes this as an injected dependency, so tests can hand in
/// a misbehaving scheduler; production runs [`builtin_factory`].
pub type SchedulerFactory =
    Box<dyn FnMut(&str, &Instance) -> Result<Box<dyn OnlineScheduler>, String> + Send>;

/// The factory over every algorithm in [`bshm_algos::registry`]: online
/// policies directly, offline ones replayed through
/// [`bshm_sim::ScriptScheduler`].
#[must_use]
pub fn builtin_factory() -> SchedulerFactory {
    Box::new(bshm_algos::registry::online_or_scripted)
}

/// A tenant's admission-time description.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct TenantSpec {
    /// Service-unique tenant name.
    pub name: String,
    /// Placement algorithm (resolved by the service's factory).
    pub algorithm: String,
    /// Priority: higher survives longer; the shed rung removes the
    /// lowest-priority tenants first.
    pub priority: u32,
    /// Workload spec string `family:n:seed` with family
    /// `dec`, `inc` or `saw`.
    pub workload: String,
    /// Fault-plan spec (`""`/`"none"` for a clean run).
    pub faults: String,
}

impl TenantSpec {
    /// Parses the `ADMIT` argument list:
    /// `<name> <algorithm> <priority> <family>:<n>:<seed> [faultspec]`.
    pub fn parse(args: &[&str]) -> Result<TenantSpec, String> {
        if args.len() < 4 || args.len() > 5 {
            return Err(
                "usage: ADMIT <name> <algorithm> <priority> <family>:<n>:<seed> [faults]"
                    .to_string(),
            );
        }
        if !args[0]
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_')
            || args[0].is_empty()
        {
            return Err(format!("tenant name `{}` must be [A-Za-z0-9_-]+", args[0]));
        }
        let priority: u32 = args[2]
            .parse()
            .map_err(|_| format!("priority `{}` must be a u32", args[2]))?;
        let spec = TenantSpec {
            name: args[0].to_string(),
            algorithm: args[1].to_string(),
            priority,
            workload: args[3].to_string(),
            faults: args.get(4).unwrap_or(&"").to_string(),
        };
        spec.build_instance()?; // validate eagerly so ADMIT fails loudly
        FaultPlan::parse(&spec.faults)?;
        Ok(spec)
    }

    /// Generates the tenant's (deterministic) instance from the workload
    /// spec string.
    pub fn build_instance(&self) -> Result<Instance, String> {
        let mut parts = self.workload.split(':');
        let family = parts.next().unwrap_or("");
        let n: usize = parts
            .next()
            .ok_or_else(|| format!("workload `{}`: missing job count", self.workload))?
            .parse()
            .map_err(|_| format!("workload `{}`: bad job count", self.workload))?;
        let seed: u64 = parts
            .next()
            .ok_or_else(|| format!("workload `{}`: missing seed", self.workload))?
            .parse()
            .map_err(|_| format!("workload `{}`: bad seed", self.workload))?;
        if parts.next().is_some() {
            return Err(format!("workload `{}`: trailing fields", self.workload));
        }
        if n == 0 {
            return Err(format!(
                "workload `{}`: need at least one job",
                self.workload
            ));
        }
        let catalog = match family {
            "dec" => dec_geometric(4, 4),
            "inc" => inc_geometric(4, 4),
            "saw" => sawtooth(4, 4),
            other => {
                return Err(format!(
                    "workload family `{other}` (expected dec, inc or saw)"
                ))
            }
        };
        let spec = WorkloadSpec {
            n,
            seed,
            arrivals: ArrivalProcess::Poisson { mean_gap: 3.0 },
            durations: DurationLaw::Uniform { min: 5, max: 30 },
            sizes: SizeLaw::HeavyTail {
                min: 1,
                max: 64,
                alpha: 1.3,
            },
        };
        Ok(spec.generate(catalog))
    }
}

/// What one supervised batch step did.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub enum StepOutcome {
    /// The batch ran to its stop point (or instance completion).
    Advanced {
        /// Driver events processed so far (cumulative).
        processed: u64,
        /// Whether the whole instance is finished.
        done: bool,
        /// Whether the batch's health evaluation fired alerts.
        pressured: bool,
    },
    /// The scheduler panicked mid-batch; the supervisor marked the
    /// tenant killed (it restarts from its checkpoint on the next step).
    Panicked,
}

/// The restore drill's verified evidence.
#[derive(Clone, Debug, Serialize)]
pub struct RestoreProof {
    /// FNV-1a digest of the restored checkpoint's canonical JSON.
    pub checkpoint_digest: u64,
    /// Whether the replayed checkpoint matched the stored one
    /// field-for-field (decisions, digests, counters).
    pub checkpoint_match: bool,
    /// Whether the salvaged log was a prefix of the replayed events.
    pub salvage_prefix_match: bool,
    /// Whether the salvaged placement sequence matched the replayed one.
    pub placement_match: bool,
    /// Events recovered from the (possibly torn) log.
    pub salvaged_events: u64,
    /// Damaged lines dropped by salvage.
    pub dropped_lines: u64,
    /// Damaged bytes dropped by salvage.
    pub dropped_bytes: u64,
    /// Salvaged events past the checkpoint (uncommitted work discarded
    /// by the restore; it is re-executed deterministically later).
    pub discarded_future: u64,
}

impl RestoreProof {
    /// Whether every verification held.
    #[must_use]
    pub fn verified(&self) -> bool {
        self.checkpoint_match && self.salvage_prefix_match && self.placement_match
    }
}

/// A fold over the tenant's event history that remembers how many events
/// it has absorbed, so each step feeds it only the new ones.
#[derive(Debug)]
struct Live<F> {
    fold: F,
    absorbed: usize,
}

/// One supervised tenant.
#[derive(Debug)]
pub struct Tenant {
    spec: TenantSpec,
    instance: Instance,
    plan: FaultPlan,
    algorithm: String,
    /// Event history up to `processed` (checkpoint-consistent).
    events: Vec<TraceEvent>,
    /// Leading events of `events` already in the published log; the next
    /// write appends the rest (0 rewrites the log from scratch).
    logged: usize,
    /// The run setup every batch shares, built on the first run so
    /// admission stays cheap.
    prepared: Option<PreparedRun>,
    /// The live SLO fold.
    health: Option<Live<HealthProbe<NoProbe>>>,
    /// The live gap gauge (dropped while gap gauges are off).
    gap: Option<Live<GapGauge>>,
    processed: u64,
    checkpoint: Option<Checkpoint>,
    checkpoint_path: PathBuf,
    log_path: PathBuf,
    /// The bounded admission queue (typed backpressure lives here).
    pub queue: BoundedQueue,
    done: bool,
    alive: bool,
    shed: bool,
    restarts: u32,
    last_alerts: u64,
    last_reason: Option<AlertReason>,
    gap_ratio: Option<f64>,
}

impl Tenant {
    /// Admits a tenant: builds its instance and registers its durable
    /// artifact paths under `data_dir`.
    pub fn admit(spec: TenantSpec, data_dir: &Path, queue: BoundedQueue) -> Result<Tenant, String> {
        let instance = spec.build_instance()?;
        let plan = FaultPlan::parse(&spec.faults)?;
        std::fs::create_dir_all(data_dir)
            .map_err(|e| format!("creating {}: {e}", data_dir.display()))?;
        Ok(Tenant {
            algorithm: spec.algorithm.clone(),
            checkpoint_path: data_dir.join(format!("{}.checkpoint.json", spec.name)),
            log_path: data_dir.join(format!("{}.events.jsonl", spec.name)),
            spec,
            instance,
            plan,
            events: Vec::new(),
            logged: 0,
            prepared: None,
            health: None,
            gap: None,
            processed: 0,
            checkpoint: None,
            queue,
            done: false,
            alive: true,
            shed: false,
            restarts: 0,
            last_alerts: 0,
            last_reason: None,
            gap_ratio: None,
        })
    }

    /// The admission-time spec.
    #[must_use]
    pub fn spec(&self) -> &TenantSpec {
        &self.spec
    }

    /// The algorithm currently in force (the ladder may have overridden
    /// the admitted one).
    #[must_use]
    pub fn algorithm(&self) -> &str {
        &self.algorithm
    }

    /// Driver events processed so far — the tenant's event clock.
    #[must_use]
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Whether the instance ran to completion.
    #[must_use]
    pub fn done(&self) -> bool {
        self.done
    }

    /// Whether the tenant is live (not killed/panicked awaiting restore).
    #[must_use]
    pub fn alive(&self) -> bool {
        self.alive
    }

    /// Whether the shed rung removed this tenant.
    #[must_use]
    pub fn shed(&self) -> bool {
        self.shed
    }

    /// Marks the tenant shed (rung 3). Its artifacts stay on disk.
    pub fn mark_shed(&mut self) {
        self.shed = true;
    }

    /// Supervisor restarts performed so far.
    #[must_use]
    pub fn restarts(&self) -> u32 {
        self.restarts
    }

    /// Alerts fired by the last batch's SLO evaluation.
    #[must_use]
    pub fn last_alerts(&self) -> u64 {
        self.last_alerts
    }

    /// Dominant alert reason of the last pressured batch.
    #[must_use]
    pub fn last_reason(&self) -> Option<AlertReason> {
        self.last_reason
    }

    /// The last computed optimality-gap ratio (rung 0 only).
    #[must_use]
    pub fn gap_ratio(&self) -> Option<f64> {
        self.gap_ratio
    }

    /// The event history (checkpoint-consistent prefix).
    #[must_use]
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Path of the tenant's durable event log.
    #[must_use]
    pub fn log_path(&self) -> &Path {
        &self.log_path
    }

    /// Path of the tenant's durable checkpoint.
    #[must_use]
    pub fn checkpoint_path(&self) -> &Path {
        &self.checkpoint_path
    }

    /// FNV-1a digest of the current checkpoint's canonical JSON (0 when
    /// no checkpoint has been taken yet).
    #[must_use]
    pub fn state_digest(&self) -> u64 {
        match &self.checkpoint {
            Some(cp) => cp
                .to_json()
                .map(|j| fnv1a64(j.as_bytes()))
                .unwrap_or_default(),
            None => 0,
        }
    }

    /// The ladder's rung-2 rebase: force `algorithm` and restart the
    /// tenant's history from event 0 under it (the decision log of the
    /// old algorithm cannot verify the new one's replay, so the history
    /// is deliberately discarded — one full deterministic re-run is the
    /// price of moving to the cheaper algorithm).
    pub fn force_algorithm(&mut self, algorithm: &str) -> Result<(), String> {
        if self.algorithm == algorithm || self.shed {
            return Ok(());
        }
        self.algorithm = algorithm.to_string();
        self.reset_history(Vec::new());
        self.processed = 0;
        self.checkpoint = None;
        self.done = false;
        self.alive = true;
        std::fs::remove_file(&self.checkpoint_path).ok();
        std::fs::remove_file(&self.log_path).ok();
        Ok(())
    }

    /// Runs one supervised batch of up to `batch_events` driver events,
    /// checkpoints at the stop point, appends the batch to the durable
    /// log, and feeds it to the live SLO fold (and, when `gap_enabled`,
    /// the gap gauge). A killed tenant is restarted (restored) first —
    /// that IS the supervision contract. A panicking scheduler is caught
    /// and the tenant marked killed.
    pub fn step(
        &mut self,
        factory: &mut SchedulerFactory,
        batch_events: u64,
        slo: &SloSpec,
        gap_enabled: bool,
    ) -> Result<StepOutcome, String> {
        if self.shed {
            return Err(format!("tenant {} was shed", self.spec.name));
        }
        if !self.alive {
            // Supervised restart: restore from durable artifacts, then run.
            let proof = self.restore(factory)?;
            if !proof.verified() {
                return Err(format!(
                    "tenant {}: restore verification failed",
                    self.spec.name
                ));
            }
            self.restarts += 1;
        }
        if self.done {
            return Ok(StepOutcome::Advanced {
                processed: self.processed,
                done: true,
                pressured: false,
            });
        }
        let target = self.processed + batch_events.max(1);
        let mut scheduler = (factory)(&self.algorithm, &self.instance)?;
        let run = catch_unwind(AssertUnwindSafe(|| {
            self.run_to(scheduler.as_mut(), target, true)
        }));
        let (outcome, mut batch) = match run {
            Ok(Ok(ran)) => ran,
            Ok(Err(FaultError::Sim(e))) => return Err(format!("driver: {e}")),
            Ok(Err(FaultError::Checkpoint(msg))) => return Err(format!("checkpoint: {msg}")),
            Err(_) => {
                // The scheduler panicked mid-batch. Durable state (log +
                // checkpoint from the previous batch) is untouched and
                // consistent; drop in-memory state and let the next step
                // restore from disk.
                self.alive = false;
                self.reset_history(Vec::new());
                self.checkpoint = None;
                return Ok(StepOutcome::Panicked);
            }
        };
        self.events.append(&mut batch);
        self.processed = outcome.events_processed;
        self.done = outcome.completed;
        if let Some(cp) = outcome.checkpoint {
            cp.save(&self.checkpoint_path)?;
            self.checkpoint = Some(cp);
        }
        self.write_log()?;
        // SLO evaluation over the whole history on the event clock:
        // deterministic, and window state carries across batches because
        // the fold does.
        let report = self.live_report(slo);
        self.last_alerts = bshm_core::convert::count_u64(report.alerts.len());
        self.last_reason = dominant_reason(&report);
        self.gap_ratio = if gap_enabled {
            self.live_gap_ratio()
        } else {
            self.gap = None;
            None
        };
        Ok(StepOutcome::Advanced {
            processed: self.processed,
            done: self.done,
            pressured: self.last_alerts > 0,
        })
    }

    /// Simulates a mid-batch kill: runs `extra` driver events past the
    /// checkpoint, tears the final line of the would-be log (the shape of
    /// a buffered write killed mid-flush), leaves it as the `.partial`
    /// crash artifact, and drops all in-memory state. Only the durable
    /// artifacts survive, exactly like a real SIGKILL.
    pub fn kill(&mut self, factory: &mut SchedulerFactory, extra: u64) -> Result<(), String> {
        if !self.alive {
            return Err(format!("tenant {} is already down", self.spec.name));
        }
        let target = self.processed + extra.max(1);
        let mut scheduler = (factory)(&self.algorithm, &self.instance)?;
        // The kill discards the would-be checkpoint.
        let (_, batch) = self
            .run_to(scheduler.as_mut(), target, true)
            .map_err(|e| format!("kill batch: {e}"))?;
        let text = jsonl_string(self.events.iter().chain(&batch))
            .map_err(|e| format!("encoding torn log: {e}"))?;
        let torn = tear_final_line(&text);
        std::fs::remove_file(&self.log_path).ok();
        std::fs::write(bshm_obs::sink::partial_path(&self.log_path), torn)
            .map_err(|e| format!("writing torn log: {e}"))?;
        self.alive = false;
        self.reset_history(Vec::new());
        self.checkpoint = None;
        Ok(())
    }

    /// Restores the tenant from its durable artifacts alone: loads the
    /// checkpoint, salvages the (possibly torn) event log, replays the
    /// instance deterministically up to the checkpoint, and verifies the
    /// replayed checkpoint, event prefix and placement sequence against
    /// what was salvaged. Always returns the proof; callers decide
    /// whether an unverified restore is fatal.
    pub fn restore(&mut self, factory: &mut SchedulerFactory) -> Result<RestoreProof, String> {
        let stored = if self.checkpoint_path.exists() {
            Some(Checkpoint::load(&self.checkpoint_path)?)
        } else {
            None
        };
        let salvage =
            if self.log_path.exists() || bshm_obs::sink::partial_path(&self.log_path).exists() {
                EventStream::open(&self.log_path)?.salvage()?
            } else {
                Salvage::default()
            };
        let target = stored.as_ref().map_or(0, |cp| cp.events_processed);
        let (replayed, new_cp) = if target == 0 {
            (Vec::new(), None)
        } else {
            let mut scheduler = (factory)(&self.algorithm, &self.instance)?;
            // Free replay: verification is explicit below.
            let (outcome, events) = self
                .run_to(scheduler.as_mut(), target, false)
                .map_err(|e| format!("restore replay: {e}"))?;
            (events, outcome.checkpoint)
        };
        let checkpoint_match = match (&stored, &new_cp) {
            (None, None) => true,
            (Some(a), Some(b)) => {
                a.instance_digest == b.instance_digest
                    && a.events_processed == b.events_processed
                    && a.trace_events_emitted == b.trace_events_emitted
                    && a.decisions == b.decisions
                    && a.algorithm == b.algorithm
            }
            _ => false,
        };
        let overlap = replayed.len().min(salvage.events.len());
        let salvage_prefix_match = salvage.events[..overlap] == replayed[..overlap];
        let placements = |events: &[TraceEvent]| -> Vec<TraceEvent> {
            events
                .iter()
                .filter(|e| matches!(e, TraceEvent::Placement { .. }))
                .cloned()
                .collect()
        };
        let replayed_placements = placements(&replayed[..overlap.min(replayed.len())]);
        let salvaged_placements = placements(&salvage.events[..overlap]);
        let placement_match = replayed_placements == salvaged_placements;
        let discarded_future =
            bshm_core::convert::count_u64(salvage.events.len().saturating_sub(replayed.len()));
        let proof = RestoreProof {
            checkpoint_digest: stored
                .as_ref()
                .and_then(|cp| cp.to_json().ok())
                .map(|j| fnv1a64(j.as_bytes()))
                .unwrap_or(0),
            checkpoint_match,
            salvage_prefix_match,
            placement_match,
            salvaged_events: bshm_core::convert::count_u64(salvage.events.len()),
            dropped_lines: salvage.dropped_lines,
            dropped_bytes: salvage.dropped_bytes,
            discarded_future,
        };
        // Adopt the replayed state and republish a clean log.
        self.reset_history(replayed);
        self.processed = target;
        self.checkpoint = stored;
        self.done = false;
        self.alive = true;
        self.write_log()?;
        Ok(proof)
    }

    /// Drain: flush the durable log and make sure the last checkpoint is
    /// on disk. The tenant stays queryable but takes no more work.
    pub fn drain(&mut self) -> Result<(), String> {
        if let Some(cp) = &self.checkpoint {
            cp.save(&self.checkpoint_path)?;
        }
        self.write_log()
    }

    /// One-line status fragment for `STATS`.
    #[must_use]
    pub fn status(&self) -> TenantStatus {
        TenantStatus {
            name: self.spec.name.clone(),
            algorithm: self.algorithm.clone(),
            priority: self.spec.priority,
            processed: self.processed,
            done: self.done,
            alive: self.alive,
            shed: self.shed,
            restarts: self.restarts,
            queued: self.queue.len(),
            queue_capacity: self.queue.capacity(),
            queue_peak: self.queue.peak(),
            rejections: self.queue.rejections(),
            last_alerts: self.last_alerts,
            gap_ratio: self.gap_ratio,
            state_digest: self.state_digest(),
        }
    }

    /// Evaluates `slo` over the tenant's full event history (on the
    /// event clock; no wall time involved), folding it from event 0.
    #[must_use]
    pub fn evaluate_slo(&self, slo: &SloSpec) -> HealthReport {
        let mut hp = HealthProbe::new(slo.clone(), self.instance.catalog().len(), NoProbe);
        for e in &self.events {
            hp.record(e);
        }
        let (_, report) = hp.into_parts();
        report
    }

    /// The live SLO fold's report as of the last step: equal to
    /// [`Tenant::evaluate_slo`] under that step's spec, without the
    /// rescan. `None` before the first step and after a reset (kill,
    /// panic, restore, algorithm rebase) until the next step.
    #[must_use]
    pub fn live_health(&self) -> Option<HealthReport> {
        self.health.as_ref().map(|live| live.fold.settled_report())
    }

    /// Drives the instance from event 0 up to `target` driver events
    /// under `scheduler` and the backoff recovery policy. With `resume`
    /// the run verifies every decision against the current checkpoint and
    /// returns only the trace events past it; without, it replays freely
    /// and returns them all.
    fn run_to(
        &mut self,
        scheduler: &mut dyn OnlineScheduler,
        target: u64,
        resume: bool,
    ) -> Result<(FaultOutcome, Vec<TraceEvent>), FaultError> {
        let prepared = match self.prepared.take() {
            Some(prepared) => prepared,
            None => PreparedRun::new(&self.instance, &self.plan)?,
        };
        let mut probe = Deterministic(Collector::default());
        let opts = RunOptions {
            stop_after: Some(target),
            checkpoint_every: None,
            checkpoint_path: None,
            resume_from: self.checkpoint.as_ref().filter(|_| resume),
        };
        let outcome = prepared.run(scheduler, &mut Backoff::default(), &mut probe, &opts);
        self.prepared = Some(prepared);
        outcome.map(|outcome| (outcome, probe.0.events))
    }

    /// Replaces the in-memory history, forgetting everything derived
    /// from the old one: the live folds and the logged prefix.
    fn reset_history(&mut self, events: Vec<TraceEvent>) {
        self.events = events;
        self.logged = 0;
        self.health = None;
        self.gap = None;
    }

    /// Brings the live SLO fold up to date and returns its settled
    /// report. A fold under a different spec is rebuilt from event 0.
    fn live_report(&mut self, slo: &SloSpec) -> HealthReport {
        let mut live = match self.health.take() {
            Some(live) if live.fold.spec() == slo => live,
            _ => Live {
                fold: HealthProbe::new(slo.clone(), self.instance.catalog().len(), NoProbe),
                absorbed: 0,
            },
        };
        for e in &self.events[live.absorbed..] {
            live.fold.record(e);
        }
        live.absorbed = self.events.len();
        let report = live.fold.settled_report();
        self.health = Some(live);
        report
    }

    /// Brings the live gap gauge up to date and returns the ratio at its
    /// settled sample: bit-equal to the final ratio of
    /// `compute_gap_timeline` over the history.
    fn live_gap_ratio(&mut self) -> Option<f64> {
        let live = self.gap.get_or_insert_with(|| Live {
            fold: GapGauge::new(self.instance.catalog()),
            absorbed: 0,
        });
        for e in &self.events[live.absorbed..] {
            live.fold.observe(e);
        }
        live.absorbed = self.events.len();
        live.fold.settled_point().and_then(|p| p.ratio())
    }

    /// Publishes the history: appends the events past the logged prefix
    /// to the durable log, or rewrites it when nothing is logged yet.
    fn write_log(&mut self) -> Result<(), String> {
        let mut w = if self.logged == 0 {
            TraceWriter::create(&self.log_path)?
        } else {
            TraceWriter::extend(&self.log_path)?
        };
        write_jsonl(&mut w, &self.events[self.logged..])
            .map_err(|e| format!("writing log: {e}"))?;
        w.finalize()?;
        self.logged = self.events.len();
        Ok(())
    }
}

/// One tenant's row in the `STATS` report.
#[derive(Clone, Debug, Serialize)]
pub struct TenantStatus {
    /// Tenant name.
    pub name: String,
    /// Algorithm currently in force.
    pub algorithm: String,
    /// Admission priority.
    pub priority: u32,
    /// Driver events processed.
    pub processed: u64,
    /// Instance finished.
    pub done: bool,
    /// Live (not awaiting restore).
    pub alive: bool,
    /// Removed by the shed rung.
    pub shed: bool,
    /// Supervisor restarts.
    pub restarts: u32,
    /// Work units queued.
    pub queued: usize,
    /// Queue capacity.
    pub queue_capacity: usize,
    /// Peak queue length ever observed.
    pub queue_peak: usize,
    /// Typed Overload rejections issued.
    pub rejections: u64,
    /// Alerts fired by the last batch.
    pub last_alerts: u64,
    /// Last optimality-gap ratio (rung 0 only).
    pub gap_ratio: Option<f64>,
    /// FNV digest of the current checkpoint.
    pub state_digest: u64,
}

/// The most frequent alert reason in a health report (ties broken by
/// registry order), if any alert fired.
#[must_use]
pub fn dominant_reason(report: &HealthReport) -> Option<AlertReason> {
    AlertReason::ALL
        .into_iter()
        .map(|r| (report.count(r), r))
        .filter(|(c, _)| *c > 0)
        .max_by(|a, b| a.0.cmp(&b.0).then_with(|| b.1.index().cmp(&a.1.index())))
        .map(|(_, r)| r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bshm_algos::baseline::FirstFitAny;
    use bshm_faults::BackoffSchedule;

    fn data_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("bshm-tenant-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn queue() -> BoundedQueue {
        BoundedQueue::new(4, BackoffSchedule::default())
    }

    fn spec(name: &str) -> TenantSpec {
        TenantSpec::parse(&[name, "dec-online", "5", "dec:40:11"]).unwrap()
    }

    #[test]
    fn spec_parse_validates() {
        assert!(TenantSpec::parse(&["t"]).is_err());
        assert!(TenantSpec::parse(&["bad name!", "dec-online", "1", "dec:10:1"]).is_err());
        assert!(TenantSpec::parse(&["t", "dec-online", "x", "dec:10:1"]).is_err());
        assert!(TenantSpec::parse(&["t", "dec-online", "1", "nope:10:1"]).is_err());
        assert!(TenantSpec::parse(&["t", "dec-online", "1", "dec:10:1", "not-a-plan"]).is_err());
        let s = TenantSpec::parse(&["t", "dec-online", "1", "dec:10:1", "seeded:9:1"]).unwrap();
        assert_eq!(s.faults, "seeded:9:1");
        // Same spec string ⇒ identical instance.
        assert_eq!(s.build_instance().unwrap(), s.build_instance().unwrap());
    }

    #[test]
    fn batches_advance_and_checkpoint() {
        let dir = data_dir("step");
        let mut f = builtin_factory();
        let slo = SloSpec::parse(bshm_obs::slo::DEFAULT_SLO_SPEC).unwrap();
        let mut t = Tenant::admit(spec("a"), &dir, queue()).unwrap();
        let o1 = t.step(&mut f, 20, &slo, true).unwrap();
        match o1 {
            StepOutcome::Advanced { processed, .. } => assert_eq!(processed, 20),
            o => panic!("unexpected {o:?}"),
        }
        assert!(t.checkpoint_path().exists());
        assert!(t.log_path().exists());
        let d1 = t.state_digest();
        assert_ne!(d1, 0);
        // Run to completion.
        let mut guard = 0;
        while !t.done() {
            let _ = t.step(&mut f, 20, &slo, true).unwrap();
            guard += 1;
            assert!(guard < 100, "instance should finish");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn kill_then_restore_is_digest_identical() {
        let dir = data_dir("kill");
        let mut f = builtin_factory();
        let slo = SloSpec::parse(bshm_obs::slo::DEFAULT_SLO_SPEC).unwrap();
        let mut t = Tenant::admit(spec("k"), &dir, queue()).unwrap();
        let _ = t.step(&mut f, 25, &slo, true).unwrap();
        let digest_before = t.state_digest();
        let events_before = t.events().to_vec();
        t.kill(&mut f, 10).unwrap();
        assert!(!t.alive());
        assert!(t.events().is_empty(), "memory dropped on kill");
        let proof = t.restore(&mut f).unwrap();
        assert!(proof.verified(), "{proof:?}");
        assert!(proof.salvaged_events > 0);
        assert_eq!(proof.checkpoint_digest, digest_before);
        assert_eq!(t.state_digest(), digest_before);
        assert_eq!(t.events(), &events_before[..]);
        assert!(t.alive());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn panicking_scheduler_is_caught_and_restarted() {
        /// First-fit that panics on its second arrival.
        struct PanicAfter(u32, FirstFitAny);
        impl OnlineScheduler for PanicAfter {
            fn on_arrival(
                &mut self,
                view: bshm_sim::ArrivalView,
                pool: &mut bshm_sim::MachinePool,
            ) -> bshm_core::MachineId {
                assert!(self.0 > 0, "injected panic");
                self.0 -= 1;
                self.1.on_arrival(view, pool)
            }
            fn name(&self) -> &'static str {
                // Match FirstFitAny so the batch-1 checkpoint's algorithm
                // fingerprint accepts this impostor at resume.
                self.1.name()
            }
        }
        let dir = data_dir("panic");
        let slo = SloSpec::parse(bshm_obs::slo::DEFAULT_SLO_SPEC).unwrap();
        let mut calls = 0u32;
        let mut f: SchedulerFactory = Box::new(move |name, instance| {
            calls += 1;
            if calls == 2 {
                // Second batch: a scheduler that panics mid-run.
                Ok(Box::new(PanicAfter(1, FirstFitAny::default())))
            } else {
                (builtin_factory())(name, instance)
            }
        });
        let mut t = Tenant::admit(
            TenantSpec::parse(&["p", "first-fit-any", "1", "dec:30:3"]).unwrap(),
            &dir,
            queue(),
        )
        .unwrap();
        let _ = t.step(&mut f, 10, &slo, false).unwrap();
        let o = t.step(&mut f, 10, &slo, false).unwrap();
        assert_eq!(o, StepOutcome::Panicked);
        assert!(!t.alive());
        assert!(t.live_health().is_none(), "a panic resets the live folds");
        // Supervision: the next step restores from disk and advances.
        let o = t.step(&mut f, 10, &slo, false).unwrap();
        match o {
            StepOutcome::Advanced { processed, .. } => assert_eq!(processed, 20),
            o => panic!("unexpected {o:?}"),
        }
        assert_eq!(t.restarts(), 1);
        // The folds and the log were rebuilt from the restored history.
        assert_eq!(
            format!("{:?}", t.live_health().unwrap()),
            format!("{:?}", t.evaluate_slo(&slo))
        );
        let encoded: String = t
            .events()
            .iter()
            .map(|e| serde_json::to_string(e).unwrap() + "\n")
            .collect();
        assert_eq!(std::fs::read_to_string(t.log_path()).unwrap(), encoded);
        std::fs::remove_dir_all(&dir).ok();
    }
}
