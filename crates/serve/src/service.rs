//! The resident multi-tenant scheduler service.
//!
//! One [`Service`] hosts many supervised [`Tenant`]s behind a
//! line-oriented protocol (one request line in, one response line out):
//!
//! ```text
//! ADMIT <name> <algorithm> <priority> <family>:<n>:<seed> [faults]
//! SUBMIT <name> <units>
//! STEP <name>
//! KILL <name>
//! RESTORE <name>
//! HEALTH <name>
//! STATS
//! DRAIN
//! QUIT
//! ```
//!
//! Responses start with `OK`, `OVERLOAD` (typed backpressure, carrying a
//! deterministic retry-after) or `ERR`. The service keeps a durable
//! service-level trace (`service.jsonl`) of every tenant lifecycle
//! transition and every degradation-ladder move, written with the same
//! crash-safe discipline as tenant logs. All time is the event clock —
//! the sum of driver events processed across tenants — so every run of
//! the same request script is bit-identical.

use crate::ladder::{Ladder, CHEAPEST_ALGORITHM};
use crate::queue::BoundedQueue;
use crate::tenant::{SchedulerFactory, StepOutcome, Tenant, TenantSpec, TenantStatus};
use bshm_faults::BackoffSchedule;
use bshm_obs::sink::TraceWriter;
use bshm_obs::slo::SloSpec;
use bshm_obs::{TenantPhase, TraceEvent};
use serde::Serialize;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::PathBuf;

/// Tuning knobs for a [`Service`].
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Directory holding every durable artifact (checkpoints, event
    /// logs, the service trace).
    pub data_dir: PathBuf,
    /// Capacity of each tenant's admission queue.
    pub queue_capacity: usize,
    /// Driver events one `STEP` advances a tenant by.
    pub batch_events: u64,
    /// The SLO evaluated over each tenant's history after every batch.
    pub slo: SloSpec,
    /// The seeded schedule Overload retry-afters are drawn from.
    pub backoff: BackoffSchedule,
    /// Consecutive pressured steps before the ladder escalates a rung.
    pub patience: u32,
}

impl ServiceConfig {
    /// A config with the workspace-default SLO and backoff schedule.
    #[must_use]
    pub fn new(data_dir: impl Into<PathBuf>) -> Self {
        ServiceConfig {
            data_dir: data_dir.into(),
            queue_capacity: 8,
            batch_events: 32,
            slo: SloSpec::default(),
            backoff: BackoffSchedule::default(),
            patience: 2,
        }
    }
}

/// The full service status, serialized as the `STATS` response.
#[derive(Debug, Serialize)]
pub struct ServiceStats {
    /// Total driver events processed across all tenants.
    pub clock: u64,
    /// Current degradation rung.
    pub rung: u64,
    /// Current rung's name.
    pub rung_name: &'static str,
    /// Whether the service has drained (no more work accepted).
    pub draining: bool,
    /// Ladder transitions so far.
    pub degradations: u64,
    /// Per-tenant status rows, in name order.
    pub tenants: Vec<TenantStatus>,
}

/// The resident service: supervised tenants + admission queues + the
/// degradation ladder + the durable service trace.
pub struct Service {
    config: ServiceConfig,
    factory: SchedulerFactory,
    tenants: BTreeMap<String, Tenant>,
    ladder: Ladder,
    clock: u64,
    service_log: Option<TraceWriter>,
    service_events: Vec<TraceEvent>,
    draining: bool,
}

impl std::fmt::Debug for Service {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Service")
            .field("tenants", &self.tenants.len())
            .field("clock", &self.clock)
            .field("rung", &self.ladder.rung())
            .field("draining", &self.draining)
            .finish()
    }
}

impl Service {
    /// Boots a service over `factory`, opening the durable service trace
    /// under the config's data directory.
    pub fn new(config: ServiceConfig, factory: SchedulerFactory) -> Result<Service, String> {
        std::fs::create_dir_all(&config.data_dir)
            .map_err(|e| format!("creating {}: {e}", config.data_dir.display()))?;
        let service_log =
            Some(TraceWriter::create(config.data_dir.join("service.jsonl"))?.flush_each(true));
        Ok(Service {
            ladder: Ladder::new(config.patience),
            config,
            factory,
            tenants: BTreeMap::new(),
            clock: 0,
            service_log,
            service_events: Vec::new(),
            draining: false,
        })
    }

    /// The service event clock: total driver events processed.
    #[must_use]
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// The degradation ladder (read-only).
    #[must_use]
    pub fn ladder(&self) -> &Ladder {
        &self.ladder
    }

    /// Every service-level trace event emitted so far.
    #[must_use]
    pub fn service_events(&self) -> &[TraceEvent] {
        &self.service_events
    }

    /// A tenant by name, if admitted.
    #[must_use]
    pub fn tenant(&self, name: &str) -> Option<&Tenant> {
        self.tenants.get(name)
    }

    /// The full status snapshot (what `STATS` serializes).
    #[must_use]
    pub fn stats(&self) -> ServiceStats {
        ServiceStats {
            clock: self.clock,
            rung: self.ladder.rung(),
            rung_name: self.ladder.rung_name(),
            draining: self.draining,
            degradations: bshm_core::convert::count_u64(self.ladder.transitions().len()),
            tenants: self.tenants.values().map(Tenant::status).collect(),
        }
    }

    fn emit(&mut self, event: TraceEvent) -> Result<(), String> {
        if let Some(w) = &mut self.service_log {
            let line = serde_json::to_string(&event)
                .map_err(|e| format!("encoding service event: {e}"))?;
            writeln!(w, "{line}").map_err(|e| format!("writing service trace: {e}"))?;
        }
        self.service_events.push(event);
        Ok(())
    }

    fn lifecycle(&mut self, t: u64, tenant: &str, phase: TenantPhase) -> Result<(), String> {
        self.emit(TraceEvent::TenantLifecycle {
            t,
            tenant: tenant.to_string(),
            phase,
        })
    }

    /// Dispatches one protocol line. Never panics; malformed input gets
    /// an `ERR` line.
    pub fn handle_line(&mut self, line: &str) -> String {
        match self.dispatch(line) {
            Ok(reply) => reply,
            Err(msg) => format!("ERR {msg}"),
        }
    }

    fn dispatch(&mut self, line: &str) -> Result<String, String> {
        let parts: Vec<&str> = line.split_whitespace().collect();
        let Some((&cmd, args)) = parts.split_first() else {
            return Err("empty request".to_string());
        };
        if self.draining && !matches!(cmd, "STATS" | "HEALTH" | "QUIT" | "SHUTDOWN") {
            return Err("service is draining".to_string());
        }
        match cmd {
            "ADMIT" => self.cmd_admit(args),
            "SUBMIT" => self.cmd_submit(args),
            "STEP" => self.cmd_step(args),
            "KILL" => self.cmd_kill(args),
            "RESTORE" => self.cmd_restore(args),
            "HEALTH" => self.cmd_health(args),
            "STATS" => {
                serde_json::to_string(&self.stats()).map_err(|e| format!("encoding stats: {e}"))
            }
            "DRAIN" => self.cmd_drain(),
            "QUIT" | "SHUTDOWN" => Ok("OK bye".to_string()),
            other => Err(format!("unknown command `{other}`")),
        }
    }

    fn cmd_admit(&mut self, args: &[&str]) -> Result<String, String> {
        let spec = TenantSpec::parse(args)?;
        if self.tenants.contains_key(&spec.name) {
            return Err(format!("tenant `{}` already admitted", spec.name));
        }
        if self.ladder.shedding() {
            return Err("service is shedding tenants; admission closed".to_string());
        }
        let queue = BoundedQueue::new(self.config.queue_capacity, self.config.backoff);
        let mut tenant = Tenant::admit(spec, &self.config.data_dir, queue)?;
        if let Some(forced) = self.ladder.forced_algorithm() {
            tenant.force_algorithm(forced)?;
        }
        let name = tenant.spec().name.clone();
        self.tenants.insert(name.clone(), tenant);
        self.lifecycle(self.clock, &name, TenantPhase::Admitted)?;
        Ok(format!("OK admitted {name}"))
    }

    fn cmd_submit(&mut self, args: &[&str]) -> Result<String, String> {
        let [name, units] = args else {
            return Err("usage: SUBMIT <name> <units>".to_string());
        };
        let units: u64 = units
            .parse()
            .map_err(|_| format!("units `{units}` must be a u64"))?;
        let tenant = self
            .tenants
            .get_mut(*name)
            .ok_or_else(|| format!("unknown tenant `{name}`"))?;
        if tenant.shed() {
            return Err(format!("tenant `{name}` was shed"));
        }
        for _ in 0..units.max(1) {
            if let Err(overload) = tenant.queue.push(name) {
                return Ok(overload.wire());
            }
        }
        Ok(format!(
            "OK queued {}/{}",
            tenant.queue.len(),
            tenant.queue.capacity()
        ))
    }

    fn cmd_step(&mut self, args: &[&str]) -> Result<String, String> {
        let [name] = args else {
            return Err("usage: STEP <name>".to_string());
        };
        let gap_enabled = self.ladder.gap_gauges_enabled();
        let (batch, slo) = (self.config.batch_events, self.config.slo.clone());
        let tenant = self
            .tenants
            .get_mut(*name)
            .ok_or_else(|| format!("unknown tenant `{name}`"))?;
        if tenant.shed() {
            return Err(format!("tenant `{name}` was shed"));
        }
        if tenant.queue.pop().is_none() {
            return Err(format!("no queued work for `{name}` (SUBMIT first)"));
        }
        let before = tenant.processed();
        let restarts_before = tenant.restarts();
        let outcome = tenant.step(&mut self.factory, batch, &slo, gap_enabled)?;
        let (reply, pressured, reason) = match outcome {
            StepOutcome::Panicked => {
                let name = (*name).to_string();
                self.lifecycle(self.clock, &name, TenantPhase::Killed)?;
                return Ok(format!(
                    "OK panicked {name} (supervised; next STEP restores from checkpoint)"
                ));
            }
            StepOutcome::Advanced {
                processed,
                done,
                pressured,
            } => {
                self.clock += processed.saturating_sub(before);
                let restored = tenant.restarts() > restarts_before;
                let reason = tenant.last_reason();
                (
                    format!(
                        "OK stepped {name} processed={processed} done={done} restored={restored} rung={}",
                        self.ladder.rung()
                    ),
                    pressured,
                    reason,
                )
            }
        };
        let name = (*name).to_string();
        if tenant.processed() > before && tenant.checkpoint_path().exists() {
            let t = tenant.processed();
            self.lifecycle(t, &name, TenantPhase::Checkpointed)?;
        }
        if let Some(tr) = self.ladder.observe(self.clock, pressured, reason) {
            self.emit(tr.event())?;
            self.apply_rung(tr.to_rung)?;
        }
        Ok(reply)
    }

    /// Applies a freshly-entered rung's effect to the tenant fleet.
    fn apply_rung(&mut self, rung: u64) -> Result<(), String> {
        match rung {
            2 => {
                // Rebase every active tenant onto the cheapest algorithm.
                for tenant in self.tenants.values_mut() {
                    if !tenant.shed() {
                        tenant.force_algorithm(CHEAPEST_ALGORITHM)?;
                    }
                }
                Ok(())
            }
            3 => {
                // Shed every tenant at the lowest admitted priority.
                let Some(min_priority) = self
                    .tenants
                    .values()
                    .filter(|t| !t.shed())
                    .map(|t| t.spec().priority)
                    .min()
                else {
                    return Ok(());
                };
                let mut shed_names = Vec::with_capacity(self.tenants.len());
                for tenant in self.tenants.values_mut() {
                    if !tenant.shed() && tenant.spec().priority == min_priority {
                        tenant.drain()?;
                        tenant.mark_shed();
                        shed_names.push((tenant.processed(), tenant.spec().name.clone()));
                    }
                }
                for (t, name) in shed_names {
                    self.lifecycle(t, &name, TenantPhase::Shed)?;
                }
                Ok(())
            }
            _ => Ok(()), // rung 1 only flips the gap gauge flag
        }
    }

    fn cmd_kill(&mut self, args: &[&str]) -> Result<String, String> {
        let [name] = args else {
            return Err("usage: KILL <name>".to_string());
        };
        let extra = (self.config.batch_events / 2).max(1);
        let tenant = self
            .tenants
            .get_mut(*name)
            .ok_or_else(|| format!("unknown tenant `{name}`"))?;
        if tenant.shed() {
            return Err(format!("tenant `{name}` was shed"));
        }
        let t = tenant.processed();
        tenant.kill(&mut self.factory, extra)?;
        let name = (*name).to_string();
        self.lifecycle(t, &name, TenantPhase::Killed)?;
        Ok(format!(
            "OK killed {name} mid-batch (torn log left on disk)"
        ))
    }

    fn cmd_restore(&mut self, args: &[&str]) -> Result<String, String> {
        let [name] = args else {
            return Err("usage: RESTORE <name>".to_string());
        };
        let tenant = self
            .tenants
            .get_mut(*name)
            .ok_or_else(|| format!("unknown tenant `{name}`"))?;
        if tenant.shed() {
            return Err(format!("tenant `{name}` was shed"));
        }
        let proof = tenant.restore(&mut self.factory)?;
        let t = tenant.processed();
        let name = (*name).to_string();
        self.lifecycle(t, &name, TenantPhase::Restored)?;
        Ok(format!(
            "OK restored {name} digest={:#018x} verified={} salvaged={} dropped_lines={} dropped_bytes={} discarded_future={}",
            proof.checkpoint_digest,
            proof.verified(),
            proof.salvaged_events,
            proof.dropped_lines,
            proof.dropped_bytes,
            proof.discarded_future,
        ))
    }

    fn cmd_health(&mut self, args: &[&str]) -> Result<String, String> {
        let [name] = args else {
            return Err("usage: HEALTH <name>".to_string());
        };
        let tenant = self
            .tenants
            .get(*name)
            .ok_or_else(|| format!("unknown tenant `{name}`"))?;
        let report = tenant.evaluate_slo(&self.config.slo);
        Ok(format!("OK health {name}: {}", report.summary()))
    }

    fn cmd_drain(&mut self) -> Result<String, String> {
        let mut drained = 0u64;
        let mut names = Vec::with_capacity(self.tenants.len());
        for tenant in self.tenants.values_mut() {
            if tenant.shed() {
                continue;
            }
            tenant.drain()?;
            names.push((tenant.processed(), tenant.spec().name.clone()));
            drained += 1;
        }
        for (t, name) in names {
            self.lifecycle(t, &name, TenantPhase::Drained)?;
        }
        self.draining = true;
        if let Some(mut w) = self.service_log.take() {
            w.finalize()?;
        }
        Ok(format!("OK drained {drained} tenant(s)"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tenant::builtin_factory;
    use std::path::PathBuf;

    fn config(tag: &str) -> ServiceConfig {
        let dir: PathBuf =
            std::env::temp_dir().join(format!("bshm-service-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let mut c = ServiceConfig::new(dir);
        c.batch_events = 16;
        c.queue_capacity = 2;
        c
    }

    fn cleanup(c: &ServiceConfig) {
        std::fs::remove_dir_all(&c.data_dir).ok();
    }

    #[test]
    fn admit_submit_step_protocol_round_trip() {
        let c = config("proto");
        let mut s = Service::new(c.clone(), builtin_factory()).unwrap();
        assert!(s
            .handle_line("ADMIT a dec-online 5 dec:40:11")
            .starts_with("OK admitted"));
        assert!(s
            .handle_line("ADMIT a dec-online 5 dec:40:11")
            .starts_with("ERR"));
        assert!(s.handle_line("SUBMIT a 2").starts_with("OK queued 2/2"));
        // Third unit overflows the capacity-2 queue: typed backpressure.
        let r = s.handle_line("SUBMIT a 1");
        assert!(r.starts_with("OVERLOAD tenant=a retry-after "), "{r}");
        let r = s.handle_line("STEP a");
        assert!(r.contains("processed=16"), "{r}");
        assert_eq!(s.clock(), 16);
        assert!(s.handle_line("STEP nope").starts_with("ERR unknown tenant"));
        assert!(s.handle_line("HEALTH a").starts_with("OK health a:"));
        let stats = s.handle_line("STATS");
        assert!(stats.contains("\"clock\":16"), "{stats}");
        assert!(s.handle_line("BOGUS").starts_with("ERR unknown command"));
        cleanup(&c);
    }

    #[test]
    fn kill_restore_drill_via_protocol() {
        let c = config("killproto");
        let mut s = Service::new(c.clone(), builtin_factory()).unwrap();
        let _ = s.handle_line("ADMIT k inc-online 5 inc:50:7");
        let _ = s.handle_line("SUBMIT k 2");
        let r1 = s.handle_line("STEP k");
        assert!(r1.starts_with("OK stepped"), "{r1}");
        let digest = s.tenant("k").unwrap().state_digest();
        assert!(s.handle_line("KILL k").starts_with("OK killed"));
        let r = s.handle_line("RESTORE k");
        assert!(r.contains("verified=true"), "{r}");
        assert!(r.contains(&format!("digest={digest:#018x}")), "{r}");
        // Lifecycle trail is on the service trace.
        let phases: Vec<String> = s
            .service_events()
            .iter()
            .filter_map(|e| match e {
                TraceEvent::TenantLifecycle { phase, .. } => Some(phase.as_str().to_string()),
                _ => None,
            })
            .collect();
        assert_eq!(phases, ["admitted", "checkpointed", "killed", "restored"]);
        cleanup(&c);
    }

    #[test]
    fn offline_algorithm_steps_checkpoints_and_restores() {
        // The built-in factory hosts the whole registry: dec-offline is
        // solved up front and replayed through the script scheduler.
        let c = config("offline");
        let mut s = Service::new(c.clone(), builtin_factory()).unwrap();
        let r = s.handle_line("ADMIT o dec-offline 5 dec:40:11");
        assert!(r.starts_with("OK admitted"), "{r}");
        let _ = s.handle_line("SUBMIT o 2");
        let r = s.handle_line("STEP o");
        assert!(r.starts_with("OK stepped"), "{r}");
        assert!(s.tenant("o").unwrap().checkpoint_path().exists());
        let digest = s.tenant("o").unwrap().state_digest();
        assert_ne!(digest, 0);
        assert!(s.handle_line("KILL o").starts_with("OK killed"));
        let r = s.handle_line("RESTORE o");
        assert!(r.contains("verified=true"), "{r}");
        assert!(r.contains(&format!("digest={digest:#018x}")), "{r}");
        let r = s.handle_line("STEP o");
        assert!(r.starts_with("OK stepped"), "{r}");
        // An unknown name is refused with the registry's list.
        let _ = s.handle_line("ADMIT x one-per-job 1 dec:10:1");
        let _ = s.handle_line("SUBMIT x 1");
        let r = s.handle_line("STEP x");
        assert!(
            r.contains("unknown algorithm") && r.contains("dec-offline"),
            "{r}"
        );
        cleanup(&c);
    }

    #[test]
    fn drain_finalizes_and_refuses_new_work() {
        let c = config("drain");
        let mut s = Service::new(c.clone(), builtin_factory()).unwrap();
        let _ = s.handle_line("ADMIT d best-fit 3 saw:30:5");
        let _ = s.handle_line("SUBMIT d 1");
        let _ = s.handle_line("STEP d");
        assert!(s.handle_line("DRAIN").starts_with("OK drained 1"));
        // The service trace was finalized (no .partial left).
        let log = c.data_dir.join("service.jsonl");
        assert!(log.exists());
        assert!(!bshm_obs::sink::partial_path(&log).exists());
        assert!(s
            .handle_line("SUBMIT d 1")
            .starts_with("ERR service is draining"));
        assert!(s.handle_line("STATS").contains("\"draining\":true"));
        cleanup(&c);
    }
}
