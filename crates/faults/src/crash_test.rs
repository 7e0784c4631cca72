//! The crash-test harness: run, kill at a checkpoint, salvage, restore,
//! verify.
//!
//! One call proves the whole recovery story end to end on a given
//! instance: the interrupted run's torn trace is salvaged back to its
//! valid prefix, the checkpoint restores into a run whose final schedule,
//! cost ledgers and trace suffix are identical to an uninterrupted run's.
//! Everything uses the [`Deterministic`] probe
//! adapter, so "identical" means byte-identical on serialized events.

use crate::plan::FaultPlan;
use crate::recovery::RecoveryPolicy;
use crate::runner::{run_online_faulted_with, FaultError, FaultReport, RunOptions};
use bshm_core::Instance;
use bshm_obs::{jsonl_string, Collector, Deterministic, EventStream, Salvage};
use bshm_sim::OnlineScheduler;
use std::path::Path;

/// Factory closures: the harness needs *fresh* scheduler/policy state for
/// each of its three runs (reference, interrupted, restored).
pub type SchedulerFactory<'a> = dyn FnMut() -> Box<dyn OnlineScheduler> + 'a;
/// See [`SchedulerFactory`].
pub type PolicyFactory<'a> = dyn FnMut() -> Box<dyn RecoveryPolicy> + 'a;

/// What the crash test measured and verified.
#[derive(Clone, Debug)]
pub struct CrashTestReport {
    /// Scheduler display name.
    pub algorithm: String,
    /// Recovery policy name.
    pub policy: String,
    /// Driver events in the uninterrupted run.
    pub events_total: u64,
    /// Driver events processed before the simulated kill.
    pub stopped_after: u64,
    /// Trace events in the uninterrupted run.
    pub trace_events_total: u64,
    /// Trace events emitted before the kill (= checkpoint's suffix start).
    pub trace_events_at_stop: u64,
    /// Events recovered from the torn trace.
    pub salvaged_events: u64,
    /// Damaged/lost trailing lines the salvage dropped.
    pub salvage_dropped_lines: u64,
    /// Bytes lost to the tear (start of the damaged line to end of file).
    pub salvage_dropped_bytes: u64,
    /// Salvaged events are a prefix of the reference trace.
    pub salvage_match: bool,
    /// Restored run's final schedule equals the reference's.
    pub schedule_match: bool,
    /// Restored run's base and recovery costs equal the reference's.
    pub cost_match: bool,
    /// Restored run's emitted events equal the reference trace suffix.
    pub suffix_match: bool,
    /// The restored run's fault report.
    pub report: FaultReport,
}

impl CrashTestReport {
    /// Whether every verification held.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.salvage_match && self.schedule_match && self.cost_match && self.suffix_match
    }

    /// A human-readable multi-line summary.
    #[must_use]
    pub fn summary(&self) -> String {
        let verdict = |ok: bool| if ok { "ok" } else { "MISMATCH" };
        format!(
            "crash-test {alg} + {pol}: {verdict}\n  events:     stopped after {stop}/{total} driver events\n  trace:      {at_stop}/{trace} events before kill\n  salvage:    {salv} events recovered, {lost} damaged line(s) / {lost_bytes} byte(s) dropped [{s}]\n  schedule:   [{sch}]  cost: [{c}]  trace suffix: [{suf}]",
            alg = self.algorithm,
            pol = self.policy,
            verdict = if self.passed() { "PASS" } else { "FAIL" },
            stop = self.stopped_after,
            total = self.events_total,
            at_stop = self.trace_events_at_stop,
            trace = self.trace_events_total,
            salv = self.salvaged_events,
            lost = self.salvage_dropped_lines,
            lost_bytes = self.salvage_dropped_bytes,
            s = verdict(self.salvage_match),
            sch = verdict(self.schedule_match),
            c = verdict(self.cost_match),
            suf = verdict(self.suffix_match),
        )
    }
}

/// Runs the kill-at-checkpoint/salvage/restore/verify cycle.
///
/// `stop_after` is clamped into `1..events_total`. When `artifact_dir` is
/// given, the torn trace is written there as `crash-trace.jsonl.partial`
/// (exactly what a killed process leaves behind: never finalized, last
/// line torn) and the checkpoint as `crash-checkpoint.json`; salvage then
/// runs against the file. Without a directory everything stays in memory.
pub fn crash_test(
    instance: &Instance,
    make_scheduler: &mut SchedulerFactory<'_>,
    plan: &FaultPlan,
    make_policy: &mut PolicyFactory<'_>,
    stop_after: u64,
    artifact_dir: Option<&Path>,
) -> Result<CrashTestReport, FaultError> {
    // 1. Reference: the uninterrupted run.
    let mut ref_probe = Deterministic(Collector::default());
    let (mut scheduler, mut policy) = (make_scheduler(), make_policy());
    let reference = run_online_faulted_with(
        instance,
        &mut *scheduler,
        plan,
        &mut *policy,
        &mut ref_probe,
        &RunOptions::default(),
    )?;
    let ref_events = ref_probe.0.events;
    let events_total = reference.events_processed;
    let stop = stop_after.clamp(1, events_total.saturating_sub(1).max(1));

    // 2. Interrupted: kill after `stop` driver events, checkpoint taken.
    let mut cut_probe = Deterministic(Collector::default());
    let (mut scheduler, mut policy) = (make_scheduler(), make_policy());
    let checkpoint_path = artifact_dir.map(|d| d.join("crash-checkpoint.json"));
    let interrupted = run_online_faulted_with(
        instance,
        &mut *scheduler,
        plan,
        &mut *policy,
        &mut cut_probe,
        &RunOptions {
            stop_after: Some(stop),
            checkpoint_path: checkpoint_path.clone(),
            ..RunOptions::default()
        },
    )?;
    let cut_events = cut_probe.0.events;
    let checkpoint = interrupted.checkpoint.ok_or_else(|| {
        FaultError::Checkpoint("interrupted run produced no checkpoint".to_string())
    })?;

    // 3. Tear the trace the way a kill mid-write would, then salvage.
    let full = jsonl_string(&cut_events)
        .map_err(|err| FaultError::Checkpoint(format!("trace encode: {err}")))?;
    let torn = tear_final_line(&full);
    let salvage: Salvage = if let Some(dir) = artifact_dir {
        // The partial twin is what a never-finalized TraceWriter leaves.
        let partial = dir.join("crash-trace.jsonl.partial");
        std::fs::write(&partial, torn.as_bytes())
            .map_err(|e| FaultError::Checkpoint(format!("write {}: {e}", partial.display())))?;
        EventStream::open(dir.join("crash-trace.jsonl")).and_then(EventStream::salvage)
    } else {
        EventStream::new(torn.as_bytes()).salvage()
    }
    .map_err(FaultError::Checkpoint)?;
    let salvage_match = ref_events.len() >= salvage.events.len()
        && ref_events[..salvage.events.len()] == salvage.events[..];

    // 4. Restore from the checkpoint and run to completion.
    let mut suffix_probe = Deterministic(Collector::default());
    let (mut scheduler, mut policy) = (make_scheduler(), make_policy());
    let restored = run_online_faulted_with(
        instance,
        &mut *scheduler,
        plan,
        &mut *policy,
        &mut suffix_probe,
        &RunOptions {
            resume_from: Some(&checkpoint),
            ..RunOptions::default()
        },
    )?;
    let suffix = suffix_probe.0.events;

    // 5. Verify against the reference.
    let suffix_start = usize::try_from(checkpoint.trace_events_emitted).unwrap_or(usize::MAX);
    let suffix_match = suffix_start <= ref_events.len() && ref_events[suffix_start..] == suffix[..];
    Ok(CrashTestReport {
        algorithm: checkpoint.algorithm.clone(),
        policy: checkpoint.policy.clone(),
        events_total,
        stopped_after: stop,
        trace_events_total: count(ref_events.len()),
        trace_events_at_stop: checkpoint.trace_events_emitted,
        salvaged_events: count(salvage.events.len()),
        salvage_dropped_lines: salvage.dropped_lines,
        salvage_dropped_bytes: salvage.dropped_bytes,
        salvage_match,
        schedule_match: restored.schedule == reference.schedule,
        cost_match: restored.report.base_cost == reference.report.base_cost
            && restored.report.recovery_cost == reference.report.recovery_cost,
        suffix_match,
        report: restored.report,
    })
}

fn count(n: usize) -> u64 {
    bshm_core::convert::count_u64(n)
}

/// Cuts the tail of the last line — the shape of a buffered write killed
/// mid-flush. Traces with fewer than two lines are left alone (nothing to
/// tear without losing everything). Exposed so other drill harnesses
/// (the serve layer's crash-recovery drill) wound their logs the same way.
pub fn tear_final_line(text: &str) -> String {
    let body = text.strip_suffix('\n').unwrap_or(text);
    match body.rfind('\n') {
        Some(last_start) => {
            let keep = last_start + 1 + (body.len() - last_start - 1) / 2;
            body[..keep].to_string()
        }
        None => text.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tearing_damages_only_the_final_line() {
        let text = "{\"a\":1}\n{\"b\":2}\n{\"c\":3}\n";
        let torn = tear_final_line(text);
        assert!(torn.starts_with("{\"a\":1}\n{\"b\":2}\n"));
        assert!(torn.len() < text.len());
        assert!(!torn.ends_with('\n'));
        let s = EventStream::new(torn.as_bytes()).salvage().unwrap();
        assert_eq!(s.events.len(), 0); // not real events, all malformed
        assert_eq!(s.dropped_lines, 3);
        // Every byte of the torn text is accounted for as dropped (the
        // first "line" is already malformed, so the loss starts at 0).
        assert_eq!(s.dropped_bytes, torn.len() as u64);
    }

    #[test]
    fn torn_real_trace_reports_the_exact_byte_loss() {
        use bshm_core::{JobId, MachineId, TypeIndex};
        use bshm_obs::TraceEvent;
        let events = vec![
            TraceEvent::Arrival {
                t: 1,
                job: JobId(0),
                size: 2,
            },
            TraceEvent::MachineOpen {
                t: 1,
                machine: MachineId(0),
                machine_type: TypeIndex(0),
            },
            TraceEvent::Departure {
                t: 5,
                job: JobId(0),
                machine: MachineId(0),
            },
        ];
        let full = jsonl_string(&events).unwrap();
        let torn = tear_final_line(&full);
        let s = EventStream::new(torn.as_bytes()).salvage().unwrap();
        assert_eq!(s.events.len(), 2);
        assert_eq!(s.dropped_lines, 1);
        let intact = jsonl_string(&events[..2]).unwrap().len();
        assert_eq!(s.dropped_bytes, (torn.len() - intact) as u64);
        assert!(s.dropped_bytes > 0);
    }
}
