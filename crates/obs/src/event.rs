//! The structured trace-event vocabulary.

use bshm_core::job::JobId;
use bshm_core::machine::TypeIndex;
use bshm_core::ops::{OpCounter, PlaceReason, RejectedCandidate};
use bshm_core::schedule::MachineId;
use bshm_core::time::TimePoint;
use serde::{Deserialize, Serialize};

/// Why an SLO alert fired. The taxonomy is closed and typed so alert
/// streams can be asserted on in tests and aggregated per reason in the
/// metrics registry (mirroring `RejectReason` for placement rejections).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AlertReason {
    /// The windowed gap ratio (cost over lower bound) stayed above the
    /// configured fraction of the proven competitive bound for the
    /// configured number of consecutive windows.
    GapBreach,
    /// A displacement storm: crashes displaced at least the configured
    /// number of jobs inside one window.
    DisplacementStorm,
    /// Windowed p99 decision latency regressed past the configured factor
    /// of the run-start baseline window.
    LatencyRegression,
    /// Jobs were dropped (never silent) at or above the configured count
    /// inside one window.
    DropSurge,
}

impl AlertReason {
    /// Every reason, in stable registry/report order.
    pub const ALL: [AlertReason; 4] = [
        AlertReason::GapBreach,
        AlertReason::DisplacementStorm,
        AlertReason::LatencyRegression,
        AlertReason::DropSurge,
    ];

    /// Stable kebab-case name (label value, CLI `--expect` argument).
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            AlertReason::GapBreach => "gap-breach",
            AlertReason::DisplacementStorm => "displacement-storm",
            AlertReason::LatencyRegression => "latency-regression",
            AlertReason::DropSurge => "drop-surge",
        }
    }

    /// Parses the kebab-case name produced by [`AlertReason::as_str`].
    #[must_use]
    pub fn parse(s: &str) -> Option<AlertReason> {
        AlertReason::ALL.into_iter().find(|r| r.as_str() == s)
    }

    /// Index into [`AlertReason::ALL`] (per-reason counter slot).
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            AlertReason::GapBreach => 0,
            AlertReason::DisplacementStorm => 1,
            AlertReason::LatencyRegression => 2,
            AlertReason::DropSurge => 3,
        }
    }
}

/// Phase of a tenant's lifecycle inside the resident service
/// (`bshm-serve`). Closed and typed, like [`AlertReason`], so supervision
/// histories can be asserted on in drills and counted per phase.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TenantPhase {
    /// The tenant was admitted and its instance registered.
    Admitted,
    /// The supervisor wrote a checkpoint for the tenant.
    Checkpointed,
    /// The tenant was killed mid-batch (crash, panic, or injected kill).
    Killed,
    /// The tenant was restored from its checkpoint plus salvaged log and
    /// the restore verified digest-identical.
    Restored,
    /// The tenant was checkpointed and flushed as part of a graceful
    /// drain.
    Drained,
    /// The tenant was shed by the degradation ladder's last rung.
    Shed,
}

impl TenantPhase {
    /// Every phase, in stable registry/report order.
    pub const ALL: [TenantPhase; 6] = [
        TenantPhase::Admitted,
        TenantPhase::Checkpointed,
        TenantPhase::Killed,
        TenantPhase::Restored,
        TenantPhase::Drained,
        TenantPhase::Shed,
    ];

    /// Stable kebab-case name (label value, drill-report field).
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            TenantPhase::Admitted => "admitted",
            TenantPhase::Checkpointed => "checkpointed",
            TenantPhase::Killed => "killed",
            TenantPhase::Restored => "restored",
            TenantPhase::Drained => "drained",
            TenantPhase::Shed => "shed",
        }
    }

    /// Parses the kebab-case name produced by [`TenantPhase::as_str`].
    #[must_use]
    pub fn parse(s: &str) -> Option<TenantPhase> {
        TenantPhase::ALL.into_iter().find(|p| p.as_str() == s)
    }

    /// Index into [`TenantPhase::ALL`] (per-phase counter slot).
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            TenantPhase::Admitted => 0,
            TenantPhase::Checkpointed => 1,
            TenantPhase::Killed => 2,
            TenantPhase::Restored => 3,
            TenantPhase::Drained => 4,
            TenantPhase::Shed => 5,
        }
    }
}

/// One observable moment of a scheduling run.
///
/// Traces are streams of these, one JSON object per line, in
/// nondecreasing time order with all departure-side events (`Departure`,
/// `CostAccrual`, `MachineClose`) preceding arrival-side events
/// (`Arrival`, `MachineOpen`, `Placement`) at equal timestamps — the same
/// half-open-interval convention the driver uses.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum TraceEvent {
    /// A job arrived and is about to be placed.
    Arrival {
        /// Simulation time.
        t: TimePoint,
        /// The arriving job.
        job: JobId,
        /// Its size (the only thing a non-clairvoyant policy sees).
        size: u64,
    },
    /// A machine transitioned idle → busy (starts accruing cost).
    MachineOpen {
        /// Simulation time.
        t: TimePoint,
        /// The machine.
        machine: MachineId,
        /// Its catalog type.
        machine_type: TypeIndex,
    },
    /// The scheduler chose a machine for an arrived job.
    Placement {
        /// Simulation time.
        t: TimePoint,
        /// The placed job.
        job: JobId,
        /// The chosen machine.
        machine: MachineId,
        /// The machine's catalog type.
        machine_type: TypeIndex,
        /// Whether the machine was created for this placement.
        opened: bool,
        /// Wall-clock nanoseconds the decision took (0 when synthesized
        /// from a finished offline schedule).
        decision_ns: u64,
        /// Machine load after the placement.
        load: u64,
        /// Machine capacity.
        capacity: u64,
    },
    /// A job departed from its machine.
    Departure {
        /// Simulation time.
        t: TimePoint,
        /// The departing job.
        job: JobId,
        /// The machine it ran on.
        machine: MachineId,
    },
    /// A machine finished a busy span: cost `rate × busy` was incurred.
    CostAccrual {
        /// Simulation time (end of the busy span).
        t: TimePoint,
        /// The machine.
        machine: MachineId,
        /// Its catalog type.
        machine_type: TypeIndex,
        /// Length of the busy span just ended.
        busy: u64,
        /// The type's cost rate per tick.
        rate: u64,
    },
    /// A machine transitioned busy → idle.
    MachineClose {
        /// Simulation time.
        t: TimePoint,
        /// The machine.
        machine: MachineId,
        /// Its catalog type.
        machine_type: TypeIndex,
        /// When the span being closed began.
        opened_at: TimePoint,
    },
    /// A machine was crashed/revoked by a fault plan. Any busy span was
    /// already closed (and charged) by the preceding `CostAccrual` +
    /// `MachineClose` pair; this event records the revocation itself.
    MachineCrash {
        /// Simulation time of the revocation.
        t: TimePoint,
        /// The revoked machine.
        machine: MachineId,
        /// Its catalog type.
        machine_type: TypeIndex,
        /// Number of still-active jobs displaced by the crash.
        displaced: u64,
    },
    /// A displaced job was re-placed by a recovery policy.
    JobRecovery {
        /// Simulation time (same instant as the crash).
        t: TimePoint,
        /// The recovered job.
        job: JobId,
        /// The machine it was displaced from.
        from: MachineId,
        /// The recovery machine it now runs on.
        to: MachineId,
        /// The recovery machine's catalog type.
        machine_type: TypeIndex,
        /// Wall-clock nanoseconds the re-placement decision took.
        recovery_ns: u64,
    },
    /// A job was lost: either a recovery policy could not re-place it or it
    /// was infeasible on arrival (e.g. an injected oversized job). Never
    /// silent — the reason says why.
    JobDropped {
        /// Simulation time.
        t: TimePoint,
        /// The dropped job.
        job: JobId,
        /// Why no machine holds this job.
        reason: String,
    },
    /// The decision x-ray behind a `Placement`: the candidate machines
    /// the policy examined and rejected (with typed reasons), the winner
    /// with how it was obtained, and the deterministic operation counts
    /// the decision cost. Opt-in — only x-ray runs emit it — and
    /// arrival-side, immediately after its matching `Placement`. Every
    /// field is derived from control flow (never clocks), so two runs
    /// over the same instance produce byte-identical decision traces.
    Decision {
        /// Simulation time.
        t: TimePoint,
        /// The placed job.
        job: JobId,
        /// The winning machine.
        machine: MachineId,
        /// How the winner was obtained (opened vs reused, and flavor).
        placed: PlaceReason,
        /// Open-machine pool size when the decision started.
        pool_size: u64,
        /// Candidates rejected with a machine identity, in scan order.
        candidates: Vec<RejectedCandidate>,
        /// Exact operation counts for this decision (boxed: the counter
        /// is the largest payload of any variant, and every event pays
        /// for the largest one).
        ops: Box<OpCounter>,
    },
    /// A live optimality-gap gauge sample: the incrementally maintained
    /// busy-time lower bound and the cost accrued so far, both at time
    /// `t`. Emitted by the gap observatory as the last event of each
    /// distinct timestamp, so `replay` can rebuild the gap timeline from
    /// the trace alone. Values saturate at `u64::MAX` (costs are exact
    /// `u128` in-process; traces store `u64` like every other cost field).
    GapSample {
        /// Simulation time.
        t: TimePoint,
        /// Lower bound of the prefix observed so far (`∫ OPT-config dt`).
        lower_bound: u64,
        /// Cost accrued so far: closed busy spans plus the accrued part of
        /// still-open spans up to `t`.
        cost: u64,
    },
    /// An SLO breach detected by the deterministic alert engine over a
    /// closed telemetry window. `t` is the window's exclusive end, and the
    /// event is departure-side: an alert summarizing `[start, t)` precedes
    /// everything that happens at `t`. Both `value` and `threshold` are
    /// fixed-point milli-units (`u64`, value × 1000) so alert streams stay
    /// byte-identical across runs — no float formatting in the trace.
    Alert {
        /// Simulation time: exclusive end of the breached window.
        t: TimePoint,
        /// Typed cause of the breach.
        reason: AlertReason,
        /// Index of the breached window (window `w` covers
        /// `[w·width, (w+1)·width)`).
        window: u64,
        /// Observed value in milli-units (e.g. gap ratio 1.25 → 1250).
        value_milli: u64,
        /// Configured threshold in the same milli-units.
        threshold_milli: u64,
    },
    /// A tenant changed lifecycle phase inside the resident service:
    /// admitted, checkpointed, killed, restored, drained or shed. `t` is
    /// the tenant's own event clock at the transition. Arrival-side, like
    /// the admissions and re-placements it narrates.
    TenantLifecycle {
        /// The tenant's event clock at the transition.
        t: TimePoint,
        /// The tenant's service-unique name.
        tenant: String,
        /// The phase entered.
        phase: TenantPhase,
    },
    /// The service's graceful-degradation ladder moved between rungs
    /// (0 = full service, then successively cheaper modes). Departure-side,
    /// like the [`TraceEvent::Alert`]s that justify it: the transition
    /// summarizes pressure already observed.
    Degradation {
        /// The service event clock at the transition.
        t: TimePoint,
        /// The rung being left.
        from_rung: u64,
        /// The rung being entered.
        to_rung: u64,
        /// The dominant alert reason that drove the transition.
        reason: AlertReason,
    },
}

impl TraceEvent {
    /// The event's simulation time.
    #[must_use]
    pub fn time(&self) -> TimePoint {
        match *self {
            TraceEvent::Arrival { t, .. }
            | TraceEvent::MachineOpen { t, .. }
            | TraceEvent::Placement { t, .. }
            | TraceEvent::Departure { t, .. }
            | TraceEvent::CostAccrual { t, .. }
            | TraceEvent::MachineClose { t, .. }
            | TraceEvent::MachineCrash { t, .. }
            | TraceEvent::JobRecovery { t, .. }
            | TraceEvent::JobDropped { t, .. }
            | TraceEvent::Decision { t, .. }
            | TraceEvent::GapSample { t, .. }
            | TraceEvent::Alert { t, .. }
            | TraceEvent::TenantLifecycle { t, .. }
            | TraceEvent::Degradation { t, .. } => t,
        }
    }

    /// A short kind name (`"Arrival"`, `"Placement"`, …).
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::Arrival { .. } => "Arrival",
            TraceEvent::MachineOpen { .. } => "MachineOpen",
            TraceEvent::Placement { .. } => "Placement",
            TraceEvent::Departure { .. } => "Departure",
            TraceEvent::CostAccrual { .. } => "CostAccrual",
            TraceEvent::MachineClose { .. } => "MachineClose",
            TraceEvent::MachineCrash { .. } => "MachineCrash",
            TraceEvent::JobRecovery { .. } => "JobRecovery",
            TraceEvent::JobDropped { .. } => "JobDropped",
            TraceEvent::Decision { .. } => "Decision",
            TraceEvent::GapSample { .. } => "GapSample",
            TraceEvent::Alert { .. } => "Alert",
            TraceEvent::TenantLifecycle { .. } => "TenantLifecycle",
            TraceEvent::Degradation { .. } => "Degradation",
        }
    }

    /// Whether this is a departure-side event (sorted before arrival-side
    /// events at equal timestamps). `MachineCrash` is departure-side: a
    /// crash at `t` strikes after departures at `t` but before arrivals
    /// (half-open intervals); the recovery events it triggers
    /// (`JobRecovery`, and `JobDropped` for unrecoverable jobs) are
    /// arrival-side, like the re-placements they describe. `GapSample` is
    /// arrival-side: it samples the state *after* everything at its
    /// timestamp, so it always closes the timestamp it stamps. `Alert` is
    /// departure-side: it summarizes the window `[start, t)` that just
    /// closed, so it *opens* its timestamp, before anything else at `t`.
    /// `Degradation` is departure-side for the same reason (it reacts to
    /// alerts already seen); `TenantLifecycle` is arrival-side, like the
    /// admissions it narrates.
    #[must_use]
    pub fn is_departure_side(&self) -> bool {
        matches!(
            self,
            TraceEvent::Departure { .. }
                | TraceEvent::CostAccrual { .. }
                | TraceEvent::MachineClose { .. }
                | TraceEvent::MachineCrash { .. }
                | TraceEvent::Alert { .. }
                | TraceEvent::Degradation { .. }
        )
    }
}

/// Writes `events` to `w` as JSONL: one compact JSON object per event,
/// each followed by a newline. This is the one trace encoder; the
/// recorder, the flight recorder, serve logs, crash tests and the CLI all
/// write through it, so every trace file has the same bytes.
///
/// # Errors
/// Propagates the writer's I/O errors. Encoding itself does not fail:
/// events hold only integers, strings and enums, never a float.
pub fn write_jsonl<'a, W: std::io::Write + ?Sized>(
    w: &mut W,
    events: impl IntoIterator<Item = &'a TraceEvent>,
) -> std::io::Result<()> {
    for e in events {
        serde_json::to_writer(&mut *w, e).map_err(std::io::Error::other)?;
        w.write_all(b"\n")?;
    }
    Ok(())
}

/// [`write_jsonl`] into a `String`.
///
/// # Errors
/// As [`write_jsonl`]; writing to memory adds none.
pub fn jsonl_string<'a>(
    events: impl IntoIterator<Item = &'a TraceEvent>,
) -> std::io::Result<String> {
    let mut out = Vec::new();
    write_jsonl(&mut out, events)?;
    String::from_utf8(out).map_err(std::io::Error::other)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bshm_core::ops::RejectReason;

    #[test]
    fn json_round_trip() {
        let events = vec![
            TraceEvent::Arrival {
                t: 3,
                job: JobId(7),
                size: 4,
            },
            TraceEvent::MachineOpen {
                t: 3,
                machine: MachineId(0),
                machine_type: TypeIndex(1),
            },
            TraceEvent::Placement {
                t: 3,
                job: JobId(7),
                machine: MachineId(0),
                machine_type: TypeIndex(1),
                opened: true,
                decision_ns: 120,
                load: 4,
                capacity: 16,
            },
            TraceEvent::Departure {
                t: 9,
                job: JobId(7),
                machine: MachineId(0),
            },
            TraceEvent::CostAccrual {
                t: 9,
                machine: MachineId(0),
                machine_type: TypeIndex(1),
                busy: 6,
                rate: 3,
            },
            TraceEvent::MachineClose {
                t: 9,
                machine: MachineId(0),
                machine_type: TypeIndex(1),
                opened_at: 3,
            },
            TraceEvent::MachineCrash {
                t: 6,
                machine: MachineId(0),
                machine_type: TypeIndex(1),
                displaced: 2,
            },
            TraceEvent::JobRecovery {
                t: 6,
                job: JobId(7),
                from: MachineId(0),
                to: MachineId(3),
                machine_type: TypeIndex(0),
                recovery_ns: 85,
            },
            TraceEvent::JobDropped {
                t: 6,
                job: JobId(8),
                reason: "oversized: size 99 exceeds every machine type".to_string(),
            },
            TraceEvent::GapSample {
                t: 9,
                lower_bound: 18,
                cost: 24,
            },
            TraceEvent::Alert {
                t: 20,
                reason: AlertReason::GapBreach,
                window: 1,
                value_milli: 1250,
                threshold_milli: 1100,
            },
            TraceEvent::TenantLifecycle {
                t: 12,
                tenant: "team-a".to_string(),
                phase: TenantPhase::Restored,
            },
            TraceEvent::Degradation {
                t: 40,
                from_rung: 0,
                to_rung: 1,
                reason: AlertReason::LatencyRegression,
            },
            TraceEvent::Decision {
                t: 3,
                job: JobId(7),
                machine: MachineId(0),
                placed: PlaceReason::Opened,
                pool_size: 2,
                candidates: vec![
                    RejectedCandidate {
                        machine: MachineId(1),
                        reason: RejectReason::Capacity,
                    },
                    RejectedCandidate {
                        machine: MachineId(2),
                        reason: RejectReason::Busy,
                    },
                ],
                ops: Box::new(OpCounter {
                    decisions: 1,
                    machines_scanned: 2,
                    capacity_comparisons: 2,
                    rejected_capacity: 1,
                    rejected_busy: 1,
                    machines_opened: 1,
                    ..OpCounter::default()
                }),
            },
        ];
        for e in events {
            let line = serde_json::to_string(&e).unwrap();
            let back = crate::replay::parse_jsonl(&line).unwrap();
            assert_eq!(back, [e], "{line}");
        }
    }

    #[test]
    fn trace_event_stays_small() {
        // Services keep whole event histories in memory; every event pays
        // for the largest variant.
        assert!(
            std::mem::size_of::<TraceEvent>() <= 64,
            "TraceEvent is {} bytes",
            std::mem::size_of::<TraceEvent>()
        );
    }

    #[test]
    fn accessors() {
        let e = TraceEvent::Departure {
            t: 5,
            job: JobId(1),
            machine: MachineId(2),
        };
        assert_eq!(e.time(), 5);
        assert_eq!(e.kind(), "Departure");
        assert!(e.is_departure_side());
        let a = TraceEvent::Arrival {
            t: 5,
            job: JobId(1),
            size: 1,
        };
        assert!(!a.is_departure_side());
        let c = TraceEvent::MachineCrash {
            t: 6,
            machine: MachineId(0),
            machine_type: TypeIndex(0),
            displaced: 1,
        };
        assert_eq!(c.kind(), "MachineCrash");
        assert!(c.is_departure_side());
        let r = TraceEvent::JobRecovery {
            t: 6,
            job: JobId(1),
            from: MachineId(0),
            to: MachineId(1),
            machine_type: TypeIndex(0),
            recovery_ns: 10,
        };
        assert_eq!(r.kind(), "JobRecovery");
        assert!(!r.is_departure_side());
        let d = TraceEvent::JobDropped {
            t: 6,
            job: JobId(2),
            reason: "no recovery capacity".to_string(),
        };
        assert_eq!(d.kind(), "JobDropped");
        assert!(!d.is_departure_side());
        let g = TraceEvent::GapSample {
            t: 7,
            lower_bound: 10,
            cost: 12,
        };
        assert_eq!(g.time(), 7);
        assert_eq!(g.kind(), "GapSample");
        assert!(!g.is_departure_side());
        let x = TraceEvent::Decision {
            t: 7,
            job: JobId(1),
            machine: MachineId(0),
            placed: PlaceReason::Reused,
            pool_size: 1,
            candidates: Vec::new(),
            ops: Box::default(),
        };
        assert_eq!(x.time(), 7);
        assert_eq!(x.kind(), "Decision");
        assert!(!x.is_departure_side());
        let al = TraceEvent::Alert {
            t: 30,
            reason: AlertReason::DisplacementStorm,
            window: 2,
            value_milli: 5000,
            threshold_milli: 3000,
        };
        assert_eq!(al.time(), 30);
        assert_eq!(al.kind(), "Alert");
        assert!(al.is_departure_side());
        let tl = TraceEvent::TenantLifecycle {
            t: 11,
            tenant: "team-a".to_string(),
            phase: TenantPhase::Admitted,
        };
        assert_eq!(tl.time(), 11);
        assert_eq!(tl.kind(), "TenantLifecycle");
        assert!(!tl.is_departure_side());
        let dg = TraceEvent::Degradation {
            t: 12,
            from_rung: 1,
            to_rung: 2,
            reason: AlertReason::DropSurge,
        };
        assert_eq!(dg.time(), 12);
        assert_eq!(dg.kind(), "Degradation");
        assert!(dg.is_departure_side());
    }

    #[test]
    fn tenant_phase_names_round_trip() {
        for p in TenantPhase::ALL {
            assert_eq!(TenantPhase::parse(p.as_str()), Some(p));
            assert_eq!(TenantPhase::ALL[p.index()], p);
        }
        assert_eq!(TenantPhase::parse("nope"), None);
    }

    #[test]
    fn alert_reason_names_round_trip() {
        for r in AlertReason::ALL {
            assert_eq!(AlertReason::parse(r.as_str()), Some(r));
            assert_eq!(AlertReason::ALL[r.index()], r);
        }
        assert_eq!(AlertReason::parse("nope"), None);
    }
}
