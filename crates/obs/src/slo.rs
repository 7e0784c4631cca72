//! The deterministic SLO engine: declarative thresholds over rolling
//! windows, typed alerts, and flight-recorder snapshots on breach.
//!
//! An [`SloSpec`] is a compact, parseable rule list (see the grammar on
//! [`SloSpec::parse`]). [`SloEngine`] evaluates the rules against each
//! closed [`WindowStats`] and decides — in pure integer arithmetic over
//! event-clock quantities wherever the rule allows it — whether an alert
//! fires. Because window boundaries come from the event clock and the
//! compared values are fixed-point milli-units, two same-seed runs emit
//! **byte-identical** alert streams; the health plane's property tests
//! gate on exactly that.
//!
//! [`HealthProbe`] packages the pieces as a probe middleware: it feeds a
//! [`RollingWindows`] fold and a [`FlightRecorder`] ring, asks the engine
//! about every window it closes, emits [`TraceEvent::Alert`] records into
//! the wrapped probe (alerts are departure-side events stamped with the
//! closed window's end), and — when given a snapshot directory — dumps
//! the flight recorder at each breach for post-mortems.

use crate::event::{AlertReason, TraceEvent};
use crate::flight::FlightRecorder;
use crate::probe::Probe;
use crate::window::{RollingWindows, WindowStats};
use bshm_core::time::TimePoint;
use serde::Serialize;
use std::path::{Path, PathBuf};

/// The default SLO spec the CLI and CI use: event-clock rules only (the
/// wall-clock `latency:` rule is opt-in, because latency jitter would make
/// clean CI runs flaky).
///
/// * gap ratio above 20× the lower bound for 2 consecutive windows — far
///   above anything the quick suite's algorithms sustain (their proven
///   bounds top out at 32·(μ+1), observed max ratios at 16), so a breach
///   means real divergence;
/// * any displaced job (a crash that interrupted running work);
/// * any dropped job.
pub const DEFAULT_SLO_SPEC: &str = "window:64;gap:20000:2;storm:1;drops:1";

/// Default flight-recorder capacity for [`HealthProbe`] snapshots.
pub const DEFAULT_FLIGHT_CAPACITY: usize = 256;

/// One declarative SLO rule.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SloRule {
    /// Windowed gap ratio (milli-units) above `threshold_milli` for
    /// `windows` consecutive windows → [`AlertReason::GapBreach`].
    Gap {
        /// Fixed-point ratio threshold (1000 = ratio 1.0).
        threshold_milli: u64,
        /// Consecutive breaching windows required to fire.
        windows: u64,
    },
    /// `displaced` or more jobs displaced within one window →
    /// [`AlertReason::DisplacementStorm`].
    Storm {
        /// Displaced-job count that counts as a storm.
        displaced: u64,
    },
    /// Windowed p99 decision latency above `factor_milli`/1000 × the
    /// run-start baseline (the first window with placements) for
    /// `windows` consecutive windows → [`AlertReason::LatencyRegression`].
    Latency {
        /// Fixed-point regression factor (1000 = 1.0× baseline).
        factor_milli: u64,
        /// Consecutive regressing windows required to fire.
        windows: u64,
    },
    /// `dropped` or more jobs dropped within one window →
    /// [`AlertReason::DropSurge`].
    Drops {
        /// Dropped-job count that counts as a surge.
        dropped: u64,
    },
}

/// A parsed SLO spec: the window width plus the rule list.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SloSpec {
    /// Event-clock window width the rules are evaluated over.
    pub width: u64,
    /// The rules, in spec order.
    pub rules: Vec<SloRule>,
}

impl Default for SloSpec {
    #[expect(
        clippy::expect_used,
        reason = "DEFAULT_SLO_SPEC is a constant whose parse is covered by tests"
    )]
    fn default() -> Self {
        SloSpec::parse(DEFAULT_SLO_SPEC).expect("DEFAULT_SLO_SPEC parses")
    }
}

impl SloSpec {
    /// Parses the semicolon-separated spec grammar:
    ///
    /// ```text
    /// spec      := directive (';' directive)*
    /// directive := 'window:' WIDTH          — event-clock window width (default 64)
    ///            | 'gap:' MILLI ':' N       — gap ratio > MILLI/1000 for N windows
    ///            | 'storm:' COUNT           — ≥ COUNT displaced jobs in a window
    ///            | 'latency:' MILLI ':' N   — p99 > MILLI/1000 × baseline for N windows
    ///            | 'drops:' COUNT           — ≥ COUNT dropped jobs in a window
    /// ```
    ///
    /// All thresholds are integers (ratios and factors in fixed-point
    /// milli-units), so a spec never smuggles a float into the
    /// deterministic alert path.
    ///
    /// # Errors
    /// Describes the offending directive.
    pub fn parse(s: &str) -> Result<SloSpec, String> {
        let mut spec = SloSpec {
            width: 64,
            rules: Vec::new(),
        };
        for directive in s.split(';') {
            let directive = directive.trim();
            if directive.is_empty() {
                continue;
            }
            let fields: Vec<&str> = directive.split(':').collect();
            let num = |i: usize, what: &str| -> Result<u64, String> {
                fields
                    .get(i)
                    .and_then(|f| f.trim().parse::<u64>().ok())
                    .ok_or_else(|| format!("slo spec `{directive}`: bad {what}"))
            };
            match fields.first().map(|f| f.trim()) {
                Some("window") if fields.len() == 2 => {
                    let w = num(1, "width")?;
                    if w == 0 {
                        return Err(format!("slo spec `{directive}`: width must be > 0"));
                    }
                    spec.width = w;
                }
                Some("gap") if fields.len() == 3 => {
                    let windows = num(2, "window count")?.max(1);
                    spec.rules.push(SloRule::Gap {
                        threshold_milli: num(1, "threshold")?,
                        windows,
                    });
                }
                Some("storm") if fields.len() == 2 => {
                    let displaced = num(1, "count")?;
                    if displaced == 0 {
                        return Err(format!("slo spec `{directive}`: count must be > 0"));
                    }
                    spec.rules.push(SloRule::Storm { displaced });
                }
                Some("latency") if fields.len() == 3 => {
                    let windows = num(2, "window count")?.max(1);
                    spec.rules.push(SloRule::Latency {
                        factor_milli: num(1, "factor")?,
                        windows,
                    });
                }
                Some("drops") if fields.len() == 2 => {
                    let dropped = num(1, "count")?;
                    if dropped == 0 {
                        return Err(format!("slo spec `{directive}`: count must be > 0"));
                    }
                    spec.rules.push(SloRule::Drops { dropped });
                }
                _ => {
                    return Err(format!(
                        "slo spec `{directive}`: expected window:W, gap:MILLI:N, \
                         storm:COUNT, latency:MILLI:N or drops:COUNT"
                    ));
                }
            }
        }
        Ok(spec)
    }

    /// Renders the spec back in the grammar of [`SloSpec::parse`].
    #[must_use]
    pub fn render(&self) -> String {
        let mut parts = vec![format!("window:{}", self.width)];
        for r in &self.rules {
            parts.push(match *r {
                SloRule::Gap {
                    threshold_milli,
                    windows,
                } => format!("gap:{threshold_milli}:{windows}"),
                SloRule::Storm { displaced } => format!("storm:{displaced}"),
                SloRule::Latency {
                    factor_milli,
                    windows,
                } => format!("latency:{factor_milli}:{windows}"),
                SloRule::Drops { dropped } => format!("drops:{dropped}"),
            });
        }
        parts.join(";")
    }
}

/// One alert decision: which rule fired about which window, with the
/// observed value and the threshold it crossed (fixed-point milli-units).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub struct AlertFire {
    /// The typed reason.
    pub reason: AlertReason,
    /// Index of the breaching window.
    pub window: u64,
    /// Observed value in milli-units (ratio ×1000, counts ×1000, ns ×1000).
    pub value_milli: u64,
    /// The crossed threshold in the same milli-units.
    pub threshold_milli: u64,
}

/// Evaluates an [`SloSpec`] against a stream of closed windows.
///
/// Streak rules (`gap:`, `latency:`) fire exactly once per sustained
/// episode — on the window that completes the required consecutive run —
/// and re-arm when the condition clears. Per-window rules (`storm:`,
/// `drops:`) fire on every breaching window.
#[derive(Clone, Debug)]
pub struct SloEngine {
    spec: SloSpec,
    gap_streak: u64,
    latency_streak: u64,
    latency_baseline_milli: Option<u64>,
}

impl SloEngine {
    /// An engine for `spec`, with all streaks cleared.
    #[must_use]
    pub fn new(spec: SloSpec) -> Self {
        SloEngine {
            spec,
            gap_streak: 0,
            latency_streak: 0,
            latency_baseline_milli: None,
        }
    }

    /// The spec under evaluation.
    #[must_use]
    pub fn spec(&self) -> &SloSpec {
        &self.spec
    }

    /// Evaluates one closed window; returns every rule that fires on it,
    /// in spec order (deterministic).
    pub fn evaluate(&mut self, w: &WindowStats) -> Vec<AlertFire> {
        // p99 in milli-ns, fixed-point. The f64 quantile estimate is a
        // pure function of the (integer) histogram, so the cast is stable
        // for identical windows.
        #[expect(
            clippy::cast_possible_truncation,
            clippy::cast_sign_loss,
            reason = "fixed-point milli conversion of a bounded quantile"
        )]
        let p99_milli = w.decision_ns_quantile(0.99).map(|q| (q * 1000.0) as u64);
        if self.latency_baseline_milli.is_none() && w.metrics.placements > 0 {
            self.latency_baseline_milli = p99_milli;
        }
        let mut fires = Vec::new();
        for rule in &self.spec.rules {
            match *rule {
                SloRule::Gap {
                    threshold_milli,
                    windows,
                } => {
                    let value = w.gap_ratio_milli().unwrap_or(0);
                    if value > threshold_milli {
                        self.gap_streak += 1;
                        if self.gap_streak == windows {
                            fires.push(AlertFire {
                                reason: AlertReason::GapBreach,
                                window: w.window,
                                value_milli: value,
                                threshold_milli,
                            });
                        }
                    } else {
                        self.gap_streak = 0;
                    }
                }
                SloRule::Storm { displaced } => {
                    if w.metrics.displaced_jobs >= displaced {
                        fires.push(AlertFire {
                            reason: AlertReason::DisplacementStorm,
                            window: w.window,
                            value_milli: w.metrics.displaced_jobs.saturating_mul(1000),
                            threshold_milli: displaced.saturating_mul(1000),
                        });
                    }
                }
                SloRule::Latency {
                    factor_milli,
                    windows,
                } => {
                    let threshold = self
                        .latency_baseline_milli
                        .map(|b| b.saturating_mul(factor_milli) / 1000);
                    let (Some(value), Some(threshold)) = (p99_milli, threshold) else {
                        continue;
                    };
                    if w.metrics.placements > 0 && value > threshold {
                        self.latency_streak += 1;
                        if self.latency_streak == windows {
                            fires.push(AlertFire {
                                reason: AlertReason::LatencyRegression,
                                window: w.window,
                                value_milli: value,
                                threshold_milli: threshold,
                            });
                        }
                    } else {
                        self.latency_streak = 0;
                    }
                }
                SloRule::Drops { dropped } => {
                    if w.metrics.dropped_jobs >= dropped {
                        fires.push(AlertFire {
                            reason: AlertReason::DropSurge,
                            window: w.window,
                            value_milli: w.metrics.dropped_jobs.saturating_mul(1000),
                            threshold_milli: dropped.saturating_mul(1000),
                        });
                    }
                }
            }
        }
        fires
    }
}

/// One fired alert in a [`HealthReport`], with its event-clock timestamp.
#[derive(Clone, Debug, PartialEq, Eq, Serialize)]
pub struct AlertRecord {
    /// When the alert fired (the breaching window's end).
    pub t: TimePoint,
    /// The typed reason.
    pub reason: AlertReason,
    /// Index of the breaching window.
    pub window: u64,
    /// Observed value in fixed-point milli-units.
    pub value_milli: u64,
    /// The crossed threshold in the same units.
    pub threshold_milli: u64,
}

/// What the health plane observed over a run.
#[derive(Clone, Debug, Default, Serialize)]
pub struct HealthReport {
    /// The spec that was evaluated, in canonical grammar form.
    pub spec: String,
    /// Closed windows evaluated.
    pub windows_closed: u64,
    /// Every alert fired, in firing order.
    pub alerts: Vec<AlertRecord>,
    /// Flight-recorder snapshot files written (one per alert, when a
    /// snapshot directory was configured), as display paths.
    pub snapshots: Vec<String>,
    /// Snapshot writes that failed (the run itself is never aborted by a
    /// failed post-mortem dump).
    pub snapshot_errors: Vec<String>,
}

impl AlertRecord {
    fn new(t: TimePoint, fire: &AlertFire) -> Self {
        AlertRecord {
            t,
            reason: fire.reason,
            window: fire.window,
            value_milli: fire.value_milli,
            threshold_milli: fire.threshold_milli,
        }
    }
}

impl HealthReport {
    /// Alerts fired for `reason`.
    #[must_use]
    pub fn count(&self, reason: AlertReason) -> u64 {
        bshm_core::convert::count_u64(self.alerts.iter().filter(|a| a.reason == reason).count())
    }

    /// Whether any alert fired.
    #[must_use]
    pub fn breached(&self) -> bool {
        !self.alerts.is_empty()
    }

    /// One line per alert, for console output.
    #[must_use]
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "health: {} window(s), {} alert(s) under `{}`",
            self.windows_closed,
            self.alerts.len(),
            self.spec
        );
        for a in &self.alerts {
            let _ = writeln!(
                out,
                "  [{}] t={} window={} value={}.{:03} threshold={}.{:03}",
                a.reason.as_str(),
                a.t,
                a.window,
                a.value_milli / 1000,
                a.value_milli % 1000,
                a.threshold_milli / 1000,
                a.threshold_milli % 1000,
            );
        }
        out
    }
}

/// Probe middleware that turns any probe chain into a live health plane:
/// rolling windows + SLO engine + flight recorder.
///
/// Every event is forwarded to the wrapped probe unchanged; when an event
/// closes one or more windows, the engine evaluates them and each firing
/// rule becomes a [`TraceEvent::Alert`] recorded into the wrapped probe
/// *before* the triggering event (alerts are departure-side events at the
/// closed window's end, which sorts ≤ the trigger's timestamp).
#[derive(Debug)]
pub struct HealthProbe<P> {
    inner: P,
    windows: RollingWindows,
    engine: SloEngine,
    flight: FlightRecorder,
    snapshot_dir: Option<PathBuf>,
    report: HealthReport,
    finished: bool,
}

impl<P: Probe> HealthProbe<P> {
    /// A health plane evaluating `spec`, wrapping `inner`. `n_types` is
    /// the starting width of the per-type gauges, which widen as events
    /// name further types (see [`RollingWindows::new`]). The rolling
    /// history and flight ring use default bounded capacities.
    #[must_use]
    pub fn new(spec: SloSpec, n_types: usize, inner: P) -> Self {
        let report = HealthReport {
            spec: spec.render(),
            ..HealthReport::default()
        };
        HealthProbe {
            inner,
            windows: RollingWindows::new(spec.width, 64, n_types),
            engine: SloEngine::new(spec),
            flight: FlightRecorder::new(DEFAULT_FLIGHT_CAPACITY),
            snapshot_dir: None,
            report,
            finished: false,
        }
    }

    /// Enables flight-recorder snapshots: each alert dumps the ring to
    /// `dir/alert-NNN-<reason>.jsonl` (atomically).
    #[must_use]
    pub fn with_snapshot_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.snapshot_dir = Some(dir.into());
        self
    }

    /// Overrides the flight-recorder capacity.
    ///
    /// # Panics
    /// If `capacity` is zero.
    #[must_use]
    pub fn with_flight_capacity(mut self, capacity: usize) -> Self {
        self.flight = FlightRecorder::new(capacity);
        self
    }

    /// The health report so far.
    #[must_use]
    pub fn report(&self) -> &HealthReport {
        &self.report
    }

    /// The rolling-window fold (for dashboards).
    #[must_use]
    pub fn windows(&self) -> &RollingWindows {
        &self.windows
    }

    /// The flight recorder ring.
    #[must_use]
    pub fn flight(&self) -> &FlightRecorder {
        &self.flight
    }

    /// The spec under evaluation.
    #[must_use]
    pub fn spec(&self) -> &SloSpec {
        self.engine.spec()
    }

    /// The report [`HealthProbe::into_parts`] would return now, without
    /// consuming the probe: the in-progress window is evaluated by a
    /// copy of the engine, so the live fold carries on unchanged.
    /// Flight-recorder snapshots for alerts on that window are not
    /// written.
    #[must_use]
    pub fn settled_report(&self) -> HealthReport {
        let mut report = self.report.clone();
        if self.finished {
            return report;
        }
        if let Some(last) = self.windows.current() {
            report.windows_closed += 1;
            let mut engine = self.engine.clone();
            for fire in engine.evaluate(last) {
                report.alerts.push(AlertRecord::new(last.end, &fire));
            }
        }
        report
    }

    /// Unwraps into the inner probe and the final report. Flushes the
    /// in-progress window first if `finish` has not run yet.
    #[must_use]
    pub fn into_parts(mut self) -> (P, HealthReport) {
        self.finish();
        (self.inner, self.report)
    }

    fn emit_all(&mut self, fires: Vec<(TimePoint, AlertFire)>) {
        for (t, fire) in fires {
            self.emit(t, fire);
        }
    }

    fn emit(&mut self, t: TimePoint, fire: AlertFire) {
        let alert = TraceEvent::Alert {
            t,
            reason: fire.reason,
            window: fire.window,
            value_milli: fire.value_milli,
            threshold_milli: fire.threshold_milli,
        };
        self.windows.note_alert(&alert);
        self.flight.push(&alert);
        self.report.alerts.push(AlertRecord::new(t, &fire));
        if let Some(dir) = &self.snapshot_dir {
            let name = format!(
                "alert-{:03}-{}.jsonl",
                self.report.alerts.len(),
                fire.reason.as_str()
            );
            let path = dir.join(name);
            match self.flight.dump(&path) {
                Ok(()) => self.report.snapshots.push(path.display().to_string()),
                Err(e) => self.report.snapshot_errors.push(e),
            }
        }
        self.inner.record(&alert);
    }
}

/// Evaluates one closed window: counts it in `report` and queues what
/// fires, stamped with the window's end, for [`HealthProbe::emit_all`].
fn settle(
    engine: &mut SloEngine,
    report: &mut HealthReport,
    w: &WindowStats,
    fires: &mut Vec<(TimePoint, AlertFire)>,
) {
    report.windows_closed += 1;
    fires.extend(engine.evaluate(w).into_iter().map(|fire| (w.end, fire)));
}

impl<P: Probe> Probe for HealthProbe<P> {
    fn record(&mut self, event: &TraceEvent) {
        let mut fires = Vec::new();
        let (engine, report) = (&mut self.engine, &mut self.report);
        self.windows
            .observe(event, |w| settle(engine, report, w, &mut fires));
        self.emit_all(fires);
        self.flight.push(event);
        self.inner.record(event);
    }

    fn finish(&mut self) {
        if !self.finished {
            self.finished = true;
            let mut fires = Vec::new();
            if let Some(last) = self.windows.flush() {
                settle(&mut self.engine, &mut self.report, last, &mut fires);
            }
            self.emit_all(fires);
        }
        self.inner.finish();
    }
}

/// Writes a health report as JSON to `path` via the crash-safe sink.
///
/// # Errors
/// Propagates serialization and filesystem errors.
pub fn write_health_report(path: &Path, report: &HealthReport) -> Result<(), String> {
    let json = serde_json::to_string_pretty(report)
        .map_err(|e| format!("serializing health report: {e}"))?;
    crate::sink::atomic_write(path, &(json + "\n"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::{Collector, NoProbe};
    use bshm_core::job::JobId;
    use bshm_core::machine::TypeIndex;
    use bshm_core::schedule::MachineId;

    fn gap_sample(t: u64, lower_bound: u64, cost: u64) -> TraceEvent {
        TraceEvent::GapSample {
            t,
            lower_bound,
            cost,
        }
    }

    #[test]
    fn spec_grammar_round_trips() {
        let spec = SloSpec::parse(DEFAULT_SLO_SPEC).unwrap();
        assert_eq!(spec.width, 64);
        assert_eq!(spec.rules.len(), 3);
        assert_eq!(spec.render(), DEFAULT_SLO_SPEC);
        let spec = SloSpec::parse("window:10;latency:4000:3").unwrap();
        assert_eq!(
            spec.rules,
            [SloRule::Latency {
                factor_milli: 4000,
                windows: 3
            }]
        );
        assert!(SloSpec::parse("window:0").is_err());
        assert!(SloSpec::parse("gap:oops:2").is_err());
        assert!(SloSpec::parse("storm:0").is_err());
        assert!(SloSpec::parse("nonsense").is_err());
        assert_eq!(SloSpec::default().render(), DEFAULT_SLO_SPEC);
    }

    #[test]
    fn gap_rule_requires_a_sustained_streak() {
        let spec = SloSpec::parse("window:10;gap:1500:2").unwrap();
        let mut hp = HealthProbe::new(spec, 1, Collector::default());
        // Ratio 2.0 in windows 0 and 1: the streak completes on window 1.
        hp.record(&gap_sample(1, 10, 20));
        hp.record(&gap_sample(11, 10, 20));
        hp.record(&gap_sample(21, 10, 10)); // ratio back to 1.0
        hp.record(&gap_sample(31, 10, 20)); // breach again — streak restarts
        hp.finish();
        let report = hp.report().clone();
        assert_eq!(report.count(AlertReason::GapBreach), 1);
        let a = &report.alerts[0];
        assert_eq!((a.window, a.t), (1, 20));
        assert_eq!((a.value_milli, a.threshold_milli), (2000, 1500));
        // The alert event landed in the wrapped probe, before the trigger.
        let (inner, _) = hp.into_parts();
        let kinds: Vec<&str> = inner.events.iter().map(TraceEvent::kind).collect();
        assert_eq!(
            kinds,
            ["GapSample", "GapSample", "Alert", "GapSample", "GapSample"]
        );
        match &inner.events[2] {
            TraceEvent::Alert { t, reason, .. } => {
                assert_eq!(*t, 20);
                assert_eq!(*reason, AlertReason::GapBreach);
            }
            e => panic!("unexpected {e:?}"),
        }
    }

    #[test]
    fn storm_and_drop_rules_fire_per_window() {
        let spec = SloSpec::parse("window:10;storm:2;drops:1").unwrap();
        let mut hp = HealthProbe::new(spec, 1, Collector::default());
        hp.record(&TraceEvent::MachineCrash {
            t: 1,
            machine: MachineId(0),
            machine_type: TypeIndex(0),
            displaced: 3,
        });
        hp.record(&TraceEvent::JobDropped {
            t: 2,
            job: JobId(9),
            reason: "no capacity".into(),
        });
        hp.finish();
        let report = hp.report();
        assert_eq!(report.count(AlertReason::DisplacementStorm), 1);
        assert_eq!(report.count(AlertReason::DropSurge), 1);
        assert_eq!(report.alerts[0].value_milli, 3000);
        assert!(report.breached());
        assert!(report.summary().contains("displacement-storm"));
    }

    #[test]
    fn latency_rule_compares_against_run_start_baseline() {
        let spec = SloSpec::parse("window:10;latency:2000:1").unwrap();
        let mut hp = HealthProbe::new(spec, 1, Collector::default());
        let place = |t: u64, ns: u64| TraceEvent::Placement {
            t,
            job: JobId(t as u32),
            machine: MachineId(0),
            machine_type: TypeIndex(0),
            opened: false,
            decision_ns: ns,
            load: 1,
            capacity: 4,
        };
        hp.record(&place(1, 100)); // baseline window
        hp.record(&place(11, 100)); // steady
        hp.record(&place(21, 100_000)); // regression ≫ 2× baseline
        hp.finish();
        let report = hp.report();
        assert_eq!(report.count(AlertReason::LatencyRegression), 1);
        let a = &report.alerts[0];
        assert_eq!(a.window, 2);
        assert!(a.value_milli > a.threshold_milli);
    }

    #[test]
    fn settled_report_matches_into_parts_without_consuming() {
        let spec = SloSpec::parse("window:10;gap:1500:2;storm:1").unwrap();
        let events = [
            gap_sample(1, 10, 20),
            gap_sample(11, 10, 20),
            TraceEvent::MachineCrash {
                t: 14,
                machine: MachineId(0),
                machine_type: TypeIndex(0),
                displaced: 1,
            },
            gap_sample(21, 10, 10),
            gap_sample(31, 10, 20),
        ];
        let mut live = HealthProbe::new(spec.clone(), 1, NoProbe);
        for (i, e) in events.iter().enumerate() {
            live.record(e);
            let mut fresh = HealthProbe::new(spec.clone(), 1, NoProbe);
            for e in &events[..=i] {
                fresh.record(e);
            }
            let (_, want) = fresh.into_parts();
            // The storm on window 1 only fires once that window is settled.
            assert_eq!(
                format!("{:?}", live.settled_report()),
                format!("{want:?}"),
                "after event {i}"
            );
        }
        assert_eq!(live.report().windows_closed, 3);
    }

    #[test]
    fn clean_runs_trip_nothing_under_the_default_spec() {
        let mut hp = HealthProbe::new(SloSpec::default(), 1, Collector::default());
        for t in 0..200u64 {
            hp.record(&TraceEvent::Arrival {
                t,
                job: JobId(t as u32),
                size: 1,
            });
            hp.record(&gap_sample(t, 100, 150));
        }
        hp.finish();
        assert!(!hp.report().breached());
        assert!(hp.report().windows_closed >= 3);
    }

    #[test]
    fn alerts_snapshot_the_flight_recorder() {
        let dir = std::env::temp_dir().join("bshm-slo-tests-snapshots");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let spec = SloSpec::parse("window:10;storm:1").unwrap();
        let mut hp = HealthProbe::new(spec, 1, Collector::default())
            .with_snapshot_dir(&dir)
            .with_flight_capacity(16);
        hp.record(&TraceEvent::MachineCrash {
            t: 3,
            machine: MachineId(0),
            machine_type: TypeIndex(0),
            displaced: 2,
        });
        hp.finish();
        let (_, report) = hp.into_parts();
        assert_eq!(report.snapshots.len(), 1);
        assert!(report.snapshot_errors.is_empty());
        let text = std::fs::read_to_string(&report.snapshots[0]).unwrap();
        let events = crate::replay::parse_jsonl(&text).unwrap();
        // The snapshot holds the crash that led up to the alert, plus the
        // alert itself.
        assert!(events
            .iter()
            .any(|e| matches!(e, TraceEvent::MachineCrash { .. })));
        assert!(events.iter().any(|e| matches!(e, TraceEvent::Alert { .. })));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn health_report_serializes() {
        let spec = SloSpec::parse("window:10;drops:1").unwrap();
        let mut hp = HealthProbe::new(spec, 1, Collector::default());
        hp.record(&TraceEvent::JobDropped {
            t: 2,
            job: JobId(1),
            reason: "x".into(),
        });
        let (_, report) = hp.into_parts();
        let path = std::env::temp_dir().join("bshm-slo-tests-report.json");
        write_health_report(&path, &report).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        // JSON uses the variant-name tag, like the trace schema.
        assert!(text.contains("DropSurge"));
        let _ = std::fs::remove_file(&path);
    }
}
