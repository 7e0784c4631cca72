//! The live optimality-gap observatory.
//!
//! [`GapProbe`] wraps any inner [`Probe`] and watches the event stream go
//! by, maintaining:
//!
//! * the incrementally updated busy-time lower bound of everything
//!   observed so far ([`bshm_core::IncrementalLowerBound`]);
//! * the cost accrued so far — settled `CostAccrual` totals plus the
//!   accrued portion of still-open busy spans.
//!
//! At the end of every distinct timestamp it emits a
//! [`TraceEvent::GapSample`] into the wrapped probe (so gap gauges land
//! in the trace and in [`crate::Metrics`]) and records a [`GapPoint`] in
//! its own [`GapTimeline`]. Samples close their timestamp: the probe
//! holds each sample back until it sees the first event of a *later*
//! time (or the run finishes), so the emitted stream stays time-sorted
//! with departure-side events still ahead of arrival-side ones.
//!
//! For traces recorded *before* gap gauges existed,
//! [`compute_gap_timeline`] rebuilds the same timeline after the fact by
//! replaying the events through the identical state machine — it only
//! needs the instance's catalog.

use crate::event::TraceEvent;
use crate::probe::Probe;
use bshm_core::cost::Cost;
use bshm_core::incremental_lb::IncrementalLowerBound;
use bshm_core::job::JobId;
use bshm_core::machine::Catalog;
use bshm_core::schedule::MachineId;
use bshm_core::time::TimePoint;
use serde::Serialize;
use std::collections::{BTreeMap, HashMap};

/// Saturates an exact cost into the `u64` traces carry.
fn sat_u64(x: Cost) -> u64 {
    u64::try_from(x).unwrap_or(u64::MAX)
}

/// One gap-gauge sample: lower bound and accrued cost at time `t`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub struct GapPoint {
    /// Sample time.
    pub t: TimePoint,
    /// Lower bound of the observed prefix.
    pub lower_bound: u64,
    /// Cost accrued so far (closed spans + open spans up to `t`).
    pub cost: u64,
}

impl GapPoint {
    /// `cost / lower_bound`, or `None` while the bound is still zero.
    #[must_use]
    pub fn ratio(&self) -> Option<f64> {
        (self.lower_bound > 0).then(|| self.cost as f64 / self.lower_bound as f64)
    }
}

/// A per-timestamp gap timeline: how the cost/lower-bound gap evolved
/// over a run.
#[derive(Clone, Debug, Default, Serialize)]
pub struct GapTimeline {
    /// Samples in time order, one per distinct event timestamp.
    pub points: Vec<GapPoint>,
}

impl GapTimeline {
    /// The last sample, if any.
    #[must_use]
    pub fn final_point(&self) -> Option<&GapPoint> {
        self.points.last()
    }

    /// The gap ratio at the last sample (`None` for an empty timeline or
    /// a zero final lower bound).
    #[must_use]
    pub fn final_ratio(&self) -> Option<f64> {
        self.final_point().and_then(GapPoint::ratio)
    }

    /// The largest gap ratio over all samples with a positive lower
    /// bound (0 when there is none).
    #[must_use]
    pub fn max_ratio(&self) -> f64 {
        self.points
            .iter()
            .filter_map(GapPoint::ratio)
            .fold(0.0, f64::max)
    }
}

/// Extracts the gap timeline a trace already carries: one [`GapPoint`]
/// per `GapSample` event. Empty for pre-gap-observatory traces — use
/// [`compute_gap_timeline`] as the fallback then.
#[must_use]
pub fn gap_timeline_from_events(events: &[TraceEvent]) -> GapTimeline {
    let points = events
        .iter()
        .filter_map(|e| match *e {
            TraceEvent::GapSample {
                t,
                lower_bound,
                cost,
            } => Some(GapPoint {
                t,
                lower_bound,
                cost,
            }),
            _ => None,
        })
        .collect();
    GapTimeline { points }
}

/// Recomputes the gap timeline of any trace (with or without recorded
/// `GapSample` events) by replaying it through the [`GapProbe`] state
/// machine against `catalog`. Recorded samples in the input are ignored,
/// so the result is exactly what a live gap probe would have produced.
#[must_use]
pub fn compute_gap_timeline(events: &[TraceEvent], catalog: &Catalog) -> GapTimeline {
    let mut probe = GapProbe::new(catalog, crate::probe::NoProbe);
    for e in events {
        probe.record(e);
    }
    probe.finish();
    probe.into_timeline()
}

/// The gap observatory's fold state: the incremental lower bound, the
/// settled and open busy-span costs, the active jobs, and the timestamp
/// whose sample is still held back.
///
/// [`GapProbe`] wraps one of these together with its inner probe and its
/// [`GapTimeline`]. Callers that only need the current gauge (a resident
/// service tenant) hold the bare gauge, whose memory does not grow with
/// the number of samples.
#[derive(Debug)]
pub struct GapGauge {
    ilb: IncrementalLowerBound,
    catalog: Catalog,
    /// Settled cost from `CostAccrual` events.
    closed_cost: Cost,
    /// Open busy spans: machine → (opened at, rate).
    open_spans: BTreeMap<MachineId, (TimePoint, u64)>,
    /// Active jobs and their sizes (arrived, not departed/dropped).
    active: HashMap<JobId, u64>,
    /// The timestamp whose sample is still held back.
    pending_t: Option<TimePoint>,
    error: Option<String>,
}

impl GapGauge {
    /// An empty gauge against `catalog`.
    #[must_use]
    pub fn new(catalog: &Catalog) -> Self {
        GapGauge {
            ilb: IncrementalLowerBound::new(catalog),
            catalog: catalog.clone(),
            closed_cost: 0,
            open_spans: BTreeMap::new(),
            active: HashMap::new(),
            pending_t: None,
            error: None,
        }
    }

    /// Folds one event. Returns the sample of the previous timestamp when
    /// this event is the first of a later one. Recorded `GapSample` and
    /// `Alert` events are ignored: folding them would duplicate gauges
    /// when replaying a gap-aware (or health-aware) trace.
    pub fn observe(&mut self, event: &TraceEvent) -> Option<GapPoint> {
        if matches!(
            event,
            TraceEvent::GapSample { .. } | TraceEvent::Alert { .. }
        ) {
            return None;
        }
        let t = event.time();
        let closed = self
            .pending_t
            .filter(|&pt| t > pt)
            .map(|pt| self.point_at(pt));
        self.fold(event);
        self.pending_t = Some(t);
        closed
    }

    /// Closes the held-back timestamp (end of stream) and returns its
    /// sample.
    pub fn flush(&mut self) -> Option<GapPoint> {
        let pt = self.pending_t.take()?;
        Some(self.point_at(pt))
    }

    /// The sample [`GapGauge::flush`] would return now, without closing
    /// it: the final point of the timeline folded so far.
    #[must_use]
    pub fn settled_point(&self) -> Option<GapPoint> {
        self.pending_t.map(|pt| self.point_at(pt))
    }

    /// The exact (`u128`) lower bound accumulated so far.
    #[must_use]
    pub fn lower_bound(&self) -> Cost {
        self.ilb.accumulated()
    }

    /// The exact (`u128`) cost accrued up to time `t`.
    #[must_use]
    pub fn accrued_cost(&self, t: TimePoint) -> Cost {
        let open: Cost = self
            .open_spans
            .values()
            .map(|&(opened_at, rate)| u128::from(t.saturating_sub(opened_at)) * u128::from(rate))
            .sum();
        self.closed_cost + open
    }

    /// The first inconsistency hit while folding events (`None` when the
    /// stream was well-formed). The gauge keeps running past errors; it is
    /// best-effort from that point on.
    #[must_use]
    pub fn error(&self) -> Option<&str> {
        self.error.as_deref()
    }

    fn note_error(&mut self, context: &str, e: impl std::fmt::Display) {
        if self.error.is_none() {
            self.error = Some(format!("{context}: {e}"));
        }
    }

    fn point_at(&self, t: TimePoint) -> GapPoint {
        GapPoint {
            t,
            lower_bound: sat_u64(self.ilb.accumulated()),
            cost: sat_u64(self.accrued_cost(t)),
        }
    }

    fn rate_of(&self, machine_type: bshm_core::machine::TypeIndex) -> u64 {
        self.catalog
            .types()
            .get(machine_type.0)
            .map_or(0, |t| t.rate)
    }

    fn fold(&mut self, event: &TraceEvent) {
        match *event {
            TraceEvent::Arrival { t, job, size } => {
                self.active.insert(job, size);
                if let Err(e) = self.ilb.arrive(t, size) {
                    self.note_error("gap probe: arrival", e);
                }
            }
            TraceEvent::Departure { t, job, .. } => {
                if let Some(size) = self.active.remove(&job) {
                    if let Err(e) = self.ilb.depart(t, size) {
                        self.note_error("gap probe: departure", e);
                    }
                }
            }
            TraceEvent::MachineOpen {
                t,
                machine,
                machine_type,
            } => {
                let rate = self.rate_of(machine_type);
                self.open_spans.insert(machine, (t, rate));
            }
            TraceEvent::CostAccrual {
                machine,
                busy,
                rate,
                ..
            } => {
                self.closed_cost += u128::from(busy) * u128::from(rate);
                self.open_spans.remove(&machine);
            }
            TraceEvent::MachineClose { machine, .. } | TraceEvent::MachineCrash { machine, .. } => {
                self.open_spans.remove(&machine);
            }
            TraceEvent::JobRecovery {
                t,
                to,
                machine_type,
                ..
            } => {
                // The job stays active (same size, same demand); make sure
                // its recovery machine's span is accruing.
                let rate = self.rate_of(machine_type);
                self.open_spans.entry(to).or_insert((t, rate));
            }
            TraceEvent::JobDropped { t, job, .. } => {
                // A dropped job stops demanding capacity: clip its
                // interval at the drop instant.
                if let Some(size) = self.active.remove(&job) {
                    if let Err(e) = self.ilb.depart(t, size) {
                        self.note_error("gap probe: drop", e);
                    }
                }
            }
            // Placements do not move load (the arrival already did);
            // decision x-rays, recorded samples and alerts are gauges,
            // not state.
            TraceEvent::Placement { .. }
            | TraceEvent::Decision { .. }
            | TraceEvent::GapSample { .. }
            | TraceEvent::Alert { .. }
            | TraceEvent::TenantLifecycle { .. }
            | TraceEvent::Degradation { .. } => {}
        }
    }
}

/// A probe adapter that forwards every event to `inner` and appends one
/// `GapSample` per distinct timestamp (see the module docs).
#[derive(Debug)]
pub struct GapProbe<P> {
    inner: P,
    gauge: GapGauge,
    timeline: GapTimeline,
}

impl<P: Probe> GapProbe<P> {
    /// Wraps `inner`, gauging against `catalog`.
    #[must_use]
    pub fn new(catalog: &Catalog, inner: P) -> Self {
        GapProbe {
            inner,
            gauge: GapGauge::new(catalog),
            timeline: GapTimeline::default(),
        }
    }

    /// The gap timeline sampled so far.
    #[must_use]
    pub fn timeline(&self) -> &GapTimeline {
        &self.timeline
    }

    /// Consumes the probe, returning its timeline.
    #[must_use]
    pub fn into_timeline(self) -> GapTimeline {
        self.timeline
    }

    /// Consumes the probe, returning the wrapped probe and the timeline.
    #[must_use]
    pub fn into_parts(self) -> (P, GapTimeline) {
        (self.inner, self.timeline)
    }

    /// The exact (`u128`) lower bound accumulated so far.
    #[must_use]
    pub fn lower_bound(&self) -> Cost {
        self.gauge.lower_bound()
    }

    /// The exact (`u128`) cost accrued up to time `t`.
    #[must_use]
    pub fn accrued_cost(&self, t: TimePoint) -> Cost {
        self.gauge.accrued_cost(t)
    }

    /// The first inconsistency hit while folding events (`None` when the
    /// stream was well-formed). The probe keeps running past errors; the
    /// gauges are best-effort from that point on.
    #[must_use]
    pub fn error(&self) -> Option<&str> {
        self.gauge.error()
    }

    fn emit_sample(&mut self, point: GapPoint) {
        self.timeline.points.push(point);
        self.inner.record(&TraceEvent::GapSample {
            t: point.t,
            lower_bound: point.lower_bound,
            cost: point.cost,
        });
    }
}

impl<P: Probe> Probe for GapProbe<P> {
    fn enabled(&self) -> bool {
        true
    }

    fn record(&mut self, event: &TraceEvent) {
        // The sample closed by this event goes out first, so the stream
        // stays time-sorted. Recorded samples and alerts pass through
        // untouched (the gauge ignores them).
        if let Some(point) = self.gauge.observe(event) {
            self.emit_sample(point);
        }
        self.inner.record(event);
    }

    fn finish(&mut self) {
        if let Some(point) = self.gauge.flush() {
            self.emit_sample(point);
        }
        self.inner.finish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::Collector;
    use crate::replay::synthesize;
    use bshm_core::instance::Instance;
    use bshm_core::job::Job;
    use bshm_core::lower_bound::lower_bound;
    use bshm_core::machine::{MachineType, TypeIndex};
    use bshm_core::schedule::Schedule;
    use bshm_core::schedule_cost;

    fn catalog() -> Catalog {
        Catalog::new(vec![MachineType::new(4, 1), MachineType::new(16, 2)]).unwrap()
    }

    fn setup() -> (Instance, Schedule) {
        let jobs = vec![
            Job::new(0, 2, 0, 10),
            Job::new(1, 2, 5, 15),
            Job::new(2, 10, 0, 20),
        ];
        let instance = Instance::new(jobs, catalog()).unwrap();
        let mut s = Schedule::new();
        let m0 = s.add_machine(TypeIndex(0), "small");
        s.assign(m0, JobId(0));
        s.assign(m0, JobId(1));
        let m1 = s.add_machine(TypeIndex(1), "big");
        s.assign(m1, JobId(2));
        (instance, s)
    }

    #[test]
    fn samples_close_each_timestamp_and_stay_sorted() {
        let (inst, s) = setup();
        let mut probe = GapProbe::new(inst.catalog(), Collector::default());
        synthesize(&s, &inst, &mut probe);
        assert_eq!(probe.error(), None);
        let (collector, timeline) = probe.into_parts();
        // Event times: 0, 5, 10, 15, 20 → five samples.
        let ts: Vec<TimePoint> = timeline.points.iter().map(|p| p.t).collect();
        assert_eq!(ts, vec![0, 5, 10, 15, 20]);
        // The emitted stream stays time-sorted with departure-side events
        // ahead of arrival-side ones at every timestamp.
        let times: Vec<TimePoint> = collector.events.iter().map(TraceEvent::time).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]), "{times:?}");
        for w in collector.events.windows(2) {
            if w[0].time() == w[1].time() {
                assert!(
                    w[0].is_departure_side() >= w[1].is_departure_side(),
                    "{w:?}"
                );
            }
        }
        // And the collector holds exactly one GapSample per timestamp.
        let samples = gap_timeline_from_events(&collector.events);
        assert_eq!(samples.points, timeline.points);
    }

    #[test]
    fn final_sample_matches_full_sweep_and_cost() {
        let (inst, s) = setup();
        let mut probe = GapProbe::new(inst.catalog(), Collector::default());
        synthesize(&s, &inst, &mut probe);
        assert_eq!(probe.lower_bound(), lower_bound(&inst));
        let last = *probe.timeline().final_point().unwrap();
        assert_eq!(u128::from(last.lower_bound), lower_bound(&inst));
        assert_eq!(u128::from(last.cost), schedule_cost(&s, &inst));
        assert!(probe.timeline().final_ratio().unwrap() >= 1.0);
        assert!(probe.timeline().max_ratio() >= 1.0);
    }

    #[test]
    fn computed_fallback_equals_live_gauges() {
        let (inst, s) = setup();
        // A pre-gap trace: plain collector, no GapSample events.
        let mut plain = Collector::default();
        synthesize(&s, &inst, &mut plain);
        assert!(gap_timeline_from_events(&plain.events).points.is_empty());
        // Live gauges from a gap probe over the same schedule.
        let mut probe = GapProbe::new(inst.catalog(), Collector::default());
        synthesize(&s, &inst, &mut probe);
        let live = probe.into_timeline();
        // The fallback recomputation over the pre-gap trace agrees.
        let computed = compute_gap_timeline(&plain.events, inst.catalog());
        assert_eq!(computed.points, live.points);
        // Recomputing over the gap-aware trace ignores recorded samples
        // and still agrees.
        let mut probe2 = GapProbe::new(inst.catalog(), Collector::default());
        synthesize(&s, &inst, &mut probe2);
        let (gap_collector, _) = probe2.into_parts();
        let recomputed = compute_gap_timeline(&gap_collector.events, inst.catalog());
        assert_eq!(recomputed.points, live.points);
    }

    #[test]
    fn gauge_settled_point_is_the_final_sample_of_every_prefix() {
        let (inst, s) = setup();
        let mut plain = Collector::default();
        synthesize(&s, &inst, &mut plain);
        let mut gauge = GapGauge::new(inst.catalog());
        assert_eq!(gauge.settled_point(), None);
        for (i, e) in plain.events.iter().enumerate() {
            gauge.observe(e);
            let prefix = compute_gap_timeline(&plain.events[..=i], inst.catalog());
            assert_eq!(gauge.settled_point().as_ref(), prefix.final_point());
        }
        let last = gauge.flush();
        assert_eq!(gauge.settled_point(), None);
        assert_eq!(
            last.as_ref(),
            compute_gap_timeline(&plain.events, inst.catalog()).final_point()
        );
    }

    #[test]
    fn malformed_streams_surface_an_error_not_a_panic() {
        let cat = catalog();
        let mut probe = GapProbe::new(&cat, Collector::default());
        probe.record(&TraceEvent::Arrival {
            t: 5,
            job: JobId(0),
            size: 2,
        });
        // Time goes backwards: noted, not fatal.
        probe.record(&TraceEvent::Arrival {
            t: 3,
            job: JobId(1),
            size: 2,
        });
        probe.finish();
        assert!(probe.error().unwrap().contains("precedes"));
    }
}
