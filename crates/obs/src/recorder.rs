//! The [`Recorder`] probe: JSONL event log plus aggregated [`Metrics`].

use crate::event::{write_jsonl, AlertReason, TraceEvent};
use crate::probe::Probe;
use bshm_core::ops::OpCounter;
use bshm_core::time::TimePoint;
use serde::Serialize;
use std::io::Write;

/// Number of buckets in the machine-utilization histogram (decile bins).
pub const UTILIZATION_BUCKETS: usize = 10;

/// Number of log₂ buckets in the decision-latency histogram: bucket `i`
/// counts decisions with `decision_ns` in `[2^i, 2^(i+1))`. A
/// `decision_ns` of 0 means the decision was not timed (synthesized or
/// clock-free events) and enters no bucket.
pub const DECISION_NS_BUCKETS: usize = 40;

/// The value range `[lo, hi)` covered by decision-latency bucket `i`.
#[must_use]
pub fn decision_ns_bucket_bounds(i: usize) -> (f64, f64) {
    let lo = if i == 0 { 0.0 } else { (1u64 << i) as f64 };
    (lo, (1u64 << (i + 1)) as f64)
}

/// Number of log₂ buckets in the per-decision operation-count histogram:
/// bucket `i` counts decisions whose scan work ([`OpCounter::total_ops`])
/// lies in `[2^i, 2^(i+1))` (bucket 0 also holds 0- and 1-op decisions).
pub const OPS_BUCKETS: usize = 40;

/// The value range `[lo, hi)` covered by operation-count bucket `i` (the
/// same log₂ layout as the latency buckets).
#[must_use]
pub fn ops_bucket_bounds(i: usize) -> (f64, f64) {
    decision_ns_bucket_bounds(i)
}

/// The value range `[lo, hi)` covered by utilization decile bucket `i`.
#[must_use]
pub fn utilization_bucket_bounds(i: usize) -> (f64, f64) {
    let w = 1.0 / UTILIZATION_BUCKETS as f64;
    (i as f64 * w, (i + 1) as f64 * w)
}

/// Estimates the `q`-quantile (`q` ∈ [0, 1]) of a bucketed histogram whose
/// bucket `i` covers the half-open value range `bounds(i)`.
///
/// The estimator is the standard bucket-interpolation one: the rank
/// `q·(n−1)` is located in the cumulative counts, then positioned linearly
/// inside its bucket's value range (samples are assumed uniform within a
/// bucket). Exact to bucket resolution; `None` for an empty histogram.
#[must_use]
pub fn bucket_quantile(
    counts: &[u64],
    bounds: impl Fn(usize) -> (f64, f64),
    q: f64,
) -> Option<f64> {
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return None;
    }
    let rank = q.clamp(0.0, 1.0) * (total - 1) as f64;
    let mut cum = 0u64;
    for (i, &c) in counts.iter().enumerate() {
        if c == 0 {
            continue;
        }
        if rank < (cum + c) as f64 {
            let (lo, hi) = bounds(i);
            let frac = (rank - cum as f64) / c as f64;
            return Some(lo + frac * (hi - lo));
        }
        cum += c;
    }
    // rank == total-1 lands past the loop only through float edge cases;
    // answer with the top of the last non-empty bucket.
    let last = counts.iter().rposition(|&c| c > 0)?;
    Some(bounds(last).1)
}

/// Adds `src` into `dst` element-wise, growing `dst` if `src` is wider.
fn merge_counts(dst: &mut Vec<u64>, src: &[u64]) {
    widen(dst, src.len());
    for (d, &s) in dst.iter_mut().zip(src) {
        *d = d.saturating_add(s);
    }
}

/// Pads `v` with zeros to at least `len` entries.
fn widen<T: Copy + Default>(v: &mut Vec<T>, len: usize) {
    if v.len() < len {
        v.resize(len, T::default());
    }
}

/// One step of the per-type open-machine gauge: the busy-machine counts
/// after an open or close at time `t`.
#[derive(Clone, Debug, PartialEq, Eq, Serialize)]
pub struct GaugePoint {
    /// Time of the transition.
    pub t: TimePoint,
    /// Busy machines of each catalog type, after the transition.
    pub busy: Vec<u32>,
}

/// Aggregated run metrics, folded from the event stream.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct Metrics {
    /// The algorithm the metrics describe.
    pub algorithm: String,
    /// Number of `Arrival` events.
    pub arrivals: u64,
    /// Number of `Departure` events.
    pub departures: u64,
    /// Number of `Placement` events.
    pub placements: u64,
    /// Placements that created a new machine.
    pub opened_placements: u64,
    /// Placements onto an already-existing machine.
    pub reused_placements: u64,
    /// Number of `MachineOpen` events (idle → busy transitions).
    pub opens: u64,
    /// Number of `MachineClose` events (busy → idle transitions).
    pub closes: u64,
    /// Total cost accrued over all closed busy spans (`Σ rate × busy`).
    pub traced_cost: u64,
    /// Accrued cost per catalog type.
    pub cost_by_type: Vec<u64>,
    /// Peak simultaneously-busy machines per catalog type.
    pub open_peak_by_type: Vec<u32>,
    /// Per-type open-machine gauge: one point per open/close transition.
    pub gauge_timeline: Vec<GaugePoint>,
    /// Decile histogram of machine fill (`load / capacity`) right after
    /// each placement.
    pub utilization_hist: Vec<u64>,
    /// Sum of the observed fill fractions (the histogram's exact `_sum`).
    pub utilization_sum: f64,
    /// Log₂-bucketed histogram of placement decision latency in ns.
    pub decision_ns_hist: Vec<u64>,
    /// Sum of the observed decision latencies in ns (the exact `_sum`).
    pub decision_ns_sum: u64,
    /// Number of `MachineCrash` events (machines revoked by a fault plan).
    pub crashes: u64,
    /// Jobs displaced by crashes (sum of per-crash `displaced` counts).
    pub displaced_jobs: u64,
    /// Displaced jobs successfully re-placed (`JobRecovery` events).
    pub recovered_jobs: u64,
    /// Jobs explicitly dropped with a reason (`JobDropped` events).
    pub dropped_jobs: u64,
    /// Sum of recovery re-placement latencies in ns.
    pub recovery_ns_sum: u64,
    /// Number of `GapSample` gauge events observed.
    pub gap_samples: u64,
    /// Lower bound carried by the last `GapSample` (0 before the first).
    pub last_lower_bound: u64,
    /// Accrued cost carried by the last `GapSample` (0 before the first).
    pub last_attributed_cost: u64,
    /// Largest `cost / lower_bound` ratio over all `GapSample` events with
    /// a positive lower bound (0 before the first such sample).
    pub max_gap_ratio: f64,
    /// Deterministic operation counters folded from `Decision` events
    /// (all-zero for runs traced without the decision x-ray).
    pub ops: OpCounter,
    /// Log₂-bucketed histogram of per-decision scan work
    /// ([`OpCounter::total_ops`] per `Decision` event).
    pub ops_hist: Vec<u64>,
    /// Sum of per-decision scan work (the histogram's exact `_sum`).
    pub ops_sum: u64,
    /// Number of `Alert` events (SLO breaches) observed.
    pub alerts: u64,
    /// Alerts per typed reason, indexed by [`AlertReason::index`].
    pub alerts_by_reason: Vec<u64>,
    /// Number of `TenantLifecycle` events (resident-service supervision).
    pub tenant_transitions: u64,
    /// Number of `Degradation` events (ladder rung changes).
    pub degradations: u64,
}

impl Metrics {
    /// Fresh zeroed metrics for an algorithm, with the per-type vectors
    /// `n_types` wide to start; [`Metrics::update`] widens them as events
    /// name further types.
    #[must_use]
    pub fn new(algorithm: impl Into<String>, n_types: usize) -> Self {
        Metrics {
            algorithm: algorithm.into(),
            arrivals: 0,
            departures: 0,
            placements: 0,
            opened_placements: 0,
            reused_placements: 0,
            opens: 0,
            closes: 0,
            traced_cost: 0,
            cost_by_type: vec![0; n_types],
            open_peak_by_type: vec![0; n_types],
            gauge_timeline: Vec::new(),
            utilization_hist: vec![0; UTILIZATION_BUCKETS],
            utilization_sum: 0.0,
            decision_ns_hist: vec![0; DECISION_NS_BUCKETS],
            decision_ns_sum: 0,
            crashes: 0,
            displaced_jobs: 0,
            recovered_jobs: 0,
            dropped_jobs: 0,
            recovery_ns_sum: 0,
            gap_samples: 0,
            last_lower_bound: 0,
            last_attributed_cost: 0,
            max_gap_ratio: 0.0,
            ops: OpCounter::default(),
            ops_hist: vec![0; OPS_BUCKETS],
            ops_sum: 0,
            alerts: 0,
            alerts_by_reason: vec![0; AlertReason::ALL.len()],
            tenant_transitions: 0,
            degradations: 0,
        }
    }

    /// The gap ratio at the last `GapSample`: `cost / lower_bound`, or
    /// `None` before the first sample with a positive lower bound.
    #[must_use]
    pub fn gap_ratio(&self) -> Option<f64> {
        (self.gap_samples > 0 && self.last_lower_bound > 0)
            .then(|| self.last_attributed_cost as f64 / self.last_lower_bound as f64)
    }

    /// Estimated `q`-quantile of the placement decision latency in ns;
    /// `None` before the first placement.
    #[must_use]
    pub fn decision_ns_quantile(&self, q: f64) -> Option<f64> {
        bucket_quantile(&self.decision_ns_hist, decision_ns_bucket_bounds, q)
    }

    /// Estimated `q`-quantile of machine fill at placement time;
    /// `None` before the first placement.
    #[must_use]
    pub fn utilization_quantile(&self, q: f64) -> Option<f64> {
        bucket_quantile(&self.utilization_hist, utilization_bucket_bounds, q)
    }

    /// Estimated `q`-quantile of per-decision scan work; `None` before
    /// the first `Decision` event.
    #[must_use]
    pub fn ops_per_decision_quantile(&self, q: f64) -> Option<f64> {
        bucket_quantile(&self.ops_hist, ops_bucket_bounds, q)
    }

    /// The metrics a later stretch of the same run starts from: counters,
    /// sums, histograms, peaks and the gauge timeline are zeroed, and the
    /// gap gauge (the last `GapSample`'s lower bound and cost) carries over.
    pub(crate) fn next_segment(&self) -> Metrics {
        let mut next = Metrics::new(self.algorithm.clone(), self.cost_by_type.len());
        next.last_lower_bound = self.last_lower_bound;
        next.last_attributed_cost = self.last_attributed_cost;
        next
    }

    /// Appends `later`, the metrics of the next stretch of the same run:
    /// counters, costs, sums and histograms add; per-type peaks and the
    /// max gap ratio take the max; the gauge timeline concatenates; the
    /// gap gauge reads `later`'s value. Merging the stretches of a run in
    /// order gives the metrics of the whole run.
    pub fn merge(&mut self, later: &Metrics) {
        self.arrivals += later.arrivals;
        self.departures += later.departures;
        self.placements += later.placements;
        self.opened_placements += later.opened_placements;
        self.reused_placements += later.reused_placements;
        self.opens += later.opens;
        self.closes += later.closes;
        self.traced_cost = self.traced_cost.saturating_add(later.traced_cost);
        merge_counts(&mut self.cost_by_type, &later.cost_by_type);
        widen(&mut self.open_peak_by_type, later.open_peak_by_type.len());
        for (p, &o) in self
            .open_peak_by_type
            .iter_mut()
            .zip(&later.open_peak_by_type)
        {
            *p = (*p).max(o);
        }
        self.gauge_timeline.extend_from_slice(&later.gauge_timeline);
        merge_counts(&mut self.utilization_hist, &later.utilization_hist);
        self.utilization_sum += later.utilization_sum;
        merge_counts(&mut self.decision_ns_hist, &later.decision_ns_hist);
        self.decision_ns_sum = self.decision_ns_sum.saturating_add(later.decision_ns_sum);
        self.crashes += later.crashes;
        self.displaced_jobs += later.displaced_jobs;
        self.recovered_jobs += later.recovered_jobs;
        self.dropped_jobs += later.dropped_jobs;
        self.recovery_ns_sum = self.recovery_ns_sum.saturating_add(later.recovery_ns_sum);
        self.gap_samples += later.gap_samples;
        self.last_lower_bound = later.last_lower_bound;
        self.last_attributed_cost = later.last_attributed_cost;
        self.max_gap_ratio = self.max_gap_ratio.max(later.max_gap_ratio);
        self.ops.fold(&later.ops);
        merge_counts(&mut self.ops_hist, &later.ops_hist);
        self.ops_sum = self.ops_sum.saturating_add(later.ops_sum);
        self.alerts += later.alerts;
        merge_counts(&mut self.alerts_by_reason, &later.alerts_by_reason);
        self.tenant_transitions += later.tenant_transitions;
        self.degradations += later.degradations;
    }

    /// Folds one event into the aggregates. `busy_now` is the caller's
    /// running per-type busy-machine gauge (updated in place). An event
    /// that names a type past the end of `busy_now`, `cost_by_type` or
    /// `open_peak_by_type` first pads them with zeros, as
    /// [`Metrics::merge`] does, so the `n_types` given to [`Metrics::new`]
    /// is only a starting width.
    pub fn update(&mut self, event: &TraceEvent, busy_now: &mut Vec<u32>) {
        let width = crate::replay::event_type_bound(event);
        widen(busy_now, width);
        widen(&mut self.cost_by_type, width);
        widen(&mut self.open_peak_by_type, width);
        match *event {
            TraceEvent::Arrival { .. } => self.arrivals += 1,
            TraceEvent::Departure { .. } => self.departures += 1,
            TraceEvent::Placement {
                opened,
                decision_ns,
                load,
                capacity,
                ..
            } => {
                self.placements += 1;
                if opened {
                    self.opened_placements += 1;
                } else {
                    self.reused_placements += 1;
                }
                let fill = if capacity == 0 {
                    0.0
                } else {
                    load as f64 / capacity as f64
                };
                #[expect(
                    clippy::cast_possible_truncation,
                    clippy::cast_sign_loss,
                    reason = "float-to-usize saturates; min() bounds the bucket"
                )]
                let bucket =
                    ((fill * UTILIZATION_BUCKETS as f64) as usize).min(UTILIZATION_BUCKETS - 1);
                self.utilization_hist[bucket] += 1;
                self.utilization_sum += fill;
                if decision_ns > 0 {
                    let b = (decision_ns.ilog2() as usize).min(DECISION_NS_BUCKETS - 1);
                    self.decision_ns_hist[b] += 1;
                    self.decision_ns_sum = self.decision_ns_sum.saturating_add(decision_ns);
                }
            }
            TraceEvent::CostAccrual {
                machine_type,
                busy,
                rate,
                ..
            } => {
                let cost = rate.saturating_mul(busy);
                self.traced_cost = self.traced_cost.saturating_add(cost);
                let c = &mut self.cost_by_type[machine_type.0];
                *c = c.saturating_add(cost);
            }
            TraceEvent::MachineOpen {
                t, machine_type, ..
            } => {
                self.opens += 1;
                let b = &mut busy_now[machine_type.0];
                *b += 1;
                let p = &mut self.open_peak_by_type[machine_type.0];
                *p = (*p).max(*b);
                self.push_gauge(t, busy_now);
            }
            TraceEvent::MachineClose {
                t, machine_type, ..
            } => {
                self.closes += 1;
                let b = &mut busy_now[machine_type.0];
                *b = b.saturating_sub(1);
                self.push_gauge(t, busy_now);
            }
            // The crash's busy span was already closed by its CostAccrual +
            // MachineClose pair, so the gauge does not move here.
            TraceEvent::MachineCrash { displaced, .. } => {
                self.crashes += 1;
                self.displaced_jobs += displaced;
            }
            TraceEvent::JobRecovery { recovery_ns, .. } => {
                self.recovered_jobs += 1;
                self.recovery_ns_sum = self.recovery_ns_sum.saturating_add(recovery_ns);
            }
            TraceEvent::JobDropped { .. } => self.dropped_jobs += 1,
            TraceEvent::Decision { ref ops, .. } => {
                self.ops.fold(ops);
                let work = ops.total_ops();
                let b = if work == 0 {
                    0
                } else {
                    (work.ilog2() as usize).min(OPS_BUCKETS - 1)
                };
                self.ops_hist[b] += 1;
                self.ops_sum = self.ops_sum.saturating_add(work);
            }
            TraceEvent::GapSample {
                lower_bound, cost, ..
            } => {
                self.gap_samples += 1;
                self.last_lower_bound = lower_bound;
                self.last_attributed_cost = cost;
                if lower_bound > 0 {
                    let ratio = cost as f64 / lower_bound as f64;
                    if ratio > self.max_gap_ratio {
                        self.max_gap_ratio = ratio;
                    }
                }
            }
            TraceEvent::Alert { reason, .. } => {
                self.alerts += 1;
                if let Some(c) = self.alerts_by_reason.get_mut(reason.index()) {
                    *c += 1;
                }
            }
            TraceEvent::TenantLifecycle { .. } => self.tenant_transitions += 1,
            TraceEvent::Degradation { .. } => self.degradations += 1,
        }
    }

    /// Busy machines of each type at time `t`: the gauge row in force at
    /// `t` (zeros before the first transition).
    #[must_use]
    pub fn gauge_at(&self, t: TimePoint) -> Vec<u32> {
        let i = self.gauge_timeline.partition_point(|g| g.t <= t);
        match i.checked_sub(1) {
            Some(i) => self.gauge_timeline[i].busy.clone(),
            None => vec![0; self.gauge_timeline.first().map_or(0, |g| g.busy.len())],
        }
    }

    fn push_gauge(&mut self, t: TimePoint, busy_now: &[u32]) {
        // Coalesce transitions at the same instant into one point.
        if let Some(last) = self.gauge_timeline.last_mut() {
            if last.t == t {
                last.busy.clear();
                last.busy.extend_from_slice(busy_now);
                return;
            }
        }
        self.gauge_timeline.push(GaugePoint {
            t,
            busy: busy_now.to_vec(),
        });
    }

    /// A short human-readable summary block.
    #[must_use]
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "trace metrics ({}):", self.algorithm);
        let _ = writeln!(
            out,
            "  events:      {} arrivals, {} departures, {} placements",
            self.arrivals, self.departures, self.placements
        );
        let _ = writeln!(
            out,
            "  machines:    {} opens, {} closes, peak by type {:?}",
            self.opens, self.closes, self.open_peak_by_type
        );
        let _ = writeln!(
            out,
            "  placements:  {} opened a machine, {} reused one",
            self.opened_placements, self.reused_placements
        );
        let _ = writeln!(
            out,
            "  cost:        {} traced ({:?} by type)",
            self.traced_cost, self.cost_by_type
        );
        if let Some(r) = self.gap_ratio() {
            let _ = writeln!(
                out,
                "  gap:         {:.4} (cost {} vs lower bound {}, max {:.4}, {} samples)",
                r,
                self.last_attributed_cost,
                self.last_lower_bound,
                self.max_gap_ratio,
                self.gap_samples
            );
        }
        if self.ops.decisions > 0 {
            let _ = writeln!(
                out,
                "  ops:         {} scanned + {} compared over {} decisions ({} opened, {} reused)",
                self.ops.machines_scanned,
                self.ops.capacity_comparisons,
                self.ops.decisions,
                self.ops.machines_opened,
                self.ops.machines_reused
            );
        }
        if self.crashes > 0 || self.dropped_jobs > 0 {
            let _ = writeln!(
                out,
                "  faults:      {} crashes, {} displaced, {} recovered, {} dropped",
                self.crashes, self.displaced_jobs, self.recovered_jobs, self.dropped_jobs
            );
        }
        if self.alerts > 0 {
            let by_reason: Vec<String> = AlertReason::ALL
                .iter()
                .zip(&self.alerts_by_reason)
                .filter(|(_, &c)| c > 0)
                .map(|(r, c)| format!("{} {}", c, r.as_str()))
                .collect();
            let _ = writeln!(
                out,
                "  alerts:      {} SLO breaches ({})",
                self.alerts,
                by_reason.join(", ")
            );
        }
        out
    }
}

/// Bytes of whole JSONL lines a [`Recorder`] gathers before it hands
/// them to its trace file in one write.
pub const TRACE_BATCH: usize = 64 * 1024;

/// A probe that streams events to an optional crash-safe JSONL trace
/// file and folds them into [`Metrics`] as they pass.
pub struct Recorder {
    sink: Option<crate::sink::TraceWriter>,
    /// Encoded lines not yet written to `sink`: always whole lines, and
    /// written out once they reach [`TRACE_BATCH`] bytes.
    batch: Vec<u8>,
    metrics: Metrics,
    busy_now: Vec<u32>,
    events_written: u64,
    io_error: Option<String>,
}

impl Recorder {
    /// A recorder that only aggregates metrics (no event log).
    #[must_use]
    pub fn new(algorithm: impl Into<String>, n_types: usize) -> Self {
        Recorder {
            sink: None,
            batch: Vec::new(),
            metrics: Metrics::new(algorithm, n_types),
            busy_now: vec![0; n_types],
            events_written: 0,
            io_error: None,
        }
    }

    /// Adds a crash-safe file sink at `path` for the raw event stream:
    /// events stream to `<path>.partial`, renamed to `path` when the run
    /// finishes, so `path` never holds a torn trace (see [`crate::sink`]).
    ///
    /// Lines reach `<path>.partial` in batches of about [`TRACE_BATCH`]
    /// bytes that end on a line boundary, so the file never ends inside
    /// a line. A killed process loses at most the batch in flight; a
    /// recorder dropped without finishing writes it out first.
    pub fn with_file(mut self, path: &str) -> std::io::Result<Self> {
        let w = crate::sink::TraceWriter::create(path).map_err(std::io::Error::other)?;
        self.sink = Some(w);
        self.batch = Vec::with_capacity(TRACE_BATCH);
        Ok(self)
    }

    /// The metrics aggregated so far.
    #[must_use]
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Consumes the recorder, writing and publishing the trace, and
    /// returns the metrics.
    ///
    /// # Errors
    /// Returns the first I/O error hit while writing or publishing events.
    pub fn into_metrics(mut self) -> Result<Metrics, String> {
        self.finish();
        match self.io_error.take() {
            Some(e) => Err(e),
            None => Ok(std::mem::replace(
                &mut self.metrics,
                Metrics::new(String::new(), 0),
            )),
        }
    }

    /// Number of events encoded for the trace so far. Each reaches the
    /// file with its batch, or at the latest when the recorder finishes.
    #[must_use]
    pub fn events_written(&self) -> u64 {
        self.events_written
    }

    /// Writes the pending lines to the trace file in one write.
    fn write_batch(&mut self) {
        let Some(sink) = self.sink.as_mut() else {
            return;
        };
        if self.batch.is_empty() {
            return;
        }
        if let Err(e) = sink.write_all(&self.batch) {
            self.io_error
                .get_or_insert_with(|| format!("writing trace: {e}"));
        }
        self.batch.clear();
    }
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recorder")
            .field("algorithm", &self.metrics.algorithm)
            .field("events_written", &self.events_written)
            .field("has_writer", &self.sink.is_some())
            .finish_non_exhaustive()
    }
}

impl Probe for Recorder {
    fn record(&mut self, event: &TraceEvent) {
        if self.sink.is_some() {
            // Whole lines only: an event that fails to encode is cut back
            // out, so every write ends on a line boundary. Failures are
            // reported through `into_metrics` instead of panicking mid-run.
            let start = self.batch.len();
            match write_jsonl(&mut self.batch, [event]) {
                Ok(()) => self.events_written += 1,
                Err(e) => {
                    self.batch.truncate(start);
                    self.io_error
                        .get_or_insert_with(|| format!("writing trace: {e}"));
                }
            }
            if self.batch.len() >= TRACE_BATCH {
                self.write_batch();
            }
        }
        self.metrics.update(event, &mut self.busy_now);
    }

    fn finish(&mut self) {
        self.write_batch();
        // Finalize renames `.partial` into place; idempotent, so a
        // second finish() is safe.
        if let Some(w) = self.sink.as_mut() {
            if let Err(e) = w.finalize() {
                self.io_error.get_or_insert(e);
            }
        }
    }
}

/// A recorder dropped without finishing, on an error path or in a panic
/// unwind, writes its pending lines to `<path>.partial` and leaves it
/// unpublished, as a killed run would but without losing the batch.
impl Drop for Recorder {
    fn drop(&mut self) {
        self.write_batch();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replay::parse_jsonl;
    use bshm_core::job::JobId;

    /// Two size-2 jobs sharing one type-0 machine (capacity 4, rate 2)
    /// over `[0, 9)`.
    const TWO_JOBS: &str = r#"
        {"Arrival":{"t":0,"job":0,"size":2}}
        {"MachineOpen":{"t":0,"machine":0,"machine_type":0}}
        {"Placement":{"t":0,"job":0,"machine":0,"machine_type":0,"opened":true,"decision_ns":100,"load":2,"capacity":4}}
        {"Arrival":{"t":1,"job":1,"size":2}}
        {"Placement":{"t":1,"job":1,"machine":0,"machine_type":0,"opened":false,"decision_ns":7,"load":4,"capacity":4}}
        {"Departure":{"t":5,"job":0,"machine":0}}
        {"Departure":{"t":9,"job":1,"machine":0}}
        {"CostAccrual":{"t":9,"machine":0,"machine_type":0,"busy":9,"rate":2}}
        {"MachineClose":{"t":9,"machine":0,"machine_type":0,"opened_at":0}}
    "#;

    /// Records every event of `jsonl`, one per line, into `probe`.
    fn feed(probe: &mut impl Probe, jsonl: &str) {
        for e in &parse_jsonl(jsonl).unwrap() {
            probe.record(e);
        }
    }

    #[test]
    fn metrics_aggregate() {
        let mut rec = Recorder::new("test", 1);
        feed(&mut rec, TWO_JOBS);
        let m = rec.into_metrics().unwrap();
        assert_eq!(m.arrivals, 2);
        assert_eq!(m.departures, 2);
        assert_eq!(m.placements, 2);
        assert_eq!(m.opened_placements, 1);
        assert_eq!(m.reused_placements, 1);
        assert_eq!(m.opens, 1);
        assert_eq!(m.closes, 1);
        assert_eq!(m.traced_cost, 18);
        assert_eq!(m.cost_by_type, vec![18]);
        assert_eq!(m.open_peak_by_type, vec![1]);
        // Gauge: up to 1 at t=0, back to 0 at t=9.
        assert_eq!(m.gauge_timeline.len(), 2);
        assert_eq!(
            m.gauge_timeline[0],
            GaugePoint {
                t: 0,
                busy: vec![1]
            }
        );
        assert_eq!(
            m.gauge_timeline[1],
            GaugePoint {
                t: 9,
                busy: vec![0]
            }
        );
        // Fill 2/4 → bucket 5; fill 4/4 → clamped to bucket 9.
        assert_eq!(m.utilization_hist[5], 1);
        assert_eq!(m.utilization_hist[9], 1);
        assert_eq!(m.utilization_hist.iter().sum::<u64>(), 2);
        // 100 ns → bucket 6 (2^6=64 ≤ 100 < 128); 7 ns → bucket 2.
        assert_eq!(m.decision_ns_hist[6], 1);
        assert_eq!(m.decision_ns_hist[2], 1);
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("bshm-recorder-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(crate::sink::partial_path(&path));
        path
    }

    /// `n` events, each encoding to a line of about 40 bytes.
    fn arrivals(n: u32) -> Vec<TraceEvent> {
        (0..n)
            .map(|i| TraceEvent::Arrival {
                t: u64::from(i),
                job: JobId(i),
                size: u64::from(1 + i % 7),
            })
            .collect()
    }

    #[test]
    fn writer_gets_jsonl() {
        let path = tmp("jsonl.jsonl");
        let mut rec = Recorder::new("test", 1)
            .with_file(path.to_str().unwrap())
            .unwrap();
        let mut collected = crate::probe::Collector::default();
        feed(&mut rec, TWO_JOBS);
        feed(&mut collected, TWO_JOBS);
        assert_eq!(rec.events_written(), 9);
        assert!(rec.into_metrics().is_ok());
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            crate::event::jsonl_string(&collected.events).unwrap()
        );
    }

    #[test]
    fn fault_events_aggregate() {
        let mut rec = Recorder::new("faulted", 1);
        feed(
            &mut rec,
            r#"
            {"MachineCrash":{"t":4,"machine":0,"machine_type":0,"displaced":2}}
            {"JobRecovery":{"t":4,"job":0,"from":0,"to":1,"machine_type":0,"recovery_ns":50}}
            {"JobDropped":{"t":4,"job":1,"reason":"no capacity"}}
            "#,
        );
        let s = rec.metrics().summary();
        assert!(s.contains("1 crashes, 2 displaced, 1 recovered, 1 dropped"));
        let mut m = rec.into_metrics().unwrap();
        assert_eq!(m.crashes, 1);
        assert_eq!(m.displaced_jobs, 2);
        assert_eq!(m.recovered_jobs, 1);
        assert_eq!(m.dropped_jobs, 1);
        assert_eq!(m.recovery_ns_sum, 50);
        let other = m.clone();
        m.merge(&other);
        assert_eq!(m.crashes, 2);
        assert_eq!(m.displaced_jobs, 4);
        assert_eq!(m.recovery_ns_sum, 100);
    }

    #[test]
    fn file_sink_is_crash_safe() {
        let path = tmp("trace.jsonl");
        let mut rec = Recorder::new("test", 1)
            .with_file(path.to_str().unwrap())
            .unwrap();
        feed(&mut rec, TWO_JOBS);
        // Mid-run, only the .partial file exists; the final path appears
        // atomically at finish.
        assert!(!path.exists());
        assert!(crate::sink::partial_path(&path).exists());
        assert!(rec.into_metrics().is_ok());
        assert!(path.exists());
        assert!(!crate::sink::partial_path(&path).exists());
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(crate::replay::parse_jsonl(&text).unwrap().len(), 9);
    }

    #[test]
    fn batches_end_on_line_boundaries_and_match_jsonl_string() {
        let path = tmp("batches.jsonl");
        let partial = crate::sink::partial_path(&path);
        let mut rec = Recorder::new("test", 1)
            .with_file(path.to_str().unwrap())
            .unwrap();
        let mut collected = crate::probe::Collector::default();
        let mut batches = 0;
        let mut on_disk = 0;
        for e in arrivals(4 * TRACE_BATCH as u32 / 40) {
            rec.record(&e);
            collected.record(&e);
            let len = std::fs::metadata(&partial).unwrap().len();
            if len != on_disk {
                // Each write is one whole batch of whole lines.
                assert!(len - on_disk >= TRACE_BATCH as u64);
                let text = std::fs::read(&partial).unwrap();
                assert_eq!(text.last(), Some(&b'\n'));
                batches += 1;
                on_disk = len;
            }
        }
        assert!(batches >= 3, "only {batches} batches written");
        let written = rec.events_written();
        rec.into_metrics().unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text, crate::event::jsonl_string(&collected.events).unwrap());
        assert_eq!(written, text.lines().count() as u64);
    }

    #[test]
    fn dropped_recorder_keeps_its_pending_lines() {
        let path = tmp("dropped.jsonl");
        let events = arrivals(3 * TRACE_BATCH as u32 / 40);
        let mut rec = Recorder::new("test", 1)
            .with_file(path.to_str().unwrap())
            .unwrap();
        for e in &events {
            rec.record(e);
        }
        drop(rec);
        // Not published: only the `.partial` holds the run.
        assert!(!path.exists());
        let s = crate::replay::EventStream::open(&path)
            .unwrap()
            .salvage()
            .unwrap();
        assert_eq!(s.events, events);
        assert_eq!(s.dropped_lines, 0);
        assert_eq!(s.dropped_bytes, 0);
        let _ = std::fs::remove_file(crate::sink::partial_path(&path));
    }

    #[test]
    fn quantile_empty_is_none() {
        let m = Metrics::new("t", 1);
        assert_eq!(m.decision_ns_quantile(0.5), None);
        assert_eq!(m.utilization_quantile(0.99), None);
        assert_eq!(bucket_quantile(&[], decision_ns_bucket_bounds, 0.5), None);
    }

    #[test]
    fn quantile_single_sample() {
        // One observation of 100 ns lands in bucket 6 ([64, 128)); with a
        // single sample every quantile sits at the bucket's lower bound.
        let mut hist = vec![0u64; DECISION_NS_BUCKETS];
        hist[6] = 1;
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(
                bucket_quantile(&hist, decision_ns_bucket_bounds, q),
                Some(64.0),
                "q={q}"
            );
        }
    }

    #[test]
    fn quantile_cross_bucket_interpolation() {
        // One sample in [4, 8), one in [8, 16): the median rank 0.5 sits
        // halfway through the first bucket, p100 at the second's floor.
        let mut hist = vec![0u64; DECISION_NS_BUCKETS];
        hist[2] = 1;
        hist[3] = 1;
        assert_eq!(
            bucket_quantile(&hist, decision_ns_bucket_bounds, 0.0),
            Some(4.0)
        );
        assert_eq!(
            bucket_quantile(&hist, decision_ns_bucket_bounds, 0.5),
            Some(6.0)
        );
        assert_eq!(
            bucket_quantile(&hist, decision_ns_bucket_bounds, 1.0),
            Some(8.0)
        );
        // Uniform mass in one utilization decile interpolates inside it.
        let mut util = vec![0u64; UTILIZATION_BUCKETS];
        util[5] = 4;
        // rank 0.5·(4−1)=1.5 of 4 uniform samples → 0.5 + (1.5/4)·0.1.
        let q = bucket_quantile(&util, utilization_bucket_bounds, 0.5).unwrap();
        assert!((q - 0.5375).abs() < 1e-9, "{q}");
    }

    #[test]
    fn update_tracks_sums() {
        let mut rec = Recorder::new("test", 1);
        feed(&mut rec, TWO_JOBS);
        let m = rec.into_metrics().unwrap();
        assert_eq!(m.decision_ns_sum, 107); // 100 + 7
        assert!((m.utilization_sum - 1.5).abs() < 1e-9); // 2/4 + 4/4
    }

    #[test]
    fn merge_adds_counts_and_maxes_peaks() {
        // Cut one run after its placement at t=0: the first stretch opens
        // the machine, the second fills and closes it.
        let mut c = crate::probe::Collector::default();
        feed(&mut c, TWO_JOBS);
        let whole = crate::replay::metrics_from_events("test", &c.events, 1);
        let mut busy_now = vec![0];
        let mut first = Metrics::new("test", 1);
        for e in &c.events[..3] {
            first.update(e, &mut busy_now);
        }
        let mut second = first.next_segment();
        for e in &c.events[3..] {
            second.update(e, &mut busy_now);
        }
        assert_eq!((first.arrivals, second.arrivals), (1, 1));
        assert_eq!(second.open_peak_by_type, vec![0]);
        first.merge(&second);
        assert_eq!(first.arrivals, 2);
        assert_eq!(first.traced_cost, 18);
        // The peak is the larger stretch's; the gauge timelines append.
        assert_eq!(first.open_peak_by_type, vec![1]);
        assert_eq!(
            first.gauge_timeline,
            vec![
                GaugePoint {
                    t: 0,
                    busy: vec![1]
                },
                GaugePoint {
                    t: 9,
                    busy: vec![0]
                },
            ]
        );
        assert_eq!(first, whole);
    }

    #[test]
    fn alert_events_aggregate() {
        let mut rec = Recorder::new("health", 1);
        feed(
            &mut rec,
            r#"
            {"Alert":{"t":10,"reason":"GapBreach","window":0,"value_milli":1250,"threshold_milli":1100}}
            {"Alert":{"t":20,"reason":"GapBreach","window":1,"value_milli":1300,"threshold_milli":1100}}
            {"Alert":{"t":20,"reason":"DisplacementStorm","window":1,"value_milli":5000,"threshold_milli":3000}}
            "#,
        );
        let s = rec.metrics().summary();
        assert!(s.contains("3 SLO breaches"));
        assert!(s.contains("2 gap-breach"));
        let mut m = rec.into_metrics().unwrap();
        assert_eq!(m.alerts, 3);
        assert_eq!(m.alerts_by_reason[AlertReason::GapBreach.index()], 2);
        assert_eq!(
            m.alerts_by_reason[AlertReason::DisplacementStorm.index()],
            1
        );
        assert_eq!(m.alerts_by_reason[AlertReason::DropSurge.index()], 0);
        let other = m.clone();
        m.merge(&other);
        assert_eq!(m.alerts, 6);
        assert_eq!(m.alerts_by_reason[AlertReason::GapBreach.index()], 4);
    }

    #[test]
    fn summary_mentions_counts() {
        let mut rec = Recorder::new("dec-online", 1);
        feed(&mut rec, TWO_JOBS);
        let s = rec.metrics().summary();
        assert!(s.contains("dec-online"));
        assert!(s.contains("2 arrivals"));
    }
}
