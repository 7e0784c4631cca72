//! Rolling-window telemetry: sliding-window counterparts of the whole-run
//! [`Metrics`](crate::Metrics) fold.
//!
//! The whole-run recorder answers "what happened over the run"; a live
//! health plane needs "what is happening *now*". [`RollingWindows`] cuts
//! the event stream into fixed-width windows of the **event clock**
//! (via [`bshm_core::WindowClock`], so window boundaries are a pure
//! function of simulation time and two same-seed runs close the same
//! windows at the same instants), folds each window into a
//! [`WindowStats`], and keeps a bounded history ring of closed windows.
//!
//! Per-window quantities mirror their whole-run cousins: windowed
//! decision-latency percentiles reuse the log₂ histogram buckets and
//! [`bucket_quantile`] estimator, the windowed gap ratio reads the last
//! `GapSample` (carried across empty windows, like a gauge), and the
//! open-machine gauge is threaded through windows so a window with no
//! transitions still knows how many machines are busy.
//!
//! [`RollingWindows::totals`] folds every event into a whole-run
//! [`Metrics`] in parallel, which is what the convergence property test
//! checks: the sum of the windows *is* the run.

use crate::event::TraceEvent;
use crate::recorder::{
    bucket_quantile, decision_ns_bucket_bounds, merge_counts, Metrics, DECISION_NS_BUCKETS,
};
use bshm_core::time::TimePoint;
use bshm_core::WindowClock;
use std::collections::VecDeque;

/// Aggregates folded from the events of one event-clock window
/// `[start, end)`.
#[derive(Clone, Debug, PartialEq)]
pub struct WindowStats {
    /// Window index (`start / width`).
    pub window: u64,
    /// Inclusive window start on the event clock.
    pub start: TimePoint,
    /// Exclusive window end on the event clock.
    pub end: TimePoint,
    /// `Arrival` events in the window.
    pub arrivals: u64,
    /// `Departure` events in the window.
    pub departures: u64,
    /// `Placement` events in the window.
    pub placements: u64,
    /// Placements that opened a new machine.
    pub opened_placements: u64,
    /// `MachineOpen` events in the window.
    pub opens: u64,
    /// `MachineClose` events in the window.
    pub closes: u64,
    /// `MachineCrash` events in the window.
    pub crashes: u64,
    /// Jobs displaced by crashes in the window.
    pub displaced_jobs: u64,
    /// `JobRecovery` events in the window.
    pub recovered_jobs: u64,
    /// `JobDropped` events in the window.
    pub dropped_jobs: u64,
    /// `Alert` events charged to the window (fired while it was current).
    pub alerts: u64,
    /// Log₂-bucketed decision-latency histogram for the window.
    pub decision_ns_hist: Vec<u64>,
    /// Sum of decision latencies in the window (exact `_sum`).
    pub decision_ns_sum: u64,
    /// Cost accrued by busy spans closing in the window.
    pub traced_cost: u64,
    /// `GapSample` events in the window.
    pub gap_samples: u64,
    /// Lower bound at the last `GapSample` seen so far (carried across
    /// windows like a gauge; 0 before the first sample).
    pub last_lower_bound: u64,
    /// Accrued cost at the last `GapSample` seen so far (carried).
    pub last_attributed_cost: u64,
    /// Per-type busy-machine gauge at the end of the window (carried).
    pub open_now: Vec<u32>,
}

impl WindowStats {
    fn new(window: u64, start: TimePoint, end: TimePoint, carry: &Carry) -> Self {
        WindowStats {
            window,
            start,
            end,
            arrivals: 0,
            departures: 0,
            placements: 0,
            opened_placements: 0,
            opens: 0,
            closes: 0,
            crashes: 0,
            displaced_jobs: 0,
            recovered_jobs: 0,
            dropped_jobs: 0,
            alerts: 0,
            decision_ns_hist: vec![0; DECISION_NS_BUCKETS],
            decision_ns_sum: 0,
            traced_cost: 0,
            gap_samples: 0,
            last_lower_bound: carry.lower_bound,
            last_attributed_cost: carry.attributed_cost,
            open_now: carry.busy.clone(),
        }
    }

    /// Estimated `q`-quantile of decision latency within the window.
    #[must_use]
    pub fn decision_ns_quantile(&self, q: f64) -> Option<f64> {
        bucket_quantile(&self.decision_ns_hist, decision_ns_bucket_bounds, q)
    }

    /// The windowed gap ratio in fixed-point milli-units:
    /// `1000 × cost / lower_bound` at the last gap sample, computed in
    /// integer arithmetic so it is byte-stable across runs. `None` before
    /// the first sample with a positive lower bound.
    #[must_use]
    pub fn gap_ratio_milli(&self) -> Option<u64> {
        (self.last_lower_bound > 0)
            .then(|| self.last_attributed_cost.saturating_mul(1000) / self.last_lower_bound)
    }

    /// Total busy machines across all types at the end of the window.
    #[must_use]
    pub fn open_machines(&self) -> u64 {
        self.open_now.iter().map(|&b| u64::from(b)).sum()
    }
}

/// State carried from one window into the next (gauges survive window
/// boundaries; counters reset).
#[derive(Clone, Debug, Default)]
struct Carry {
    busy: Vec<u32>,
    lower_bound: u64,
    attributed_cost: u64,
}

/// The rolling-window fold: cuts an event stream into event-clock windows
/// and keeps a bounded ring of the most recent closed [`WindowStats`].
#[derive(Clone, Debug)]
pub struct RollingWindows {
    clock: WindowClock,
    /// Maximum closed windows retained — the history is a bounded ring
    /// (the `no-unbounded-buffer` lint requires the capacity to be
    /// declared, and the health plane must run for unbounded time).
    capacity: usize,
    history: VecDeque<WindowStats>,
    evicted: u64,
    current: Option<WindowStats>,
    carry: Carry,
    totals: Metrics,
    busy_now: Vec<u32>,
}

impl RollingWindows {
    /// A fold over windows of `width` event-clock units, retaining at most
    /// `capacity` closed windows, over `n_types` catalog types.
    ///
    /// # Panics
    /// If `width` is zero (via [`WindowClock::new`]) or `capacity` is zero.
    #[must_use]
    pub fn new(width: u64, capacity: usize, n_types: usize) -> Self {
        assert!(capacity > 0, "RollingWindows requires capacity > 0");
        RollingWindows {
            clock: WindowClock::new(width),
            capacity,
            history: VecDeque::with_capacity(capacity),
            evicted: 0,
            current: None,
            carry: Carry {
                busy: vec![0; n_types],
                lower_bound: 0,
                attributed_cost: 0,
            },
            totals: Metrics::new("windowed", n_types),
            busy_now: vec![0; n_types],
        }
    }

    /// The event-clock window grid.
    #[must_use]
    pub fn clock(&self) -> &WindowClock {
        &self.clock
    }

    /// The declared history capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Closed windows evicted from the history ring so far.
    #[must_use]
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// The retained closed windows, oldest first.
    #[must_use]
    pub fn history(&self) -> &VecDeque<WindowStats> {
        &self.history
    }

    /// The in-progress window, if any event has been observed.
    #[must_use]
    pub fn current(&self) -> Option<&WindowStats> {
        self.current.as_ref()
    }

    /// The whole-run [`Metrics`] folded from every observed event — the
    /// quantity the windows must sum to (convergence property).
    #[must_use]
    pub fn totals(&self) -> &Metrics {
        &self.totals
    }

    /// Folds one event. Returns the windows this event *closed*: empty for
    /// an event inside the current window, one or more (older first,
    /// including empty gap windows) when the event's timestamp crosses one
    /// or more window boundaries. Closed windows are also pushed onto the
    /// bounded history ring.
    pub fn observe(&mut self, event: &TraceEvent) -> Vec<WindowStats> {
        let w = self.clock.index_of(event.time());
        let mut closed = Vec::new();
        match &self.current {
            None => {
                self.current = Some(self.open_window(w));
            }
            Some(cur) if w > cur.window => {
                let from = cur.window;
                for idx in from..w {
                    let mut done = self.current.take().unwrap_or_else(|| self.open_window(idx));
                    done.open_now = self.busy_now.clone();
                    self.remember(done.clone());
                    closed.push(done);
                    self.current = Some(self.open_window(idx + 1));
                }
            }
            Some(_) => {}
        }
        self.fold(event);
        closed
    }

    /// Charges an alert to the current window (alerts are emitted *about*
    /// a just-closed window but fire while its successor is current).
    pub fn note_alert(&mut self) {
        if let Some(cur) = self.current.as_mut() {
            cur.alerts += 1;
        }
        self.totals.alerts += 1;
    }

    /// Closes and returns the in-progress window (end of stream). Further
    /// events start a fresh window.
    pub fn flush(&mut self) -> Option<WindowStats> {
        let done = self.peek_flush()?;
        self.current = None;
        self.remember(done.clone());
        Some(done)
    }

    /// The window [`RollingWindows::flush`] would close now, without
    /// closing it.
    #[must_use]
    pub fn peek_flush(&self) -> Option<WindowStats> {
        let mut done = self.current.clone()?;
        done.open_now = self.busy_now.clone();
        Some(done)
    }

    fn open_window(&self, idx: u64) -> WindowStats {
        let mut w = WindowStats::new(
            idx,
            self.clock.start_of(idx),
            self.clock.end_of(idx),
            &self.carry,
        );
        w.open_now = self.busy_now.clone();
        w
    }

    fn remember(&mut self, w: WindowStats) {
        self.carry.busy = self.busy_now.clone();
        self.carry.lower_bound = w.last_lower_bound;
        self.carry.attributed_cost = w.last_attributed_cost;
        if self.history.len() == self.capacity {
            self.history.pop_front();
            self.evicted += 1;
        }
        self.history.push_back(w);
    }

    fn fold(&mut self, event: &TraceEvent) {
        self.totals.update(event, &mut self.busy_now);
        let Some(cur) = self.current.as_mut() else {
            return;
        };
        match *event {
            TraceEvent::Arrival { .. } => cur.arrivals += 1,
            TraceEvent::Departure { .. } => cur.departures += 1,
            TraceEvent::Placement {
                opened,
                decision_ns,
                ..
            } => {
                cur.placements += 1;
                if opened {
                    cur.opened_placements += 1;
                }
                let b = if decision_ns == 0 {
                    0
                } else {
                    (decision_ns.ilog2() as usize).min(DECISION_NS_BUCKETS - 1) // bshm-allow(lossy-cast): ilog2 of a u64 is at most 63
                };
                cur.decision_ns_hist[b] += 1;
                cur.decision_ns_sum = cur.decision_ns_sum.saturating_add(decision_ns);
            }
            TraceEvent::MachineOpen { .. } => cur.opens += 1,
            TraceEvent::MachineClose { .. } => cur.closes += 1,
            TraceEvent::CostAccrual { busy, rate, .. } => {
                cur.traced_cost = cur.traced_cost.saturating_add(rate.saturating_mul(busy));
            }
            TraceEvent::MachineCrash { displaced, .. } => {
                cur.crashes += 1;
                cur.displaced_jobs += displaced;
            }
            TraceEvent::JobRecovery { .. } => cur.recovered_jobs += 1,
            TraceEvent::JobDropped { .. } => cur.dropped_jobs += 1,
            TraceEvent::GapSample {
                lower_bound, cost, ..
            } => {
                cur.gap_samples += 1;
                cur.last_lower_bound = lower_bound;
                cur.last_attributed_cost = cost;
            }
            TraceEvent::Decision { .. } => {}
            TraceEvent::Alert { .. } => cur.alerts += 1,
            // Service-lifecycle markers are counted in the run totals
            // (`Metrics::update` above) but do not shape window telemetry.
            TraceEvent::TenantLifecycle { .. } | TraceEvent::Degradation { .. } => {}
        }
        cur.open_now = self.busy_now.clone();
    }
}

/// Sums the per-window counters of `windows` — the left side of the
/// convergence check against a whole-run [`Metrics`] fold.
#[must_use]
pub fn sum_windows(windows: &[WindowStats]) -> WindowStats {
    let mut out = WindowStats::new(0, 0, 0, &Carry::default());
    for w in windows {
        out.end = out.end.max(w.end);
        out.arrivals += w.arrivals;
        out.departures += w.departures;
        out.placements += w.placements;
        out.opened_placements += w.opened_placements;
        out.opens += w.opens;
        out.closes += w.closes;
        out.crashes += w.crashes;
        out.displaced_jobs += w.displaced_jobs;
        out.recovered_jobs += w.recovered_jobs;
        out.dropped_jobs += w.dropped_jobs;
        out.alerts += w.alerts;
        merge_counts(&mut out.decision_ns_hist, &w.decision_ns_hist);
        out.decision_ns_sum += w.decision_ns_sum;
        out.traced_cost += w.traced_cost;
        out.gap_samples += w.gap_samples;
        out.last_lower_bound = w.last_lower_bound;
        out.last_attributed_cost = w.last_attributed_cost;
        out.open_now.clone_from(&w.open_now);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use bshm_core::job::JobId;
    use bshm_core::machine::TypeIndex;
    use bshm_core::schedule::MachineId;

    fn arrival(t: u64) -> TraceEvent {
        TraceEvent::Arrival {
            t,
            job: JobId(t as u32),
            size: 1,
        }
    }

    #[test]
    fn windows_close_on_boundary_crossing() {
        let mut rw = RollingWindows::new(10, 8, 1);
        assert!(rw.observe(&arrival(3)).is_empty());
        assert!(rw.observe(&arrival(9)).is_empty());
        let closed = rw.observe(&arrival(10));
        assert_eq!(closed.len(), 1);
        assert_eq!(closed[0].window, 0);
        assert_eq!((closed[0].start, closed[0].end), (0, 10));
        assert_eq!(closed[0].arrivals, 2);
        // A jump across several widths closes the intervening empty windows.
        let closed = rw.observe(&arrival(45));
        let idx: Vec<u64> = closed.iter().map(|w| w.window).collect();
        assert_eq!(idx, [1, 2, 3]);
        assert_eq!(closed[0].arrivals, 1);
        assert_eq!(closed[1].arrivals, 0);
        assert_eq!(rw.current().unwrap().window, 4);
        let last = rw.flush().unwrap();
        assert_eq!(last.window, 4);
        assert_eq!(last.arrivals, 1);
        assert!(rw.flush().is_none());
    }

    #[test]
    fn gauges_carry_across_windows() {
        let mut rw = RollingWindows::new(10, 8, 2);
        rw.observe(&TraceEvent::MachineOpen {
            t: 1,
            machine: MachineId(0),
            machine_type: TypeIndex(1),
        });
        rw.observe(&TraceEvent::GapSample {
            t: 2,
            lower_bound: 4,
            cost: 6,
        });
        // Next window has no transitions and no samples…
        let closed = rw.observe(&arrival(25));
        assert_eq!(closed.len(), 2);
        // …but the gauge and the gap sample carry.
        let w2 = rw.flush().unwrap();
        assert_eq!(w2.open_now, vec![0, 1]);
        assert_eq!(w2.gap_samples, 0);
        assert_eq!(w2.gap_ratio_milli(), Some(1500));
        assert_eq!(w2.open_machines(), 1);
    }

    #[test]
    fn history_ring_is_bounded() {
        let mut rw = RollingWindows::new(1, 3, 1);
        for t in 0..10 {
            rw.observe(&arrival(t));
        }
        assert_eq!(rw.history().len(), 3);
        assert_eq!(rw.capacity(), 3);
        assert_eq!(rw.evicted(), 6);
        let kept: Vec<u64> = rw.history().iter().map(|w| w.window).collect();
        assert_eq!(kept, [6, 7, 8]);
    }

    #[test]
    #[should_panic(expected = "capacity > 0")]
    fn zero_capacity_is_rejected() {
        let _ = RollingWindows::new(10, 0, 1);
    }

    #[test]
    fn windowed_latency_quantiles_use_the_shared_estimator() {
        let mut rw = RollingWindows::new(100, 4, 1);
        for (i, ns) in [0u64, 10, 100, 1000, 10_000].iter().enumerate() {
            rw.observe(&TraceEvent::Placement {
                t: i as u64,
                job: JobId(i as u32),
                machine: MachineId(0),
                machine_type: TypeIndex(0),
                opened: false,
                decision_ns: *ns,
                load: 1,
                capacity: 4,
            });
        }
        let w = rw.flush().unwrap();
        assert_eq!(w.placements, 5);
        let p50 = w.decision_ns_quantile(0.5).unwrap();
        assert!((64.0..256.0).contains(&p50), "p50 = {p50}");
        assert!(w.decision_ns_quantile(1.0).unwrap() >= 8192.0);
    }

    #[test]
    fn sum_of_windows_matches_totals() {
        let mut rw = RollingWindows::new(7, 64, 1);
        let mut events = Vec::new();
        for t in 0..40u64 {
            events.push(arrival(t));
            if t % 3 == 0 {
                events.push(TraceEvent::Departure {
                    t,
                    job: JobId(t as u32),
                    machine: MachineId(0),
                });
            }
        }
        let mut closed = Vec::new();
        for e in &events {
            closed.extend(rw.observe(e));
        }
        closed.extend(rw.flush());
        let sum = sum_windows(&closed);
        let totals = rw.totals();
        assert_eq!(sum.arrivals, totals.arrivals);
        assert_eq!(sum.departures, totals.departures);
        assert_eq!(sum.arrivals, 40);
    }
}
