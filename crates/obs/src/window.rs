//! Rolling-window telemetry: the whole-run [`Metrics`] fold, cut into
//! event-clock windows.
//!
//! The whole-run recorder answers "what happened over the run"; a live
//! health plane needs "what is happening *now*". [`RollingWindows`] cuts
//! the event stream into fixed-width windows of the **event clock**
//! (via [`bshm_core::WindowClock`], so window boundaries are a pure
//! function of simulation time and two same-seed runs close the same
//! windows at the same instants), folds each window's events into its own
//! [`Metrics`] through [`Metrics::update`], and keeps a bounded history
//! ring of closed windows.
//!
//! A window's counters and histograms cover that window alone. Its gauges
//! carry over from the window before: the gap gauge (the last
//! `GapSample`, so a window without samples still has a gap ratio) and
//! the per-type open-machine gauge (so a window with no transitions still
//! knows how many machines are busy). Merging the closed windows in order
//! with [`Metrics::merge`] gives the metrics of the whole run.

use crate::event::TraceEvent;
use crate::recorder::Metrics;
use bshm_core::time::TimePoint;
use bshm_core::WindowClock;
use std::collections::VecDeque;

/// One event-clock window `[start, end)` and the metrics of its events.
#[derive(Clone, Debug, PartialEq)]
pub struct WindowStats {
    /// Window index (`start / width`).
    pub window: u64,
    /// Inclusive window start on the event clock.
    pub start: TimePoint,
    /// Exclusive window end on the event clock.
    pub end: TimePoint,
    /// The window's events folded by [`Metrics::update`], including the
    /// `Alert`s charged to it (fired while it was current). The gap gauge
    /// carries over from earlier windows.
    pub metrics: Metrics,
    /// Per-type busy-machine gauge, carried over from earlier windows (at
    /// the end of the window once it is closed).
    pub open_now: Vec<u32>,
}

impl WindowStats {
    /// Estimated `q`-quantile of decision latency within the window.
    #[must_use]
    pub fn decision_ns_quantile(&self, q: f64) -> Option<f64> {
        self.metrics.decision_ns_quantile(q)
    }

    /// The windowed gap ratio in fixed-point milli-units:
    /// `1000 × cost / lower_bound` at the last gap sample, computed in
    /// integer arithmetic so it is byte-stable across runs. `None` before
    /// the first sample with a positive lower bound.
    #[must_use]
    pub fn gap_ratio_milli(&self) -> Option<u64> {
        let m = &self.metrics;
        (m.last_lower_bound > 0)
            .then(|| m.last_attributed_cost.saturating_mul(1000) / m.last_lower_bound)
    }

    /// Total busy machines across all types at the end of the window.
    #[must_use]
    pub fn open_machines(&self) -> u64 {
        self.open_now.iter().map(|&b| u64::from(b)).sum()
    }
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
    n_types: usize,
}

impl RollingWindows {
    /// A fold over windows of `width` event-clock units, retaining at most
    /// `capacity` closed windows. `n_types` is the starting width of the
    /// per-type gauges; [`Metrics::update`] widens them as events name
    /// further types, so 0 is a valid start.
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
            n_types,
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

    /// Folds one event. Each window the event closes — one or more, older
    /// first and including empty gap windows, when the event's timestamp
    /// crosses window boundaries — is passed to `on_close` and then
    /// pushed onto the bounded history ring.
    pub fn observe(&mut self, event: &TraceEvent, mut on_close: impl FnMut(&WindowStats)) {
        let w = self.clock.index_of(event.time());
        if self.current.is_none() {
            self.current = Some(self.open_window(self.history.back(), w));
        }
        while let Some(cur) = self.current.as_ref().filter(|c| c.window < w) {
            let next = self.open_window(Some(cur), cur.window + 1);
            if let Some(done) = self.current.replace(next) {
                on_close(&done);
                self.remember(done);
            }
        }
        if let Some(cur) = self.current.as_mut() {
            cur.metrics.update(event, &mut cur.open_now);
        }
    }

    /// Charges `alert` to the current window (alerts are emitted *about*
    /// a just-closed window but fire while its successor is current).
    pub fn note_alert(&mut self, alert: &TraceEvent) {
        if let Some(cur) = self.current.as_mut() {
            cur.metrics.update(alert, &mut cur.open_now);
        }
    }

    /// Closes the in-progress window (end of stream) and returns it, now
    /// the newest in the history ring. Further events start a fresh
    /// window.
    pub fn flush(&mut self) -> Option<&WindowStats> {
        let done = self.current.take()?;
        self.remember(done);
        self.history.back()
    }

    /// Window `idx`, starting from the gauges of `prev` (the last closed
    /// window), or from zero before the first window.
    fn open_window(&self, prev: Option<&WindowStats>, idx: u64) -> WindowStats {
        let (metrics, open_now) = match prev {
            Some(p) => (p.metrics.next_segment(), p.open_now.clone()),
            None => (Metrics::new("window", self.n_types), vec![0; self.n_types]),
        };
        WindowStats {
            window: idx,
            start: self.clock.start_of(idx),
            end: self.clock.end_of(idx),
            metrics,
            open_now,
        }
    }

    fn remember(&mut self, w: WindowStats) {
        if self.history.len() == self.capacity {
            self.history.pop_front();
            self.evicted += 1;
        }
        self.history.push_back(w);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bshm_core::job::JobId;
    use bshm_core::machine::TypeIndex;
    use bshm_core::schedule::MachineId;

    /// The windows `e` closes, cloned out of the callback.
    fn closes(rw: &mut RollingWindows, e: &TraceEvent) -> Vec<WindowStats> {
        let mut closed = Vec::new();
        rw.observe(e, |w| closed.push(w.clone()));
        closed
    }

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
        assert!(closes(&mut rw, &arrival(3)).is_empty());
        assert!(closes(&mut rw, &arrival(9)).is_empty());
        let closed = closes(&mut rw, &arrival(10));
        assert_eq!(closed.len(), 1);
        assert_eq!(closed[0].window, 0);
        assert_eq!((closed[0].start, closed[0].end), (0, 10));
        assert_eq!(closed[0].metrics.arrivals, 2);
        // A jump across several widths closes the intervening empty windows.
        let closed = closes(&mut rw, &arrival(45));
        let idx: Vec<u64> = closed.iter().map(|w| w.window).collect();
        assert_eq!(idx, [1, 2, 3]);
        assert_eq!(closed[0].metrics.arrivals, 1);
        assert_eq!(closed[1].metrics.arrivals, 0);
        assert_eq!(rw.current().unwrap().window, 4);
        let last = rw.flush().unwrap();
        assert_eq!(last.window, 4);
        assert_eq!(last.metrics.arrivals, 1);
        assert!(rw.flush().is_none());
    }

    #[test]
    fn gauges_carry_across_windows() {
        let mut rw = RollingWindows::new(10, 8, 2);
        rw.observe(
            &TraceEvent::MachineOpen {
                t: 1,
                machine: MachineId(0),
                machine_type: TypeIndex(1),
            },
            |_| {},
        );
        rw.observe(
            &TraceEvent::GapSample {
                t: 2,
                lower_bound: 4,
                cost: 6,
            },
            |_| {},
        );
        // Next window has no transitions and no samples…
        let closed = closes(&mut rw, &arrival(25));
        assert_eq!(closed.len(), 2);
        // …but the gauge and the gap sample carry.
        let w2 = rw.flush().unwrap();
        assert_eq!(w2.open_now, vec![0, 1]);
        assert_eq!(w2.metrics.gap_samples, 0);
        assert_eq!(w2.gap_ratio_milli(), Some(1500));
        assert_eq!(w2.open_machines(), 1);
    }

    #[test]
    fn history_ring_is_bounded() {
        let mut rw = RollingWindows::new(1, 3, 1);
        for t in 0..10 {
            rw.observe(&arrival(t), |_| {});
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
            rw.observe(
                &TraceEvent::Placement {
                    t: i as u64,
                    job: JobId(i as u32),
                    machine: MachineId(0),
                    machine_type: TypeIndex(0),
                    opened: false,
                    decision_ns: *ns,
                    load: 1,
                    capacity: 4,
                },
                |_| {},
            );
        }
        let w = rw.flush().unwrap();
        assert_eq!(w.metrics.placements, 5);
        let p50 = w.decision_ns_quantile(0.5).unwrap();
        assert!((64.0..256.0).contains(&p50), "p50 = {p50}");
        assert!(w.decision_ns_quantile(1.0).unwrap() >= 8192.0);
    }

    #[test]
    fn sum_of_windows_matches_totals() {
        let mut rw = RollingWindows::new(7, 4, 1);
        let mut events = Vec::new();
        for t in 0..40u64 {
            events.push(arrival(t));
            if t % 5 == 0 {
                events.push(TraceEvent::MachineOpen {
                    t,
                    machine: MachineId(0),
                    machine_type: TypeIndex(0),
                });
                events.push(TraceEvent::GapSample {
                    t,
                    lower_bound: t + 1,
                    cost: 2 * t + 1,
                });
            }
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
            closed.extend(closes(&mut rw, e));
        }
        closed.extend(rw.flush().cloned());
        // The ring evicted most windows; the callback saw all of them.
        assert_eq!(rw.history().len(), 4);
        let mut sum = Metrics::new("window", 1);
        for w in &closed {
            sum.merge(&w.metrics);
        }
        let whole = crate::replay::metrics_from_events("window", &events, 1);
        assert_eq!(sum, whole);
        assert_eq!(sum.arrivals, 40);
        assert_eq!(closed.last().unwrap().open_now, vec![8]);
    }
}
