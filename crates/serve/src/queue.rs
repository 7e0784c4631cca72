//! Bounded admission queues with typed backpressure.
//!
//! Every queue in the service states its capacity up front (this crate's
//! clippy.toml bans `VecDeque::new` and `mpsc::channel`) and
//! rejects overflow with a typed [`Overload`] instead of growing. The
//! retry-after carried by each rejection comes from the fault layer's
//! seeded [`BackoffSchedule`], so a client hammering a full queue sees a
//! deterministic, monotonically growing sequence of delays — replayable
//! in tests byte for byte.

use bshm_faults::BackoffSchedule;
use serde::Serialize;
use std::collections::VecDeque;

/// A typed backpressure rejection: the tenant's admission queue is full.
///
/// `retry_after` is measured in service steps (event-clock units, not
/// wall time): the client should drive — or wait out — that many `STEP`s
/// before retrying. It is computed as `backoff.delay(attempt)`, so
/// consecutive rejections back off exponentially with bounded jitter.
#[derive(Clone, Debug, PartialEq, Eq, Serialize)]
pub struct Overload {
    /// The tenant whose queue rejected the submission.
    pub tenant: String,
    /// Work units queued at rejection time (== `capacity`).
    pub queued: usize,
    /// The queue's fixed capacity.
    pub capacity: usize,
    /// Consecutive-rejection counter (0-based) the delay was derived from.
    pub attempt: u32,
    /// Deterministic retry-after in service steps.
    pub retry_after: u64,
}

impl Overload {
    /// The protocol wire form: `OVERLOAD tenant=<t> retry-after <d>
    /// attempt <n> queued <q>/<cap>`.
    #[must_use]
    pub fn wire(&self) -> String {
        format!(
            "OVERLOAD tenant={} retry-after {} attempt {} queued {}/{}",
            self.tenant, self.retry_after, self.attempt, self.queued, self.capacity
        )
    }
}

/// A bounded FIFO of admitted batch-work units for one tenant.
#[derive(Debug)]
pub struct BoundedQueue {
    items: VecDeque<u64>,
    capacity: usize,
    backoff: BackoffSchedule,
    overload_streak: u32,
    submitted: u64,
    rejections: u64,
    peak: usize,
}

impl BoundedQueue {
    /// A queue holding at most `capacity` work units (clamped to ≥ 1),
    /// answering overflow with delays from `backoff`.
    #[must_use]
    pub fn new(capacity: usize, backoff: BackoffSchedule) -> Self {
        let capacity = capacity.max(1);
        BoundedQueue {
            items: VecDeque::with_capacity(capacity),
            capacity,
            backoff,
            overload_streak: 0,
            submitted: 0,
            rejections: 0,
            peak: 0,
        }
    }

    /// Admits one work unit, or rejects with a typed [`Overload`].
    ///
    /// The queue NEVER grows past its capacity; each rejection advances
    /// the consecutive-rejection counter (reset by the next successful
    /// admit), so retry-afters climb the backoff schedule.
    pub fn push(&mut self, tenant: &str) -> Result<usize, Overload> {
        if self.items.len() >= self.capacity {
            let attempt = self.overload_streak;
            self.overload_streak = self.overload_streak.saturating_add(1);
            self.rejections += 1;
            return Err(Overload {
                tenant: tenant.to_string(),
                queued: self.items.len(),
                capacity: self.capacity,
                attempt,
                retry_after: self.backoff.delay(attempt),
            });
        }
        self.overload_streak = 0;
        self.items.push_back(self.submitted);
        self.submitted += 1;
        self.peak = self.peak.max(self.items.len());
        Ok(self.items.len())
    }

    /// Takes the oldest admitted unit, if any.
    pub fn pop(&mut self) -> Option<u64> {
        self.items.pop_front()
    }

    /// Units currently queued.
    #[must_use]
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the queue is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The fixed capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The largest length the queue ever reached (≤ capacity, provably).
    #[must_use]
    pub fn peak(&self) -> usize {
        self.peak
    }

    /// Total typed rejections issued.
    #[must_use]
    pub fn rejections(&self) -> u64 {
        self.rejections
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn queue(cap: usize) -> BoundedQueue {
        BoundedQueue::new(cap, BackoffSchedule::new(1, 16, 7))
    }

    #[test]
    fn never_grows_past_capacity() {
        let mut q = queue(3);
        for _ in 0..3 {
            q.push("t").unwrap();
        }
        for _ in 0..10 {
            assert!(q.push("t").is_err());
            assert_eq!(q.len(), 3);
        }
        assert_eq!(q.peak(), 3);
        assert_eq!(q.rejections(), 10);
    }

    #[test]
    fn rejections_climb_the_backoff_schedule_and_reset() {
        let mut q = queue(1);
        q.push("t").unwrap();
        let o0 = q.push("t").unwrap_err();
        let o1 = q.push("t").unwrap_err();
        assert_eq!((o0.attempt, o1.attempt), (0, 1));
        assert!(o1.retry_after >= o0.retry_after, "monotone backoff");
        // The exact delays are reproducible from the schedule.
        let s = BackoffSchedule::new(1, 16, 7);
        assert_eq!(o0.retry_after, s.delay(0));
        assert_eq!(o1.retry_after, s.delay(1));
        // Draining and re-admitting resets the streak.
        assert_eq!(q.pop(), Some(0));
        q.push("t").unwrap();
        let o2 = q.push("t").unwrap_err();
        assert_eq!(o2.attempt, 0);
    }

    #[test]
    fn fifo_order_and_wire_format() {
        let mut q = queue(2);
        q.push("a").unwrap();
        q.push("a").unwrap();
        let o = q.push("a").unwrap_err();
        assert!(o.wire().starts_with("OVERLOAD tenant=a retry-after "));
        assert_eq!(q.pop(), Some(0));
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), None);
    }
}
