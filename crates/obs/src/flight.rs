//! The flight recorder: a bounded ring of the most recent trace events.
//!
//! Long runs cannot afford to keep their whole event stream in memory, but
//! when an SLO alert fires the events *leading up to* the breach are
//! exactly what a post-mortem needs. [`FlightRecorder`] keeps the last
//! `capacity` events in a fixed-size ring — old events fall off the front,
//! with a count of how many were discarded — and
//! [`FlightRecorder::dump`] writes the ring as a JSONL snapshot through
//! the crash-safe [`crate::sink::atomic_write`] path, so a snapshot file
//! is never torn even if the process dies mid-dump.
//!
//! The health plane ([`crate::slo::HealthProbe`]) owns one recorder and
//! dumps it whenever an alert fires; the ring itself is probe-agnostic and
//! can wrap any event source.

use crate::event::TraceEvent;
use std::collections::VecDeque;
use std::path::Path;

/// A fixed-capacity ring buffer of recent [`TraceEvent`]s.
///
/// Pushing beyond `capacity` evicts the oldest event and increments the
/// [`FlightRecorder::dropped`] counter, so the memory footprint is bounded
/// by construction (the `no-unbounded-buffer` lint in `bshm-analyze`
/// enforces that every ring in this crate declares its capacity).
#[derive(Clone, Debug)]
pub struct FlightRecorder {
    capacity: usize,
    ring: VecDeque<TraceEvent>,
    dropped: u64,
}

impl FlightRecorder {
    /// A recorder holding at most `capacity` events.
    ///
    /// # Panics
    /// If `capacity` is zero — a zero-size ring records nothing and a
    /// snapshot of it would silently explain nothing.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "FlightRecorder requires capacity > 0");
        FlightRecorder {
            capacity,
            ring: VecDeque::with_capacity(capacity),
            dropped: 0,
        }
    }

    /// The fixed capacity declared at construction.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Events currently held (≤ capacity).
    #[must_use]
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Whether no events have been recorded yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// How many events have fallen off the front of the ring.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Records one event, evicting the oldest if the ring is full.
    pub fn push(&mut self, event: &TraceEvent) {
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
            self.dropped += 1;
        }
        self.ring.push_back(event.clone());
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.ring.iter()
    }

    /// The ring serialized as JSONL (one event per line, oldest first) —
    /// the same shape as a trace file, so every replay tool reads it.
    ///
    /// # Errors
    /// As [`crate::jsonl_string`].
    pub fn snapshot_jsonl(&self) -> Result<String, String> {
        crate::jsonl_string(&self.ring).map_err(|e| format!("encoding flight snapshot: {e}"))
    }

    /// Dumps the ring to `path` as a JSONL snapshot, atomically (temp
    /// file + rename via [`crate::sink::atomic_write`]): readers never
    /// observe a torn snapshot.
    ///
    /// # Errors
    /// Propagates filesystem errors from the atomic write.
    pub fn dump(&self, path: &Path) -> Result<(), String> {
        crate::sink::atomic_write(path, &self.snapshot_jsonl()?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bshm_core::job::JobId;

    fn arrival(t: u64) -> TraceEvent {
        TraceEvent::Arrival {
            t,
            job: JobId(t as u32),
            size: 1,
        }
    }

    #[test]
    fn ring_keeps_only_the_newest_events() {
        let mut fr = FlightRecorder::new(3);
        assert!(fr.is_empty());
        for t in 0..5 {
            fr.push(&arrival(t));
        }
        assert_eq!(fr.len(), 3);
        assert_eq!(fr.capacity(), 3);
        assert_eq!(fr.dropped(), 2);
        let times: Vec<u64> = fr.events().map(TraceEvent::time).collect();
        assert_eq!(times, [2, 3, 4]);
    }

    #[test]
    #[should_panic(expected = "capacity > 0")]
    fn zero_capacity_is_rejected() {
        let _ = FlightRecorder::new(0);
    }

    #[test]
    fn snapshot_round_trips_through_the_replay_parser() {
        let mut fr = FlightRecorder::new(8);
        for t in 0..4 {
            fr.push(&arrival(t));
        }
        let text = fr.snapshot_jsonl().unwrap();
        let back = crate::replay::parse_jsonl(&text).unwrap();
        assert_eq!(back.len(), 4);
        assert_eq!(back[0], arrival(0));
    }

    #[test]
    fn dump_writes_an_atomic_jsonl_file() {
        let dir = std::env::temp_dir().join("bshm-flight-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snapshot.jsonl");
        let mut fr = FlightRecorder::new(2);
        for t in 0..3 {
            fr.push(&arrival(t));
        }
        fr.dump(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let back = crate::replay::parse_jsonl(&text).unwrap();
        let times: Vec<u64> = back.iter().map(TraceEvent::time).collect();
        assert_eq!(times, [1, 2]);
        assert!(!crate::sink::partial_path(&path).exists());
    }
}
