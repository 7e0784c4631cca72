//! Time points, half-open intervals and disjoint interval sets.
//!
//! Following the paper's conventions (§II), every interval is half-open:
//! `I = [I⁻, I⁺)`, and `len(I) = I⁺ − I⁻`. Time is measured in integer
//! ticks (`u64`) so that sweepline computations and cost integrals are
//! exact; the unit is up to the caller (seconds, minutes, …).

use serde::{Deserialize, Serialize};
use std::fmt;

/// A point in time, in ticks.
pub type TimePoint = u64;

/// A half-open time interval `[start, end)`.
///
/// Invariant: `start < end` (empty intervals are not representable; use
/// `Option<Interval>` where emptiness is meaningful).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Interval {
    start: TimePoint,
    end: TimePoint,
}

impl fmt::Debug for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {})", self.start, self.end)
    }
}

impl Interval {
    /// Creates `[start, end)`. Panics if `start >= end`.
    #[must_use]
    pub fn new(start: TimePoint, end: TimePoint) -> Self {
        assert!(
            start < end,
            "Interval requires start < end, got [{start}, {end})"
        );
        Self { start, end }
    }

    /// Creates `[start, end)`, returning `None` when the interval would be
    /// empty or inverted.
    #[must_use]
    pub fn try_new(start: TimePoint, end: TimePoint) -> Option<Self> {
        (start < end).then_some(Self { start, end })
    }

    /// Left endpoint `I⁻` (inclusive).
    #[must_use]
    pub fn start(&self) -> TimePoint {
        self.start
    }

    /// Right endpoint `I⁺` (exclusive).
    #[must_use]
    pub fn end(&self) -> TimePoint {
        self.end
    }

    /// `len(I) = I⁺ − I⁻` (always ≥ 1: empty intervals are unrepresentable,
    /// hence no `is_empty`).
    #[must_use]
    #[expect(
        clippy::len_without_is_empty,
        reason = "empty intervals are unrepresentable, so there is no is_empty"
    )]
    pub fn len(&self) -> u64 {
        self.end - self.start
    }

    /// Whether the time point `t` lies in `[start, end)`.
    #[must_use]
    pub fn contains(&self, t: TimePoint) -> bool {
        self.start <= t && t < self.end
    }

    /// Whether `other` is fully contained in `self`.
    #[must_use]
    pub fn contains_interval(&self, other: &Interval) -> bool {
        self.start <= other.start && other.end <= self.end
    }

    /// Whether the two half-open intervals share at least one point.
    #[must_use]
    pub fn overlaps(&self, other: &Interval) -> bool {
        self.start < other.end && other.start < self.end
    }

    /// Intersection of two intervals, `None` if disjoint.
    #[must_use]
    pub fn intersect(&self, other: &Interval) -> Option<Interval> {
        Interval::try_new(self.start.max(other.start), self.end.min(other.end))
    }

    /// Smallest interval containing both.
    #[must_use]
    pub fn hull(&self, other: &Interval) -> Interval {
        Interval {
            start: self.start.min(other.start),
            end: self.end.max(other.end),
        }
    }

    /// Extends the right endpoint by `extra` ticks (saturating).
    #[must_use]
    pub fn extend_right(&self, extra: u64) -> Interval {
        Interval {
            start: self.start,
            end: self.end.saturating_add(extra),
        }
    }
}

/// A set of pairwise-disjoint, sorted, half-open intervals.
///
/// Adjacent intervals (`a.end == b.start`) are coalesced, so the
/// representation is canonical: two `IntervalSet`s are equal iff they cover
/// the same set of time points.
#[derive(Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct IntervalSet {
    /// Sorted, disjoint, non-adjacent intervals.
    intervals: Vec<Interval>,
}

impl fmt::Debug for IntervalSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.intervals.iter()).finish()
    }
}

impl IntervalSet {
    /// The empty set.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a set from arbitrary (possibly overlapping, unsorted) intervals.
    #[must_use]
    pub fn from_intervals(mut intervals: Vec<Interval>) -> Self {
        intervals.sort_unstable();
        let mut out = Self::new();
        for iv in intervals {
            out.push_coalescing(iv);
        }
        out
    }

    /// Inserts an interval, merging with existing overlapping or adjacent ones.
    pub fn insert(&mut self, iv: Interval) {
        // Find the range of existing intervals that touch `iv`.
        let lo = self.intervals.partition_point(|e| e.end < iv.start);
        let hi = self.intervals.partition_point(|e| e.start <= iv.end);
        if lo == hi {
            self.intervals.insert(lo, iv);
            return;
        }
        let merged = Interval {
            start: iv.start.min(self.intervals[lo].start),
            end: iv.end.max(self.intervals[hi - 1].end),
        };
        self.intervals.splice(lo..hi, std::iter::once(merged));
    }

    /// Appends an interval known to start at or after every existing start.
    /// Used internally by `from_intervals` (input sorted by start).
    fn push_coalescing(&mut self, iv: Interval) {
        match self.intervals.last_mut() {
            Some(last) if iv.start <= last.end => {
                last.end = last.end.max(iv.end);
            }
            _ => self.intervals.push(iv),
        }
    }

    /// Total length `len(𝓘) = Σ len(I)`.
    #[must_use]
    pub fn total_len(&self) -> u64 {
        self.intervals.iter().map(Interval::len).sum()
    }

    /// Number of maximal contiguous intervals.
    #[must_use]
    pub fn span_count(&self) -> usize {
        self.intervals.len()
    }

    /// Whether no time point is covered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.intervals.is_empty()
    }

    /// Whether `t` is covered.
    #[must_use]
    pub fn contains(&self, t: TimePoint) -> bool {
        let idx = self.intervals.partition_point(|e| e.end <= t);
        self.intervals.get(idx).is_some_and(|e| e.contains(t))
    }

    /// Whether the whole interval `iv` is covered by a single contiguous span.
    #[must_use]
    pub fn contains_interval(&self, iv: &Interval) -> bool {
        let idx = self.intervals.partition_point(|e| e.end <= iv.start);
        self.intervals
            .get(idx)
            .is_some_and(|e| e.contains_interval(iv))
    }

    /// The maximal contiguous span containing `t`, if any.
    #[must_use]
    pub fn span_containing(&self, t: TimePoint) -> Option<Interval> {
        let idx = self.intervals.partition_point(|e| e.end <= t);
        self.intervals.get(idx).filter(|e| e.contains(t)).copied()
    }

    /// Iterates the maximal contiguous spans in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = &Interval> {
        self.intervals.iter()
    }

    /// Extends every maximal span `I` to `[I⁻, I⁺ + factor·len(I))`.
    ///
    /// This is the `𝓘′` construction used in the DEC-ONLINE analysis
    /// (§III-B): each contiguous interval is stretched rightwards by `factor`
    /// times its own length. Spans may merge after stretching.
    #[must_use]
    pub fn stretch_right(&self, factor: u64) -> IntervalSet {
        let stretched = self
            .intervals
            .iter()
            .map(|iv| iv.extend_right(iv.len().saturating_mul(factor)))
            .collect();
        IntervalSet::from_intervals(stretched)
    }

    /// Union of two sets.
    #[must_use]
    pub fn union(&self, other: &IntervalSet) -> IntervalSet {
        let mut all: Vec<Interval> = self
            .intervals
            .iter()
            .chain(other.intervals.iter())
            .copied()
            .collect();
        all.sort_unstable();
        let mut out = IntervalSet::new();
        for iv in all {
            out.push_coalescing(iv);
        }
        out
    }
}

impl FromIterator<Interval> for IntervalSet {
    fn from_iter<T: IntoIterator<Item = Interval>>(iter: T) -> Self {
        Self::from_intervals(iter.into_iter().collect())
    }
}

/// A fixed-width partition of the event clock into half-open windows
/// `[w·width, (w+1)·width)`, indexed from 0.
///
/// Rolling telemetry (windowed quantiles, rates, SLO evaluation) is
/// driven by this clock rather than wall time, so the same trace always
/// lands events in the same windows — the determinism the live health
/// plane's byte-identical alert streams rest on.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct WindowClock {
    width: u64,
}

impl WindowClock {
    /// Creates a clock with windows of `width` ticks. Panics if
    /// `width == 0` (a zero-width window never closes).
    #[must_use]
    pub fn new(width: u64) -> Self {
        assert!(width > 0, "WindowClock requires width > 0");
        Self { width }
    }

    /// Window width in ticks.
    #[must_use]
    pub fn width(&self) -> u64 {
        self.width
    }

    /// The index of the window containing `t`.
    #[must_use]
    pub fn index_of(&self, t: TimePoint) -> u64 {
        t / self.width
    }

    /// Inclusive start of window `w` (saturating on overflow).
    #[must_use]
    pub fn start_of(&self, w: u64) -> TimePoint {
        w.saturating_mul(self.width)
    }

    /// Exclusive end of window `w` (saturating on overflow).
    #[must_use]
    pub fn end_of(&self, w: u64) -> TimePoint {
        w.saturating_add(1).saturating_mul(self.width)
    }

    /// The window as a half-open interval, `None` if it would overflow.
    #[must_use]
    pub fn interval_of(&self, w: u64) -> Option<Interval> {
        Interval::try_new(self.start_of(w), self.end_of(w))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(a: u64, b: u64) -> Interval {
        Interval::new(a, b)
    }

    #[test]
    fn interval_basics() {
        let i = iv(3, 7);
        assert_eq!(i.len(), 4);
        assert!(i.contains(3));
        assert!(i.contains(6));
        assert!(!i.contains(7));
        assert!(!i.contains(2));
    }

    #[test]
    #[should_panic(expected = "start < end")]
    fn interval_rejects_empty() {
        let _ = iv(5, 5);
    }

    #[test]
    fn try_new_rejects_inverted() {
        assert!(Interval::try_new(5, 5).is_none());
        assert!(Interval::try_new(6, 5).is_none());
        assert!(Interval::try_new(5, 6).is_some());
    }

    #[test]
    fn overlap_is_half_open() {
        assert!(!iv(0, 5).overlaps(&iv(5, 10)));
        assert!(iv(0, 6).overlaps(&iv(5, 10)));
        assert!(iv(5, 10).overlaps(&iv(0, 6)));
        assert!(iv(2, 3).overlaps(&iv(0, 10)));
    }

    #[test]
    fn intersect_and_hull() {
        assert_eq!(iv(0, 6).intersect(&iv(4, 10)), Some(iv(4, 6)));
        assert_eq!(iv(0, 4).intersect(&iv(4, 10)), None);
        assert_eq!(iv(0, 4).hull(&iv(6, 10)), iv(0, 10));
    }

    #[test]
    fn set_coalesces_adjacent() {
        let s = IntervalSet::from_intervals(vec![iv(0, 2), iv(2, 4), iv(6, 8)]);
        assert_eq!(s.span_count(), 2);
        assert_eq!(s.total_len(), 6);
        assert!(s.contains_interval(&iv(0, 4)));
        assert!(!s.contains_interval(&iv(0, 5)));
    }

    #[test]
    fn set_insert_merges() {
        let mut s = IntervalSet::new();
        s.insert(iv(0, 2));
        s.insert(iv(8, 10));
        s.insert(iv(4, 6));
        assert_eq!(s.span_count(), 3);
        // Bridge everything.
        s.insert(iv(1, 9));
        assert_eq!(s.span_count(), 1);
        assert_eq!(s.total_len(), 10);
    }

    #[test]
    fn set_membership_queries() {
        let s = IntervalSet::from_intervals(vec![iv(2, 4), iv(10, 20)]);
        assert!(!s.contains(1));
        assert!(s.contains(2));
        assert!(!s.contains(4));
        assert!(s.contains(15));
        assert_eq!(s.span_containing(15), Some(iv(10, 20)));
        assert_eq!(s.span_containing(4), None);
    }

    #[test]
    fn stretch_right_matches_paper_construction() {
        // 𝓘 = {[0,2), [10,12)}, μ = 2 → 𝓘′ = {[0,6), [10,16)}.
        let s = IntervalSet::from_intervals(vec![iv(0, 2), iv(10, 12)]);
        let s2 = s.stretch_right(2);
        assert_eq!(s2.span_count(), 2);
        assert!(s2.contains_interval(&iv(0, 6)));
        assert!(s2.contains_interval(&iv(10, 16)));
        assert_eq!(s2.total_len(), 12);
    }

    #[test]
    fn stretch_right_merges_spans() {
        let s = IntervalSet::from_intervals(vec![iv(0, 4), iv(6, 8)]);
        // [0,4) stretched by 1× its length reaches 8 → merges with [6,8).
        let s2 = s.stretch_right(1);
        assert_eq!(s2.span_count(), 1);
        assert_eq!(s2.total_len(), 10);
    }

    #[test]
    fn union_lengths() {
        let a = IntervalSet::from_intervals(vec![iv(0, 5)]);
        let b = IntervalSet::from_intervals(vec![iv(3, 8), iv(20, 22)]);
        let u = a.union(&b);
        assert_eq!(u.total_len(), 10);
        assert_eq!(u.span_count(), 2);
    }

    #[test]
    fn window_clock_boundaries() {
        let c = WindowClock::new(10);
        assert_eq!(c.width(), 10);
        assert_eq!(c.index_of(0), 0);
        assert_eq!(c.index_of(9), 0);
        assert_eq!(c.index_of(10), 1);
        assert_eq!(c.start_of(3), 30);
        assert_eq!(c.end_of(3), 40);
        assert_eq!(c.interval_of(2), Some(iv(20, 30)));
        // Windows tile the clock: index_of(end_of(w)) == w + 1.
        for w in [0u64, 1, 7, 1000] {
            assert_eq!(c.index_of(c.end_of(w)), w + 1);
            assert_eq!(c.index_of(c.start_of(w)), w);
        }
    }

    #[test]
    #[should_panic(expected = "width > 0")]
    fn window_clock_rejects_zero_width() {
        let _ = WindowClock::new(0);
    }
}
