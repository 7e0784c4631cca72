//! The workspace's single wall-clock source.
//!
//! Every other `Instant::now()` in non-test code is a
//! `clippy::disallowed_methods` error (see clippy.toml): routing timing through one chokepoint
//! keeps perf numbers attributable to a single clock and leaves a seam
//! for a mocked or virtual clock later. Probed runs time each placement
//! decision (`Placement.decision_ns`) and each fault recovery with it.

use std::time::Instant;

/// Reads the clock.
#[must_use]
#[expect(
    clippy::disallowed_methods,
    reason = "the workspace's one wall-clock read"
)]
pub fn now() -> Instant {
    Instant::now()
}

/// Nanoseconds since `start`, saturating at `u64::MAX`.
#[must_use]
pub fn elapsed_ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}
