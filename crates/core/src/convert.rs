//! Audited integer conversions for index, count and tick quantities.
//!
//! The library crates deny lossy `as` casts (`clippy::cast_possible_truncation`
//! and its siblings, set in each crate root): a silently truncated size or
//! machine index corrupts exact cost accounting without a trace. These
//! helpers are the sanctioned alternatives — each states its contract
//! and either cannot fail on supported targets or traps loudly at one
//! audited site instead of wrapping.

/// Converts a dense in-memory index (machine slot, type index, grid
/// segment) to `u32`.
///
/// Traps if `i` exceeds `u32::MAX`. That needs four billion live
/// machines in one `Vec` — unreachable before memory exhaustion — and a
/// wrapped id would silently merge two machines' busy intervals, which
/// is strictly worse than a loud stop.
#[must_use]
#[expect(
    clippy::expect_used,
    reason = "single audited trap; >4G in-memory entries exhaust memory first"
)]
pub fn index_u32(i: usize) -> u32 {
    u32::try_from(i).expect("in-memory index fits u32")
}

/// Widens a `usize` count to `u64`.
///
/// Lossless on every supported target (`usize` is at most 64 bits); the
/// trap exists only to keep the contract honest on exotic platforms.
#[must_use]
#[expect(
    clippy::expect_used,
    reason = "usize is at most 64 bits on supported targets"
)]
pub fn count_u64(n: usize) -> u64 {
    u64::try_from(n).expect("usize fits u64")
}

/// Narrows a `u64` tick or size to `usize` for indexing.
///
/// `None` when the value does not fit (possible on 32-bit targets);
/// callers decide whether that is an error or a saturation.
#[must_use]
pub fn usize_from_u64(n: u64) -> Option<usize> {
    usize::try_from(n).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_roundtrips() {
        assert_eq!(index_u32(0), 0);
        assert_eq!(index_u32(123_456), 123_456);
    }

    #[test]
    fn count_widens() {
        assert_eq!(count_u64(usize::MAX & 0xFFFF), 0xFFFF);
    }

    #[test]
    fn narrowing_is_checked() {
        assert_eq!(usize_from_u64(7), Some(7));
        #[cfg(target_pointer_width = "64")]
        assert_eq!(usize_from_u64(u64::MAX), Some(usize::MAX));
    }
}
