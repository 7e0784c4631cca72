//! Sweepline utilities: event grids and piecewise-constant load profiles.
//!
//! Every quantity in BSHM that varies over time (`s(𝒥, t)`, the nested
//! demands `D_i(t)`, machine configurations, …) is piecewise constant
//! between consecutive job arrival/departure events. These helpers build
//! the event grid once and evaluate profiles per grid segment, which is the
//! backbone of the lower bound, the demand chart and the validators.

use crate::job::Job;
use crate::machine::Catalog;
use crate::time::{Interval, TimePoint};

/// The sorted, deduplicated list of all arrival and departure times.
///
/// Consecutive entries bound the *segments* on which every active-set
/// quantity is constant. With `k` grid points there are `k − 1` segments;
/// segment `s` is `[grid[s], grid[s+1])`.
#[must_use]
pub fn event_grid(jobs: &[Job]) -> Vec<TimePoint> {
    let mut grid = Vec::with_capacity(jobs.len() * 2);
    for j in jobs {
        grid.push(j.arrival);
        grid.push(j.departure);
    }
    grid.sort_unstable();
    grid.dedup();
    grid
}

/// Every job's arrival and departure as `(t, is_arrival, job index)`, in
/// the one event order every driver and replayer shares: by time,
/// departures before arrivals at equal times (intervals are half-open, so
/// a machine freed at `t` can host an arrival at `t`), then by job id.
#[must_use]
pub fn job_events(jobs: &[Job]) -> Vec<(TimePoint, bool, usize)> {
    let mut events = Vec::with_capacity(jobs.len() * 2);
    for (idx, j) in jobs.iter().enumerate() {
        events.push((j.arrival, true, idx));
        events.push((j.departure, false, idx));
    }
    events.sort_unstable_by_key(|&(t, is_arrival, idx)| (t, is_arrival, jobs[idx].id));
    events
}

/// The segment index containing time `t`, for a grid from [`event_grid`].
/// Returns `None` when `t` is outside `[grid[0], grid[last])`.
#[must_use]
pub fn segment_of(grid: &[TimePoint], t: TimePoint) -> Option<usize> {
    let (&first, &last) = (grid.first()?, grid.last()?);
    if grid.len() < 2 || t < first || t >= last {
        return None;
    }
    // partition_point gives the first index with grid[idx] > t.
    Some(grid.partition_point(|&g| g <= t) - 1)
}

/// A piecewise-constant profile over an event grid.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Profile {
    /// Grid points (length `k ≥ 2` unless the job set was empty).
    pub grid: Vec<TimePoint>,
    /// One value per segment (length `k − 1`).
    pub values: Vec<u64>,
}

impl Profile {
    /// Value at time `t` (0 outside the grid).
    #[must_use]
    pub fn at(&self, t: TimePoint) -> u64 {
        segment_of(&self.grid, t).map_or(0, |s| self.values[s])
    }

    /// Iterates `(segment interval, value)` pairs, skipping zero-length
    /// segments (there are none by construction, but be defensive).
    pub fn segments(&self) -> impl Iterator<Item = (Interval, u64)> + '_ {
        self.grid
            .windows(2)
            .zip(self.values.iter())
            .filter_map(|(w, &v)| Interval::try_new(w[0], w[1]).map(|iv| (iv, v)))
    }

    /// Maximum value over all segments (0 when empty).
    #[must_use]
    pub fn max(&self) -> u64 {
        self.values.iter().copied().max().unwrap_or(0)
    }

    /// The time integral `∫ value dt` in `u128`.
    #[must_use]
    pub fn integral(&self) -> u128 {
        self.segments()
            .map(|(iv, v)| u128::from(iv.len()) * u128::from(v))
            .sum()
    }
}

/// Builds the total-load profile `s(𝒥, t)` via difference arrays on the
/// event grid. O(n log n).
#[must_use]
pub fn load_profile(jobs: &[Job]) -> Profile {
    let grid = event_grid(jobs);
    let nseg = grid.len().saturating_sub(1);
    let mut diff = vec![0i128; nseg + 1];
    for j in jobs {
        #[expect(
            clippy::expect_used,
            reason = "the grid is built from these very arrivals"
        )]
        let a = grid.binary_search(&j.arrival).expect("arrival on grid");
        #[expect(
            clippy::expect_used,
            reason = "the grid is built from these very departures"
        )]
        let d = grid.binary_search(&j.departure).expect("departure on grid");
        diff[a] += i128::from(j.size);
        diff[d] -= i128::from(j.size);
    }
    let mut values = Vec::with_capacity(nseg);
    let mut acc: i128 = 0;
    for d in diff.iter().take(nseg) {
        acc += d;
        debug_assert!(acc >= 0);
        #[expect(
            clippy::expect_used,
            reason = "acc >= 0 (departures never precede arrivals) and fits u64 by instance validation"
        )]
        values.push(u64::try_from(acc).expect("load fits u64"));
    }
    Profile { grid, values }
}

/// Per-segment nested demands for the lower bound (§II).
///
/// Row `s` (see [`DemandGrid::row`]) holds `D_{i+1}(t) = s(𝒥_{≥ i+1}(t), t)`
/// on segment `s`: entry `i` is the total size of active jobs that are too
/// large for machine types below `i` (0-based), i.e. jobs with
/// `size > g_{i-1}`. Entry 0 is the total active load. Demands are
/// non-increasing in `i` by construction.
#[derive(Clone, Debug)]
pub struct DemandGrid {
    /// Event grid (length `k`).
    pub grid: Vec<TimePoint>,
    /// Row width: the number of machine types.
    width: usize,
    /// `k − 1` rows of `width` nested demands each, row-major.
    demands: Vec<u64>,
}

impl DemandGrid {
    /// The nested demands of segment `s`. Panics when `s` is not a segment.
    #[must_use]
    pub fn row(&self, s: usize) -> &[u64] {
        &self.demands[s * self.width..(s + 1) * self.width]
    }

    /// Iterates `(segment interval, demand row)`.
    pub fn segments(&self) -> impl Iterator<Item = (Interval, &[u64])> + '_ {
        self.grid
            .windows(2)
            .zip(self.demands.chunks_exact(self.width.max(1)))
            .filter_map(|(w, row)| Interval::try_new(w[0], w[1]).map(|iv| (iv, row)))
    }
}

/// Builds the nested-demand grid for `jobs` against `catalog`.
///
/// Panics if some job fits no machine type (instances validate this).
#[must_use]
pub fn demand_grid(jobs: &[Job], catalog: &Catalog) -> DemandGrid {
    demand_grid_until(jobs, catalog, TimePoint::MAX)
}

/// [`demand_grid`] of `jobs` clipped to the horizon `[0, until)`: jobs
/// arriving at or after `until` are dropped and departures are clamped to
/// `until`. The clipping happens while the grid is built; no job is copied.
///
/// Panics if some kept job fits no machine type.
#[must_use]
pub fn demand_grid_until(jobs: &[Job], catalog: &Catalog, until: TimePoint) -> DemandGrid {
    let m = catalog.len();
    let clipped = || {
        jobs.iter()
            .filter(move |j| j.arrival < until)
            .map(move |j| (j.arrival, j.departure.min(until), j.size))
    };
    let mut grid: Vec<TimePoint> = clipped().flat_map(|(a, d, _)| [a, d]).collect();
    grid.sort_unstable();
    grid.dedup();
    let nseg = grid.len().saturating_sub(1);
    // Per-class load differences, row-major by grid point.
    let mut diff = vec![0i128; (nseg + 1) * m];
    for (arrival, departure, size) in clipped() {
        #[expect(
            clippy::expect_used,
            reason = "demand grids are built for validated instances"
        )]
        let class = catalog
            .size_class(size)
            .expect("job fits some machine type")
            .0;
        #[expect(
            clippy::expect_used,
            reason = "the grid is built from these very arrivals"
        )]
        let a = grid.binary_search(&arrival).expect("arrival on grid");
        #[expect(
            clippy::expect_used,
            reason = "the grid is built from these very departures"
        )]
        let d = grid.binary_search(&departure).expect("departure on grid");
        diff[a * m + class] += i128::from(size);
        diff[d * m + class] -= i128::from(size);
    }
    let mut demands = vec![0u64; nseg * m];
    let mut acc = vec![0i128; m];
    for (row, delta) in demands.chunks_exact_mut(m).zip(diff.chunks_exact(m)) {
        for (a, d) in acc.iter_mut().zip(delta) {
            *a += d;
            debug_assert!(*a >= 0);
        }
        // D_{i} = Σ_{c ≥ i} class-load c (suffix sums).
        let mut suffix: i128 = 0;
        #[expect(
            clippy::expect_used,
            reason = "suffix >= 0 by the debug_assert above; total load fits u64 by instance validation"
        )]
        for (out, a) in row.iter_mut().zip(&acc).rev() {
            suffix += a;
            *out = u64::try_from(suffix).expect("demand fits u64");
        }
    }
    DemandGrid {
        grid,
        width: m,
        demands,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::MachineType;

    fn jobs() -> Vec<Job> {
        vec![
            Job::new(0, 3, 0, 10),
            Job::new(1, 5, 5, 15),
            Job::new(2, 12, 8, 12),
        ]
    }

    fn catalog() -> Catalog {
        Catalog::new(vec![MachineType::new(4, 1), MachineType::new(16, 3)]).unwrap()
    }

    #[test]
    fn grid_is_sorted_unique() {
        let g = event_grid(&jobs());
        assert_eq!(g, vec![0, 5, 8, 10, 12, 15]);
    }

    #[test]
    fn job_events_put_departures_first_at_ties() {
        let js = vec![Job::new(1, 4, 10, 20), Job::new(0, 4, 0, 10)];
        assert_eq!(
            job_events(&js),
            vec![(0, true, 1), (10, false, 1), (10, true, 0), (20, false, 0)]
        );
    }

    #[test]
    fn segment_lookup() {
        let g = event_grid(&jobs());
        assert_eq!(segment_of(&g, 0), Some(0));
        assert_eq!(segment_of(&g, 4), Some(0));
        assert_eq!(segment_of(&g, 5), Some(1));
        assert_eq!(segment_of(&g, 14), Some(4));
        assert_eq!(segment_of(&g, 15), None);
        assert_eq!(segment_of(&g, 100), None);
    }

    #[test]
    fn load_profile_values() {
        let p = load_profile(&jobs());
        assert_eq!(p.at(0), 3);
        assert_eq!(p.at(5), 8);
        assert_eq!(p.at(8), 20);
        assert_eq!(p.at(10), 17);
        assert_eq!(p.at(12), 5);
        assert_eq!(p.at(15), 0);
        assert_eq!(p.max(), 20);
        // Integral = Σ size×duration = 3·10 + 5·10 + 12·4 = 128.
        assert_eq!(p.integral(), 128);
    }

    #[test]
    fn integral_equals_size_duration_sum() {
        let p = load_profile(&jobs());
        let direct: u128 = jobs()
            .iter()
            .map(|j| u128::from(j.size) * u128::from(j.duration()))
            .sum();
        assert_eq!(p.integral(), direct);
    }

    #[test]
    fn demand_grid_nested() {
        let dg = demand_grid(&jobs(), &catalog());
        // At t=8: active jobs sizes 3 (class 0), 5 (class 1), 12 (class 1).
        let s = segment_of(&dg.grid, 8).unwrap();
        assert_eq!(dg.row(s), [20, 17]);
        // At t=0: only the size-3 job.
        let s0 = segment_of(&dg.grid, 0).unwrap();
        assert_eq!(dg.row(s0), [3, 0]);
        // Nestedness: D_i non-increasing in i everywhere.
        for (_, row) in dg.segments() {
            for w in row.windows(2) {
                assert!(w[0] >= w[1]);
            }
        }
    }

    #[test]
    fn clipping_while_building_equals_building_from_clipped_jobs() {
        for until in [0, 1, 5, 8, 9, 12, 14, 15, 100] {
            let clipped: Vec<Job> = jobs()
                .into_iter()
                .filter(|j| j.arrival < until)
                .map(|j| Job {
                    departure: j.departure.min(until),
                    ..j
                })
                .collect();
            let want = demand_grid(&clipped, &catalog());
            let got = demand_grid_until(&jobs(), &catalog(), until);
            assert_eq!(got.grid, want.grid, "until {until}");
            assert!(got.segments().eq(want.segments()), "until {until}");
        }
    }

    #[test]
    fn empty_jobs_empty_profile() {
        let p = load_profile(&[]);
        assert_eq!(p.max(), 0);
        assert_eq!(p.integral(), 0);
        assert_eq!(p.at(5), 0);
    }
}
