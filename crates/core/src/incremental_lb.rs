//! Incrementally maintained busy-time lower bound.
//!
//! [`crate::lower_bound`](mod@crate::lower_bound) integrates the exact per-time optimal machine
//! configuration over a *finished* instance by sweeping the whole event
//! grid. That is the right tool offline, but an online run wants to watch
//! the bound grow *live*: after every arrival or departure, "what is the
//! lower bound of everything observed so far?" — without re-sweeping the
//! past.
//!
//! [`IncrementalLowerBound`] answers that. It maintains the per-class
//! active load (the §II nested demands are its suffix sums), the optimal
//! configuration cost of the *current* demand vector, and the accumulated
//! integral `∫₀^now optimal_config_cost(D(t)) dt`. An arrival or departure
//! applies its load delta and only marks the rate stale; the rate is
//! recomputed, with one call of the catalog's [`ConfigCost`] kernel, when
//! time next advances over a segment of positive length (or when
//! [`IncrementalLowerBound::current_rate`] reads it). A burst of events at
//! one timestamp therefore costs one kernel call, not one per event: kernel
//! calls track the distinct event times. Each call is `O(m)` plus the
//! kernel's residual DP, which the kernel memoizes on the residual vector
//! and which on DEC catalogs is bounded by the catalog, not by the load.
//!
//! The accumulated value is exactly the full sweep of the observed prefix:
//! for any event sequence derived from jobs clipped at the current time,
//! [`IncrementalLowerBound::accumulated`] equals
//! [`lower_bound_prefix`] — integer equality, differentially verified by
//! the property suite after every single event.

use crate::cost::Cost;
use crate::job::Job;
use crate::lower_bound::{lower_bound_prefix, ConfigCost, KernelWork};
use crate::machine::Catalog;
use crate::time::TimePoint;
use std::fmt;

/// An event fed to [`IncrementalLowerBound`] was inconsistent with the
/// stream observed so far.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum IlbError {
    /// An event carried a time earlier than one already processed.
    TimeRegression {
        /// The structure's current time.
        now: TimePoint,
        /// The offending event time.
        event: TimePoint,
    },
    /// A job size fits no machine type of the catalog.
    NoSizeClass {
        /// The offending job size.
        size: u64,
    },
    /// A departure would drive a size class's active load negative.
    LoadUnderflow {
        /// The offending job size.
        size: u64,
    },
}

impl fmt::Display for IlbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IlbError::TimeRegression { now, event } => {
                write!(f, "event at t={event} precedes current time t={now}")
            }
            IlbError::NoSizeClass { size } => {
                write!(f, "size {size} fits no machine type in the catalog")
            }
            IlbError::LoadUnderflow { size } => {
                write!(f, "departure of size {size} exceeds the active load")
            }
        }
    }
}

impl std::error::Error for IlbError {}

/// The busy-time lower bound of the observed prefix of a run, maintained
/// incrementally across arrival/departure events.
///
/// ```
/// use bshm_core::{Catalog, MachineType};
/// use bshm_core::incremental_lb::IncrementalLowerBound;
/// let catalog = Catalog::new(vec![
///     MachineType::new(4, 1),
///     MachineType::new(16, 2),
/// ]).unwrap();
/// let mut ilb = IncrementalLowerBound::new(&catalog);
/// ilb.arrive(0, 16).unwrap();   // needs the big machine: rate 2
/// ilb.depart(10, 16).unwrap();  // [0, 10) at rate 2
/// assert_eq!(ilb.accumulated(), 20);
/// assert_eq!(ilb.current_rate(), 0);  // refreshed on read
/// ```
#[derive(Clone, Debug)]
pub struct IncrementalLowerBound {
    catalog: Catalog,
    /// Active load per size class (`class_load[c]` = total size of active
    /// jobs whose size class is `c`). The nested demands are its suffix
    /// sums.
    class_load: Vec<u64>,
    /// Optimal configuration cost rate of the demand vector at the last
    /// refresh; current unless `stale`.
    rate: Cost,
    /// Whether the active load changed since `rate` was computed.
    stale: bool,
    /// `∫₀^now optimal_config_cost(D(t)) dt`, exact.
    accumulated: Cost,
    /// Time of the last processed event.
    now: TimePoint,
    /// The catalog's configuration-cost kernel.
    kernel: ConfigCost,
    /// Scratch for the current demand vector.
    row: Vec<u64>,
}

impl IncrementalLowerBound {
    /// An empty bound (no active jobs, time 0) over `catalog`.
    #[must_use]
    pub fn new(catalog: &Catalog) -> Self {
        let m = catalog.len();
        IncrementalLowerBound {
            catalog: catalog.clone(),
            class_load: vec![0; m],
            rate: 0,
            stale: false,
            accumulated: 0,
            now: 0,
            kernel: ConfigCost::new(catalog.types()),
            row: vec![0; m],
        }
    }

    /// The current nested-demand vector `demands[i] = D_{i+1}` (suffix sums
    /// of the per-class active loads), freshly materialized.
    #[must_use]
    pub fn demands(&self) -> Vec<u64> {
        let mut d = vec![0u64; self.class_load.len()];
        suffix_sums(&self.class_load, &mut d);
        d
    }

    /// The optimal configuration cost rate of the current demand vector —
    /// the slope at which the bound is accruing right now. Events only mark
    /// the rate stale, so this read refreshes it first when needed (one
    /// kernel call).
    #[must_use]
    pub fn current_rate(&mut self) -> Cost {
        self.refresh_if_stale();
        self.rate
    }

    /// The work the configuration-cost kernel has done so far.
    #[must_use]
    pub fn kernel_work(&self) -> KernelWork {
        self.kernel.work()
    }

    /// `∫₀^now optimal_config_cost(D(t)) dt`: the lower bound of the
    /// observed prefix, exact.
    #[must_use]
    pub fn accumulated(&self) -> Cost {
        self.accumulated
    }

    /// Time of the last processed event.
    #[must_use]
    pub fn now(&self) -> TimePoint {
        self.now
    }

    /// Total active load across all size classes.
    #[must_use]
    pub fn active_load(&self) -> u64 {
        self.class_load
            .iter()
            .fold(0u64, |a, &b| a.saturating_add(b))
    }

    /// Advances the clock to `t`, accumulating the current rate over the
    /// elapsed segment, without changing the active set. A stale rate is
    /// refreshed once before a segment of positive length accrues; events
    /// at the structure's current time are free.
    ///
    /// # Errors
    /// [`IlbError::TimeRegression`] when `t` precedes the current time.
    pub fn advance_to(&mut self, t: TimePoint) -> Result<(), IlbError> {
        if t < self.now {
            return Err(IlbError::TimeRegression {
                now: self.now,
                event: t,
            });
        }
        if t > self.now {
            self.refresh_if_stale();
            self.accumulated += self.rate * u128::from(t - self.now);
            self.now = t;
        }
        Ok(())
    }

    /// Processes a job arrival of `size` at time `t`.
    ///
    /// # Errors
    /// [`IlbError::TimeRegression`] on out-of-order events,
    /// [`IlbError::NoSizeClass`] when the size fits no machine type.
    pub fn arrive(&mut self, t: TimePoint, size: u64) -> Result<(), IlbError> {
        self.advance_to(t)?;
        let class = self
            .catalog
            .size_class(size)
            .ok_or(IlbError::NoSizeClass { size })?;
        if let Some(load) = self.class_load.get_mut(class.0) {
            *load = load.saturating_add(size);
        }
        self.stale = true;
        Ok(())
    }

    /// Processes a job departure of `size` at time `t`. The departed
    /// interval `[arrival, t)` is half-open, so the segment ending at `t`
    /// is charged at the rate that included this job.
    ///
    /// # Errors
    /// [`IlbError::TimeRegression`] on out-of-order events,
    /// [`IlbError::NoSizeClass`] / [`IlbError::LoadUnderflow`] when the
    /// departure does not match a prior arrival.
    pub fn depart(&mut self, t: TimePoint, size: u64) -> Result<(), IlbError> {
        self.advance_to(t)?;
        let class = self
            .catalog
            .size_class(size)
            .ok_or(IlbError::NoSizeClass { size })?;
        let load = self
            .class_load
            .get_mut(class.0)
            .ok_or(IlbError::NoSizeClass { size })?;
        *load = load
            .checked_sub(size)
            .ok_or(IlbError::LoadUnderflow { size })?;
        self.stale = true;
        Ok(())
    }

    /// Differential check: does the incrementally accumulated bound equal
    /// the full sweep of `jobs` clipped at the current time? `jobs` must be
    /// exactly the arrivals observed so far (departed or not).
    ///
    /// # Errors
    /// Describes the mismatch (expected vs. got) when the values differ.
    pub fn verify_against_full_sweep(&self, jobs: &[Job]) -> Result<(), String> {
        let want = lower_bound_prefix(jobs, &self.catalog, self.now);
        if self.accumulated == want {
            Ok(())
        } else {
            Err(format!(
                "incremental LB {} != full-sweep LB {} at t={}",
                self.accumulated, want, self.now
            ))
        }
    }

    fn refresh_if_stale(&mut self) {
        if self.stale {
            suffix_sums(&self.class_load, &mut self.row);
            self.rate = self.kernel.cost(&self.row);
            self.stale = false;
        }
    }
}

/// `out[i] = Σ_{c ≥ i} class_load[c]`, saturating.
fn suffix_sums(class_load: &[u64], out: &mut [u64]) {
    let mut suffix = 0u64;
    for (d, &load) in out.iter_mut().zip(class_load).rev() {
        suffix = suffix.saturating_add(load);
        *d = suffix;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convert::count_u64;
    use crate::instance::Instance;
    use crate::lower_bound::{lower_bound, optimal_config_cost};
    use crate::machine::MachineType;
    use crate::sweep::{event_grid, job_events};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn catalog() -> Catalog {
        Catalog::new(vec![MachineType::new(4, 1), MachineType::new(16, 2)]).unwrap()
    }

    #[test]
    fn matches_doctest_instance() {
        let cat = catalog();
        let jobs = vec![Job::new(0, 16, 0, 10), Job::new(1, 1, 5, 15)];
        let inst = Instance::new(jobs.clone(), cat.clone()).unwrap();
        let mut ilb = IncrementalLowerBound::new(&cat);
        ilb.arrive(0, 16).unwrap();
        ilb.arrive(5, 1).unwrap();
        ilb.verify_against_full_sweep(&jobs).unwrap();
        ilb.depart(10, 16).unwrap();
        ilb.verify_against_full_sweep(&jobs).unwrap();
        ilb.depart(15, 1).unwrap();
        // [0,5): 2; [5,10): 3; [10,15): 1 → 30, same as the full sweep.
        assert_eq!(ilb.accumulated(), 30);
        assert_eq!(ilb.accumulated(), lower_bound(&inst));
        ilb.verify_against_full_sweep(&jobs).unwrap();
        assert_eq!(ilb.current_rate(), 0);
        assert_eq!(ilb.active_load(), 0);
    }

    #[test]
    fn prefix_equals_full_lower_bound_at_horizon() {
        let cat = catalog();
        let jobs = vec![
            Job::new(0, 16, 0, 10),
            Job::new(1, 1, 5, 15),
            Job::new(2, 3, 2, 20),
        ];
        let inst = Instance::new(jobs.clone(), cat.clone()).unwrap();
        assert_eq!(
            lower_bound_prefix(&jobs, &cat, u64::MAX),
            lower_bound(&inst)
        );
        assert_eq!(lower_bound_prefix(&jobs, &cat, 0), 0);
    }

    #[test]
    fn every_step_matches_the_full_sweep() {
        let cat = catalog();
        let jobs = vec![
            Job::new(0, 3, 0, 10),
            Job::new(1, 5, 5, 15),
            Job::new(2, 12, 8, 12),
            Job::new(3, 16, 8, 9),
            Job::new(4, 1, 12, 30),
        ];
        // Event list in driver order: departures before arrivals at ties.
        let mut events: Vec<(TimePoint, bool, u64)> = Vec::new();
        for j in &jobs {
            events.push((j.arrival, true, j.size));
            events.push((j.departure, false, j.size));
        }
        events.sort_unstable_by_key(|&(t, is_arrival, _)| (t, is_arrival));
        let mut ilb = IncrementalLowerBound::new(&cat);
        let mut seen: Vec<Job> = Vec::new();
        for (t, is_arrival, size) in events {
            if is_arrival {
                ilb.arrive(t, size).unwrap();
                // Track the arrivals observed so far for the reference sweep.
                let job = jobs
                    .iter()
                    .find(|j| j.arrival == t && j.size == size && !seen.contains(j))
                    .copied()
                    .unwrap();
                seen.push(job);
            } else {
                ilb.depart(t, size).unwrap();
            }
            ilb.verify_against_full_sweep(&seen).unwrap();
        }
        let inst = Instance::new(jobs, cat).unwrap();
        assert_eq!(ilb.accumulated(), lower_bound(&inst));
    }

    #[test]
    fn rejects_inconsistent_streams() {
        let cat = catalog();
        let mut ilb = IncrementalLowerBound::new(&cat);
        ilb.arrive(5, 2).unwrap();
        assert_eq!(
            ilb.arrive(3, 2),
            Err(IlbError::TimeRegression { now: 5, event: 3 })
        );
        assert_eq!(ilb.arrive(6, 99), Err(IlbError::NoSizeClass { size: 99 }));
        assert_eq!(ilb.depart(7, 4), Err(IlbError::LoadUnderflow { size: 4 }));
        // Errors render.
        assert!(IlbError::TimeRegression { now: 5, event: 3 }
            .to_string()
            .contains("precedes"));
        assert!(IlbError::NoSizeClass { size: 99 }
            .to_string()
            .contains("99"));
        assert!(IlbError::LoadUnderflow { size: 4 }
            .to_string()
            .contains("active load"));
    }

    #[test]
    fn repeated_demand_vectors_recharge_the_same_rate() {
        let cat = catalog();
        let mut ilb = IncrementalLowerBound::new(&cat);
        // The same demand vector recurs: arrive/depart the same size twice.
        ilb.arrive(0, 4).unwrap();
        ilb.depart(2, 4).unwrap();
        ilb.arrive(4, 4).unwrap();
        assert_eq!(ilb.demands(), vec![4, 0]);
        assert_eq!(ilb.current_rate(), 1);
        ilb.depart(6, 4).unwrap();
        assert_eq!(ilb.accumulated(), 4); // two [t, t+2) spans at rate 1
    }

    /// After an event: the rate read back (refreshed on read) is the
    /// kernel's answer for the current demands, and the accumulated bound
    /// is the full sweep of the arrivals seen so far.
    fn check(ilb: &mut IncrementalLowerBound, seen: &[Job]) {
        let want = optimal_config_cost(&ilb.demands(), ilb.catalog.types());
        assert_eq!(ilb.current_rate(), want, "rate at t={}", ilb.now());
        ilb.verify_against_full_sweep(seen).unwrap();
    }

    /// Bursts at one timestamp, with a cancelling departure/arrival pair at
    /// t=10 and several departures plus arrivals at t=20.
    fn burst_jobs() -> Vec<Job> {
        vec![
            Job::new(0, 3, 0, 15),
            Job::new(1, 4, 0, 10),
            Job::new(2, 12, 0, 20),
            Job::new(3, 4, 10, 30),
            Job::new(4, 16, 15, 20),
            Job::new(5, 2, 20, 25),
            Job::new(6, 1, 20, 25),
            Job::new(7, 5, 25, 30),
        ]
    }

    #[test]
    fn lazy_refresh_is_exact_through_bursts_and_errors() {
        let cat = catalog();
        let jobs = burst_jobs();
        let mut ilb = IncrementalLowerBound::new(&cat);
        let mut seen: Vec<Job> = Vec::new();
        // The rate after the last event at each time.
        let mut settled = std::collections::BTreeMap::new();
        for (t, is_arrival, idx) in job_events(&jobs) {
            let job = jobs[idx];
            if is_arrival {
                ilb.arrive(t, job.size).unwrap();
                seen.push(job);
            } else {
                ilb.depart(t, job.size).unwrap();
            }
            check(&mut ilb, &seen);
            settled.insert(t, ilb.current_rate());
            if t == 10 || t == 20 {
                // A rejected event in mid-burst changes nothing.
                let before = (ilb.accumulated(), ilb.demands(), ilb.current_rate());
                assert_eq!(ilb.arrive(t, 99), Err(IlbError::NoSizeClass { size: 99 }));
                if ilb.class_load[1] < 16 {
                    assert_eq!(ilb.depart(t, 16), Err(IlbError::LoadUnderflow { size: 16 }));
                }
                assert_eq!(
                    (ilb.accumulated(), ilb.demands(), ilb.current_rate()),
                    before
                );
                check(&mut ilb, &seen);
            }
        }
        // At t=10 job 1 left and job 3 (same size and class) arrived: the
        // burst cancels, so the rate is the one before it.
        assert_eq!(settled[&10], settled[&0]);
        let inst = Instance::new(jobs.clone(), cat.clone()).unwrap();
        assert_eq!(ilb.accumulated(), lower_bound(&inst));

        // Without reads in between, the kernel runs once per distinct time
        // that time advances past, and once more for the final read.
        let mut lazy = IncrementalLowerBound::new(&cat);
        for (t, is_arrival, idx) in job_events(&jobs) {
            if is_arrival {
                lazy.arrive(t, jobs[idx].size).unwrap();
            } else {
                lazy.depart(t, jobs[idx].size).unwrap();
            }
        }
        let times = count_u64(event_grid(&jobs).len());
        assert_eq!(lazy.kernel_work().calls, times - 1);
        assert_eq!(lazy.current_rate(), 0);
        assert_eq!(lazy.kernel_work().calls, times);
        assert_eq!(lazy.accumulated(), ilb.accumulated());
    }

    /// `n` jobs with arrival gaps of 0–3 ticks (so events tie), durations
    /// of 10–60 ticks and sizes up to `top`.
    fn generated(n: u32, top: u64, seed: u64) -> Vec<Job> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut t = 0;
        (0..n)
            .map(|id| {
                t += rng.gen_range(0..=3u64);
                let duration = rng.gen_range(10..=60u64);
                Job::new(id, rng.gen_range(1..=top), t, t + duration)
            })
            .collect()
    }

    #[test]
    fn kernel_calls_track_distinct_times_and_cells_per_call_stay_flat() {
        let mt = MachineType::new;
        for types in [
            vec![mt(4, 1), mt(16, 2), mt(64, 4)],
            vec![mt(4, 1), mt(16, 8), mt(64, 64)],
            vec![mt(4, 2), mt(16, 3), mt(64, 16)],
        ] {
            let cat = Catalog::new(types).unwrap();
            let cells_per_call = |n: u32| {
                let jobs = generated(n, cat.max_capacity(), 7);
                let mut ilb = IncrementalLowerBound::new(&cat);
                for (t, is_arrival, idx) in job_events(&jobs) {
                    if is_arrival {
                        ilb.arrive(t, jobs[idx].size).unwrap();
                    } else {
                        ilb.depart(t, jobs[idx].size).unwrap();
                    }
                }
                assert_eq!(ilb.current_rate(), 0);
                let work = ilb.kernel_work();
                let times = count_u64(event_grid(&jobs).len());
                assert_eq!(work.calls, times, "{cat:?} n={n}");
                assert!(times < 2 * u64::from(n), "no ties generated");
                assert_eq!(
                    ilb.accumulated(),
                    lower_bound_prefix(&jobs, &cat, TimePoint::MAX)
                );
                work.dp_cells as f64 / work.calls as f64
            };
            let (small, large) = (cells_per_call(1_000), cells_per_call(8_000));
            assert!(small > 0.0);
            assert!(
                large <= 1.5 * small,
                "{cat:?}: {large} DP cells per call at 8k vs {small} at 1k"
            );
        }
    }
}
