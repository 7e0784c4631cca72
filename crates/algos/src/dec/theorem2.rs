//! The Theorem 2 proof machinery, executable (§III-B).
//!
//! The competitive analysis of DEC-ONLINE builds three objects we
//! reproduce as code so the proof's steps can be *checked numerically* on
//! concrete instances (experiment A7):
//!
//! 1. **`M(t)`** — a machine configuration per time point, built from
//!    `p₁(t)` (the class of the largest active job) and `p₂(t)` (the class
//!    whose threshold band contains the total active load), whose cost
//!    rate Lemma 1 bounds by `4·Σ w*(i,t)·r̂_i`;
//! 2. **`𝓘_{i,j}`** — the set of times when `M(t)` holds at least `j`
//!    type-`i` machines;
//! 3. **`𝓘′_{i,j}`** — each contiguous span stretched rightwards by `μ`
//!    times its own length; Lemma 3 shows every job on the `j`-th
//!    *quadruple* of type-`i` machines lives inside `𝓘′_{i,j}`, which
//!    yields the `32(μ+1)` bound.

use bshm_core::cost::Cost;
use bshm_core::instance::Instance;
use bshm_core::job::JobId;
use bshm_core::lower_bound::ConfigCost;
use bshm_core::machine::MachineType;
use bshm_core::normalize::NormalizedCatalog;
use bshm_core::sweep::{demand_grid, load_profile};
use bshm_core::time::{Interval, IntervalSet, TimePoint};

/// The `M(t)` series over the sweepline: per segment, machine counts per
/// normalized type.
#[derive(Clone, Debug)]
pub struct MConfigSeries {
    /// Event grid.
    pub grid: Vec<TimePoint>,
    /// `grid.len()−1` rows of per-normalized-type machine counts.
    pub counts: Vec<Vec<u64>>,
    /// Rounded rates aligned with the counts.
    pub rates_pow2: Vec<u64>,
}

impl MConfigSeries {
    /// Cost rate `Σ_i count_i · r̂_i` of segment `s`.
    #[must_use]
    pub fn cost_rate(&self, s: usize) -> Cost {
        self.counts[s]
            .iter()
            .zip(&self.rates_pow2)
            .map(|(&c, &r)| u128::from(c) * u128::from(r))
            .sum()
    }

    /// The interval set `𝓘_{i,j}`: times with at least `j ≥ 1` type-`i`
    /// machines in `M(t)`.
    #[must_use]
    pub fn interval_set(&self, i: usize, j: u64) -> IntervalSet {
        self.grid
            .windows(2)
            .zip(self.counts.iter())
            .filter(|(_, row)| row[i] >= j)
            .filter_map(|(w, _)| Interval::try_new(w[0], w[1]))
            .collect()
    }

    /// Largest machine count of type `i` over all segments.
    #[must_use]
    pub fn max_count(&self, i: usize) -> u64 {
        self.counts.iter().map(|row| row[i]).max().unwrap_or(0)
    }
}

/// Builds the `M(t)` series for an instance over its normalized catalog.
#[must_use]
pub fn m_config_series(instance: &Instance, norm: &NormalizedCatalog) -> MConfigSeries {
    let m = norm.len();
    let caps: Vec<u64> = norm.catalog().types().iter().map(|t| t.capacity).collect();
    let rates: Vec<u64> = norm.rates_pow2().to_vec();
    // p₁ needs the largest active job size per segment; track via the
    // per-class demand grid of the normalized catalog: the largest class
    // with nonzero class-specific demand bounds the largest job's class.
    let dg = demand_grid(instance.jobs(), norm.catalog());
    let load = load_profile(instance.jobs());
    let nseg = dg.grid.len().saturating_sub(1);
    debug_assert_eq!(load.grid, dg.grid);

    let mut counts = vec![vec![0u64; m]; nseg];
    for (s, row_counts) in counts.iter_mut().enumerate() {
        let demands = dg.row(s);
        let total = load.values[s];
        if total == 0 {
            continue;
        }
        // p₁: highest class with a job that *must* sit there — class i has
        // D_i > 0 where D is the nested demand (jobs of size > g_{i-1}).
        let p1 = (0..m).rev().find(|&i| demands[i] > 0).unwrap_or(0);
        // p₂: smallest i with total ≤ (r̂_{i+1}/r̂_i − 1)·g_i, else top.
        let p2 = (0..m.saturating_sub(1))
            .find(|&i| total <= (rates[i + 1] / rates[i] - 1) * caps[i])
            .unwrap_or(m - 1);
        let row = row_counts;
        if p1 > p2 {
            for (i, slot) in row.iter_mut().enumerate().take(p1) {
                *slot = rates[i + 1] / rates[i] - 1;
            }
            row[p1] = 1;
        } else {
            for (i, slot) in row.iter_mut().enumerate().take(p2) {
                *slot = rates[i + 1] / rates[i] - 1;
            }
            row[p2] = total.div_ceil(caps[p2]);
        }
    }
    MConfigSeries {
        grid: dg.grid,
        counts,
        rates_pow2: rates,
    }
}

/// Verifies Lemma 1 over the whole series: returns the maximum observed
/// ratio `cost_rate(M(t)) / (Σ w*(i,t)·r̂_i)` (must be ≤ 4 by the lemma;
/// 0 segments with load yield 0).
#[must_use]
pub fn lemma1_max_ratio(instance: &Instance, norm: &NormalizedCatalog) -> f64 {
    let series = m_config_series(instance, norm);
    // w* against the *rounded* rates, as in the paper's analysis.
    let rounded_types: Vec<MachineType> = norm
        .catalog()
        .types()
        .iter()
        .zip(norm.rates_pow2())
        .map(|(t, &r)| MachineType::new(t.capacity, r))
        .collect();
    let dg = demand_grid(instance.jobs(), norm.catalog());
    let mut kernel = ConfigCost::new(&rounded_types);
    let mut worst = 0f64;
    for (s, (_, demands)) in dg.segments().enumerate() {
        let m_rate = series.cost_rate(s);
        if m_rate == 0 {
            continue;
        }
        let w_star = kernel.cost(demands);
        debug_assert!(w_star > 0);
        worst = worst.max(m_rate as f64 / w_star as f64);
    }
    worst
}

/// A job → (normalized type, roster index) map extracted from a finished
/// DEC-ONLINE run (both groups; overflow machines excluded).
pub type RosterPlacements = Vec<(JobId, usize, usize)>;

/// Checks Lemma 3: every job on the `j`-th quadruple of type-`i` machines
/// (roster indices `4(j−1)..4j` across both groups) has its active
/// interval inside `𝓘′_{i,j} = stretch(𝓘_{i,j}, μ)`. Returns the number
/// of violating jobs (0 if the lemma's conclusion holds exactly).
#[must_use]
pub fn lemma3_violations(
    instance: &Instance,
    norm: &NormalizedCatalog,
    placements: &RosterPlacements,
    mu_ceil: u64,
) -> usize {
    let series = m_config_series(instance, norm);
    let jobs = bshm_core::cost::job_index(instance);
    let mut cache: std::collections::HashMap<(usize, u64), IntervalSet> =
        std::collections::HashMap::new();
    let mut violations = 0usize;
    for &(job_id, type_i, roster_idx) in placements {
        let j = bshm_core::convert::count_u64(roster_idx) / 4 + 1;
        let stretched = cache
            .entry((type_i, j))
            .or_insert_with(|| series.interval_set(type_i, j).stretch_right(mu_ceil));
        let interval = jobs[&job_id].interval();
        if !stretched.contains_interval(&interval) {
            violations += 1;
        }
    }
    violations
}

/// The Theorem 2 certificate: `8·Σ_{i,j} len(𝓘′_{i,j})·r̂_i`, an upper
/// bound on DEC-ONLINE's cost when Lemma 3 holds (≤ 32(μ+1)·OPT).
#[must_use]
pub fn theorem2_certificate(instance: &Instance, norm: &NormalizedCatalog, mu_ceil: u64) -> Cost {
    let series = m_config_series(instance, norm);
    let mut total: Cost = 0;
    for i in 0..norm.len() {
        let max_j = series.max_count(i);
        for j in 1..=max_j {
            let stretched = series.interval_set(i, j).stretch_right(mu_ceil);
            total += 8 * u128::from(stretched.total_len()) * u128::from(series.rates_pow2[i]);
        }
    }
    total
}

/// Re-exported hook: extracts roster placements from a [`super::DecOnline`]
/// after a run (see `DecOnline::roster_placements`).
#[must_use]
pub fn roster_placements_of(
    scheduler: &super::DecOnline,
    schedule: &bshm_core::schedule::Schedule,
) -> RosterPlacements {
    scheduler.roster_placements(schedule)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bshm_core::job::Job;
    use bshm_core::machine::Catalog;

    fn dec_catalog() -> Catalog {
        Catalog::new(vec![
            MachineType::new(4, 1),
            MachineType::new(16, 2),
            MachineType::new(64, 4),
        ])
        .unwrap()
    }

    fn norm(c: &Catalog) -> NormalizedCatalog {
        NormalizedCatalog::from_catalog(c)
    }

    #[test]
    fn m_config_single_small_job() {
        // One size-1 job: p₁ = 0; load 1 ≤ (2−1)·4 ⇒ p₂ = 0 ⇒ one type-0.
        let catalog = dec_catalog();
        let inst = Instance::new(vec![Job::new(0, 1, 0, 10)], catalog.clone()).unwrap();
        let series = m_config_series(&inst, &norm(&catalog));
        assert_eq!(series.counts, vec![vec![1, 0, 0]]);
    }

    #[test]
    fn m_config_large_job_forces_high_type() {
        // One size-40 job: class 2. p₁ = 2 > p₂ ⇒ ratio−1 machines below
        // plus one type-2: [1, 1, 1].
        let catalog = dec_catalog();
        let inst = Instance::new(vec![Job::new(0, 40, 0, 10)], catalog.clone()).unwrap();
        let series = m_config_series(&inst, &norm(&catalog));
        assert_eq!(series.counts, vec![vec![1, 1, 1]]);
    }

    #[test]
    fn m_config_heavy_small_load_uses_bulk() {
        // 30 unit jobs: p₁ = 0, load 30 > (2−1)·4 and > (2−1)·16 ⇒ p₂ = 2
        // ⇒ [1, 1, ceil(30/64)=1].
        let catalog = dec_catalog();
        let jobs: Vec<Job> = (0..30).map(|i| Job::new(i, 1, 0, 10)).collect();
        let inst = Instance::new(jobs, catalog.clone()).unwrap();
        let series = m_config_series(&inst, &norm(&catalog));
        assert_eq!(series.counts, vec![vec![1, 1, 1]]);
    }

    #[test]
    fn lemma1_holds_on_pseudorandom_instances() {
        let catalog = dec_catalog();
        for seed in 0..5u32 {
            let jobs: Vec<Job> = (0..100u32)
                .map(|i| {
                    let x = u64::from(i * 7 + seed * 131);
                    let size = 1 + (x * 37 + 11) % 64;
                    let arr = (x * 13) % 200;
                    Job::new(i, size, arr, arr + 10 + (x * 3) % 40)
                })
                .collect();
            let inst = Instance::new(jobs, catalog.clone()).unwrap();
            let ratio = lemma1_max_ratio(&inst, &norm(&catalog));
            assert!(ratio <= 4.0 + 1e-9, "seed {seed}: Lemma 1 ratio {ratio}");
            assert!(ratio > 0.0);
        }
    }

    #[test]
    fn interval_sets_nest_in_j() {
        // 𝓘_{i,j+1} ⊆ 𝓘_{i,j} by construction.
        let catalog = dec_catalog();
        let jobs: Vec<Job> = (0..60u32)
            .map(|i| {
                let x = u64::from(i);
                Job::new(i, 1 + x % 4, (x * 5) % 100, (x * 5) % 100 + 20)
            })
            .collect();
        let inst = Instance::new(jobs, catalog.clone()).unwrap();
        let series = m_config_series(&inst, &norm(&catalog));
        for i in 0..3 {
            let mut prev = series.interval_set(i, 1);
            for j in 2..=series.max_count(i) {
                let cur = series.interval_set(i, j);
                for span in cur.iter() {
                    assert!(prev.contains_interval(span) || span.len() == 0);
                }
                prev = cur;
            }
        }
    }

    #[test]
    fn certificate_dominates_actual_cost_when_lemma3_holds() {
        use bshm_core::cost::schedule_cost;
        use bshm_sim::run_online;
        let catalog = dec_catalog();
        let jobs: Vec<Job> = (0..150u32)
            .map(|i| {
                let x = u64::from(i);
                let size = 1 + (x * 29 + 3) % 64;
                let arr = (x * 11) % 300;
                Job::new(i, size, arr, arr + 10 + (x * 7) % 30)
            })
            .collect();
        let inst = Instance::new(jobs, catalog.clone()).unwrap();
        let n = norm(&catalog);
        let mut sched = super::super::DecOnline::new(inst.catalog());
        let s = run_online(&inst, &mut sched).unwrap();
        let placements = roster_placements_of(&sched, &s);
        assert_eq!(placements.len(), inst.job_count(), "no overflow expected");
        let mu = inst.stats().mu_ceil();
        let violations = lemma3_violations(&inst, &n, &placements, mu);
        assert_eq!(violations, 0, "Lemma 3 must hold on doubling catalogs");
        // With Lemma 3, the certificate bounds the cost (in rounded rates;
        // true rates are ≤ rounded ones here since rates are powers of 2).
        let cert = theorem2_certificate(&inst, &n, mu);
        let cost = schedule_cost(&s, &inst);
        assert!(cost <= cert, "cost {cost} > certificate {cert}");
    }
}
