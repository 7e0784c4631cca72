//! Lemma 4 (§IV), executable: at any time `t`, the size-class partition's
//! machine mix costs at most `9/4` of the optimal configuration:
//!
//! ```text
//! Σ_i ⌈s(𝒥_i,t)/g_i⌉·r̂_i  ≤  (9/4)·Σ_i w*(i,t)·r̂_i
//! ```
//!
//! This is the inequality that turns the per-class Dual-Coloring/First-Fit
//! machinery into the 9-approximation and the `(9/4)μ + 27/4` competitive
//! bound. Experiment A8 sweeps it over concrete instances.

use bshm_core::cost::Cost;
use bshm_core::instance::Instance;
use bshm_core::lower_bound::ConfigCost;
use bshm_core::machine::MachineType;
use bshm_core::normalize::NormalizedCatalog;
use bshm_core::sweep::demand_grid;

/// Cost rate of the partition configuration for one segment's nested
/// demands (`demands[i] = D_{i+1}`, so class-`i` load is
/// `D_{i+1} − D_{i+2}`), with rounded rates.
#[must_use]
pub fn partition_cost_rate(demands: &[u64], caps: &[u64], rates_pow2: &[u64]) -> Cost {
    let m = demands.len();
    let mut total: Cost = 0;
    for i in 0..m {
        let class_load = demands[i] - demands.get(i + 1).copied().unwrap_or(0);
        total += u128::from(class_load.div_ceil(caps[i])) * u128::from(rates_pow2[i]);
    }
    total
}

/// The maximum observed ratio of partition cost rate to optimal
/// configuration cost rate over the instance's sweepline (0 for an
/// always-empty instance; Lemma 4 asserts ≤ 9/4 on INC catalogs).
#[must_use]
pub fn lemma4_max_ratio(instance: &Instance, norm: &NormalizedCatalog) -> f64 {
    let caps: Vec<u64> = norm.catalog().types().iter().map(|t| t.capacity).collect();
    let rates: Vec<u64> = norm.rates_pow2().to_vec();
    let rounded_types: Vec<MachineType> = caps
        .iter()
        .zip(&rates)
        .map(|(&g, &r)| MachineType::new(g, r))
        .collect();
    let dg = demand_grid(instance.jobs(), norm.catalog());
    let mut kernel = ConfigCost::new(&rounded_types);
    let mut worst = 0f64;
    for (_, demands) in dg.segments() {
        let partition = partition_cost_rate(demands, &caps, &rates);
        if partition == 0 {
            continue;
        }
        let opt = kernel.cost(demands);
        debug_assert!(opt > 0);
        worst = worst.max(partition as f64 / opt as f64);
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;
    use bshm_core::job::Job;
    use bshm_core::machine::Catalog;

    fn inc_catalog() -> Catalog {
        Catalog::new(vec![
            MachineType::new(4, 1),
            MachineType::new(16, 8),
            MachineType::new(64, 64),
        ])
        .unwrap()
    }

    #[test]
    fn partition_rate_splits_classes() {
        // Demands D = [20, 12, 0] ⇒ class loads 8, 12, 0 on caps 4/16/64.
        let rate = partition_cost_rate(&[20, 12, 0], &[4, 16, 64], &[1, 8, 64]);
        // ⌈8/4⌉·1 + ⌈12/16⌉·8 + 0 = 2 + 8 = 10.
        assert_eq!(rate, 10);
    }

    #[test]
    fn lemma4_holds_on_pseudorandom_inc_instances() {
        let catalog = inc_catalog();
        let norm = NormalizedCatalog::from_catalog(&catalog);
        for seed in 0..6u32 {
            let jobs: Vec<Job> = (0..120u32)
                .map(|i| {
                    let x = u64::from(i * 13 + seed * 97);
                    let size = 1 + (x * 31 + 7) % 64;
                    let arr = (x * 17) % 250;
                    Job::new(i, size, arr, arr + 8 + (x * 5) % 40)
                })
                .collect();
            let inst = Instance::new(jobs, catalog.clone()).unwrap();
            let ratio = lemma4_max_ratio(&inst, &norm);
            assert!(ratio <= 2.25 + 1e-9, "seed {seed}: Lemma 4 ratio {ratio}");
            assert!(ratio >= 1.0 - 1e-9, "partition can never beat the optimum");
        }
    }

    #[test]
    fn lemma4_tightish_case() {
        // One job just over each class threshold wastes most of each
        // machine — the regime where the 9/4 slack is consumed.
        let catalog = inc_catalog();
        let norm = NormalizedCatalog::from_catalog(&catalog);
        let jobs = vec![
            Job::new(0, 5, 0, 10),  // class 1, nearly-empty 16-box
            Job::new(1, 17, 0, 10), // class 2, nearly-empty 64-box
        ];
        let inst = Instance::new(jobs, catalog).unwrap();
        let ratio = lemma4_max_ratio(&inst, &norm);
        assert!(ratio <= 2.25 + 1e-9, "ratio {ratio}");
    }
}
