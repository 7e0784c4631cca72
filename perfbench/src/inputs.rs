//! Seeded input generation. Every input is made from the run's `--seed`
//! before timing starts; the program under test only sees the result.

use bshm_core::instance::Instance;
use bshm_core::machine::Catalog;
use bshm_workload::catalogs::{dec_geometric, inc_geometric, sawtooth};
use bshm_workload::{ArrivalProcess, DurationLaw, SizeLaw, WorkloadSpec};

/// Input sizes of one run. [`Scale::FULL`] is what the command measures;
/// [`Scale::TINY`] keeps the self-tests fast.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// `plan-offline`: instances per pass, one per log-uniform stratum.
    pub plan_strata: usize,
    /// `plan-offline`: smallest and largest job count.
    pub plan_jobs: (f64, f64),
    /// `plan-offline`: job count of the set-up request.
    pub plan_setup_jobs: usize,
    /// `stream-observed`: jobs per instance.
    pub stream_jobs: usize,
    /// `stream-observed`: instances per catalog family.
    pub stream_variants: usize,
    /// `serve-tenants`: jobs per tenant.
    pub serve_jobs: usize,
}

impl Scale {
    /// The measured sizes.
    pub const FULL: Scale = Scale {
        plan_strata: 32,
        plan_jobs: (250.0, 2_500.0),
        plan_setup_jobs: 1_000,
        stream_jobs: 5_000,
        stream_variants: 8,
        serve_jobs: 1_500,
    };

    /// Smoke-test sizes.
    #[cfg(test)]
    pub const TINY: Scale = Scale {
        plan_strata: 3,
        plan_jobs: (20.0, 60.0),
        plan_setup_jobs: 30,
        stream_jobs: 60,
        stream_variants: 1,
        serve_jobs: 40,
    };
}

/// SplitMix64 of `seed` and `salt`: independent sub-seeds from one seed.
#[must_use]
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The catalog families of the baseline trio, each with its arrival,
/// duration and size laws.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Family {
    /// Decreasing rate per unit capacity; Poisson arrivals, uniform sizes.
    Dec,
    /// Increasing rate per unit capacity; diurnal arrivals, Pareto
    /// durations, heavy-tailed sizes.
    Inc,
    /// Sawtooth (general) catalog; Poisson arrivals, bimodal durations,
    /// VM-shaped power-of-two sizes.
    Saw,
}

impl Family {
    /// Rotation order.
    pub const ALL: [Family; 3] = [Family::Dec, Family::Inc, Family::Saw];

    fn catalog(self) -> Catalog {
        match self {
            Family::Dec => dec_geometric(4, 4),
            Family::Inc => inc_geometric(4, 4),
            Family::Saw => sawtooth(4, 4),
        }
    }

    /// A seeded instance of `n` jobs.
    #[must_use]
    pub fn instance(self, n: usize, seed: u64) -> Instance {
        let catalog = self.catalog();
        let max = catalog.max_capacity();
        let (arrivals, durations, sizes) = match self {
            Family::Dec => (
                ArrivalProcess::Poisson { mean_gap: 3.0 },
                DurationLaw::Uniform { min: 10, max: 60 },
                SizeLaw::Uniform { min: 1, max },
            ),
            Family::Inc => (
                ArrivalProcess::Diurnal {
                    base: 0.1,
                    peak: 0.8,
                    period: 200,
                },
                DurationLaw::BoundedPareto {
                    min: 5,
                    max: 200,
                    alpha: 1.5,
                },
                SizeLaw::HeavyTail {
                    min: 1,
                    max,
                    alpha: 1.3,
                },
            ),
            Family::Saw => (
                ArrivalProcess::Poisson { mean_gap: 2.0 },
                DurationLaw::Bimodal {
                    short: 8,
                    long: 120,
                    p_long: 0.2,
                },
                // Power-of-two VM shapes, weight ∝ 1/√size.
                SizeLaw::Discrete(
                    std::iter::successors(Some(1u64), |s| Some(s * 2))
                        .take_while(|s| *s <= max)
                        .map(|s| (s, 1.0 / (s as f64).sqrt()))
                        .collect(),
                ),
            ),
        };
        WorkloadSpec {
            n,
            seed,
            arrivals,
            durations,
            sizes,
        }
        .generate(catalog)
    }
}

/// Job counts of one `plan-offline` pass: log-uniform over
/// `scale.plan_jobs`, one size at the middle of each of
/// `scale.plan_strata` equal strata, so every seed covers the range the
/// same way and the seed only changes the instances' contents.
#[must_use]
pub fn plan_sizes(scale: &Scale) -> Vec<usize> {
    let (lo, hi) = scale.plan_jobs;
    let k = scale.plan_strata as f64;
    (0..scale.plan_strata)
        .map(|i| (lo * (hi / lo).powf((i as f64 + 0.5) / k)).round() as usize)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        assert_eq!(
            Family::Saw.instance(50, mix(7, 1)),
            Family::Saw.instance(50, mix(7, 1))
        );
    }

    #[test]
    fn plan_sizes_cover_the_range_in_order() {
        let sizes = plan_sizes(&Scale::FULL);
        assert_eq!(sizes.len(), 32);
        assert!(sizes.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!((sizes[0], sizes[31]), (259, 2_412));
    }
}
