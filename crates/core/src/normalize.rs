//! Cost-rate normalization (§II).
//!
//! The paper's DEC and general-case algorithms assume every cost rate is a
//! power of 2. This is arranged by a preprocessing step that loses at most
//! a factor of 2 in the approximation/competitive ratio:
//!
//! 1. normalize rates by `r_1` (so the cheapest type has rate 1),
//! 2. round each normalized rate *up* to the nearest power of 2,
//! 3. whenever two successive types end up with the same rounded rate,
//!    delete the lower-indexed type (never schedule on it).
//!
//! The result is a sub-catalog whose *rounded* rates are strictly
//! increasing powers of two (so `r̂_{i+1}/r̂_i ≥ 2` is an integer).
//! Algorithms make decisions with the rounded rates; costs are always
//! reported with the surviving types' original rates, which is what makes
//! the ≤2× loss observable (experiment A3).

use crate::machine::{Catalog, TypeIndex};
use serde::{Deserialize, Serialize};

/// A catalog restricted to the types kept by power-of-2 normalization,
/// carrying both the original rates (for cost accounting) and the rounded
/// rates (for algorithmic decisions).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct NormalizedCatalog {
    /// The surviving types with their original capacities and rates,
    /// still strictly increasing in both.
    catalog: Catalog,
    /// Rounded rates `r̂_i` (powers of 2, strictly increasing), aligned
    /// with `catalog`. `r̂_0 = 1`.
    rates_pow2: Vec<u64>,
    /// For each surviving type, its index in the original catalog.
    original: Vec<TypeIndex>,
}

/// Smallest power of two `≥ num/den` (exact rational comparison).
/// Panics if the result would exceed `u64::MAX` (rates beyond 2⁶³ apart).
#[must_use]
#[expect(
    clippy::expect_used,
    reason = "deliberate trap — a rate ratio beyond 2^63 is unrepresentable input"
)]
pub fn pow2_ceil_ratio(num: u64, den: u64) -> u64 {
    assert!(den > 0);
    let mut p: u64 = 1;
    // p ≥ num/den ⟺ p·den ≥ num.
    while u128::from(p) * u128::from(den) < u128::from(num) {
        p = p.checked_mul(2).expect("power-of-2 rate overflows u64");
    }
    p
}

impl NormalizedCatalog {
    /// Runs the §II normalization on a validated catalog.
    #[must_use]
    pub fn from_catalog(catalog: &Catalog) -> Self {
        let base_rate = catalog.types()[0].rate;
        // Rounded rate per original type; non-decreasing because original
        // rates strictly increase.
        let rounded: Vec<u64> = catalog
            .types()
            .iter()
            .map(|t| pow2_ceil_ratio(t.rate, base_rate))
            .collect();
        // Keep, for each distinct rounded rate, the highest-indexed type
        // (the paper deletes the lower of two successive equal types).
        let mut keep: Vec<usize> = Vec::with_capacity(rounded.len());
        for i in 0..rounded.len() {
            if i + 1 == rounded.len() || rounded[i + 1] != rounded[i] {
                keep.push(i);
            }
        }
        let kept_types = keep.iter().map(|&i| catalog.types()[i]).collect();
        #[expect(
            clippy::expect_used,
            reason = "a sorted subset of a valid catalog stays valid"
        )]
        let kept_catalog = Catalog::new(kept_types).expect("subset stays valid");
        Self {
            rates_pow2: keep.iter().map(|&i| rounded[i]).collect(),
            original: keep.into_iter().map(TypeIndex).collect(),
            catalog: kept_catalog,
        }
    }

    /// The surviving sub-catalog (original capacities and rates).
    #[must_use]
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Rounded power-of-2 rate `r̂_i` of surviving type `i`.
    #[must_use]
    pub fn rate_pow2(&self, i: TypeIndex) -> u64 {
        self.rates_pow2[i.0]
    }

    /// All rounded rates.
    #[must_use]
    pub fn rates_pow2(&self) -> &[u64] {
        &self.rates_pow2
    }

    /// The original catalog index of surviving type `i`.
    #[must_use]
    pub fn original_index(&self, i: TypeIndex) -> TypeIndex {
        self.original[i.0]
    }

    /// Integer ratio `r̂_{i+1} / r̂_i` (≥ 2). Panics when `i` is the last type.
    #[must_use]
    pub fn rate_ratio(&self, i: TypeIndex) -> u64 {
        let a = self.rates_pow2[i.0];
        let b = self.rates_pow2[i.0 + 1];
        debug_assert!(b.is_multiple_of(a) && b / a >= 2);
        b / a
    }

    /// Number of surviving types.
    #[must_use]
    pub fn len(&self) -> usize {
        self.catalog.len()
    }

    /// Always false.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Translates a schedule expressed in surviving-type indices back to the
    /// original catalog's type indices.
    #[must_use]
    pub fn translate_schedule(
        &self,
        schedule: &crate::schedule::Schedule,
    ) -> crate::schedule::Schedule {
        let mut out = crate::schedule::Schedule::new();
        for m in schedule.machines() {
            let id = out.add_machine(self.original_index(m.machine_type), m.label.clone());
            for &j in &m.jobs {
                out.assign(id, j);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::MachineType;

    fn mt(g: u64, r: u64) -> MachineType {
        MachineType::new(g, r)
    }

    #[test]
    fn pow2_ceil_ratio_exact() {
        assert_eq!(pow2_ceil_ratio(1, 1), 1);
        assert_eq!(pow2_ceil_ratio(2, 1), 2);
        assert_eq!(pow2_ceil_ratio(3, 1), 4);
        assert_eq!(pow2_ceil_ratio(4, 1), 4);
        assert_eq!(pow2_ceil_ratio(5, 4), 2);
        assert_eq!(pow2_ceil_ratio(4, 4), 1);
        assert_eq!(pow2_ceil_ratio(9, 4), 4);
        assert_eq!(pow2_ceil_ratio(1, 7), 1);
    }

    #[test]
    fn normalization_rounds_and_dedups() {
        // Rates relative to 4: 1, 1.25→2, 1.75→2, 4→4. Types 1 and 2 share
        // rounded rate 2 → keep the higher-indexed (capacity 12).
        let c = Catalog::new(vec![mt(4, 4), mt(8, 5), mt(12, 7), mt(30, 16)]).unwrap();
        let n = NormalizedCatalog::from_catalog(&c);
        assert_eq!(n.len(), 3);
        assert_eq!(n.rates_pow2(), &[1, 2, 4]);
        assert_eq!(n.catalog().types(), &[mt(4, 4), mt(12, 7), mt(30, 16)]);
        assert_eq!(n.original_index(TypeIndex(0)), TypeIndex(0));
        assert_eq!(n.original_index(TypeIndex(1)), TypeIndex(2));
        assert_eq!(n.original_index(TypeIndex(2)), TypeIndex(3));
    }

    #[test]
    fn rate_ratios_are_integers_at_least_two() {
        let c = Catalog::new(vec![mt(1, 1), mt(10, 3), mt(100, 17)]).unwrap();
        let n = NormalizedCatalog::from_catalog(&c);
        // Rounded: 1, 4, 32.
        assert_eq!(n.rates_pow2(), &[1, 4, 32]);
        assert_eq!(n.rate_ratio(TypeIndex(0)), 4);
        assert_eq!(n.rate_ratio(TypeIndex(1)), 8);
    }

    #[test]
    fn rounded_rates_within_factor_two_of_true() {
        let c = Catalog::new(vec![mt(2, 3), mt(5, 4), mt(9, 11), mt(20, 24)]).unwrap();
        let n = NormalizedCatalog::from_catalog(&c);
        let base = 3u128; // r_1
        for (i, t) in n.catalog().types().iter().enumerate() {
            let rounded = u128::from(n.rates_pow2()[i]);
            // r̂ ≥ r/r_1 and r̂ < 2·r/r_1, exactly: r̂·r_1 ≥ r and r̂·r_1 < 2r.
            assert!(rounded * base >= u128::from(t.rate));
            assert!(rounded * base < 2 * u128::from(t.rate) || rounded == 1);
        }
    }

    #[test]
    fn single_type_is_identity() {
        let c = Catalog::new(vec![mt(7, 5)]).unwrap();
        let n = NormalizedCatalog::from_catalog(&c);
        assert_eq!(n.len(), 1);
        assert_eq!(n.rates_pow2(), &[1]);
        assert_eq!(n.catalog().types(), c.types());
    }

    #[test]
    fn translate_schedule_maps_indices() {
        let c = Catalog::new(vec![mt(4, 4), mt(8, 5), mt(12, 7)]).unwrap();
        let n = NormalizedCatalog::from_catalog(&c);
        // Survivors: type0 (rate 1) and type2 (rounded 2).
        assert_eq!(n.len(), 2);
        let mut s = crate::schedule::Schedule::new();
        let m = s.add_machine(TypeIndex(1), "x");
        s.assign(m, crate::job::JobId(0));
        let t = n.translate_schedule(&s);
        assert_eq!(t.machines()[0].machine_type, TypeIndex(2));
        assert_eq!(t.machines()[0].jobs, vec![crate::job::JobId(0)]);
    }
}
