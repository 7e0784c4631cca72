//! Machine types and catalogs.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Index of a machine type within a catalog (0-based; the paper's type `i`
/// is `TypeIndex(i-1)` here).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct TypeIndex(pub usize);

impl fmt::Debug for TypeIndex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

impl fmt::Display for TypeIndex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

/// A machine type: capacity `g` and busy-time cost rate `r`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct MachineType {
    /// Capacity `g_i` — the total size of concurrently hosted jobs may never
    /// exceed this.
    pub capacity: u64,
    /// Cost rate `r_i` charged per tick while the machine is busy.
    pub rate: u64,
}

impl MachineType {
    /// Creates a machine type; panics on zero capacity or rate.
    #[must_use]
    pub fn new(capacity: u64, rate: u64) -> Self {
        assert!(capacity > 0, "machine capacity must be positive");
        assert!(rate > 0, "machine rate must be positive");
        Self { capacity, rate }
    }

    /// Amortized cost rate per resource unit, `r_i / g_i`, as an exact
    /// comparison-friendly pair. Use [`cmp_amortized`] to compare.
    #[must_use]
    pub fn amortized(&self) -> (u64, u64) {
        (self.rate, self.capacity)
    }
}

/// Compares `a.rate/a.capacity` with `b.rate/b.capacity` exactly
/// (cross-multiplication in `u128`).
#[must_use]
pub fn cmp_amortized(a: &MachineType, b: &MachineType) -> std::cmp::Ordering {
    let lhs = u128::from(a.rate) * u128::from(b.capacity);
    let rhs = u128::from(b.rate) * u128::from(a.capacity);
    lhs.cmp(&rhs)
}

/// Which structured case of BSHM a catalog falls into (§I).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum CatalogClass {
    /// `r_i/g_i` non-increasing in `i` (BSHM-DEC). A single-type catalog is
    /// classified as DEC.
    Dec,
    /// `r_i/g_i` non-decreasing in `i` (BSHM-INC), and not DEC.
    Inc,
    /// Neither monotone (general BSHM).
    General,
}

/// Errors from catalog validation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CatalogError {
    /// The catalog has no machine types.
    Empty,
    /// The smallest type has zero capacity or zero rate (every later
    /// type exceeds it in both, so only type 0 can).
    ZeroCapacityOrRate,
    /// Capacities are not strictly increasing at the given adjacent pair.
    CapacitiesNotStrictlyIncreasing(usize),
    /// Rates are not strictly increasing at the given adjacent pair.
    ///
    /// WLOG in the paper (§II footnote): with `g_i < g_{i+1}`, a type with
    /// `r_i ≥ r_{i+1}` is dominated and must be removed by the caller
    /// ([`Catalog::from_dominated`] does this).
    RatesNotStrictlyIncreasing(usize),
}

impl fmt::Display for CatalogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CatalogError::Empty => write!(f, "catalog has no machine types"),
            CatalogError::ZeroCapacityOrRate => write!(f, "type 0 has zero capacity or rate"),
            CatalogError::CapacitiesNotStrictlyIncreasing(i) => {
                write!(
                    f,
                    "capacities not strictly increasing between types {i} and {}",
                    i + 1
                )
            }
            CatalogError::RatesNotStrictlyIncreasing(i) => {
                write!(
                    f,
                    "rates not strictly increasing between types {i} and {}",
                    i + 1
                )
            }
        }
    }
}

impl std::error::Error for CatalogError {}

/// A validated catalog of machine types, sorted so that
/// `g_0 < g_1 < … < g_{m-1}` and `r_0 < r_1 < … < r_{m-1}` (§II).
/// Decoding from JSON goes through [`Catalog::new`].
#[derive(Clone, Debug, PartialEq, Eq, Serialize)]
pub struct Catalog {
    types: Vec<MachineType>,
}

impl Deserialize for Catalog {
    fn deserialize(de: &mut serde::Decoder<'_>) -> Result<Self, serde::Error> {
        let raw = wire::Catalog::deserialize(de)?;
        Catalog::new(raw.types).map_err(|e| serde::Error(format!("Catalog: {e}")))
    }
}

/// The unchecked JSON shape of [`Catalog`], named alike so that decode
/// errors name the public type.
mod wire {
    use super::MachineType;
    use serde::Deserialize;

    #[derive(Deserialize)]
    pub(super) struct Catalog {
        pub(super) types: Vec<MachineType>,
    }
}

impl Catalog {
    /// Builds a catalog from types already sorted by capacity with
    /// positive, strictly increasing capacities and rates.
    pub fn new(types: Vec<MachineType>) -> Result<Self, CatalogError> {
        let Some(smallest) = types.first() else {
            return Err(CatalogError::Empty);
        };
        if smallest.capacity == 0 || smallest.rate == 0 {
            return Err(CatalogError::ZeroCapacityOrRate);
        }
        for (i, w) in types.windows(2).enumerate() {
            if w[0].capacity >= w[1].capacity {
                return Err(CatalogError::CapacitiesNotStrictlyIncreasing(i));
            }
            if w[0].rate >= w[1].rate {
                return Err(CatalogError::RatesNotStrictlyIncreasing(i));
            }
        }
        Ok(Self { types })
    }

    /// Builds a catalog from an arbitrary list: sorts by capacity, merges
    /// equal capacities (keeping the cheaper rate) and drops dominated types
    /// (a type is dominated when some larger-capacity type is no more
    /// expensive — §II footnote 1).
    pub fn from_dominated(mut types: Vec<MachineType>) -> Result<Self, CatalogError> {
        if types.is_empty() {
            return Err(CatalogError::Empty);
        }
        types.sort_unstable_by(|a, b| a.capacity.cmp(&b.capacity).then(a.rate.cmp(&b.rate)));
        // Keep the cheapest per capacity, then sweep from the right keeping
        // only types strictly cheaper than every larger type.
        types.dedup_by(|next, prev| {
            if next.capacity == prev.capacity {
                // `prev` already has the lower rate due to the sort order.
                true
            } else {
                false
            }
        });
        let mut kept: Vec<MachineType> = Vec::with_capacity(types.len());
        let mut min_rate_above = u64::MAX;
        for t in types.into_iter().rev() {
            if t.rate < min_rate_above {
                min_rate_above = t.rate;
                kept.push(t);
            }
        }
        kept.reverse();
        Self::new(kept)
    }

    /// Number of machine types `m`.
    #[must_use]
    pub fn len(&self) -> usize {
        self.types.len()
    }

    /// Always false: a catalog holds at least one type.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The machine types, ascending by capacity.
    #[must_use]
    pub fn types(&self) -> &[MachineType] {
        &self.types
    }

    /// The type at index `i` (panics when out of range).
    #[must_use]
    pub fn get(&self, i: TypeIndex) -> MachineType {
        self.types[i.0]
    }

    /// Capacity `g_i`; `capacity_below(TypeIndex(0))` is `g_0 = 0` as in §II.
    #[must_use]
    pub fn capacity_below(&self, i: TypeIndex) -> u64 {
        if i.0 == 0 {
            0
        } else {
            self.types[i.0 - 1].capacity
        }
    }

    /// Largest capacity `g_m`.
    #[must_use]
    #[expect(clippy::expect_used, reason = "Catalog::new rejects empty type lists")]
    pub fn max_capacity(&self) -> u64 {
        self.types.last().expect("catalog non-empty").capacity
    }

    /// The smallest type whose capacity fits `size`, i.e. the size class of a
    /// job (`s(J) ∈ (g_{i-1}, g_i]` ⇒ class `i`). `None` when the job is too
    /// large for every machine type (infeasible instance).
    #[must_use]
    pub fn size_class(&self, size: u64) -> Option<TypeIndex> {
        let idx = self.types.partition_point(|t| t.capacity < size);
        (idx < self.types.len()).then_some(TypeIndex(idx))
    }

    /// Classifies the catalog into DEC / INC / general (§I).
    #[must_use]
    pub fn classify(&self) -> CatalogClass {
        use std::cmp::Ordering;
        let mut non_increasing = true; // DEC
        let mut non_decreasing = true; // INC
        for w in self.types.windows(2) {
            match cmp_amortized(&w[0], &w[1]) {
                Ordering::Less => non_increasing = false,
                Ordering::Greater => non_decreasing = false,
                Ordering::Equal => {}
            }
        }
        if non_increasing {
            CatalogClass::Dec
        } else if non_decreasing {
            CatalogClass::Inc
        } else {
            CatalogClass::General
        }
    }

    /// Iterates type indices `0..m`.
    pub fn indices(&self) -> impl Iterator<Item = TypeIndex> {
        (0..self.types.len()).map(TypeIndex)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mt(g: u64, r: u64) -> MachineType {
        MachineType::new(g, r)
    }

    #[test]
    fn new_validates_monotonicity() {
        assert!(Catalog::new(vec![mt(1, 1), mt(2, 3)]).is_ok());
        assert_eq!(Catalog::new(vec![]).unwrap_err(), CatalogError::Empty);
        assert_eq!(
            Catalog::new(vec![mt(2, 1), mt(2, 3)]).unwrap_err(),
            CatalogError::CapacitiesNotStrictlyIncreasing(0)
        );
        assert_eq!(
            Catalog::new(vec![mt(1, 3), mt(2, 3)]).unwrap_err(),
            CatalogError::RatesNotStrictlyIncreasing(0)
        );
        let unchecked = |capacity, rate| MachineType { capacity, rate };
        for smallest in [unchecked(0, 1), unchecked(1, 0)] {
            assert_eq!(
                Catalog::new(vec![smallest, mt(2, 3)]).unwrap_err(),
                CatalogError::ZeroCapacityOrRate
            );
        }
    }

    #[test]
    fn decoding_goes_through_new() {
        let c: Catalog = serde_json::from_str(r#"{"types":[{"capacity":4,"rate":1}]}"#).unwrap();
        assert_eq!(c.types(), &[mt(4, 1)]);
        for (types, err) in [
            ("", "catalog has no machine types"),
            (
                r#"{"capacity":4,"rate":2},{"capacity":4,"rate":3}"#,
                "capacities not strictly increasing between types 0 and 1",
            ),
            (
                r#"{"capacity":0,"rate":2}"#,
                "type 0 has zero capacity or rate",
            ),
        ] {
            let text = format!(r#"{{"types":[{types}]}}"#);
            let e = serde_json::from_str::<Catalog>(&text).unwrap_err();
            assert_eq!(e.to_string(), format!("Catalog: {err}"));
        }
    }

    #[test]
    fn from_dominated_removes_dominated_types() {
        // (4, 10) dominates (2, 10) and (3, 12).
        let c = Catalog::from_dominated(vec![mt(2, 10), mt(3, 12), mt(4, 10), mt(8, 11)]).unwrap();
        assert_eq!(c.types(), &[mt(4, 10), mt(8, 11)]);
    }

    #[test]
    fn from_dominated_merges_equal_capacity() {
        let c = Catalog::from_dominated(vec![mt(4, 9), mt(4, 7), mt(8, 20)]).unwrap();
        assert_eq!(c.types(), &[mt(4, 7), mt(8, 20)]);
    }

    #[test]
    fn size_class_boundaries() {
        let c = Catalog::new(vec![mt(4, 1), mt(10, 2), mt(20, 5)]).unwrap();
        assert_eq!(c.size_class(1), Some(TypeIndex(0)));
        assert_eq!(c.size_class(4), Some(TypeIndex(0)));
        assert_eq!(c.size_class(5), Some(TypeIndex(1)));
        assert_eq!(c.size_class(10), Some(TypeIndex(1)));
        assert_eq!(c.size_class(11), Some(TypeIndex(2)));
        assert_eq!(c.size_class(20), Some(TypeIndex(2)));
        assert_eq!(c.size_class(21), None);
    }

    #[test]
    fn capacity_below_uses_g0_zero() {
        let c = Catalog::new(vec![mt(4, 1), mt(10, 2)]).unwrap();
        assert_eq!(c.capacity_below(TypeIndex(0)), 0);
        assert_eq!(c.capacity_below(TypeIndex(1)), 4);
    }

    #[test]
    fn classification() {
        // DEC: amortized 1/1=1, 2/4=0.5, 3/12=0.25.
        let dec = Catalog::new(vec![mt(1, 1), mt(4, 2), mt(12, 3)]).unwrap();
        assert_eq!(dec.classify(), CatalogClass::Dec);
        // INC: 1/4, 3/8, 7/12.
        let inc = Catalog::new(vec![mt(4, 1), mt(8, 3), mt(12, 7)]).unwrap();
        assert_eq!(inc.classify(), CatalogClass::Inc);
        // General: 1/2, 2/8(=0.25), 7/12(≈0.58).
        let gen = Catalog::new(vec![mt(2, 1), mt(8, 2), mt(12, 7)]).unwrap();
        assert_eq!(gen.classify(), CatalogClass::General);
        // Single type: DEC by convention.
        let one = Catalog::new(vec![mt(5, 3)]).unwrap();
        assert_eq!(one.classify(), CatalogClass::Dec);
    }

    #[test]
    fn amortized_comparison_is_exact() {
        // 3/7 vs 5/12: 36 vs 35 → 3/7 > 5/12.
        let a = mt(7, 3);
        let b = mt(12, 5);
        assert_eq!(cmp_amortized(&a, &b), std::cmp::Ordering::Greater);
        assert_eq!(cmp_amortized(&b, &a), std::cmp::Ordering::Less);
        assert_eq!(cmp_amortized(&a, &a), std::cmp::Ordering::Equal);
    }
}
