//! The per-experiment harness (see DESIGN.md §6 for the index).
//!
//! Every experiment regenerates one table or figure-series of the
//! evaluation: it builds a reproducible workload grid, runs the relevant
//! schedulers, validates every schedule, compares costs against the §II
//! lower bound, and returns a [`Table`](crate::table::Table).

pub mod a1_placement_order;
pub mod a2_group_b;
pub mod a3_normalization;
pub mod a4_placement_quality;
pub mod a5_lb_tightness;
pub mod a6_strip_depth;
pub mod a7_theorem2_proof;
pub mod a8_lemma4;
pub mod f1_dec_online_mu;
pub mod f2_inc_online_mu;
pub mod f3_general_m;
pub mod f4_general_online_m;
pub mod f5_dbp_substrate;
pub mod f6_load_sweep;
pub mod f7_clairvoyance;
pub mod t1_dec_offline;
pub mod t2_inc_offline;
pub mod t3_exact_small;
pub mod t4_baselines;
pub mod t5_machine_counts;

use crate::algs::{evaluate, Alg, Eval};
use crate::runner::par_map;
use bshm_core::cost::Cost;
use bshm_core::instance::Instance;
use bshm_core::lower_bound::lower_bound;
use bshm_workload::SizeLaw;

/// One grid point: a labelled instance.
pub struct Cell {
    /// Row-key fields (workload family, parameters, seed, …).
    pub label: Vec<String>,
    /// The generated instance.
    pub instance: Instance,
}

/// Evaluation of all `algs` on one cell.
pub struct CellResult {
    /// The cell's row-key fields.
    pub label: Vec<String>,
    /// The §II lower bound.
    pub lb: Cost,
    /// One evaluation per algorithm, in `algs` order.
    pub evals: Vec<Eval>,
}

/// Runs every algorithm on every cell in parallel (one thread per cell;
/// the lower bound is computed once per cell).
#[must_use]
pub fn eval_cells(cells: Vec<Cell>, algs: &[Alg]) -> Vec<CellResult> {
    par_map(cells, None, |cell| {
        let lb = lower_bound(&cell.instance);
        let evals = algs
            .iter()
            .map(|&a| evaluate(a, &cell.instance, lb))
            .collect();
        CellResult {
            label: cell.label.clone(),
            lb,
            evals,
        }
    })
}

/// Groups cell results by label prefix (dropping the last `drop` fields —
/// typically the seed) and returns, per group, the per-algorithm ratio
/// vectors for aggregation.
#[must_use]
pub fn group_ratios(
    results: &[CellResult],
    drop: usize,
    n_algs: usize,
) -> Vec<(Vec<String>, Vec<Vec<f64>>)> {
    let mut groups: Vec<(Vec<String>, Vec<Vec<f64>>)> = Vec::new();
    for r in results {
        let key: Vec<String> = r.label[..r.label.len() - drop].to_vec();
        let entry = match groups.iter_mut().find(|(k, _)| *k == key) {
            Some(e) => e,
            None => {
                groups.push((key, vec![Vec::new(); n_algs]));
                groups.last_mut().expect("just pushed")
            }
        };
        for (i, e) in r.evals.iter().enumerate() {
            entry.1[i].push(e.ratio);
        }
    }
    groups
}

/// "VM-shaped" discrete size law: powers of two up to `max`, weighted
/// towards small shapes (the typical cloud request mix). Keeps demand
/// vectors on a coarse lattice, which both mirrors reality and keeps the
/// exact lower-bound DP fast.
#[must_use]
pub fn vm_sizes(max: u64) -> SizeLaw {
    let mut items = Vec::new();
    let mut s = 1u64;
    while s <= max {
        // Weight ∝ 1/s^0.5: small shapes dominate but big ones appear.
        items.push((s, 1.0 / (s as f64).sqrt()));
        s *= 2;
    }
    SizeLaw::Discrete(items)
}

/// Convenience constructor for a labelled instance cell.
#[must_use]
pub fn cell(label: Vec<String>, instance: Instance) -> Cell {
    Cell { label, instance }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bshm_chart::placement::PlacementOrder;
    use bshm_workload::catalogs::dec_geometric;
    use bshm_workload::{ArrivalProcess, DurationLaw, WorkloadSpec};

    #[test]
    fn eval_cells_small_grid() {
        let cells: Vec<Cell> = (0..3)
            .map(|seed| {
                let inst = WorkloadSpec {
                    n: 40,
                    seed,
                    arrivals: ArrivalProcess::Poisson { mean_gap: 6.0 },
                    durations: DurationLaw::Uniform { min: 10, max: 20 },
                    sizes: vm_sizes(64),
                }
                .generate(dec_geometric(3, 4));
                cell(vec!["fam".into(), seed.to_string()], inst)
            })
            .collect();
        let algs = [Alg::DecOffline(PlacementOrder::Arrival), Alg::FirstFitAny];
        let results = eval_cells(cells, &algs);
        assert_eq!(results.len(), 3);
        for r in &results {
            assert!(r.lb > 0);
            assert_eq!(r.evals.len(), 2);
        }
        let grouped = group_ratios(&results, 1, 2);
        assert_eq!(grouped.len(), 1);
        assert_eq!(grouped[0].1[0].len(), 3);
    }

    #[test]
    fn vm_sizes_are_powers_of_two() {
        match vm_sizes(64) {
            SizeLaw::Discrete(items) => {
                let sizes: Vec<u64> = items.iter().map(|(s, _)| *s).collect();
                assert_eq!(sizes, vec![1, 2, 4, 8, 16, 32, 64]);
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
