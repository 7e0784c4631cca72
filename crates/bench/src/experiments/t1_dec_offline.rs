//! T1 — DEC-OFFLINE approximation ratios (validates Theorem 1).
//!
//! Grid: workload family × number of types × μ × seeds, on DEC catalogs.
//! The theorem guarantees cost ≤ 14 × OPT for power-of-2 rates (≤ 28 × the
//! lower bound after rate rounding); measured ratios against the §II lower
//! bound should sit far below that.

use super::{cell, eval_cells, group_ratios, vm_sizes, Cell};
use crate::algs::Alg;
use crate::runner::{max, mean};
use crate::table::{fmt_ratio, Table};
use bshm_chart::placement::PlacementOrder;
use bshm_core::machine::Catalog;
use bshm_workload::catalogs::{dec_geometric, ec2_like_dec};
use bshm_workload::{ArrivalProcess, DurationLaw, SizeLaw, WorkloadSpec};

/// One offline-ratio table: T1 on DEC catalogs, T2 on INC catalogs.
pub(super) struct RatioTable {
    pub(super) id: &'static str,
    pub(super) title: &'static str,
    pub(super) claim: &'static str,
    pub(super) alg: Alg,
    /// The geometric catalog family, `(m, base capacity)`.
    pub(super) geometric: fn(usize, u64) -> Catalog,
    /// The EC2-flavoured catalog (non-power-of-2 rates: exercises
    /// normalization) and its label.
    pub(super) ec2: (Catalog, &'static str),
    pub(super) seeds: [u64; 3],
    /// The proven bound against the lower bound.
    pub(super) bound: u32,
}

fn grid(spec: &RatioTable) -> Vec<Cell> {
    let mut cells = Vec::new();
    for &m in &[2usize, 4, 6] {
        let catalog = (spec.geometric)(m, 4);
        let max_size = catalog.max_capacity();
        for &(mu_label, dur) in &[
            ("4", DurationLaw::Uniform { min: 20, max: 80 }),
            ("16", DurationLaw::Uniform { min: 5, max: 80 }),
        ] {
            for (fam, sizes) in [
                ("vm-mix", vm_sizes(max_size)),
                (
                    "heavy-tail",
                    SizeLaw::HeavyTail {
                        min: 1,
                        max: max_size,
                        alpha: 1.3,
                    },
                ),
            ] {
                for &seed in &spec.seeds {
                    let inst = WorkloadSpec {
                        n: 400,
                        seed,
                        arrivals: ArrivalProcess::Poisson { mean_gap: 3.0 },
                        durations: dur,
                        sizes: sizes.clone(),
                    }
                    .generate(catalog.clone());
                    cells.push(cell(
                        vec![
                            fam.to_string(),
                            format!("geo-m{m}"),
                            mu_label.to_string(),
                            seed.to_string(),
                        ],
                        inst,
                    ));
                }
            }
        }
    }
    let (catalog, label) = &spec.ec2;
    for &seed in &spec.seeds {
        let inst = WorkloadSpec {
            n: 400,
            seed,
            arrivals: ArrivalProcess::Poisson { mean_gap: 3.0 },
            durations: DurationLaw::Uniform { min: 10, max: 60 },
            sizes: vm_sizes(catalog.max_capacity()),
        }
        .generate(catalog.clone());
        cells.push(cell(
            vec![
                "vm-mix".to_string(),
                (*label).to_string(),
                "6".to_string(),
                seed.to_string(),
            ],
            inst,
        ));
    }
    cells
}

/// Runs the grid of `spec` and tabulates mean and max ratio per group.
pub(super) fn ratio_table(spec: &RatioTable) -> Table {
    let algs = [spec.alg];
    let results = eval_cells(grid(spec), &algs);
    let mut table = Table::new(
        spec.id,
        spec.title,
        spec.claim,
        vec!["sizes", "catalog", "mu", "mean ratio", "max ratio", "bound"],
    );
    let mut worst = 0f64;
    for (key, ratios) in group_ratios(&results, 1, algs.len()) {
        let r = &ratios[0];
        worst = worst.max(max(r));
        table.push_row(vec![
            key[0].clone(),
            key[1].clone(),
            key[2].clone(),
            fmt_ratio(mean(r)),
            fmt_ratio(max(r)),
            spec.bound.to_string(),
        ]);
    }
    table.note(format!(
        "worst observed ratio {} — bound holds: {}",
        fmt_ratio(worst),
        worst <= f64::from(spec.bound)
    ));
    table
}

/// Runs T1.
#[must_use]
pub fn run() -> Table {
    ratio_table(&RatioTable {
        id: "T1",
        title: "DEC-OFFLINE cost / lower-bound ratio",
        claim: "Theorem 1: DEC-OFFLINE is a 14-approximation (28× vs the LB after rate rounding)",
        alg: Alg::DecOffline(PlacementOrder::Arrival),
        geometric: dec_geometric,
        ec2: (ec2_like_dec(), "ec2-dec"),
        seeds: [101, 202, 303],
        bound: 28,
    })
}
