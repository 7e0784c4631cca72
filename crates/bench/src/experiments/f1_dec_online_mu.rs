//! F1 — DEC-ONLINE competitive ratio as a function of μ (validates
//! Theorem 2's `32(μ+1)` bound and its `O(μ)` shape).

use super::{cell, eval_cells, group_ratios, vm_sizes, Cell};
use crate::algs::Alg;
use crate::runner::{max, mean};
use crate::table::{fmt_ratio, Table};
use bshm_chart::placement::PlacementOrder;
use bshm_core::machine::Catalog;
use bshm_workload::catalogs::dec_geometric;
use bshm_workload::{ArrivalProcess, DurationLaw, WorkloadSpec};

const SEEDS: [u64; 3] = [5, 6, 7];
const MUS: [u64; 7] = [1, 2, 4, 8, 16, 32, 64];

/// The two seeded families of one (μ, seed) point, shared with F2.
pub(super) fn poisson_and_pin(catalog: &Catalog, mu: u64, seed: u64) -> [Cell; 2] {
    let family = |name: &str, n, arrivals, durations| {
        let inst = WorkloadSpec {
            n,
            seed,
            arrivals,
            durations,
            sizes: vm_sizes(catalog.max_capacity()),
        }
        .generate(catalog.clone());
        cell(
            vec![name.to_string(), mu.to_string(), seed.to_string()],
            inst,
        )
    };
    [
        // Steady-state family: Poisson arrivals, uniform durations.
        family(
            "poisson",
            500,
            ArrivalProcess::Poisson { mean_gap: 3.0 },
            DurationLaw::Uniform {
                min: 10,
                max: 10 * mu,
            },
        ),
        // Straggler-pinning family (the lower-bound construction of ref
        // [11]): a batch packs densely, then most jobs depart quickly while
        // a few stragglers pin every machine busy for μ× longer. This is
        // where O(μ) growth actually shows.
        family(
            "pin",
            (200 + 20 * mu as usize).min(1_500),
            ArrivalProcess::Batch,
            DurationLaw::Bimodal {
                short: 10,
                long: 10 * mu,
                p_long: 0.02,
            },
        ),
    ]
}

fn grid() -> Vec<Cell> {
    let catalog = dec_geometric(4, 4);
    let mut cells = Vec::new();
    for &mu in &MUS {
        for &seed in &SEEDS {
            cells.extend(poisson_and_pin(&catalog, mu, seed));
        }
        // Deterministic decaying staircase: waves of unit jobs whose
        // lifetimes double per wave (μ = 2^{waves−1}); punishes early bulk
        // commitment. One cell per μ (no seed dependence).
        let levels = 64 - u64::leading_zeros(mu.max(1)); // bit length ⇒ μ_stair = 2^⌊log₂ μ⌋
        let jobs = bshm_workload::adversarial::decay_staircase(levels.min(12), 24, 10, 2);
        let inst = bshm_core::instance::Instance::new(jobs, catalog.clone())
            .expect("staircase fits the catalog");
        cells.push(cell(
            vec!["stair".to_string(), mu.to_string(), "0".to_string()],
            inst,
        ));
    }
    cells
}

/// Runs F1.
#[must_use]
pub fn run() -> Table {
    let algs = [Alg::DecOnline, Alg::DecOffline(PlacementOrder::Arrival)];
    let results = eval_cells(grid(), &algs);
    let mut table = Table::new(
        "F1",
        "DEC-ONLINE ratio vs mu (series)",
        "Theorem 2: DEC-ONLINE is 32(mu+1)-competitive; growth is O(mu) while offline stays flat",
        vec![
            "family",
            "mu",
            "dec-online mean",
            "dec-online max",
            "dec-offline mean",
            "bound 32(mu+1)",
        ],
    );
    let mut all_hold = true;
    for (key, ratios) in group_ratios(&results, 1, algs.len()) {
        let mu: u64 = key[1].parse().expect("mu label");
        let bound = 32.0 * (mu as f64 + 1.0) * 2.0; // ×2 rate rounding
        all_hold &= max(&ratios[0]) <= bound;
        table.push_row(vec![
            key[0].clone(),
            key[1].clone(),
            fmt_ratio(mean(&ratios[0])),
            fmt_ratio(max(&ratios[0])),
            fmt_ratio(mean(&ratios[1])),
            fmt_ratio(bound),
        ]);
    }
    table.note(format!(
        "bound column includes the x2 rate-rounding factor; all points under bound: {all_hold}"
    ));
    table.note(
        "poisson: Uniform[10,10*mu] durations; pin: batch + bimodal stragglers; DEC catalog m=4"
            .to_string(),
    );
    table
}
