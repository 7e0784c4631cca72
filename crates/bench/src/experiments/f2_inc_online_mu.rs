//! F2 — INC-ONLINE competitive ratio as a function of μ (validates the
//! §IV `(9/4)μ + 27/4` bound).

use super::f1_dec_online_mu::poisson_and_pin;
use super::{eval_cells, group_ratios, Cell};
use crate::algs::Alg;
use crate::runner::{max, mean};
use crate::table::{fmt_ratio, Table};
use bshm_chart::placement::PlacementOrder;
use bshm_workload::catalogs::inc_geometric;

const SEEDS: [u64; 3] = [15, 16, 17];
const MUS: [u64; 7] = [1, 2, 4, 8, 16, 32, 64];

fn grid() -> Vec<Cell> {
    let catalog = inc_geometric(4, 4);
    let mut cells = Vec::new();
    for &mu in &MUS {
        for &seed in &SEEDS {
            cells.extend(poisson_and_pin(&catalog, mu, seed));
        }
    }
    cells
}

/// Runs F2.
#[must_use]
pub fn run() -> Table {
    let algs = [Alg::IncOnline, Alg::IncOffline(PlacementOrder::Arrival)];
    let results = eval_cells(grid(), &algs);
    let mut table = Table::new(
        "F2",
        "INC-ONLINE ratio vs mu (series)",
        "§IV: INC-ONLINE is (9/4)mu + 27/4-competitive; growth is O(mu) while offline stays flat",
        vec![
            "family",
            "mu",
            "inc-online mean",
            "inc-online max",
            "inc-offline mean",
            "bound 2.25mu+6.75",
        ],
    );
    let mut all_hold = true;
    for (key, ratios) in group_ratios(&results, 1, algs.len()) {
        let mu: u64 = key[1].parse().expect("mu label");
        let bound = 2.25 * mu as f64 + 6.75;
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
    table.note(format!("all points under bound: {all_hold}"));
    table.note(
        "poisson: Uniform[10,10*mu] durations; pin: batch + bimodal stragglers; INC catalog m=4"
            .to_string(),
    );
    table
}
