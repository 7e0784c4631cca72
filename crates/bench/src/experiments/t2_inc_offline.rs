//! T2 — INC-OFFLINE approximation ratios (validates the §IV 9-approximation).
//!
//! The T1 grid (workload family × number of types × μ × seeds) on INC
//! catalogs.

use super::t1_dec_offline::{ratio_table, RatioTable};
use crate::algs::Alg;
use crate::table::Table;
use bshm_chart::placement::PlacementOrder;
use bshm_workload::catalogs::{ec2_like_inc, inc_geometric};

/// Runs T2.
#[must_use]
pub fn run() -> Table {
    ratio_table(&RatioTable {
        id: "T2",
        title: "INC-OFFLINE cost / lower-bound ratio",
        claim: "§IV: INC-OFFLINE is a 9-approximation for BSHM-INC",
        alg: Alg::IncOffline(PlacementOrder::Arrival),
        geometric: inc_geometric,
        ec2: (ec2_like_inc(), "ec2-inc"),
        seeds: [111, 222, 333],
        bound: 9,
    })
}
