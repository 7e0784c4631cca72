//! # bshm-bench
//!
//! The evaluation harness for the bshm reproduction. The paper (Ren &
//! Tang, IPDPS 2020) is theory-only, so the "tables and figures" here are
//! the empirical validation suite defined in DESIGN.md §6: every theorem
//! and conjecture gets an experiment whose table or series the
//! [`reproduce`](../reproduce/index.html) binary regenerates. The
//! [`baseline`] observatory pins the deterministic answers of every
//! registered algorithm; wall-clock performance lives in `perfbench/`.

// Non-test code compares floats through explicit tolerances and reads
// the clock only through `bshm_obs::clock` (lists in clippy.toml).
#![cfg_attr(not(test), deny(clippy::float_cmp, clippy::disallowed_methods))]
#![warn(missing_docs)]

pub mod algs;
pub mod baseline;
pub mod experiments;
pub mod runner;
pub mod table;

use table::Table;

/// All experiment ids in canonical order.
pub const ALL_EXPERIMENTS: [&str; 20] = [
    "t1", "t2", "t3", "t4", "t5", "f1", "f2", "f3", "f4", "f5", "f6", "f7", "a1", "a2", "a3", "a4",
    "a5", "a6", "a7", "a8",
];

/// Runs one experiment by id (case-insensitive). `None` for unknown ids.
#[must_use]
pub fn run_experiment(id: &str) -> Option<Table> {
    let table = match id.to_lowercase().as_str() {
        "t1" => experiments::t1_dec_offline::run(),
        "t2" => experiments::t2_inc_offline::run(),
        "t3" => experiments::t3_exact_small::run(),
        "t4" => experiments::t4_baselines::run(),
        "t5" => experiments::t5_machine_counts::run(),
        "f1" => experiments::f1_dec_online_mu::run(),
        "f2" => experiments::f2_inc_online_mu::run(),
        "f3" => experiments::f3_general_m::run(),
        "f4" => experiments::f4_general_online_m::run(),
        "f5" => experiments::f5_dbp_substrate::run(),
        "f6" => experiments::f6_load_sweep::run(),
        "f7" => experiments::f7_clairvoyance::run(),
        "a1" => experiments::a1_placement_order::run(),
        "a2" => experiments::a2_group_b::run(),
        "a3" => experiments::a3_normalization::run(),
        "a4" => experiments::a4_placement_quality::run(),
        "a5" => experiments::a5_lb_tightness::run(),
        "a6" => experiments::a6_strip_depth::run(),
        "a7" => experiments::a7_theorem2_proof::run(),
        "a8" => experiments::a8_lemma4::run(),
        _ => return None,
    };
    Some(table)
}
