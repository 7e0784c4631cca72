//! # bshm-algos
//!
//! Every algorithm from *Busy-Time Scheduling on Heterogeneous Machines*
//! (Ren & Tang, IPDPS 2020), plus the substrates it builds on and the
//! baselines it is measured against:
//!
//! | Module | Contents | Paper |
//! |--------|----------|-------|
//! | [`dbp`] | single-type First Fit (μ+3) and Dual Coloring (4-approx) | §I-A refs \[13\]\[14\] |
//! | [`dec`] | DEC-OFFLINE (14-approx, Thm 1), DEC-ONLINE (32(μ+1), Thm 2) | §III |
//! | [`inc`] | INC-OFFLINE (9-approx), INC-ONLINE ((9/4)μ+27/4) | §IV |
//! | [`general`] | type forest, GENERAL-OFFLINE/-ONLINE (conjectured O(√m), O(√m·μ)) | §V |
//! | [`baseline`] | dedicated/first-fit/best-fit/single-type strawmen | — |
//! | [`exact`] | branch-and-bound optimum for tiny instances | — |
//! | [`registry`] | the named algorithms every caller dispatches on | — |
//!
//! Offline algorithms are plain functions `Instance → Schedule`; online
//! algorithms implement [`bshm_sim::OnlineScheduler`] and run under
//! [`bshm_sim::run_online`]. [`auto_offline`] and [`auto_online`] pick the
//! paper's algorithm for a catalog's class (DEC / INC / general).

// Shipping code stays panic-free, cast-clean, print-free and
// deterministic; test code is exempt. See DESIGN.md § Static analysis and
// the method/macro lists in clippy.toml.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        clippy::cast_possible_wrap,
        clippy::cast_lossless,
        clippy::print_stdout,
        clippy::print_stderr,
        clippy::dbg_macro,
        clippy::float_cmp,
        clippy::iter_over_hash_type,
        clippy::disallowed_methods,
        clippy::disallowed_macros,
        static_mut_refs,
        unsafe_code
    )
)]
#![warn(missing_docs)]

pub mod baseline;
pub mod clairvoyant;
pub mod dbp;
pub mod dec;
pub mod exact;
pub mod general;
pub mod inc;
pub mod registry;

use bshm_chart::placement::PlacementOrder;
use bshm_core::instance::Instance;
use bshm_core::machine::CatalogClass;
use bshm_core::ops::DecisionLog;
use bshm_core::schedule::Schedule;

pub use clairvoyant::DurationClassFirstFit;
pub use dec::{dec_offline, dec_offline_logged, dec_offline_with_depth, DecOnline};
pub use exact::{exact_optimal, ExactResult};
pub use general::{general_offline, general_offline_logged, GeneralOnline, TypeForest};
pub use inc::{
    inc_offline, inc_offline_logged, partitioned_ffd, partitioned_ffd_logged, IncOnline,
};

/// Schedules `instance` with the paper's offline algorithm for its catalog
/// class: DEC-OFFLINE, INC-OFFLINE or GENERAL-OFFLINE.
#[must_use]
pub fn auto_offline(instance: &Instance, order: PlacementOrder) -> Schedule {
    auto_offline_logged(instance, order, &mut DecisionLog::disabled())
}

/// [`auto_offline`] with per-job op accounting: the dispatched solver
/// charges every job's placement work to its trace in `log`.
#[must_use]
pub fn auto_offline_logged(
    instance: &Instance,
    order: PlacementOrder,
    log: &mut DecisionLog,
) -> Schedule {
    match instance.classify() {
        CatalogClass::Dec => dec_offline_logged(instance, order, log),
        CatalogClass::Inc => inc_offline_logged(instance, order, log),
        CatalogClass::General => general_offline_logged(instance, order, log),
    }
}

/// Runs the paper's online algorithm for the catalog class over the
/// non-clairvoyant driver and returns the schedule.
///
/// # Panics
/// Panics if the simulation fails (the paper's policies never overload a
/// machine; a failure indicates a bug).
#[must_use]
pub fn auto_online(instance: &Instance) -> Schedule {
    #[expect(
        clippy::expect_used,
        reason = "documented in the # Panics section above"
    )]
    let run = |mut s: &mut dyn bshm_sim::OnlineScheduler| {
        bshm_sim::run_online(instance, &mut s).expect("paper policies never overload")
    };
    match instance.classify() {
        CatalogClass::Dec => run(&mut DecOnline::new(instance.catalog())),
        CatalogClass::Inc => run(&mut IncOnline::new(instance.catalog())),
        CatalogClass::General => run(&mut GeneralOnline::new(instance.catalog())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bshm_core::job::Job;
    use bshm_core::machine::{Catalog, MachineType};
    use bshm_core::validate::validate_schedule;

    fn jobs() -> Vec<Job> {
        (0..50u32)
            .map(|i| {
                let x = u64::from(i);
                Job::new(
                    i,
                    1 + (x * 13) % 60,
                    (x * 9) % 150,
                    (x * 9) % 150 + 5 + x % 20,
                )
            })
            .collect()
    }

    #[test]
    fn auto_dispatches_by_class() {
        let dec = Catalog::new(vec![MachineType::new(4, 1), MachineType::new(64, 4)]).unwrap();
        let inc = Catalog::new(vec![MachineType::new(4, 1), MachineType::new(64, 32)]).unwrap();
        let gen = Catalog::new(vec![
            MachineType::new(4, 1),
            MachineType::new(16, 2),
            MachineType::new(20, 4),
            MachineType::new(128, 8),
        ])
        .unwrap();
        for catalog in [dec, inc, gen] {
            let inst = Instance::new(jobs(), catalog).unwrap();
            let off = auto_offline(&inst, PlacementOrder::Arrival);
            assert_eq!(validate_schedule(&off, &inst), Ok(()));
            let on = auto_online(&inst);
            assert_eq!(validate_schedule(&on, &inst), Ok(()));
        }
    }
}
