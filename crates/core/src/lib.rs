//! # bshm-core
//!
//! Core model for **busy-time scheduling on heterogeneous machines** (BSHM),
//! the problem introduced by Ren & Tang (IPDPS 2020).
//!
//! An instance consists of *interval jobs* — each a size held over a fixed
//! `[arrival, departure)` window — and a *catalog* of machine types, where a
//! type-`i` machine has capacity `g_i` and is charged `r_i` per tick while it
//! hosts at least one active job. A schedule assigns every job to one
//! machine for its whole window, never exceeding capacities, and its cost is
//! the rate-weighted busy time summed over machines.
//!
//! This crate provides:
//!
//! * the instance model ([`job`], [`machine`], [`instance`], [`time`]);
//! * schedules, feasibility validation and exact cost accounting
//!   ([`schedule`], [`validate`], [`cost`]);
//! * sweepline utilities for piecewise-constant load profiles ([`sweep`]);
//! * the §II power-of-2 rate normalization ([`normalize`]);
//! * the §II lower-bounding scheme — exact per-time optimal machine
//!   configurations integrated over time ([`lower_bound`](mod@lower_bound));
//! * an incrementally maintained variant of that bound for live gap
//!   gauges ([`incremental_lb`]);
//! * deterministic per-decision operation accounting — typed rejection
//!   reasons, scan/compare counters, and the zero-cost [`ops::OpProbe`]
//!   hook the algorithms report into ([`ops`]).
//!
//! Algorithms (DEC/INC/general, online and offline) live in `bshm-algos`;
//! the non-clairvoyant event simulator in `bshm-sim`.

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

pub mod analysis;
pub mod convert;
pub mod cost;
pub mod incremental_lb;
pub mod instance;
pub mod job;
pub mod lower_bound;
pub mod machine;
pub mod normalize;
pub mod ops;
pub mod schedule;
pub mod sweep;
pub mod time;
pub mod validate;

pub use cost::{schedule_cost, Cost};
pub use incremental_lb::{IlbError, IncrementalLowerBound};
pub use instance::{Instance, InstanceError};
pub use job::{Job, JobId};
pub use lower_bound::{lower_bound, lower_bound_prefix, lp_lower_bound};
pub use machine::{Catalog, CatalogClass, CatalogError, MachineType, TypeIndex};
pub use normalize::NormalizedCatalog;
pub use ops::{
    DecisionLog, NoOps, OpCounter, OpProbe, OpTrace, PlaceReason, RejectReason, RejectedCandidate,
};
pub use schedule::{MachineId, Schedule};
pub use time::{Interval, IntervalSet, TimePoint, WindowClock};
pub use validate::{validate_schedule, ValidationError};
