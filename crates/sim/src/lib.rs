//! # bshm-sim
//!
//! The non-clairvoyant online simulation substrate for busy-time
//! scheduling (§III-B setting): a machine [`pool`] that
//! enforces capacities, and an event [`driver`] that replays
//! an instance as arrivals (departure times hidden from the scheduler) and
//! departures.
//!
//! Online policies implement [`OnlineScheduler`]; the paper's DEC-ONLINE /
//! INC-ONLINE / general-case policies live in `bshm-algos`.
//! [`ScriptScheduler`] replays a finished offline schedule as an online
//! policy, so offline algorithms run wherever an online one does.

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

pub mod clairvoyant;
pub mod driver;
pub mod pool;
pub mod script;

pub use clairvoyant::{
    run_clairvoyant, run_clairvoyant_logged, ClairvoyantScheduler, ClairvoyantView,
};
pub use driver::{
    run_online, run_online_probed, run_online_xray, ArrivalView, OnlineScheduler, SimError,
};
pub use pool::{MachinePool, PlacementError};
pub use script::ScriptScheduler;
