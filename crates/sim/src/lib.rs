//! # bshm-sim
//!
//! The non-clairvoyant online simulation substrate for busy-time
//! scheduling (§III-B setting): a machine [`pool`](crate::pool) that
//! enforces capacities, and an event [`driver`](crate::driver) that replays
//! an instance as arrivals (departure times hidden from the scheduler) and
//! departures.
//!
//! Online policies implement [`OnlineScheduler`]; the paper's DEC-ONLINE /
//! INC-ONLINE / general-case policies live in `bshm-algos`.
//! [`ScriptScheduler`] replays a finished offline schedule as an online
//! policy, so offline algorithms run wherever an online one does.

#![warn(missing_docs)]
#![warn(clippy::all)]

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
