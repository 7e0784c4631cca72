//! # bshm-workload
//!
//! Reproducible synthetic workloads and machine catalogs for busy-time
//! scheduling experiments: arrival processes (Poisson, diurnal, batch),
//! duration laws (uniform, bounded Pareto, bimodal — all with a controlled
//! max/min ratio μ), size laws (uniform, heavy-tail, discrete VM shapes)
//! and catalog families for the DEC / INC / general regimes.
//!
//! No real cluster traces are bundled (they are proprietary);
//! [`generator::cloud_trace_spec`] is the synthetic equivalent exercising
//! the same code paths — bursty arrivals, skewed sizes, wide μ.

// Non-test code compares floats through explicit tolerances and reads
// the clock only through `bshm_obs::clock` (lists in clippy.toml).
#![cfg_attr(not(test), deny(clippy::float_cmp, clippy::disallowed_methods))]
#![warn(missing_docs)]

pub mod adversarial;
pub mod arrivals;
pub mod catalogs;
pub mod generator;
pub mod laws;
pub mod trace;

pub use arrivals::ArrivalProcess;
pub use generator::{cloud_trace_spec, WorkloadSpec};
pub use laws::{DurationLaw, SizeLaw};
pub use trace::{parse_csv, to_csv};
