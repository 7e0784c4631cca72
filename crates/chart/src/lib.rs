//! # bshm-chart
//!
//! Demand charts, the Dual-Coloring-style 2-allocation placement and strip
//! partitioning — the geometric substrate of the paper's offline algorithms
//! (§III-A, Fig. 1).
//!
//! The pipeline mirrors the paper exactly:
//!
//! 1. build the **demand chart** of the jobs under consideration
//!    ([`demand::DemandChart`]);
//! 2. **place** every job as a rectangle (time × size) such that no three
//!    rectangles overlap ([`placement::place_jobs`]);
//! 3. slice the chart into **strips** of height `g_i/2` and turn strips and
//!    strip boundaries into machines ([`strips::schedule_strips`]).
//!
//! All altitudes are in *doubled* demand units so `g_i/2` stays integral.

// Non-test code compares floats through explicit tolerances and reads
// the clock only through `bshm_obs::clock` (lists in clippy.toml).
#![cfg_attr(not(test), deny(clippy::float_cmp, clippy::disallowed_methods))]
#![warn(missing_docs)]

pub mod demand;
pub mod placement;
pub mod render;
pub mod strips;
pub mod svg;

pub use demand::DemandChart;
pub use placement::{
    place_jobs, place_jobs_logged, verify_two_allocation, Placement, PlacementOrder,
};
pub use strips::{schedule_strips, schedule_strips_logged};
