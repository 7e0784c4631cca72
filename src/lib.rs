//! # bshm — Busy-Time Scheduling on Heterogeneous Machines
//!
//! A full implementation of the algorithms and analysis substrate of
//! *Busy-Time Scheduling on Heterogeneous Machines* (Runtian Ren & Xueyan
//! Tang, IPDPS 2020).
//!
//! **The problem.** Interval jobs — each a resource demand held over a
//! fixed `[arrival, departure)` window — must be placed, immediately and
//! irrevocably, onto machines drawn from a catalog of types, where a
//! type-`i` machine has capacity `g_i` and costs `r_i` per tick *while
//! busy*. Minimize the total rate-weighted busy time.
//!
//! **What's here.**
//!
//! * [`core`]: instance model, schedules, validation, exact cost
//!   accounting, power-of-2 rate normalization and the paper's per-time
//!   lower bound;
//! * [`chart`]: demand charts, the 2-allocation placement and strip
//!   partitioning behind the offline algorithms;
//! * [`sim`]: the non-clairvoyant online event driver and machine pool;
//! * [`obs`]: structured trace events, the probe they are recorded
//!   into, metrics aggregation and trace replay (see `bshm solve --trace`);
//! * [`algos`]: DEC-OFFLINE / DEC-ONLINE (§III), INC-OFFLINE / INC-ONLINE
//!   (§IV), the general-case forest algorithms (§V), the single-type DBP
//!   substrate, baselines and an exact solver;
//! * [`workload`]: reproducible synthetic workload and catalog generators.
//!
//! # Quickstart
//!
//! ```
//! use bshm::prelude::*;
//!
//! // Two machine types: a small box and a bulk box with a volume
//! // discount (DEC regime: cost per unit falls with capacity).
//! let catalog = Catalog::new(vec![
//!     MachineType::new(4, 1),   // capacity 4, rate 1
//!     MachineType::new(16, 2),  // capacity 16, rate 2
//! ]).unwrap();
//!
//! let jobs = vec![
//!     Job::new(0, 3, 0, 10),
//!     Job::new(1, 2, 5, 20),
//!     Job::new(2, 12, 8, 30),
//! ];
//! let instance = Instance::new(jobs, catalog).unwrap();
//!
//! // Offline: the paper's algorithm for this catalog class.
//! let schedule = auto_offline(&instance, PlacementOrder::Arrival);
//! assert!(validate_schedule(&schedule, &instance).is_ok());
//!
//! // Cost vs. the paper's lower bound (inequality (1)).
//! let cost = schedule_cost(&schedule, &instance);
//! let lb = lower_bound(&instance);
//! assert!(cost >= lb);
//!
//! // Online, non-clairvoyant: departure times hidden from the policy.
//! let online = auto_online(&instance);
//! assert!(validate_schedule(&online, &instance).is_ok());
//! ```

#![warn(missing_docs)]

pub use bshm_algos as algos;
pub use bshm_chart as chart;
pub use bshm_core as core;
pub use bshm_obs as obs;
pub use bshm_sim as sim;
pub use bshm_workload as workload;

/// One-stop imports for examples and downstream users.
pub mod prelude {
    pub use bshm_algos::{
        auto_offline, auto_online, dec_offline, exact_optimal, general_offline, inc_offline,
        DecOnline, GeneralOnline, IncOnline,
    };
    pub use bshm_chart::placement::PlacementOrder;
    pub use bshm_core::{
        lower_bound, lp_lower_bound, schedule_cost, validate_schedule, Catalog, CatalogClass, Cost,
        Instance, Interval, IntervalSet, Job, JobId, MachineType, Schedule, TypeIndex,
    };
    pub use bshm_obs::{Collector, NoProbe, Probe, Recorder, TraceEvent};
    pub use bshm_sim::{run_online, run_online_probed, OnlineScheduler};
    pub use bshm_workload::{cloud_trace_spec, ArrivalProcess, DurationLaw, SizeLaw, WorkloadSpec};
}
