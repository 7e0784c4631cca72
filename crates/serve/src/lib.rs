//! # bshm-serve
//!
//! The resident scheduler service: many independent tenant instances
//! hosted behind a line-oriented request protocol, with the robustness
//! primitives the rest of the workspace grew in isolation composed into
//! one supervised process.
//!
//! * [`queue`] — bounded admission queues; a full queue answers with a
//!   typed [`Overload`] carrying a deterministic, seeded
//!   retry-after from the fault layer's
//!   [`BackoffSchedule`](bshm_faults::BackoffSchedule).
//! * [`tenant`] — per-tenant supervision: each tenant advances in
//!   batches under the faulted driver, checkpoints at every stop point,
//!   and is restored from its checkpoint plus crash-safe event-log
//!   salvage after a kill or panic, with an FNV-digest restore proof.
//! * [`ladder`] — the graceful-degradation ladder: under sustained SLO
//!   pressure the service sheds work in ordered rungs (disable gap
//!   gauges → force the cheapest placement algorithm → shed
//!   lowest-priority tenants), each transition stamped as a
//!   `Degradation` trace event.
//! * [`service`] — the [`Service`] itself: protocol
//!   dispatch, the supervisor loop, graceful drain/shutdown.
//! * [`transport`] — in-process and `std` Unix-socket transports plus
//!   the retrying client harness.
//! * [`drill`] — the crash-recovery and overload drills gated in CI.
//!
//! Everything is deterministic on the event clock: retry-afters, ladder
//! transitions and restore digests depend only on seeds and event
//! counts, never on wall time.

// Non-test code compares floats through explicit tolerances and reads
// the clock only through `bshm_obs::clock` (lists in clippy.toml).
#![cfg_attr(not(test), deny(clippy::float_cmp, clippy::disallowed_methods))]
#![warn(missing_docs)]

pub mod drill;
pub mod ladder;
pub mod queue;
pub mod service;
pub mod tenant;
pub mod transport;

pub use drill::{crash_recovery_drill, overload_drill, DrillCheck, DrillReport};
pub use ladder::{Ladder, RungTransition, CHEAPEST_ALGORITHM, RUNG_NAMES};
pub use queue::{BoundedQueue, Overload};
pub use service::{Service, ServiceConfig, ServiceStats};
pub use tenant::{
    builtin_factory, dominant_reason, RestoreProof, SchedulerFactory, StepOutcome, Tenant,
    TenantSpec, TenantStatus,
};
pub use transport::{
    parse_overload, serve_unix, Client, InProc, RetryStats, Transport, UnixClient,
};
