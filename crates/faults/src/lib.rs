//! # bshm-faults
//!
//! Fault injection, recovery and checkpoint/restore for the bshm online
//! simulator — the robustness layer over [`bshm_sim`].
//!
//! * [`plan`] — seeded, deterministic [`FaultPlan`]s parsed from compact
//!   spec strings: machine crashes/revocations, arrival-burst storms and
//!   oversized (infeasible) jobs.
//! * [`recovery`] — pluggable [`RecoveryPolicy`] implementations for
//!   displaced jobs (same-type re-place, first-fit repack, degrade to the
//!   largest type, jittered-exponential [`backoff`] with churn
//!   escalation). Policies place only onto machines they create
//!   (labelled `recovery/…`), so recovery cost is accounted separately
//!   and the fault-free cost bounds stay checkable.
//! * [`runner`] — [`run_online_faulted`], the faulted twin of
//!   [`bshm_sim::run_online_probed`]: byte-identical traces under the
//!   empty plan, explicit [`FaultReport`] ledgers under faults (no job is
//!   ever lost silently, and only overloading a *live* machine errors).
//!   [`PreparedRun`] splits the per-instance setup from the event loop for
//!   callers that drive one instance many times.
//! * [`checkpoint`] — restorable snapshots by deterministic replay: the
//!   decision log plus input fingerprints, written torn-free; restoring
//!   verifies every replayed decision and emits exactly the missing trace
//!   suffix.
//! * [`script`] — [`ScriptScheduler`] replays a finished offline schedule
//!   through the online driver, so offline algorithms run under faults
//!   too.
//! * [`crash_test`](mod@crash_test) — the end-to-end harness: run, kill
//!   at a checkpoint, salvage the torn trace, restore, verify.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod backoff;
pub mod checkpoint;
pub mod crash_test;
pub mod plan;
pub mod recovery;
pub mod runner;
pub mod script;

pub use backoff::{Backoff, BackoffSchedule};
pub use checkpoint::{Checkpoint, DecisionRecord};
pub use crash_test::{crash_test, tear_final_line, CrashTestReport};
pub use plan::{CrashFault, FaultPlan, ResolvedFaults};
pub use recovery::{
    policy_by_name, DegradeToLargest, DisplacedJob, FirstFitRepack, RecoveryPolicy, SameType,
    POLICY_NAMES,
};
pub use runner::{
    run_online_faulted, run_online_faulted_with, FaultError, FaultOutcome, FaultReport,
    PreparedRun, RunOptions,
};
pub use script::ScriptScheduler;
