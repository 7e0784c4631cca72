//! # bshm-obs
//!
//! Observability for the bshm reproduction: structured trace events,
//! probes, aggregated metrics, and trace replay.
//!
//! The pieces fit together like this:
//!
//! * [`TraceEvent`] is the shared vocabulary — arrivals, placement
//!   decisions, machine opens/closes, departures, and cost accruals, each
//!   stamped with its simulation time. One JSON object per line makes a
//!   run's trace (`*.jsonl`); [`write_jsonl`] is the one encoder for it.
//! * [`Probe`] is where the simulator driver, the fault engine and the
//!   offline synthesizer report: each builds a [`TraceEvent`] and hands
//!   it to [`Probe::record`], the one way to emit an event. [`NoProbe`] is
//!   the default; its [`Probe::enabled`] returns `false` and
//!   monomorphizes every instrumentation branch away, so un-probed runs
//!   build no events.
//! * [`Recorder`] is the workhorse probe: it streams events to a JSONL
//!   writer and folds them into [`Metrics`] (counters, per-type
//!   open-machine gauge timeline, utilization and decision-latency
//!   histograms, per-type cost).
//! * [`clock`] is the workspace's one wall-clock read; probed runs time
//!   each placement decision with it.
//! * [`replay`] reads traces back. [`EventStream`] is the one trace
//!   reader: every command, the crash test and tenant restore decode
//!   JSONL lines through it, strictly (the first damaged line is an
//!   `Err`) or as a [`Salvage`] (the valid prefix plus the exact lines
//!   and bytes lost). Both follow one torn-tail rule: a final line that
//!   parses is kept, with or without its `\n`. [`replay::cross_check`]
//!   compares the [`Metrics`] fold's busy-machine gauge against
//!   [`bshm_core::analysis::machine_timeline`], and
//!   [`replay::synthesize`] produces the canonical event stream for a
//!   *finished* (offline) schedule so offline and online runs trace
//!   identically.
//! * [`prometheus`] renders [`Metrics`] in the Prometheus text-exposition
//!   format — counters, gauges, and the latency/utilization histograms as
//!   cumulative `_bucket` series — and ships the [`validate_exposition`]
//!   parser the tests gate on.
//! * [`gap`] is the live optimality-gap observatory: [`GapProbe`] wraps
//!   any probe, maintains the incremental busy-time lower bound and the
//!   accrued cost while events stream past, and emits one
//!   `TraceEvent::GapSample` per distinct timestamp;
//!   [`compute_gap_timeline`] rebuilds the same timeline from pre-gap
//!   traces. [`GapGauge`] is the probe's fold state on its own, for
//!   callers that need the current gauge but not the timeline.
//! * [`attribution`] is the deterministic cost-attribution ledger:
//!   [`CostLedger`] charges every unit of busy-time cost to responsible
//!   jobs (opener pays for the opening segment, extensions split
//!   proportionally by occupant size) with an exact integer total.
//! * [`sink`] gives trace files crash semantics: [`TraceWriter`] streams
//!   to `<path>.partial` and renames into place on finalize (optionally
//!   flushing every line), and [`sink::atomic_write`] writes whole
//!   artifacts (checkpoints, reports) torn-free. Reading a trace back,
//!   `.partial` twin included, is [`EventStream::open`]'s job.
//! * [`flight`] is the bounded flight recorder: [`FlightRecorder`] keeps
//!   the last N events in a fixed-capacity ring and dumps them as an
//!   atomic JSONL snapshot when the health plane asks for a post-mortem.
//! * [`window`] is rolling-window telemetry: [`RollingWindows`] cuts the
//!   stream into event-clock windows ([`bshm_core::WindowClock`]) and
//!   folds each window's events through [`Metrics::update`] into a
//!   [`WindowStats`] (windowed latency percentiles, gap ratio,
//!   open-machine and displacement counts) with a bounded history ring.
//!   Merging the closed windows in order gives the whole run's
//!   [`Metrics`].
//! * [`slo`] is the deterministic SLO engine: [`SloSpec`] parses the
//!   declarative threshold grammar, [`SloEngine`] evaluates closed
//!   windows in fixed-point integer arithmetic, and [`HealthProbe`]
//!   packages windows + engine + flight recorder as probe middleware
//!   that emits typed `TraceEvent::Alert`s into the wrapped probe.
//!
//! Events reference jobs, machines and catalog types by the core ids
//! ([`bshm_core::JobId`], [`bshm_core::MachineId`],
//! [`bshm_core::TypeIndex`]), so a trace joins cleanly against its
//! instance and schedule files.

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

pub mod attribution;
pub mod clock;
pub mod event;
pub mod flight;
pub mod gap;
pub mod probe;
pub mod prometheus;
pub mod recorder;
pub mod replay;
pub mod sink;
pub mod slo;
pub mod window;

pub use attribution::CostLedger;
pub use event::{jsonl_string, write_jsonl, AlertReason, TenantPhase, TraceEvent};
pub use flight::FlightRecorder;
pub use gap::{
    compute_gap_timeline, gap_timeline_from_events, GapGauge, GapPoint, GapProbe, GapTimeline,
};
pub use probe::{Collector, Deterministic, NoProbe, Probe};
pub use prometheus::{encode as encode_prometheus, validate_exposition};
pub use recorder::{bucket_quantile, Metrics, Recorder};
pub use replay::{
    cross_check, machine_utilization, metrics_from_events, parse_jsonl, synthesize,
    synthesize_xray, EventStream, MachineUsage, Salvage, UsagePoint,
};
pub use sink::TraceWriter;
pub use slo::{
    write_health_report, AlertFire, AlertRecord, HealthProbe, HealthReport, SloEngine, SloRule,
    SloSpec, DEFAULT_SLO_SPEC,
};
pub use window::{RollingWindows, WindowStats};
