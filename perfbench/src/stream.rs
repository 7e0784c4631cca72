//! `stream-observed`: the `bshm solve --gap --metrics --trace` path with an
//! online policy. Each request runs one policy over an in-memory instance
//! under `GapProbe(HealthProbe(Recorder))` with a JSONL trace file sink,
//! then validates, costs and bounds the schedule.

use crate::inputs::{mix, Family, Scale};
use crate::metrics::Values;
use crate::spans::Tracer;
use crate::stats::ratio;
use crate::workload::{
    elapsed_ns, ops_per_job, request, unique_name, Answers, Pass, Sample, Workload,
};
use bshm_cli::commands::{run_alg_traced, run_alg_xray};
use bshm_core::instance::Instance;
use bshm_core::{lower_bound, schedule_cost, validate_schedule, Cost};
use bshm_obs::slo::{HealthProbe, SloSpec};
use bshm_obs::{GapProbe, NoProbe, Recorder};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The policies a pass rotates over, each with the catalog family it
/// runs on.
pub const POLICIES: [(&str, Family); 5] = [
    ("dec-online", Family::Dec),
    ("inc-online", Family::Inc),
    ("gen-online", Family::Saw),
    ("first-fit-any", Family::Saw),
    ("best-fit", Family::Inc),
];

/// One request: a policy over an instance.
struct Input {
    policy: &'static str,
    instance: Instance,
}

/// The `stream-observed` workload.
pub struct StreamObserved {
    inputs: Vec<Input>,
    trace_path: PathBuf,
    answers: Answers,
    /// Exact x-ray op totals per input (traced passes only).
    ops: Vec<Option<u64>>,
    /// Traced requests, their jobs, trace events and trace file bytes.
    traced: (u64, u64, u64, u64),
}

/// Variant `v` of the instance a policy runs on.
fn input(seed: u64, scale: &Scale, v: usize, (policy, family): (&'static str, Family)) -> Input {
    let f = Family::ALL
        .iter()
        .position(|x| *x == family)
        .expect("known family");
    Input {
        policy,
        instance: family.instance(
            scale.stream_jobs,
            mix(seed, 2_000 + 10 * v as u64 + f as u64),
        ),
    }
}

/// One pass: every policy on every variant of its family's instance.
fn inputs(seed: u64, scale: &Scale) -> Vec<Input> {
    (0..scale.stream_variants)
        .flat_map(|v| POLICIES.map(|p| input(seed, scale, v, p)))
        .collect()
}

impl StreamObserved {
    /// Generates the instances; the trace sink writes under `out`.
    #[must_use]
    pub fn new(seed: u64, scale: &Scale, out: &Path) -> Self {
        let inputs = inputs(seed, scale);
        let k = inputs.len();
        StreamObserved {
            inputs,
            trace_path: out.join(unique_name("stream-trace") + ".jsonl"),
            answers: Answers::new(k),
            ops: vec![None; k],
            traced: (0, 0, 0, 0),
        }
    }
}

impl Drop for StreamObserved {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.trace_path);
    }
}

fn path_str(path: &Path) -> Result<&str, String> {
    path.to_str()
        .ok_or_else(|| format!("trace path {} is not UTF-8", path.display()))
}

/// The observed run, then validate → cost + lower bound. Returns the cost,
/// bound and the number of trace events written.
fn solve(input: &Input, trace: &Path, tr: &mut Tracer) -> Result<(Cost, Cost, u64), String> {
    let (policy, instance) = (input.policy, &input.instance);
    let n_types = instance.catalog().len();
    let (schedule, events) = tr.time("observed_run", || {
        let rec = Recorder::new(policy, n_types)
            .with_file(path_str(trace)?)
            .map_err(|e| format!("trace sink: {e}"))?;
        let mut probe = GapProbe::new(
            instance.catalog(),
            HealthProbe::new(SloSpec::default(), n_types, rec),
        );
        let schedule = run_alg_traced(policy, instance, &mut probe)?;
        if let Some(e) = probe.error() {
            return Err(format!("gap gauges: {e}"));
        }
        let (health, _timeline) = probe.into_parts();
        let (rec, _report) = health.into_parts();
        let events = rec.events_written();
        rec.into_metrics()?;
        Ok::<_, String>((schedule, events))
    })?;
    tr.time("core.validate", || validate_schedule(&schedule, instance))
        .map_err(|e| format!("infeasible schedule: {e}"))?;
    let cost = tr.time("core.cost", || schedule_cost(&schedule, instance));
    let lb = tr.time("core.lower_bound", || lower_bound(instance));
    if cost < lb {
        return Err(format!("cost {cost} below lower bound {lb}"));
    }
    Ok((cost, lb, events))
}

/// Prices the probe stack one layer at a time, outside the request:
/// NoProbe → Recorder → +Health → +Gap. The request itself adds the file
/// sink on top.
fn ladder(input: &Input, tr: &mut Tracer) -> Result<(), String> {
    let (policy, instance) = (input.policy, &input.instance);
    let n_types = instance.catalog().len();
    tr.time("ladder.none", || {
        run_alg_traced(policy, instance, &mut NoProbe)
    })?;
    tr.time("ladder.recorder", || {
        let mut rec = Recorder::new(policy, n_types);
        run_alg_traced(policy, instance, &mut rec)?;
        rec.into_metrics()
    })?;
    tr.time("ladder.health", || {
        let mut probe =
            HealthProbe::new(SloSpec::default(), n_types, Recorder::new(policy, n_types));
        run_alg_traced(policy, instance, &mut probe)?;
        probe.into_parts().0.into_metrics()
    })?;
    tr.time("ladder.gap", || {
        let mut probe = GapProbe::new(
            instance.catalog(),
            HealthProbe::new(SloSpec::default(), n_types, Recorder::new(policy, n_types)),
        );
        run_alg_traced(policy, instance, &mut probe)?;
        probe.into_parts().0.into_parts().0.into_metrics()
    })?;
    Ok(())
}

impl Workload for StreamObserved {
    fn pass(&mut self, tr: &mut Tracer, samples: &mut Vec<Sample>) -> Result<Pass, String> {
        let mut pass = Pass::default();
        for (i, input) in self.inputs.iter().enumerate() {
            let (answer, ns) = request(tr, |tr| solve(input, &self.trace_path, tr));
            let jobs = input.instance.job_count() as u64;
            pass.wall_ns += ns;
            pass.jobs += jobs;
            samples.push(Sample {
                ns,
                failed: answer.is_err(),
            });
            let Ok((cost, lb, events)) = answer else {
                continue;
            };
            self.answers.record(i, cost, lb);
            if tr.on() {
                let bytes = std::fs::metadata(&self.trace_path)
                    .map_err(|e| format!("trace file: {e}"))?
                    .len();
                let t = &mut self.traced;
                *t = (t.0 + 1, t.1 + jobs, t.2 + events, t.3 + bytes);
                ladder(input, tr)?;
                if self.ops[i].is_none() {
                    let (_, totals) = tr.time("algos.xray", || {
                        run_alg_xray(input.policy, &input.instance, &mut NoProbe)
                    })?;
                    self.ops[i] = Some(totals.total_ops());
                }
            }
        }
        Ok(pass)
    }

    fn cost_over_lb(&self) -> f64 {
        self.answers.cost_over_lb()
    }

    fn digest(&self) -> u64 {
        self.answers.digest()
    }

    fn consistent(&self) -> bool {
        self.answers.consistent()
    }

    fn layer_values(&self, tr: &Tracer, out: &mut Values) {
        let layers = tr.layers();
        let ms = |name: &str| layers.get(name).map_or(0.0, |l| l.self_ms_per_call());
        // Each rung of the ladder adds one probe; the request's observed
        // run adds the file sink on top of the last rung.
        let rungs = [
            ms("ladder.none"),
            ms("ladder.recorder"),
            ms("ladder.health"),
            ms("ladder.gap"),
            ms("observed_run"),
        ];
        out.insert("sim.drive_ms", rungs[0]);
        for (metric, w) in [
            "obs.recorder_ms",
            "obs.health_ms",
            "obs.gap_ms",
            "obs.trace_write_ms",
        ]
        .into_iter()
        .zip(rungs.windows(2))
        {
            out.insert(metric, w[1] - w[0]);
        }
        out.insert("core.lower_bound_ms", ms("core.lower_bound"));
        out.insert("core.validate_ms", ms("core.validate"));
        out.insert("core.cost_ms", ms("core.cost"));
        let (requests, jobs, events, bytes) = self.traced;
        out.insert("obs.trace_bytes", ratio(bytes as f64, requests as f64));
        out.insert("obs.events_per_job", ratio(events as f64, jobs as f64));
        let jobs = self.inputs.iter().map(|i| i.instance.job_count() as u64);
        out.insert("algos.ops_per_job", ops_per_job(&self.ops, jobs));
        out.insert(
            "stream-observed.unattributed_share",
            tr.unattributed_share(),
        );
    }
}

/// Times the cold first request of a fresh process.
pub fn setup_once(seed: u64, scale: &Scale, out: &Path) -> Result<f64, String> {
    let first = input(seed, scale, 0, POLICIES[0]);
    let trace = out.join(unique_name("stream-setup") + ".jsonl");
    let start = Instant::now();
    let solved = solve(&first, &trace, &mut Tracer::new(false));
    let secs = elapsed_ns(start) as f64 / 1e9;
    let _ = std::fs::remove_file(&trace);
    solved.map(|_| secs)
}
