//! `plan-offline`: the `bshm solve` path. Each request is pretty JSON
//! instance text, as `bshm gen` writes it; the client parses it, plans
//! it with `auto`, validates, costs and bounds the schedule, and writes
//! the schedule back out as pretty JSON.

use crate::inputs::{mix, plan_sizes, Family, Scale};
use crate::metrics::Values;
use crate::spans::Tracer;
use crate::stats::ratio;
use crate::workload::{elapsed_ns, ops_per_job, request, Answers, Pass, Sample, Workload};
use bshm_chart::placement::{place_jobs, PlacementOrder};
use bshm_core::instance::Instance;
use bshm_core::{lower_bound, schedule_cost, validate_schedule, Cost};
use bshm_obs::NoProbe;
use std::hint::black_box;
use std::time::Instant;

/// One input: the instance text and its job count.
struct Input {
    text: String,
    jobs: u64,
}

fn input(family: Family, n: usize, seed: u64) -> Input {
    let instance = family.instance(n, seed);
    Input {
        text: serde_json::to_string_pretty(&instance).expect("instances serialize"),
        jobs: instance.job_count() as u64,
    }
}

/// The `plan-offline` workload.
pub struct PlanOffline {
    inputs: Vec<Input>,
    /// `(cost, lower bound)` of each input's first answer.
    answers: Answers,
    /// Exact x-ray op totals per input (traced passes only).
    ops: Vec<Option<u64>>,
    parsed_bytes: u64,
}

impl PlanOffline {
    /// One pass: one instance per log-uniform size stratum, catalogs
    /// rotating dec/inc/saw.
    #[must_use]
    pub fn new(seed: u64, scale: &Scale) -> Self {
        let inputs: Vec<Input> = plan_sizes(scale)
            .into_iter()
            .enumerate()
            .map(|(i, n)| input(Family::ALL[i % 3], n, mix(seed, 1_000 + i as u64)))
            .collect();
        let k = inputs.len();
        PlanOffline {
            inputs,
            answers: Answers::new(k),
            ops: vec![None; k],
            parsed_bytes: 0,
        }
    }
}

/// Parse → plan → validate → cost + lower bound → write. Returns the
/// parsed instance (for the traced side calls), cost and bound.
fn solve(text: &str, tr: &mut Tracer) -> Result<(Instance, Cost, Cost), String> {
    let instance: Instance = tr
        .time("serde_json.parse", || serde_json::from_str(text))
        .map_err(|e| format!("parse: {e}"))?;
    let schedule = tr.time("algos.offline_solve", || {
        bshm_algos::auto_offline(&instance, PlacementOrder::Arrival)
    });
    tr.time("core.validate", || validate_schedule(&schedule, &instance))
        .map_err(|e| format!("infeasible schedule: {e}"))?;
    let cost = tr.time("core.cost", || schedule_cost(&schedule, &instance));
    let lb = tr.time("core.lower_bound", || lower_bound(&instance));
    let out = tr
        .time("serde_json.write", || {
            serde_json::to_string_pretty(&schedule)
        })
        .map_err(|e| format!("write: {e}"))?;
    black_box(out);
    if cost < lb {
        return Err(format!("cost {cost} below lower bound {lb}"));
    }
    Ok((instance, cost, lb))
}

impl Workload for PlanOffline {
    fn pass(&mut self, tr: &mut Tracer, samples: &mut Vec<Sample>) -> Result<Pass, String> {
        let mut pass = Pass::default();
        for (i, input) in self.inputs.iter().enumerate() {
            let (answer, ns) = request(tr, |tr| solve(&input.text, tr));
            pass.wall_ns += ns;
            pass.jobs += input.jobs;
            samples.push(Sample {
                ns,
                failed: answer.is_err(),
            });
            let Ok((instance, cost, lb)) = answer else {
                continue;
            };
            self.answers.record(i, cost, lb);
            if tr.on() {
                self.parsed_bytes += input.text.len() as u64;
                tr.time("chart.place", || {
                    black_box(place_jobs(instance.jobs(), PlacementOrder::Arrival))
                });
                if self.ops[i].is_none() {
                    let (_, totals) = tr.time("algos.xray", || {
                        bshm_cli::commands::run_alg_xray("auto", &instance, &mut NoProbe)
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
        for (metric, span) in [
            ("serde_json.parse_ms", "serde_json.parse"),
            ("serde_json.write_ms", "serde_json.write"),
            ("algos.offline_solve_ms", "algos.offline_solve"),
            ("chart.place_ms", "chart.place"),
            ("core.lower_bound_ms", "core.lower_bound"),
            ("core.validate_ms", "core.validate"),
            ("core.cost_ms", "core.cost"),
        ] {
            out.insert(metric, ms(span));
        }
        let parse_s = layers
            .get("serde_json.parse")
            .map_or(0.0, |l| l.self_ns as f64 / 1e9);
        out.insert(
            "serde_json.parse_mb_per_s",
            ratio(self.parsed_bytes as f64 / 1e6, parse_s),
        );
        let jobs = self.inputs.iter().map(|i| i.jobs);
        out.insert("algos.ops_per_job", ops_per_job(&self.ops, jobs));
        out.insert("plan-offline.unattributed_share", tr.unattributed_share());
    }
}

/// Times the cold first request of a fresh process on a fixed-size input.
pub fn setup_once(seed: u64, scale: &Scale) -> Result<f64, String> {
    let input = input(Family::Dec, scale.plan_setup_jobs, mix(seed, 999));
    let start = Instant::now();
    solve(&input.text, &mut Tracer::new(false))?;
    Ok(elapsed_ns(start) as f64 / 1e9)
}
