//! What every workload provides to the closed-loop driver.

use crate::inputs::Scale;
use crate::metrics::Values;
use crate::spans::{Tracer, REQUEST};
use crate::stats::{ratio, Fnv};
use bshm_core::Cost;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// One timed request as the client saw it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Sample {
    /// Wall time from send to checked reply, ns.
    pub ns: u64,
    /// The request errored, was refused, or its answer failed a check.
    pub failed: bool,
}

/// What one pass over a workload's inputs did.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Pass {
    /// Jobs scheduled.
    pub jobs: u64,
    /// Wall time of the pass's requests, ns (set-up excluded).
    pub wall_ns: u64,
}

/// A workload: a fixed set of seeded inputs, sent one request at a time.
pub trait Workload {
    /// Sends every request of one pass in order, each after the previous
    /// reply, appending one [`Sample`] per request. `Err` only when the
    /// benchmark itself cannot go on (a failed request is a sample).
    fn pass(&mut self, tr: &mut Tracer, samples: &mut Vec<Sample>) -> Result<Pass, String>;

    /// Σ cost / Σ lower bound of the answers (deterministic per seed).
    fn cost_over_lb(&self) -> f64;

    /// FNV-1a digest of the per-request answers, to compare two commits.
    fn digest(&self) -> u64;

    /// Every repeated request gave the same answer as its first send.
    fn consistent(&self) -> bool;

    /// The per-layer metrics, from the spans of traced passes plus the
    /// counts the workload kept.
    fn layer_values(&self, tr: &Tracer, out: &mut Values);
}

/// The three workloads, named as `--workload` takes them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// `bshm solve`: parse, plan offline, check, write.
    PlanOffline,
    /// `bshm solve --gap --metrics --trace` with an online policy.
    StreamObserved,
    /// `bshm serve`: four tenants stepped round-robin.
    ServeTenants,
}

impl Kind {
    /// Every workload.
    pub const ALL: [Kind; 3] = [Kind::PlanOffline, Kind::StreamObserved, Kind::ServeTenants];

    /// The `--workload` name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Kind::PlanOffline => "plan-offline",
            Kind::StreamObserved => "stream-observed",
            Kind::ServeTenants => "serve-tenants",
        }
    }

    /// Parses a `--workload` name.
    pub fn parse(name: &str) -> Result<Kind, String> {
        Kind::ALL
            .into_iter()
            .find(|k| k.name() == name)
            .ok_or_else(|| {
                let names: Vec<&str> = Kind::ALL.iter().map(|k| k.name()).collect();
                format!("unknown workload {name:?} (expected one of {names:?})")
            })
    }

    /// Generates this workload's inputs from `seed`.
    pub fn build(self, seed: u64, scale: &Scale, out: &Path) -> Result<Box<dyn Workload>, String> {
        Ok(match self {
            Kind::PlanOffline => Box::new(crate::plan::PlanOffline::new(seed, scale)),
            Kind::StreamObserved => Box::new(crate::stream::StreamObserved::new(seed, scale, out)),
            Kind::ServeTenants => Box::new(crate::serve::ServeTenants::new(seed, scale, out)),
        })
    }

    /// Performs this workload's set-up once in this process and returns
    /// its duration in seconds: the cold first request for the two solve
    /// paths, `Service::new` plus the `ADMIT`s for the service.
    pub fn setup_once(self, seed: u64, scale: &Scale, out: &Path) -> Result<f64, String> {
        match self {
            Kind::PlanOffline => crate::plan::setup_once(seed, scale),
            Kind::StreamObserved => crate::stream::setup_once(seed, scale, out),
            Kind::ServeTenants => crate::serve::setup_once(seed, scale, out),
        }
    }
}

/// Sends one request: runs `f` inside a fresh request span and returns
/// its result with the wall time it took, ns.
pub fn request<R>(tr: &mut Tracer, f: impl FnOnce(&mut Tracer) -> R) -> (R, u64) {
    tr.next_request();
    let start = Instant::now();
    tr.open(REQUEST);
    let r = f(tr);
    tr.close();
    (r, elapsed_ns(start))
}

/// Nanoseconds since `start`.
#[must_use]
pub fn elapsed_ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// A file or directory name unique within this process and across
/// processes: `<prefix>-<pid>-<n>`.
#[must_use]
pub fn unique_name(prefix: &str) -> String {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    format!("{prefix}-{}-{n}", std::process::id())
}

/// The first `(cost, lower bound)` answer to each input of a pass, and
/// whether every repeat matched it.
#[derive(Clone, Debug)]
pub struct Answers {
    first: Vec<Option<(Cost, Cost)>>,
    consistent: bool,
}

impl Answers {
    /// No answers yet for `n` inputs.
    #[must_use]
    pub fn new(n: usize) -> Self {
        Answers {
            first: vec![None; n],
            consistent: true,
        }
    }

    /// Records input `i`'s answer.
    pub fn record(&mut self, i: usize, cost: Cost, lb: Cost) {
        match self.first[i] {
            None => self.first[i] = Some((cost, lb)),
            Some(first) => self.consistent &= first == (cost, lb),
        }
    }

    /// Σ cost / Σ lower bound.
    #[must_use]
    pub fn cost_over_lb(&self) -> f64 {
        let (cost, lb) = self
            .first
            .iter()
            .flatten()
            .fold((0.0, 0.0), |(c, l), (cost, lb)| {
                (c + *cost as f64, l + *lb as f64)
            });
        ratio(cost, lb)
    }

    /// FNV-1a over every answer in input order.
    #[must_use]
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::default();
        for (cost, lb) in self.first.iter().flatten() {
            h.u128(*cost);
            h.u128(*lb);
        }
        h.0
    }

    /// Every input answered, and every repeat matched.
    #[must_use]
    pub fn consistent(&self) -> bool {
        self.consistent && self.first.iter().all(Option::is_some)
    }
}

/// Σ x-ray ops / Σ jobs over the inputs whose ops were counted.
#[must_use]
pub fn ops_per_job(ops: &[Option<u64>], jobs: impl Iterator<Item = u64>) -> f64 {
    let (ops, jobs) = ops
        .iter()
        .zip(jobs)
        .filter_map(|(ops, jobs)| ops.map(|o| (o, jobs)))
        .fold((0u64, 0u64), |(o, j), (ops, jobs)| (o + ops, j + jobs));
    ratio(ops as f64, jobs as f64)
}
