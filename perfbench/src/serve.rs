//! `serve-tenants`: the resident service. A pass is one session:
//! `Service::new`, four `ADMIT`s, then `SUBMIT <t> 1` + `STEP <t>`
//! round-robin until every tenant is done, one `KILL` mid-session (so the
//! victim's next `STEP` runs the supervised restore), `STATS`, `DRAIN`.

use crate::inputs::{mix, Scale};
use crate::metrics::Values;
use crate::spans::Tracer;
use crate::stats::{ratio, Fnv};
use crate::workload::{elapsed_ns, request, unique_name, Pass, Sample, Workload};
use bshm_core::machine::Catalog;
use bshm_obs::compute_gap_timeline;
use bshm_serve::{Service, ServiceConfig, TenantSpec};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Tenant names, in admission order.
pub const TENANTS: [&str; 4] = ["dec", "inc", "saw", "flt"];

/// The tenant the mid-session `KILL` lands on.
pub const VICTIM: &str = "inc";

/// How a reply line classifies.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Reply {
    /// `OK …`, or the JSON `STATS` object.
    Ok,
    /// `OVERLOAD …`: typed backpressure, the request was refused.
    Overload,
    /// `ERR …`.
    Err,
    /// Anything else.
    Unknown,
}

/// Classifies one reply line.
#[must_use]
pub fn classify(reply: &str) -> Reply {
    if reply.starts_with("OK ") || reply.starts_with('{') {
        Reply::Ok
    } else if reply.starts_with("OVERLOAD") {
        Reply::Overload
    } else if reply.starts_with("ERR") {
        Reply::Err
    } else {
        Reply::Unknown
    }
}

/// Whether `reply` answers a request as expected: classified `Ok` and
/// starting with `expect`.
#[must_use]
pub fn accepted(reply: &str, expect: &str) -> bool {
    classify(reply) == Reply::Ok && reply.starts_with(expect)
}

/// The `ADMIT` lines of a session. Instances are generated inside the
/// service from these specs.
#[must_use]
pub fn admit_lines(seed: u64, jobs: usize) -> Vec<String> {
    let s = |salt: u64| mix(seed, 3_000 + salt);
    vec![
        format!("ADMIT dec dec-online 4 dec:{jobs}:{}", s(0)),
        format!("ADMIT inc inc-online 3 inc:{jobs}:{}", s(1)),
        format!("ADMIT saw gen-online 2 saw:{jobs}:{}", s(2)),
        format!(
            "ADMIT flt best-fit 1 dec:{jobs}:{} seeded:{}:2",
            s(3),
            s(4) % 10_000
        ),
    ]
}

/// `Service::new` with `bshm serve`'s defaults and scheduler registry,
/// then every `ADMIT`.
fn open(dir: &Path, admits: &[String]) -> Result<Service, String> {
    let factory = Box::new(bshm_cli::commands::online_or_scripted);
    let mut service = Service::new(ServiceConfig::new(dir), factory)?;
    for line in admits {
        let reply = service.handle_line(line);
        if !accepted(&reply, "OK admitted") {
            return Err(format!("`{line}` -> {reply}"));
        }
    }
    Ok(service)
}

/// The `serve-tenants` workload.
pub struct ServeTenants {
    admits: Vec<String>,
    jobs: u64,
    kill_after: u64,
    out: PathBuf,
    /// Digest and mean final gap ratio of the first session.
    first: Option<(u64, f64)>,
    consistent: bool,
    final_rung: u64,
    overloads: u64,
    /// Traced steps, Σ log bytes, Σ checkpoint bytes, Σ history events.
    traced: (u64, u64, u64, u64),
}

impl ServeTenants {
    /// Sessions keep their data under `out`.
    #[must_use]
    pub fn new(seed: u64, scale: &Scale, out: &Path) -> Self {
        ServeTenants {
            admits: admit_lines(seed, scale.serve_jobs),
            jobs: (TENANTS.len() * scale.serve_jobs) as u64,
            // About half-way: each tenant takes ~2 × jobs / 32 steps.
            kill_after: (scale.serve_jobs as u64 / 8).max(1),
            out: out.to_path_buf(),
            first: None,
            consistent: true,
            final_rung: 0,
            overloads: 0,
            traced: (0, 0, 0, 0),
        }
    }

    /// Reads the traced per-step figures of tenant `name` after a step.
    fn observe(
        &mut self,
        service: &Service,
        name: &str,
        catalog: &Catalog,
        tr: &mut Tracer,
    ) -> Result<(), String> {
        let tenant = service
            .tenant(name)
            .ok_or_else(|| format!("tenant {name} vanished"))?;
        let slo = bshm_obs::slo::SloSpec::default();
        tr.time("obs.slo_eval", || black_box(tenant.evaluate_slo(&slo)));
        tr.time("obs.gap_timeline", || {
            black_box(compute_gap_timeline(tenant.events(), catalog))
        });
        let size = |p: &Path| std::fs::metadata(p).map_or(0, |m| m.len());
        let t = &mut self.traced;
        *t = (
            t.0 + 1,
            t.1 + size(tenant.log_path()),
            t.2 + size(tenant.checkpoint_path()),
            t.3 + tenant.events().len() as u64,
        );
        Ok(())
    }

    fn session(
        &mut self,
        service: &mut Service,
        catalogs: &[Catalog],
        tr: &mut Tracer,
        samples: &mut Vec<Sample>,
    ) -> Result<(), String> {
        let mut active: Vec<usize> = (0..TENANTS.len()).collect();
        let (mut pairs, mut killed, mut restoring) = (0u64, false, false);
        while !active.is_empty() {
            let mut k = 0;
            while k < active.len() {
                let name = TENANTS[active[k]];
                if !killed && pairs >= self.kill_after && name == VICTIM {
                    let (reply, ns) = request(tr, |tr| {
                        tr.time("serve.kill", || {
                            service.handle_line(&format!("KILL {name}"))
                        })
                    });
                    samples.push(Sample {
                        ns,
                        failed: !accepted(&reply, "OK killed"),
                    });
                    (killed, restoring) = (true, true);
                }
                let restore = restoring && name == VICTIM;
                let step_span = if restore {
                    "serve.restore"
                } else {
                    "serve.step"
                };
                let ((submitted, stepped), ns) = request(tr, |tr| {
                    let a = tr.time("serve.submit", || {
                        service.handle_line(&format!("SUBMIT {name} 1"))
                    });
                    let b = tr.time(step_span, || service.handle_line(&format!("STEP {name}")));
                    (a, b)
                });
                self.overloads += [&submitted, &stepped]
                    .iter()
                    .filter(|r| classify(r) == Reply::Overload)
                    .count() as u64;
                let failed = !accepted(&submitted, "OK queued")
                    || !accepted(&stepped, "OK stepped")
                    || (restore && !stepped.contains(" restored=true "));
                samples.push(Sample { ns, failed });
                restoring &= !restore;
                pairs += 1;
                if !failed && tr.on() {
                    self.observe(service, name, &catalogs[active[k]], tr)?;
                }
                if failed || stepped.contains(" done=true ") {
                    active.remove(k);
                } else {
                    k += 1;
                }
            }
        }
        let (reply, ns) = request(tr, |tr| {
            tr.time("serve.stats", || service.handle_line("STATS"))
        });
        samples.push(Sample {
            ns,
            failed: !accepted(&reply, "{"),
        });
        let stats = service.stats();
        self.final_rung = self.final_rung.max(stats.rung);
        let mut h = Fnv::default();
        let mut gaps = 0.0;
        for t in &stats.tenants {
            h.bytes(t.name.as_bytes());
            h.u128(u128::from(t.processed));
            h.u128(u128::from(t.state_digest));
            let gap = t.gap_ratio.unwrap_or(f64::NAN);
            h.u128(u128::from(gap.to_bits()));
            gaps += gap / stats.tenants.len() as f64;
        }
        match self.first {
            None => self.first = Some((h.0, gaps)),
            Some((digest, _)) => self.consistent &= digest == h.0,
        }
        self.consistent &= gaps.is_finite() && killed;
        let (reply, ns) = request(tr, |tr| {
            tr.time("serve.drain", || service.handle_line("DRAIN"))
        });
        samples.push(Sample {
            ns,
            failed: !accepted(&reply, "OK drained"),
        });
        Ok(())
    }
}

impl Workload for ServeTenants {
    fn pass(&mut self, tr: &mut Tracer, samples: &mut Vec<Sample>) -> Result<Pass, String> {
        let dir = self.out.join(unique_name("serve"));
        let _ = std::fs::remove_dir_all(&dir);
        let mut service = open(&dir, &self.admits)?;
        let catalogs = if tr.on() {
            TENANTS
                .iter()
                .map(|name| {
                    let spec: &TenantSpec = service.tenant(name).expect("admitted").spec();
                    spec.build_instance().map(|i| i.catalog().clone())
                })
                .collect::<Result<Vec<_>, _>>()?
        } else {
            Vec::new()
        };
        let start = Instant::now();
        let result = self.session(&mut service, &catalogs, tr, samples);
        let wall_ns = elapsed_ns(start);
        drop(service);
        let _ = std::fs::remove_dir_all(&dir);
        result?;
        Ok(Pass {
            jobs: self.jobs,
            wall_ns,
        })
    }

    fn cost_over_lb(&self) -> f64 {
        self.first.map_or(0.0, |(_, gap)| gap)
    }

    fn digest(&self) -> u64 {
        self.first.map_or(0, |(digest, _)| digest)
    }

    fn consistent(&self) -> bool {
        self.consistent && self.first.is_some()
    }

    fn layer_values(&self, tr: &Tracer, out: &mut Values) {
        let layers = tr.layers();
        let ms = |name: &str| layers.get(name).map_or(0.0, |l| l.self_ms_per_call());
        for (metric, span) in [
            ("serve.submit_ms", "serve.submit"),
            ("serve.step_ms", "serve.step"),
            ("serve.restore_ms", "serve.restore"),
            ("obs.slo_eval_ms", "obs.slo_eval"),
            ("obs.gap_timeline_ms", "obs.gap_timeline"),
        ] {
            out.insert(metric, ms(span));
        }
        let (steps, log, checkpoint, history) = self.traced;
        let steps = steps as f64;
        out.insert("serve.log_bytes_per_step", ratio(log as f64, steps));
        out.insert("serve.checkpoint_bytes", ratio(checkpoint as f64, steps));
        out.insert("serve.history_events", ratio(history as f64, steps));
        out.insert("serve.final_rung", self.final_rung as f64);
        out.insert("serve.overloads", self.overloads as f64);
        out.insert("serve-tenants.unattributed_share", tr.unattributed_share());
    }
}

/// Times `Service::new` plus the `ADMIT`s in a fresh process.
pub fn setup_once(seed: u64, scale: &Scale, out: &Path) -> Result<f64, String> {
    let dir = out.join(unique_name("serve-setup"));
    let _ = std::fs::remove_dir_all(&dir);
    let admits = admit_lines(seed, scale.serve_jobs);
    let start = Instant::now();
    let opened = open(&dir, &admits);
    let secs = elapsed_ns(start) as f64 / 1e9;
    let opened = opened.map(drop);
    let _ = std::fs::remove_dir_all(&dir);
    opened.map(|()| secs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overload_and_err_replies_count_as_failed() {
        assert_eq!(classify("OVERLOAD tenant=a retry-after 3"), Reply::Overload);
        assert_eq!(classify("ERR unknown tenant `x`"), Reply::Err);
        assert_eq!(classify("OK queued 1/8"), Reply::Ok);
        assert_eq!(classify(r#"{"clock":3}"#), Reply::Ok);
        assert_eq!(classify("hello"), Reply::Unknown);
        assert!(!accepted("OVERLOAD tenant=a retry-after 3", "OK queued"));
        assert!(!accepted("ERR no queued work for `a`", "OK stepped"));
        assert!(!accepted("OK panicked a (supervised)", "OK stepped"));
        assert!(accepted(
            "OK stepped a processed=32 done=false",
            "OK stepped"
        ));
    }
}
