//! The bshm benchmark: three user-path workloads, each driven in-process
//! by one closed-loop client that sends a request, waits for its reply
//! and checks it, then sends the next.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload plan-offline --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` records spans
//! around every layer call and prints the per-layer metrics. The last
//! line of standard output is the JSON result. See `README.md`.

mod inputs;
mod metrics;
mod plan;
mod serve;
mod spans;
mod stats;
mod stream;
mod workload;

use inputs::Scale;
use metrics::{Report, Values, END_TO_END, PER_LAYER};
use spans::Tracer;
use stats::{percentile, quartiles, ratio};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use workload::{Kind, Pass, Sample, Workload};

/// Every run sends at least this many timed requests, so at least ten
/// samples lie beyond the 90th percentile.
const MIN_REQUESTS: usize = 100;

/// `setup_s` is the median set-up time over fresh processes: at least
/// the first number of them, then more until a second of probing has
/// passed (cheap set-ups get more samples), never more than the second.
const SETUP_RUNS: (usize, usize) = (7, 41);
const SETUP_PROBING: Duration = Duration::from_secs(1);

/// Where runs leave spans and scratch files (inside the checkout).
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// One benchmark run.
#[derive(Clone, Debug)]
struct Options {
    kind: Kind,
    seed: u64,
    scale: Scale,
    budget: Duration,
    min_requests: usize,
    trace: bool,
    /// Executable whose fresh processes time the set-up; `None` times it
    /// once in this process (the self-tests).
    setup_exe: Option<PathBuf>,
}

/// The requests of one timed phase.
#[derive(Debug, Default)]
struct Phase {
    samples: Vec<Sample>,
    /// Jobs and wall time (ns) of each pass.
    passes: Vec<Pass>,
}

impl Phase {
    /// Median over passes of jobs scheduled per second of pass wall time,
    /// so one pass slowed by something else on the machine does not move it.
    fn jobs_per_s(&self) -> f64 {
        let rates: Vec<f64> = self
            .passes
            .iter()
            .map(|p| ratio(p.jobs as f64, p.wall_ns as f64 / 1e9))
            .collect();
        stats::median(&rates).unwrap_or(0.0)
    }

    /// Request latencies in ms, ascending.
    fn latencies_ms(&self) -> Vec<f64> {
        let mut v: Vec<f64> = self.samples.iter().map(|s| s.ns as f64 / 1e6).collect();
        v.sort_by(f64::total_cmp);
        v
    }

    /// The `q`-quantile of request latency, ms.
    fn latency_ms(&self, q: f64) -> f64 {
        percentile(&self.latencies_ms(), q).unwrap_or(0.0)
    }
}

/// Sends whole passes until `budget` has elapsed and `min_requests`
/// requests were sent.
fn drive(
    w: &mut dyn Workload,
    tr: &mut Tracer,
    budget: Duration,
    min_requests: usize,
) -> Result<Phase, String> {
    let mut phase = Phase::default();
    let start = Instant::now();
    while phase.passes.is_empty() || start.elapsed() < budget || phase.samples.len() < min_requests
    {
        let pass = w.pass(tr, &mut phase.samples)?;
        phase.passes.push(pass);
    }
    Ok(phase)
}

fn setup_seconds(o: &Options) -> Result<f64, String> {
    let Some(exe) = &o.setup_exe else {
        return o.kind.setup_once(o.seed, &o.scale, &out_dir());
    };
    let (min, max) = SETUP_RUNS;
    let start = Instant::now();
    let mut secs = Vec::with_capacity(max);
    while secs.len() < min || (secs.len() < max && start.elapsed() < SETUP_PROBING) {
        let run = std::process::Command::new(exe)
            .args(["--setup-probe", "--workload", o.kind.name()])
            .args(["--seed", &o.seed.to_string()])
            .output()
            .map_err(|e| format!("starting set-up probe: {e}"))?;
        let text = String::from_utf8_lossy(&run.stdout);
        if !run.status.success() {
            return Err(format!(
                "set-up probe failed ({}): {}{}",
                run.status,
                text,
                String::from_utf8_lossy(&run.stderr)
            ));
        }
        secs.push(
            text.trim()
                .parse::<f64>()
                .map_err(|e| format!("set-up probe printed {text:?}: {e}"))?,
        );
    }
    stats::median(&secs).ok_or_else(|| "no set-up probe ran".to_string())
}

/// Peak resident set (`VmHWM`) of this process, MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Runs one workload and returns its report plus human-readable lines.
fn run(o: &Options) -> Result<(Report, Vec<String>), String> {
    let out = out_dir();
    std::fs::create_dir_all(&out).map_err(|e| format!("creating {}: {e}", out.display()))?;
    let name = o.kind.name();
    let mut w = o.kind.build(o.seed, &o.scale, &out)?;
    let mut values = Values::new();
    let mut lines = Vec::new();
    let (phase, table, earlier) = if o.trace {
        // An untraced calibration phase prices the tracing itself. Spans
        // only feed per-layer means, which need no minimum request count.
        let calibration = drive(
            &mut *w,
            &mut Tracer::new(false),
            o.budget / 2,
            o.min_requests,
        )?;
        let mut tr = Tracer::new(true);
        let phase = drive(&mut *w, &mut tr, o.budget, 0)?;
        w.layer_values(&tr, &mut values);
        let base = calibration.latency_ms(0.5);
        values.insert(
            "trace.overhead_share",
            ratio(phase.latency_ms(0.5), base) - 1.0,
        );
        let path = out.join(format!("spans-{name}-seed{}.jsonl", o.seed));
        tr.write_jsonl(&path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        lines.push(format!(
            "{name} spans={} written to {} (untraced p50={base:.3} ms)",
            tr.spans().len(),
            path.display()
        ));
        (phase, &PER_LAYER[..], calibration.samples)
    } else {
        let setup_s = setup_seconds(o)?;
        let phase = drive(&mut *w, &mut Tracer::new(false), o.budget, o.min_requests)?;
        values.insert("setup_s", setup_s);
        values.insert("jobs_per_s", phase.jobs_per_s());
        values.insert("latency_ms_p50", phase.latency_ms(0.5));
        values.insert("latency_ms_p90", phase.latency_ms(0.9));
        values.insert("cost_over_lb", w.cost_over_lb());
        values.insert("peak_rss_mb", peak_rss_mb()?);
        (phase, &END_TO_END[..], Vec::new())
    };
    let attempted = (phase.samples.len() + earlier.len()) as u64;
    let failed = phase
        .samples
        .iter()
        .chain(&earlier)
        .filter(|s| s.failed)
        .count() as u64;
    if !o.trace {
        values.insert("ok_share", 1.0 - ratio(failed as f64, attempted as f64));
    }

    let lat = phase.latencies_ms();
    let [q1, _, q3] = quartiles(&lat).unwrap_or([0.0; 3]);
    let walls: Vec<String> = phase
        .passes
        .iter()
        .map(|p| format!("{:.0}", p.wall_ns as f64 / 1e6))
        .collect();
    lines.push(format!(
        "{name} seed={} trace={} samples={} latency_ms p50={:.3} p90={:.3} q1={q1:.3} q3={q3:.3}",
        o.seed,
        u8::from(o.trace),
        lat.len(),
        phase.latency_ms(0.5),
        phase.latency_ms(0.9),
    ));
    lines.push(format!(
        "{name} passes={} wall_ms=[{}]",
        walls.len(),
        walls.join(" ")
    ));
    lines.push(format!(
        "{name} answers fnv1a64={:#018x} cost_over_lb={:.6} consistent={}",
        w.digest(),
        w.cost_over_lb(),
        w.consistent()
    ));
    let correct = failed == 0 && w.consistent();
    Ok((
        Report::new(correct, attempted, failed, table, &values),
        lines,
    ))
}

/// Parsed command line.
struct Args {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
    setup_probe: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut kind = None;
    let (mut seed, mut seconds, mut trace, mut setup_probe) = (None, None, false, false);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--setup-probe" {
            setup_probe = true;
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let num = |v: &str| v.parse::<u64>().map_err(|e| format!("{flag} {v:?}: {e}"));
        match flag.as_str() {
            "--workload" => kind = Some(Kind::parse(value)?),
            "--seed" => seed = Some(num(value)?),
            "--seconds" => seconds = Some(num(value)?.max(1)),
            "--trace" => {
                trace = match value {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace,
        setup_probe,
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = parse_args(&argv).and_then(|args| {
        if args.setup_probe {
            let secs = args.kind.setup_once(args.seed, &Scale::FULL, &out_dir())?;
            println!("{secs}");
            return Ok(());
        }
        let exe = std::env::current_exe().map_err(|e| format!("locating this program: {e}"))?;
        let (report, lines) = run(&Options {
            kind: args.kind,
            seed: args.seed,
            scale: Scale::FULL,
            budget: Duration::from_secs(args.seconds),
            min_requests: MIN_REQUESTS,
            trace: args.trace,
            setup_exe: Some(exe),
        })?;
        for line in lines {
            println!("{line}");
        }
        println!("{}", report.to_json());
        Ok(())
    });
    if let Err(e) = result {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(kind: Kind, seed: u64, trace: bool) -> Report {
        let (report, _) = run(&Options {
            kind,
            seed,
            scale: Scale::TINY,
            budget: Duration::ZERO,
            min_requests: 1,
            trace,
            setup_exe: None,
        })
        .unwrap_or_else(|e| panic!("{}: {e}", kind.name()));
        report
    }

    fn assert_reports(report: &Report, table: &[(&str, &str)]) {
        let json = report.to_json();
        for (name, unit) in table {
            let entry = format!(r#""{name}": {{"value": "#);
            assert!(json.contains(&entry), "{name} missing from {json}");
            assert!(json.contains(&format!(r#""unit": "{unit}"}}"#)), "{unit}");
        }
        assert_eq!(report.metrics.len(), table.len());
        assert!(report.correct, "{json}");
        assert_eq!(report.failed, 0);
        assert!(report.attempted >= 1);
    }

    /// A tiny run of each workload, on the default seed and one other,
    /// prints every end-to-end metric with its unit and passes its checks.
    #[test]
    fn smoke_every_workload_untraced() {
        for kind in Kind::ALL {
            for seed in [1, 7] {
                let r = tiny(kind, seed, false);
                assert_reports(&r, &END_TO_END);
                let v = |n: &str| r.metrics.iter().find(|m| m.0 == n).unwrap().2;
                assert!(v("latency_ms_p50") > 0.0 && v("jobs_per_s") > 0.0);
                assert!(v("cost_over_lb") >= 1.0, "{}", kind.name());
                assert_eq!(v("ok_share"), 1.0);
                assert!(v("setup_s") > 0.0 && v("peak_rss_mb") > 0.0);
            }
        }
    }

    /// A tiny traced run prints every per-layer metric with its unit; the
    /// layers each workload calls are non-zero and the service stays on
    /// the top rung with no overloads.
    #[test]
    fn smoke_every_workload_traced() {
        let called: [(Kind, &[&str]); 3] = [
            (
                Kind::PlanOffline,
                &[
                    "serde_json.parse_ms",
                    "serde_json.parse_mb_per_s",
                    "algos.offline_solve_ms",
                    "chart.place_ms",
                    "algos.ops_per_job",
                    "core.lower_bound_ms",
                ],
            ),
            (
                Kind::StreamObserved,
                &[
                    "sim.drive_ms",
                    "obs.trace_bytes",
                    "obs.events_per_job",
                    "algos.ops_per_job",
                ],
            ),
            (
                Kind::ServeTenants,
                &[
                    "serve.step_ms",
                    "serve.restore_ms",
                    "obs.slo_eval_ms",
                    "serve.history_events",
                    "serve.checkpoint_bytes",
                ],
            ),
        ];
        for (kind, nonzero) in called {
            let r = tiny(kind, 3, true);
            assert_reports(&r, &PER_LAYER);
            let v = |n: &str| r.metrics.iter().find(|m| m.0 == n).unwrap().2;
            for n in nonzero {
                assert!(v(n) > 0.0, "{}: {n} = {}", kind.name(), v(n));
            }
            assert_eq!(v("serve.final_rung"), 0.0);
            assert_eq!(v("serve.overloads"), 0.0);
            let share = v(&format!("{}.unattributed_share", kind.name()));
            assert!((0.0..1.0).contains(&share), "{share}");
        }
    }

    #[test]
    fn args_parse_and_reject() {
        let a = |s: &str| -> Vec<String> { s.split_whitespace().map(String::from).collect() };
        let args = parse_args(&a(
            "--workload serve-tenants --seed 9 --seconds 3 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (args.kind, args.seed, args.seconds, args.trace),
            (Kind::ServeTenants, 9, 3, true)
        );
        assert!(parse_args(&a("--workload nope")).is_err());
        assert!(parse_args(&a("--workload plan-offline --trace 2")).is_err());
        assert!(parse_args(&a("--workload plan-offline --seed")).is_err());
        assert!(parse_args(&a("--seed 1")).is_err());
    }
}
