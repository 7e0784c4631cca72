//! Fault-injection surface tests.
//!
//! The core equivalence property (satellite of the fault tentpole): for
//! every registered algorithm, running under the *empty* fault plan is
//! indistinguishable from the fault-free driver — byte-identical trace,
//! identical schedule, identical cost. Plus end-to-end coverage of
//! `solve --faults`, `crash-test` and `replay --salvage`.

use bshm_algos::registry;
use bshm_cli::commands::online_or_scripted;
use bshm_core::instance::Instance;
use bshm_core::schedule_cost;
use bshm_faults::{run_online_faulted, FaultPlan, SameType};
use bshm_obs::{Collector, Deterministic};
use bshm_sim::run_online_probed;

fn run_cmd(args: &str) -> (i32, String) {
    let argv: Vec<String> = args.split_whitespace().map(str::to_string).collect();
    let mut buf = Vec::new();
    let code = bshm_cli::run(&argv, &mut buf);
    (code, String::from_utf8(buf).unwrap())
}

fn tmp(name: &str) -> String {
    let dir = std::env::temp_dir().join("bshm-faults-cli-tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name).to_string_lossy().into_owned()
}

fn gen_instance(name: &str, n: usize, seed: u64) -> (String, Instance) {
    let path = tmp(name);
    let (code, out) = run_cmd(&format!(
        "gen --n {n} --seed {seed} --catalog dec:3:4 --arrivals poisson:3 \
         --durations uniform:8:40 --sizes uniform:1:48 --out {path}"
    ));
    assert_eq!(code, 0, "{out}");
    let instance: Instance =
        serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
    (path, instance)
}

fn jsonl(events: &[bshm_obs::TraceEvent]) -> Vec<String> {
    events
        .iter()
        .map(|e| serde_json::to_string(e).unwrap())
        .collect()
}

/// Satellite property: the empty plan is a perfect no-op. Every algorithm
/// (offline ones through the script scheduler) produces a byte-identical
/// trace, the same schedule and the same cost under `run_online_faulted`
/// with `FaultPlan::none()` as under the plain probed driver.
#[test]
fn empty_fault_plan_is_byte_identical_for_every_algorithm() {
    let (_, instance) = gen_instance("inst-equiv.json", 45, 17);
    for alg in registry::names() {
        // Fault-free reference through the plain driver.
        let mut base_probe = Deterministic(Collector::default());
        let mut base_sched = online_or_scripted(alg, &instance).unwrap();
        let base_schedule =
            run_online_probed(&instance, &mut &mut *base_sched, &mut base_probe).unwrap();

        // Same scheduler construction through the faulted driver, no plan.
        let mut fault_probe = Deterministic(Collector::default());
        let mut fault_sched = online_or_scripted(alg, &instance).unwrap();
        let mut policy = SameType::default();
        let outcome = run_online_faulted(
            &instance,
            &mut *fault_sched,
            &FaultPlan::none(),
            &mut policy,
            &mut fault_probe,
        )
        .unwrap();

        assert_eq!(
            jsonl(&base_probe.0.events),
            jsonl(&fault_probe.0.events),
            "alg {alg}: trace diverges under the empty fault plan"
        );
        assert_eq!(
            outcome.schedule, base_schedule,
            "alg {alg}: schedule diverges under the empty fault plan"
        );
        assert_eq!(
            outcome.report.base_cost,
            schedule_cost(&base_schedule, &instance),
            "alg {alg}: cost diverges under the empty fault plan"
        );
        let r = &outcome.report;
        assert_eq!(
            (
                r.crashes,
                r.displaced,
                r.rerouted,
                r.recovery_cost,
                r.dropped.len()
            ),
            (0, 0, 0, 0, 0),
            "alg {alg}: empty plan produced fault activity"
        );
    }
}

#[test]
fn solve_faults_reports_the_recovery_ledger() {
    let (inst, _) = gen_instance("inst-solve.json", 50, 3);
    let rec = tmp("exec-record.json");
    let (code, out) = run_cmd(&format!(
        "solve --instance {inst} --alg dec-online \
         --faults crash:20:0,oversized:5:4096:5 --recover first-fit --out {rec}"
    ));
    assert_eq!(code, 0, "{out}");
    assert!(out.contains("dec-online + first-fit recovery"), "{out}");
    assert!(out.contains("crashes:"), "{out}");
    assert!(out.contains("base cost:"), "{out}");
    assert!(out.contains("recovery:"), "{out}");
    // The oversized job is reported dropped with a reason, never silently.
    assert!(out.contains("dropped:      1 jobs"), "{out}");
    assert!(out.contains("wrote execution record"), "{out}");
    assert!(std::fs::read_to_string(&rec)
        .unwrap()
        .contains("machine_type"));
}

#[test]
fn solve_faults_works_for_offline_algorithms_and_traces() {
    // An offline algorithm under faults runs through the script scheduler;
    // the trace and metrics plumbing still work.
    let (inst, _) = gen_instance("inst-offline.json", 40, 9);
    let trace = tmp("faulted.jsonl");
    let (code, out) = run_cmd(&format!(
        "solve --instance {inst} --alg auto --faults seeded:11:2 --trace {trace} --metrics"
    ));
    assert_eq!(code, 0, "{out}");
    assert!(out.contains("trace events"), "{out}");
    assert!(out.contains("\"algorithm\": \"auto\""), "{out}");
    assert!(out.contains("recovery:"), "{out}");
}

#[test]
fn solve_faults_rejects_bad_specs_and_policies() {
    let (inst, _) = gen_instance("inst-bad.json", 10, 1);
    let (code, out) = run_cmd(&format!("solve --instance {inst} --faults meteor:1:2"));
    assert_eq!(code, 2);
    assert!(out.contains("fault spec"), "{out}");
    let (code, out) = run_cmd(&format!(
        "solve --instance {inst} --faults crash:5:0 --recover pray"
    ));
    assert_eq!(code, 2);
    assert!(out.contains("recovery policy"), "{out}");
}

#[test]
fn crash_test_subcommand_passes_and_writes_artifacts() {
    let (inst, _) = gen_instance("inst-ct.json", 45, 21);
    let dir = tmp("ct-artifacts");
    let (code, out) = run_cmd(&format!(
        "crash-test --instance {inst} --alg first-fit-any --faults seeded:7:2 \
         --recover same-type --stop-after 30 --artifacts {dir}"
    ));
    assert_eq!(code, 0, "{out}");
    assert!(out.contains("PASS"), "{out}");
    assert!(out.contains("trace suffix: [ok]"), "{out}");
    let dir = std::path::Path::new(&dir);
    assert!(dir.join("crash-trace.jsonl.partial").exists());
    assert!(dir.join("crash-checkpoint.json").exists());
}

#[test]
fn crash_test_defaults_work_on_every_algorithm_family() {
    let (inst, _) = gen_instance("inst-ct-all.json", 30, 5);
    // One online, one offline-via-script: both must survive the cycle.
    for alg in ["best-fit", "part-ffd"] {
        let (code, out) = run_cmd(&format!("crash-test --instance {inst} --alg {alg}"));
        assert_eq!(code, 0, "alg {alg}: {out}");
        assert!(out.contains("PASS"), "alg {alg}: {out}");
    }
}

#[test]
fn replay_salvage_tolerates_a_torn_trailing_line() {
    let (inst, _) = gen_instance("inst-salv.json", 40, 13);
    let trace = tmp("salv.jsonl");
    let (code, out) = run_cmd(&format!(
        "solve --instance {inst} --alg dec-online --trace {trace}"
    ));
    assert_eq!(code, 0, "{out}");
    // Tear the last line in half, as a killed writer would.
    let full = std::fs::read_to_string(&trace).unwrap();
    let body = full.trim_end_matches('\n');
    let cut = body.rfind('\n').unwrap() + 1 + (body.len() - body.rfind('\n').unwrap()) / 2;
    std::fs::write(&trace, &body[..cut]).unwrap();

    // Strict replay refuses the torn file; --salvage replays the prefix.
    let (code, out) = run_cmd(&format!("replay --trace {trace}"));
    assert_eq!(code, 2, "{out}");
    let (code, out) = run_cmd(&format!("replay --trace {trace} --salvage"));
    assert_eq!(code, 0, "{out}");
    assert!(out.contains("dropped 1 damaged line(s)"), "{out}");
    assert!(out.contains("busy machines by type"), "{out}");
}
