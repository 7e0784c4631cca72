//! `bshm replay` and the other trace commands on awkward traces.
//!
//! A trace only names the machine types it opened, so its highest type
//! index can sit below the catalog's. With `--instance` the replayed
//! timeline must still have one column per catalog type, or the
//! cross-check against the schedule's timeline fails on a width mismatch.
//!
//! A trace torn inside a multi-byte character is damage that salvage and
//! `watch` cut off alike, and accruals whose cost overflows `u64` give the
//! same saturated total in every command.

use bshm_core::instance::Instance;
use bshm_core::job::Job;
use bshm_core::machine::{Catalog, MachineType};

fn run_cmd(args: &str) -> (i32, String) {
    let argv: Vec<String> = args.split_whitespace().map(str::to_string).collect();
    let mut buf = Vec::new();
    let code = bshm_cli::run(&argv, &mut buf);
    (code, String::from_utf8(buf).unwrap())
}

fn tmp(name: &str) -> String {
    let dir = std::env::temp_dir().join(format!("bshm-replay-cli-tests-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name).to_string_lossy().into_owned()
}

/// Three types; every job fits the smallest one, so the top type is
/// never opened.
fn small_jobs_instance() -> Instance {
    let jobs: Vec<Job> = (0..12u32)
        .map(|i| {
            Job::new(
                i,
                1 + u64::from(i % 3),
                u64::from(i) * 2,
                u64::from(i) * 2 + 7,
            )
        })
        .collect();
    let catalog = Catalog::new(vec![
        MachineType::new(4, 1),
        MachineType::new(8, 2),
        MachineType::new(32, 5),
    ])
    .unwrap();
    Instance::new(jobs, catalog).unwrap()
}

#[test]
fn replay_cross_check_passes_when_the_top_type_is_unused() {
    let instance = small_jobs_instance();
    let (inst, trace, sched) = (tmp("inst.json"), tmp("t.jsonl"), tmp("s.json"));
    std::fs::write(&inst, serde_json::to_string(&instance).unwrap()).unwrap();
    let (code, out) = run_cmd(&format!(
        "solve --instance {inst} --alg inc-online --trace {trace} --out {sched}"
    ));
    assert_eq!(code, 0, "{out}");
    let text = std::fs::read_to_string(&trace).unwrap();
    let events = bshm_obs::replay::parse_jsonl(&text).unwrap();
    assert!(
        bshm_obs::replay::infer_n_types(&events) < instance.catalog().len(),
        "the fixture must leave the top type unused"
    );
    let (code, out) = run_cmd(&format!(
        "replay --trace {trace} --instance {inst} --schedule {sched}"
    ));
    assert_eq!(code, 0, "{out}");
    assert!(
        out.contains("cross-check: replayed timeline matches"),
        "{out}"
    );
    // The busy table has a column for the unused top type too.
    assert!(out.contains("type2"), "{out}");
}

#[test]
fn replay_rejects_a_trace_type_beyond_the_catalog() {
    let instance = small_jobs_instance();
    let (inst, trace) = (tmp("inst-wide.json"), tmp("t-wide.jsonl"));
    std::fs::write(&inst, serde_json::to_string(&instance).unwrap()).unwrap();
    std::fs::write(
        &trace,
        "{\"Arrival\":{\"t\":0,\"job\":0,\"size\":1}}\n\
         {\"MachineOpen\":{\"t\":0,\"machine\":0,\"machine_type\":7}}\n\
         {\"MachineClose\":{\"t\":5,\"machine\":0,\"machine_type\":7,\"opened_at\":0}}\n",
    )
    .unwrap();
    let (code, out) = run_cmd(&format!("replay --trace {trace} --instance {inst}  --gap"));
    assert_ne!(code, 0, "{out}");
    assert!(
        out.contains("machine type 7 but the instance catalog has 3 type(s)"),
        "{out}"
    );
}

/// A `dec-online` trace of a three-job instance, written to `name`.
fn small_trace(name: &str) -> String {
    let (inst, trace) = (tmp(&format!("{name}.inst.json")), tmp(name));
    let (code, out) = run_cmd(&format!("gen --n 3 --seed 1 --out {inst}"));
    assert_eq!(code, 0, "{out}");
    let (code, out) = run_cmd(&format!(
        "solve --instance {inst} --alg dec-online --trace {trace}"
    ));
    assert_eq!(code, 0, "{out}");
    trace
}

#[test]
fn every_trace_command_saturates_an_overflowing_cost() {
    let trace = small_trace("overflow.jsonl");
    let text = std::fs::read_to_string(&trace).unwrap();
    let mut events = bshm_obs::replay::parse_jsonl(&text).unwrap();
    let accrual = events
        .iter_mut()
        .find(|e| matches!(e, bshm_obs::TraceEvent::CostAccrual { .. }))
        .unwrap();
    if let bshm_obs::TraceEvent::CostAccrual { busy, rate, .. } = accrual {
        // (2^32) × (2^32 + 1) is 2^64 + 2^32: one past u64 by far.
        (*busy, *rate) = (1 << 32, (1 << 32) + 1);
    }
    std::fs::write(&trace, bshm_obs::jsonl_string(&events).unwrap()).unwrap();
    let saturated = u64::MAX.to_string();
    let report = tmp("overflow-report.json");
    let (code, out) = run_cmd(&format!("replay --trace {trace} --report {report}"));
    assert_eq!(code, 0, "{out}");
    assert!(
        out.contains(&format!("traced cost:  {saturated}\n")),
        "{out}"
    );
    let json = std::fs::read_to_string(&report).unwrap();
    assert!(
        json.contains(&format!("\"traced_cost\":{saturated},")),
        "{json}"
    );
    let (code, out) = run_cmd(&format!("top {trace}"));
    assert_eq!(code, 0, "{out}");
    assert!(out.contains(&format!("total cost: {saturated}\n")), "{out}");
    let (code, out) = run_cmd(&format!("export-metrics --trace {trace} --format json"));
    assert_eq!(code, 0, "{out}");
    assert!(
        out.contains(&format!("\"traced_cost\": {saturated},")),
        "{out}"
    );
}

#[test]
fn salvage_and_watch_keep_the_prefix_of_a_tail_torn_inside_a_character() {
    let trace = small_trace("utf8.jsonl");
    let text = std::fs::read_to_string(&trace).unwrap();
    let mut bytes: Vec<u8> = text
        .split_inclusive('\n')
        .take(5)
        .collect::<String>()
        .into();
    // A tail cut after the first byte of a two-byte character.
    let tail = b"{\"Arrival\":{\"t\":9,\"job\":1,\"size\":\xc3";
    bytes.extend_from_slice(tail);
    std::fs::write(&trace, &bytes).unwrap();
    let (code, out) = run_cmd(&format!("replay --trace {trace} --salvage"));
    assert_eq!(code, 0, "{out}");
    assert!(
        out.contains(&format!(
            "salvage:      kept 5 events, dropped 1 damaged line(s) / {} byte(s)\n",
            tail.len()
        )),
        "{out}"
    );
    let (code, out) = run_cmd(&format!("watch {trace}"));
    assert_eq!(code, 0, "{out}");
    assert!(out.contains("events:       5 over"), "{out}");
    assert!(out.contains("tail:         torn mid-write"), "{out}");
    // The strict read names the damaged line.
    let (code, out) = run_cmd(&format!("replay --trace {trace}"));
    assert_eq!(code, 2, "{out}");
    assert!(out.contains("trace line 6: "), "{out}");
}
