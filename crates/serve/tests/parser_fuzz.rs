//! Seeded mutation fuzzing of every input grammar.
//!
//! Each case takes a valid document — an instance, a CSV job trace, a
//! checkpoint, a trace, a fault plan, an SLO spec or a serve request
//! script —
//! and applies one to three random edits: flip a byte, insert a byte,
//! delete a byte or truncate. The reader must return `Ok` or `Err`,
//! never panic. A decoded JSON value must also survive an encode and
//! decode round trip, and a decoded instance (or one built from CSV jobs)
//! must solve to a valid schedule, so an instance that breaks §II cannot
//! slip through to a solver. The proptest stand-in seeds its RNG from the test name, so a
//! failing case number reproduces. Documents that once made a reader or
//! a solver panic are replayed from `golden/fuzz_regressions.txt`.

use bshm_core::validate::validate_schedule;
use bshm_core::{Catalog, Instance, MachineType};
use bshm_faults::{Checkpoint, FaultPlan};
use bshm_obs::slo::SloSpec;
use bshm_obs::{EventStream, NoProbe};
use bshm_serve::{builtin_factory, Service, ServiceConfig};
use proptest::prelude::*;
use std::path::PathBuf;

/// Bytes an insertion or flip draws half of the time: the JSON and spec
/// punctuation, digits and keyword letters, where one edit changes the
/// most structure.
const STRUCTURAL: &[u8] = b"{}[],:\"\\-+.eE0123456789ntfu \n;@";

/// One to three edits, each `(kind, position, byte)`; the position is
/// taken modulo the document length when applied.
fn edits() -> impl Strategy<Value = Vec<(u8, usize, u8)>> {
    prop::collection::vec((0u8..4, 0usize..1 << 20, 0u8..=255), 1..4)
}

fn mutate(doc: &str, edits: &[(u8, usize, u8)]) -> String {
    let mut bytes = doc.as_bytes().to_vec();
    for &(kind, at, b) in edits {
        let b = if b < 128 {
            STRUCTURAL[usize::from(b) % STRUCTURAL.len()]
        } else {
            b
        };
        let at = at % (bytes.len() + 1);
        match kind {
            0 if at < bytes.len() => bytes[at] ^= b.max(1),
            1 => bytes.insert(at, b),
            2 if at < bytes.len() => {
                bytes.remove(at);
            }
            _ => bytes.truncate(at),
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

fn fixture(path: &str) -> String {
    let full = format!("{}/{path}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&full).unwrap_or_else(|e| panic!("reading {full}: {e}"))
}

fn instances() -> Vec<String> {
    vec![
        fixture("../faults/tests/golden/instance.pretty.json"),
        r#"{"jobs":[{"id":0,"size":3,"arrival":0,"departure":6},{"id":1,"size":16,"arrival":2,"departure":3}],"catalog":{"types":[{"capacity":4,"rate":1},{"capacity":16,"rate":2}]}}"#.to_string(),
    ]
}

/// Decodes an instance document; a decoded instance must round-trip and
/// solve.
fn check_instance(text: &str) {
    let Ok(instance) = serde_json::from_str::<Instance>(text) else {
        return;
    };
    let encoded = serde_json::to_string(&instance).unwrap();
    assert_eq!(
        serde_json::from_str::<Instance>(&encoded).unwrap(),
        instance
    );
    solve(&instance);
}

/// An instance must solve to a valid schedule under an offline and an
/// online algorithm.
fn solve(instance: &Instance) {
    for alg in ["dec-offline", "dec-online"] {
        let schedule = bshm_algos::registry::run_traced(alg, instance, &mut NoProbe).unwrap();
        validate_schedule(&schedule, instance).unwrap();
    }
}

/// Parses a CSV job trace; jobs that make an instance must solve.
fn check_csv(text: &str) {
    let Ok(jobs) = bshm_workload::parse_csv(text) else {
        return;
    };
    let catalog = Catalog::new(vec![MachineType::new(4, 1), MachineType::new(16, 2)]).unwrap();
    if let Ok(instance) = Instance::new(jobs, catalog) {
        solve(&instance);
    }
}

fn check_checkpoint(text: &str) {
    if let Ok(cp) = Checkpoint::from_json(text) {
        assert_eq!(Checkpoint::from_json(&cp.to_json().unwrap()).unwrap(), cp);
    }
}

/// The reader contract: salvage keeps exactly the events a strict read
/// accepts, and the input splits into the bytes it kept (which read back
/// strictly to those events) and the `dropped_bytes` from the first
/// damaged line on.
fn check_trace(text: &str) {
    let salvage = EventStream::new(text.as_bytes()).salvage().unwrap();
    if let Ok(events) = bshm_obs::replay::parse_jsonl(text) {
        let encoded = bshm_obs::jsonl_string(&events).unwrap();
        assert_eq!(bshm_obs::replay::parse_jsonl(&encoded).unwrap(), events);
        assert_eq!(salvage.events, events);
        assert_eq!((salvage.dropped_lines, salvage.dropped_bytes), (0, 0));
    }
    let dropped = usize::try_from(salvage.dropped_bytes).unwrap();
    assert!(dropped <= text.len());
    let (kept, torn) = text.as_bytes().split_at(text.len() - dropped);
    let strict: Result<Vec<_>, _> = EventStream::new(kept).collect();
    assert_eq!(strict.unwrap(), salvage.events);
    assert_eq!(torn.is_empty(), salvage.dropped_lines == 0);
    if !torn.is_empty() {
        assert!(kept.is_empty() || kept.ends_with(b"\n"));
        assert!(EventStream::new(torn).next().unwrap().is_err());
    }
}

fn check_fault_plan(text: &str) {
    if let Ok(plan) = FaultPlan::parse(text) {
        FaultPlan::parse(plan.spec()).unwrap();
    }
}

fn check_slo(text: &str) {
    let _ = SloSpec::parse(text);
}

/// Runs a request script through a fresh service, one line at a time,
/// in a data directory of its own per `test`.
fn check_script(text: &str, test: &str) {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("bshm-parser-fuzz-{}-{test}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let mut service = Service::new(ServiceConfig::new(&dir), builtin_factory()).unwrap();
    for line in text.lines() {
        let reply = service.handle_line(line);
        assert!(!reply.is_empty(), "{line:?}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

const CSV: &str = "id,size,arrival,departure\n0,3,0,6\n# a comment\n1,16,2,3\n2,5,4,9\n";

const FAULT_PLANS: [&str; 5] = [
    "crash:10:0",
    "storm:5:3:2:4",
    "oversized:3:100:5",
    "seeded:7:3",
    "crash:2:1,storm:4:2:1:3,oversized:6:9:2",
];

const SLO_SPECS: [&str; 3] = [
    "window:16;gap:20000:2;storm:1;drops:1",
    "latency:1500:2",
    "window:64; gap:1250:3 ;",
];

const SCRIPT: &str = "ADMIT a dec-online 2 dec:12:3 crash:10:0
ADMIT b best-fit 1 inc:8:4
SUBMIT a 2
STEP a
SUBMIT b 1
STEP b
KILL a
STEP a
RESTORE a
HEALTH a
STATS
DRAIN
QUIT
";

#[test]
fn committed_regressions_stay_handled() {
    let text = fixture("tests/golden/fuzz_regressions.txt");
    for entry in text.split("\n---\n").filter(|e| !e.starts_with('#')) {
        let (grammar, doc) = entry.split_once('\n').unwrap_or((entry, ""));
        match grammar {
            "instance" => check_instance(doc),
            "csv" => check_csv(doc),
            "checkpoint" => check_checkpoint(doc),
            "trace" => check_trace(doc),
            "fault-plan" => check_fault_plan(doc),
            "slo" => check_slo(doc),
            "script" => check_script(doc, "regression"),
            other => panic!("unknown grammar `{other}` in fuzz_regressions.txt"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn mutated_instances_decode_or_fail_cleanly(seed in 0usize..2, edits in edits()) {
        check_instance(&mutate(&instances()[seed], &edits));
    }

    #[test]
    fn mutated_csv_traces_parse_or_fail_cleanly(edits in edits()) {
        check_csv(&mutate(CSV, &edits));
    }

    #[test]
    fn mutated_checkpoints_decode_or_fail_cleanly(edits in edits()) {
        check_checkpoint(&mutate(&fixture("tests/golden/checkpoint.json"), &edits));
    }

    #[test]
    fn mutated_traces_parse_or_fail_cleanly(edits in edits()) {
        check_trace(&mutate(&fixture("../faults/tests/golden/events.jsonl"), &edits));
    }

    #[test]
    fn mutated_fault_plans_parse_or_fail_cleanly(seed in 0usize..5, edits in edits()) {
        check_fault_plan(&mutate(FAULT_PLANS[seed], &edits));
    }

    #[test]
    fn mutated_slo_specs_parse_or_fail_cleanly(seed in 0usize..3, edits in edits()) {
        check_slo(&mutate(SLO_SPECS[seed], &edits));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(100))]

    #[test]
    fn mutated_request_scripts_get_a_reply_per_line(edits in edits()) {
        check_script(&mutate(SCRIPT, &edits), "random");
    }
}
