//! Golden bytes for the JSON encoder.
//!
//! Pins one compact line per `TraceEvent` variant, the pretty documents
//! `bshm` writes (instance, schedule, metrics), the float format at its
//! boundaries, the std container encodings, `instance_digest` of a fixed
//! generated instance, and the refusal of non-finite floats. Every
//! expected string was captured from the earlier encoder, which built a
//! `serde::Value` tree first, so any drift in key order, float format,
//! escaping or indentation fails here. The container rows of derived
//! structs and struct variants were captured from the derive's
//! call-by-call output, before compact mode wrote constant runs whole.

use bshm_core::ops::{OpCounter, PlaceReason, RejectReason, RejectedCandidate};
use bshm_core::{Instance, Job, JobId, MachineId, Schedule, TypeIndex};
use bshm_faults::checkpoint::instance_digest;
use bshm_obs::{AlertReason, Metrics, Probe, Recorder, TenantPhase, TraceEvent};
use bshm_workload::catalogs::dec_geometric;
use bshm_workload::{ArrivalProcess, DurationLaw, SizeLaw, WorkloadSpec};
use std::collections::BTreeMap;

/// A string that exercises every escape the encoder emits, plus
/// multibyte UTF-8 and `/` (which JSON allows unescaped).
const AWKWARD: &str = "q\"b\\s\n\t\r\u{1}\u{1f} größe 日本 🚀 /";

fn events() -> Vec<TraceEvent> {
    let ops = OpCounter {
        decisions: 1,
        machines_scanned: 2,
        capacity_comparisons: 3,
        rejected_capacity: 4,
        rejected_busy: 5,
        rejected_admission: 6,
        rejected_roster_full: 7,
        rejected_window: 8,
        machines_opened: 9,
        machines_reused: 10,
    };
    vec![
        TraceEvent::Arrival {
            t: 0,
            job: JobId(0),
            size: 3,
        },
        TraceEvent::MachineOpen {
            t: 0,
            machine: MachineId(0),
            machine_type: TypeIndex(1),
        },
        TraceEvent::Placement {
            t: 0,
            job: JobId(0),
            machine: MachineId(0),
            machine_type: TypeIndex(1),
            opened: true,
            decision_ns: 1234,
            load: 3,
            capacity: 16,
        },
        TraceEvent::Departure {
            t: 9,
            job: JobId(0),
            machine: MachineId(0),
        },
        TraceEvent::CostAccrual {
            t: 9,
            machine: MachineId(0),
            machine_type: TypeIndex(1),
            busy: 9,
            rate: 2,
        },
        TraceEvent::MachineClose {
            t: 9,
            machine: MachineId(0),
            machine_type: TypeIndex(1),
            opened_at: 0,
        },
        TraceEvent::MachineCrash {
            t: 10,
            machine: MachineId(2),
            machine_type: TypeIndex(0),
            displaced: 2,
        },
        TraceEvent::JobRecovery {
            t: 10,
            job: JobId(4),
            from: MachineId(2),
            to: MachineId(3),
            machine_type: TypeIndex(0),
            recovery_ns: 77,
        },
        TraceEvent::JobDropped {
            t: 10,
            job: JobId(5),
            reason: AWKWARD.to_string(),
        },
        TraceEvent::Decision {
            t: 11,
            job: JobId(6),
            machine: MachineId(3),
            placed: PlaceReason::ReusedIdle,
            pool_size: 4,
            candidates: vec![
                RejectedCandidate {
                    machine: MachineId(1),
                    reason: RejectReason::Capacity,
                },
                RejectedCandidate {
                    machine: MachineId(2),
                    reason: RejectReason::WindowExpired,
                },
            ],
            ops: Box::new(ops),
        },
        TraceEvent::Decision {
            t: 11,
            job: JobId(7),
            machine: MachineId(4),
            placed: PlaceReason::OpenedOverflow,
            pool_size: 0,
            candidates: Vec::new(),
            ops: Box::default(),
        },
        TraceEvent::GapSample {
            t: 12,
            lower_bound: u64::MAX,
            cost: 0,
        },
        TraceEvent::Alert {
            t: 20,
            reason: AlertReason::GapBreach,
            window: 1,
            value_milli: 1250,
            threshold_milli: 1000,
        },
        TraceEvent::TenantLifecycle {
            t: 21,
            tenant: AWKWARD.to_string(),
            phase: TenantPhase::Restored,
        },
        TraceEvent::Degradation {
            t: 22,
            from_rung: 0,
            to_rung: 2,
            reason: AlertReason::DropSurge,
        },
    ]
}

fn small_instance() -> Instance {
    let jobs = vec![
        Job::new(2, 5, 4, 9),
        Job::new(0, 3, 0, 6),
        Job::new(1, 16, 2, 3),
    ];
    Instance::new(jobs, dec_geometric(2, 4)).unwrap()
}

fn small_schedule() -> Schedule {
    let mut s = Schedule::new();
    let a = s.add_machine(TypeIndex(1), AWKWARD);
    let b = s.add_machine(TypeIndex(0), "plain");
    s.assign(a, JobId(1));
    s.assign(a, JobId(2));
    s.assign(b, JobId(0));
    s
}

/// Two metrics whose floats cover integral, fractional and ≥1e15 values.
fn metrics_pair() -> Vec<Metrics> {
    let mut a = Metrics::new("dec-online", 2);
    a.arrivals = 3;
    a.cost_by_type = vec![18, 0];
    a.utilization_hist[9] = 2;
    a.utilization_sum = 7.0;
    a.max_gap_ratio = 1.25;
    a.ops.decisions = 3;
    let mut b = Metrics::new(AWKWARD, 1);
    b.utilization_sum = 1e15;
    b.max_gap_ratio = 2.5e17;
    b.gauge_timeline = vec![];
    vec![a, b]
}

const FLOATS: [f64; 14] = [
    0.0,
    -0.0,
    3.0,
    -2.0,
    0.1,
    1.5e-7,
    999_999_999_999_999.0,
    1e15,
    -1e15,
    1.5e15,
    2.5e17,
    f64::MAX,
    f64::MIN_POSITIVE,
    1.0 / 3.0,
];

fn generated_instance() -> Instance {
    WorkloadSpec {
        n: 200,
        seed: 42,
        arrivals: ArrivalProcess::Poisson { mean_gap: 3.0 },
        durations: DurationLaw::Uniform { min: 5, max: 40 },
        sizes: SizeLaw::Uniform { min: 1, max: 48 },
    }
    .generate(dec_geometric(3, 4))
}

/// A derived named struct.
#[derive(serde::Serialize)]
struct Point {
    x: u64,
    label: String,
}

/// A derived struct with no fields.
#[derive(serde::Serialize)]
struct Empty {}

/// A derived enum with every variant shape, struct variants nesting
/// derived structs.
#[derive(serde::Serialize)]
enum Shape {
    Dot,
    Moved {
        by: i64,
        at: Point,
        trail: Vec<Point>,
    },
    V {},
    Wrap(Point),
    Pair(Empty, Option<Point>),
}

/// A derived struct whose fields nest derived types in every container.
#[derive(serde::Serialize)]
struct Nest {
    empty: Empty,
    shapes: Vec<Shape>,
    maybe: Option<Box<Nest>>,
    pair: (Empty, Shape),
    by_name: BTreeMap<String, Shape>,
    last: Point,
}

fn point(x: u64, label: &str) -> Point {
    Point {
        x,
        label: label.to_string(),
    }
}

fn moved(by: i64) -> Shape {
    Shape::Moved {
        by,
        at: point(1, "at"),
        trail: vec![point(2, AWKWARD), point(3, "")],
    }
}

fn nest(inner: Option<Nest>) -> Nest {
    let mut by_name = BTreeMap::new();
    by_name.insert("v".to_string(), Shape::V {});
    by_name.insert("dot".to_string(), Shape::Dot);
    by_name.insert("moved".to_string(), moved(-4));
    Nest {
        empty: Empty {},
        shapes: vec![
            Shape::V {},
            moved(5),
            Shape::Wrap(point(6, "w")),
            Shape::Dot,
        ],
        maybe: inner.map(Box::new),
        pair: (Empty {}, Shape::Pair(Empty {}, None)),
        by_name,
        last: point(7, "last"),
    }
}

/// The std containers and integer extremes, each encoded on its own,
/// then derived structs and struct variants nested in containers and in
/// each other.
fn containers(pretty: bool) -> Vec<String> {
    fn enc<T: serde::Serialize>(v: &T, pretty: bool) -> String {
        if pretty {
            serde_json::to_string_pretty(v).unwrap()
        } else {
            serde_json::to_string(v).unwrap()
        }
    }
    let mut map = BTreeMap::new();
    map.insert("b".to_string(), vec![-1i64, 2]);
    map.insert("a".to_string(), vec![]);
    map.insert(AWKWARD.to_string(), vec![i64::MIN, i64::MAX]);
    vec![
        enc(&(u64::MAX, AWKWARD.to_string()), pretty),
        enc(&vec![Some(1u64), None], pretty),
        enc(&map, pretty),
        enc(&BTreeMap::<String, u64>::new(), pretty),
        enc(&vec![Vec::<u64>::new(), vec![usize::MAX as u64]], pretty),
        enc(
            &vec![
                i64::from(i8::MIN),
                i64::from(i16::MIN),
                i64::from(i32::MIN),
                i64::MIN,
            ],
            pretty,
        ),
        enc(&(usize::MAX, isize::MIN), pretty),
        enc(&(true, false), pretty),
        enc(&(-7i8, 250u8), pretty),
        enc(&(1.5f32, "/"), pretty),
        enc(&Empty {}, pretty),
        enc(&Shape::V {}, pretty),
        enc(&vec![Empty {}, Empty {}], pretty),
        enc(&vec![Shape::V {}, Shape::V {}, Shape::Dot], pretty),
        enc(&vec![point(0, "a"), point(u64::MAX, AWKWARD)], pretty),
        enc(
            &vec![Some(moved(i64::MIN)), None, Some(Shape::V {})],
            pretty,
        ),
        enc(&(Empty {}, Shape::V {}), pretty),
        enc(&(point(8, "t"), vec![Empty {}]), pretty),
        enc(&Some(Shape::Pair(Empty {}, Some(point(9, "p")))), pretty),
        enc(&nest(None).by_name, pretty),
        enc(&nest(Some(nest(None))), pretty),
    ]
}

const EVENTS: &str = include_str!("golden/events.jsonl");

#[test]
fn every_event_variant_encodes_to_its_golden_line() {
    let events = events();
    let lines: Vec<&str> = EVENTS.lines().collect();
    assert_eq!(events.len(), lines.len());
    for (e, want) in events.iter().zip(&lines) {
        assert_eq!(serde_json::to_string(e).unwrap(), *want, "{}", e.kind());
        assert_eq!(&serde_json::from_str::<TraceEvent>(want).unwrap(), e);
    }
}

#[test]
fn jsonl_writers_emit_the_golden_lines() {
    let events = events();
    assert_eq!(bshm_obs::jsonl_string(&events).unwrap(), EVENTS);

    let dir = std::env::temp_dir().join(format!("bshm-golden-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("trace.jsonl");
    let mut rec = Recorder::new("golden", 2)
        .with_file(path.to_str().unwrap())
        .unwrap();
    for e in &events {
        rec.record(e);
    }
    assert_eq!(rec.events_written(), events.len() as u64);
    rec.into_metrics().unwrap();
    assert_eq!(std::fs::read_to_string(&path).unwrap(), EVENTS);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn pretty_documents_match_golden() {
    assert_eq!(
        serde_json::to_string_pretty(&small_instance()).unwrap(),
        include_str!("golden/instance.pretty.json")
    );
    assert_eq!(
        serde_json::to_string_pretty(&small_schedule()).unwrap(),
        include_str!("golden/schedule.pretty.json")
    );
    assert_eq!(
        serde_json::to_string_pretty(&Schedule::new()).unwrap(),
        "{\n  \"machines\": []\n}"
    );
    assert_eq!(
        serde_json::to_string_pretty(&metrics_pair()).unwrap(),
        include_str!("golden/metrics.pretty.json")
    );
    assert_eq!(
        serde_json::to_string(&metrics_pair()).unwrap(),
        include_str!("golden/metrics.json")
    );
}

#[test]
fn floats_and_containers_match_golden() {
    let floats = FLOATS.to_vec();
    assert_eq!(
        serde_json::to_string(&floats).unwrap(),
        include_str!("golden/floats.json")
    );
    assert_eq!(
        serde_json::to_string_pretty(&floats).unwrap(),
        include_str!("golden/floats.pretty.json")
    );
    assert_eq!(
        containers(false).join("\n"),
        include_str!("golden/containers.jsonl")
    );
    assert_eq!(
        containers(true).join("\n---\n"),
        include_str!("golden/containers.pretty.txt")
    );
}

/// A derived struct's compact runs end with `Encoder::end_literal`, which
/// must leave the encoder as `end_object` does: as the first item of an
/// array entered without `element`, it still puts a `,` before the next.
#[test]
fn end_literal_leaves_the_state_end_object_leaves() {
    let by_calls = {
        let mut enc = serde::Encoder::new(Vec::new(), false);
        enc.begin_array();
        enc.begin_object();
        enc.field("\"k\"");
        enc.u64(1);
        enc.end_object();
        enc.element();
        enc.u64(2);
        enc.end_array();
        enc.finish().unwrap()
    };
    let by_runs = {
        let mut enc = serde::Encoder::new(Vec::new(), false);
        enc.begin_array();
        enc.literal("{\"k\":");
        enc.u64(1);
        enc.end_literal("}");
        enc.element();
        enc.u64(2);
        enc.end_array();
        enc.finish().unwrap()
    };
    assert_eq!(by_runs, by_calls);
    assert_eq!(by_runs, b"[{\"k\":1},2]");
}

#[test]
fn instance_digest_is_pinned() {
    assert_eq!(
        instance_digest(&generated_instance()).unwrap(),
        12_775_059_457_772_743_469
    );
}

#[test]
fn non_finite_floats_nested_in_a_vec_are_errors() {
    let mut m = metrics_pair();
    m[1].max_gap_ratio = f64::NAN;
    for encoded in [serde_json::to_string(&m), serde_json::to_string_pretty(&m)] {
        assert_eq!(
            encoded.unwrap_err().to_string(),
            "cannot encode non-finite float NaN"
        );
    }
    m[1].max_gap_ratio = 1.0;
    m[0].utilization_sum = f64::NEG_INFINITY;
    assert_eq!(
        serde_json::to_string(&m).unwrap_err().to_string(),
        "cannot encode non-finite float -inf"
    );
    m[0].utilization_sum = f64::INFINITY;
    assert!(serde_json::to_string_pretty(&m).is_err());
    assert!(serde_json::to_writer(&mut Vec::new(), &m).is_err());
}
