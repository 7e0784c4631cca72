//! Golden results for the JSON decoder.
//!
//! Each case decodes one JSON document as one target type, and
//! `golden/decode.txt` holds one line per case: its name, then
//! `Ok(<Debug of the value>)` or `Err(<error text>)`. The valid inputs are
//! the committed encoder goldens and a checkpoint saved by `bshm serve`.
//! Every other case carries exactly one fault:
//! truncation at each structural character, bad and `\u` escapes,
//! nesting at the depth limit and one past it, integer range edges, a
//! wrong type, a duplicate, unknown or missing key, an unknown variant or
//! trailing characters. The rows were captured from the decoder that
//! parsed each document into a `serde::Value` tree before converting it,
//! so any drift in what is accepted, what is built or what an error says
//! fails here.

use bshm_core::{Catalog, Instance, Job, Schedule};
use bshm_faults::Checkpoint;
use bshm_obs::{AlertReason, TenantPhase, TraceEvent};
use serde::{Deserialize, Value};
use std::collections::BTreeMap;
use std::fmt::Debug;

const FAULTS_GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../faults/tests/golden/");

/// Decodes `doc` as `T` and renders the outcome as one golden field.
fn decode<T: Deserialize + Debug>(doc: &str) -> String {
    match serde_json::from_str::<T>(doc) {
        Ok(v) => format!("Ok({v:?})"),
        Err(e) => format!("Err({e})"),
    }
}

type Decode = fn(&str) -> String;

struct Corpus {
    cases: Vec<(String, Decode, String)>,
}

impl Corpus {
    fn add(&mut self, name: impl Into<String>, decode: Decode, doc: impl Into<String>) {
        self.cases.push((name.into(), decode, doc.into()));
    }

    /// `doc` cut before and after each structural character, so every
    /// container, key, separator and string boundary is torn once.
    fn truncations(&mut self, name: &str, decode: Decode, doc: &str) {
        let mut cuts: Vec<usize> = Vec::new();
        for (i, b) in doc.bytes().enumerate() {
            if matches!(b, b'{' | b'}' | b'[' | b']' | b',' | b':' | b'"') {
                cuts.extend([i, i + 1]);
            }
        }
        cuts.dedup();
        for cut in cuts.into_iter().filter(|&c| c < doc.len()) {
            self.add(format!("{name} truncated@{cut}"), decode, &doc[..cut]);
        }
    }
}

fn fixture(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("reading {path}: {e}"))
}

fn corpus() -> Corpus {
    let mut c = Corpus { cases: Vec::new() };
    let faults = |file: &str| fixture(&format!("{FAULTS_GOLDEN}{file}"));
    let local = |file: &str| {
        fixture(&format!(
            "{}/tests/golden/{file}",
            env!("CARGO_MANIFEST_DIR")
        ))
    };

    // ---- valid inputs: the encoder goldens and a checkpoint
    for (i, line) in faults("events.jsonl").lines().enumerate() {
        c.add(
            format!("events.jsonl:{}", i + 1),
            decode::<TraceEvent>,
            line,
        );
    }
    let instance = faults("instance.pretty.json");
    c.add("instance.pretty.json", decode::<Instance>, &instance);
    c.add(
        "schedule.pretty.json",
        decode::<Schedule>,
        faults("schedule.pretty.json"),
    );
    for file in ["metrics.json", "metrics.pretty.json"] {
        c.add(file, decode::<Value>, faults(file));
    }
    for file in ["floats.json", "floats.pretty.json"] {
        c.add(file, decode::<Vec<f64>>, faults(file));
    }
    let container_types: [Decode; 10] = [
        decode::<(u64, String)>,
        decode::<Vec<Option<u64>>>,
        decode::<BTreeMap<String, Vec<i64>>>,
        decode::<BTreeMap<String, u64>>,
        decode::<Vec<Vec<u64>>>,
        decode::<Vec<i64>>,
        decode::<(usize, isize)>,
        decode::<(bool, bool)>,
        decode::<(i8, u8)>,
        decode::<(f32, String)>,
    ];
    let compact = faults("containers.jsonl");
    let pretty = faults("containers.pretty.txt");
    // The std-container rows come first; the derived-type rows after them
    // pin the encoder only, so the zip stops at the last std type.
    let rows = compact.lines().zip(pretty.split("\n---\n"));
    for (i, ((line, doc), decode)) in rows.zip(container_types).enumerate() {
        c.add(format!("containers.jsonl:{}", i + 1), decode, line);
        c.add(format!("containers.pretty.txt#{}", i + 1), decode, doc);
    }
    let checkpoint = local("checkpoint.json");
    c.add("checkpoint.json", decode::<Checkpoint>, &checkpoint);

    // ---- truncation at every structural point
    c.truncations("instance.pretty.json", decode::<Instance>, &instance);
    c.truncations(
        "checkpoint.json",
        decode::<Checkpoint>,
        checkpoint.trim_end(),
    );
    let decision = faults("events.jsonl").lines().nth(9).unwrap().to_string();
    c.truncations("events.jsonl:10", decode::<TraceEvent>, &decision);

    // ---- escapes, in a string value and in a key
    for (name, esc) in [
        ("quote-backslash-slash", r#"\"\\\/"#),
        ("short escapes", r"\b\f\n\r\t"),
        ("unknown escape", r"\q"),
        ("escape at end", r"\"),
        ("u bmp", r"\u00e9\u65e5"),
        ("u short", r"\u12"),
        ("u non-hex", r"\u12G4"),
        ("u plus sign", r"\u+041"),
        ("u minus sign", r"\u-041"),
        ("u multibyte", r"\u1é"),
        ("u high surrogate", r"\uD800"),
        ("u low surrogate", r"\uDC00"),
        ("u surrogate pair", r"\uD83D\uDE80"),
        ("u nul", r"\u0000"),
        ("raw control", "a\u{1}b\tc"),
        ("raw multibyte", "größe 日本 🚀"),
    ] {
        let doc = format!(r#"{{"JobDropped":{{"t":1,"job":2,"reason":"{esc}"}}}}"#);
        c.add(format!("escape {name}"), decode::<TraceEvent>, doc);
    }
    c.add(
        "escape in key",
        decode::<Job>,
        r#"{"\u0069d":7,"si\u007ae":3,"arrival":2,"departure":9}"#,
    );
    c.add("escape unterminated u", decode::<String>, r#""\u00"#);
    c.add(
        "escape in unit variant",
        decode::<AlertReason>,
        r#""\u0047apBreach""#,
    );

    // ---- nesting depth
    for depth in [128, 129] {
        let arrays = format!("{}0{}", "[".repeat(depth), "]".repeat(depth));
        c.add(format!("depth {depth} arrays"), decode::<Value>, arrays);
        let empty = format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        c.add(
            format!("depth {depth} empty arrays"),
            decode::<Value>,
            empty,
        );
        let objects = format!("{}null{}", r#"{"a":"#.repeat(depth), "}".repeat(depth));
        c.add(format!("depth {depth} objects"), decode::<Value>, objects);
        let unknown = format!(
            r#"{{"id":7,"size":3,"arrival":2,"departure":9,"x":{}{}}}"#,
            "[".repeat(depth),
            "]".repeat(depth)
        );
        c.add(
            format!("depth {depth} under unknown key"),
            decode::<Job>,
            unknown,
        );
    }

    // ---- integers and numbers
    let job = |size: &str| format!(r#"{{"id":7,"size":{size},"arrival":2,"departure":9}}"#);
    for (name, text) in [
        ("u64 max", "18446744073709551615"),
        ("u64 max+1", "18446744073709551616"),
        ("negative", "-1"),
        ("negative zero", "-0"),
        ("float", "1.5"),
        ("integral float", "3.0"),
        ("exponent", "1e3"),
        ("leading zeros", "007"),
        ("lone minus", "-"),
        ("double minus", "--1"),
        ("two dots", "1.2.3"),
        ("string", r#""3""#),
        ("bool", "true"),
        ("null", "null"),
        ("array", "[3]"),
        ("object", "{}"),
    ] {
        c.add(format!("Job.size {name}"), decode::<Job>, job(text));
    }
    for (name, decode_as, text) in [
        ("u64 max", decode::<u64> as Decode, "18446744073709551615"),
        ("u64 max+1", decode::<u64>, "18446744073709551616"),
        ("u8 256", decode::<u8>, "256"),
        ("u32 2^32", decode::<u32>, "4294967296"),
        ("i64 min", decode::<i64>, "-9223372036854775808"),
        ("i64 min-1", decode::<i64>, "-9223372036854775809"),
        ("i64 max+1", decode::<i64>, "9223372036854775808"),
        ("i8 -129", decode::<i8>, "-129"),
        ("usize -1", decode::<usize>, "-1"),
        ("f64 negative zero", decode::<f64>, "-0"),
        ("f64 negative zero float", decode::<f64>, "-0.0"),
        ("f64 huge", decode::<f64>, "1e400"),
        ("f64 integer", decode::<f64>, "12"),
        (
            "f64 fraction forms",
            decode::<Vec<f64>>,
            "[-.5,5.,1E2,2e-3]",
        ),
        ("f32", decode::<f32>, "0.1"),
        ("Option null", decode::<Option<u64>>, "null"),
        ("Option wrong", decode::<Option<u64>>, r#""x""#),
        ("String from number", decode::<String>, "5"),
        ("bool from number", decode::<bool>, "1"),
        ("bool misspelled", decode::<bool>, "tru"),
        ("null misspelled", decode::<Option<u64>>, "nul"),
    ] {
        c.add(format!("scalar {name}"), decode_as, text);
    }

    // ---- wrong container shapes
    c.add("Job from array", decode::<Job>, "[7,3,2,9]");
    c.add("Job from number", decode::<Job>, "5");
    c.add(
        "Instance.jobs object",
        decode::<Instance>,
        r#"{"jobs":{},"catalog":{"types":[{"capacity":4,"rate":1}]}}"#,
    );
    c.add("Vec from object", decode::<Vec<u64>>, r#"{"a":1}"#);
    c.add("tuple 3 elements", decode::<(u64, String)>, r#"[1,"a",2]"#);
    c.add("tuple 1 element", decode::<(u64, String)>, "[1]");
    c.add("tuple wrong element", decode::<(u64, String)>, r#"["a",1]"#);
    c.add(
        "map wrong value",
        decode::<BTreeMap<String, u64>>,
        r#"{"a":"x"}"#,
    );
    c.add("TraceEvent from number", decode::<TraceEvent>, "5");
    c.add(
        "TraceEvent from array",
        decode::<TraceEvent>,
        r#"[{"GapSample":{}}]"#,
    );
    c.add("TraceEvent empty object", decode::<TraceEvent>, "{}");
    c.add(
        "TraceEvent payload wrong type",
        decode::<TraceEvent>,
        r#"{"GapSample":{"t":1,"lower_bound":"x","cost":3}}"#,
    );
    c.add(
        "TraceEvent payload not object",
        decode::<TraceEvent>,
        r#"{"GapSample":7}"#,
    );

    // ---- duplicate, unknown and missing keys
    let dup = r#"{"id":7,"size":3,"arrival":2,"departure":9,"size":5}"#;
    c.add("duplicate key first wins", decode::<Job>, dup);
    let dup_bad = r#"{"id":7,"size":3,"arrival":2,"departure":9,"size":"x"}"#;
    c.add("duplicate key later wrong type", decode::<Job>, dup_bad);
    let dup_torn = r#"{"id":7,"size":3,"arrival":2,"departure":9,"size":[1,}"#;
    c.add("duplicate key later bad syntax", decode::<Job>, dup_torn);
    c.add(
        "duplicate map key",
        decode::<BTreeMap<String, u64>>,
        r#"{"a":1,"b":2,"a":3}"#,
    );
    c.add(
        "duplicate variant key",
        decode::<TraceEvent>,
        r#"{"GapSample":{"t":1,"lower_bound":2,"cost":3},"GapSample":{"t":1,"lower_bound":2,"cost":3}}"#,
    );
    c.add(
        "unknown key scalar",
        decode::<Job>,
        r#"{"id":7,"color":"red","size":3,"arrival":2,"departure":9}"#,
    );
    c.add(
        "unknown key nested",
        decode::<Job>,
        r#"{"id":7,"size":3,"x":[1,{"y":null,"z":[true,-2.5e3,"é"]}],"arrival":2,"departure":9}"#,
    );
    c.add(
        "unknown key bad syntax",
        decode::<Job>,
        r#"{"id":7,"size":3,"x":[1,2,"arrival":2,"departure":9}"#,
    );
    c.add(
        "unknown key bad escape",
        decode::<Job>,
        r#"{"id":7,"size":3,"x":"\uD800","arrival":2,"departure":9}"#,
    );
    c.add(
        "unknown key in Instance",
        decode::<Instance>,
        instance.replacen("{", "{\n  \"note\": {\"by\": \"hand\"},", 1),
    );
    c.add(
        "unknown key in Checkpoint",
        decode::<Checkpoint>,
        checkpoint.replacen("{", r#"{"extra":[[],{}],"#, 1),
    );
    c.add(
        "unknown key in variant payload",
        decode::<TraceEvent>,
        r#"{"GapSample":{"t":1,"lower_bound":2,"extra":0,"cost":3}}"#,
    );
    c.add(
        "missing field",
        decode::<Job>,
        r#"{"id":7,"size":3,"arrival":2}"#,
    );
    c.add("missing every field", decode::<Job>, "{}");
    c.add(
        "missing field Instance.catalog",
        decode::<Instance>,
        r#"{"jobs":[{"id":0,"size":1,"arrival":0,"departure":1}]}"#,
    );
    c.add(
        "missing field Checkpoint.decisions",
        decode::<Checkpoint>,
        checkpoint.replacen(r#","decisions":"#, r#","other":"#, 1),
    );
    c.add(
        "missing field in variant payload",
        decode::<TraceEvent>,
        r#"{"Arrival":{"t":1,"job":2}}"#,
    );
    c.add(
        "missing field in nested job",
        decode::<Instance>,
        r#"{"jobs":[{"id":0,"size":1,"arrival":0}],"catalog":{"types":[{"capacity":4,"rate":1}]}}"#,
    );

    // ---- variants
    c.add(
        "unknown variant",
        decode::<TraceEvent>,
        r#"{"Bogus":{"t":1}}"#,
    );
    c.add("unknown unit variant", decode::<TraceEvent>, r#""Bogus""#);
    c.add("unit variant", decode::<TenantPhase>, r#""Restored""#);
    c.add(
        "unit variant misspelled",
        decode::<AlertReason>,
        r#""gap-breach""#,
    );
    c.add(
        "unit variant as key",
        decode::<AlertReason>,
        r#"{"GapBreach":null}"#,
    );
    c.add("unit variant from number", decode::<AlertReason>, "3");

    // ---- trailing characters and whitespace
    c.add("trailing word", decode::<Instance>, format!("{instance} x"));
    c.add("trailing second value", decode::<u64>, "1 2");
    c.add("trailing bracket", decode::<Vec<u64>>, "[1]]");
    c.add("trailing object", decode::<Value>, "{}{}");
    c.add(
        "surrounding whitespace",
        decode::<Vec<u64>>,
        " \t\n[ 1 ,\r2 ] \n",
    );
    c.add("empty document", decode::<u64>, "");
    c.add("whitespace document", decode::<Value>, "  \n ");
    c.add("trailing comma array", decode::<Vec<u64>>, "[1,2,]");
    c.add(
        "trailing comma object",
        decode::<Job>,
        r#"{"id":7,"size":3,"arrival":2,"departure":9,}"#,
    );
    c.add("missing colon", decode::<Job>, r#"{"id" 7}"#);
    c.add("unquoted key", decode::<Job>, "{id:7}");

    // ---- §II instance invariants
    let inst =
        |jobs: &str, types: &str| format!(r#"{{"jobs":[{jobs}],"catalog":{{"types":[{types}]}}}}"#);
    let two_types = r#"{"capacity":4,"rate":1},{"capacity":16,"rate":2}"#;
    for (name, jobs, types) in [
        (
            "oversized job and duplicate id",
            r#"{"id":0,"size":1000,"arrival":5,"departure":9},{"id":0,"size":3,"arrival":1,"departure":4}"#,
            two_types,
        ),
        (
            "duplicate id",
            r#"{"id":0,"size":1,"arrival":5,"departure":9},{"id":0,"size":3,"arrival":1,"departure":4}"#,
            two_types,
        ),
        (
            "oversized job",
            r#"{"id":0,"size":17,"arrival":0,"departure":1}"#,
            two_types,
        ),
        ("no jobs", "", two_types),
        (
            "zero size",
            r#"{"id":0,"size":0,"arrival":0,"departure":1}"#,
            two_types,
        ),
        (
            "empty interval",
            r#"{"id":0,"size":1,"arrival":3,"departure":3}"#,
            two_types,
        ),
        (
            "reversed interval",
            r#"{"id":0,"size":1,"arrival":4,"departure":3}"#,
            two_types,
        ),
        (
            "unsorted jobs",
            r#"{"id":2,"size":1,"arrival":9,"departure":12},{"id":1,"size":2,"arrival":3,"departure":5},{"id":0,"size":3,"arrival":3,"departure":4}"#,
            two_types,
        ),
        (
            "no machine types",
            r#"{"id":0,"size":1,"arrival":0,"departure":1}"#,
            "",
        ),
        (
            "capacities not increasing",
            r#"{"id":0,"size":1,"arrival":0,"departure":1}"#,
            r#"{"capacity":16,"rate":1},{"capacity":4,"rate":2}"#,
        ),
        (
            "rates not increasing",
            r#"{"id":0,"size":1,"arrival":0,"departure":1}"#,
            r#"{"capacity":4,"rate":2},{"capacity":16,"rate":2}"#,
        ),
        (
            "zero capacity",
            r#"{"id":0,"size":1,"arrival":0,"departure":1}"#,
            r#"{"capacity":0,"rate":1},{"capacity":16,"rate":2}"#,
        ),
        (
            "zero rate",
            r#"{"id":0,"size":1,"arrival":0,"departure":1}"#,
            r#"{"capacity":4,"rate":0},{"capacity":16,"rate":2}"#,
        ),
    ] {
        c.add(
            format!("instance {name}"),
            decode::<Instance>,
            inst(jobs, types),
        );
    }
    c.add(
        "catalog rates not increasing",
        decode::<Catalog>,
        r#"{"types":[{"capacity":4,"rate":3},{"capacity":16,"rate":2}]}"#,
    );
    c
}

fn render() -> String {
    let mut text = String::new();
    for (name, decode, doc) in &corpus().cases {
        text.push_str(&format!("{name}: {}\n", decode(doc)));
    }
    text
}

#[test]
fn every_corpus_document_decodes_to_its_golden_row() {
    let want = fixture(&format!(
        "{}/tests/golden/decode.txt",
        env!("CARGO_MANIFEST_DIR")
    ));
    let got = render();
    if got != want {
        let diffs: Vec<String> = got
            .lines()
            .zip(want.lines())
            .filter(|(g, w)| g != w)
            .map(|(g, w)| format!("- {w}\n+ {g}"))
            .collect();
        panic!(
            "{} differing rows ({} rows now, {} in the golden):\n{}\n\n\
             full decode text of this run:\n{got}",
            diffs.len(),
            got.lines().count(),
            want.lines().count(),
            diffs.join("\n")
        );
    }
}
