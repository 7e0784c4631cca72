//! `bshm solve` refuses instances that break the §II invariants.
//!
//! An instance file is decoded through `Instance::new` and
//! `Catalog::new`, so a job that fits no machine, a duplicate id, a zero
//! size, an empty interval, an empty job list or a catalog that is not
//! strictly increasing ends the command with an error message and a
//! non-zero exit, whatever the algorithm, instead of a panic deep in a
//! solver or a `NaN` ratio.

fn run_cmd(args: &[&str]) -> (i32, String) {
    let argv: Vec<String> = args.iter().map(|a| a.to_string()).collect();
    let mut buf = Vec::new();
    let code = bshm_cli::run(&argv, &mut buf);
    (code, String::from_utf8(buf).unwrap())
}

fn instance(jobs: &str, types: &str) -> String {
    format!(r#"{{"jobs":[{jobs}],"catalog":{{"types":[{types}]}}}}"#)
}

const TWO_TYPES: &str = r#"{"capacity":4,"rate":1},{"capacity":16,"rate":2}"#;
const ONE_JOB: &str = r#"{"id":0,"size":1,"arrival":0,"departure":1}"#;

#[test]
fn invalid_instances_fail_solve_with_their_message() {
    let dir = std::env::temp_dir().join(format!("bshm-instance-checks-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let cases = [
        (
            instance(
                r#"{"id":0,"size":1000,"arrival":5,"departure":9},{"id":0,"size":3,"arrival":1,"departure":4}"#,
                TWO_TYPES,
            ),
            "Instance: job J0 of size 1000 exceeds the largest machine capacity 16",
        ),
        (
            instance(
                r#"{"id":0,"size":1,"arrival":5,"departure":9},{"id":0,"size":3,"arrival":1,"departure":4}"#,
                TWO_TYPES,
            ),
            "Instance: duplicate job id J0",
        ),
        (instance("", TWO_TYPES), "Instance: instance has no jobs"),
        (
            instance(r#"{"id":3,"size":0,"arrival":0,"departure":1}"#, TWO_TYPES),
            "Instance: job J3 has size 0",
        ),
        (
            instance(r#"{"id":3,"size":1,"arrival":4,"departure":3}"#, TWO_TYPES),
            "Instance: job J3 has an empty active interval [4, 3)",
        ),
        (
            instance(ONE_JOB, ""),
            "Catalog: catalog has no machine types",
        ),
        (
            instance(
                ONE_JOB,
                r#"{"capacity":4,"rate":2},{"capacity":16,"rate":2}"#,
            ),
            "Catalog: rates not strictly increasing between types 0 and 1",
        ),
        (
            instance(
                ONE_JOB,
                r#"{"capacity":0,"rate":1},{"capacity":16,"rate":2}"#,
            ),
            "Catalog: type 0 has zero capacity or rate",
        ),
    ];
    for (i, (text, message)) in cases.iter().enumerate() {
        let path = dir.join(format!("bad-{i}.json"));
        std::fs::write(&path, text).unwrap();
        let path = path.to_str().unwrap();
        for alg in ["dec-offline", "dec-online", "best-fit", "auto"] {
            let (code, out) = run_cmd(&["solve", "--instance", path, "--alg", alg]);
            assert_eq!(code, 2, "{alg} on {text}: {out}");
            assert!(out.contains(message), "{alg} on {text}: {out}");
            assert!(!out.contains("NaN"), "{alg} on {text}: {out}");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}
