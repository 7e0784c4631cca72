//! # bshm-cli
//!
//! Library backing the `bshm` command-line tool: flag parsing, spec
//! grammars for catalogs/workloads, and the command implementations.
//! Everything is in the library (and unit-tested); `main.rs` is a thin
//! shell.
//!
//! ```text
//! bshm gen  --n 500 --seed 1 --catalog dec:4:4 --arrivals poisson:3 \
//!           --durations uniform:10:60 --sizes uniform:1:64 --out inst.json
//! bshm solve --instance inst.json --alg auto --out sched.json
//! bshm validate --instance inst.json --schedule sched.json
//! bshm lb   --instance inst.json
//! bshm info --instance inst.json
//! ```

// Non-test code compares floats through explicit tolerances and reads
// the clock only through `bshm_obs::clock` (lists in clippy.toml).
#![cfg_attr(not(test), deny(clippy::float_cmp, clippy::disallowed_methods))]
#![warn(missing_docs)]

pub mod args;
pub mod commands;
pub mod spec;

/// Entry point shared by `main.rs` and tests: runs a full argv, returning
/// the process exit code and writing human output to `out`.
pub fn run(argv: &[String], out: &mut dyn std::io::Write) -> i32 {
    match commands::dispatch(argv, out) {
        Ok(()) => 0,
        Err(e) => {
            let _ = writeln!(out, "error: {e}");
            2
        }
    }
}
