//! The `bshm` command-line tool (thin shell over `bshm_cli`).

// Non-test code compares floats through explicit tolerances and reads
// the clock only through `bshm_obs::clock` (lists in clippy.toml).
#![cfg_attr(not(test), deny(clippy::float_cmp, clippy::disallowed_methods))]

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut stdout = std::io::stdout().lock();
    let code = bshm_cli::run(&argv, &mut stdout);
    std::process::exit(code);
}
