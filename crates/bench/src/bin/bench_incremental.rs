//! Compile-latency benchmark of function-granular incremental
//! recompilation over the Olden suite, emitting the repo's
//! `BENCH_incremental.json` artifact: from-scratch vs incremental
//! recompile cost after a one-function edit, with the incremental output
//! asserted byte-identical to the from-scratch build.
//!
//! ```text
//! cargo run --release -p earth-bench --bin bench_incremental -- [--iters N] [--out FILE]
//! ```
//!
//! The defaults (20 iterations, `BENCH_incremental.json`) are the
//! checked-in artifact's configuration, so the plain command regenerates
//! it. The artifact records the host and the command.

use earth_bench::exec::host_json;
use earth_bench::incremental::{render_incremental, run_incremental, to_json};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let iters: u32 = args
        .iter()
        .position(|a| a == "--iters")
        .and_then(|i| args.get(i + 1))
        .and_then(|s| s.parse().ok())
        .unwrap_or(20);
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_incremental.json".into());
    let mut command = String::from("cargo run --release -p earth-bench --bin bench_incremental --");
    for a in &args[1..] {
        command.push(' ');
        command.push_str(a);
    }
    println!("incremental recompile latency, one-function edit ({iters} iters)\n");
    let results: Vec<_> = earth_olden::suite()
        .iter()
        .map(|b| {
            let r = run_incremental(b, iters);
            print!("{}", render_incremental(&r));
            r
        })
        .collect();
    let json = to_json(&results, iters, &host_json(&command));
    if let Err(e) = std::fs::write(&out, &json) {
        eprintln!("error: cannot write `{out}`: {e}");
        std::process::exit(1);
    }
    println!("\nwrote {out}");
}
