//! Execution-backend benchmark over the Olden suite, emitting the
//! repo's `BENCH_exec.json` perf artifact: wall-clock run latency and
//! host nanoseconds per simulated operation of the reference
//! interpreter vs the pre-decoded native tier, per kernel, with a full
//! result-identity fence before any timing.
//!
//! ```text
//! cargo run --release -p earth-bench --bin bench_exec -- [--test|--small|--full] [--nodes N] [--iters N] [--out FILE]
//! ```
//!
//! The defaults (Test preset, 8 nodes, 10 iterations, `BENCH_exec.json`)
//! are the checked-in artifact's configuration, so the plain command
//! regenerates it. The artifact records the host and the command.
//!
//! Exits nonzero if any kernel's results diverge between backends or
//! the native tier fails to beat the interpreter on any kernel.

use earth_bench::exec::{geomean, host_json, render_exec, run_exec_bench, to_json};
use earth_bench::{nodes_from_args, preset_from_args_or};
use earth_olden::Preset;

fn main() {
    let preset = preset_from_args_or(Preset::Test);
    let nodes = nodes_from_args();
    let args: Vec<String> = std::env::args().collect();
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_exec.json".into());
    let iters: u32 = args
        .iter()
        .position(|a| a == "--iters")
        .and_then(|i| args.get(i + 1))
        .and_then(|s| s.parse().ok())
        .unwrap_or(10);
    let mut command = String::from("cargo run --release -p earth-bench --bin bench_exec --");
    for a in &args[1..] {
        command.push(' ');
        command.push_str(a);
    }
    println!(
        "execution backends: interp vs native ({preset:?} preset, {nodes} nodes, {iters} iters)\n"
    );
    let results: Vec<_> = earth_olden::suite()
        .iter()
        .map(|b| {
            let r = run_exec_bench(b, preset, nodes, iters);
            print!("{}", render_exec(&r));
            r
        })
        .collect();
    println!("\ngeomean speedup: {:.2}x", geomean(&results));
    let json = to_json(&results, preset, nodes, iters, &host_json(&command));
    if let Err(e) = std::fs::write(&out, &json) {
        eprintln!("error: cannot write `{out}`: {e}");
        std::process::exit(1);
    }
    println!("wrote {out}");
    let mut failed = false;
    for r in &results {
        if !r.identical {
            eprintln!("FAIL: {} results diverge between backends", r.bench);
            failed = true;
        }
        if r.native_ns >= r.interp_ns {
            eprintln!(
                "FAIL: {}: native ({} ns) must beat interp ({} ns)",
                r.bench, r.native_ns, r.interp_ns
            );
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
}
