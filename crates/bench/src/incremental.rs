//! The compile-latency benchmark behind the repo's
//! `BENCH_incremental.json` artifact: for each Olden kernel, the cost of
//! recompiling after a **one-function edit** — from scratch (whole-program
//! analysis + placement + selection over every function) versus
//! incrementally (fingerprint diff, summary refixpoint over the dirty
//! set, placement + selection over exactly the dirty functions, splice
//! the rest from the previous compile's snapshot).
//!
//! Every incremental result is asserted byte-identical (printed IR and
//! per-function motion logs) to the from-scratch build of the same edited
//! source, so the artifact doubles as a correctness fence: the reported
//! speedup is only ever the speedup of an *equivalent* compile.

use earth_commopt::{
    optimize_program_incremental, optimize_program_snapshot, CommOptConfig, PipelineSnapshot,
};
use earth_ir::{pretty, Program};
use earth_olden::Benchmark;
use std::time::Instant;

/// One kernel's measurements.
#[derive(Debug, Clone)]
pub struct IncrementalResult {
    /// Benchmark name.
    pub bench: &'static str,
    /// Number of functions in the kernel.
    pub functions: u64,
    /// Nanoseconds for a from-scratch recompile of the edited source
    /// (whole-program analysis + full optimization), per iteration.
    pub full_ns: u64,
    /// Nanoseconds for the incremental recompile of the same edit seeded
    /// with the pre-edit snapshot, per iteration.
    pub incremental_ns: u64,
    /// Functions re-optimized by the incremental compile.
    pub functions_reoptimized: u64,
    /// Functions spliced from the snapshot.
    pub functions_reused: u64,
    /// Summary-change escalations the edit caused.
    pub escalations: u64,
    /// Whether the incremental output matched the from-scratch build
    /// byte for byte (asserted, so always true in a produced artifact).
    pub byte_identical: bool,
}

impl IncrementalResult {
    /// Full-over-incremental latency ratio.
    pub fn speedup(&self) -> f64 {
        self.full_ns as f64 / self.incremental_ns.max(1) as f64
    }
}

/// Replaces the last standalone integer literal in `src` with its
/// successor — a deterministic one-function edit (Olden kernels keep
/// their literals inside function bodies, so struct layouts and the
/// function list are untouched and the snapshot stays applicable).
pub fn edit_one_function(src: &str) -> String {
    let b = src.as_bytes();
    let mut spans = Vec::new();
    let mut i = 0;
    while i < b.len() {
        if b[i].is_ascii_digit() {
            let start = i;
            while i < b.len() && b[i].is_ascii_digit() {
                i += 1;
            }
            let glued = |c: u8| c.is_ascii_alphanumeric() || c == b'_' || c == b'.';
            let before_ok = start == 0 || !glued(b[start - 1]);
            let after_ok = i >= b.len() || !glued(b[i]);
            if before_ok && after_ok {
                spans.push((start, i));
            }
        } else {
            i += 1;
        }
    }
    let (s, e) = *spans.last().expect("kernel has an integer literal");
    let val: u64 = src[s..e].parse().expect("digits parse");
    format!("{}{}{}", &src[..s], val + 1, &src[e..])
}

fn prepare(src: &str) -> Program {
    let mut prog = earth_frontend::compile(src).expect("kernel compiles");
    earth_analysis::infer_locality(&mut prog);
    prog
}

fn fingerprint_output(prog: &Program, report: &earth_commopt::OptReport) -> (String, String) {
    let motions = report
        .functions
        .iter()
        .map(|f| format!("{:?}", f.motion))
        .collect::<Vec<_>>()
        .join("\n");
    (pretty::print_program(prog), motions)
}

/// Measures one kernel: snapshot the pristine build, apply the
/// one-function edit, then time from-scratch vs incremental recompiles
/// of the edited source.
pub fn run_incremental(bench: &Benchmark, iters: u32) -> IncrementalResult {
    let cfg = CommOptConfig::default();
    // The pre-edit compile whose snapshot the incremental path reuses.
    let mut base = prepare(bench.source);
    let base_analysis = earth_analysis::analyze(&base);
    let (_, snapshot): (_, PipelineSnapshot) =
        optimize_program_snapshot(&mut base, &cfg, &base_analysis);

    let edited_src = edit_one_function(bench.source);
    let edited = prepare(&edited_src);
    let functions = edited.iter_functions().count() as u64;

    // Reference from-scratch build of the edit, for the identity fence.
    let mut ref_prog = edited.clone();
    let ref_analysis = earth_analysis::analyze(&ref_prog);
    let (ref_report, _) = optimize_program_snapshot(&mut ref_prog, &cfg, &ref_analysis);
    let reference = fingerprint_output(&ref_prog, &ref_report);

    // Timed from-scratch recompiles: analysis + optimization, the work a
    // non-incremental daemon repeats on every edit.
    let start = Instant::now();
    for _ in 0..iters {
        let mut p = edited.clone();
        let analysis = earth_analysis::analyze(&p);
        std::hint::black_box(optimize_program_snapshot(&mut p, &cfg, &analysis));
    }
    let full_ns = (start.elapsed().as_nanos() / iters as u128) as u64;

    // Timed incremental recompiles of the same edit.
    let start = Instant::now();
    let mut stats = None;
    for _ in 0..iters {
        let mut p = edited.clone();
        let (report, _, st) = optimize_program_incremental(&mut p, &cfg, &snapshot)
            .expect("one-function edit keeps the snapshot applicable");
        if stats.is_none() {
            let got = fingerprint_output(&p, &report);
            assert_eq!(got, reference, "{}: incremental != scratch", bench.name);
            stats = Some(st);
        }
        std::hint::black_box(&p);
    }
    let incremental_ns = (start.elapsed().as_nanos() / iters as u128) as u64;
    let stats = stats.expect("at least one iteration");

    IncrementalResult {
        bench: bench.name,
        functions,
        full_ns,
        incremental_ns,
        functions_reoptimized: stats.functions_reoptimized,
        functions_reused: stats.functions_reused,
        escalations: stats.escalations,
        byte_identical: true,
    }
}

/// Renders one kernel's row for the terminal.
pub fn render_incremental(r: &IncrementalResult) -> String {
    format!(
        "{:<10} {:>3} fns | full {:>10} ns | incremental {:>10} ns | {:>5.1}x | reopt {} reuse {} esc {}\n",
        r.bench,
        r.functions,
        r.full_ns,
        r.incremental_ns,
        r.speedup(),
        r.functions_reoptimized,
        r.functions_reused,
        r.escalations
    )
}

/// The `BENCH_incremental.json` document. `host` is the already-encoded
/// host object (see [`host_json`](crate::exec::host_json)).
pub fn to_json(results: &[IncrementalResult], iters: u32, host: &str) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"artifact\": \"BENCH_incremental\",\n");
    out.push_str(&format!("  \"host\": {host},\n"));
    out.push_str(&format!("  \"iters\": {iters},\n"));
    out.push_str("  \"kernels\": [\n");
    for (i, r) in results.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"functions\": {}, \"full_ns\": {}, \"incremental_ns\": {}, \
             \"speedup\": {:.2}, \"functions_reoptimized\": {}, \"functions_reused\": {}, \
             \"escalations\": {}, \"byte_identical\": {}}}{}\n",
            r.bench,
            r.functions,
            r.full_ns,
            r.incremental_ns,
            r.speedup(),
            r.functions_reoptimized,
            r.functions_reused,
            r.escalations,
            r.byte_identical,
            if i + 1 < results.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    let largest = results
        .iter()
        .max_by_key(|r| r.functions)
        .expect("at least one kernel");
    out.push_str(&format!(
        "  \"largest\": {{\"name\": \"{}\", \"speedup\": {:.2}}}\n",
        largest.bench,
        largest.speedup()
    ));
    out.push_str("}\n");
    out
}
