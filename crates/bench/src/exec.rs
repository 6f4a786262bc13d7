//! The execution-backend benchmark behind the repo's `BENCH_exec.json`
//! artifact: for each Olden kernel (optimized build), wall-clock run
//! latency on the reference interpreter versus the pre-decoded,
//! closure-compiled native tier.
//!
//! Every measurement is fenced by a full-identity check first — return
//! value, virtual time, communication stats, output, per-node busy
//! time, site trace, op histogram — run with all recording on. The
//! timed runs then execute with recording off (both backends equally),
//! and the native program is pre-decoded once outside the loop, which
//! is exactly how the daemon amortizes it through its artifact cache.

use earth_commopt::CommOptConfig;
use earth_ir::json::Obj;
use earth_olden::{build_ir, Benchmark, Build, Preset};
use earth_sim::{
    CodegenOptions, ExecBackend, Machine, MachineConfig, NativeMachine, NativeProgram, Value,
};
use std::time::Instant;

/// One kernel's measurements.
#[derive(Debug, Clone)]
pub struct ExecResult {
    /// Benchmark name.
    pub bench: &'static str,
    /// Wall nanoseconds per run on the interpreter.
    pub interp_ns: u64,
    /// Wall nanoseconds per run on the native tier (pre-decode
    /// amortized outside the loop).
    pub native_ns: u64,
    /// The virtual completion time both backends computed (asserted
    /// equal before timing).
    pub virtual_ns: u64,
    /// Simulated operations (dispatches) per run, equal on both
    /// backends.
    pub ops: u64,
    /// Whether the full results matched byte for byte (asserted, so
    /// always true in a produced artifact).
    pub identical: bool,
}

impl ExecResult {
    /// Interpreter-over-native run-latency ratio.
    pub fn speedup(&self) -> f64 {
        self.interp_ns as f64 / self.native_ns.max(1) as f64
    }

    /// Host nanoseconds per simulated operation on the interpreter.
    pub fn interp_ns_per_op(&self) -> f64 {
        self.interp_ns as f64 / self.ops.max(1) as f64
    }

    /// Host nanoseconds per simulated operation on the native tier.
    pub fn native_ns_per_op(&self) -> f64 {
        self.native_ns as f64 / self.ops.max(1) as f64
    }
}

/// Geometric mean of the per-kernel speedups.
pub fn geomean(results: &[ExecResult]) -> f64 {
    let log_sum: f64 = results.iter().map(|r| r.speedup().ln()).sum();
    (log_sum / results.len().max(1) as f64).exp()
}

/// Measures one kernel: identity fence with full recording, then timed
/// runs with recording off.
pub fn run_exec_bench(bench: &Benchmark, preset: Preset, nodes: u16, iters: u32) -> ExecResult {
    let build = Build::Optimized(CommOptConfig::default());
    let (prog, _) = build_ir(bench, &build);
    let args: Vec<Value> = (bench.args)(preset);

    // Identity fence: site recording + op histogram on, every
    // observable field compared.
    let fenced = earth_sim::compile(
        &prog,
        CodegenOptions {
            record_sites: true,
            ..CodegenOptions::default()
        },
    )
    .expect("codegen");
    let entry = fenced.function_by_name("main").expect("main");
    let cfg = MachineConfig {
        record_op_stats: true,
        ..MachineConfig::with_nodes(nodes)
    };
    let a = earth_sim::run_compiled(ExecBackend::Interp, cfg.clone(), &fenced, entry, &args)
        .expect("interp run");
    let b = earth_sim::run_compiled(ExecBackend::Native, cfg, &fenced, entry, &args)
        .expect("native run");
    assert_eq!(a.ret, b.ret, "{}: return value", bench.name);
    assert_eq!(a.time_ns, b.time_ns, "{}: virtual time", bench.name);
    assert_eq!(a.stats, b.stats, "{}: comm stats", bench.name);
    assert_eq!(a.output, b.output, "{}: output", bench.name);
    assert_eq!(a.node_busy_ns, b.node_busy_ns, "{}: busy time", bench.name);
    assert_eq!(
        a.site_trace.per_site, b.site_trace.per_site,
        "{}: site trace",
        bench.name
    );
    assert_eq!(a.op_stats, b.op_stats, "{}: op histogram", bench.name);

    // Timed runs: plain codegen, no recording, same for both sides.
    let plain = earth_sim::compile(&prog, CodegenOptions::default()).expect("codegen");
    let entry = plain.function_by_name("main").expect("main");
    let cfg = MachineConfig::with_nodes(nodes);
    let np = NativeProgram::compile(&plain, &cfg.cost);

    // Warmup once per backend, then take the *minimum* over the
    // iterations — the estimator least distorted by scheduler noise on
    // shared machines (any single clean run bounds the true cost).
    std::hint::black_box(Machine::new(cfg.clone()).run(&plain, entry, &args).unwrap());
    let mut interp_ns = u64::MAX;
    for _ in 0..iters {
        let start = Instant::now();
        let r = Machine::new(cfg.clone()).run(&plain, entry, &args).unwrap();
        std::hint::black_box(r);
        interp_ns = interp_ns.min(start.elapsed().as_nanos() as u64);
    }

    std::hint::black_box(
        NativeMachine::new(cfg.clone())
            .run(&np, entry, &args)
            .unwrap(),
    );
    let mut native_ns = u64::MAX;
    for _ in 0..iters {
        let start = Instant::now();
        let r = NativeMachine::new(cfg.clone())
            .run(&np, entry, &args)
            .unwrap();
        std::hint::black_box(r);
        native_ns = native_ns.min(start.elapsed().as_nanos() as u64);
    }

    ExecResult {
        bench: bench.name,
        interp_ns,
        native_ns,
        virtual_ns: a.time_ns,
        ops: a.stats.ops,
        identical: true,
    }
}

/// Renders one kernel's row for the terminal.
pub fn render_exec(r: &ExecResult) -> String {
    format!(
        "{:<10} interp {:>12} ns ({:>6.1} ns/op) | native {:>12} ns ({:>5.1} ns/op) | {:>6.1}x | identical {}\n",
        r.bench,
        r.interp_ns,
        r.interp_ns_per_op(),
        r.native_ns,
        r.native_ns_per_op(),
        r.speedup(),
        r.identical
    )
}

/// The `BENCH_exec.json` document. `host` is the already-encoded host
/// object (see [`host_json`]).
pub fn to_json(
    results: &[ExecResult],
    preset: Preset,
    nodes: u16,
    iters: u32,
    host: &str,
) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"artifact\": \"BENCH_exec\",\n");
    out.push_str(&format!("  \"host\": {host},\n"));
    out.push_str(&format!("  \"preset\": \"{preset:?}\",\n"));
    out.push_str(&format!("  \"nodes\": {nodes},\n"));
    out.push_str(&format!("  \"iters\": {iters},\n"));
    out.push_str("  \"kernels\": [\n");
    for (i, r) in results.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"ops\": {}, \"interp_ns\": {}, \"native_ns\": {}, \
             \"interp_ns_per_op\": {:.2}, \"native_ns_per_op\": {:.2}, \"speedup\": {:.2}, \
             \"virtual_ns\": {}, \"identical\": {}}}{}\n",
            r.bench,
            r.ops,
            r.interp_ns,
            r.native_ns,
            r.interp_ns_per_op(),
            r.native_ns_per_op(),
            r.speedup(),
            r.virtual_ns,
            r.identical,
            if i + 1 < results.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!("  \"geomean_speedup\": {:.2}\n", geomean(results)));
    out.push_str("}\n");
    out
}

/// The `host` object of a benchmark artifact: CPU model, logical CPUs,
/// the compiler that built the benchmark, and the command that
/// reproduces the artifact.
pub fn host_json(command: &str) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    Obj::new()
        .str("cpu", &cpu)
        .u64("nproc", nproc as u64)
        .str("rustc", env!("BENCH_RUSTC_VERSION"))
        .str("command", command)
        .finish()
}
