//! `bench_e2e`: end-to-end benchmark of a real `earthd`.
//!
//! An in-process daemon (`earth_serve::server::Server` over
//! `earthc::serve::PipelineBackend`, native tier, `workers` = nproc) is
//! driven over loopback TCP by nproc closed-loop clients using
//! `earth_serve::client::Client`. Workloads: `run-hot`, `compile-cold`,
//! `edit-loop` (see `NOTES.md`).
//!
//! ```text
//! cargo run --release --manifest-path bench_e2e/Cargo.toml -- \
//!     [--workload run-hot|compile-cold|edit-loop|all] [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! With one workload (`--trace` defaults to 0), the last line of standard
//! output is one JSON object: the end-to-end metrics with `--trace 0`,
//! the per-layer metrics with `--trace 1`. Without `--workload` (or with
//! `all`) every workload runs traced, each in a process of its own, and
//! the combined result goes to `.bench_out/BENCH_e2e.json`. Every metric
//! is also printed by name with its unit, and written with the host
//! block to `.bench_out/`. Any output mismatch makes the exit code 1.

mod drive;
mod gate;
mod plan;
mod report;
mod trace;

use drive::{compact, setup, trace_id, Record, Stop, Window, SETUP_CLIENT};
use earthc::earth_ir::json::{self, Obj, ObjectExt as _};
use earthc::earth_serve::proto::Response;
use earthc::earth_serve::stats::ServerStats;
use earthc::serve::PipelineBackend;
use plan::{base_set, plans, setup_plan, BaseProgram, Spec, Workload};
use report::{mean_of_medians, median, metric, percentile, Metric};
use std::collections::HashMap;
use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;
use trace::{Span, TracedBackend, Tracer};

/// Default `--seconds`; equal to `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: u64 = 10;
/// Default `--seed`; the checked-in numbers use it.
const DEFAULT_SEED: u64 = 1;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// The least share of client-measured latency the traced run's top-level
/// spans must cover.
const MIN_COVERAGE: f64 = 0.95;
/// Where results and traces are written, relative to the checkout.
const OUT_DIR: &str = ".bench_out";

/// The end-to-end metrics of the result line (`--trace 0`).
const E2E_LINE: [&str; 6] = [
    "throughput_rps",
    "latency_p50_ms",
    "latency_p99_ms",
    "setup_s",
    "peak_rss_mb",
    "cpu_ms_per_req",
];

/// Per-layer metrics printed but left off the result line (`--trace
/// 1`): the profile layer runs only on `edit-loop`, and a metric there
/// must be measured on every workload.
const LAYER_OFF_LINE: [&str; 3] = ["profile.instrument_us", "profile.merge_us", "profile.sites"];

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn usage() -> &'static str {
    "usage: bench_e2e [--workload run-hot|compile-cold|edit-loop|all] [--seed N] [--seconds S] [--trace 0|1]"
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: true,
    };
    let mut trace_set = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                a.workload = match v.as_str() {
                    "all" => None,
                    _ => Some(Workload::parse(v).ok_or(format!("unknown workload `{v}`"))?),
                };
            }
            "--seed" => a.seed = value()?.parse().map_err(|_| "--seed needs an integer")?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|_| "--seconds needs an integer")?;
                if a.seconds == 0 {
                    return Err("--seconds must be at least 1".into());
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                };
                trace_set = true;
            }
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    if a.workload.is_some() && !trace_set {
        a.trace = false;
    }
    if a.workload.is_none() && trace_set && !a.trace {
        return Err("every workload runs traced; pick one with --workload for --trace 0".into());
    }
    Ok(a)
}

/// What one workload run produced.
struct Outcome {
    e2e: Vec<Metric>,
    layers: Vec<Metric>,
    attempted: u64,
    failed: u64,
    correct: bool,
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bench_e2e: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let workload = args.workload.map_or("all", Workload::name);
    let command = format!(
        "cargo run --release --manifest-path bench_e2e/Cargo.toml -- --workload {workload} --seed {} --seconds {} --trace {}",
        args.seed, args.seconds, args.trace as u8
    );
    let host = report::host_json(&command);
    println!("host: {host}");
    let Some(w) = args.workload else {
        return run_all(&args, &host);
    };
    let o = match run_workload(w, &args, &host) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("bench_e2e: {}: {e}", w.name());
            return ExitCode::FAILURE;
        }
    };
    let ms: Vec<&Metric> = if args.trace {
        o.layers
            .iter()
            .filter(|m| !LAYER_OFF_LINE.contains(&m.name))
            .collect()
    } else {
        o.e2e
            .iter()
            .filter(|m| E2E_LINE.contains(&m.name))
            .collect()
    };
    println!(
        "{}",
        report::result_line(o.correct, o.attempted, o.failed, &report::metrics_json(&ms))
    );
    if o.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Every workload, traced, each in a process of its own so that memory
/// one workload leaves behind does not count in the next one's peak RSS.
/// Writes `.bench_out/BENCH_e2e.json` from the per-workload result files.
fn run_all(args: &Args, host: &str) -> ExitCode {
    let run = || -> Result<(bool, u64, u64, String, String), String> {
        let exe = std::env::current_exe().map_err(|e| format!("cannot find myself: {e}"))?;
        let (mut correct, mut attempted, mut failed) = (true, 0, 0);
        let (mut parts, mut metrics) = (Obj::new(), Obj::new());
        for w in Workload::ALL {
            let out = std::process::Command::new(&exe)
                .args(["--workload", w.name(), "--trace", "1"])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .stderr(std::process::Stdio::inherit())
                .output()
                .map_err(|e| format!("cannot run {}: {e}", w.name()))?;
            let text = String::from_utf8_lossy(&out.stdout);
            print!("{text}");
            let name = format!("{}-seed{}-trace1.json", w.name(), args.seed);
            let file = std::fs::read_to_string(Path::new(OUT_DIR).join(&name))
                .map_err(|e| format!("{}: no result file {name}: {e}", w.name()))?;
            let v = json::parse(&file).map_err(|e| format!("{name}: {e}"))?;
            let o = v.as_object(&name).map_err(|e| e.to_string())?;
            correct &= out.status.success() && o.get_bool("correct").map_err(|e| e.to_string())?;
            attempted += o.get_u64("attempted").map_err(|e| e.to_string())?;
            failed += o.get_u64("failed").map_err(|e| e.to_string())?;
            for section in ["end_to_end", "per_layer"] {
                let fields = o
                    .field(section)
                    .ok_or(format!("{name}: no {section}"))?
                    .as_object(section)
                    .map_err(|e| e.to_string())?;
                for (k, m) in fields {
                    metrics = metrics.raw(&format!("{}/{k}", w.name()), &m.render());
                }
            }
            parts = parts.raw(w.name(), &file);
        }
        Ok((correct, attempted, failed, parts.finish(), metrics.finish()))
    };
    match run() {
        Ok((correct, attempted, failed, parts, metrics)) => {
            let combined = Obj::new()
                .raw("host", host)
                .raw("workloads", &parts)
                .finish();
            let path = Path::new(OUT_DIR).join("BENCH_e2e.json");
            if let Err(e) = std::fs::write(&path, combined + "\n") {
                eprintln!("bench_e2e: cannot write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
            println!(
                "{}",
                report::result_line(correct, attempted, failed, &metrics)
            );
            if correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("bench_e2e: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run_workload(w: Workload, args: &Args, host: &str) -> Result<Outcome, String> {
    let nproc = report::nproc();
    let base = base_set();
    let len = (args.seconds as usize * 4000).max(2000);
    let plans = plans(w, args.seed, nproc, len, &base);
    let setup_specs = setup_plan(&base);
    println!(
        "== {} (seed {}, {} s, {nproc} clients, {nproc} workers, trace {})",
        w.name(),
        args.seed,
        args.seconds,
        args.trace as u8
    );

    // Set-up, several times; the last daemon serves the window.
    let mut setup_times = Vec::new();
    let mut setup_resps = Vec::new();
    let mut daemon = None;
    for k in 0..SETUPS {
        let (d, t, resps) = setup(PipelineBackend::new(), nproc, &base, &setup_specs, None)?;
        setup_times.push(t.as_secs_f64());
        setup_resps.push(resps);
        if k + 1 < SETUPS {
            d.stop();
        } else {
            daemon = Some(d);
        }
    }
    let daemon = daemon.expect("at least one set-up");
    let virtual_ns: u64 = setup_resps[SETUPS - 1]
        .iter()
        .map(|r| match r {
            Response::Run { time_ns, .. } => *time_ns,
            _ => 0,
        })
        .sum();

    // The timed window, untraced. Peak RSS counts from here.
    report::reset_peak_rss();
    let before = daemon.stats()?;
    let win = drive::window(
        daemon.addr,
        &base,
        &plans,
        Stop::After(Duration::from_secs(args.seconds)),
        &[],
        None,
    );
    let after = daemon.stats()?;
    let rss = report::peak_rss_mb();
    daemon.stop();

    // The traced replay of the same stream.
    let mut traced = None;
    if args.trace {
        let tracer = Arc::new(Tracer::new());
        let (td, _, tresps) = setup(
            TracedBackend::new(Arc::clone(&tracer)),
            nproc,
            &base,
            &setup_specs,
            Some(&tracer),
        )?;
        let counts: Vec<usize> = win.records.iter().map(Vec::len).collect();
        let mut twin = drive::window(td.addr, &base, &plans, Stop::Count, &counts, Some(&tracer));
        td.stop();
        drive::replay_codecs(&mut twin, &base, &plans, &tracer);
        traced = Some((twin, tresps, tracer.take_spans()));
    }

    // The correctness gate.
    let rets = gate::reference_rets(&base);
    let mut streams = Vec::new();
    for (k, resps) in setup_resps.iter().enumerate() {
        streams.push(gate::Stream {
            label: format!("set-up {k}"),
            items: setup_specs.iter().zip(resps).collect(),
        });
    }
    let mut client_failures = 0u64;
    for (c, recs) in win.records.iter().enumerate() {
        let mut items = Vec::new();
        for r in recs {
            match &r.resp {
                Ok(resp) => items.push((&plans[c][r.spec], resp)),
                Err(e) => {
                    client_failures += 1;
                    eprintln!("client {c} request {}: {e}", r.spec);
                }
            }
        }
        streams.push(gate::Stream {
            label: format!("client {c}"),
            items,
        });
    }
    let mut mismatches = gate::check(&base, &rets, &streams, nproc);
    if let Some((twin, tresps, _)) = &traced {
        mismatches.extend(identity_mismatches(
            &win,
            twin,
            &setup_resps[SETUPS - 1],
            tresps,
        ));
    }
    for m in mismatches.iter().take(20) {
        eprintln!("MISMATCH {}", m.msg);
    }
    // Window requests with at least one mismatch; streams before
    // `SETUPS` are set-ups, which make the run incorrect but are not
    // window requests.
    let bad_requests: std::collections::BTreeSet<(usize, usize)> = mismatches
        .iter()
        .filter(|m| m.stream >= SETUPS)
        .map(|m| (m.stream, m.item))
        .collect();
    let setup_mismatches = mismatches.iter().filter(|m| m.stream < SETUPS).count();

    // End-to-end metrics.
    let all: Vec<&Record> = win.records.iter().flatten().collect();
    let attempted = all.len() as u64;
    let errors = all
        .iter()
        .filter(|r| matches!(r.resp, Ok(Response::Error { .. })))
        .count() as u64;
    let completed = all
        .iter()
        .filter(|r| matches!(r.resp, Ok(ref x) if !matches!(x, Response::Error { .. })))
        .count() as u64;
    let lat_ms: Vec<f64> = all
        .iter()
        .filter(|r| r.resp.is_ok())
        .map(|r| r.lat_ns as f64 / 1e6)
        .collect();
    let wall = win.wall.as_secs_f64();
    let rps = completed as f64 / wall;
    let n = lat_ms.len();
    let p99_rank = ((0.99 * n as f64).ceil() as usize).clamp(1, n.max(1));
    // The gate reports error responses too, as mismatches.
    let failed = client_failures + bad_requests.len() as u64;
    let mut e2e = vec![
        metric("throughput_rps", "1/s", rps),
        metric("latency_p50_ms", "ms", percentile(&lat_ms, 0.50)),
        metric("latency_p99_ms", "ms", percentile(&lat_ms, 0.99)),
        metric(
            "error_frac",
            "ratio",
            failed as f64 / attempted.max(1) as f64,
        ),
        metric("setup_s", "s", median(&setup_times)),
        metric("peak_rss_mb", "MiB", rss),
        metric("cpu_ms_per_req", "ms", win.cpu_ms / completed.max(1) as f64),
        metric("virtual_ms", "vms", virtual_ns as f64 / 1e6),
    ];
    e2e[0].note = format!("{completed} completed in {wall:.3} s");
    e2e[2].note = format!("{n} samples, {} beyond p99", n.saturating_sub(p99_rank));
    e2e[3].note = format!(
        "{errors} errors, {client_failures} client failures, {} mismatched of {attempted}; {setup_mismatches} set-up mismatches",
        bad_requests.len()
    );
    e2e[4].note = format!("median of {SETUPS}");
    e2e[7].note = "virtual time of the set-up runs; deterministic".into();
    report::print_table("end-to-end (untraced):", &e2e);

    let mut layers = Vec::new();
    let mut attribution = String::from("{}");
    let mut trace_ok = true;
    if let Some((twin, _, spans)) = &mut traced {
        let (ls, attr, derived) = layer_metrics(
            &base,
            &plans,
            &setup_specs,
            twin,
            spans,
            [&before, &after],
            rps,
        );
        layers = ls;
        attribution = attr;
        spans.extend(derived);
        let coverage = layers
            .iter()
            .find(|m| m.name == "trace.coverage")
            .map_or(0.0, |m| m.value);
        if coverage < MIN_COVERAGE {
            eprintln!("TRACE CHECK trace.coverage {coverage:.4} < {MIN_COVERAGE}: spans did not join their requests");
            trace_ok = false;
        }
        report::print_table("per-layer (traced):", &layers);
    }

    // Results and traces under `.bench_out/`.
    let out = Path::new(OUT_DIR);
    std::fs::create_dir_all(out).map_err(|e| format!("cannot create {OUT_DIR}: {e}"))?;
    let tag = format!("{}-seed{}-trace{}", w.name(), args.seed, args.trace as u8);
    let list = |ms: &[Metric]| {
        let mut o = Obj::new();
        for m in ms {
            o = o.raw(
                m.name,
                &Obj::new()
                    .f64("value", m.value)
                    .str("unit", m.unit)
                    .str("note", &m.note)
                    .finish(),
            );
        }
        o.finish()
    };
    let result = Obj::new()
        .str("workload", w.name())
        .u64("seed", args.seed)
        .u64("seconds", args.seconds)
        .raw("host", host)
        .bool("correct", failed == 0 && setup_mismatches == 0 && trace_ok)
        .u64("attempted", attempted)
        .u64("failed", failed)
        .raw("end_to_end", &list(&e2e))
        .raw("per_layer", &list(&layers))
        .raw("attribution", &attribution)
        .finish();
    let write = |name: String, text: &str| {
        std::fs::write(out.join(&name), text).map_err(|e| format!("cannot write {name}: {e}"))
    };
    write(format!("{tag}.json"), &result)?;
    if let Some((_, _, spans)) = &traced {
        write(format!("spans-{tag}.json"), &trace::spans_json(spans))?;
    }
    Ok(Outcome {
        e2e,
        layers,
        attempted,
        failed,
        correct: failed == 0 && setup_mismatches == 0 && trace_ok,
    })
}

/// Traced responses must equal the untraced run's, request for request
/// (compared in [`compact`] form, as the untraced run keeps them).
/// Mismatches are addressed like the gate's: set-up stream `SETUPS - 1`,
/// then client `c` as stream `SETUPS + c`.
fn identity_mismatches(
    win: &Window,
    twin: &Window,
    setup: &[Response],
    tsetup: &[Response],
) -> Vec<gate::Mismatch> {
    let mut bad = Vec::new();
    let mut flag = |stream, item, msg| bad.push(gate::Mismatch { stream, item, msg });
    for (i, (a, b)) in setup.iter().zip(tsetup).enumerate() {
        if a.to_json() != b.to_json() {
            flag(
                SETUPS - 1,
                i,
                format!("traced set-up #{i} differs from the untraced one"),
            );
        }
    }
    for (c, (a, b)) in win.records.iter().zip(&twin.records).enumerate() {
        if a.len() != b.len() {
            let n = a.len().min(b.len());
            flag(
                SETUPS + c,
                n,
                format!(
                    "traced client {c} sent {} requests, untraced {}",
                    b.len(),
                    a.len()
                ),
            );
        }
        for (i, (ra, rb)) in a.iter().zip(b).enumerate() {
            let same = match (&ra.resp, &rb.resp) {
                (Ok(x), Ok(y)) => x.to_json() == compact(y.clone()).to_json(),
                _ => false,
            };
            if !same {
                flag(
                    SETUPS + c,
                    i,
                    format!("traced client {c} #{i}: response differs from the untraced run"),
                );
            }
        }
    }
    bad
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// Per-layer metrics of the traced run, the attribution (latency shares
/// by span, request decode by base program) as JSON, and the spans
/// derived from recorded timestamps: each request's backend interval
/// (first to last backend call), the net layer's two intervals, and the
/// response encode. Counts come from the untraced daemon's `stats` deltas.
fn layer_metrics(
    base: &[BaseProgram],
    plans: &[Vec<Spec>],
    setup_specs: &[Spec],
    twin: &Window,
    spans: &[Span],
    [before, after]: [&ServerStats; 2],
    untraced_rps: f64,
) -> (Vec<Metric>, String, Vec<Span>) {
    let mut by_name: HashMap<&str, Vec<&Span>> = HashMap::new();
    let mut by_trace: HashMap<u64, Vec<&Span>> = HashMap::new();
    for s in spans {
        by_name.entry(s.name).or_default().push(s);
        by_trace.entry(s.trace).or_default().push(s);
    }
    // The base program a trace id's request used.
    let prog_of = |trace: u64| -> Option<usize> {
        let client = (trace >> 32).checked_sub(1)? as usize;
        let i = (trace & 0xffff_ffff).checked_sub(1)? as usize;
        let spec = if client == SETUP_CLIENT {
            setup_specs.get(i)
        } else {
            plans.get(client)?.get(i)
        };
        spec.map(|s| s.prog)
    };
    // Per call, over the whole traced run (set-up and window).
    let per_call = |name: &str, f: &dyn Fn(&Span) -> f64| -> (f64, usize) {
        let v: Vec<(usize, f64)> = by_name.get(name).map_or(Vec::new(), |ss| {
            ss.iter()
                .filter_map(|s| Some((prog_of(s.trace)?, f(s))))
                .collect()
        });
        (mean_of_medians(&v), v.len())
    };
    let dur_us = |s: &Span| us(s.dur());

    // Per request, over the window.
    let mut decode = Vec::new();
    let mut by_prog: HashMap<&str, (Vec<f64>, Vec<f64>)> = HashMap::new();
    let mut encode = Vec::new();
    let mut resp_decode = Vec::new();
    let mut req_bytes = Vec::new();
    let mut resp_bytes = Vec::new();
    let mut wait = Vec::new();
    let mut back = Vec::new();
    let mut derived = Vec::new();
    let (mut covered, mut measured, mut total) = (0u64, 0u64, 0u64);
    let mut attr: HashMap<&str, u64> = HashMap::new();
    for (c, recs) in twin.records.iter().enumerate() {
        for r in recs {
            if r.resp.is_err() {
                continue;
            }
            let k = &r.codec;
            let prog = plans[c][r.spec].prog;
            decode.push((prog, us(k.req_decode_ns)));
            let e = by_prog.entry(&base[prog].name).or_default();
            e.0.push(k.req_bytes as f64);
            e.1.push(us(k.req_decode_ns));
            encode.push((prog, us(k.resp_encode_ns)));
            resp_decode.push((prog, us(k.resp_decode_ns)));
            req_bytes.push((prog, k.req_bytes as f64));
            resp_bytes.push((prog, k.resp_bytes as f64));
            let id = trace_id(c, r.spec);
            let ss = by_trace.get(&id).map_or(&[][..], Vec::as_slice);
            let Some(req) = ss.iter().find(|s| s.name == "request") else {
                continue;
            };
            let inner: Vec<&&Span> = ss.iter().filter(|s| s.parent == "backend").collect();
            let b_start = inner.iter().map(|s| s.start).min();
            let b_end = inner.iter().map(|s| s.end).max();
            let head = k.req_encode_ns + k.req_decode_ns;
            let tail = k.resp_encode_ns + k.resp_decode_ns;
            // The net layer's two intervals: send -> backend entry and
            // backend exit -> receive, less the codec calls inside them.
            let (w, backend, ret) = match (b_start, b_end) {
                (Some(s), Some(e)) => {
                    let w = s.saturating_sub(req.start + head);
                    let ret = req.end.saturating_sub(e + tail);
                    let enc_end = e + k.resp_encode_ns;
                    for (name, start, end) in [
                        ("serve.wait", s - w, s),
                        ("backend", s, e),
                        ("serve.resp_encode", e, enc_end),
                        ("serve.return", enc_end, enc_end + ret),
                    ] {
                        derived.push(Span {
                            trace: id,
                            name,
                            parent: "request",
                            start,
                            end,
                            attrs: [0; 2],
                        });
                    }
                    (w, e - s, ret)
                }
                _ => (0, 0, 0),
            };
            wait.push((prog, us(w)));
            back.push((prog, us(ret)));
            let top = (head + w + backend + tail + ret).min(req.dur());
            covered += top;
            measured += (head + backend + tail).min(req.dur());
            total += req.dur();
            *attr.entry("client.req_encode").or_default() += k.req_encode_ns;
            *attr.entry("serve.req_decode").or_default() += k.req_decode_ns;
            *attr.entry("serve.wait").or_default() += w;
            *attr.entry("serve.return").or_default() += ret;
            *attr.entry("serve.resp_encode").or_default() += k.resp_encode_ns;
            *attr.entry("client.resp_decode").or_default() += k.resp_decode_ns;
            let children: u64 = inner.iter().map(|s| s.dur()).sum();
            *attr.entry("backend.self").or_default() += backend.saturating_sub(children);
            for s in &inner {
                if s.name == "passes" {
                    // Split passes into its per-pass children.
                    let parts: Vec<&&Span> = ss.iter().filter(|p| p.parent == "passes").collect();
                    let sum: u64 = parts.iter().map(|p| p.dur()).sum();
                    for p in parts {
                        *attr.entry(p.name).or_default() += p.dur();
                    }
                    *attr.entry("passes.self").or_default() += s.dur().saturating_sub(sum);
                } else {
                    *attr.entry(s.name).or_default() += s.dur();
                }
            }
            *attr.entry("unattributed").or_default() += req.dur() - top;
        }
    }
    let coverage = covered as f64 / total.max(1) as f64;
    let traced_done: usize = twin.records.iter().map(Vec::len).sum();
    let traced_rps = traced_done as f64 / twin.wall.as_secs_f64();

    let d = |f: fn(&ServerStats) -> u64| f(after).saturating_sub(f(before)) as f64;
    let hits = d(|s| s.cache.hits);
    let misses = d(|s| s.cache.misses);

    let mut out = Vec::new();
    let mut push = |name: &'static str, unit: &'static str, (value, calls): (f64, usize)| {
        let mut m = metric(name, unit, value);
        if calls != usize::MAX {
            m.note = format!("{calls} samples");
        }
        out.push(m);
    };
    let count = |v: f64| (v, usize::MAX);
    let per_req = |v: &[(usize, f64)]| (mean_of_medians(v), v.len());
    push("serve.req_decode_us", "us", per_req(&decode));
    push("serve.resp_encode_us", "us", per_req(&encode));
    push("client.resp_decode_us", "us", per_req(&resp_decode));
    push("serve.req_bytes", "B", per_req(&req_bytes));
    push("serve.resp_bytes", "B", per_req(&resp_bytes));
    push("serve.wait_us", "us", per_req(&wait));
    push("serve.return_us", "us", per_req(&back));
    push("serve.rejected", "count", count(d(|s| s.rejected)));
    push(
        "serve.deadline_misses",
        "count",
        count(d(|s| s.deadline_misses)),
    );
    push(
        "serve.coalesced_hits",
        "count",
        count(d(|s| s.coalesced_hits)),
    );
    push(
        "cache.hit_ratio",
        "ratio",
        count(hits / (hits + misses).max(1.0)),
    );
    push("cache.evictions", "count", count(d(|s| s.cache.evictions)));
    push(
        "serve.cache_key_us",
        "us",
        per_call("serve.cache_key", &dur_us),
    );
    push(
        "frontend.compile_us",
        "us",
        per_call("frontend.compile", &dur_us),
    );
    push(
        "frontend.bytes_per_us",
        "B/us",
        per_call("frontend.compile", &|s| {
            s.attrs[0] as f64 / us(s.dur().max(1))
        }),
    );
    push("passes.total_us", "us", per_call("passes", &dur_us));
    push(
        "passes.locality_us",
        "us",
        per_call("passes.locality", &dur_us),
    );
    push(
        "passes.optimize_us",
        "us",
        per_call("passes.optimize", &dur_us),
    );
    push(
        "passes.validate_ir_us",
        "us",
        per_call("passes.validate_ir", &dur_us),
    );
    push("analysis.analyses", "count", count(d(|s| s.analyses)));
    push(
        "inc.functions_reused",
        "count",
        count(d(|s| s.functions_reused)),
    );
    push(
        "inc.functions_reoptimized",
        "count",
        count(d(|s| s.functions_reoptimized)),
    );
    push("inc.escalations", "count", count(d(|s| s.escalations)));
    push("ir.print_us", "us", per_call("ir.print", &dur_us));
    push("sim.codegen_us", "us", per_call("sim.codegen", &dur_us));
    push("sim.predecode_us", "us", per_call("sim.predecode", &dur_us));
    push("sim.exec_us", "us", per_call("sim.exec", &dur_us));
    push(
        "sim.ns_per_op",
        "ns",
        per_call("sim.exec", &|s| s.dur() as f64 / s.attrs[0].max(1) as f64),
    );
    push(
        "sim.ops",
        "count",
        per_call("sim.exec", &|s| s.attrs[0] as f64),
    );
    push(
        "sim.remote_ops",
        "count",
        per_call("sim.exec", &|s| s.attrs[1] as f64),
    );
    push(
        "profile.instrument_us",
        "us",
        per_call("profile.instrument", &dur_us),
    );
    push("profile.merge_us", "us", per_call("profile.merge", &dur_us));
    push(
        "profile.sites",
        "count",
        per_call("profile.instrument", &|s| s.attrs[0] as f64),
    );
    push("trace.coverage", "ratio", count(coverage));
    push(
        "trace.overhead_frac",
        "ratio",
        count(1.0 - traced_rps / untraced_rps),
    );
    let mut calls = metric(
        "trace.call_coverage",
        "ratio",
        measured as f64 / total.max(1) as f64,
    );
    calls.note = "inside spans around calls; the rest is serve.wait + serve.return".into();
    let at = out.len() - 1;
    out.insert(at, calls);

    // Attribution: each name's share of the summed client latency.
    let mut rows: Vec<(&str, u64)> = attr.into_iter().collect();
    rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
    println!("attribution (share of client-measured latency, window):");
    let mut json = String::from("[");
    for (i, (name, ns)) in rows.iter().enumerate() {
        let share = *ns as f64 / total.max(1) as f64;
        println!("  {name:<22} {:>6.2}%", share * 100.0);
        if i > 0 {
            json.push(',');
        }
        json.push_str(
            &Obj::new()
                .str("span", name)
                .f64("share", share)
                .f64("total_ms", *ns as f64 / 1e6)
                .finish(),
        );
    }
    json.push(']');
    // Request decode against request size, per base program.
    println!("request decode by base program (window, medians):");
    let mut progs: Vec<(&str, f64, f64, usize)> = by_prog
        .iter()
        .map(|(name, (b, d))| (*name, median(b), median(d), d.len()))
        .collect();
    progs.sort_by(|a, b| a.1.total_cmp(&b.1));
    let mut sizes = String::from("[");
    for (i, (name, bytes, dec, n)) in progs.iter().enumerate() {
        println!("  {name:<10} {bytes:>7.0} B  {dec:>9.1} us  ({n} requests)");
        if i > 0 {
            sizes.push(',');
        }
        sizes.push_str(
            &Obj::new()
                .str("program", name)
                .f64("req_bytes", *bytes)
                .f64("req_decode_us", *dec)
                .u64("requests", *n as u64)
                .finish(),
        );
    }
    sizes.push(']');
    let attribution = Obj::new()
        .raw("shares", &json)
        .raw("req_decode_by_program", &sizes)
        .finish();
    (out, attribution, derived)
}
