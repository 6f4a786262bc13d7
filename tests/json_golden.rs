//! Byte-identity fence for every JSON surface of the toolchain.
//!
//! One fixed value per type and variant is encoded, and a table of
//! malformed inputs is decoded; the results must match
//! `tests/json_golden.txt` exactly. The encodings are load-bearing:
//! wire lines cross process boundaries, spill files outlive daemon
//! restarts, and profile bytes are hashed into cache keys. Each golden
//! line is `name<TAB>result`, where a decode result is rendered as
//! `ok <re-encoding>` or `err <error text>`.
//!
//! JSON literals here use two `#`s: `tests/frontend_golden.rs` collects
//! every one-`#` raw string under `tests/` as an EARTH-C source.

use earthc::earth_ir::diag::{self, Diagnostic};
use earthc::earth_ir::{Label, SiteId};
use earthc::earth_pass::PassReport;
use earthc::earth_profile::{Profile, SiteCounters};
use earthc::earth_serve::proto::{Arg, CompileOptions, Request, RequestKind, Response};
use earthc::earth_serve::stats::{CacheCounters, ClusterStats, Histogram, PeerStats, ServerStats};
use earthc::earth_serve::{Artifact, Backend};
use earthc::serve::PipelineBackend;
use earthc::{CacheStats, PipelineReport};
use std::time::Duration;

const SOURCE: &str = "int main(int n) {\n  return n + 1;\n}\n";

fn req(id: u64, deadline_ms: Option<u64>, fwd: bool, kind: RequestKind) -> Request {
    Request {
        id,
        deadline_ms,
        fwd,
        kind,
    }
}

fn requests() -> Vec<(&'static str, Request)> {
    let opts = CompileOptions {
        optimize: true,
        locality: false,
        use_profile: true,
    };
    vec![
        (
            "request.compile",
            req(
                1,
                None,
                false,
                RequestKind::Compile {
                    source: SOURCE.into(),
                    opts: CompileOptions::default(),
                },
            ),
        ),
        (
            "request.run",
            req(
                2,
                Some(250),
                true,
                RequestKind::Run {
                    source: "a\tb \"q\" \\ \u{1}".into(),
                    opts,
                    entry: "go".into(),
                    nodes: 8,
                    args: vec![Arg::Int(-3), Arg::Double(2.5), Arg::Double(4.0)],
                },
            ),
        ),
        (
            "request.pgo",
            req(
                3,
                None,
                false,
                RequestKind::Pgo {
                    source: SOURCE.into(),
                    entry: "main".into(),
                    nodes: 2,
                    args: vec![Arg::Int(7)],
                },
            ),
        ),
        (
            "request.lint",
            req(
                4,
                Some(0),
                false,
                RequestKind::Lint {
                    source: SOURCE.into(),
                },
            ),
        ),
        ("request.stats", req(5, None, false, RequestKind::Stats)),
        ("request.ping", req(6, None, true, RequestKind::Ping)),
        (
            "request.shutdown",
            req(7, None, false, RequestKind::Shutdown),
        ),
    ]
}

fn histogram() -> Histogram {
    let mut h = Histogram::default();
    for ns in [500, 3_000, 3_100, 2_000_000, u64::MAX / 4] {
        h.record(ns);
    }
    h
}

fn server_stats(cluster: bool) -> ServerStats {
    ServerStats {
        uptime_ms: 1234,
        toolchain: "earthc/0.1.0 proto/1".into(),
        workers: 4,
        queue_depth: 1,
        queue_capacity: 64,
        rejected: 2,
        deadline_misses: 3,
        errors: 4,
        analyses: 5,
        functions_reused: 6,
        functions_reoptimized: 7,
        escalations: 8,
        open_connections: 9,
        idle_closed: 10,
        batched_requests: 11,
        coalesced_hits: 12,
        cluster: cluster.then(|| ClusterStats {
            self_addr: "127.0.0.1:7100".into(),
            peers: vec![
                PeerStats {
                    addr: "127.0.0.1:7101".into(),
                    healthy: true,
                    forwarded: 4,
                    failures: 1,
                },
                PeerStats {
                    addr: "127.0.0.1:7102".into(),
                    healthy: false,
                    forwarded: 0,
                    failures: 9,
                },
            ],
            forwarded: 4,
            remote_fills: 1,
            ring_rebalances: 2,
        }),
        requests: vec![
            ("compile".into(), 10),
            ("ping".into(), 1),
            ("run".into(), 3),
        ],
        cache: CacheCounters {
            hits: 8,
            misses: 2,
            evictions: 1,
            invalidations: 1,
            spill_writes: 3,
            spill_hits: 1,
            entries: 5,
            pending: 0,
        },
        pass_walls: vec![
            ("locality".into(), Histogram::default()),
            ("optimize".into(), histogram()),
        ],
    }
}

fn diagnostic(func: bool) -> Diagnostic {
    let d = Diagnostic::error("PLC001", "hoisted \"read\" crosses\ta write\n")
        .with_label(Label(4), "read inserted here")
        .with_label(Label(9), "ctl \u{0}\u{1f}\u{7f}")
        .with_note("first note")
        .with_note("second \\ note");
    if func {
        d.in_func("walk")
    } else {
        d
    }
}

fn responses() -> Vec<(&'static str, Response)> {
    vec![
        (
            "response.error.retry",
            Response::Error {
                id: 1,
                error: "queue full".into(),
                retry_after_ms: Some(50),
            },
        ),
        (
            "response.error",
            Response::Error {
                id: 0,
                error: "bad request: JSON error at byte 3: expected `,` or `}`".into(),
                retry_after_ms: None,
            },
        ),
        (
            "response.compile",
            Response::Compile {
                id: 3,
                key: "00ff00ff00ff00ff".into(),
                cached: true,
                ir: "int main(int n)\n{\n  return n;\n}\n".into(),
                report: pipeline_report().to_json(),
            },
        ),
        (
            "response.run",
            Response::Run {
                id: 4,
                key: "0123456789abcdef".into(),
                cached: false,
                ret: "5".into(),
                time_ns: 123_456,
                stats: "read-data 3 | write-data 1".into(),
                output: vec!["a".into(), "b\nc".into(), String::new()],
            },
        ),
        (
            "response.pgo",
            Response::Pgo {
                id: 5,
                sites: 12,
                merged_sites: 40,
                invalidated: 2,
                ret: "6".into(),
            },
        ),
        (
            "response.lint",
            Response::Lint {
                id: 6,
                independent: false,
                diagnostics: diag::to_json_array(&[diagnostic(true), diagnostic(false)]),
            },
        ),
        (
            "response.stats",
            Response::Stats {
                id: 7,
                stats: Box::new(server_stats(true)),
            },
        ),
        ("response.ok", Response::Ok { id: 8 }),
    ]
}

fn pipeline_report() -> PipelineReport {
    let cache = |base: u64| CacheStats {
        hits: base,
        misses: base + 1,
        function_recomputes: base + 2,
        invalidations: base + 3,
        escalations: base + 4,
    };
    PipelineReport {
        passes: vec![
            PassReport {
                name: "locality",
                wall: Duration::from_nanos(1_500),
                cache: cache(0),
                counters: vec![],
                diagnostics: vec![],
            },
            PassReport {
                name: "optimize",
                wall: Duration::from_nanos(2_000_000_001),
                cache: cache(10),
                counters: vec![("moved", 3), ("blocked", 0)],
                diagnostics: vec![diagnostic(true)],
            },
        ],
        cache: cache(20),
    }
}

fn profile() -> Profile {
    let mut p = Profile::new();
    let site = |s: &str| SiteId::parse(s).expect("valid site id");
    p.record(
        site("f0:1.2"),
        SiteCounters {
            execs: 3,
            bytes: 24,
            stall_ns: 0,
            taken: 2,
            not_taken: 1,
        },
    );
    p.record(
        site("f1:"),
        SiteCounters {
            execs: 1 << 40,
            bytes: 0,
            stall_ns: 7,
            taken: 0,
            not_taken: 0,
        },
    );
    p
}

fn encodings() -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = Vec::new();
    for (name, r) in requests() {
        out.push((name.into(), r.to_json()));
    }
    for (name, r) in responses() {
        out.push((name.into(), r.to_json()));
    }
    out.push(("stats.cluster".into(), server_stats(true).to_json()));
    out.push(("stats.no_cluster".into(), server_stats(false).to_json()));
    out.push(("stats.default".into(), ServerStats::default().to_json()));
    out.push(("diagnostic.func".into(), diagnostic(true).to_json()));
    out.push(("diagnostic.no_func".into(), diagnostic(false).to_json()));
    out.push((
        "diagnostic.array".into(),
        diag::to_json_array(&[diagnostic(true), diagnostic(false)]),
    ));
    out.push(("diagnostic.array.empty".into(), diag::to_json_array(&[])));
    out.push(("profile".into(), profile().to_json()));
    out.push(("profile.canonical".into(), profile().canonical().to_json()));
    out.push(("profile.empty".into(), Profile::new().to_json()));
    out.push(("pipeline_report".into(), pipeline_report().to_json()));
    out.push((
        "pipeline_report.empty".into(),
        PipelineReport::default().to_json(),
    ));
    let artifact: Artifact<()> = Artifact {
        source: SOURCE.into(),
        opts: CompileOptions {
            optimize: false,
            locality: true,
            use_profile: false,
        },
        ir: "int main(int n)\n{ ... }\n".into(),
        report: pipeline_report().to_json(),
        exec: Some(()),
    };
    out.push(("artifact.spill".into(), artifact.to_spill_json()));
    out.push(("snapshot_inputs".into(), snapshot_inputs()));
    out
}

/// The persisted snapshot inputs, as `PipelineBackend` writes them under
/// its spill directory.
fn snapshot_inputs() -> String {
    let dir = std::env::temp_dir().join(format!("earthc-json-golden-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let opts = CompileOptions {
        optimize: true,
        locality: false,
        use_profile: false,
    };
    PipelineBackend::with_spill(&dir)
        .compile(SOURCE, &opts)
        .expect("golden source compiles");
    let files: Vec<_> = std::fs::read_dir(dir.join("snapshots"))
        .expect("snapshot directory written")
        .map(|e| e.expect("dir entry").path())
        .collect();
    assert_eq!(files.len(), 1, "{files:?}");
    let text = std::fs::read_to_string(&files[0]).expect("snapshot file");
    let _ = std::fs::remove_dir_all(&dir);
    text
}

fn show<T, E: std::fmt::Display>(r: Result<T, E>, enc: impl Fn(&T) -> String) -> String {
    match r {
        Ok(v) => format!("ok {}", enc(&v)),
        Err(e) => format!("err {e}"),
    }
}

const OPTS: &str = r##""opts":{"optimize":true,"locality":true,"use_profile":false}"##;

fn request_inputs() -> Vec<(&'static str, String)> {
    let run = |extra: &str| format!(r##"{{"v":1,"id":9,"cmd":"run","source":"s",{OPTS}{extra}}}"##);
    vec![
        ("wrong_v", r##"{"v":2,"id":1,"cmd":"ping"}"##.into()),
        ("missing_v", r##"{"id":1,"cmd":"ping"}"##.into()),
        ("missing_id", r##"{"v":1,"cmd":"ping"}"##.into()),
        ("negative_id", r##"{"v":1,"id":-1,"cmd":"ping"}"##.into()),
        ("unknown_cmd", r##"{"v":1,"id":1,"cmd":"frob"}"##.into()),
        ("missing_cmd", r##"{"v":1,"id":1}"##.into()),
        (
            "missing_opts",
            r##"{"v":1,"id":1,"cmd":"compile","source":"s"}"##.into(),
        ),
        (
            "opts_not_object",
            r##"{"v":1,"id":1,"cmd":"compile","source":"s","opts":3}"##.into(),
        ),
        (
            "opts_missing_field",
            r##"{"v":1,"id":1,"cmd":"compile","source":"s","opts":{"optimize":true}}"##.into(),
        ),
        (
            "missing_source",
            format!(r##"{{"v":1,"id":1,"cmd":"compile",{OPTS}}}"##),
        ),
        ("run_defaults", run("")),
        (
            "run_null_defaults",
            run(r##","entry":null,"nodes":null,"args":null"##),
        ),
        ("nodes_70000", run(r##","nodes":70000"##)),
        ("nodes_string", run(r##","nodes":"2""##)),
        ("entry_number", run(r##","entry":3"##)),
        ("args_strings", run(r##","args":["x"]"##)),
        ("args_not_array", run(r##","args":3"##)),
        (
            "deadline_null",
            r##"{"v":1,"id":1,"cmd":"ping","deadline_ms":null}"##.into(),
        ),
        (
            "deadline_string",
            r##"{"v":1,"id":1,"cmd":"ping","deadline_ms":"5"}"##.into(),
        ),
        (
            "fwd_not_bool",
            r##"{"v":1,"id":1,"cmd":"ping","fwd":"yes"}"##.into(),
        ),
        ("not_object", "[1]".into()),
        ("truncated", r##"{"v":1,"id":"##.into()),
    ]
}

fn stats_line(stats: &str) -> String {
    format!(r##"{{"id":1,"ok":true,"kind":"stats","stats":{stats}}}"##)
}

fn response_inputs() -> Vec<(&'static str, String)> {
    let stats = server_stats(false).to_json();
    let hist = r##"{"count":0,"total_ns":0,"buckets":[0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0]}"##;
    vec![
        ("missing_ok", r##"{"id":1}"##.into()),
        ("unknown_kind", r##"{"id":1,"ok":true,"kind":"frob"}"##.into()),
        (
            "error_retry_null",
            r##"{"id":1,"ok":false,"error":"e","retry_after_ms":null}"##.into(),
        ),
        (
            "error_retry_string",
            r##"{"id":1,"ok":false,"error":"e","retry_after_ms":"5"}"##.into(),
        ),
        (
            "compile_missing_report",
            r##"{"id":1,"ok":true,"kind":"compile","key":"k","cached":false,"ir":"i"}"##.into(),
        ),
        (
            "compile_report_reformatted",
            r##"{"id":1,"ok":true,"kind":"compile","key":"k","cached":false,"ir":"i","report": { "a" : [1, 2.5, null] }}"##.into(),
        ),
        (
            "run_output_number",
            r##"{"id":1,"ok":true,"kind":"run","key":"k","cached":false,"ret":"1","time_ns":2,"stats":"s","output":["a",3]}"##.into(),
        ),
        (
            "lint_missing_diagnostics",
            r##"{"id":1,"ok":true,"kind":"lint","independent":true}"##.into(),
        ),
        (
            "stats_missing",
            r##"{"id":1,"ok":true,"kind":"stats"}"##.into(),
        ),
        ("stats_not_object", stats_line("[]")),
        (
            "stats_wrong_bucket_count",
            stats_line(&stats.replace(
                r##""pass_walls":{"locality":{"count":0,"total_ns":0,"buckets":[0,"##,
                r##""pass_walls":{"locality":{"count":0,"total_ns":0,"buckets":["##,
            )),
        ),
        (
            "stats_bucket_negative",
            stats_line(&stats.replace(
                r##""pass_walls":{"locality":{"count":0,"total_ns":0,"buckets":[0,"##,
                r##""pass_walls":{"locality":{"count":0,"total_ns":0,"buckets":[-1,"##,
            )),
        ),
        (
            "stats_missing_requests",
            stats_line(&stats.replace(r##""requests":{"compile":10,"ping":1,"run":3},"##, "")),
        ),
        (
            "stats_requests_unsorted",
            stats_line(&stats.replace(
                r##""requests":{"compile":10,"ping":1,"run":3}"##,
                r##""requests":{"run":3,"compile":10,"ping":1}"##,
            )),
        ),
        (
            "stats_request_count_string",
            stats_line(&stats.replace(r##""ping":1"##, r##""ping":"1""##)),
        ),
        (
            "stats_cluster_null",
            stats_line(&format!("{},\"cluster\":null}}", &stats[..stats.len() - 1])),
        ),
        (
            "stats_missing_cache",
            stats_line(&format!(
                r##"{{"uptime_ms":0,"toolchain":"t","workers":0,"queue_depth":0,"queue_capacity":0,"rejected":0,"deadline_misses":0,"errors":0,"analyses":0,"functions_reused":0,"functions_reoptimized":0,"escalations":0,"open_connections":0,"idle_closed":0,"batched_requests":0,"coalesced_hits":0,"requests":{{}},"pass_walls":{{"p":{hist}}}}}"##
            )),
        ),
        (
            "stats_histogram_not_object",
            stats_line(&stats.replace(
                &format!(r##""locality":{hist}"##),
                r##""locality":7"##,
            )),
        ),
    ]
}

fn diagnostic_inputs() -> Vec<(&'static str, String)> {
    let d = |extra: &str| {
        format!(
            r##"{{"code":"X1","severity":"error","message":"m","labels":[],"notes":[]{extra}}}"##
        )
    };
    vec![
        ("func_absent", d("")),
        ("func_null", d(r##","func":null"##)),
        ("func_number", d(r##","func":3"##)),
        (
            "unknown_severity",
            r##"{"code":"X1","severity":"fatal","message":"m","labels":[],"notes":[]}"##.into(),
        ),
        (
            "note_number",
            r##"{"code":"X1","severity":"note","message":"m","labels":[],"notes":["a",1]}"##.into(),
        ),
        (
            "label_not_object",
            r##"{"code":"X1","severity":"note","message":"m","labels":[3],"notes":[]}"##.into(),
        ),
        (
            "label_too_big",
            r##"{"code":"X1","severity":"note","message":"m","labels":[{"label":4294967296,"message":"x"}],"notes":[]}"##.into(),
        ),
        (
            "missing_labels",
            r##"{"code":"X1","severity":"note","message":"m","notes":[]}"##.into(),
        ),
        ("code_number", r##"{"code":3}"##.into()),
    ]
}

fn profile_inputs() -> Vec<(&'static str, String)> {
    vec![
        ("empty_object", "{}".into()),
        ("wrong_version", r##"{"version":2,"sites":{}}"##.into()),
        ("version_string", r##"{"version":"1","sites":{}}"##.into()),
        ("only_version", r##"{"version":1}"##.into()),
        (
            "unknown_key",
            r##"{"version":1,"sites":{},"extra":0}"##.into(),
        ),
        (
            "unknown_counter",
            r##"{"version":1,"sites":{"f0:":{"mystery":3}}}"##.into(),
        ),
        (
            "counter_string",
            r##"{"version":1,"sites":{"f0:":{"execs":"3"}}}"##.into(),
        ),
        (
            "invalid_site",
            r##"{"version":1,"sites":{"nope":{}}}"##.into(),
        ),
        ("sites_array", r##"{"version":1,"sites":[]}"##.into()),
        (
            "counters_not_object",
            r##"{"version":1,"sites":{"f0:":3}}"##.into(),
        ),
        (
            "reordered_with_space",
            r##"{ "sites" : { "f0:1" : { "taken" : 2 , "execs" : 1 } } , "version" : 1 }"##.into(),
        ),
        (
            "duplicate_sites_merge",
            r##"{"version":1,"sites":{"f0:1":{"execs":1},"f0:1":{"execs":2,"bytes":8}}}"##.into(),
        ),
        (
            "duplicate_counter_last_wins",
            r##"{"version":1,"sites":{"f0:1":{"execs":1,"execs":5}}}"##.into(),
        ),
        ("trailing", r##"{"version":1,"sites":{}}x"##.into()),
    ]
}

fn decodings() -> Vec<(String, String)> {
    let mut out = Vec::new();
    for (name, src) in request_inputs() {
        let r = Request::from_json(&src);
        out.push((
            format!("decode.request.{name}"),
            show(r, |r| format!("{r:?}")),
        ));
    }
    for (name, src) in response_inputs() {
        let r = Response::from_json(&src);
        out.push((
            format!("decode.response.{name}"),
            show(r, Response::to_json),
        ));
    }
    for (name, src) in diagnostic_inputs() {
        let r = Diagnostic::from_json(&src);
        out.push((
            format!("decode.diagnostic.{name}"),
            show(r, Diagnostic::to_json),
        ));
    }
    for (name, src) in [
        ("object", "{}"),
        ("empty", "[]"),
        ("bad_entry", r##"[{"code":3}]"##),
    ] {
        let r = diag::from_json_array(src);
        out.push((
            format!("decode.diagnostic_array.{name}"),
            show(r, |ds| diag::to_json_array(ds)),
        ));
    }
    for (name, src) in profile_inputs() {
        let r = Profile::from_json(&src);
        out.push((format!("decode.profile.{name}"), show(r, Profile::to_json)));
    }
    for (name, src) in [
        (
            "missing_ir",
            r##"{"source":"s","optimize":true,"locality":true,"use_profile":false,"report":{}}"##,
        ),
        (
            "report_missing",
            r##"{"source":"s","optimize":true,"locality":true,"use_profile":false,"ir":"i"}"##,
        ),
        (
            "ok",
            r##"{"source":"s","optimize":true,"locality":false,"use_profile":true,"ir":"i","report":{"x": [ 1 ]}}"##,
        ),
    ] {
        let r = Artifact::<()>::from_spill_json(src).ok_or("rejected");
        out.push((
            format!("decode.artifact.{name}"),
            show(r, Artifact::to_spill_json),
        ));
    }
    out
}

/// Decodes every encoding back and re-encodes it: the round trip must
/// reproduce the exact bytes.
#[test]
fn encodings_round_trip_byte_for_byte() {
    for (name, r) in requests() {
        let line = r.to_json();
        assert_eq!(Request::from_json(&line).unwrap(), r, "{name}");
    }
    for (name, r) in responses() {
        let line = r.to_json();
        assert_eq!(Response::from_json(&line).unwrap(), r, "{name}");
        assert_eq!(
            Response::from_json(&line).unwrap().to_json(),
            line,
            "{name}"
        );
    }
    for cluster in [false, true] {
        let s = server_stats(cluster);
        assert_eq!(ServerStats::from_json(&s.to_json()).unwrap(), s);
    }
    let p = profile();
    assert_eq!(Profile::from_json(&p.to_json()).unwrap(), p);
}

#[test]
fn encodings_and_errors_match_golden() {
    let mut actual = String::new();
    for (name, text) in encodings().into_iter().chain(decodings()) {
        assert!(!text.contains('\n'), "{name} spans lines: {text}");
        actual.push_str(&format!("{name}\t{text}\n"));
    }
    let golden = include_str!("json_golden.txt");
    for (i, (a, g)) in actual.lines().zip(golden.lines()).enumerate() {
        assert_eq!(a, g, "golden line {}", i + 1);
    }
    assert_eq!(
        actual.lines().count(),
        golden.lines().count(),
        "golden length"
    );
}
