//! The `earthd` wire protocol: newline-delimited JSON.
//!
//! One request per line, one response per line, matching the repo's
//! serde-free JSON convention ([`earth_ir::json`]). Every request
//! carries a client-chosen `id` echoed in the response, a protocol
//! version, and an optional per-request deadline. Responses are either
//! `"ok":true` with a `kind`-specific payload, or `"ok":false` with an
//! `error` string and — for backpressure rejections — a
//! `retry_after_ms` hint.
//!
//! ```text
//! → {"v":1,"id":7,"cmd":"compile","source":"int main() {...}","opts":{...}}
//! ← {"id":7,"ok":true,"kind":"compile","key":"93ab...","cached":true,...}
//! ```

use crate::stats::ServerStats;
use earth_ir::json::{
    self, Decode, Encode, Items, JsonError, Obj, ObjectExt as _, Raw, Value, With,
};

/// Wire protocol version; requests with another version are rejected.
pub const PROTOCOL_VERSION: u64 = 1;

/// Compilation options carried by `compile`/`run` requests.
///
/// These (plus the source text, the daemon's toolchain fingerprint, and
/// the accumulated profile when `use_profile` is set) determine the
/// artifact-cache key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompileOptions {
    /// Run the communication optimizer (off = the paper's "simple"
    /// build).
    pub optimize: bool,
    /// Run locality inference.
    pub locality: bool,
    /// Feed the daemon's accumulated PGO profile into the optimizer.
    pub use_profile: bool,
}

impl Default for CompileOptions {
    fn default() -> Self {
        CompileOptions {
            optimize: true,
            locality: true,
            use_profile: false,
        }
    }
}

earth_ir::json_object! {
    impl[] CompileOptions as "opts" {
        optimize: bool => "optimize",
        locality: bool => "locality",
        use_profile: bool => "use_profile",
    }
}

/// An entry-function argument.
#[derive(Debug, Clone, PartialEq)]
pub enum Arg {
    /// 64-bit integer argument.
    Int(i64),
    /// 64-bit float argument.
    Double(f64),
}

impl Encode for Arg {
    fn encode(&self, out: &mut String) {
        match self {
            Arg::Int(n) => n.encode(out),
            Arg::Double(x) => x.encode(out),
        }
    }
}

impl Decode for Arg {
    fn decode(v: &Value, _what: &str) -> Result<Self, JsonError> {
        match v {
            Value::Int(n) => Ok(Arg::Int(*n)),
            Value::UInt(n) => Ok(Arg::Double(*n as f64)),
            Value::Float(x) => Ok(Arg::Double(*x)),
            _ => Err(JsonError::shape("args must be numbers")),
        }
    }
}

/// The `args` wire form: absent or `null` is no arguments.
struct Args;

impl With<Vec<Arg>> for Args {
    fn encode(&self, v: &Vec<Arg>, out: &mut String) {
        v.encode(out);
    }

    fn decode(&self, field: Option<&Value>, key: &str) -> Result<Vec<Arg>, JsonError> {
        match field {
            None | Some(Value::Null) => Ok(Vec::new()),
            Some(v) => Vec::decode(v, key),
        }
    }
}

/// The request body, by endpoint.
#[derive(Debug, Clone, PartialEq)]
pub enum RequestKind {
    /// Compile (or fetch from the artifact cache) one source text.
    Compile {
        /// EARTH-C source text.
        source: String,
        /// Compilation options (part of the cache key).
        opts: CompileOptions,
    },
    /// Compile (cached) and simulate.
    Run {
        /// EARTH-C source text.
        source: String,
        /// Compilation options (part of the cache key).
        opts: CompileOptions,
        /// Entry function name.
        entry: String,
        /// Simulated EARTH nodes.
        nodes: u16,
        /// Entry arguments.
        args: Vec<Arg>,
    },
    /// Instrumented run; merges the measured profile into the daemon's
    /// accumulated `ProfileDb`.
    Pgo {
        /// EARTH-C source text.
        source: String,
        /// Entry function name.
        entry: String,
        /// Simulated EARTH nodes.
        nodes: u16,
        /// Entry arguments.
        args: Vec<Arg>,
    },
    /// Parallel-soundness lint.
    Lint {
        /// EARTH-C source text.
        source: String,
    },
    /// Observability snapshot.
    Stats,
    /// Liveness check.
    Ping,
    /// Graceful daemon shutdown.
    Shutdown,
}

earth_ir::json_object! {
    enum RequestKind as endpoint {
        Compile = "compile" {
            source: String => "source",
            opts: CompileOptions => "opts",
        },
        Run = "run" {
            source: String => "source",
            opts: CompileOptions => "opts",
            entry: String => "entry" [or "main".into()],
            nodes: u16 => "nodes" [or 1],
            args: Vec<Arg> => "args" [with Args],
        },
        Pgo = "pgo" {
            source: String => "source",
            entry: String => "entry" [or "main".into()],
            nodes: u16 => "nodes" [or 1],
            args: Vec<Arg> => "args" [with Args],
        },
        Lint = "lint" { source: String => "source" },
        Stats = "stats" {},
        Ping = "ping" {},
        Shutdown = "shutdown" {},
    }
}

/// One protocol request: id, optional deadline, body.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Client-chosen id, echoed in the response.
    pub id: u64,
    /// Per-request deadline: the daemon answers `deadline exceeded`
    /// instead of starting work this many milliseconds after receipt.
    pub deadline_ms: Option<u64>,
    /// Cluster single-hop marker: set by a daemon forwarding a request
    /// to the ring owner of its key. A daemon receiving `fwd:true`
    /// always serves the request locally, even if its own ring view
    /// disagrees — that is the single-hop guarantee (no forwarding
    /// loops when peers hold divergent ring views).
    pub fwd: bool,
    /// The endpoint payload.
    pub kind: RequestKind,
}

impl Request {
    /// Encodes to one JSON line (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut o = Obj::new()
            .u64("v", PROTOCOL_VERSION)
            .u64("id", self.id)
            .str("cmd", self.kind.endpoint());
        if let Some(d) = self.deadline_ms {
            o = o.u64("deadline_ms", d);
        }
        if self.fwd {
            o = o.bool("fwd", true);
        }
        self.kind.write_variant(o).finish()
    }

    /// Decodes one request line.
    ///
    /// # Errors
    ///
    /// Returns a [`json::JsonError`] for malformed JSON, an unknown
    /// `cmd`, or a protocol-version mismatch.
    pub fn from_json(src: &str) -> Result<Request, json::JsonError> {
        let v = json::parse(src)?;
        let obj = v.as_object("request")?;
        let version = obj.get_u64("v")?;
        if version != PROTOCOL_VERSION {
            return Err(json::JsonError::shape(format!(
                "unsupported protocol version {version} (expected {PROTOCOL_VERSION})"
            )));
        }
        let id = obj.get_u64("id")?;
        let deadline_ms = json::optional(obj, "deadline_ms", "`deadline_ms`")?;
        let fwd = matches!(obj.field("fwd"), Some(Value::Bool(true)));
        let cmd = obj.get_str("cmd")?;
        let kind = RequestKind::read_variant(&cmd, obj)?
            .ok_or_else(|| JsonError::shape(format!("unknown cmd `{cmd}`")))?;
        Ok(Request {
            id,
            deadline_ms,
            fwd,
            kind,
        })
    }
}

/// One protocol response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The request failed. `retry_after_ms` is set for backpressure
    /// rejections: the queue was full, try again after that long.
    Error {
        /// Echo of the request id (0 when the request line itself was
        /// unparseable).
        id: u64,
        /// What went wrong.
        error: String,
        /// Backpressure hint, when the failure is transient.
        retry_after_ms: Option<u64>,
    },
    /// `compile` succeeded.
    Compile {
        /// Echo of the request id.
        id: u64,
        /// Content-address of the artifact (hex).
        key: String,
        /// Whether the artifact came from the cache.
        cached: bool,
        /// Optimized IR, pretty-printed (byte-stable).
        ir: String,
        /// The cold compile's `PipelineReport` as raw JSON.
        report: String,
    },
    /// `run` succeeded.
    Run {
        /// Echo of the request id.
        id: u64,
        /// Content-address of the artifact used (hex).
        key: String,
        /// Whether the artifact came from the cache.
        cached: bool,
        /// Entry return value, rendered.
        ret: String,
        /// Virtual completion time.
        time_ns: u64,
        /// Simulator operation counts, rendered.
        stats: String,
        /// Program output lines.
        output: Vec<String>,
    },
    /// `pgo` succeeded.
    Pgo {
        /// Echo of the request id.
        id: u64,
        /// Sites measured by this instrumented run.
        sites: u64,
        /// Sites in the daemon's accumulated profile after merging.
        merged_sites: u64,
        /// Cached artifacts invalidated because the profile changed.
        invalidated: u64,
        /// Instrumented-run return value, rendered.
        ret: String,
    },
    /// `lint` succeeded.
    Lint {
        /// Echo of the request id.
        id: u64,
        /// Whether every parallel construct is provably independent.
        independent: bool,
        /// Diagnostics as a raw JSON array ([`earth_ir::diag`] format).
        diagnostics: String,
    },
    /// `stats` snapshot.
    Stats {
        /// Echo of the request id.
        id: u64,
        /// The snapshot (boxed: much larger than the other variants).
        stats: Box<ServerStats>,
    },
    /// `ping` / `shutdown` acknowledged.
    Ok {
        /// Echo of the request id.
        id: u64,
    },
}

impl Response {
    /// The echoed request id.
    pub fn id(&self) -> u64 {
        match self {
            Response::Error { id, .. }
            | Response::Compile { id, .. }
            | Response::Run { id, .. }
            | Response::Pgo { id, .. }
            | Response::Lint { id, .. }
            | Response::Stats { id, .. }
            | Response::Ok { id } => *id,
        }
    }

    /// The same response re-addressed to another request id. Used when
    /// one in-flight compile answers several coalesced requests: each
    /// follower gets the shared payload under its own id.
    #[must_use]
    pub fn with_id(mut self, new_id: u64) -> Response {
        match &mut self {
            Response::Error { id, .. }
            | Response::Compile { id, .. }
            | Response::Run { id, .. }
            | Response::Pgo { id, .. }
            | Response::Lint { id, .. }
            | Response::Stats { id, .. }
            | Response::Ok { id } => *id = new_id,
        }
        self
    }

    /// Encodes to one JSON line (no trailing newline).
    pub fn to_json(&self) -> String {
        let o = Obj::new().u64("id", self.id());
        let o = match self {
            Response::Error { .. } => o.bool("ok", false),
            _ => o.bool("ok", true).str("kind", self.kind()),
        };
        self.write_variant(o).finish()
    }

    /// Decodes one response line.
    ///
    /// # Errors
    ///
    /// Returns a [`json::JsonError`] for malformed JSON or an unknown
    /// response kind.
    pub fn from_json(src: &str) -> Result<Response, json::JsonError> {
        let v = json::parse(src)?;
        let obj = v.as_object("response")?;
        let id = obj.get_u64("id")?;
        // `Error` is the one variant written with `ok: false` and no kind.
        let ok = obj.get_bool("ok")?;
        let kind = if ok {
            obj.get_str("kind")?
        } else {
            ERROR.into()
        };
        let unknown = || JsonError::shape(format!("unknown response kind `{kind}`"));
        if ok && kind == ERROR {
            return Err(unknown());
        }
        let resp = Response::read_variant(&kind, obj)?.ok_or_else(unknown)?;
        Ok(resp.with_id(id))
    }
}

/// The tag of [`Response::Error`], which is never written as a `kind`.
const ERROR: &str = "error";

earth_ir::json_object! {
    enum Response as kind {
        Error = "error" {
            id: u64 => _,
            error: String => "error",
            retry_after_ms: Option<u64> => "retry_after_ms" [omit],
        },
        Compile = "compile" {
            id: u64 => _,
            key: String => "key",
            cached: bool => "cached",
            ir: String => "ir",
            report: String => "report" [with Raw],
        },
        Run = "run" {
            id: u64 => _,
            key: String => "key",
            cached: bool => "cached",
            ret: String => "ret",
            time_ns: u64 => "time_ns",
            stats: String => "stats",
            output: Vec<String> => "output" [with Items("output line must be a string")],
        },
        Pgo = "pgo" {
            id: u64 => _,
            sites: u64 => "sites",
            merged_sites: u64 => "merged_sites",
            invalidated: u64 => "invalidated",
            ret: String => "ret",
        },
        Lint = "lint" {
            id: u64 => _,
            independent: bool => "independent",
            diagnostics: String => "diagnostics" [with Raw],
        },
        Stats = "stats" {
            id: u64 => _,
            stats: Box<ServerStats> => "stats",
        },
        Ok = "ok" { id: u64 => _ },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip() {
        let cases = vec![
            Request {
                id: 1,
                deadline_ms: None,
                fwd: false,
                kind: RequestKind::Compile {
                    source: "int main() { return 0; }\n".into(),
                    opts: CompileOptions::default(),
                },
            },
            Request {
                id: 2,
                deadline_ms: Some(250),
                fwd: true,
                kind: RequestKind::Run {
                    source: "line1\nline2 \"quoted\"\t".into(),
                    opts: CompileOptions {
                        optimize: false,
                        locality: true,
                        use_profile: true,
                    },
                    entry: "main".into(),
                    nodes: 8,
                    args: vec![Arg::Int(-3), Arg::Double(2.5), Arg::Double(4.0)],
                },
            },
            Request {
                id: 3,
                deadline_ms: None,
                fwd: false,
                kind: RequestKind::Pgo {
                    source: "s".into(),
                    entry: "f".into(),
                    nodes: 2,
                    args: vec![],
                },
            },
            Request {
                id: 4,
                deadline_ms: None,
                fwd: false,
                kind: RequestKind::Lint { source: "s".into() },
            },
            Request {
                id: 5,
                deadline_ms: None,
                fwd: false,
                kind: RequestKind::Stats,
            },
            Request {
                id: 6,
                deadline_ms: Some(1),
                fwd: false,
                kind: RequestKind::Ping,
            },
            Request {
                id: 7,
                deadline_ms: None,
                fwd: false,
                kind: RequestKind::Shutdown,
            },
        ];
        for req in cases {
            let line = req.to_json();
            assert!(!line.contains('\n'), "{line}");
            assert_eq!(Request::from_json(&line).unwrap(), req, "{line}");
        }
    }

    #[test]
    fn responses_round_trip() {
        let cases = vec![
            Response::Error {
                id: 1,
                error: "queue full".into(),
                retry_after_ms: Some(50),
            },
            Response::Error {
                id: 2,
                error: "frontend: parse error\nat line 3".into(),
                retry_after_ms: None,
            },
            Response::Compile {
                id: 3,
                key: "00ff00ff00ff00ff".into(),
                cached: true,
                ir: "double distance(Point* p)\n{ ... }\n".into(),
                report: "{\"passes\":[],\"total_wall_ns\":0,\"cache\":{\"hits\":0,\"misses\":0,\"function_recomputes\":0,\"invalidations\":0}}".into(),
            },
            Response::Run {
                id: 4,
                key: "0123456789abcdef".into(),
                cached: false,
                ret: "5".into(),
                time_ns: 123456,
                stats: "read-data 3 | ...".into(),
                output: vec!["a".into(), "b\nc".into()],
            },
            Response::Pgo {
                id: 5,
                sites: 12,
                merged_sites: 40,
                invalidated: 2,
                ret: "6".into(),
            },
            Response::Lint {
                id: 6,
                independent: false,
                diagnostics: "[]".into(),
            },
            Response::Stats {
                id: 7,
                stats: Box::default(),
            },
            Response::Ok { id: 8 },
        ];
        for resp in cases {
            let line = resp.to_json();
            assert!(!line.contains('\n'), "{line}");
            assert_eq!(Response::from_json(&line).unwrap(), resp, "{line}");
        }
    }

    #[test]
    fn ids_round_trip_across_the_u64_range() {
        for id in [0, i64::MAX as u64, i64::MAX as u64 + 1, u64::MAX] {
            let req = Request {
                id,
                deadline_ms: Some(id),
                fwd: false,
                kind: RequestKind::Ping,
            };
            assert_eq!(Request::from_json(&req.to_json()).unwrap(), req);
            for resp in [
                Response::Ok { id },
                Response::Error {
                    id,
                    error: "e".into(),
                    retry_after_ms: Some(id),
                },
            ] {
                assert_eq!(Response::from_json(&resp.to_json()).unwrap(), resp);
            }
        }
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let line = Request {
            id: 1,
            deadline_ms: None,
            fwd: false,
            kind: RequestKind::Ping,
        }
        .to_json()
        .replace("\"v\":1", "\"v\":99");
        assert!(Request::from_json(&line).is_err());
    }

    #[test]
    fn entry_nodes_args_default() {
        let line = r#"{"v":1,"id":9,"cmd":"run","source":"s","opts":{"optimize":true,"locality":true,"use_profile":false}}"#;
        match Request::from_json(line).unwrap().kind {
            RequestKind::Run {
                entry, nodes, args, ..
            } => {
                assert_eq!(entry, "main");
                assert_eq!(nodes, 1);
                assert!(args.is_empty());
            }
            other => panic!("{other:?}"),
        }
    }
}
