//! Starting the daemon, set-up, and the closed-loop window.

use crate::plan::{BaseProgram, Spec};
use crate::trace::{fingerprint, Span, Tracer};
use earthc::earth_serve::client::Client;
use earthc::earth_serve::hash::{fnv1a, key_hex};
use earthc::earth_serve::proto::{Request, Response};
use earthc::earth_serve::server::{Server, ServerConfig, ServerHandle};
use earthc::earth_serve::stats::ServerStats;
use earthc::earth_serve::Backend;
use std::net::SocketAddr;
use std::sync::{Arc, Barrier};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// An in-process `earthd`: the same `Server` that `run_daemon` starts,
/// bound to a loopback port, its event loop on its own thread.
pub struct Daemon<B: Backend> {
    pub addr: SocketAddr,
    handle: ServerHandle<B>,
    thread: JoinHandle<()>,
}

impl<B: Backend> Daemon<B> {
    pub fn start(backend: B, workers: usize) -> Result<Daemon<B>, String> {
        let config = ServerConfig {
            workers,
            ..ServerConfig::default()
        };
        let server = Server::bind("127.0.0.1:0", config, backend)
            .map_err(|e| format!("cannot bind the daemon: {e}"))?;
        let addr = server.local_addr();
        let handle = server.handle();
        let thread = std::thread::Builder::new()
            .name("earthd-loop".into())
            .spawn(move || server.run())
            .map_err(|e| format!("cannot spawn the event loop: {e}"))?;
        Ok(Daemon {
            addr,
            handle,
            thread,
        })
    }

    pub fn stats(&self) -> Result<ServerStats, String> {
        let mut c = Client::connect(self.addr).map_err(|e| format!("connect: {e}"))?;
        c.stats().map_err(|e| format!("stats: {e}"))
    }

    pub fn stop(self) {
        self.handle.shutdown();
        self.thread.join().expect("event loop panicked");
    }
}

/// One completed (or failed) request.
pub struct Record {
    /// Index into the client's plan.
    pub spec: usize,
    pub lat_ns: u64,
    /// `Err` for a connection or protocol failure.
    pub resp: Result<Response, String>,
    /// Codec replays of the traced run (zero in the untraced run); see
    /// [`replay_codecs`].
    pub codec: Codec,
}

/// Request and response encode/decode times and line sizes of one
/// request.
#[derive(Default, Clone, Copy)]
pub struct Codec {
    pub req_encode_ns: u64,
    pub req_decode_ns: u64,
    pub resp_encode_ns: u64,
    pub resp_decode_ns: u64,
    pub req_bytes: u64,
    pub resp_bytes: u64,
}

fn replay_codec(id: u64, kind: earthc::earth_serve::proto::RequestKind, resp: &Response) -> Codec {
    let req = Request {
        id,
        deadline_ms: None,
        fwd: false,
        kind,
    };
    let t = Instant::now();
    let line = std::hint::black_box(req.to_json());
    let req_encode_ns = t.elapsed().as_nanos() as u64;
    let t = Instant::now();
    let back = std::hint::black_box(Request::from_json(&line));
    let req_decode_ns = t.elapsed().as_nanos() as u64;
    debug_assert!(back.is_ok());
    let t = Instant::now();
    let out = std::hint::black_box(resp.to_json());
    let resp_encode_ns = t.elapsed().as_nanos() as u64;
    let t = Instant::now();
    let _ = std::hint::black_box(Response::from_json(&out));
    let resp_decode_ns = t.elapsed().as_nanos() as u64;
    Codec {
        req_encode_ns,
        req_decode_ns,
        resp_encode_ns,
        resp_decode_ns,
        req_bytes: line.len() as u64 + 1,
        resp_bytes: out.len() as u64 + 1,
    }
}

/// A digest standing in for a long text: its FNV-1a hash and length.
pub fn digest(text: &str) -> String {
    format!("fnv1a:{}:{}", key_hex(fnv1a(text.as_bytes())), text.len())
}

/// A response with its compile IR and report replaced by digests, so a
/// window's records stay small. The report's host wall times are zeroed
/// first: they are measurements, not outputs.
pub fn compact(resp: Response) -> Response {
    match resp {
        Response::Compile {
            id,
            key,
            cached,
            ir,
            report,
        } => Response::Compile {
            id,
            key,
            cached,
            ir: digest(&ir),
            report: earthc::earth_ir::json::string(&digest(&zero_walls(&report))),
        },
        other => other,
    }
}

/// `text` with the number after every `wall_ns":` replaced by 0.
fn zero_walls(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    let mut rest = text;
    while let Some(i) = rest.find("wall_ns\":") {
        let (head, tail) = rest.split_at(i + "wall_ns\":".len());
        out.push_str(head);
        out.push('0');
        rest = tail.trim_start_matches(|c: char| c.is_ascii_digit());
    }
    out.push_str(rest);
    out
}

/// How long a client keeps sending.
#[derive(Clone, Copy)]
pub enum Stop {
    /// Until this much time has passed since the window started.
    After(Duration),
    /// Exactly this many requests (the traced replay).
    Count,
}

/// The result of one window.
pub struct Window {
    /// Per client, in send order.
    pub records: Vec<Vec<Record>>,
    pub wall: Duration,
    /// Process CPU time (all threads) spent during the window.
    pub cpu_ms: f64,
}

/// The client number set-up requests are traced under.
pub const SETUP_CLIENT: usize = 0xffff;

/// Trace ids: client `c`'s request `i` is `(c + 1) << 32 | (i + 1)`.
pub fn trace_id(client: usize, i: usize) -> u64 {
    ((client as u64 + 1) << 32) | (i as u64 + 1)
}

/// Runs one closed-loop client per plan against the daemon. With
/// `Stop::Count`, client `c` sends exactly `counts[c]` requests.
pub fn window(
    addr: SocketAddr,
    base: &[BaseProgram],
    plans: &[Vec<Spec>],
    stop: Stop,
    counts: &[usize],
    tracer: Option<&Arc<Tracer>>,
) -> Window {
    let barrier = Barrier::new(plans.len() + 1);
    let mut start = Instant::now();
    let mut cpu0 = 0.0;
    let mut records = Vec::new();
    std::thread::scope(|s| {
        let workers: Vec<_> = plans
            .iter()
            .enumerate()
            .map(|(c, plan)| {
                let barrier = &barrier;
                let tracer = tracer.cloned();
                let limit = match stop {
                    Stop::After(_) => plan.len(),
                    Stop::Count => counts[c],
                };
                std::thread::Builder::new()
                    .name(format!("client-{c}"))
                    .spawn_scoped(s, move || {
                        let client = Client::connect(addr);
                        barrier.wait();
                        let t0 = Instant::now();
                        let mut client = match client {
                            Ok(client) => client,
                            Err(e) => {
                                return vec![Record {
                                    spec: 0,
                                    lat_ns: 0,
                                    resp: Err(format!("connect: {e}")),
                                    codec: Codec::default(),
                                }]
                            }
                        };
                        let mut out = Vec::new();
                        for (i, spec) in plan.iter().enumerate().take(limit) {
                            if let Stop::After(d) = stop {
                                if t0.elapsed() >= d {
                                    break;
                                }
                            }
                            let kind = spec.kind(base);
                            if let (Some(tr), Some(fp)) = (&tracer, fingerprint(&kind)) {
                                tr.register(fp, trace_id(c, i));
                            }
                            let sent = Instant::now();
                            let resp = client.request_once(kind).map_err(|e| e.to_string());
                            let lat_ns = sent.elapsed().as_nanos() as u64;
                            // The traced run keeps whole responses for the
                            // codec replays.
                            let resp = if tracer.is_some() {
                                resp
                            } else {
                                resp.map(compact)
                            };
                            if let Some(tr) = &tracer {
                                let start = tr.at(sent);
                                tr.record(Span {
                                    trace: trace_id(c, i),
                                    name: "request",
                                    parent: "",
                                    start,
                                    end: start + lat_ns,
                                    attrs: [0; 2],
                                });
                            }
                            let failed = resp.is_err();
                            out.push(Record {
                                spec: i,
                                lat_ns,
                                resp,
                                codec: Codec::default(),
                            });
                            if failed {
                                break;
                            }
                        }
                        out
                    })
                    .expect("spawn client")
            })
            .collect();
        cpu0 = crate::report::cpu_ms();
        start = Instant::now();
        barrier.wait();
        records = workers
            .into_iter()
            .map(|w| w.join().expect("client panicked"))
            .collect();
    });
    let wall = start.elapsed();
    Window {
        records,
        wall,
        cpu_ms: crate::report::cpu_ms() - cpu0,
    }
}

/// Times the codec calls of every traced request by replaying them on
/// the same bytes after the window (so the replays do not compete with
/// the daemon for the CPU), and records them as spans placed where the
/// real calls sit in the request.
pub fn replay_codecs(win: &mut Window, base: &[BaseProgram], plans: &[Vec<Spec>], tr: &Tracer) {
    let mut starts = std::collections::HashMap::new();
    for s in tr.spans_named("request") {
        starts.insert(s.trace, (s.start, s.end));
    }
    for (c, recs) in win.records.iter_mut().enumerate() {
        for r in recs {
            let Ok(resp) = &r.resp else { continue };
            let codec = replay_codec(r.spec as u64 + 1, plans[c][r.spec].kind(base), resp);
            r.codec = codec;
            let trace = trace_id(c, r.spec);
            let Some(&(start, end)) = starts.get(&trace) else {
                continue;
            };
            let span = |name, start, end| Span {
                trace,
                name,
                parent: "request",
                start,
                end,
                attrs: [0; 2],
            };
            let enc = start + codec.req_encode_ns;
            tr.record(span("client.req_encode", start, enc));
            tr.record(span("serve.req_decode", enc, enc + codec.req_decode_ns));
            tr.record(span(
                "client.resp_decode",
                end.saturating_sub(codec.resp_decode_ns),
                end,
            ));
        }
    }
}

/// Set-up: start a daemon, then compile and run each base program once
/// from one client. Returns the daemon, the set-up time, and the
/// responses.
pub fn setup<B: Backend>(
    backend: B,
    workers: usize,
    base: &[BaseProgram],
    plan: &[Spec],
    tracer: Option<&Arc<Tracer>>,
) -> Result<(Daemon<B>, Duration, Vec<Response>), String> {
    let t0 = Instant::now();
    let daemon = Daemon::start(backend, workers)?;
    let mut client = Client::connect(daemon.addr).map_err(|e| format!("connect: {e}"))?;
    let mut out = Vec::with_capacity(plan.len());
    for (i, spec) in plan.iter().enumerate() {
        let kind = spec.kind(base);
        if let (Some(tr), Some(fp)) = (tracer, fingerprint(&kind)) {
            tr.register(fp, trace_id(SETUP_CLIENT, i));
        }
        let resp = client
            .request_once(kind)
            .map_err(|e| format!("set-up request {i}: {e}"))?;
        out.push(compact(resp));
    }
    Ok((daemon, t0.elapsed(), out))
}
