//! The traced run's span recorder and its backend.
//!
//! Spans come from this benchmark's own code, around the calls into each
//! layer's public entry points; nothing inside the program is
//! instrumented. [`TracedBackend`] makes the calls `PipelineBackend`
//! makes, in the same order and with the same arguments, timing each
//! one. Responses of the traced run are compared with the untraced run's
//! (`main.rs`), which is what shows the two backends did the same work.
//!
//! A request's spans share its trace id. The client registers the
//! request's content fingerprint before sending it; the backend claims
//! the id on the first call a worker thread makes for the request.

use crate::plan::to_values;
use earthc::earth_serve::hash::Fnv1a;
use earthc::earth_serve::proto::{Arg, CompileOptions, RequestKind};
use earthc::earth_serve::{Artifact, Backend, CompileOutput, LintOutput, PgoOutput, RunOutput};
use earthc::earth_sim::{self, NativeMachine, NativeProgram};
use earthc::{CommOptConfig, Pipeline, PipelineSnapshot, Profile, ProfileDb};
use std::cell::Cell;
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// One timed interval. Times are nanoseconds since the tracer's epoch;
/// `parent` names the enclosing span of the same trace.
#[derive(Debug, Clone)]
pub struct Span {
    pub trace: u64,
    pub name: &'static str,
    pub parent: &'static str,
    pub start: u64,
    pub end: u64,
    /// Span-specific counts (bytes, ops, sites), zero when unused.
    pub attrs: [u64; 2],
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

pub struct Tracer {
    epoch: Instant,
    pending: Mutex<HashMap<u64, VecDeque<u64>>>,
    spans: Mutex<Vec<Span>>,
}

thread_local! {
    /// The trace a worker thread is currently serving.
    static CURRENT: Cell<u64> = const { Cell::new(0) };
}

/// The fingerprint the backend can recompute from its own arguments.
pub fn fingerprint(kind: &RequestKind) -> Option<u64> {
    match kind {
        RequestKind::Compile { source, opts } | RequestKind::Run { source, opts, .. } => {
            Some(key_fp(source, opts))
        }
        RequestKind::Pgo {
            source,
            entry,
            nodes,
            args,
        } => Some(pgo_fp(source, entry, *nodes, args)),
        _ => None,
    }
}

fn key_fp(source: &str, opts: &CompileOptions) -> u64 {
    let mut h = Fnv1a::new();
    h.str_field("key").str_field(source).field(&[
        opts.optimize as u8,
        opts.locality as u8,
        opts.use_profile as u8,
    ]);
    h.finish()
}

fn pgo_fp(source: &str, entry: &str, nodes: u16, args: &[Arg]) -> u64 {
    let mut h = Fnv1a::new();
    h.str_field("pgo")
        .str_field(source)
        .str_field(entry)
        .field(&nodes.to_le_bytes())
        .str_field(&format!("{args:?}"));
    h.finish()
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            pending: Mutex::new(HashMap::new()),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Announces that request `trace` with this fingerprint is about to
    /// be sent.
    pub fn register(&self, fp: u64, trace: u64) {
        self.pending
            .lock()
            .expect("pending lock")
            .entry(fp)
            .or_default()
            .push_back(trace);
    }

    /// Binds the calling worker thread to the oldest registered request
    /// with this fingerprint (0 = none registered).
    fn claim(&self, fp: u64) {
        let id = self
            .pending
            .lock()
            .expect("pending lock")
            .get_mut(&fp)
            .and_then(VecDeque::pop_front)
            .unwrap_or(0);
        CURRENT.with(|c| c.set(id));
    }

    pub fn record(&self, span: Span) {
        self.spans.lock().expect("spans lock").push(span);
    }

    /// Records a backend-side span for the calling thread's request.
    fn backend_span(&self, name: &'static str, parent: &'static str, start: u64, attrs: [u64; 2]) {
        let end = self.now();
        self.record(Span {
            trace: CURRENT.with(Cell::get),
            name,
            parent,
            start,
            end,
            attrs,
        });
    }

    pub fn spans_named(&self, name: &str) -> Vec<Span> {
        let spans = self.spans.lock().expect("spans lock");
        spans.iter().filter(|s| s.name == name).cloned().collect()
    }

    pub fn take_spans(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("spans lock"))
    }
}

/// The traced run's executable artifact: sim bytecode plus the lazily
/// pre-decoded native program, as in the daemon's own artifact.
pub struct TracedExec {
    bytecode: earth_sim::CompiledProgram,
    native: OnceLock<NativeProgram>,
}

struct ProfileState {
    profile: Option<Profile>,
    epoch: u64,
}

/// `PipelineBackend` (native tier, no spill) with a span around every
/// layer call. `lint` is not mirrored: no workload sends it.
pub struct TracedBackend {
    tracer: Arc<Tracer>,
    toolchain: String,
    state: Mutex<ProfileState>,
    snapshots: Mutex<HashMap<u64, Arc<PipelineSnapshot>>>,
}

impl TracedBackend {
    pub fn new(tracer: Arc<Tracer>) -> TracedBackend {
        TracedBackend {
            tracer,
            toolchain: earthc::serve::PipelineBackend::new().toolchain(),
            state: Mutex::new(ProfileState {
                profile: None,
                epoch: 0,
            }),
            snapshots: Mutex::new(HashMap::new()),
        }
    }

    fn pipeline(&self, opts: &CompileOptions) -> Pipeline {
        let mut p = Pipeline::new()
            .optimizer(opts.optimize.then(CommOptConfig::default))
            .locality(opts.locality);
        if opts.use_profile {
            let st = self.state.lock().expect("profile lock");
            if let Some(profile) = &st.profile {
                p = p.profile(Some(Arc::new(ProfileDb::new(profile.clone()))));
            }
        }
        p
    }

    fn snapshot_key(&self, opts: &CompileOptions, prog: &earthc::Program) -> u64 {
        let mut h = Fnv1a::new();
        h.field(&[
            opts.optimize as u8,
            opts.locality as u8,
            opts.use_profile as u8,
        ]);
        if opts.use_profile {
            let st = self.state.lock().expect("profile lock");
            h.field(&st.epoch.to_le_bytes());
        }
        for (_, f) in prog.iter_functions() {
            h.str_field(&f.name);
        }
        h.finish()
    }

    fn key(&self, source: &str, opts: &CompileOptions) -> u64 {
        let mut h = Fnv1a::new();
        h.str_field(&self.toolchain);
        h.str_field(source);
        h.field(&[
            opts.optimize as u8,
            opts.locality as u8,
            opts.use_profile as u8,
        ]);
        if opts.optimize {
            h.str_field(&format!("{:?}", CommOptConfig::default()));
        }
        if opts.use_profile {
            let st = self.state.lock().expect("profile lock");
            if let Some(profile) = &st.profile {
                h.str_field(&profile.canonical().to_json());
            }
        }
        h.finish()
    }
}

fn on_worker() -> bool {
    std::thread::current()
        .name()
        .is_some_and(|n| n.starts_with("earthd-worker"))
}

impl Backend for TracedBackend {
    type Exec = TracedExec;

    fn toolchain(&self) -> String {
        self.toolchain.clone()
    }

    fn cache_key(&self, source: &str, opts: &CompileOptions) -> u64 {
        // The event loop also keys compiles (to coalesce them); only a
        // worker's call starts the request's backend work.
        if !on_worker() {
            return self.key(source, opts);
        }
        self.tracer.claim(key_fp(source, opts));
        let t = self.tracer.now();
        let key = self.key(source, opts);
        self.tracer
            .backend_span("serve.cache_key", "backend", t, [0; 2]);
        key
    }

    fn cache_tag(&self, opts: &CompileOptions) -> u64 {
        if !opts.use_profile {
            return 0;
        }
        let st = self.state.lock().expect("profile lock");
        if st.profile.is_some() {
            st.epoch
        } else {
            0
        }
    }

    fn compile(
        &self,
        source: &str,
        opts: &CompileOptions,
    ) -> Result<CompileOutput<TracedExec>, String> {
        let tr = &self.tracer;
        let pipeline = self.pipeline(opts);
        let t = tr.now();
        let fe = earthc::earth_frontend::compile(source);
        tr.backend_span("frontend.compile", "backend", t, [source.len() as u64, 0]);
        let mut prog = fe.map_err(|e| format!("frontend: {e}"))?;
        let snap_key = self.snapshot_key(opts, &prog);
        let prev = self
            .snapshots
            .lock()
            .expect("snapshot lock")
            .get(&snap_key)
            .cloned();
        let t = tr.now();
        let passes = pipeline.apply_passes_incremental(&mut prog, prev);
        let end = tr.now();
        let (report, snapshot, inc) = passes.map_err(|e| e.to_string())?;
        let trace = CURRENT.with(Cell::get);
        tr.record(Span {
            trace,
            name: "passes",
            parent: "backend",
            start: t,
            end,
            attrs: [report.cache.misses, inc.functions_reoptimized],
        });
        // The per-pass split, laid end to end from the report's walls.
        let mut at = t;
        for p in &report.passes {
            let d = p.wall.as_nanos() as u64;
            tr.record(Span {
                trace,
                name: pass_span(p.name),
                parent: "passes",
                start: at,
                end: at + d,
                attrs: [0; 2],
            });
            at += d;
        }
        if let Some(snapshot) = snapshot {
            self.snapshots
                .lock()
                .expect("snapshot lock")
                .insert(snap_key, snapshot);
        }
        let t = tr.now();
        let ir = earthc::earth_ir::pretty::print_program(&prog);
        tr.backend_span("ir.print", "backend", t, [ir.len() as u64, 0]);
        let t = tr.now();
        let exec = earth_sim::compile(&prog, earth_sim::CodegenOptions::default());
        tr.backend_span("sim.codegen", "backend", t, [0; 2]);
        let exec = exec.map_err(|e| format!("codegen: {e}"))?;
        let timings = report
            .passes
            .iter()
            .map(|p| (p.name.to_string(), p.wall.as_nanos() as u64))
            .collect();
        Ok(CompileOutput {
            artifact: Artifact {
                source: source.to_string(),
                opts: opts.clone(),
                ir,
                report: report.to_json(),
                exec: Some(TracedExec {
                    bytecode: exec,
                    native: OnceLock::new(),
                }),
            },
            timings,
            analyses: report.cache.misses,
            functions_reused: inc.functions_reused,
            functions_reoptimized: inc.functions_reoptimized,
            escalations: inc.escalations,
        })
    }

    fn run(
        &self,
        artifact: &Artifact<TracedExec>,
        entry: &str,
        nodes: u16,
        args: &[Arg],
    ) -> Result<RunOutput, String> {
        let tr = &self.tracer;
        // Without a spill directory every artifact keeps its executable.
        let exec = artifact
            .exec
            .as_ref()
            .ok_or("artifact has no executable form")?;
        let entry_fn = exec
            .bytecode
            .function_by_name(entry)
            .ok_or_else(|| format!("no function named `{entry}`"))?;
        let native = exec.native.get_or_init(|| {
            let t = tr.now();
            let p = NativeProgram::compile(&exec.bytecode, &earth_sim::CostModel::default());
            tr.backend_span("sim.predecode", "backend", t, [0; 2]);
            p
        });
        let mc = earth_sim::MachineConfig {
            n_nodes: nodes,
            ..Default::default()
        };
        let t = tr.now();
        let result = NativeMachine::new(mc).run(native, entry_fn, &to_values(args));
        let attrs = match &result {
            Ok(r) => [r.stats.ops, r.stats.total_comm()],
            Err(_) => [0; 2],
        };
        tr.backend_span("sim.exec", "backend", t, attrs);
        let result = result.map_err(|e| format!("simulation: {e}"))?;
        Ok(RunOutput {
            ret: result.ret.to_string(),
            time_ns: result.time_ns,
            stats: result.stats.to_string(),
            output: result.output.clone(),
        })
    }

    fn pgo(
        &self,
        source: &str,
        entry: &str,
        nodes: u16,
        args: &[Arg],
    ) -> Result<PgoOutput, String> {
        let tr = &self.tracer;
        tr.claim(pgo_fp(source, entry, nodes, args));
        let pipeline = Pipeline::new().nodes(nodes).entry(entry);
        let t = tr.now();
        let instrumented = pipeline.instrument_source(source, &to_values(args));
        let sites = instrumented.as_ref().map_or(0, |(_, p)| p.len() as u64);
        tr.backend_span("profile.instrument", "backend", t, [sites, 0]);
        let (result, measured) = instrumented.map_err(|e| format!("instrumented run: {e}"))?;
        let mut st = self.state.lock().expect("profile lock");
        match &mut st.profile {
            Some(acc) => {
                let t = tr.now();
                acc.merge(&measured);
                tr.backend_span("profile.merge", "backend", t, [sites, 0]);
            }
            None => st.profile = Some(measured),
        }
        st.epoch += 1;
        let merged_sites = st.profile.as_ref().map(Profile::len).unwrap_or(0) as u64;
        Ok(PgoOutput {
            sites,
            merged_sites,
            ret: result.ret.to_string(),
        })
    }

    fn lint(&self, _source: &str) -> Result<LintOutput, String> {
        Err("lint is not part of the benchmark".into())
    }
}

/// Span name for a pass of the `PipelineReport`.
fn pass_span(pass: &str) -> &'static str {
    match pass {
        "locality" => "passes.locality",
        "optimize" | "optimize-incremental" | "pgo-optimize" => "passes.optimize",
        "validate-ir" => "passes.validate_ir",
        _ => "passes.other",
    }
}

/// Writes spans as a JSON array, one object per span.
pub fn spans_json(spans: &[Span]) -> String {
    use earthc::earth_ir::json::Obj;
    let mut s = String::from("[\n");
    for (i, sp) in spans.iter().enumerate() {
        if i > 0 {
            s.push_str(",\n");
        }
        s.push_str(
            &Obj::new()
                .u64("trace", sp.trace)
                .str("name", sp.name)
                .str("parent", sp.parent)
                .u64("start_ns", sp.start)
                .u64("end_ns", sp.end)
                .u64("a0", sp.attrs[0])
                .u64("a1", sp.attrs[1])
                .finish(),
        );
    }
    s.push_str("\n]\n");
    s
}
