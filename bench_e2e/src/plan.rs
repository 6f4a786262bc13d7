//! The base program set and the seeded request streams.
//!
//! Everything the daemon sees is derived from `--seed` before the timed
//! window: which base program each request uses, the unique function
//! names, the edit constants, and the pgo cadence. A client's stream is a
//! plain `Vec<Spec>`; the source text of a request is assembled from its
//! spec just before the request's clock starts.

use earthc::earth_olden::{self, Preset};
use earthc::earth_serve::proto::{Arg, CompileOptions, RequestKind};
use earthc::Value;

/// One program of the base set.
pub struct BaseProgram {
    pub name: String,
    pub source: String,
    pub nodes: u16,
    pub args: Vec<Arg>,
    /// The Olden kernel behind this program; `None` for `programs/*.ec`.
    pub olden: Option<earth_olden::Benchmark>,
}

fn to_args(values: &[Value]) -> Vec<Arg> {
    values
        .iter()
        .map(|v| match v {
            Value::Int(n) => Arg::Int(*n),
            Value::Double(x) => Arg::Double(*x),
            other => panic!("base-set argument {other} is not a number"),
        })
        .collect()
}

pub fn to_values(args: &[Arg]) -> Vec<Value> {
    args.iter()
        .map(|a| match a {
            Arg::Int(n) => Value::Int(*n),
            Arg::Double(x) => Value::Double(*x),
        })
        .collect()
}

/// The six Olden kernels at `Preset::Small` on 8 nodes, then the four
/// `programs/*.ec` samples with their documented node counts and
/// arguments.
pub fn base_set() -> Vec<BaseProgram> {
    let mut set: Vec<BaseProgram> = earth_olden::suite()
        .into_iter()
        .map(|b| BaseProgram {
            name: b.name.to_string(),
            source: b.source.to_string(),
            nodes: 8,
            args: to_args(&(b.args)(Preset::Small)),
            olden: Some(b),
        })
        .collect();
    let file = |name: &str, source: &str, nodes: u16, args: Vec<Arg>| BaseProgram {
        name: name.to_string(),
        source: source.to_string(),
        nodes,
        args,
        olden: None,
    };
    set.push(file(
        "count",
        include_str!("../../programs/count.ec"),
        4,
        vec![Arg::Int(30)],
    ));
    set.push(file(
        "treesum",
        include_str!("../../programs/treesum.ec"),
        8,
        vec![Arg::Int(8)],
    ));
    set.push(file(
        "orbit",
        include_str!("../../programs/orbit.ec"),
        2,
        vec![Arg::Int(8)],
    ));
    set.push(file(
        "distance",
        include_str!("../../programs/distance.ec"),
        1,
        vec![],
    ));
    set
}

/// SplitMix64: small, std-only, and fully determined by its seed.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    RunHot,
    CompileCold,
    EditLoop,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::RunHot, Workload::CompileCold, Workload::EditLoop];

    pub fn name(self) -> &'static str {
        match self {
            Workload::RunHot => "run-hot",
            Workload::CompileCold => "compile-cold",
            Workload::EditLoop => "edit-loop",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// A function appended to a base program: `int NAME(int x) { return x + K; }`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Helper {
    pub name: String,
    pub konst: i64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cmd {
    Compile,
    Run,
    Pgo,
}

/// One planned request.
#[derive(Debug, Clone)]
pub struct Spec {
    pub cmd: Cmd,
    /// Index into the base set.
    pub prog: usize,
    pub helper: Option<Helper>,
    pub use_profile: bool,
}

impl Spec {
    pub fn source(&self, base: &[BaseProgram]) -> String {
        let mut s = base[self.prog].source.clone();
        if let Some(h) = &self.helper {
            s.push_str(&format!(
                "\nint {}(int x) {{\n    return x + {};\n}}\n",
                h.name, h.konst
            ));
        }
        s
    }

    pub fn opts(&self) -> CompileOptions {
        CompileOptions {
            use_profile: self.use_profile,
            ..CompileOptions::default()
        }
    }

    pub fn kind(&self, base: &[BaseProgram]) -> RequestKind {
        let p = &base[self.prog];
        let source = self.source(base);
        match self.cmd {
            Cmd::Compile => RequestKind::Compile {
                source,
                opts: self.opts(),
            },
            Cmd::Run => RequestKind::Run {
                source,
                opts: self.opts(),
                entry: "main".into(),
                nodes: p.nodes,
                args: p.args.clone(),
            },
            Cmd::Pgo => RequestKind::Pgo {
                source,
                entry: "main".into(),
                nodes: p.nodes,
                args: p.args.clone(),
            },
        }
    }
}

/// Set-up: compile and run each base program once, in base-set order.
pub fn setup_plan(base: &[BaseProgram]) -> Vec<Spec> {
    (0..base.len())
        .flat_map(|prog| {
            [Cmd::Compile, Cmd::Run].map(|cmd| Spec {
                cmd,
                prog,
                helper: None,
                use_profile: false,
            })
        })
        .collect()
}

/// Cycles in one edit-loop session: a client edits one base program for
/// this many cycles, then moves to the next program.
pub const SESSION: usize = 8;

/// The profiling client adds a `pgo` every this many edit-loop cycles.
pub const PGO_PERIOD: usize = 8;

/// Per-client request streams of `len` requests each.
///
/// Programs are drawn in shuffled rounds (every base program once per
/// round), so each seed runs the same mix and only the order differs.
pub fn plans(
    workload: Workload,
    seed: u64,
    clients: usize,
    len: usize,
    base: &[BaseProgram],
) -> Vec<Vec<Spec>> {
    let mut root = Rng::new(seed ^ 0x6561_7274_6864);
    // edit-loop: one program order shared by the clients (each starts at
    // its own offset, so concurrent clients edit different programs), the
    // profiling client, and its pgo phase.
    let order = shuffled(&mut root, base.len());
    let profiler = root.below(clients);
    let phase = root.below(PGO_PERIOD);
    (0..clients)
        .map(|c| {
            let mut rng = Rng::new(root.next());
            let mut progs = rounds(Rng::new(rng.next()), base.len());
            match workload {
                Workload::RunHot => (0..len)
                    .map(|_| Spec {
                        cmd: Cmd::Run,
                        prog: progs.next().expect("endless"),
                        helper: None,
                        use_profile: false,
                    })
                    .collect(),
                Workload::CompileCold => (0..len)
                    .map(|_| Spec {
                        cmd: Cmd::Compile,
                        prog: progs.next().expect("endless"),
                        helper: Some(Helper {
                            name: format!("cold_{:016x}", rng.next()),
                            konst: (rng.next() % 1_000_000) as i64,
                        }),
                        use_profile: false,
                    })
                    .collect(),
                Workload::EditLoop => {
                    let start = c * base.len() / clients;
                    edit_plan(&mut rng, c, &order, start, c == profiler, phase, len)
                }
            }
        })
        .collect()
}

fn shuffled(rng: &mut Rng, n: usize) -> Vec<usize> {
    let mut v: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        v.swap(i, rng.below(i + 1));
    }
    v
}

/// An endless sequence of program indices in shuffled rounds.
fn rounds(mut rng: Rng, n: usize) -> impl Iterator<Item = usize> {
    std::iter::repeat_with(move || shuffled(&mut rng, n)).flatten()
}

/// One client's edit-loop stream: per cycle, `compile` the edited TU and
/// `run` it; on the profiling client, every `PGO_PERIOD`-th cycle also
/// `pgo` the TU and `run` it with `use_profile`. The client edits one
/// program for `SESSION` cycles, then moves to the next in `order`.
fn edit_plan(
    rng: &mut Rng,
    client: usize,
    order: &[usize],
    start: usize,
    profiler: bool,
    phase: usize,
    len: usize,
) -> Vec<Spec> {
    let mut out = Vec::with_capacity(len + 4);
    let mut cycle = 0usize;
    while out.len() < len {
        let prog = order[(start + cycle / SESSION) % order.len()];
        let helper = Helper {
            name: format!("edit_c{client}"),
            // Unique per cycle, so every compile is an artifact miss.
            konst: (cycle as i64) * 1000 + (rng.next() % 1000) as i64,
        };
        let spec = |cmd, use_profile| Spec {
            cmd,
            prog,
            helper: Some(helper.clone()),
            use_profile,
        };
        out.push(spec(Cmd::Compile, false));
        out.push(spec(Cmd::Run, false));
        if profiler && cycle % PGO_PERIOD == phase {
            out.push(spec(Cmd::Pgo, false));
            out.push(spec(Cmd::Run, true));
        }
        cycle += 1;
    }
    out.truncate(len);
    out
}
