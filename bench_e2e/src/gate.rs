//! The output-correctness gate, run after the timed window.
//!
//! - Every `run` return value equals the reference: the Olden kernel's
//!   `Build::Sequential` result, or for `programs/*.ec` a 1-node run of
//!   the unoptimized build on the reference interpreter.
//! - Every `run`'s virtual time, stats and output equal an in-process
//!   `ExecBackend::Interp` run of a scratch compile of the same source.
//! - Every `compile` IR equals a scratch, non-incremental
//!   `Pipeline::apply_passes` build.
//! - Every `pgo` return value equals the reference, and its site counts
//!   equal a scratch instrumented run and the merged profile.
//!
//! A scratch compile of a `use_profile` request uses the profile the
//! daemon held at that point: the merge of every earlier `pgo` of the
//! stream (only one client profiles, so that order is fixed).

use crate::drive::digest;
use crate::plan::{to_values, BaseProgram, Cmd, Spec};
use earthc::earth_olden::{self, Build, Preset};
use earthc::earth_serve::proto::{CompileOptions, Response};
use earthc::earth_sim::{self, Machine, MachineConfig};
use earthc::{CommOptConfig, ExecBackend, Pipeline, Profile, ProfileDb};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Reference return value of each base program.
pub fn reference_rets(base: &[BaseProgram]) -> Vec<String> {
    base.iter()
        .map(|p| match &p.olden {
            Some(b) => earth_olden::run(b, &Build::Sequential, Preset::Small, 1)
                .map(|r| r.ret.to_string())
                .unwrap_or_else(|e| format!("<reference failed: {e}>")),
            None => Pipeline::new()
                .optimizer(None)
                .nodes(1)
                .backend(ExecBackend::Interp)
                .run_source(&p.source, &to_values(&p.args))
                .map(|r| r.ret.to_string())
                .unwrap_or_else(|e| format!("<reference failed: {e}>")),
        })
        .collect()
}

/// The observable part of an interpreter run.
struct RunOut {
    time_ns: u64,
    stats: String,
    output: Vec<String>,
}

/// What a scratch build of one `(source, opts, profile)` produced.
struct Scratch {
    ir: Result<String, String>,
    /// The interpreter run, for builds that some `run` executed.
    run: Option<Result<RunOut, String>>,
}

struct Job {
    source: String,
    opts: CompileOptions,
    profile: Option<Arc<Profile>>,
    /// The base program (for nodes and arguments) when a `run` needs
    /// the result.
    run: Option<usize>,
}

fn scratch(job: &Job, base: &[BaseProgram]) -> Scratch {
    let mut pipeline = Pipeline::new()
        .optimizer(job.opts.optimize.then(CommOptConfig::default))
        .locality(job.opts.locality);
    if let Some(p) = &job.profile {
        pipeline = pipeline.profile(Some(Arc::new(ProfileDb::new((**p).clone()))));
    }
    let built = earthc::earth_frontend::compile(&job.source)
        .map_err(|e| format!("frontend: {e}"))
        .and_then(|mut prog| {
            pipeline
                .apply_passes(&mut prog)
                .map_err(|e| e.to_string())?;
            Ok(prog)
        });
    let prog = match built {
        Ok(prog) => prog,
        Err(e) => {
            return Scratch {
                ir: Err(e.clone()),
                run: job.run.map(|_| Err(e)),
            }
        }
    };
    let ir = earthc::earth_ir::pretty::print_program(&prog);
    let run = job.run.map(|prog_idx| {
        let p = &base[prog_idx];
        let compiled = earth_sim::compile(&prog, earth_sim::CodegenOptions::default())
            .map_err(|e| format!("codegen: {e}"))?;
        let entry = compiled.function_by_name("main").ok_or("no main")?;
        let r = Machine::new(MachineConfig::with_nodes(p.nodes))
            .run(&compiled, entry, &to_values(&p.args))
            .map_err(|e| format!("simulation: {e}"))?;
        Ok(RunOut {
            time_ns: r.time_ns,
            stats: r.stats.to_string(),
            output: r.output,
        })
    });
    Scratch { ir: Ok(ir), run }
}

/// One request stream to check: its specs and responses (in
/// [`compact`](crate::drive::compact) form), in order.
pub struct Stream<'a> {
    pub label: String,
    pub items: Vec<(&'a Spec, &'a Response)>,
}

/// One failed check: `streams[stream].items[item]` and what was wrong.
pub struct Mismatch {
    pub stream: usize,
    pub item: usize,
    pub msg: String,
}

/// Checks every response; returns the mismatches.
pub fn check(
    base: &[BaseProgram],
    rets: &[String],
    streams: &[Stream<'_>],
    threads: usize,
) -> Vec<Mismatch> {
    // Pass 1: fix the profile each request saw, and collect the distinct
    // scratch builds.
    let mut jobs: Vec<Job> = Vec::new();
    let mut index: HashMap<(String, bool, usize), usize> = HashMap::new();
    let mut profile: Option<Arc<Profile>> = None;
    let mut epoch = 0usize;
    let mut pgo_refs: Vec<Result<(String, u64, u64), String>> = Vec::new();
    let mut plan: Vec<Vec<usize>> = Vec::new();
    for s in streams {
        let mut slots = Vec::with_capacity(s.items.len());
        for (spec, _) in &s.items {
            if spec.cmd == Cmd::Pgo {
                let p = &base[spec.prog];
                let r = Pipeline::new()
                    .nodes(p.nodes)
                    .entry("main")
                    .instrument_source(&spec.source(base), &to_values(&p.args));
                match r {
                    Ok((result, measured)) => {
                        let sites = measured.len() as u64;
                        let mut acc = profile.as_deref().cloned().unwrap_or_default();
                        acc.merge(&measured);
                        let merged = acc.len() as u64;
                        profile = Some(Arc::new(acc));
                        epoch += 1;
                        pgo_refs.push(Ok((result.ret.to_string(), sites, merged)));
                    }
                    Err(e) => pgo_refs.push(Err(e.to_string())),
                }
                slots.push(pgo_refs.len() - 1);
                continue;
            }
            let opts = spec.opts();
            let prof_epoch = if opts.use_profile && profile.is_some() {
                epoch
            } else {
                0
            };
            let key = (spec.source(base), opts.use_profile, prof_epoch);
            let j = *index.entry(key).or_insert_with_key(|k| {
                jobs.push(Job {
                    source: k.0.clone(),
                    opts: opts.clone(),
                    profile: if prof_epoch > 0 {
                        profile.clone()
                    } else {
                        None
                    },
                    run: None,
                });
                jobs.len() - 1
            });
            if spec.cmd == Cmd::Run {
                jobs[j].run = Some(spec.prog);
            }
            slots.push(j);
        }
        plan.push(slots);
    }

    // Pass 2: the scratch builds, spread over `threads`.
    let next = Mutex::new(0usize);
    let results: Vec<Mutex<Option<Scratch>>> = jobs.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for _ in 0..threads.max(1) {
            s.spawn(|| loop {
                let j = {
                    let mut n = next.lock().expect("job counter");
                    let j = *n;
                    *n += 1;
                    j
                };
                let Some(job) = jobs.get(j) else { break };
                *results[j].lock().expect("result slot") = Some(scratch(job, base));
            });
        }
    });
    let results: Vec<Scratch> = results
        .into_iter()
        .map(|m| m.into_inner().expect("result slot").expect("job ran"))
        .collect();

    // Pass 3: compare.
    let mut bad = Vec::new();
    for (si, (s, slots)) in streams.iter().zip(&plan).enumerate() {
        for (i, ((spec, resp), slot)) in s.items.iter().zip(slots).enumerate() {
            let mut why = Vec::new();
            let at = format!("{} #{i} ({:?} {})", s.label, spec.cmd, base[spec.prog].name);
            let slot = *slot;
            let want_ret = &rets[spec.prog];
            match (spec.cmd, resp) {
                (Cmd::Compile, Response::Compile { ir, .. }) => match &results[slot].ir {
                    Ok(want) if digest(want) == *ir => {}
                    Ok(_) => why.push(format!("{at}: IR differs from a scratch build")),
                    Err(e) => why.push(format!("{at}: scratch build failed: {e}")),
                },
                (
                    Cmd::Run,
                    Response::Run {
                        ret,
                        time_ns,
                        stats,
                        output,
                        ..
                    },
                ) => {
                    if ret != want_ret {
                        why.push(format!("{at}: ret {ret} != reference {want_ret}"));
                    }
                    match &results[slot].run {
                        Some(Ok(want))
                            if want.time_ns == *time_ns
                                && want.stats == *stats
                                && want.output == *output => {}
                        Some(Ok(want)) => why.push(format!(
                            "{at}: time {time_ns} / stats `{stats}` != interpreter {} / `{}`",
                            want.time_ns, want.stats
                        )),
                        Some(Err(e)) => why.push(format!("{at}: scratch run failed: {e}")),
                        None => why.push(format!("{at}: no scratch run")),
                    }
                }
                (
                    Cmd::Pgo,
                    Response::Pgo {
                        sites,
                        merged_sites,
                        ret,
                        ..
                    },
                ) => match &pgo_refs[slot] {
                    Ok((r, s, m)) if r == ret && r == want_ret && s == sites && m == merged_sites => {}
                    Ok((r, s, m)) => why.push(format!(
                        "{at}: pgo ret/sites/merged {ret}/{sites}/{merged_sites} != {r}/{s}/{m} (reference ret {want_ret})"
                    )),
                    Err(e) => why.push(format!("{at}: scratch instrumented run failed: {e}")),
                },
                (_, Response::Error { error, .. }) => why.push(format!("{at}: error `{error}`")),
                (_, other) => why.push(format!("{at}: unexpected response {other:?}")),
            }
            bad.extend(why.into_iter().map(|msg| Mismatch {
                stream: si,
                item: i,
                msg,
            }));
        }
    }
    bad
}
