//! Golden fence for the communication optimizer: pins what placement,
//! selection and the pass pipeline make of every corpus source, so a change
//! to how the optimizer computes must leave its output byte for byte.
//!
//! The corpus is the one `frontend_golden.rs` pins: `programs/*.ec`, the
//! Olden kernels and every one-`#` raw string under `tests/` that compiles.
//! Each source is optimized under three configurations (the static default,
//! `--alias prob` and `--escape on`), and each run is pinned by FNV digests
//! of:
//!
//! * `ir` — the optimized program of `Pipeline::apply_passes`, printed;
//! * `motion` — every function's rendered `MotionLog`, in `FuncId` order;
//! * `stats` — the summed `SelectionStats`;
//! * `placement` — per function and per label (in label order) the
//!   `RemoteReads` and `RemoteWrites` tuples (base, field, frequency,
//!   labels, value variables, speculative flag) and the variables whose
//!   dereference is guaranteed before the statement;
//! * `report` — the pass reports of `apply_passes` and of a cold
//!   `apply_passes_incremental`: pass names, cache counters and pass
//!   counters, with walls left out. The optimizer's `workers` counter (an
//!   echo of the fan-out setting, not an output) is left out as well.
//!
//! Entries are keyed by the digest of the source text and the mode. On a
//! mismatch the test prints the freshly computed table.

use earthc::earth_analysis::{self, EscapeAnalysis, ProbFacts};
use earthc::earth_commopt::{
    analyze_placement_with, optimize_program, AliasMode, CommSet, EscapeMode,
};
use earthc::earth_frontend::compile;
use earthc::earth_ir::fnv::fnv1a;
use earthc::earth_ir::pretty::print_program;
use earthc::earth_ir::{FuncId, Program};
use earthc::{CommOptConfig, Pipeline, PipelineReport};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::Path;

/// The one-`#` raw-string literals in a Rust file that are not `format!`
/// templates (the same rule as `frontend_golden.rs`).
fn embedded_sources(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut rest = text;
    let open = concat!("r", "#", "\"");
    let close = concat!("\"", "#");
    while let Some(start) = rest.find(open) {
        let body = &rest[start + 3..];
        let Some(end) = body.find(close) else { break };
        let src = &body[..end];
        if !src.contains("{{") {
            out.push(src.to_string());
        }
        rest = &body[end + 2..];
    }
    out
}

fn corpus(root: &Path) -> Vec<(String, String)> {
    let mut out = Vec::new();
    let mut programs: Vec<_> = std::fs::read_dir(root.join("programs"))
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "ec"))
        .collect();
    programs.sort();
    for p in programs {
        let label = format!("programs/{}", p.file_name().unwrap().to_string_lossy());
        out.push((label, std::fs::read_to_string(&p).unwrap()));
    }
    for b in earthc::earth_olden::suite() {
        out.push((format!("olden:{}", b.name), b.source.to_string()));
    }
    let mut files: Vec<_> = std::fs::read_dir(root.join("tests"))
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "rs"))
        .collect();
    files.sort();
    for f in files {
        let text = std::fs::read_to_string(&f).unwrap();
        for (i, src) in embedded_sources(&text).into_iter().enumerate() {
            let label = format!("tests/{}#{i}", f.file_name().unwrap().to_string_lossy());
            out.push((label, src));
        }
    }
    out
}

fn modes() -> [(&'static str, CommOptConfig); 3] {
    [
        ("static", CommOptConfig::default()),
        (
            "prob",
            CommOptConfig {
                alias: AliasMode::Prob,
                ..CommOptConfig::default()
            },
        ),
        (
            "escape",
            CommOptConfig {
                escape: EscapeMode::On,
                ..CommOptConfig::default()
            },
        ),
    ]
}

fn digest(text: &str) -> String {
    format!("{:016x}", fnv1a(text.as_bytes()))
}

fn render_report(report: &PipelineReport, out: &mut String) {
    for p in &report.passes {
        let c = &p.cache;
        let _ = write!(
            out,
            "{} cache={}/{}/{}/{}/{} diags={}",
            p.name,
            c.hits,
            c.misses,
            c.function_recomputes,
            c.invalidations,
            c.escalations,
            p.diagnostics.len()
        );
        for (name, value) in &p.counters {
            if *name != "workers" {
                let _ = write!(out, " {name}={value}");
            }
        }
        out.push('\n');
    }
    let c = &report.cache;
    let _ = writeln!(
        out,
        "total cache={}/{}/{}/{}/{}",
        c.hits, c.misses, c.function_recomputes, c.invalidations, c.escalations
    );
}

fn render_set(set: Option<&CommSet>, out: &mut String) {
    let Some(set) = set else {
        out.push_str(" none");
        return;
    };
    for t in set.iter() {
        let _ = write!(out, " ({}~>{} {:?} [", t.base, t.field, t.freq);
        for l in t.labels.iter() {
            let _ = write!(out, "{l},");
        }
        out.push_str("] [");
        for v in t.value_vars.iter() {
            let _ = write!(out, "{v},");
        }
        let _ = write!(out, "] {})", t.speculative);
    }
}

/// Placement of every function of the locality-inferred `prog`, computed
/// the way the optimizer computes it (escape upgrades first, then the
/// probability facts in prob mode).
fn render_placement(prog: &Program, cfg: &CommOptConfig) -> String {
    let analysis = earth_analysis::analyze(prog);
    let escape =
        (cfg.escape == EscapeMode::On).then(|| EscapeAnalysis::compute(prog, &analysis.summaries));
    let mut out = String::new();
    for i in 0..prog.functions().len() {
        let fid = FuncId(i as u32);
        let fa = analysis.function(fid);
        let mut func = prog.function(fid).clone();
        if let Some(esc) = &escape {
            esc.apply(fid, &mut func);
        }
        let facts = (cfg.alias == AliasMode::Prob).then(|| ProbFacts::compute(&func, fa, None));
        let placement = analyze_placement_with(&func, fa, &cfg.freq, None, facts.as_ref());
        let _ = writeln!(out, "fn {}", func.name);
        let mut labels = func.body.labels();
        labels.sort();
        for l in labels {
            let _ = write!(out, "{l} reads");
            render_set(placement.reads_before.get(&l), &mut out);
            out.push_str(" writes");
            render_set(placement.writes_after.get(&l), &mut out);
            out.push_str(" must");
            for (v, _) in func.iter_vars() {
                if placement.deref_guaranteed(v, l) {
                    let _ = write!(out, " {v}");
                }
            }
            out.push('\n');
        }
    }
    out
}

/// The pinned digests of one (source, mode) run.
fn outcome(prog: &Program, cfg: &CommOptConfig) -> String {
    let pipeline = Pipeline::new().optimizer(Some(cfg.clone()));
    let mut report = String::new();
    let mut optimized = prog.clone();
    let ir = match pipeline.apply_passes(&mut optimized) {
        Ok(r) => {
            render_report(&r, &mut report);
            print_program(&optimized)
        }
        Err(e) => format!("err:{e}"),
    };
    let mut cold = prog.clone();
    match pipeline.apply_passes_incremental(&mut cold, None) {
        Ok((r, _, _)) => render_report(&r, &mut report),
        Err(e) => report.push_str(&format!("err:{e}")),
    }

    // The same pre-passes as the pipeline: locality, then the optimizer.
    let mut located = prog.clone();
    earth_analysis::infer_locality(&mut located);
    let mut direct = located.clone();
    let opt = optimize_program(&mut direct, cfg);
    let mut motion = String::new();
    for f in &opt.functions {
        let _ = writeln!(motion, "fn {}", f.func.index());
        motion.push_str(&f.motion.render());
    }
    let stats = format!("{:?}", opt.total());
    format!(
        "ir={} motion={} stats={} placement={} report={}",
        digest(&ir),
        digest(&motion),
        digest(&stats),
        digest(&render_placement(&located, cfg)),
        digest(&report)
    )
}

/// `(label, digest of the source, mode, digests)`.
const PINNED: &[(&str, &str, &str, &str)] = &[
    ("programs/count.ec", "0c2c69e5c825e544", "static", "ir=c29ef3aa633f7ca9 motion=63cbd952e5868ebb stats=1ae9634596f6a0e8 placement=c4bac00ee82d72f9 report=ef79e303c1430237"),
    ("programs/count.ec", "0c2c69e5c825e544", "prob", "ir=c29ef3aa633f7ca9 motion=63cbd952e5868ebb stats=1ae9634596f6a0e8 placement=c4bac00ee82d72f9 report=0b3a83a1ea259af7"),
    ("programs/count.ec", "0c2c69e5c825e544", "escape", "ir=572f7ba4aae5c910 motion=3448503cfc8a5408 stats=1ae9634596f6a0e8 placement=c4bac00ee82d72f9 report=a3446cafc5390f7f"),
    ("programs/distance.ec", "e09238ab6673c9c7", "static", "ir=2f613896e2a575b6 motion=1cc3081bbfad08af stats=5dd8c72e810ff55a placement=c9574336379dc57f report=7e7fd1198abd6760"),
    ("programs/distance.ec", "e09238ab6673c9c7", "prob", "ir=2f613896e2a575b6 motion=1cc3081bbfad08af stats=5dd8c72e810ff55a placement=c9574336379dc57f report=319c0feb8607d082"),
    ("programs/distance.ec", "e09238ab6673c9c7", "escape", "ir=2f613896e2a575b6 motion=1cc3081bbfad08af stats=5dd8c72e810ff55a placement=c9574336379dc57f report=561abccd015a10fe"),
    ("programs/orbit.ec", "6fd635df88fb14cf", "static", "ir=fdc12273f3b3d292 motion=f74155bbe64f0827 stats=1ae9634596f6a0e8 placement=a1829485f0dc6a64 report=3c27b2c711322320"),
    ("programs/orbit.ec", "6fd635df88fb14cf", "prob", "ir=bb6d5725d1b19a99 motion=16ffac867b455bea stats=738c269bc7b52f50 placement=a1829485f0dc6a64 report=4ae9afe51b23a852"),
    ("programs/orbit.ec", "6fd635df88fb14cf", "escape", "ir=653ba607514e1fa3 motion=1d82ad885aa27c1b stats=8f2df83409e652b4 placement=48435b8c7e152798 report=4759a223fb931776"),
    ("programs/treesum.ec", "65d3bb9101afe62b", "static", "ir=bef71c4e852bebb2 motion=028bdea22bd58086 stats=bf1f3bddcd7a8330 placement=237a1766f99d00d8 report=8469bb25c19f6309"),
    ("programs/treesum.ec", "65d3bb9101afe62b", "prob", "ir=bef71c4e852bebb2 motion=028bdea22bd58086 stats=bf1f3bddcd7a8330 placement=237a1766f99d00d8 report=052fe540d6047a7f"),
    ("programs/treesum.ec", "65d3bb9101afe62b", "escape", "ir=46d972f360730ae3 motion=00d63777a47e941f stats=8f2df83409e652b4 placement=93f34288e0c35825 report=01cb734006d43e09"),
    ("olden:power", "52d9f9f3ed31e6aa", "static", "ir=b528ab34132ef0c8 motion=152fca335359ba95 stats=2e4b4777b8d7a236 placement=8387625ebc2a50e4 report=bb6112d8be455376"),
    ("olden:power", "52d9f9f3ed31e6aa", "prob", "ir=029e6cdae35c67f8 motion=3e309d4eb48d5c0f stats=a61f3f8028ec3aae placement=8387625ebc2a50e4 report=554b214a447909c0"),
    ("olden:power", "52d9f9f3ed31e6aa", "escape", "ir=dd78e5c2336aa398 motion=0bf4c46efbcbc287 stats=2e4b4777b8d7a236 placement=3508a4fafad24aa7 report=54089634ea649892"),
    ("olden:tsp", "e515b5fde867a6cd", "static", "ir=df1f7591166fddf0 motion=637fc81ad73ab242 stats=3954cb482eccd0f1 placement=624f570a5b162c07 report=cd4c313476fccb81"),
    ("olden:tsp", "e515b5fde867a6cd", "prob", "ir=db037eff77d06455 motion=1cc7e928f18a1166 stats=6519caa5b5d43375 placement=624f570a5b162c07 report=00f7d1a42dbc54a1"),
    ("olden:tsp", "e515b5fde867a6cd", "escape", "ir=8ccb2d65d8fe0157 motion=4024f5f3cf2a3ce2 stats=f60dce1aa9bfb389 placement=2da166c49a459cf5 report=2b929e3a750b99a5"),
    ("olden:health", "69e4ebf789a4d557", "static", "ir=0bd38dd2a1fc44f4 motion=7a47d5c41f3ad469 stats=d918d0d4b4525988 placement=76ba600a1ccac2c4 report=f691fdafb98d963c"),
    ("olden:health", "69e4ebf789a4d557", "prob", "ir=1ce9ba66ed284526 motion=1f02b71863646b2a stats=8180bd24c90f75a7 placement=e87523e5d3f6fdb8 report=88645def39000c88"),
    ("olden:health", "69e4ebf789a4d557", "escape", "ir=8f0472bda784680c motion=891f44d10c795296 stats=cef3d9734ba90956 placement=54e618e01871fa5e report=72068d1412abcfd4"),
    ("olden:perimeter", "53eef46ff88739ee", "static", "ir=299412e57ba34581 motion=3ab7ada35549c9ca stats=516e20651db8c29d placement=1e599d05a484d4a0 report=75f484512bee197e"),
    ("olden:perimeter", "53eef46ff88739ee", "prob", "ir=299412e57ba34581 motion=3ab7ada35549c9ca stats=516e20651db8c29d placement=aef8fa5a3e304be3 report=93554aa1999da8b8"),
    ("olden:perimeter", "53eef46ff88739ee", "escape", "ir=d0f534a3507ceb39 motion=d6bbff3019b3987f stats=0fd99b9a3a80b5bc placement=4fa7346cf68e9253 report=8fac3e287a9e139a"),
    ("olden:voronoi", "fc0aec70cabc904b", "static", "ir=431093bdd663e60c motion=f8bd6a36649d0835 stats=6c0ba9626b84893b placement=da71adfa1462123b report=3b84bbe846940fc1"),
    ("olden:voronoi", "fc0aec70cabc904b", "prob", "ir=5008d14d5330fd58 motion=a8bd3795c1d3d7b8 stats=dc8a685fb9beda69 placement=da71adfa1462123b report=77916682422ce3d1"),
    ("olden:voronoi", "fc0aec70cabc904b", "escape", "ir=3d2190f49b2c8763 motion=a74b7cc5ac84be9e stats=7ad6f70168e9849f placement=27080cee28ea6b85 report=aa003380a0e057d3"),
    ("olden:treeadd", "2ded86faac607e49", "static", "ir=aa6463d44606f77d motion=ccbb9c76275c7616 stats=b2985aed5a0f229c placement=0b5ad47aa7a5dd22 report=339b14fd76a21875"),
    ("olden:treeadd", "2ded86faac607e49", "prob", "ir=aa6463d44606f77d motion=ccbb9c76275c7616 stats=b2985aed5a0f229c placement=0b5ad47aa7a5dd22 report=3fd0f2c6d318a235"),
    ("olden:treeadd", "2ded86faac607e49", "escape", "ir=2abdf6d0262294d0 motion=ea31dab55e2211a0 stats=8f2df83409e652b4 placement=b09538ba0f03fab0 report=440966d45f7ffb95"),
    ("tests/determinism.rs#0", "b6a704ccd6408172", "static", "ir=ab146da7bded1e99 motion=b62afdc1080106f8 stats=5dd8c72e810ff55a placement=a7baa580dad2aff3 report=41520d0df3b684bf"),
    ("tests/determinism.rs#0", "b6a704ccd6408172", "prob", "ir=ab146da7bded1e99 motion=b62afdc1080106f8 stats=5dd8c72e810ff55a placement=a7baa580dad2aff3 report=a98558e49f2f3677"),
    ("tests/determinism.rs#0", "b6a704ccd6408172", "escape", "ir=ab146da7bded1e99 motion=b62afdc1080106f8 stats=5dd8c72e810ff55a placement=a7baa580dad2aff3 report=4551d837a5ba9c61"),
    ("tests/determinism.rs#1", "be6d6ce60bf2f3af", "static", "ir=b048b4f5d3dd876e motion=5dd28b7f5f41d722 stats=493f6ffab6da7342 placement=e5c57c42e4c26024 report=c36324437a14c380"),
    ("tests/determinism.rs#1", "be6d6ce60bf2f3af", "prob", "ir=b048b4f5d3dd876e motion=5dd28b7f5f41d722 stats=493f6ffab6da7342 placement=e5c57c42e4c26024 report=90d3b073aaeb59a8"),
    ("tests/determinism.rs#1", "be6d6ce60bf2f3af", "escape", "ir=b048b4f5d3dd876e motion=5dd28b7f5f41d722 stats=493f6ffab6da7342 placement=e5c57c42e4c26024 report=a6d4053aee815a6a"),
    ("tests/determinism.rs#2", "79ff489a10587d06", "static", "ir=2c62a30d3fed5d30 motion=8d3f1861ecab8001 stats=ce1154f2482fecc8 placement=4ed6ebedd9f8f0bb report=1c79c853559c5f08"),
    ("tests/determinism.rs#2", "79ff489a10587d06", "prob", "ir=2c62a30d3fed5d30 motion=8d3f1861ecab8001 stats=ce1154f2482fecc8 placement=4ed6ebedd9f8f0bb report=78aea2bc852e11bc"),
    ("tests/determinism.rs#2", "79ff489a10587d06", "escape", "ir=2c62a30d3fed5d30 motion=8d3f1861ecab8001 stats=ce1154f2482fecc8 placement=4ed6ebedd9f8f0bb report=b1f05cb1e661cdbe"),
    ("tests/frontend_golden.rs#1", "f6c9acd12a9cb99a", "static", "ir=81ae9f3bd1181cd9 motion=50ede89f32da20c7 stats=fbdafb601b6cd0f5 placement=923ea2febf483485 report=78bb530715ca0e79"),
    ("tests/frontend_golden.rs#1", "f6c9acd12a9cb99a", "prob", "ir=81ae9f3bd1181cd9 motion=5461cd62b83f2499 stats=fbdafb601b6cd0f5 placement=a2417d675ddb98b7 report=a9eee608d551f367"),
    ("tests/frontend_golden.rs#1", "f6c9acd12a9cb99a", "escape", "ir=81ae9f3bd1181cd9 motion=50ede89f32da20c7 stats=fbdafb601b6cd0f5 placement=923ea2febf483485 report=20e83cd3e10b9623"),
    ("tests/paper_examples.rs#0", "336f606586a83d2c", "static", "ir=6bdc08ff83957761 motion=63cbd952e5868ebb stats=1ae9634596f6a0e8 placement=c4bac00ee82d72f9 report=ef79e303c1430237"),
    ("tests/paper_examples.rs#0", "336f606586a83d2c", "prob", "ir=6bdc08ff83957761 motion=63cbd952e5868ebb stats=1ae9634596f6a0e8 placement=c4bac00ee82d72f9 report=0b3a83a1ea259af7"),
    ("tests/paper_examples.rs#0", "336f606586a83d2c", "escape", "ir=2879fe4e70f2e508 motion=3448503cfc8a5408 stats=1ae9634596f6a0e8 placement=c4bac00ee82d72f9 report=a3446cafc5390f7f"),
    ("tests/paper_examples.rs#1", "6ded0dd878b80d66", "static", "ir=5044a3387dccf515 motion=8682386b111a4449 stats=1ae9634596f6a0e8 placement=53699c6745c87c60 report=cfc0190138613059"),
    ("tests/paper_examples.rs#1", "6ded0dd878b80d66", "prob", "ir=5044a3387dccf515 motion=8682386b111a4449 stats=1ae9634596f6a0e8 placement=d5e9f009f7eff070 report=86827e56b8a7f9e5"),
    ("tests/paper_examples.rs#1", "6ded0dd878b80d66", "escape", "ir=5044a3387dccf515 motion=8682386b111a4449 stats=1ae9634596f6a0e8 placement=53699c6745c87c60 report=a72c0dd1270fa90f"),
    ("tests/paper_examples.rs#2", "a392dfa579981272", "static", "ir=ab146da7bded1e99 motion=b62afdc1080106f8 stats=5dd8c72e810ff55a placement=a7baa580dad2aff3 report=41520d0df3b684bf"),
    ("tests/paper_examples.rs#2", "a392dfa579981272", "prob", "ir=ab146da7bded1e99 motion=b62afdc1080106f8 stats=5dd8c72e810ff55a placement=a7baa580dad2aff3 report=a98558e49f2f3677"),
    ("tests/paper_examples.rs#2", "a392dfa579981272", "escape", "ir=ab146da7bded1e99 motion=b62afdc1080106f8 stats=5dd8c72e810ff55a placement=a7baa580dad2aff3 report=4551d837a5ba9c61"),
    ("tests/paper_examples.rs#4", "dfd0bb56083ab576", "static", "ir=2c62a30d3fed5d30 motion=8d3f1861ecab8001 stats=ce1154f2482fecc8 placement=4ed6ebedd9f8f0bb report=1c79c853559c5f08"),
    ("tests/paper_examples.rs#4", "dfd0bb56083ab576", "prob", "ir=2c62a30d3fed5d30 motion=8d3f1861ecab8001 stats=ce1154f2482fecc8 placement=4ed6ebedd9f8f0bb report=78aea2bc852e11bc"),
    ("tests/paper_examples.rs#4", "dfd0bb56083ab576", "escape", "ir=2c62a30d3fed5d30 motion=8d3f1861ecab8001 stats=ce1154f2482fecc8 placement=4ed6ebedd9f8f0bb report=b1f05cb1e661cdbe"),
    ("tests/pass_manager.rs#0", "c2aa684c40c8829e", "static", "ir=80a367cadef4c3c6 motion=1cc3081bbfad08af stats=5dd8c72e810ff55a placement=ad3eb1f8a35d4dae report=7e7fd1198abd6760"),
    ("tests/pass_manager.rs#0", "c2aa684c40c8829e", "prob", "ir=80a367cadef4c3c6 motion=1cc3081bbfad08af stats=5dd8c72e810ff55a placement=ad3eb1f8a35d4dae report=794863897317d838"),
    ("tests/pass_manager.rs#0", "c2aa684c40c8829e", "escape", "ir=80a367cadef4c3c6 motion=1cc3081bbfad08af stats=5dd8c72e810ff55a placement=ad3eb1f8a35d4dae report=561abccd015a10fe"),
    ("tests/pass_manager.rs#1", "7ee3ca18736ab643", "static", "ir=3a4e2179d4332bc7 motion=0c8a4fb7c4294385 stats=8f2df83409e652b4 placement=0cba2a56238c2907 report=4b17d02e116c332f"),
    ("tests/pass_manager.rs#1", "7ee3ca18736ab643", "prob", "ir=3a4e2179d4332bc7 motion=0c8a4fb7c4294385 stats=8f2df83409e652b4 placement=0cba2a56238c2907 report=0476f1134f01a957"),
    ("tests/pass_manager.rs#1", "7ee3ca18736ab643", "escape", "ir=3a4e2179d4332bc7 motion=0c8a4fb7c4294385 stats=8f2df83409e652b4 placement=0cba2a56238c2907 report=90d9073b9d9de115"),
    ("tests/pipeline.rs#0", "62ac68f38bcb6cd8", "static", "ir=5728a4b07ec3677f motion=e72017811b1abb1a stats=4c8f33f2f2901a3d placement=1d412ba3e5bb098e report=cdc4217a7d41162b"),
    ("tests/pipeline.rs#0", "62ac68f38bcb6cd8", "prob", "ir=5728a4b07ec3677f motion=e72017811b1abb1a stats=4c8f33f2f2901a3d placement=1d412ba3e5bb098e report=584740f630c0c7b3"),
    ("tests/pipeline.rs#0", "62ac68f38bcb6cd8", "escape", "ir=213b3e43777a86c7 motion=00d63777a47e941f stats=8f2df83409e652b4 placement=88413e776aa3f391 report=01cb734006d43e09"),
    ("tests/pipeline.rs#1", "2e9baeef0ee2c7dd", "static", "ir=d342ca238b8e0d98 motion=f593a135ecf44692 stats=1ae9634596f6a0e8 placement=d83aa542a5865233 report=cfc0190138613059"),
    ("tests/pipeline.rs#1", "2e9baeef0ee2c7dd", "prob", "ir=d342ca238b8e0d98 motion=f593a135ecf44692 stats=1ae9634596f6a0e8 placement=d83aa542a5865233 report=445f27b0941b9889"),
    ("tests/pipeline.rs#1", "2e9baeef0ee2c7dd", "escape", "ir=d342ca238b8e0d98 motion=f593a135ecf44692 stats=1ae9634596f6a0e8 placement=d83aa542a5865233 report=c6ecd4fb7973abeb"),
    ("tests/prop_exec.rs#0", "7339d7182d6abd7a", "static", "ir=9c9962dbbd9a635a motion=d66d3f6473f1d0b0 stats=8f2df83409e652b4 placement=f351e50f06a807fa report=1d05e6399981fb12"),
    ("tests/prop_exec.rs#0", "7339d7182d6abd7a", "prob", "ir=9c9962dbbd9a635a motion=d66d3f6473f1d0b0 stats=8f2df83409e652b4 placement=f351e50f06a807fa report=9c2731c5b3a3a00e"),
    ("tests/prop_exec.rs#0", "7339d7182d6abd7a", "escape", "ir=9c9962dbbd9a635a motion=d66d3f6473f1d0b0 stats=8f2df83409e652b4 placement=f351e50f06a807fa report=4b8b63ba222da126"),
    ("tests/prop_exec.rs#1", "367354e2d518d0ca", "static", "ir=eb74d9fb68cfd4a4 motion=0c8a4fb7c4294385 stats=8f2df83409e652b4 placement=d3da16a0827b5ad7 report=1b886e151d4afe09"),
    ("tests/prop_exec.rs#1", "367354e2d518d0ca", "prob", "ir=eb74d9fb68cfd4a4 motion=0c8a4fb7c4294385 stats=8f2df83409e652b4 placement=d3da16a0827b5ad7 report=5b5cb9b9c532955f"),
    ("tests/prop_exec.rs#1", "367354e2d518d0ca", "escape", "ir=eb74d9fb68cfd4a4 motion=0c8a4fb7c4294385 stats=8f2df83409e652b4 placement=d3da16a0827b5ad7 report=cd1b8701caa58025"),
    ("tests/prop_probalias.rs#0", "13eac17bb9e230d6", "static", "ir=c935bde95e2a2e20 motion=cd566e38ad5d4f72 stats=1ae9634596f6a0e8 placement=1a4842d1e2a0036e report=53cf68e3f882cf03"),
    ("tests/prop_probalias.rs#0", "13eac17bb9e230d6", "prob", "ir=393c14c1927bc1cf motion=d477fbd90be21402 stats=738c269bc7b52f50 placement=1a4842d1e2a0036e report=d904fd8c98c9e8f3"),
    ("tests/prop_probalias.rs#0", "13eac17bb9e230d6", "escape", "ir=c935bde95e2a2e20 motion=cd566e38ad5d4f72 stats=1ae9634596f6a0e8 placement=1a4842d1e2a0036e report=26bb791846d6df81"),
];

#[test]
fn optimizer_output_is_pinned() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let pinned: HashMap<(&str, &str), (&str, &str)> = PINNED
        .iter()
        .map(|(l, k, m, o)| ((*k, *m), (*l, *o)))
        .collect();
    let mut seen = HashMap::new();
    let mut table = String::new();
    let mut failures = Vec::new();
    for (label, src) in corpus(root) {
        let key = digest(&src);
        if seen.insert(key.clone(), ()).is_some() {
            continue;
        }
        let Ok(prog) = compile(&src) else { continue };
        for (mode, cfg) in modes() {
            let got = outcome(&prog, &cfg);
            table.push_str(&format!("    ({label:?}, {key:?}, {mode:?}, {got:?}),\n"));
            match pinned.get(&(key.as_str(), mode)) {
                Some((_, want)) if *want == got => {}
                Some((_, want)) => {
                    failures.push(format!("{label} [{mode}]: pinned {want}, got {got}"))
                }
                None => failures.push(format!("{label} [{mode}]: not pinned")),
            }
        }
    }
    for ((key, mode), (label, _)) in &pinned {
        if !seen.contains_key(*key) {
            failures.push(format!(
                "{label} [{mode}]: pinned source no longer in the corpus"
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "{}\n\nfresh table:\n{table}",
        failures.join("\n")
    );
}
