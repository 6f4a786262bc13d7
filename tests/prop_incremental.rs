//! Property-based tests of function-granular incremental recompilation:
//!
//! 1. over random generated list programs, a random edit confined to one
//!    function, recompiled incrementally from the previous snapshot, is
//!    **byte-identical** (printed IR *and* per-function `MotionLog`s) to
//!    a from-scratch compile of the edited source — under binary alias,
//!    probabilistic alias, and escape analysis alike — while touching at
//!    most the edited function plus its escalated dependents;
//! 2. the same byte-identity holds for random integer-literal
//!    perturbations of the real corpus — every `programs/*.ec` and every
//!    embedded Olden kernel — where the edit lands in arbitrary
//!    functions of arbitrary shape;
//! 3. byte-identity survives profile-guided optimization: an edit
//!    recompiled incrementally under a measured profile reproduces the
//!    from-scratch PGO build exactly.

use earth_qcheck::Rng;
use earthc::earth_analysis;
use earthc::earth_commopt::{
    optimize_program_incremental, optimize_program_snapshot, AliasMode, CommOptConfig, EscapeMode,
    IncrementalStats, MotionLog, PipelineSnapshot, ProfileDb,
};
use earthc::earth_ir::{pretty, Program};
use std::sync::Arc;

/// Compile + the deterministic pre-pass (locality inference), exactly
/// what the optimizer sees in the `--locality` pipeline.
fn prepare(src: &str) -> Program {
    let mut prog = earthc::compile_earth_c(src).unwrap_or_else(|e| panic!("{e}\n{src}"));
    earth_analysis::infer_locality(&mut prog);
    prog
}

/// From-scratch compile: printed IR, motion logs, and the snapshot a
/// cold incremental compile would cache.
fn scratch(src: &str, cfg: &CommOptConfig) -> (String, Vec<MotionLog>, PipelineSnapshot) {
    let mut prog = prepare(src);
    let analysis = earth_analysis::analyze(&prog);
    let (report, snap) = optimize_program_snapshot(&mut prog, cfg, &analysis);
    let motions = report.functions.iter().map(|f| f.motion.clone()).collect();
    (pretty::print_program(&prog), motions, snap)
}

/// Warm compile seeded with `prev`; `None` when the driver (correctly)
/// refuses the snapshot and demands a full rebuild.
fn warm(
    src: &str,
    cfg: &CommOptConfig,
    prev: &PipelineSnapshot,
) -> Option<(String, Vec<MotionLog>, IncrementalStats)> {
    let mut prog = prepare(src);
    let (report, _, stats) = optimize_program_incremental(&mut prog, cfg, prev).ok()?;
    let motions = report.functions.iter().map(|f| f.motion.clone()).collect();
    Some((pretty::print_program(&prog), motions, stats))
}

fn random_config(rng: &mut Rng) -> CommOptConfig {
    match rng.index(3) {
        0 => CommOptConfig::default(),
        1 => CommOptConfig {
            alias: AliasMode::Prob,
            ..CommOptConfig::default()
        },
        _ => CommOptConfig {
            escape: EscapeMode::On,
            ..CommOptConfig::default()
        },
    }
}

/// A generated two-function program: `walk` with a parameterized loop
/// body, `main` building a list and invoking it — the walk body is the
/// single function the "edit" regenerates.
fn list_program(walk_body: &str) -> String {
    format!(
        r#"
struct node {{ node* next; int a; int b; }};
int walk(node *c) {{
    int acc;
    acc = 0;
    while (c != NULL) {{
{walk_body}        c = c->next;
    }}
    return acc;
}}
int main(int n) {{
    node *head;
    node *q;
    int i;
    head = NULL;
    for (i = 0; i < n; i = i + 1) {{
        q = malloc_on(i % num_nodes(), sizeof(node));
        q->a = i;
        q->b = i + i;
        q->next = head;
        head = q;
    }}
    return walk(head);
}}
"#
    )
}

fn random_walk_body(rng: &mut Rng) -> String {
    let mut body = String::new();
    for _ in 0..rng.index(4) {
        match rng.index(3) {
            0 => body.push_str(&format!(
                "        acc = acc + c->{};\n",
                ["a", "b"][rng.index(2)]
            )),
            1 => body.push_str(&format!("        c->{} = acc;\n", ["a", "b"][rng.index(2)])),
            _ => body.push_str(&format!("        acc = acc + {};\n", rng.index(9) + 1)),
        }
    }
    body
}

/// Replaces one randomly-chosen integer literal with its successor —
/// an edit that lands in whatever function the literal happens to be
/// in. `None` when the source has no standalone literal.
fn perturb_literal(src: &str, rng: &mut Rng) -> Option<String> {
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
    if spans.is_empty() {
        return None;
    }
    let (s, e) = spans[rng.index(spans.len())];
    let val: u64 = src[s..e].parse().ok()?;
    Some(format!("{}{}{}", &src[..s], val + 1, &src[e..]))
}

/// Asserts a warm compile of `edited` seeded by `base`'s snapshot is
/// byte-identical to a from-scratch compile of `edited`.
fn assert_incremental_matches_scratch(
    base: &str,
    edited: &str,
    cfg: &CommOptConfig,
) -> IncrementalStats {
    let (_, _, snap) = scratch(base, cfg);
    let (ir_ref, motions_ref, _) = scratch(edited, cfg);
    let (ir, motions, stats) = warm(edited, cfg, &snap)
        .unwrap_or_else(|| panic!("snapshot unexpectedly inapplicable:\n{edited}"));
    assert_eq!(
        ir, ir_ref,
        "incremental IR diverged from scratch:\n{edited}"
    );
    assert_eq!(
        motions, motions_ref,
        "incremental motion logs diverged from scratch:\n{edited}"
    );
    let n = motions_ref.len() as u64;
    assert_eq!(
        stats.functions_reused + stats.functions_reoptimized,
        n,
        "every function is either spliced or re-optimized:\n{edited}"
    );
    stats
}

/// Property 1: generated programs, single-function edits, every
/// configuration.
#[test]
fn single_function_edit_matches_scratch_on_generated_programs() {
    earth_qcheck::cases(30, |rng| {
        let base = list_program(&random_walk_body(rng));
        let edited = list_program(&random_walk_body(rng));
        if base == edited {
            return;
        }
        let cfg = random_config(rng);
        let stats = assert_incremental_matches_scratch(&base, &edited, &cfg);
        // The edit is confined to `walk`; `main` is touched only if
        // walk's summary change escalates into it.
        assert!(
            stats.functions_reoptimized <= 1 + stats.escalations,
            "re-optimized more than the edit + escalations explain: {stats:?}"
        );
    });
}

/// Property 2: the real corpus — programs/*.ec and every Olden kernel —
/// under random literal perturbations.
#[test]
fn literal_edits_match_scratch_on_real_corpus() {
    let mut corpus: Vec<String> = ["count.ec", "distance.ec", "orbit.ec", "treesum.ec"]
        .iter()
        .map(|name| {
            std::fs::read_to_string(format!("programs/{name}")).expect("programs/*.ec present")
        })
        .collect();
    corpus.extend(
        earthc::earth_olden::suite()
            .into_iter()
            .map(|b| b.source.to_string()),
    );
    earth_qcheck::cases(25, |rng| {
        let base = rng.pick(&corpus).clone();
        let Some(edited) = perturb_literal(&base, rng) else {
            return;
        };
        if earthc::compile_earth_c(&edited).is_err() {
            return; // the literal was load-bearing for the frontend
        }
        let cfg = random_config(rng);
        assert_incremental_matches_scratch(&base, &edited, &cfg);
    });
}

/// Property 3: byte-identity under profile-guided optimization — the
/// snapshot records the profiled decisions, and a warm compile under the
/// same profile reproduces the from-scratch PGO build.
#[test]
fn pgo_incremental_matches_scratch() {
    earth_qcheck::cases(10, |rng| {
        let base = list_program(&random_walk_body(rng));
        let edited = list_program(&random_walk_body(rng));
        if base == edited {
            return;
        }
        // Measure the *base* build — the realistic stale-profile shape:
        // the profile predates the edit on both sides of the comparison.
        let (_, profile) = earthc::Pipeline::new()
            .nodes(2)
            .instrument_source(&base, &[earthc::Value::Int(4)])
            .expect("instrumented run");
        let cfg = CommOptConfig {
            profile: Some(Arc::new(ProfileDb::new(profile))),
            ..CommOptConfig::default()
        };
        assert_incremental_matches_scratch(&base, &edited, &cfg);
    });
}
