//! Property-based tests of the whole-program escape analysis:
//!
//! 1. with `--escape off` (the default) the optimizer's output is
//!    byte-identical to the pre-escape per-function pipeline over random
//!    list programs — threading the (absent) analysis through the
//!    per-function loop changes nothing,
//! 2. escape verdicts and the escape-optimized IR do not depend on the
//!    thread that computes them — two compiles on two fresh threads (each
//!    seeding its hash maps differently) agree byte for byte, and
//! 3. forcing every region to `Shared` yields an analysis with zero
//!    upgrades whose `apply` is a no-op, reproducing the baseline IR and
//!    `MotionLog`s exactly — escape mode degrades gracefully to the
//!    classical pipeline, it never changes what is *expressible*.

use earthc::earth_analysis::{self, EscapeAnalysis};
use earthc::earth_commopt::{
    analyze_placement, apply_plan, optimize_program_with, select, CommOptConfig, EscapeMode,
    MotionLog, SelectionStats,
};
use earthc::earth_ir::pretty;

/// One statement of a generated list-walk body.
#[derive(Debug, Clone, Copy)]
enum LoopStmt {
    /// `acc = acc + c-><f>;`
    Read(u8),
    /// `c-><f> = acc;`
    Write(u8),
    /// `c = c->next;`
    Advance,
}

/// How `main` allocates the list cells — the knob that decides whether the
/// region stays node-local or is genuinely distributed.
#[derive(Debug, Clone, Copy)]
enum Alloc {
    /// `malloc(sizeof(node))` — node-local by construction.
    Plain,
    /// `malloc_on(i % num_nodes(), sizeof(node))` — scattered.
    Scattered,
}

/// How `main` invokes the walk.
#[derive(Debug, Clone, Copy)]
enum CallSite {
    /// `walk(head)` — same node as the builder.
    Unplaced,
    /// `walk(head) @ OWNER_OF(head)` — owner-confined.
    AtOwner,
    /// `walk(head) @ 1` — placed on a fixed node.
    AtNode,
}

fn program_source(alloc: Alloc, call: CallSite, body: &[LoopStmt]) -> String {
    let field = |i: u8| ["a", "b"][(i % 2) as usize];
    let mut stmts = String::new();
    for s in body {
        match s {
            LoopStmt::Read(f) => {
                stmts.push_str(&format!("        acc = acc + c->{};\n", field(*f)))
            }
            LoopStmt::Write(f) => stmts.push_str(&format!("        c->{} = acc;\n", field(*f))),
            LoopStmt::Advance => stmts.push_str("        c = c->next;\n"),
        }
    }
    let malloc = match alloc {
        Alloc::Plain => "malloc(sizeof(node))",
        Alloc::Scattered => "malloc_on(i % num_nodes(), sizeof(node))",
    };
    let invoke = match call {
        CallSite::Unplaced => "walk(head)",
        CallSite::AtOwner => "walk(head) @ OWNER_OF(head)",
        CallSite::AtNode => "walk(head) @ 1",
    };
    format!(
        r#"
struct node {{ node* next; int a; int b; }};
int walk(node *c) {{
    int acc;
    int i;
    acc = 0;
    i = 0;
    while (c != NULL) {{
{stmts}        i = i + 1;
        c = c->next;
    }}
    return acc + i;
}}
int main(int n) {{
    node *head;
    node *q;
    int i;
    int r;
    head = NULL;
    for (i = 0; i < n; i = i + 1) {{
        q = {malloc};
        q->a = i;
        q->b = i + 1;
        q->next = head;
        head = q;
    }}
    r = {invoke};
    return r;
}}
"#
    )
}

fn random_source(rng: &mut earth_qcheck::Rng) -> String {
    let alloc = if rng.index(2) == 0 {
        Alloc::Plain
    } else {
        Alloc::Scattered
    };
    let call = match rng.index(3) {
        0 => CallSite::Unplaced,
        1 => CallSite::AtOwner,
        _ => CallSite::AtNode,
    };
    let n = rng.index(4);
    let body: Vec<LoopStmt> = (0..n)
        .map(|_| match rng.index(3) {
            0 => LoopStmt::Read(rng.u8()),
            1 => LoopStmt::Write(rng.u8()),
            _ => LoopStmt::Advance,
        })
        .collect();
    program_source(alloc, call, &body)
}

/// Optimizes `src` with the given config; returns the printed IR, the
/// per-function motion logs, and the summed counters.
fn optimize(src: &str, cfg: &CommOptConfig) -> (String, Vec<MotionLog>, SelectionStats) {
    let mut prog = earthc::compile_earth_c(src).unwrap_or_else(|e| panic!("{e}\n{src}"));
    earth_analysis::infer_locality(&mut prog);
    let analysis = earth_analysis::analyze(&prog);
    let report = optimize_program_with(&mut prog, cfg, &analysis);
    let motions = report.functions.iter().map(|f| f.motion.clone()).collect();
    (pretty::print_program(&prog), motions, report.total())
}

/// Property 1: with escape off, `optimize_program_with` is byte-identical
/// to the pre-escape per-function replay (placement → selection → apply).
#[test]
fn escape_off_matches_per_function_replay() {
    earth_qcheck::cases(100, |rng| {
        let src = random_source(rng);
        let cfg = CommOptConfig::default();
        assert_eq!(cfg.escape, EscapeMode::Off);
        let (ir, _, _) = optimize(&src, &cfg);

        // Manual per-function replay, no escape analysis anywhere.
        let mut prog = earthc::compile_earth_c(&src).unwrap();
        earth_analysis::infer_locality(&mut prog);
        let analysis = earth_analysis::analyze(&prog);
        let fids: Vec<_> = prog.iter_functions().map(|(fid, _)| fid).collect();
        for fid in fids {
            let fa = analysis.function(fid);
            let mut f = prog.function(fid).clone();
            let placement = analyze_placement(&f, fa, &cfg.freq);
            let plan = select(&prog, &mut f, fa, &placement, &cfg);
            apply_plan(&mut f, &plan);
            *prog.function_mut(fid) = f;
        }
        assert_eq!(
            ir,
            pretty::print_program(&prog),
            "escape-off output diverged from the per-function replay:\n{src}"
        );
    });
}

/// Property 2: escape verdicts and the escape-optimized output do not
/// depend on the thread that computes them.
#[test]
fn escape_pipeline_is_thread_invariant() {
    earth_qcheck::cases(60, |rng| {
        let src = random_source(rng);
        let cfg = CommOptConfig {
            escape: EscapeMode::On,
            ..CommOptConfig::default()
        };
        let ((ir1, motions1, stats1), (ir2, motions2, stats2)) = std::thread::scope(|s| {
            let a = s.spawn(|| optimize(&src, &cfg));
            let b = s.spawn(|| optimize(&src, &cfg));
            (a.join().unwrap(), b.join().unwrap())
        });
        assert_eq!(ir1, ir2, "IR differs between two compiles:\n{src}");
        assert_eq!(
            motions1, motions2,
            "motion logs (incl. escape justifications) differ:\n{src}"
        );
        assert_eq!(stats1, stats2, "selection stats differ:\n{src}");
    });
}

/// Property 3: the all-Shared analysis has zero upgrades, its `apply` is a
/// no-op, and the resulting pipeline reproduces the baseline exactly.
#[test]
fn forced_shared_reproduces_baseline() {
    earth_qcheck::cases(100, |rng| {
        let src = random_source(rng);
        let cfg = CommOptConfig::default();
        let (baseline_ir, baseline_motions, _) = optimize(&src, &cfg);

        let mut prog = earthc::compile_earth_c(&src).unwrap();
        earth_analysis::infer_locality(&mut prog);
        let analysis = earth_analysis::analyze(&prog);
        let forced = EscapeAnalysis::forced_shared(&prog, &analysis.summaries);
        assert_eq!(forced.total_upgrades(), 0, "forced-shared upgraded:\n{src}");

        let fids: Vec<_> = prog.iter_functions().map(|(fid, _)| fid).collect();
        let mut motions = Vec::new();
        for fid in fids {
            let fa = analysis.function(fid);
            let mut f = prog.function(fid).clone();
            let escapes = forced.apply(fid, &mut f);
            assert!(escapes.is_empty(), "forced-shared apply acted:\n{src}");
            let placement = analyze_placement(&f, fa, &cfg.freq);
            let plan = select(&prog, &mut f, fa, &placement, &cfg);
            apply_plan(&mut f, &plan);
            let mut log = plan.motion.clone();
            log.escapes = escapes;
            motions.push(log);
            *prog.function_mut(fid) = f;
        }
        assert_eq!(
            baseline_ir,
            pretty::print_program(&prog),
            "forced-shared IR diverged from baseline:\n{src}"
        );
        assert_eq!(
            baseline_motions, motions,
            "forced-shared motion logs diverged from baseline:\n{src}"
        );
    });
}
