//! Exhaustive incremental-determinism sweep: for **every function of
//! every corpus program** (`programs/*.ec` plus the embedded Olden
//! kernels), apply a one-constant edit confined to that function at the
//! IR level, recompile incrementally from the pre-edit snapshot, and
//! assert the result is byte-identical (printed IR and per-function
//! `MotionLog`s) to a from-scratch compile of the edited program — under
//! binary alias, probabilistic alias, and escape analysis alike.
//!
//! Every warm compile's snapshot is then re-derived by the INC validator
//! ([`earth_lint::verify_incremental`]), so the sweep also proves the
//! fence itself stays quiet on honest snapshots. CI runs this as the
//! incremental-determinism job.

use earthc::earth_analysis;
use earthc::earth_commopt::{
    optimize_program_incremental, optimize_program_snapshot, AliasMode, CommOptConfig, EscapeMode,
    MotionLog,
};
use earthc::earth_ir::{
    pretty, Basic, Cond, Const, FuncId, Operand, Program, Rvalue, Stmt, StmtKind,
};
use earthc::earth_lint;

/// Compile + the deterministic pre-pass (locality inference), exactly
/// what the optimizer sees in the `--locality` pipeline.
fn prepare(src: &str) -> Program {
    let mut prog = earthc::compile_earth_c(src).unwrap_or_else(|e| panic!("{e}\n{src}"));
    earth_analysis::infer_locality(&mut prog);
    prog
}

fn bump_operand(op: &mut Operand) -> bool {
    if let Operand::Const(Const::Int(v)) = op {
        *v += 1;
        true
    } else {
        false
    }
}

fn bump_cond(c: &mut Cond) -> bool {
    bump_operand(&mut c.lhs) || bump_operand(&mut c.rhs)
}

fn bump_basic(b: &mut Basic) -> bool {
    match b {
        Basic::Assign { src, .. } => match src {
            Rvalue::Use(op) | Rvalue::Unary(_, op) => bump_operand(op),
            Rvalue::Binary(_, a, b) => bump_operand(a) || bump_operand(b),
            Rvalue::Malloc { on, .. } => on.as_mut().is_some_and(bump_operand),
            Rvalue::Builtin { args, .. } => args.iter_mut().any(bump_operand),
            Rvalue::Load(_) | Rvalue::ValueOf(_) => false,
        },
        Basic::Call { args, .. } => args.iter_mut().any(bump_operand),
        Basic::Return(op) => op.as_mut().is_some_and(bump_operand),
        Basic::AtomicWrite { value, .. } | Basic::AtomicAdd { value, .. } => bump_operand(value),
        Basic::BlkMov { .. } => false,
    }
}

/// Increments the first integer-constant operand found in `s`, in
/// statement order. Returns whether an edit landed.
fn bump_stmt(s: &mut Stmt) -> bool {
    match &mut s.kind {
        StmtKind::Seq(ss) | StmtKind::ParSeq(ss) => ss.iter_mut().any(bump_stmt),
        StmtKind::Basic(b) => bump_basic(b),
        StmtKind::If {
            cond,
            then_s,
            else_s,
        } => bump_cond(cond) || bump_stmt(then_s) || bump_stmt(else_s),
        StmtKind::Switch {
            scrut,
            cases,
            default,
        } => {
            bump_operand(scrut) || cases.iter_mut().any(|(_, s)| bump_stmt(s)) || bump_stmt(default)
        }
        StmtKind::While { cond, body } | StmtKind::DoWhile { body, cond } => {
            bump_cond(cond) || bump_stmt(body)
        }
        StmtKind::Forall {
            init,
            cond,
            step,
            body,
        } => bump_stmt(init) || bump_cond(cond) || bump_stmt(step) || bump_stmt(body),
    }
}

/// The edited program: `fid`'s first integer constant incremented, every
/// other function untouched. `None` when the function has no integer
/// constant to edit.
fn edit_function(base: &Program, fid: FuncId) -> Option<Program> {
    let mut edited = base.clone();
    bump_stmt(&mut edited.function_mut(fid).body).then_some(edited)
}

/// From-scratch build of `prog`: printed IR + motion logs.
fn scratch(prog: &Program, cfg: &CommOptConfig) -> (String, Vec<MotionLog>) {
    let mut p = prog.clone();
    let analysis = earth_analysis::analyze(&p);
    let (report, _) = optimize_program_snapshot(&mut p, cfg, &analysis);
    let motions = report.functions.iter().map(|f| f.motion.clone()).collect();
    (pretty::print_program(&p), motions)
}

fn sweep_configs() -> Vec<(&'static str, CommOptConfig)> {
    vec![
        ("default", CommOptConfig::default()),
        (
            "prob-alias",
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

fn corpus() -> Vec<(String, String)> {
    let mut corpus: Vec<(String, String)> = ["count.ec", "distance.ec", "orbit.ec", "treesum.ec"]
        .iter()
        .map(|name| {
            let src =
                std::fs::read_to_string(format!("programs/{name}")).expect("programs/*.ec present");
            (name.to_string(), src)
        })
        .collect();
    corpus.extend(
        earthc::earth_olden::suite()
            .into_iter()
            .map(|b| (format!("olden:{}", b.name), b.source.to_string())),
    );
    corpus
}

/// The sweep: every function of every corpus program, every config.
#[test]
fn every_function_edit_is_deterministic_and_verifiable() {
    let mut edits = 0u64;
    for (name, src) in corpus() {
        let base = prepare(&src);
        for (cfg_name, cfg) in sweep_configs() {
            let base_analysis = earth_analysis::analyze(&base);
            let (_, snap) = optimize_program_snapshot(&mut base.clone(), &cfg, &base_analysis);
            let fids: Vec<FuncId> = base.iter_functions().map(|(id, _)| id).collect();
            for fid in fids {
                let Some(edited) = edit_function(&base, fid) else {
                    continue;
                };
                edits += 1;
                let ctx = format!("{name} [{cfg_name}] edit in `{}`", base.function(fid).name);
                let (ir_ref, motions_ref) = scratch(&edited, &cfg);
                let mut p = edited.clone();
                let (report, snap2, stats) = optimize_program_incremental(&mut p, &cfg, &snap)
                    .unwrap_or_else(|r| panic!("{ctx}: snapshot refused: {r:?}"));
                assert_eq!(
                    pretty::print_program(&p),
                    ir_ref,
                    "{ctx}: incremental IR diverged from scratch"
                );
                let motions: Vec<MotionLog> =
                    report.functions.iter().map(|f| f.motion.clone()).collect();
                assert_eq!(motions, motions_ref, "{ctx}: motion logs diverged");
                assert_eq!(
                    stats.functions_reused + stats.functions_reoptimized,
                    motions_ref.len() as u64,
                    "{ctx}: every function is either spliced or re-optimized"
                );
                assert!(stats.functions_reoptimized >= 1, "{ctx}: the edit was real");
                // Without escape analysis, an edit that moves no summary
                // re-optimizes exactly the edited function — the tentpole's
                // "1-function edit ⇒ 1 function re-optimized" guarantee.
                // (Summary changes escalate into callers, and escape
                // fingerprints can widen the set independently.)
                if cfg.escape == EscapeMode::Off && stats.escalations == 0 {
                    assert_eq!(
                        stats.functions_reoptimized, 1,
                        "{ctx}: summary-stable edit re-optimized more than itself: {stats:?}"
                    );
                }
                // The INC validator must stay quiet on an honest snapshot.
                let diags = earth_lint::verify_incremental(&edited, &cfg, &snap2);
                assert!(
                    diags.is_empty(),
                    "{ctx}: INC validator flagged an honest warm compile: {:?}",
                    diags
                        .iter()
                        .map(|d| format!("{}: {}", d.code, d.message))
                        .collect::<Vec<_>>()
                );
            }
        }
    }
    assert!(edits >= 50, "sweep covered only {edits} function edits");
}
