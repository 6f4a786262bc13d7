//! The **incremental recompilation validator** (`INC001`–`INC003`).
//!
//! Function-granular incremental recompilation splices cached optimized
//! IR and motion logs for functions it believes an edit cannot affect.
//! That belief rests on three claims, and this module independently
//! re-derives each of them against a *fresh* whole-program analysis of
//! the current IR — never trusting the incremental driver's own
//! bookkeeping:
//!
//! * **`INC003`** — the snapshot describes this translation unit at all:
//!   optimizer-configuration fingerprint, struct-table fingerprint, and
//!   the ordered function-name list must match. A mismatched snapshot
//!   must be discarded (full rebuild), never patched, so this check
//!   short-circuits the rest.
//! * **`INC001`** — no stale effect summary: the summary table recorded
//!   in the snapshot must equal what a fresh whole-program effect
//!   fixpoint derives for the current IR.
//! * **`INC002`** — no missing escalation: for every function the
//!   snapshot marks *reused*, re-running placement + selection from
//!   scratch must reproduce the cached optimized body, selection
//!   counters, and motion log byte for byte. A divergence means the
//!   function's dependency key (callee summaries, escape preconditions)
//!   changed and the driver failed to escalate it into the dirty set.
//!
//! Identity configurations (every transformation disabled) are skipped:
//! the optimizer is the identity there and the snapshot carries no
//! analysis worth validating.

use earth_analysis::Summary;
use earth_commopt::{
    all_off, applicability, optimize_program_snapshot, CommOptConfig, PipelineSnapshot,
};
use earth_ir::{Diagnostic, Program};

/// Validates `snapshot` — the incremental driver's cached state for
/// `prog` under `cfg` — against fresh whole-program re-derivation.
///
/// Returns every violation found; an empty vector certifies that an
/// incremental compile seeded with this snapshot is byte-identical to a
/// from-scratch compile. `prog` must be the *pre-optimization* IR (after
/// the deterministic pre-passes), exactly as the optimizer would see it.
pub fn verify_incremental(
    prog: &Program,
    cfg: &CommOptConfig,
    snapshot: &PipelineSnapshot,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    // INC003 first: every later check indexes snapshot entries by
    // function position, which is meaningless across a shape mismatch.
    if let Err(reason) = applicability(prog, cfg, snapshot) {
        out.push(Diagnostic::error(
            "INC003",
            format!(
                "snapshot does not describe this translation unit ({}); \
                 it must be discarded, never patched",
                reason.as_str()
            ),
        ));
        return out;
    }
    if all_off(cfg) {
        return out;
    }
    let analysis = earth_analysis::analyze(prog);
    // INC001: the snapshot's summary table against a fresh fixpoint.
    for (fid, f) in prog.iter_functions() {
        let fresh: &Summary = &analysis.summaries[fid.index()];
        let stored = &snapshot.summaries[fid.index()];
        if fresh != stored {
            let delta = stored.delta(fresh);
            out.push(
                Diagnostic::error(
                    "INC001",
                    format!(
                        "snapshot carries a stale effect summary for `{}`: {}",
                        f.name,
                        delta.render()
                    ),
                )
                .in_func(&f.name),
            );
        }
    }
    if !out.is_empty() {
        // Stale summaries poison the re-derivation below (it would
        // compare against an optimizer run the driver never performed);
        // report the root cause alone.
        return out;
    }
    // INC002: from-scratch re-optimization against every reused splice.
    let mut fresh_prog = prog.clone();
    let (_, fresh_snap) = optimize_program_snapshot(&mut fresh_prog, cfg, &analysis);
    for (stored, fresh) in snapshot.functions.iter().zip(&fresh_snap.functions) {
        if !stored.reused {
            continue; // re-optimized this compile: trivially fresh
        }
        let mut mismatches = Vec::new();
        if stored.optimized != fresh.optimized {
            mismatches.push("optimized IR");
        }
        if stored.report.stats != fresh.report.stats {
            mismatches.push("selection counters");
        }
        if stored.report.motion != fresh.report.motion {
            mismatches.push("motion log");
        }
        if !mismatches.is_empty() {
            out.push(
                Diagnostic::error(
                    "INC002",
                    format!(
                        "`{}` was spliced from the snapshot but from-scratch \
                         re-optimization disagrees on {}; its dependency key \
                         changed and escalation failed to re-optimize it",
                        stored.name,
                        mismatches.join(", ")
                    ),
                )
                .in_func(&stored.name),
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use earth_commopt::{optimize_program_incremental, EscapeMode};

    const SRC: &str = r#"
        struct P { P* next; int v; };
        int touch(P *p) {
            p->v = p->v + 1;
            return p->v;
        }
        int total(P *p) {
            int acc;
            acc = 0;
            while (p != NULL) {
                acc = acc + p->v;
                p = p->next;
            }
            return acc;
        }
    "#;

    fn snapshot_for(src: &str, cfg: &CommOptConfig) -> (Program, PipelineSnapshot) {
        let mut prog = earth_frontend::compile(src).unwrap();
        let analysis = earth_analysis::analyze(&prog);
        let pristine = prog.clone();
        let (_, snap) = optimize_program_snapshot(&mut prog, cfg, &analysis);
        (pristine, snap)
    }

    /// A snapshot the driver just produced validates cleanly, both cold
    /// and after a warm incremental chain.
    #[test]
    fn honest_snapshots_validate_cleanly() {
        let cfg = CommOptConfig::default();
        let (prog, snap) = snapshot_for(SRC, &cfg);
        assert!(verify_incremental(&prog, &cfg, &snap).is_empty());
        // Warm chain: edit one function, run incrementally, re-validate.
        let edited = SRC.replace("acc = acc + p->v;", "acc = acc + p->v + 1;");
        let mut prog2 = earth_frontend::compile(&edited).unwrap();
        let pristine2 = prog2.clone();
        let (_, snap2, _) = optimize_program_incremental(&mut prog2, &cfg, &snap).unwrap();
        assert!(verify_incremental(&pristine2, &cfg, &snap2).is_empty());
    }

    /// Hand-corrupting a summary in the snapshot is caught as INC001.
    #[test]
    fn stale_summary_is_inc001() {
        let cfg = CommOptConfig::default();
        let (prog, mut snap) = snapshot_for(SRC, &cfg);
        snap.summaries[0] = Summary::default(); // "touch has no effects"
        let diags = verify_incremental(&prog, &cfg, &snap);
        assert!(!diags.is_empty());
        assert!(diags.iter().all(|d| d.code == "INC001"), "{diags:?}");
    }

    /// Splicing a stale optimized body (marked reused) is caught as
    /// INC002 even when the summary table is intact.
    #[test]
    fn stale_splice_is_inc002() {
        let cfg = CommOptConfig::default();
        let (prog, mut snap) = snapshot_for(SRC, &cfg);
        // Pretend `total` was spliced from a snapshot of... `touch`.
        let stale = snap.functions[0].optimized.clone();
        snap.functions[1].optimized = stale;
        for f in &mut snap.functions {
            f.reused = true;
        }
        let diags = verify_incremental(&prog, &cfg, &snap);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, "INC002");
        assert!(diags[0].message.contains("optimized IR"), "{diags:?}");
    }

    /// A snapshot from a different configuration or program shape is
    /// rejected outright as INC003.
    #[test]
    fn mismatched_snapshot_is_inc003() {
        let cfg = CommOptConfig::default();
        let (prog, snap) = snapshot_for(SRC, &cfg);
        let other = CommOptConfig {
            escape: EscapeMode::On,
            ..CommOptConfig::default()
        };
        let diags = verify_incremental(&prog, &other, &snap);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, "INC003");
        // Shape mismatch: drop a function.
        let fewer = earth_frontend::compile(
            "struct P { P* next; int v; }; int touch(P *p) { return p->v; }",
        )
        .unwrap();
        let diags = verify_incremental(&fewer, &cfg, &snap);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, "INC003");
    }
}
