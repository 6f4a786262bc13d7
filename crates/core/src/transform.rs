//! Applies a selection [`Plan`] to a function body.

use crate::selection::{Plan, Replace};
use earth_ir::{Basic, Function, Label, MemRef, Place, Rvalue, Stmt, StmtKind};

/// Rewrites `func`'s body according to `plan`: inserts the planned
/// communication statements and rewrites the covered remote accesses.
///
/// Inserted statements receive fresh labels; original statements keep
/// theirs, so analysis results remain addressable after transformation.
///
/// # Panics
///
/// Panics if the plan refers to labels that do not exist or replaces
/// statements that are not remote accesses (both indicate an internal
/// selection bug).
pub fn apply_plan(func: &mut Function, plan: &Plan) {
    let mut body = std::mem::replace(
        &mut func.body,
        Stmt {
            label: Label(0),
            kind: StmtKind::Seq(Vec::new()),
        },
    );
    rewrite(func, &mut body, plan);
    func.body = body;
    func.sync_label_counter();
}

/// Rewrites `s` in place. Fresh labels are handed out in pre-order: a
/// sequence child's inserted predecessors, then the child's subtree, then
/// its inserted successors.
fn rewrite(func: &mut Function, s: &mut Stmt, plan: &Plan) {
    match &mut s.kind {
        StmtKind::Seq(children) => {
            let has_inserts = children.iter().any(|c| {
                plan.inserts_before.get(&c.label).is_some()
                    || plan.inserts_after.get(&c.label).is_some()
            });
            if !has_inserts {
                for c in children {
                    rewrite(func, c, plan);
                }
                return;
            }
            let old = std::mem::take(children);
            let mut out = Vec::with_capacity(old.len());
            let insert = |func: &mut Function, out: &mut Vec<Stmt>, bs: Option<&Vec<Basic>>| {
                for b in bs.into_iter().flatten() {
                    out.push(Stmt {
                        label: func.fresh_label(),
                        kind: StmtKind::Basic(b.clone()),
                    });
                }
            };
            for mut child in old {
                let child_label = child.label;
                insert(func, &mut out, plan.inserts_before.get(&child_label));
                rewrite(func, &mut child, plan);
                out.push(child);
                insert(func, &mut out, plan.inserts_after.get(&child_label));
            }
            *children = out;
        }
        StmtKind::ParSeq(children) => {
            for c in children {
                rewrite(func, c, plan);
            }
        }
        StmtKind::Basic(b) => {
            if let Some(action) = plan.replace.get(&s.label) {
                let old = std::mem::replace(b, Basic::Return(None));
                *b = apply_replace(old, *action);
            }
        }
        StmtKind::If { then_s, else_s, .. } => {
            rewrite(func, then_s, plan);
            rewrite(func, else_s, plan);
        }
        StmtKind::Switch { cases, default, .. } => {
            for (_, c) in cases {
                rewrite(func, c, plan);
            }
            rewrite(func, default, plan);
        }
        StmtKind::While { body, .. } | StmtKind::DoWhile { body, .. } => {
            rewrite(func, body, plan);
        }
        StmtKind::Forall {
            init, step, body, ..
        } => {
            rewrite(func, init, plan);
            rewrite(func, step, plan);
            rewrite(func, body, plan);
        }
    }
}

fn apply_replace(b: Basic, action: Replace) -> Basic {
    match (b, action) {
        // dst = p~>f  ==>  dst = temp
        (
            Basic::Assign {
                dst,
                src: Rvalue::Load(MemRef::Deref { .. }),
            },
            Replace::ReadToTemp(temp),
        ) => Basic::Assign {
            dst,
            src: Rvalue::Use(earth_ir::Operand::Var(temp)),
        },
        // dst = p~>f  ==>  dst = buf.f
        (
            Basic::Assign {
                dst,
                src: Rvalue::Load(MemRef::Deref { field, .. }),
            },
            Replace::ReadToBuf(buf),
        ) => Basic::Assign {
            dst,
            src: Rvalue::Load(MemRef::Field { base: buf, field }),
        },
        // p~>f = v  ==>  buf.f = v
        (
            Basic::Assign {
                dst: Place::Mem(MemRef::Deref { field, .. }),
                src,
            },
            Replace::WriteToBuf(buf),
        ) => Basic::Assign {
            dst: Place::Mem(MemRef::Field { base: buf, field }),
            src,
        },
        (b, action) => panic!("plan action {action:?} does not match statement {b:?}"),
    }
}
