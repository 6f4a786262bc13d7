//! Convenience builders for constructing SIMPLE IR by hand.
//!
//! The frontend produces IR from EARTH-C source; the builders below are the
//! programmatic alternative, used heavily by tests and by generated
//! workloads. Labels are assigned automatically.
//!
//! # Examples
//!
//! ```
//! use earth_ir::builder::FunctionBuilder;
//! use earth_ir::{BinOp, Cond, Operand, Program, StructDef, Ty, VarDecl};
//!
//! let mut prog = Program::new();
//! let mut point = StructDef::new("Point");
//! let fx = point.add_field("x", Ty::Double);
//! let pt = prog.add_struct(point);
//!
//! let mut fb = FunctionBuilder::new("get_x", Some(Ty::Double));
//! let p = fb.param(VarDecl::new("p", Ty::Ptr(pt)));
//! let t = fb.var(VarDecl::new("t", Ty::Double));
//! fb.load_deref(t, p, fx); // t = p->x (remote)
//! fb.ret(Some(Operand::Var(t)));
//! prog.add_function(fb.finish());
//! assert!(prog.function_by_name("get_x").is_some());
//! ```

use crate::func::{FuncId, Function};
use crate::stmt::{
    AtTarget, Basic, BinOp, BlkDir, Builtin, Cond, MemRef, Operand, Place, Rvalue, Stmt, StmtKind,
    UnOp,
};
use crate::types::{FieldId, StructId, Ty};
use crate::var::{VarDecl, VarId, VarOrigin};

/// Builds a [`Function`] incrementally, maintaining a stack of open
/// statement sequences so nested control flow reads naturally.
#[derive(Debug)]
pub struct FunctionBuilder {
    func: Function,
    /// Stack of open statement lists; the innermost is last.
    frames: Vec<Vec<Stmt>>,
    temp_counter: u32,
}

impl FunctionBuilder {
    /// Starts building a function with the given name and return type.
    pub fn new(name: impl Into<String>, ret_ty: Option<Ty>) -> Self {
        FunctionBuilder {
            func: Function::new(name, ret_ty),
            frames: vec![Vec::new()],
            temp_counter: 0,
        }
    }

    /// Declares a parameter.
    pub fn param(&mut self, decl: VarDecl) -> VarId {
        self.func.add_param(decl)
    }

    /// Declares a local variable.
    pub fn var(&mut self, decl: VarDecl) -> VarId {
        self.func.add_var(decl)
    }

    /// Declares a fresh simplifier temporary of type `ty`.
    pub fn temp(&mut self, ty: Ty) -> VarId {
        self.temp_counter += 1;
        let name = format!("temp{}", self.temp_counter);
        self.func.add_var(VarDecl {
            origin: VarOrigin::SimplifyTemp,
            ..VarDecl::new(name, ty)
        })
    }

    /// Sets the type of a temporary declared before its type was known.
    pub fn set_temp_ty(&mut self, temp: VarId, ty: Ty) {
        self.func.var_mut(temp).ty = ty;
    }

    /// Read-only access to the function under construction.
    pub fn function(&self) -> &Function {
        &self.func
    }

    fn push(&mut self, kind: StmtKind) {
        let label = self.func.fresh_label();
        self.frames
            .last_mut()
            .expect("builder frame stack is never empty")
            .push(Stmt { label, kind });
    }

    /// Emits an arbitrary basic statement.
    pub fn basic(&mut self, b: Basic) {
        self.push(StmtKind::Basic(b));
    }

    /// `dst = src`
    pub fn assign(&mut self, dst: VarId, src: Operand) {
        self.basic(Basic::Assign {
            dst: Place::Var(dst),
            src: Rvalue::Use(src),
        });
    }

    /// `dst = a op b`
    pub fn binop(&mut self, dst: VarId, op: BinOp, a: Operand, b: Operand) {
        self.basic(Basic::Assign {
            dst: Place::Var(dst),
            src: Rvalue::Binary(op, a, b),
        });
    }

    /// `dst = op a`
    pub fn unop(&mut self, dst: VarId, op: UnOp, a: Operand) {
        self.basic(Basic::Assign {
            dst: Place::Var(dst),
            src: Rvalue::Unary(op, a),
        });
    }

    /// `dst = base->field` — a potentially remote read.
    pub fn load_deref(&mut self, dst: VarId, base: VarId, field: FieldId) {
        self.basic(Basic::Assign {
            dst: Place::Var(dst),
            src: Rvalue::Load(MemRef::Deref { base, field }),
        });
    }

    /// `base->field = src` — a potentially remote write.
    pub fn store_deref(&mut self, base: VarId, field: FieldId, src: Operand) {
        self.basic(Basic::Assign {
            dst: Place::Mem(MemRef::Deref { base, field }),
            src: Rvalue::Use(src),
        });
    }

    /// `dst = base.field` — a local struct-variable field read.
    pub fn load_field(&mut self, dst: VarId, base: VarId, field: FieldId) {
        self.basic(Basic::Assign {
            dst: Place::Var(dst),
            src: Rvalue::Load(MemRef::Field { base, field }),
        });
    }

    /// `base.field = src` — a local struct-variable field write.
    pub fn store_field(&mut self, base: VarId, field: FieldId, src: Operand) {
        self.basic(Basic::Assign {
            dst: Place::Mem(MemRef::Field { base, field }),
            src: Rvalue::Use(src),
        });
    }

    /// `dst = malloc(sizeof(S))`, optionally on an explicit node.
    pub fn malloc(&mut self, dst: VarId, struct_id: StructId, on: Option<Operand>) {
        self.basic(Basic::Assign {
            dst: Place::Var(dst),
            src: Rvalue::Malloc { struct_id, on },
        });
    }

    /// `dst = builtin(args...)`
    pub fn builtin(&mut self, dst: VarId, builtin: Builtin, args: Vec<Operand>) {
        self.basic(Basic::Assign {
            dst: Place::Var(dst),
            src: Rvalue::Builtin { builtin, args },
        });
    }

    /// `dst = f(args...) [@at]`
    pub fn call(&mut self, dst: Option<VarId>, func: FuncId, args: Vec<Operand>) {
        self.basic(Basic::Call {
            dst,
            func,
            args,
            at: None,
        });
    }

    /// `dst = f(args...) @ OWNER_OF(p)`
    pub fn call_at_owner(
        &mut self,
        dst: Option<VarId>,
        func: FuncId,
        args: Vec<Operand>,
        p: VarId,
    ) {
        self.basic(Basic::Call {
            dst,
            func,
            args,
            at: Some(AtTarget::OwnerOf(p)),
        });
    }

    /// `dst = f(args...) @ node`
    pub fn call_at_node(
        &mut self,
        dst: Option<VarId>,
        func: FuncId,
        args: Vec<Operand>,
        node: Operand,
    ) {
        self.basic(Basic::Call {
            dst,
            func,
            args,
            at: Some(AtTarget::Node(node)),
        });
    }

    /// `return [op]`
    pub fn ret(&mut self, op: Option<Operand>) {
        self.basic(Basic::Return(op));
    }

    /// `blkmov(ptr, &buf, ...)` or `blkmov(&buf, ptr, ...)` over the whole
    /// struct.
    pub fn blkmov(&mut self, dir: BlkDir, ptr: VarId, buf: VarId) {
        self.basic(Basic::BlkMov {
            dir,
            ptr,
            buf,
            range: None,
        });
    }

    /// Partial `blkmov` transferring `words` words starting at field
    /// `first`.
    pub fn blkmov_range(&mut self, dir: BlkDir, ptr: VarId, buf: VarId, first: u32, words: u32) {
        self.basic(Basic::BlkMov {
            dir,
            ptr,
            buf,
            range: Some((first, words)),
        });
    }

    /// `writeto(&var, value)`
    pub fn atomic_write(&mut self, var: VarId, value: Operand) {
        self.basic(Basic::AtomicWrite { var, value });
    }

    /// `addto(&var, value)`
    pub fn atomic_add(&mut self, var: VarId, value: Operand) {
        self.basic(Basic::AtomicAdd { var, value });
    }

    /// `dst = valueof(&var)`
    pub fn value_of(&mut self, dst: VarId, var: VarId) {
        self.basic(Basic::Assign {
            dst: Place::Var(dst),
            src: Rvalue::ValueOf(var),
        });
    }

    // ---- structured control flow -------------------------------------

    fn open(&mut self) {
        self.frames.push(Vec::new());
    }

    fn close(&mut self) -> Stmt {
        let body = self
            .frames
            .pop()
            .expect("builder frame stack is never empty");
        let label = self.func.fresh_label();
        Stmt {
            label,
            kind: StmtKind::Seq(body),
        }
    }

    // ---- imperative control-flow primitives ---------------------------
    //
    // The closure-based helpers below are convenient for infallible
    // construction; fallible producers (like the frontend's lowering, which
    // must propagate type errors out of nested blocks) use these explicit
    // begin/end primitives instead.

    /// Opens a nested statement sequence; statements emitted afterwards go
    /// into it until the matching [`FunctionBuilder::end_seq`].
    pub fn begin_seq(&mut self) {
        self.open();
    }

    /// Closes the innermost open sequence and returns it as a statement
    /// (without attaching it anywhere).
    ///
    /// # Panics
    ///
    /// Panics if there is no matching [`FunctionBuilder::begin_seq`].
    pub fn end_seq(&mut self) -> Stmt {
        assert!(self.frames.len() > 1, "end_seq without begin_seq");
        self.close()
    }

    /// Emits an `if` from pre-built branches (see
    /// [`FunctionBuilder::end_seq`]).
    pub fn emit_if(&mut self, cond: Cond, then_s: Stmt, else_s: Stmt) {
        self.push(StmtKind::If {
            cond,
            then_s: Box::new(then_s),
            else_s: Box::new(else_s),
        });
    }

    /// Emits a `switch` from pre-built case bodies.
    pub fn emit_switch(&mut self, scrut: Operand, cases: Vec<(i64, Stmt)>, default: Stmt) {
        self.push(StmtKind::Switch {
            scrut,
            cases,
            default: Box::new(default),
        });
    }

    /// Emits a `while` from a pre-built body.
    pub fn emit_while(&mut self, cond: Cond, body: Stmt) {
        self.push(StmtKind::While {
            cond,
            body: Box::new(body),
        });
    }

    /// Emits a `do ... while` from a pre-built body.
    pub fn emit_do_while(&mut self, body: Stmt, cond: Cond) {
        self.push(StmtKind::DoWhile {
            body: Box::new(body),
            cond,
        });
    }

    /// Emits a parallel sequence from pre-built arms.
    pub fn emit_par_seq(&mut self, arms: Vec<Stmt>) {
        self.push(StmtKind::ParSeq(arms));
    }

    /// Emits a `forall` from pre-built pieces. `init` and `step` must be
    /// basic statements.
    pub fn emit_forall(&mut self, init: Basic, cond: Cond, step: Basic, body: Stmt) {
        let init_label = self.func.fresh_label();
        let step_label = self.func.fresh_label();
        self.push(StmtKind::Forall {
            init: Box::new(Stmt {
                label: init_label,
                kind: StmtKind::Basic(init),
            }),
            cond,
            step: Box::new(Stmt {
                label: step_label,
                kind: StmtKind::Basic(step),
            }),
            body: Box::new(body),
        });
    }

    /// `if (cond) { then() }`
    pub fn if_then(&mut self, cond: Cond, then_b: impl FnOnce(&mut Self)) {
        self.if_then_else(cond, then_b, |_| {});
    }

    /// `if (cond) { then() } else { else() }`
    pub fn if_then_else(
        &mut self,
        cond: Cond,
        then_b: impl FnOnce(&mut Self),
        else_b: impl FnOnce(&mut Self),
    ) {
        self.open();
        then_b(self);
        let then_s = self.close();
        self.open();
        else_b(self);
        let else_s = self.close();
        self.push(StmtKind::If {
            cond,
            then_s: Box::new(then_s),
            else_s: Box::new(else_s),
        });
    }

    /// `switch (scrut) { case v_i: case_i() ... default: default_b() }`
    #[allow(clippy::type_complexity)] // boxed-closure arms are the natural shape here
    pub fn switch(
        &mut self,
        scrut: Operand,
        cases: Vec<(i64, Box<dyn FnOnce(&mut Self) + '_>)>,
        default_b: impl FnOnce(&mut Self),
    ) {
        let mut built = Vec::with_capacity(cases.len());
        for (val, f) in cases {
            self.open();
            f(self);
            built.push((val, self.close()));
        }
        self.open();
        default_b(self);
        let default = self.close();
        self.push(StmtKind::Switch {
            scrut,
            cases: built,
            default: Box::new(default),
        });
    }

    /// `while (cond) { body() }`
    pub fn while_loop(&mut self, cond: Cond, body: impl FnOnce(&mut Self)) {
        self.open();
        body(self);
        let body_s = self.close();
        self.push(StmtKind::While {
            cond,
            body: Box::new(body_s),
        });
    }

    /// `do { body() } while (cond)`
    pub fn do_while(&mut self, body: impl FnOnce(&mut Self), cond: Cond) {
        self.open();
        body(self);
        let body_s = self.close();
        self.push(StmtKind::DoWhile {
            body: Box::new(body_s),
            cond,
        });
    }

    /// `{^ arm_1; ...; arm_n ^}` — a parallel statement sequence.
    #[allow(clippy::type_complexity)]
    pub fn par_seq(&mut self, arms: Vec<Box<dyn FnOnce(&mut Self) + '_>>) {
        let mut built = Vec::with_capacity(arms.len());
        for f in arms {
            self.open();
            f(self);
            built.push(self.close());
        }
        self.push(StmtKind::ParSeq(built));
    }

    /// `forall (init; cond; step) { body() }`
    ///
    /// `init` and `step` are single basic statements, per SIMPLE's
    /// structured `for` form.
    pub fn forall(&mut self, init: Basic, cond: Cond, step: Basic, body: impl FnOnce(&mut Self)) {
        let init_label = self.func.fresh_label();
        let step_label = self.func.fresh_label();
        self.open();
        body(self);
        let body_s = self.close();
        self.push(StmtKind::Forall {
            init: Box::new(Stmt {
                label: init_label,
                kind: StmtKind::Basic(init),
            }),
            cond,
            step: Box::new(Stmt {
                label: step_label,
                kind: StmtKind::Basic(step),
            }),
            body: Box::new(body_s),
        });
    }

    /// Finishes the function: the top-level statement list becomes the body.
    ///
    /// # Panics
    ///
    /// Panics if control-flow builders were left unbalanced (can only happen
    /// through incorrect internal use; the closure-based API keeps the stack
    /// balanced by construction).
    pub fn finish(mut self) -> Function {
        assert_eq!(self.frames.len(), 1, "unbalanced builder frames");
        let body = self.frames.pop().expect("frame stack has one entry");
        let label = self.func.fresh_label();
        self.func.body = Stmt {
            label,
            kind: StmtKind::Seq(body),
        };
        self.func
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::StructDef;
    use crate::Program;

    #[test]
    fn builds_nested_control_flow() {
        let mut prog = Program::new();
        let mut node = StructDef::new("Node");
        let next = node.add_field("next", Ty::Ptr(StructId(0)));
        let val = node.add_field("value", Ty::Int);
        let sid = prog.add_struct(node);

        let mut fb = FunctionBuilder::new("sum", Some(Ty::Int));
        let head = fb.param(VarDecl::new("head", Ty::Ptr(sid)));
        let p = fb.var(VarDecl::new("p", Ty::Ptr(sid)));
        let acc = fb.var(VarDecl::new("acc", Ty::Int));
        let t = fb.temp(Ty::Int);
        fb.assign(acc, Operand::int(0));
        fb.assign(p, Operand::Var(head));
        fb.while_loop(
            Cond::new(BinOp::Ne, Operand::Var(p), Operand::null()),
            |b| {
                b.load_deref(t, p, val);
                b.binop(acc, BinOp::Add, Operand::Var(acc), Operand::Var(t));
                b.load_deref(p, p, next);
            },
        );
        fb.ret(Some(Operand::Var(acc)));
        let f = fb.finish();

        // Labels must be unique.
        let labels = f.body.labels();
        let mut sorted = labels.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), labels.len());

        // The loop body contains three basic statements.
        assert_eq!(f.basic_stmts().len(), 6);
        prog.add_function(f);
    }

    #[test]
    fn par_seq_and_forall() {
        let mut fb = FunctionBuilder::new("par", None);
        let i = fb.var(VarDecl::new("i", Ty::Int));
        fb.par_seq(vec![
            Box::new(move |b: &mut FunctionBuilder| b.assign(i, Operand::int(1))),
            Box::new(move |b: &mut FunctionBuilder| b.assign(i, Operand::int(2))),
        ]);
        fb.forall(
            Basic::Assign {
                dst: Place::Var(i),
                src: Rvalue::Use(Operand::int(0)),
            },
            Cond::new(BinOp::Lt, Operand::Var(i), Operand::int(10)),
            Basic::Assign {
                dst: Place::Var(i),
                src: Rvalue::Binary(BinOp::Add, Operand::Var(i), Operand::int(1)),
            },
            |b| b.assign(i, Operand::Var(i)),
        );
        let f = fb.finish();
        let mut kinds = Vec::new();
        f.body.walk(&mut |s| {
            kinds.push(std::mem::discriminant(&s.kind));
        });
        assert!(f.body.labels().windows(2).all(|w| w[0] != w[1]));
        assert_eq!(f.basic_stmts().len(), 5); // 2 par arms + init + step + body
    }

    #[test]
    fn temps_are_named_sequentially() {
        let mut fb = FunctionBuilder::new("t", None);
        let a = fb.temp(Ty::Int);
        let b = fb.temp(Ty::Double);
        let f = fb.finish();
        assert_eq!(f.var(a).name, "temp1");
        assert_eq!(f.var(b).name, "temp2");
        assert_eq!(f.var(a).origin, VarOrigin::SimplifyTemp);
    }
}
