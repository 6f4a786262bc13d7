//! Lowering from the EARTH-C AST to three-address SIMPLE IR.
//!
//! This pass combines type checking and the *simplification* the paper
//! assumes has already happened: every expression is decomposed so that a
//! basic statement carries at most one potentially-remote memory operation.
//! No common-subexpression elimination is performed — `p->x * p->x` lowers
//! to two loads, exactly as in the paper's Figure 3(b); eliminating the
//! redundancy is the communication optimizer's job.
//!
//! Nested struct-typed fields are flattened: `village->hosp.free_personnel`
//! becomes a single IR field named `hosp.free_personnel`, preserving the
//! memory layout (and hence `blkmov` sizes) of the unflattened struct.

use crate::ast::{self, AstBinOp, AstUnOp, Expr, Item, LValue, Stmt, TypeExpr, Unit};
use crate::token::Pos;
use earth_ir::builder::FunctionBuilder;
use earth_ir::{
    AtTarget, Basic, BinOp, Builtin, Cond, FuncId, Operand, Program, StructDef, StructId, Ty, UnOp,
    VarDecl, VarId,
};
use std::collections::HashMap;
use std::fmt;

/// A type-checking / lowering error.
#[derive(Debug, Clone, PartialEq)]
pub struct LowerError {
    /// Where the error occurred.
    pub pos: Pos,
    /// Description of the problem.
    pub message: String,
}

impl fmt::Display for LowerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "error at {}: {}", self.pos, self.message)
    }
}

impl std::error::Error for LowerError {}

fn err<T>(pos: Pos, message: impl Into<String>) -> Result<T, LowerError> {
    Err(LowerError {
        pos,
        message: message.into(),
    })
}

/// Lowers a parsed translation unit to a SIMPLE IR program.
///
/// # Errors
///
/// Returns the first type error, unresolved name, unsupported construct, or
/// SIMPLE-form restriction violation (e.g. an impure `forall` condition).
pub fn lower_unit(unit: &Unit) -> Result<Program, LowerError> {
    let mut prog = Program::new();

    // Pass 1a: declare all struct names.
    let mut struct_ids: HashMap<String, StructId> = HashMap::new();
    for item in &unit.items {
        if let Item::Struct(s) = item {
            if struct_ids.contains_key(&s.name) {
                return err(s.pos, format!("duplicate struct `{}`", s.name));
            }
            let id = prog.add_struct(StructDef::new(s.name.clone()));
            struct_ids.insert(s.name.clone(), id);
        }
    }

    // Pass 1b: flatten fields (nested structs become dotted field names).
    let mut field_maps: HashMap<StructId, HashMap<String, earth_ir::FieldId>> = HashMap::new();
    for item in &unit.items {
        if let Item::Struct(s) = item {
            let sid = struct_ids[&s.name];
            let mut def = StructDef::new(s.name.clone());
            let mut map = HashMap::new();
            let mut stack = vec![s.name.clone()];
            flatten_struct(unit, &struct_ids, s, "", &mut def, &mut map, &mut stack)?;
            field_maps.insert(sid, map);
            // Replace the placeholder definition.
            prog.set_struct_def(sid, def);
        }
    }

    // Pass 2a: declare function signatures.
    let mut sigs: HashMap<String, (FuncId, Vec<Ty>, Option<Ty>)> = HashMap::new();
    let mut decls: Vec<&ast::FuncDecl> = Vec::new();
    for item in &unit.items {
        if let Item::Func(f) = item {
            if sigs.contains_key(&f.name) {
                return err(f.pos, format!("duplicate function `{}`", f.name));
            }
            if Builtin::by_name(&f.name).is_some() || is_special_call(&f.name) {
                return err(f.pos, format!("`{}` shadows a builtin", f.name));
            }
            let ret = lower_ret_type(&f.ret, &struct_ids, f.pos)?;
            let mut ptys = Vec::new();
            for p in &f.params {
                ptys.push(lower_type(&p.ty, &struct_ids, p.pos)?);
            }
            // Reserve the FuncId by inserting a shell function now.
            let shell = earth_ir::Function::new(f.name.clone(), ret);
            let fid = prog.add_function(shell);
            sigs.insert(f.name.clone(), (fid, ptys, ret));
            decls.push(f);
        }
    }

    // Pass 2b: lower bodies.
    let ctx = UnitCtx {
        struct_ids: &struct_ids,
        field_maps: &field_maps,
        sigs: &sigs,
    };
    for f in decls {
        let lowered = lower_function(&prog, &ctx, f)?;
        let fid = sigs[&f.name].0;
        prog.replace_function(fid, lowered);
    }

    earth_ir::validate_program(&prog).map_err(|e| LowerError {
        pos: Pos::default(),
        message: format!("internal error: lowering produced invalid IR: {e}"),
    })?;
    Ok(prog)
}

fn flatten_struct(
    unit: &Unit,
    struct_ids: &HashMap<String, StructId>,
    s: &ast::StructDecl,
    prefix: &str,
    def: &mut StructDef,
    map: &mut HashMap<String, earth_ir::FieldId>,
    stack: &mut Vec<String>,
) -> Result<(), LowerError> {
    for (ty, fname) in &s.fields {
        let path = if prefix.is_empty() {
            fname.clone()
        } else {
            format!("{prefix}.{fname}")
        };
        match ty {
            TypeExpr::Int => {
                let id = def.add_field(path.clone(), Ty::Int);
                map.insert(path, id);
            }
            TypeExpr::Double => {
                let id = def.add_field(path.clone(), Ty::Double);
                map.insert(path, id);
            }
            TypeExpr::Ptr(name) => {
                let target = struct_ids.get(name).ok_or_else(|| LowerError {
                    pos: s.pos,
                    message: format!("unknown struct `{name}` in field `{path}`"),
                })?;
                let id = def.add_field(path.clone(), Ty::Ptr(*target));
                map.insert(path, id);
            }
            TypeExpr::Struct(name) => {
                if stack.contains(name) {
                    return err(
                        s.pos,
                        format!("struct `{}` recursively contains itself by value", name),
                    );
                }
                let inner = find_struct_decl(unit, name).ok_or_else(|| LowerError {
                    pos: s.pos,
                    message: format!("unknown struct `{name}` in field `{path}`"),
                })?;
                stack.push(name.clone());
                flatten_struct(unit, struct_ids, inner, &path, def, map, stack)?;
                stack.pop();
            }
            TypeExpr::Void => {
                return err(s.pos, format!("field `{path}` cannot have type void"));
            }
        }
    }
    Ok(())
}

fn find_struct_decl<'a>(unit: &'a Unit, name: &str) -> Option<&'a ast::StructDecl> {
    unit.items.iter().find_map(|i| match i {
        Item::Struct(s) if s.name == name => Some(s),
        _ => None,
    })
}

fn lower_type(
    ty: &TypeExpr,
    struct_ids: &HashMap<String, StructId>,
    pos: Pos,
) -> Result<Ty, LowerError> {
    match ty {
        TypeExpr::Int => Ok(Ty::Int),
        TypeExpr::Double => Ok(Ty::Double),
        TypeExpr::Void => err(pos, "`void` is only valid as a return type"),
        TypeExpr::Struct(n) => match struct_ids.get(n) {
            Some(id) => Ok(Ty::Struct(*id)),
            None => err(pos, format!("unknown struct `{n}`")),
        },
        TypeExpr::Ptr(n) => match struct_ids.get(n) {
            Some(id) => Ok(Ty::Ptr(*id)),
            None => err(pos, format!("unknown struct `{n}`")),
        },
    }
}

fn lower_ret_type(
    ty: &TypeExpr,
    struct_ids: &HashMap<String, StructId>,
    pos: Pos,
) -> Result<Option<Ty>, LowerError> {
    if matches!(ty, TypeExpr::Void) {
        Ok(None)
    } else {
        lower_type(ty, struct_ids, pos).map(Some)
    }
}

fn is_special_call(name: &str) -> bool {
    matches!(
        name,
        "writeto" | "addto" | "valueof" | "malloc" | "malloc_on"
    )
}

struct UnitCtx<'a> {
    struct_ids: &'a HashMap<String, StructId>,
    field_maps: &'a HashMap<StructId, HashMap<String, earth_ir::FieldId>>,
    sigs: &'a HashMap<String, (FuncId, Vec<Ty>, Option<Ty>)>,
}

/// The inferred type of an expression; `Null` unifies with any pointer.
#[derive(Debug, Clone, Copy, PartialEq)]
enum ETy {
    T(Ty),
    Null,
}

impl ETy {
    fn display(self, prog: &Program) -> String {
        match self {
            ETy::T(Ty::Int) => "int".into(),
            ETy::T(Ty::Double) => "double".into(),
            ETy::T(Ty::Ptr(s)) => format!("{}*", prog.struct_def(s).name),
            ETy::T(Ty::Struct(s)) => prog.struct_def(s).name.clone(),
            ETy::Null => "NULL".into(),
        }
    }
}

struct FnLower<'a> {
    prog: &'a Program,
    ctx: &'a UnitCtx<'a>,
    fb: FunctionBuilder,
    names: HashMap<String, VarId>,
    ret_ty: Option<Ty>,
    fname: String,
}

fn lower_function(
    prog: &Program,
    ctx: &UnitCtx<'_>,
    f: &ast::FuncDecl,
) -> Result<earth_ir::Function, LowerError> {
    let ret = lower_ret_type(&f.ret, ctx.struct_ids, f.pos)?;
    let mut lw = FnLower {
        prog,
        ctx,
        fb: FunctionBuilder::new(f.name.clone(), ret),
        names: HashMap::new(),
        ret_ty: ret,
        fname: f.name.clone(),
    };
    for p in &f.params {
        let ty = lower_type(&p.ty, ctx.struct_ids, p.pos)?;
        if p.quals.shared {
            return err(p.pos, "parameters cannot be `shared`");
        }
        let mut decl = VarDecl::new(p.name.clone(), ty);
        if p.quals.local {
            if !ty.is_ptr() {
                return err(p.pos, "`local` only applies to pointers");
            }
            decl = VarDecl::local(p.name.clone(), ty);
        }
        if lw.names.contains_key(&p.name) {
            return err(p.pos, format!("duplicate parameter `{}`", p.name));
        }
        let id = lw.fb.param(decl);
        lw.names.insert(p.name.clone(), id);
    }
    lw.stmts(&f.body)?;
    Ok(lw.fb.finish())
}

impl<'a> FnLower<'a> {
    fn struct_name(&self, sid: StructId) -> &str {
        &self.prog.struct_def(sid).name
    }

    fn lookup(&self, name: &str, pos: Pos) -> Result<VarId, LowerError> {
        self.names.get(name).copied().ok_or_else(|| LowerError {
            pos,
            message: format!("unknown variable `{name}` in `{}`", self.fname),
        })
    }

    fn var_ty(&self, v: VarId) -> Ty {
        self.fb.function().var(v).ty
    }

    fn is_shared(&self, v: VarId) -> bool {
        self.fb.function().var(v).shared
    }

    /// Resolves a flattened field path on struct `sid`.
    fn field(
        &self,
        sid: StructId,
        path: &[String],
        pos: Pos,
    ) -> Result<earth_ir::FieldId, LowerError> {
        let joined = path.join(".");
        self.ctx.field_maps[&sid]
            .get(&joined)
            .copied()
            .ok_or_else(|| LowerError {
                pos,
                message: format!(
                    "struct `{}` has no field `{}`",
                    self.struct_name(sid),
                    joined
                ),
            })
    }

    fn field_ty(&self, sid: StructId, fid: earth_ir::FieldId) -> Ty {
        self.prog.struct_def(sid).field(fid).ty
    }

    // ---- statements ---------------------------------------------------

    fn stmts(&mut self, ss: &[Stmt]) -> Result<(), LowerError> {
        for s in ss {
            self.stmt(s)?;
        }
        Ok(())
    }

    /// Lowers `body`, then a loop's `step`, then `t = bool(cond)` to
    /// re-test a loop condition, into a fresh sequence.
    fn seq(
        &mut self,
        body: &[Stmt],
        step: Option<&Stmt>,
        retest: Option<(VarId, &Expr)>,
    ) -> Result<earth_ir::Stmt, LowerError> {
        self.fb.begin_seq();
        self.stmts(body)?;
        if let Some(st) = step {
            self.stmt(st)?;
        }
        if let Some((t, cond)) = retest {
            self.assign_bool(t, cond)?;
        }
        Ok(self.fb.end_seq())
    }

    fn stmt(&mut self, s: &Stmt) -> Result<(), LowerError> {
        // Each form lowers in its own function, so the frame that recursion
        // passes through stays small.
        match s {
            Stmt::Block(ss) => self.stmts(ss),
            Stmt::Decl {
                ty,
                quals,
                name,
                init,
                pos,
            } => self.decl(ty, *quals, name, init.as_ref(), *pos),
            Stmt::Assign { lv, rhs, pos } => self.assign(lv, rhs, *pos),
            Stmt::ExprStmt(e) => self.expr_stmt(e),
            Stmt::If {
                cond,
                then_s,
                else_s,
                ..
            } => self.if_stmt(cond, then_s, else_s),
            Stmt::While { cond, body, .. } => self.while_loop(cond, body, None),
            Stmt::DoWhile { body, cond, .. } => self.do_while(body, cond),
            Stmt::For {
                init,
                cond,
                step,
                body,
                ..
            } => self.for_loop(init.as_deref(), cond.as_ref(), step.as_deref(), body),
            Stmt::Forall {
                init,
                cond,
                step,
                body,
                pos,
            } => self.forall(init, cond, step, body, *pos),
            Stmt::Switch {
                scrut,
                cases,
                default,
                ..
            } => self.switch(scrut, cases, default),
            Stmt::ParSeq(arms, _) => {
                let mut built = Vec::with_capacity(arms.len());
                for arm in arms {
                    built.push(self.seq(std::slice::from_ref(arm), None, None)?);
                }
                self.fb.emit_par_seq(built);
                Ok(())
            }
            Stmt::Return(e, pos) => self.ret(e.as_ref(), *pos),
        }
    }

    fn decl(
        &mut self,
        ty: &TypeExpr,
        quals: ast::Quals,
        name: &str,
        init: Option<&Expr>,
        pos: Pos,
    ) -> Result<(), LowerError> {
        if self.names.contains_key(name) {
            return err(
                pos,
                format!("duplicate variable `{name}` (shadowing is not supported)"),
            );
        }
        let ir_ty = lower_type(ty, self.ctx.struct_ids, pos)?;
        let decl = if quals.shared {
            if ir_ty != Ty::Int {
                return err(pos, "`shared` variables must have type int");
            }
            VarDecl::shared(name, ir_ty)
        } else if quals.local {
            if !ir_ty.is_ptr() {
                return err(pos, "`local` only applies to pointers");
            }
            VarDecl::local(name, ir_ty)
        } else {
            VarDecl::new(name, ir_ty)
        };
        let id = self.fb.var(decl);
        self.names.insert(name.to_string(), id);
        if let Some(e) = init {
            if quals.shared {
                return err(pos, "initialize shared variables with writeto(&x, v)");
            }
            self.value(e, Some(id))?;
        }
        Ok(())
    }

    fn assign(&mut self, lv: &LValue, rhs: &Expr, pos: Pos) -> Result<(), LowerError> {
        match lv {
            LValue::Var(name, vpos) => {
                let v = self.lookup(name, *vpos)?;
                if self.is_shared(v) {
                    return err(pos, "assign shared variables with writeto(&x, v)");
                }
                self.value(rhs, Some(v)).map(drop)
            }
            LValue::FieldPath {
                base,
                arrow,
                path,
                pos,
            } => {
                let (b, fid, fty, is_deref) = self.field_access(base, *arrow, path, *pos)?;
                let (op, ety) = self.value(rhs, None)?;
                self.check_assignable(ETy::T(fty), ety, rhs.pos())?;
                if is_deref {
                    self.fb.store_deref(b, fid, op);
                } else {
                    self.fb.store_field(b, fid, op);
                }
                Ok(())
            }
        }
    }

    fn expr_stmt(&mut self, e: &Expr) -> Result<(), LowerError> {
        match e {
            Expr::Call {
                name,
                args,
                at,
                pos,
            } if name == "writeto" || name == "addto" => {
                if at.is_some() {
                    return err(*pos, "atomic operations cannot take `@` clauses");
                }
                let var = self.shared_ref_arg(args, 0, *pos)?;
                if args.len() != 2 {
                    return err(*pos, format!("`{name}` expects 2 arguments"));
                }
                let (val, vty) = self.value(&args[1], None)?;
                self.check_assignable(ETy::T(Ty::Int), vty, args[1].pos())?;
                if name == "writeto" {
                    self.fb.atomic_write(var, val);
                } else {
                    self.fb.atomic_add(var, val);
                }
                Ok(())
            }
            Expr::Call {
                name,
                args,
                at,
                pos,
            } if self.ctx.sigs.contains_key(name) => self.user_call(name, args, at, *pos, None),
            Expr::Call { .. } => self.value(e, None).map(drop),
            _ => err(e.pos(), "expression statements must be calls"),
        }
    }

    fn if_stmt(&mut self, cond: &Expr, then_s: &[Stmt], else_s: &[Stmt]) -> Result<(), LowerError> {
        let c = self.cond(cond)?;
        let then_s = self.seq(then_s, None, None)?;
        let else_s = self.seq(else_s, None, None)?;
        self.fb.emit_if(c, then_s, else_s);
        Ok(())
    }

    /// `while (cond) { body; step; }`. An impure condition becomes
    /// `t = cond; while (t != 0) { body; step; t = cond; }`.
    fn while_loop(
        &mut self,
        cond: &Expr,
        body: &[Stmt],
        step: Option<&Stmt>,
    ) -> Result<(), LowerError> {
        if let Some(c) = self.pure_cond(cond)? {
            let b = self.seq(body, step, None)?;
            self.fb.emit_while(c, b);
        } else {
            let t = self.fb.temp(Ty::Int);
            self.assign_bool(t, cond)?;
            let b = self.seq(body, step, Some((t, cond)))?;
            self.fb.emit_while(nonzero(t), b);
        }
        Ok(())
    }

    /// `for` desugars to `init; while (cond) { body; step; }`.
    fn for_loop(
        &mut self,
        init: Option<&Stmt>,
        cond: Option<&Expr>,
        step: Option<&Stmt>,
        body: &[Stmt],
    ) -> Result<(), LowerError> {
        if let Some(i) = init {
            self.stmt(i)?;
        }
        let always = Expr::Int(1, Pos::default());
        self.while_loop(cond.unwrap_or(&always), body, step)
    }

    fn do_while(&mut self, body: &[Stmt], cond: &Expr) -> Result<(), LowerError> {
        if let Some(c) = self.pure_cond(cond)? {
            let b = self.seq(body, None, None)?;
            self.fb.emit_do_while(b, c);
        } else {
            let t = self.fb.temp(Ty::Int);
            let b = self.seq(body, None, Some((t, cond)))?;
            self.fb.emit_do_while(b, nonzero(t));
        }
        Ok(())
    }

    fn forall(
        &mut self,
        init: &Stmt,
        cond: &Expr,
        step: &Stmt,
        body: &[Stmt],
        pos: Pos,
    ) -> Result<(), LowerError> {
        let init_b = self.lower_single_basic(init, pos, "forall init")?;
        let Some(c) = self.pure_cond(cond)? else {
            return err(
                pos,
                "forall conditions must be simple comparisons over variables",
            );
        };
        let step_b = self.lower_single_basic(step, pos, "forall step")?;
        let b = self.seq(body, None, None)?;
        self.fb.emit_forall(init_b, c, step_b, b);
        Ok(())
    }

    fn switch(
        &mut self,
        scrut: &Expr,
        cases: &[(i64, Vec<Stmt>)],
        default: &[Stmt],
    ) -> Result<(), LowerError> {
        let (op, ety) = self.value(scrut, None)?;
        self.check_assignable(ETy::T(Ty::Int), ety, scrut.pos())?;
        let mut built = Vec::with_capacity(cases.len());
        for (v, body) in cases {
            built.push((*v, self.seq(body, None, None)?));
        }
        let def = self.seq(default, None, None)?;
        self.fb.emit_switch(op, built, def);
        Ok(())
    }

    fn ret(&mut self, e: Option<&Expr>, pos: Pos) -> Result<(), LowerError> {
        match (e, self.ret_ty) {
            (None, None) => self.fb.ret(None),
            (Some(e), Some(rt)) => {
                let (op, ety) = self.value(e, None)?;
                self.check_assignable(ETy::T(rt), ety, e.pos())?;
                self.fb.ret(Some(op));
            }
            (None, Some(_)) => return err(pos, "missing return value"),
            (Some(_), None) => return err(pos, "void function returns a value"),
        }
        Ok(())
    }

    /// Lowers a statement that must produce exactly one basic statement
    /// (used for `forall` init/step).
    fn lower_single_basic(&mut self, s: &Stmt, pos: Pos, what: &str) -> Result<Basic, LowerError> {
        let seq = self.seq(std::slice::from_ref(s), None, None)?;
        let earth_ir::StmtKind::Seq(mut ss) = seq.kind else {
            unreachable!()
        };
        if ss.len() != 1 {
            return err(
                pos,
                format!(
                    "{what} must lower to a single basic statement (got {})",
                    ss.len()
                ),
            );
        }
        match ss.pop().expect("length checked").kind {
            earth_ir::StmtKind::Basic(b) => Ok(b),
            _ => err(pos, format!("{what} must be a simple assignment")),
        }
    }

    /// Lowers a condition for an `if`: evaluation statements may be emitted
    /// before the branch.
    fn cond(&mut self, e: &Expr) -> Result<Cond, LowerError> {
        if let Some(c) = self.pure_cond(e)? {
            return Ok(c);
        }
        if let Expr::Binary { op, lhs, rhs, pos } = e {
            let ir_op = match op {
                AstBinOp::And | AstBinOp::Or => None,
                other => {
                    let o = ast_binop_to_ir(*other);
                    o.is_comparison().then_some(o)
                }
            };
            if let Some(ir_op) = ir_op {
                let (a, lt) = self.value(lhs, None)?;
                let (b, rt) = self.value(rhs, None)?;
                self.check_comparable(lt, rt, *pos)?;
                return Ok(Cond::new(ir_op, a, b));
            }
        }
        let t = self.fb.temp(Ty::Int);
        self.assign_bool(t, e)?;
        Ok(nonzero(t))
    }

    /// Tries to turn `e` into a condition without emitting any statements.
    fn pure_cond(&mut self, e: &Expr) -> Result<Option<Cond>, LowerError> {
        fn trivial(lw: &mut FnLower<'_>, e: &Expr) -> Result<Option<(Operand, ETy)>, LowerError> {
            match e {
                Expr::Int(..) | Expr::Double(..) | Expr::Null(..) | Expr::Var(..) => {
                    lw.value(e, None).map(Some)
                }
                _ => Ok(None),
            }
        }
        match e {
            Expr::Binary { op, lhs, rhs, pos } => {
                let ir_op = match op {
                    AstBinOp::And | AstBinOp::Or => return Ok(None),
                    other => ast_binop_to_ir(*other),
                };
                if !ir_op.is_comparison() {
                    return Ok(None);
                }
                let (Some((a, lt)), Some((b, rt))) = (trivial(self, lhs)?, trivial(self, rhs)?)
                else {
                    return Ok(None);
                };
                self.check_comparable(lt, rt, *pos)?;
                Ok(Some(Cond::new(ir_op, a, b)))
            }
            Expr::Var(..) | Expr::Int(..) => {
                let (op, ety) = self.value(e, None)?;
                Ok(Some(Cond::new(BinOp::Ne, op, zero_of(ety))))
            }
            _ => Ok(None),
        }
    }

    /// Emits `dst = (e != 0)` (or the direct comparison when `e` is one).
    fn assign_bool(&mut self, dst: VarId, e: &Expr) -> Result<(), LowerError> {
        match e {
            Expr::Binary {
                op: op @ (AstBinOp::And | AstBinOp::Or),
                lhs,
                rhs,
                ..
            } => self.lower_logical(*op, lhs, rhs, dst),
            Expr::Binary { op, .. } if ast_binop_to_ir(*op).is_comparison() => {
                self.value(e, Some(dst)).map(drop)
            }
            Expr::Unary {
                op: AstUnOp::Not, ..
            } => self.value(e, Some(dst)).map(drop),
            _ => {
                let (op, ety) = self.value(e, None)?;
                self.fb.binop(dst, BinOp::Ne, op, zero_of(ety));
                Ok(())
            }
        }
    }

    // ---- expressions --------------------------------------------------

    fn shared_ref_arg(&mut self, args: &[Expr], idx: usize, pos: Pos) -> Result<VarId, LowerError> {
        match args.get(idx) {
            Some(Expr::AddrOf(name, p)) => {
                let v = self.lookup(name, *p)?;
                if !self.is_shared(v) {
                    return err(*p, format!("`&{name}`: variable is not `shared`"));
                }
                Ok(v)
            }
            _ => err(pos, "expected `&shared_var` argument"),
        }
    }

    fn check_assignable(&self, dst: ETy, src: ETy, pos: Pos) -> Result<(), LowerError> {
        match (dst, src) {
            (ETy::T(Ty::Int), ETy::T(Ty::Int)) => Ok(()),
            (ETy::T(Ty::Double), ETy::T(Ty::Double)) => Ok(()),
            // Implicit numeric conversions, as in C.
            (ETy::T(Ty::Double), ETy::T(Ty::Int)) => Ok(()),
            (ETy::T(Ty::Int), ETy::T(Ty::Double)) => Ok(()),
            (ETy::T(Ty::Ptr(a)), ETy::T(Ty::Ptr(b))) if a == b => Ok(()),
            (ETy::T(Ty::Ptr(_)), ETy::Null) => Ok(()),
            (ETy::T(Ty::Struct(a)), ETy::T(Ty::Struct(b))) if a == b => Ok(()),
            _ => err(
                pos,
                format!(
                    "type mismatch: cannot assign {} to {}",
                    src.display(self.prog),
                    dst.display(self.prog)
                ),
            ),
        }
    }

    /// Resolves `base->path` (`arrow`) or `base.path` to the base variable,
    /// the flattened field, its type, and whether the access dereferences.
    fn field_access(
        &self,
        base: &str,
        arrow: bool,
        path: &[String],
        pos: Pos,
    ) -> Result<(VarId, earth_ir::FieldId, Ty, bool), LowerError> {
        let b = self.lookup(base, pos)?;
        let (sid, is_deref) = match (self.var_ty(b), arrow) {
            (Ty::Ptr(s), true) => (s, true),
            (Ty::Struct(s), false) => (s, false),
            (Ty::Ptr(_), false) => return err(pos, format!("`{base}` is a pointer; use `->`")),
            (Ty::Struct(_), true) => return err(pos, format!("`{base}` is a struct; use `.`")),
            _ => return err(pos, format!("`{base}` has no fields")),
        };
        let fid = self.field(sid, path, pos)?;
        Ok((b, fid, self.field_ty(sid, fid), is_deref))
    }

    /// Lowers `e` in one bottom-up pass and returns its operand and type.
    ///
    /// A leaf (constant or variable) is its own operand, copied into `dst`
    /// when one is given. Any other expression writes its final operation
    /// into `dst`, or else into a fresh temp. That temp is declared before
    /// the operands are lowered, so a result is numbered ahead of its
    /// operands' temps, and gets its type once the operands have theirs.
    /// A result written to `dst` must be assignable to it.
    fn value(&mut self, e: &Expr, dst: Option<VarId>) -> Result<(Operand, ETy), LowerError> {
        let leaf = match e {
            Expr::Int(v, _) => Some((Operand::int(*v), ETy::T(Ty::Int))),
            Expr::Double(v, _) => Some((Operand::double(*v), ETy::T(Ty::Double))),
            Expr::Null(_) => Some((Operand::null(), ETy::Null)),
            Expr::Var(name, pos) => {
                let v = self.lookup(name, *pos)?;
                if self.is_shared(v) {
                    return err(*pos, format!("read shared `{name}` with valueof(&{name})"));
                }
                Some((Operand::Var(v), ETy::T(self.var_ty(v))))
            }
            _ => None,
        };
        let out = match (leaf, dst) {
            (Some(leaf), None) => return Ok(leaf),
            (Some((op, ety)), Some(d)) => {
                self.check_assignable(ETy::T(self.var_ty(d)), ety, e.pos())?;
                self.fb.assign(d, op);
                return Ok((Operand::Var(d), ety));
            }
            (None, Some(d)) => d,
            (None, None) => self.fb.temp(Ty::Int),
        };
        // Calls skip `compound`, keeping nested calls' stack frames small.
        let ty = match e {
            Expr::Call {
                name,
                args,
                at,
                pos,
            } => self.call_value(name, args, at, *pos, out),
            _ => self.compound(e, out),
        }?;
        match dst {
            Some(d) => self.check_assignable(ETy::T(self.var_ty(d)), ETy::T(ty), e.pos())?,
            None => self.fb.set_temp_ty(out, ty),
        }
        Ok((Operand::Var(out), ETy::T(ty)))
    }

    /// Lowers the operands of the non-leaf expression `e`, emits its final
    /// operation into `out`, and returns the result type.
    fn compound(&mut self, e: &Expr, out: VarId) -> Result<Ty, LowerError> {
        match e {
            Expr::FieldPath {
                base,
                arrow,
                path,
                pos,
            } => {
                let (b, fid, fty, is_deref) = self.field_access(base, *arrow, path, *pos)?;
                if is_deref {
                    self.fb.load_deref(out, b, fid);
                } else {
                    self.fb.load_field(out, b, fid);
                }
                Ok(fty)
            }
            Expr::Unary { op, arg, .. } => {
                let (a, aty) = self.value(arg, None)?;
                let (op, ty) = match (op, aty) {
                    (AstUnOp::Not, _) => (UnOp::Not, Ty::Int),
                    (AstUnOp::Neg, ETy::T(t @ (Ty::Int | Ty::Double))) => (UnOp::Neg, t),
                    (AstUnOp::Neg, _) => return err(arg.pos(), "`-` requires a numeric operand"),
                };
                self.fb.unop(out, op, a);
                Ok(ty)
            }
            Expr::Binary {
                op: op @ (AstBinOp::And | AstBinOp::Or),
                lhs,
                rhs,
                ..
            } => {
                self.lower_logical(*op, lhs, rhs, out)?;
                Ok(Ty::Int)
            }
            Expr::Binary { op, lhs, rhs, pos } => {
                let (a, lty) = self.value(lhs, None)?;
                let (b, rty) = self.value(rhs, None)?;
                let op = ast_binop_to_ir(*op);
                let ty = if op.is_comparison() {
                    self.check_comparable(lty, rty, *pos)?;
                    Ty::Int
                } else {
                    match (lty, rty) {
                        (ETy::T(Ty::Int), ETy::T(Ty::Int)) => Ty::Int,
                        (ETy::T(Ty::Double), ETy::T(Ty::Int))
                        | (ETy::T(Ty::Int), ETy::T(Ty::Double))
                        | (ETy::T(Ty::Double), ETy::T(Ty::Double)) => Ty::Double,
                        _ => {
                            return err(
                                *pos,
                                format!(
                                    "arithmetic requires numeric operands, got {} and {}",
                                    lty.display(self.prog),
                                    rty.display(self.prog)
                                ),
                            )
                        }
                    }
                };
                self.fb.binop(out, op, a, b);
                Ok(ty)
            }
            Expr::AddrOf(_, pos) => {
                err(*pos, "`&` is only valid in writeto/addto/valueof arguments")
            }
            Expr::Sizeof(_, pos) => err(*pos, "`sizeof` is only valid inside malloc"),
            Expr::Int(..)
            | Expr::Double(..)
            | Expr::Null(..)
            | Expr::Var(..)
            | Expr::Call { .. } => {
                unreachable!("lowered by `value`")
            }
        }
    }

    /// Lowers a call in value position into `out`: the atomic read, the
    /// allocators, a builtin, or a non-void user function.
    fn call_value(
        &mut self,
        name: &str,
        args: &[Expr],
        at: &Option<ast::AtClause>,
        pos: Pos,
        out: VarId,
    ) -> Result<Ty, LowerError> {
        match name {
            "valueof" => {
                let v = self.shared_ref_arg(args, 0, pos)?;
                if args.len() != 1 {
                    return err(pos, "`valueof` expects 1 argument");
                }
                self.fb.value_of(out, v);
                return Ok(Ty::Int);
            }
            "malloc" | "malloc_on" => {
                let (sname, node) = match (name, args) {
                    ("malloc", [Expr::Sizeof(s, _)]) => (s, None),
                    ("malloc_on", [node, Expr::Sizeof(s, _)]) => (s, Some(node)),
                    _ => {
                        return err(
                            pos,
                            format!("`{name}` expects (node,)? sizeof(Struct) arguments"),
                        )
                    }
                };
                let sid = *self.ctx.struct_ids.get(sname).ok_or_else(|| LowerError {
                    pos,
                    message: format!("unknown struct `{sname}` in sizeof"),
                })?;
                let on = match node {
                    Some(n) => {
                        let (op, ety) = self.value(n, None)?;
                        self.check_assignable(ETy::T(Ty::Int), ety, n.pos())?;
                        Some(op)
                    }
                    None => None,
                };
                self.fb.malloc(out, sid, on);
                return Ok(Ty::Ptr(sid));
            }
            "writeto" | "addto" => {
                return err(pos, format!("`{name}` is a statement, not an expression"))
            }
            _ => {}
        }
        if let Some(b) = Builtin::by_name(name) {
            if args.len() != b.arity() {
                return err(
                    pos,
                    format!(
                        "`{}` expects {} arguments, got {}",
                        b.name(),
                        b.arity(),
                        args.len()
                    ),
                );
            }
            let mut ops = Vec::with_capacity(args.len());
            for a in args {
                ops.push(self.value(a, None)?.0);
            }
            self.fb.builtin(out, b, ops);
            return Ok(match b {
                Builtin::Sqrt | Builtin::Fabs | Builtin::PrintDouble => Ty::Double,
                _ => Ty::Int,
            });
        }
        let Some(&(_, _, ret)) = self.ctx.sigs.get(name) else {
            return err(pos, format!("unknown function `{name}`"));
        };
        let Some(ret) = ret else {
            return err(pos, format!("void function `{name}` used as a value"));
        };
        self.user_call(name, args, at, pos, Some(out))?;
        Ok(ret)
    }

    /// Emits a call of the user function `name`; `dst` receives the result,
    /// `None` discards it.
    fn user_call(
        &mut self,
        name: &str,
        args: &[Expr],
        at: &Option<ast::AtClause>,
        pos: Pos,
        dst: Option<VarId>,
    ) -> Result<(), LowerError> {
        let (func, ptys, _) = &self.ctx.sigs[name];
        if args.len() != ptys.len() {
            return err(
                pos,
                format!(
                    "`{name}` expects {} arguments, got {}",
                    ptys.len(),
                    args.len()
                ),
            );
        }
        let mut ops = Vec::with_capacity(args.len());
        for (a, pty) in args.iter().zip(ptys) {
            let (op, ety) = self.value(a, None)?;
            self.check_assignable(ETy::T(*pty), ety, a.pos())?;
            ops.push(op);
        }
        let at = match at {
            None => None,
            Some(ast::AtClause::OwnerOf(p)) => {
                let v = self.lookup(p, pos)?;
                if !self.var_ty(v).is_ptr() {
                    return err(pos, format!("OWNER_OF(`{p}`): not a pointer"));
                }
                Some(AtTarget::OwnerOf(v))
            }
            Some(ast::AtClause::Node(n)) => {
                let (op, ety) = self.value(n, None)?;
                self.check_assignable(ETy::T(Ty::Int), ety, n.pos())?;
                Some(AtTarget::Node(op))
            }
        };
        self.fb.basic(Basic::Call {
            dst,
            func: *func,
            args: ops,
            at,
        });
        Ok(())
    }

    fn check_comparable(&self, l: ETy, r: ETy, pos: Pos) -> Result<(), LowerError> {
        match (l, r) {
            (ETy::T(Ty::Int), ETy::T(Ty::Int))
            | (ETy::T(Ty::Double), ETy::T(Ty::Double))
            | (ETy::T(Ty::Double), ETy::T(Ty::Int))
            | (ETy::T(Ty::Int), ETy::T(Ty::Double)) => Ok(()),
            (ETy::T(Ty::Ptr(a)), ETy::T(Ty::Ptr(b))) if a == b => Ok(()),
            (ETy::T(Ty::Ptr(_)), ETy::Null) | (ETy::Null, ETy::T(Ty::Ptr(_))) => Ok(()),
            (ETy::Null, ETy::Null) => Ok(()),
            _ => err(
                pos,
                format!(
                    "cannot compare {} with {}",
                    l.display(self.prog),
                    r.display(self.prog)
                ),
            ),
        }
    }

    /// Short-circuit lowering of `&&` / `||` into branches:
    /// `dst = 0; if (l != 0) { dst = bool(rhs); }` for `&&`, and
    /// `dst = 1; if (l == 0) { dst = bool(rhs); }` for `||`.
    fn lower_logical(
        &mut self,
        op: AstBinOp,
        lhs: &Expr,
        rhs: &Expr,
        dst: VarId,
    ) -> Result<(), LowerError> {
        let (init, test) = match op {
            AstBinOp::And => (0, BinOp::Ne),
            AstBinOp::Or => (1, BinOp::Eq),
            _ => unreachable!("lower_logical only handles && and ||"),
        };
        let (l, lty) = self.value(lhs, None)?;
        self.fb.assign(dst, Operand::int(init));
        self.fb.begin_seq();
        let r = self.assign_bool(dst, rhs);
        let then_s = self.fb.end_seq();
        r?;
        self.fb.begin_seq();
        let else_s = self.fb.end_seq();
        self.fb
            .emit_if(Cond::new(test, l, zero_of(lty)), then_s, else_s);
        Ok(())
    }
}

/// `t != 0`, the test of a materialized boolean.
fn nonzero(t: VarId) -> Cond {
    Cond::new(BinOp::Ne, Operand::Var(t), Operand::int(0))
}

/// The zero a value of type `ty` is tested against: `NULL` for pointers.
fn zero_of(ty: ETy) -> Operand {
    match ty {
        ETy::T(Ty::Ptr(_)) | ETy::Null => Operand::null(),
        _ => Operand::int(0),
    }
}

fn ast_binop_to_ir(op: AstBinOp) -> BinOp {
    match op {
        AstBinOp::Add => BinOp::Add,
        AstBinOp::Sub => BinOp::Sub,
        AstBinOp::Mul => BinOp::Mul,
        AstBinOp::Div => BinOp::Div,
        AstBinOp::Rem => BinOp::Rem,
        AstBinOp::Eq => BinOp::Eq,
        AstBinOp::Ne => BinOp::Ne,
        AstBinOp::Lt => BinOp::Lt,
        AstBinOp::Le => BinOp::Le,
        AstBinOp::Gt => BinOp::Gt,
        AstBinOp::Ge => BinOp::Ge,
        AstBinOp::And | AstBinOp::Or => unreachable!("logical ops lower to branches"),
    }
}
