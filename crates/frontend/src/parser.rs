//! Recursive-descent parser for the EARTH-C subset.

use crate::ast::*;
use crate::token::{lex, LexError, Pos, Tok, Token};
use std::fmt;

/// A parse error with position information.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// Where the error occurred.
    pub pos: Pos,
    /// Description of the problem.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at {}: {}", self.pos, self.message)
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError {
            pos: e.pos,
            message: e.message,
        }
    }
}

/// The deepest nesting the parser accepts, counted over statements,
/// parenthesized or argument expressions, unary operators, and the height
/// of the left-deep trees that binary operators build. Parsing and lowering
/// recurse once per level, so the bound keeps both off the end of the
/// stack: a source at the limit parses and lowers on a 2 MiB thread (the
/// stack of test threads and `earthd` workers) in the debug profile.
pub const MAX_NESTING: usize = 256;

/// Parses a full translation unit.
///
/// # Errors
///
/// Returns the first lexical or syntactic error, including nesting deeper
/// than [`MAX_NESTING`].
pub fn parse_unit(src: &str) -> Result<Unit, ParseError> {
    let tokens = lex(src)?;
    let mut p = Parser {
        tokens,
        i: 0,
        depth: 0,
        peak: 0,
    };
    p.unit()
}

struct Parser {
    tokens: Vec<Token>,
    i: usize,
    /// Current nesting depth (see [`MAX_NESTING`]).
    depth: usize,
    /// Deepest level reached since the innermost enclosing operator chain
    /// started its current operand; chains read it to learn the height of
    /// what they just parsed.
    peak: usize,
}

impl Parser {
    fn peek(&self) -> &Tok {
        &self.tokens[self.i].tok
    }

    fn peek2(&self) -> &Tok {
        &self.tokens[(self.i + 1).min(self.tokens.len() - 1)].tok
    }

    fn pos(&self) -> Pos {
        self.tokens[self.i].pos
    }

    fn bump(&mut self) -> Tok {
        let t = self.tokens[self.i].tok.clone();
        if self.i + 1 < self.tokens.len() {
            self.i += 1;
        }
        t
    }

    fn eat(&mut self, t: &Tok) -> bool {
        if self.peek() == t {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, t: Tok) -> Result<(), ParseError> {
        if self.peek() == &t {
            self.bump();
            Ok(())
        } else {
            Err(self.err(format!("expected {t}, found {}", self.peek())))
        }
    }

    fn err(&self, message: String) -> ParseError {
        ParseError {
            pos: self.pos(),
            message,
        }
    }

    fn too_deep(pos: Pos) -> ParseError {
        ParseError {
            pos,
            message: format!("nesting too deep (more than {MAX_NESTING} levels)"),
        }
    }

    /// Descends one nesting level; [`Parser::leave`] undoes it.
    fn enter(&mut self) -> Result<(), ParseError> {
        self.depth += 1;
        self.peak = self.peak.max(self.depth);
        if self.depth > MAX_NESTING {
            return Err(Self::too_deep(self.pos()));
        }
        Ok(())
    }

    fn leave(&mut self) {
        self.depth -= 1;
    }

    /// Out of line, so the recursive productions' frames carry no
    /// formatting machinery.
    fn unexpected(&self, what: &str) -> ParseError {
        self.err(format!("expected {what}, found {}", self.peek()))
    }

    fn ident(&mut self) -> Result<String, ParseError> {
        match self.peek().clone() {
            Tok::Ident(s) => {
                self.bump();
                Ok(s)
            }
            other => Err(self.err(format!("expected identifier, found {other}"))),
        }
    }

    // ---- top level ----------------------------------------------------

    fn unit(&mut self) -> Result<Unit, ParseError> {
        let mut items = Vec::new();
        while self.peek() != &Tok::Eof {
            if self.peek() == &Tok::KwStruct && matches!(self.peek2(), Tok::Ident(_)) {
                // Could be a struct definition or a function returning a
                // struct pointer; look ahead for `{` after the name.
                let save = self.i;
                self.bump(); // struct
                let _name = self.ident()?;
                let is_def = self.peek() == &Tok::LBrace;
                self.i = save;
                if is_def {
                    items.push(Item::Struct(self.struct_decl()?));
                    continue;
                }
            }
            items.push(Item::Func(self.func_decl()?));
        }
        Ok(Unit { items })
    }

    fn struct_decl(&mut self) -> Result<StructDecl, ParseError> {
        let pos = self.pos();
        self.expect(Tok::KwStruct)?;
        let name = self.ident()?;
        self.expect(Tok::LBrace)?;
        let mut fields = Vec::new();
        while self.peek() != &Tok::RBrace {
            let ty = self.type_expr()?;
            let fname = self.ident()?;
            self.expect(Tok::Semi)?;
            fields.push((ty, fname));
        }
        self.expect(Tok::RBrace)?;
        self.expect(Tok::Semi)?;
        Ok(StructDecl { name, fields, pos })
    }

    /// Parses a type: `int`, `double`, `void`, `Name`, `Name*`,
    /// `struct Name`, `struct Name*`.
    fn type_expr(&mut self) -> Result<TypeExpr, ParseError> {
        let base = match self.peek().clone() {
            Tok::KwInt => {
                self.bump();
                TypeExpr::Int
            }
            Tok::KwDouble => {
                self.bump();
                TypeExpr::Double
            }
            Tok::KwVoid => {
                self.bump();
                TypeExpr::Void
            }
            Tok::KwStruct => {
                self.bump();
                let n = self.ident()?;
                TypeExpr::Struct(n)
            }
            Tok::Ident(n) => {
                self.bump();
                TypeExpr::Struct(n)
            }
            other => return Err(self.err(format!("expected a type, found {other}"))),
        };
        if self.eat(&Tok::Star) {
            match base {
                TypeExpr::Struct(n) => Ok(TypeExpr::Ptr(n)),
                _ => Err(self.err("only struct types may be pointed to".into())),
            }
        } else {
            Ok(base)
        }
    }

    fn func_decl(&mut self) -> Result<FuncDecl, ParseError> {
        let pos = self.pos();
        let ret = self.type_expr()?;
        let name = self.ident()?;
        self.expect(Tok::LParen)?;
        let mut params = Vec::new();
        if self.peek() != &Tok::RParen {
            loop {
                params.push(self.param()?);
                if !self.eat(&Tok::Comma) {
                    break;
                }
            }
        }
        self.expect(Tok::RParen)?;
        self.expect(Tok::LBrace)?;
        let body = self.stmt_list(&Tok::RBrace)?;
        self.expect(Tok::RBrace)?;
        Ok(FuncDecl {
            ret,
            name,
            params,
            body,
            pos,
        })
    }

    /// Parses a parameter: `[qualifiers] type [local] [*] name`, accepting
    /// the paper's `node local *p` ordering as well as `local node *p`.
    fn param(&mut self) -> Result<Param, ParseError> {
        let pos = self.pos();
        let mut quals = Quals::default();
        while self.peek() == &Tok::KwLocal || self.peek() == &Tok::KwShared {
            match self.bump() {
                Tok::KwLocal => quals.local = true,
                Tok::KwShared => quals.shared = true,
                _ => unreachable!(),
            }
        }
        // Base type name (possibly followed by `local` then `*`).
        let base = match self.peek().clone() {
            Tok::KwInt => {
                self.bump();
                TypeExpr::Int
            }
            Tok::KwDouble => {
                self.bump();
                TypeExpr::Double
            }
            Tok::KwStruct => {
                self.bump();
                let n = self.ident()?;
                TypeExpr::Struct(n)
            }
            Tok::Ident(n) => {
                self.bump();
                TypeExpr::Struct(n)
            }
            other => return Err(self.err(format!("expected parameter type, found {other}"))),
        };
        if self.eat(&Tok::KwLocal) {
            quals.local = true;
        }
        let ty = if self.eat(&Tok::Star) {
            match base {
                TypeExpr::Struct(n) => TypeExpr::Ptr(n),
                _ => return Err(self.err("only struct types may be pointed to".into())),
            }
        } else {
            base
        };
        let name = self.ident()?;
        Ok(Param {
            ty,
            quals,
            name,
            pos,
        })
    }

    // ---- statements ---------------------------------------------------

    fn stmt_list(&mut self, terminator: &Tok) -> Result<Vec<Stmt>, ParseError> {
        let mut out = Vec::new();
        while self.peek() != terminator && self.peek() != &Tok::Eof {
            out.push(self.stmt()?);
        }
        Ok(out)
    }

    fn block_or_single(&mut self) -> Result<Vec<Stmt>, ParseError> {
        if self.eat(&Tok::LBrace) {
            let ss = self.stmt_list(&Tok::RBrace)?;
            self.expect(Tok::RBrace)?;
            Ok(ss)
        } else {
            Ok(vec![self.stmt()?])
        }
    }

    /// Whether the upcoming tokens start a declaration.
    fn at_decl(&self) -> bool {
        match self.peek() {
            Tok::KwInt | Tok::KwDouble | Tok::KwShared | Tok::KwLocal | Tok::KwStruct => true,
            Tok::Ident(_) => {
                // `Name *x`, `Name x`, or `Name local *x` — an identifier
                // followed by `*`, another identifier, or `local` starts a
                // declaration; `Name =`, `Name ->` etc. do not.
                matches!(self.peek2(), Tok::Star | Tok::Ident(_) | Tok::KwLocal)
            }
            _ => false,
        }
    }

    fn stmt(&mut self) -> Result<Stmt, ParseError> {
        self.enter()?;
        let pos = self.pos();
        // Each form parses in its own function, so the frame that recursion
        // passes through stays small.
        let s = match self.peek() {
            Tok::LBrace => self.braced(Tok::RBrace).map(Stmt::Block),
            Tok::ParOpen => self.braced(Tok::ParClose).map(|ss| Stmt::ParSeq(ss, pos)),
            Tok::KwIf => self.if_stmt(pos),
            Tok::KwWhile => self.while_stmt(pos),
            Tok::KwDo => self.do_stmt(pos),
            Tok::KwFor => self.for_stmt(pos),
            Tok::KwForall => self.forall_stmt(pos),
            Tok::KwSwitch => self.switch_stmt(pos),
            Tok::KwReturn => self.return_stmt(pos),
            _ if self.at_decl() => self.decl_stmt(),
            _ => self.simple_stmt_no_semi().and_then(|s| {
                self.expect(Tok::Semi)?;
                Ok(s)
            }),
        }?;
        self.leave();
        Ok(s)
    }

    /// An opening delimiter, a statement list, and `close`.
    fn braced(&mut self, close: Tok) -> Result<Vec<Stmt>, ParseError> {
        self.bump();
        let ss = self.stmt_list(&close)?;
        self.expect(close)?;
        Ok(ss)
    }

    /// `( expr )`, as in `if`, `while` and `switch` headers.
    fn paren_cond(&mut self) -> Result<Expr, ParseError> {
        self.expect(Tok::LParen)?;
        let cond = self.expr()?;
        self.expect(Tok::RParen)?;
        Ok(cond)
    }

    fn if_stmt(&mut self, pos: Pos) -> Result<Stmt, ParseError> {
        self.bump();
        let cond = self.paren_cond()?;
        let then_s = self.block_or_single()?;
        let else_s = if self.eat(&Tok::KwElse) {
            self.block_or_single()?
        } else {
            Vec::new()
        };
        Ok(Stmt::If {
            cond,
            then_s,
            else_s,
            pos,
        })
    }

    fn while_stmt(&mut self, pos: Pos) -> Result<Stmt, ParseError> {
        self.bump();
        let cond = self.paren_cond()?;
        let body = self.block_or_single()?;
        Ok(Stmt::While { cond, body, pos })
    }

    fn do_stmt(&mut self, pos: Pos) -> Result<Stmt, ParseError> {
        self.bump();
        let body = self.block_or_single()?;
        self.expect(Tok::KwWhile)?;
        let cond = self.paren_cond()?;
        self.expect(Tok::Semi)?;
        Ok(Stmt::DoWhile { body, cond, pos })
    }

    fn for_stmt(&mut self, pos: Pos) -> Result<Stmt, ParseError> {
        self.bump();
        self.expect(Tok::LParen)?;
        let init = if self.peek() == &Tok::Semi {
            None
        } else {
            Some(Box::new(self.simple_stmt_no_semi()?))
        };
        self.expect(Tok::Semi)?;
        let cond = if self.peek() == &Tok::Semi {
            None
        } else {
            Some(self.expr()?)
        };
        self.expect(Tok::Semi)?;
        let step = if self.peek() == &Tok::RParen {
            None
        } else {
            Some(Box::new(self.simple_stmt_no_semi()?))
        };
        self.expect(Tok::RParen)?;
        let body = self.block_or_single()?;
        Ok(Stmt::For {
            init,
            cond,
            step,
            body,
            pos,
        })
    }

    fn forall_stmt(&mut self, pos: Pos) -> Result<Stmt, ParseError> {
        self.bump();
        self.expect(Tok::LParen)?;
        let init = Box::new(self.simple_stmt_no_semi()?);
        self.expect(Tok::Semi)?;
        let cond = self.expr()?;
        self.expect(Tok::Semi)?;
        let step = Box::new(self.simple_stmt_no_semi()?);
        self.expect(Tok::RParen)?;
        let body = self.block_or_single()?;
        Ok(Stmt::Forall {
            init,
            cond,
            step,
            body,
            pos,
        })
    }

    fn switch_stmt(&mut self, pos: Pos) -> Result<Stmt, ParseError> {
        self.bump();
        let scrut = self.paren_cond()?;
        self.expect(Tok::LBrace)?;
        let mut cases = Vec::new();
        let mut default = Vec::new();
        while self.peek() != &Tok::RBrace {
            let body = if self.eat(&Tok::KwCase) {
                let v = match self.bump() {
                    Tok::Int(v) => v,
                    Tok::Minus => match self.bump() {
                        Tok::Int(v) => -v,
                        other => {
                            return Err(self.err(format!("expected case value, found {other}")))
                        }
                    },
                    other => return Err(self.err(format!("expected case value, found {other}"))),
                };
                cases.push((v, Vec::new()));
                &mut cases.last_mut().expect("just pushed").1
            } else if self.eat(&Tok::KwDefault) {
                &mut default
            } else {
                return Err(self.err(format!(
                    "expected `case`, `default` or `}}`, found {}",
                    self.peek()
                )));
            };
            self.expect(Tok::Colon)?;
            while !matches!(
                self.peek(),
                Tok::KwCase | Tok::KwDefault | Tok::RBrace | Tok::KwBreak
            ) {
                body.push(self.stmt()?);
            }
            if self.eat(&Tok::KwBreak) {
                self.expect(Tok::Semi)?;
            }
        }
        self.expect(Tok::RBrace)?;
        Ok(Stmt::Switch {
            scrut,
            cases,
            default,
            pos,
        })
    }

    fn return_stmt(&mut self, pos: Pos) -> Result<Stmt, ParseError> {
        self.bump();
        let e = if self.peek() == &Tok::Semi {
            None
        } else {
            Some(self.expr()?)
        };
        self.expect(Tok::Semi)?;
        Ok(Stmt::Return(e, pos))
    }

    fn decl_stmt(&mut self) -> Result<Stmt, ParseError> {
        let pos = self.pos();
        let mut quals = Quals::default();
        loop {
            if self.eat(&Tok::KwShared) {
                quals.shared = true;
            } else if self.eat(&Tok::KwLocal) {
                quals.local = true;
            } else {
                break;
            }
        }
        let base = self.type_expr()?;
        // Accept `Point local *p` ordering too.
        let ty = if self.eat(&Tok::KwLocal) {
            quals.local = true;
            if self.eat(&Tok::Star) {
                match base {
                    TypeExpr::Struct(n) => TypeExpr::Ptr(n),
                    _ => return Err(self.err("only struct types may be pointed to".into())),
                }
            } else {
                base
            }
        } else {
            base
        };
        let name = self.ident()?;
        let init = if self.eat(&Tok::Assign) {
            Some(self.expr()?)
        } else {
            None
        };
        self.expect(Tok::Semi)?;
        Ok(Stmt::Decl {
            ty,
            quals,
            name,
            init,
            pos,
        })
    }

    /// An assignment or call without the trailing semicolon (for use in
    /// `for`/`forall` headers and ordinary statements).
    fn simple_stmt_no_semi(&mut self) -> Result<Stmt, ParseError> {
        let pos = self.pos();
        // Lookahead: IDENT ( ... is a call; otherwise an lvalue assignment.
        if let Tok::Ident(name) = self.peek().clone() {
            if self.peek2() == &Tok::LParen {
                let e = self.expr()?;
                // Could still be `f(x) == y`-style inside an expression
                // statement; we only allow pure call statements here.
                if let Expr::Call { .. } = e {
                    return Ok(Stmt::ExprStmt(e));
                }
                return Err(self.err("expected a statement".into()));
            }
            let _ = name;
        }
        let lv = self.lvalue()?;
        self.expect(Tok::Assign)?;
        let rhs = self.expr()?;
        Ok(Stmt::Assign { lv, rhs, pos })
    }

    fn lvalue(&mut self) -> Result<LValue, ParseError> {
        let pos = self.pos();
        // `(*p).f` form.
        if self.peek() == &Tok::LParen && self.peek2() == &Tok::Star {
            self.bump(); // (
            self.bump(); // *
            let base = self.ident()?;
            self.expect(Tok::RParen)?;
            self.expect(Tok::Dot)?;
            return Ok(LValue::FieldPath {
                base,
                arrow: true,
                path: self.field_path()?,
                pos,
            });
        }
        let base = self.ident()?;
        let arrow = match self.peek() {
            Tok::Arrow => true,
            Tok::Dot => false,
            _ => return Ok(LValue::Var(base, pos)),
        };
        self.bump();
        Ok(LValue::FieldPath {
            base,
            arrow,
            path: self.field_path()?,
            pos,
        })
    }

    // ---- expressions --------------------------------------------------

    fn expr(&mut self) -> Result<Expr, ParseError> {
        self.enter()?;
        let e = self.binary(1)?;
        self.leave();
        Ok(e)
    }

    /// A binary operator and its precedence (higher binds tighter).
    fn binop(t: &Tok) -> Option<(AstBinOp, u8)> {
        Some(match t {
            Tok::OrOr => (AstBinOp::Or, 1),
            Tok::AndAnd => (AstBinOp::And, 2),
            Tok::EqEq => (AstBinOp::Eq, 3),
            Tok::NotEq => (AstBinOp::Ne, 3),
            Tok::Lt => (AstBinOp::Lt, 3),
            Tok::Le => (AstBinOp::Le, 3),
            Tok::Gt => (AstBinOp::Gt, 3),
            Tok::Ge => (AstBinOp::Ge, 3),
            Tok::Plus => (AstBinOp::Add, 4),
            Tok::Minus => (AstBinOp::Sub, 4),
            Tok::Star => (AstBinOp::Mul, 5),
            Tok::Slash => (AstBinOp::Div, 5),
            Tok::Percent => (AstBinOp::Rem, 5),
            _ => return None,
        })
    }

    /// Parses operators of precedence `min_prec` and above by precedence
    /// climbing; each operator is left-associative, so a chain becomes a
    /// left-deep tree. The tree's height counts toward [`MAX_NESTING`]:
    /// each node sits one level above the taller of its two operands.
    fn binary(&mut self, min_prec: u8) -> Result<Expr, ParseError> {
        let base = self.depth;
        let outer_peak = std::mem::replace(&mut self.peak, base);
        let mut lhs = self.unary_expr()?;
        let mut height = self.peak - base;
        while let Some((op, prec)) = Self::binop(self.peek()).filter(|&(_, p)| p >= min_prec) {
            let pos = self.pos();
            self.bump();
            self.peak = base;
            let rhs = self.binary(prec + 1)?;
            height = height.max(self.peak - base) + 1;
            if base + height > MAX_NESTING {
                return Err(Self::too_deep(pos));
            }
            lhs = Expr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
                pos,
            };
        }
        self.peak = outer_peak.max(base + height);
        Ok(lhs)
    }

    fn unary_expr(&mut self) -> Result<Expr, ParseError> {
        let pos = self.pos();
        let op = match self.peek() {
            Tok::Minus => Some(AstUnOp::Neg),
            Tok::Not => Some(AstUnOp::Not),
            _ => None,
        };
        if let Some(op) = op {
            self.bump();
            self.enter()?;
            let arg = self.unary_expr()?;
            self.leave();
            return Ok(Expr::Unary {
                op,
                arg: Box::new(arg),
                pos,
            });
        }
        if self.eat(&Tok::Amp) {
            let name = self.ident()?;
            return Ok(Expr::AddrOf(name, pos));
        }
        self.postfix_expr()
    }

    fn postfix_expr(&mut self) -> Result<Expr, ParseError> {
        let pos = self.pos();
        let leaf = match self.peek() {
            Tok::Int(v) => Expr::Int(*v, pos),
            Tok::Double(v) => Expr::Double(*v, pos),
            Tok::KwNull => Expr::Null(pos),
            Tok::KwSizeof => return self.sizeof_expr(pos),
            Tok::LParen => return self.paren_expr(pos),
            Tok::Ident(_) => return self.name_expr(pos),
            _ => return Err(self.unexpected("an expression")),
        };
        self.bump();
        Ok(leaf)
    }

    /// `sizeof(Name)` or `sizeof(struct Name)`.
    fn sizeof_expr(&mut self, pos: Pos) -> Result<Expr, ParseError> {
        self.bump();
        self.expect(Tok::LParen)?;
        self.eat(&Tok::KwStruct);
        let n = self.ident()?;
        self.expect(Tok::RParen)?;
        Ok(Expr::Sizeof(n, pos))
    }

    /// `(*p).f` or a parenthesized expression.
    fn paren_expr(&mut self, pos: Pos) -> Result<Expr, ParseError> {
        if self.peek2() == &Tok::Star {
            let save = self.i;
            self.bump(); // (
            self.bump(); // *
            if let Tok::Ident(base) = self.peek().clone() {
                self.bump();
                if self.eat(&Tok::RParen) && self.eat(&Tok::Dot) {
                    return Ok(Expr::FieldPath {
                        base,
                        arrow: true,
                        path: self.field_path()?,
                        pos,
                    });
                }
            }
            self.i = save;
        }
        self.bump();
        let e = self.expr()?;
        self.expect(Tok::RParen)?;
        Ok(e)
    }

    /// A call or field access starting with an identifier, or the plain
    /// variable.
    fn name_expr(&mut self, pos: Pos) -> Result<Expr, ParseError> {
        let name = self.ident()?;
        if self.peek() == &Tok::LParen {
            return self.call_expr(name, pos);
        }
        let arrow = match self.peek() {
            Tok::Arrow => true,
            Tok::Dot => false,
            _ => return Ok(Expr::Var(name, pos)),
        };
        self.bump();
        Ok(Expr::FieldPath {
            base: name,
            arrow,
            path: self.field_path()?,
            pos,
        })
    }

    /// The arguments and optional `@` clause of a call of `name`.
    fn call_expr(&mut self, name: String, pos: Pos) -> Result<Expr, ParseError> {
        self.bump();
        let mut args = Vec::new();
        if self.peek() != &Tok::RParen {
            loop {
                args.push(self.expr()?);
                if !self.eat(&Tok::Comma) {
                    break;
                }
            }
        }
        self.expect(Tok::RParen)?;
        let at = if !self.eat(&Tok::At) {
            None
        } else if self.eat(&Tok::KwOwnerOf) {
            self.expect(Tok::LParen)?;
            let p = self.ident()?;
            self.expect(Tok::RParen)?;
            Some(AtClause::OwnerOf(p))
        } else {
            Some(AtClause::Node(Box::new(self.postfix_expr()?)))
        };
        Ok(Expr::Call {
            name,
            args,
            at,
            pos,
        })
    }

    /// `name (. name)*`: the field path after `->` or `.`.
    fn field_path(&mut self) -> Result<Vec<String>, ParseError> {
        let mut path = vec![self.ident()?];
        while self.eat(&Tok::Dot) {
            path.push(self.ident()?);
        }
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_struct_and_function() {
        let src = r#"
            struct Point { double x; double y; };
            double distance(Point *p) {
                double d;
                d = sqrt(p->x * p->x + p->y * p->y);
                return d;
            }
        "#;
        let unit = parse_unit(src).unwrap();
        assert_eq!(unit.items.len(), 2);
        match &unit.items[0] {
            Item::Struct(s) => {
                assert_eq!(s.name, "Point");
                assert_eq!(s.fields.len(), 2);
            }
            _ => panic!("expected struct"),
        }
        match &unit.items[1] {
            Item::Func(f) => {
                assert_eq!(f.name, "distance");
                assert_eq!(f.params.len(), 1);
                assert_eq!(f.params[0].ty, TypeExpr::Ptr("Point".into()));
            }
            _ => panic!("expected function"),
        }
    }

    #[test]
    fn parses_forall_and_shared() {
        let src = r#"
            struct node { node* next; int value; };
            int count(node *head, node *x) {
                shared int count;
                node *p;
                writeto(&count, 0);
                forall (p = head; p != NULL; p = p->next) {
                    if (equal_node(p, x) @ OWNER_OF(p)) {
                        addto(&count, 1);
                    }
                }
                return valueof(&count);
            }
            int equal_node(node local *p, node *q) {
                return p->value == q->value;
            }
        "#;
        let unit = parse_unit(src).unwrap();
        assert_eq!(unit.items.len(), 3);
        if let Item::Func(f) = &unit.items[2] {
            assert!(f.params[0].quals.local);
            assert!(!f.params[1].quals.local);
        } else {
            panic!();
        }
    }

    #[test]
    fn parses_parallel_sequence() {
        let src = r#"
            struct node { node* next; int v; };
            int count_rec(node *head, node *x) {
                int c1;
                int c2;
                {^
                    c1 = equal_node(head, x) @ OWNER_OF(x);
                    c2 = count_rec(head->next, x);
                ^}
                return c1 + c2;
            }
            int equal_node(node *p, node local *q) { return 1; }
        "#;
        let unit = parse_unit(src).unwrap();
        if let Item::Func(f) = &unit.items[1] {
            let has_par = f
                .body
                .iter()
                .any(|s| matches!(s, Stmt::ParSeq(arms, _) if arms.len() == 2));
            assert!(has_par, "expected a two-arm parallel sequence");
        } else {
            panic!();
        }
    }

    #[test]
    fn parses_nested_field_paths() {
        let src = r#"
            struct H { int a; };
            void f(H *village) {
                int t;
                t = (*village).hosp.free_personnel;
                village->hosp.free_personnel = t;
            }
        "#;
        let unit = parse_unit(src).unwrap();
        if let Item::Func(f) = &unit.items[1] {
            match &f.body[1] {
                Stmt::Assign { rhs, .. } => match rhs {
                    Expr::FieldPath {
                        base, arrow, path, ..
                    } => {
                        assert_eq!(base, "village");
                        assert!(arrow);
                        assert_eq!(
                            path,
                            &vec!["hosp".to_string(), "free_personnel".to_string()]
                        );
                    }
                    _ => panic!("expected field path"),
                },
                _ => panic!("expected assignment"),
            }
        }
    }

    #[test]
    fn parses_switch() {
        let src = r#"
            struct Q { int c; };
            int f(int q1) {
                int p1;
                switch (q1) {
                    case 0: p1 = 1; break;
                    case 1: p1 = 2; break;
                    default: p1 = 3;
                }
                return p1;
            }
        "#;
        let unit = parse_unit(src).unwrap();
        if let Item::Func(f) = &unit.items[1] {
            match &f.body[1] {
                Stmt::Switch { cases, default, .. } => {
                    assert_eq!(cases.len(), 2);
                    assert_eq!(default.len(), 1);
                }
                _ => panic!("expected switch"),
            }
        }
    }

    #[test]
    fn parses_for_and_do_while() {
        let src = r#"
            struct S { int x; };
            void f() {
                int i;
                for (i = 0; i < 10; i = i + 1) { i = i; }
                do { i = i - 1; } while (i > 0);
            }
        "#;
        let unit = parse_unit(src).unwrap();
        if let Item::Func(f) = &unit.items[1] {
            assert!(matches!(f.body[1], Stmt::For { .. }));
            assert!(matches!(f.body[2], Stmt::DoWhile { .. }));
        }
    }

    #[test]
    fn error_has_position() {
        let e = parse_unit("struct P { int x; }").unwrap_err();
        assert!(e.pos.line >= 1);
    }

    #[test]
    fn malloc_with_sizeof() {
        let src = r#"
            struct N { N* next; };
            void f() {
                N *p;
                p = malloc(sizeof(N));
                p = malloc_on(3, sizeof(N));
            }
        "#;
        parse_unit(src).unwrap();
    }

    #[test]
    fn precedence() {
        let src = r#"
            struct S { int x; };
            void f() {
                int a;
                a = 1 + 2 * 3 < 4 && 5 == 6 || 0 != 1;
            }
        "#;
        let unit = parse_unit(src).unwrap();
        if let Item::Func(f) = &unit.items[1] {
            if let Stmt::Assign { rhs, .. } = &f.body[1] {
                // Top-level must be `||`.
                assert!(
                    matches!(
                        rhs,
                        Expr::Binary {
                            op: AstBinOp::Or,
                            ..
                        }
                    ),
                    "got {rhs:?}"
                );
            }
        }
    }
}
