//! Recursive-descent parser for the OLGA subset.

use std::fmt;

use crate::ast::*;
use crate::lexer::{lex, unescape, LexError, Pos, Tok, Token};

/// A parse error with position.
#[derive(Clone, Debug, PartialEq)]
pub struct ParseError {
    /// What was expected / found.
    pub message: String,
    /// Where.
    pub pos: Pos,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: parse error: {}", self.pos, self.message)
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError {
            message: e.message,
            pos: e.pos,
        }
    }
}

/// Parses a source text into its compilation units.
///
/// # Errors
///
/// Returns the first lexical or syntactic error.
pub fn parse_units(src: &str) -> Result<Vec<Unit>, ParseError> {
    let toks = lex(src)?;
    let mut p = Parser { toks, at: 0 };
    let mut units = Vec::new();
    while !p.peek_is_eof() {
        units.push(p.unit()?);
    }
    Ok(units)
}

/// Parses a source text expected to contain exactly one unit.
///
/// # Errors
///
/// Fails on parse errors or if the text has zero or several units.
pub fn parse_unit(src: &str) -> Result<Unit, ParseError> {
    let mut units = parse_units(src)?;
    if units.len() != 1 {
        return Err(ParseError {
            message: format!(
                "expected exactly one compilation unit, found {}",
                units.len()
            ),
            pos: Pos { line: 1, col: 1 },
        });
    }
    Ok(units.remove(0))
}

struct Parser<'a> {
    toks: Vec<Token<'a>>,
    at: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Tok<'a> {
        self.toks[self.at].tok
    }

    fn pos(&self) -> Pos {
        self.toks[self.at].pos
    }

    fn peek_is_eof(&self) -> bool {
        matches!(self.peek(), Tok::Eof)
    }

    fn bump(&mut self) -> Tok<'a> {
        let t = self.peek();
        if self.at + 1 < self.toks.len() {
            self.at += 1;
        }
        t
    }

    fn err<T>(&self, msg: impl Into<String>) -> Result<T, ParseError> {
        Err(ParseError {
            message: msg.into(),
            pos: self.pos(),
        })
    }

    fn expect_kw(&mut self, kw: &'static str) -> Result<(), ParseError> {
        if self.peek() == Tok::Kw(kw) {
            self.bump();
            Ok(())
        } else {
            self.err(format!("expected `{kw}`, found {}", self.peek()))
        }
    }

    fn expect_punct(&mut self, p: &'static str) -> Result<(), ParseError> {
        if self.peek() == Tok::Punct(p) {
            self.bump();
            Ok(())
        } else {
            self.err(format!("expected `{p}`, found {}", self.peek()))
        }
    }

    /// Parses one or more `item`s separated by commas into `items`.
    fn comma_list<T>(
        &mut self,
        items: &mut Vec<T>,
        item: fn(&mut Self) -> Result<T, ParseError>,
    ) -> Result<(), ParseError> {
        loop {
            items.push(item(self)?);
            if !self.eat_punct(",") {
                return Ok(());
            }
        }
    }

    fn eat_punct(&mut self, p: &'static str) -> bool {
        if self.peek() == Tok::Punct(p) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn eat_kw(&mut self, kw: &'static str) -> bool {
        if self.peek() == Tok::Kw(kw) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn ident(&mut self) -> Result<String, ParseError> {
        match self.peek() {
            Tok::Ident(s) => {
                self.bump();
                Ok(s.to_owned())
            }
            other => self.err(format!("expected identifier, found {other}")),
        }
    }

    fn ident_list(&mut self) -> Result<Vec<String>, ParseError> {
        let mut names = vec![self.ident()?];
        while self.eat_punct(",") {
            names.push(self.ident()?);
        }
        Ok(names)
    }

    // ---- units ------------------------------------------------------------

    fn unit(&mut self) -> Result<Unit, ParseError> {
        match self.peek() {
            Tok::Kw("module") => self.module().map(Unit::Module),
            Tok::Kw("attribute") => self.ag().map(Unit::Ag),
            other => self.err(format!(
                "expected `module` or `attribute grammar`, found {other}"
            )),
        }
    }

    fn module(&mut self) -> Result<Module, ParseError> {
        self.expect_kw("module")?;
        let name = self.ident()?;
        self.expect_punct(";")?;
        let mut m = Module {
            name,
            ..Module::default()
        };
        loop {
            match self.peek() {
                Tok::Kw("end") => {
                    self.bump();
                    break;
                }
                Tok::Kw("import") => m.imports.push(self.import()?),
                Tok::Kw("export") => {
                    self.bump();
                    let opaque = self.eat_kw("opaque");
                    for name in self.ident_list()? {
                        m.exports.push(Export { name, opaque });
                    }
                    self.expect_punct(";")?;
                }
                Tok::Kw("type") => m.types.push(self.typedef()?),
                Tok::Kw("const") => m.consts.push(self.constdef()?),
                Tok::Kw("function") => m.funcs.push(self.fundef()?),
                other => return self.err(format!("unexpected {other} in module")),
            }
        }
        Ok(m)
    }

    fn import(&mut self) -> Result<Import, ParseError> {
        let pos = self.pos();
        self.expect_kw("import")?;
        let names = self.ident_list()?;
        self.expect_kw("from")?;
        let from = self.ident()?;
        self.expect_punct(";")?;
        Ok(Import { names, from, pos })
    }

    fn typedef(&mut self) -> Result<TypeDef, ParseError> {
        let pos = self.pos();
        self.expect_kw("type")?;
        let name = self.ident()?;
        self.expect_punct("=")?;
        let ty = self.type_expr()?;
        self.expect_punct(";")?;
        Ok(TypeDef { name, ty, pos })
    }

    fn constdef(&mut self) -> Result<ConstDef, ParseError> {
        let pos = self.pos();
        self.expect_kw("const")?;
        let name = self.ident()?;
        self.expect_punct(":")?;
        let ty = self.type_expr()?;
        self.expect_punct("=")?;
        let body = self.expr()?;
        self.expect_punct(";")?;
        Ok(ConstDef {
            name,
            ty,
            body,
            pos,
        })
    }

    fn fundef(&mut self) -> Result<FunDef, ParseError> {
        let pos = self.pos();
        self.expect_kw("function")?;
        let name = self.ident()?;
        self.expect_punct("(")?;
        let mut params = Vec::new();
        if !self.eat_punct(")") {
            loop {
                let pname = self.ident()?;
                self.expect_punct(":")?;
                let pty = self.type_expr()?;
                params.push((pname, pty));
                if self.eat_punct(")") {
                    break;
                }
                self.expect_punct(",")?;
            }
        }
        self.expect_punct(":")?;
        let ret = self.type_expr()?;
        self.expect_punct("=")?;
        let body = self.expr()?;
        self.expect_punct(";")?;
        Ok(FunDef {
            name,
            params,
            ret,
            body,
            pos,
        })
    }

    // ---- attribute grammars -------------------------------------------------

    fn ag(&mut self) -> Result<AgDef, ParseError> {
        self.expect_kw("attribute")?;
        self.expect_kw("grammar")?;
        let name = self.ident()?;
        self.expect_punct(";")?;
        let mut ag = AgDef {
            name,
            ..AgDef::default()
        };
        let mut anon_blocks: Vec<RuleBlock> = Vec::new();
        loop {
            match self.peek() {
                Tok::Kw("end") => {
                    self.bump();
                    break;
                }
                Tok::Kw("import") => ag.imports.push(self.import()?),
                Tok::Kw("phylum") => {
                    self.bump();
                    ag.phyla.extend(self.ident_list()?);
                    self.expect_punct(";")?;
                }
                Tok::Kw("root") => {
                    self.bump();
                    ag.root = Some(self.ident()?);
                    self.expect_punct(";")?;
                }
                Tok::Kw("operator") => {
                    let pos = self.pos();
                    self.bump();
                    let name = self.ident()?;
                    self.expect_punct(":")?;
                    let lhs = self.ident()?;
                    self.expect_punct("::=")?;
                    let mut rhs = Vec::new();
                    while let Tok::Ident(_) = self.peek() {
                        rhs.push(self.ident()?);
                    }
                    self.expect_punct(";")?;
                    ag.operators.push(OpDef {
                        name,
                        lhs,
                        rhs,
                        pos,
                    });
                }
                Tok::Kw("synthesized") | Tok::Kw("inherited") => {
                    let pos = self.pos();
                    let synthesized = matches!(self.bump(), Tok::Kw("synthesized"));
                    let name = self.ident()?;
                    self.expect_punct(":")?;
                    let ty = self.type_expr()?;
                    self.expect_kw("of")?;
                    let phyla = self.ident_list()?;
                    let class = if self.eat_kw("with") {
                        let model = self.ident()?;
                        match model.as_str() {
                            "concat" => AttrClass::Concat,
                            "sum" => AttrClass::Sum,
                            other => {
                                return self
                                    .err(format!("unknown rule model `{other}` (concat, sum)"))
                            }
                        }
                    } else {
                        AttrClass::Plain
                    };
                    self.expect_punct(";")?;
                    ag.attrs.push(AttrDef {
                        synthesized,
                        name,
                        ty,
                        phyla,
                        class,
                        pos,
                    });
                }
                Tok::Kw("threaded") => {
                    let pos = self.pos();
                    self.bump();
                    let name = self.ident()?;
                    self.expect_punct(":")?;
                    let ty = self.type_expr()?;
                    self.expect_kw("of")?;
                    let phyla = self.ident_list()?;
                    self.expect_punct(";")?;
                    ag.threads.push(ThreadDef {
                        name,
                        ty,
                        phyla,
                        pos,
                    });
                }
                Tok::Kw("function") => ag.funcs.push(self.fundef()?),
                Tok::Kw("const") => ag.consts.push(self.constdef()?),
                Tok::Kw("type") => ag.types.push(self.typedef()?),
                Tok::Kw("phase") => {
                    self.bump();
                    let name = self.ident()?;
                    self.expect_punct("{")?;
                    let mut blocks = Vec::new();
                    while !self.eat_punct("}") {
                        blocks.push(self.rule_block()?);
                    }
                    ag.phases.push(Phase { name, blocks });
                }
                Tok::Kw("for") => anon_blocks.push(self.rule_block()?),
                other => return self.err(format!("unexpected {other} in attribute grammar")),
            }
        }
        if !anon_blocks.is_empty() {
            ag.phases.insert(
                0,
                Phase {
                    name: String::new(),
                    blocks: anon_blocks,
                },
            );
        }
        Ok(ag)
    }

    fn rule_block(&mut self) -> Result<RuleBlock, ParseError> {
        let pos = self.pos();
        self.expect_kw("for")?;
        let operator = self.ident()?;
        self.expect_punct("{")?;
        let mut locals = Vec::new();
        let mut rules = Vec::new();
        while !self.eat_punct("}") {
            if self.peek() == Tok::Kw("local") {
                let pos = self.pos();
                self.bump();
                let name = self.ident()?;
                self.expect_punct(":")?;
                let ty = self.type_expr()?;
                self.expect_punct(":=")?;
                let body = self.expr()?;
                self.expect_punct(";")?;
                locals.push(LocalDef {
                    name,
                    ty,
                    body,
                    pos,
                });
            } else {
                rules.push(self.rule()?);
            }
        }
        Ok(RuleBlock {
            operator,
            locals,
            rules,
            pos,
        })
    }

    fn rule(&mut self) -> Result<Rule, ParseError> {
        let pos = self.pos();
        let name = self.ident()?;
        let target = if self.peek() == Tok::Punct(".") || self.peek() == Tok::Punct("$") {
            RuleTarget::Occ(self.occ(name, pos)?)
        } else {
            RuleTarget::Local(name, pos)
        };
        self.expect_punct(":=")?;
        let body = self.expr()?;
        self.expect_punct(";")?;
        Ok(Rule { target, body, pos })
    }

    /// The rest of the occurrence `name$k.attr` or `name.attr`, after its
    /// `name`.
    fn occ(&mut self, name: String, pos: Pos) -> Result<OccRef, ParseError> {
        let index = if self.eat_punct("$") {
            match self.bump() {
                Tok::Int(i) if i >= 1 => Some(i as u32),
                _ => return self.err("expected a positive occurrence index after `$`"),
            }
        } else {
            None
        };
        self.expect_punct(".")?;
        let attr = self.ident()?;
        Ok(OccRef {
            name,
            index,
            attr,
            pos,
        })
    }

    // ---- types ----------------------------------------------------------

    fn type_expr(&mut self) -> Result<TypeExpr, ParseError> {
        let ty = match self.peek() {
            Tok::Kw("int") => TypeExpr::Int,
            Tok::Kw("real") => TypeExpr::Real,
            Tok::Kw("bool") => TypeExpr::Bool,
            Tok::Kw("string") => TypeExpr::Str,
            Tok::Kw("unit") => TypeExpr::Unit,
            Tok::Kw("tree") => TypeExpr::Tree,
            Tok::Ident(name) => TypeExpr::Named(name.to_owned()),
            Tok::Kw("list" | "map") => {
                let list = self.bump() == Tok::Kw("list");
                self.expect_kw("of")?;
                let elem = Box::new(self.type_expr()?);
                return Ok(if list {
                    TypeExpr::List(elem)
                } else {
                    TypeExpr::Map(elem)
                });
            }
            Tok::Kw("tuple") => {
                self.bump();
                self.expect_punct("(")?;
                let mut items = Vec::new();
                self.comma_list(&mut items, Self::type_expr)?;
                self.expect_punct(")")?;
                return Ok(TypeExpr::Tuple(items));
            }
            other => return self.err(format!("expected a type, found {other}")),
        };
        self.bump();
        Ok(ty)
    }

    // ---- expressions -------------------------------------------------------

    fn expr(&mut self) -> Result<Expr, ParseError> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> Result<Expr, ParseError> {
        self.left(Self::and_expr, |t| {
            (t == Tok::Kw("or")).then_some(BinOp::Or)
        })
    }

    fn and_expr(&mut self) -> Result<Expr, ParseError> {
        self.left(Self::cmp_expr, |t| {
            (t == Tok::Kw("and")).then_some(BinOp::And)
        })
    }

    fn cmp_expr(&mut self) -> Result<Expr, ParseError> {
        let lhs = self.cons_expr()?;
        let op = match self.peek() {
            Tok::Punct("=") => BinOp::Eq,
            Tok::Punct("<>") => BinOp::Ne,
            Tok::Punct("<") => BinOp::Lt,
            Tok::Punct("<=") => BinOp::Le,
            Tok::Punct(">") => BinOp::Gt,
            Tok::Punct(">=") => BinOp::Ge,
            _ => return Ok(lhs),
        };
        self.binop(op, lhs, Self::cons_expr)
    }

    fn cons_expr(&mut self) -> Result<Expr, ParseError> {
        let lhs = self.add_expr()?;
        let op = match self.peek() {
            Tok::Punct("::") => BinOp::Cons,
            Tok::Punct("++") => BinOp::Concat,
            _ => return Ok(lhs),
        };
        self.binop(op, lhs, Self::cons_expr) // right-associative
    }

    fn add_expr(&mut self) -> Result<Expr, ParseError> {
        self.left(Self::mul_expr, |t| match t {
            Tok::Punct("+") => Some(BinOp::Add),
            Tok::Punct("-") => Some(BinOp::Sub),
            _ => None,
        })
    }

    fn mul_expr(&mut self) -> Result<Expr, ParseError> {
        self.left(Self::unary_expr, |t| match t {
            Tok::Punct("*") => Some(BinOp::Mul),
            Tok::Punct("/") => Some(BinOp::Div),
            Tok::Punct("%") => Some(BinOp::Rem),
            _ => None,
        })
    }

    /// A left-associative chain of `operand`s joined by the operators that
    /// `op` recognizes.
    fn left(
        &mut self,
        operand: impl Fn(&mut Self) -> Result<Expr, ParseError>,
        op: impl Fn(Tok<'a>) -> Option<BinOp>,
    ) -> Result<Expr, ParseError> {
        let mut lhs = operand(self)?;
        while let Some(op) = op(self.peek()) {
            lhs = self.binop(op, lhs, &operand)?;
        }
        Ok(lhs)
    }

    /// `lhs op rhs`, the operator being the next token.
    fn binop(
        &mut self,
        op: BinOp,
        lhs: Expr,
        rhs: impl Fn(&mut Self) -> Result<Expr, ParseError>,
    ) -> Result<Expr, ParseError> {
        let pos = self.pos();
        self.bump();
        Ok(Expr::Binop {
            op,
            lhs: Box::new(lhs),
            rhs: Box::new(rhs(self)?),
            pos,
        })
    }

    fn unary_expr(&mut self) -> Result<Expr, ParseError> {
        match self.peek() {
            Tok::Punct("-") => {
                let pos = self.pos();
                self.bump();
                Ok(Expr::Unop {
                    op: UnOp::Neg,
                    expr: Box::new(self.unary_expr()?),
                    pos,
                })
            }
            Tok::Kw("not") => {
                let pos = self.pos();
                self.bump();
                Ok(Expr::Unop {
                    op: UnOp::Not,
                    expr: Box::new(self.unary_expr()?),
                    pos,
                })
            }
            _ => self.primary_expr(),
        }
    }

    fn primary_expr(&mut self) -> Result<Expr, ParseError> {
        let pos = self.pos();
        match self.peek() {
            Tok::Int(i) => {
                self.bump();
                Ok(Expr::Int(i, pos))
            }
            Tok::Real(r) => {
                self.bump();
                Ok(Expr::Real(r, pos))
            }
            Tok::Str(s) => {
                self.bump();
                Ok(Expr::Str(fnc2_ag::Value::str(unescape(s)), pos))
            }
            Tok::Kw("true") => {
                self.bump();
                Ok(Expr::Bool(true, pos))
            }
            Tok::Kw("false") => {
                self.bump();
                Ok(Expr::Bool(false, pos))
            }
            Tok::Kw("if") => {
                self.bump();
                let cond = self.expr()?;
                self.expect_kw("then")?;
                let then = self.expr()?;
                self.expect_kw("else")?;
                let els = self.expr()?;
                self.expect_kw("end")?;
                Ok(Expr::If {
                    cond: Box::new(cond),
                    then: Box::new(then),
                    els: Box::new(els),
                    pos,
                })
            }
            Tok::Kw("let") => {
                self.bump();
                let name = self.ident()?;
                self.expect_punct("=")?;
                let value = self.expr()?;
                self.expect_kw("in")?;
                let body = self.expr()?;
                self.expect_kw("end")?;
                Ok(Expr::Let {
                    name,
                    value: Box::new(value),
                    body: Box::new(body),
                    pos,
                })
            }
            Tok::Kw("case") => {
                self.bump();
                let scrutinee = self.expr()?;
                self.expect_kw("of")?;
                let mut arms = Vec::new();
                loop {
                    let pat = self.pattern()?;
                    self.expect_punct("=>")?;
                    let body = self.expr()?;
                    arms.push((pat, body));
                    if !self.eat_punct("|") {
                        break;
                    }
                }
                self.expect_kw("end")?;
                Ok(Expr::Case {
                    scrutinee: Box::new(scrutinee),
                    arms,
                    pos,
                })
            }
            Tok::Punct("(") => {
                self.bump();
                let first = self.expr()?;
                if self.eat_punct(",") {
                    let mut items = vec![first];
                    self.comma_list(&mut items, Self::expr)?;
                    self.expect_punct(")")?;
                    Ok(Expr::TupleLit(items, pos))
                } else {
                    self.expect_punct(")")?;
                    Ok(first)
                }
            }
            Tok::Punct("[") => {
                self.bump();
                let mut items = Vec::new();
                if !self.eat_punct("]") {
                    self.comma_list(&mut items, Self::expr)?;
                    self.expect_punct("]")?;
                }
                let value = items.iter().map(Expr::literal).collect::<Option<Vec<_>>>();
                Ok(Expr::ListLit(items, value.map(fnc2_ag::Value::list), pos))
            }
            Tok::Punct("@") => {
                self.bump();
                let op = self.ident()?;
                let mut args = Vec::new();
                if self.eat_punct("(") && !self.eat_punct(")") {
                    self.comma_list(&mut args, Self::expr)?;
                    self.expect_punct(")")?;
                }
                Ok(Expr::TreeCons { op, args, pos })
            }
            Tok::Ident(name) => {
                self.bump();
                let name = name.to_owned();
                // Call, occurrence, or plain variable.
                if self.eat_punct("(") {
                    let mut args = Vec::new();
                    if !self.eat_punct(")") {
                        self.comma_list(&mut args, Self::expr)?;
                        self.expect_punct(")")?;
                    }
                    Ok(Expr::Call {
                        name,
                        args,
                        callee: Callee::Unresolved,
                        pos,
                    })
                } else if self.peek() == Tok::Punct("$") || self.peek() == Tok::Punct(".") {
                    self.occ(name, pos).map(Expr::Occ)
                } else {
                    Ok(Expr::Var {
                        name,
                        var: VarRef::Unresolved,
                        pos,
                    })
                }
            }
            other => self.err(format!("expected an expression, found {other}")),
        }
    }

    // ---- patterns -----------------------------------------------------------

    fn pattern(&mut self) -> Result<Pat, ParseError> {
        let lhs = self.pattern_prim()?;
        if self.peek() == Tok::Punct("::") {
            let pos = self.pos();
            self.bump();
            let rhs = self.pattern()?; // right-associative
            return Ok(Pat::Cons(Box::new(lhs), Box::new(rhs), pos));
        }
        Ok(lhs)
    }

    fn pattern_prim(&mut self) -> Result<Pat, ParseError> {
        let pos = self.pos();
        match self.peek() {
            Tok::Punct("_") => {
                self.bump();
                Ok(Pat::Wild(pos))
            }
            Tok::Int(i) => {
                self.bump();
                Ok(Pat::Int(i, pos))
            }
            Tok::Punct("-") => {
                self.bump();
                match self.bump() {
                    Tok::Int(i) => Ok(Pat::Int(-i, pos)),
                    other => self.err(format!("expected integer after `-`, found {other}")),
                }
            }
            Tok::Str(s) => {
                self.bump();
                Ok(Pat::Str(unescape(s).into_owned(), pos))
            }
            Tok::Kw("true") => {
                self.bump();
                Ok(Pat::Bool(true, pos))
            }
            Tok::Kw("false") => {
                self.bump();
                Ok(Pat::Bool(false, pos))
            }
            Tok::Ident(n) => {
                self.bump();
                Ok(Pat::Bind(n.to_owned(), pos))
            }
            Tok::Punct("[") => {
                self.bump();
                self.expect_punct("]")?;
                Ok(Pat::Nil(pos))
            }
            Tok::Punct("(") => {
                self.bump();
                let mut items = vec![self.pattern()?];
                while self.eat_punct(",") {
                    items.push(self.pattern()?);
                }
                self.expect_punct(")")?;
                if items.len() == 1 {
                    Ok(items.remove(0))
                } else {
                    Ok(Pat::Tuple(items, pos))
                }
            }
            Tok::Punct("@") => {
                self.bump();
                let op = self.ident()?;
                let mut args = Vec::new();
                if self.eat_punct("(") && !self.eat_punct(")") {
                    self.comma_list(&mut args, Self::pattern)?;
                    self.expect_punct(")")?;
                }
                Ok(Pat::Term { op, args, pos })
            }
            other => self.err(format!("expected a pattern, found {other}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_small_module() {
        let src = r#"
            module arith;
              export double, origin;
              const origin : int = 0;
              function double(x : int) : int = x + x;
            end
        "#;
        let Unit::Module(m) = parse_unit(src).unwrap() else {
            panic!("expected module");
        };
        assert_eq!(m.name, "arith");
        assert_eq!(m.exports.len(), 2);
        assert_eq!(m.funcs.len(), 1);
        assert_eq!(m.funcs[0].params.len(), 1);
    }

    #[test]
    fn parse_binary_ag() {
        let src = r#"
            attribute grammar binary;
              phylum Number, Seq, Bit;
              root Number;
              operator number : Number ::= Seq;
              operator pair   : Seq ::= Seq Bit;
              operator single : Seq ::= Bit;
              operator zero   : Bit ::= ;
              operator one    : Bit ::= ;
              synthesized value : real of Number, Seq, Bit;
              synthesized length : int of Seq;
              inherited scale : int of Seq, Bit;
              for number { Number.value := Seq.value; Seq.scale := 0; }
              for pair {
                Seq$1.value := Seq$2.value + Bit.value;
                Seq$1.length := Seq$2.length + 1;
                Seq$2.scale := Seq$1.scale + 1;
                Bit.scale := Seq$1.scale;
              }
              for single { Seq.value := Bit.value; Seq.length := 1; Bit.scale := Seq.scale; }
              for zero { Bit.value := 0.0; }
              for one  { Bit.value := pow2(Bit.scale); }
              function pow2(n : int) : real = if n = 0 then 1.0 else 2.0 * pow2(n - 1) end;
            end
        "#;
        let Unit::Ag(ag) = parse_unit(src).unwrap() else {
            panic!("expected AG");
        };
        assert_eq!(ag.phyla, vec!["Number", "Seq", "Bit"]);
        assert_eq!(ag.operators.len(), 5);
        assert_eq!(ag.attrs.len(), 3);
        assert_eq!(ag.phases.len(), 1);
        assert_eq!(ag.phases[0].blocks.len(), 5);
        let pair = &ag.phases[0].blocks[1];
        assert_eq!(pair.operator, "pair");
        assert_eq!(pair.rules.len(), 4);
        // Seq$2.value parses with index 2.
        let r0 = &pair.rules[0];
        match &r0.body {
            Expr::Binop {
                op: BinOp::Add,
                lhs,
                ..
            } => match &**lhs {
                Expr::Occ(o) => {
                    assert_eq!(o.name, "Seq");
                    assert_eq!(o.index, Some(2));
                    assert_eq!(o.attr, "value");
                }
                other => panic!("expected occurrence, got {other:?}"),
            },
            other => panic!("expected +, got {other:?}"),
        }
    }

    #[test]
    fn parse_expressions_and_patterns() {
        let src = r#"
            module m;
              function classify(l : list of int) : string =
                case l of
                  [] => "empty"
                | x :: [] => if x > 0 then "one" else "neg" end
                | _ :: _ => "many"
                end;
              function fst(p : tuple(int, string)) : int =
                case p of (a, _) => a end;
              function mk(n : int) : tree = @leaf(n);
              function depth(t : tree) : int =
                case t of @leaf(_) => 1 | @fork(a, b) => 1 + max(depth(a), depth(b)) end;
              function max(a : int, b : int) : int = if a > b then a else b end;
            end
        "#;
        let Unit::Module(m) = parse_unit(src).unwrap() else {
            panic!("expected module");
        };
        assert_eq!(m.funcs.len(), 5);
        // classify has 3 arms.
        match &m.funcs[0].body {
            Expr::Case { arms, .. } => assert_eq!(arms.len(), 3),
            other => panic!("expected case, got {other:?}"),
        }
    }

    #[test]
    fn parse_phases_and_locals() {
        let src = r#"
            attribute grammar g;
              phylum S;
              operator leaf : S ::= ;
              synthesized v : int of S;
              phase compute {
                for leaf {
                  local tmp : int := 20 + 1;
                  S.v := tmp * 2;
                }
              }
            end
        "#;
        let Unit::Ag(ag) = parse_unit(src).unwrap() else {
            panic!("expected AG");
        };
        assert_eq!(ag.phases.len(), 1);
        assert_eq!(ag.phases[0].name, "compute");
        let block = &ag.phases[0].blocks[0];
        assert_eq!(block.locals.len(), 1);
        assert_eq!(block.rules.len(), 1);
        assert!(matches!(&block.rules[0].target, RuleTarget::Occ(_)));
    }

    #[test]
    fn errors_carry_positions() {
        let err = parse_unit("module m\nend").unwrap_err();
        assert_eq!(err.pos.line, 2, "{err}");
        assert!(err.message.contains("expected `;`"));
    }

    #[test]
    fn multiple_units() {
        let src = "module a; end module b; end";
        let units = parse_units(src).unwrap();
        assert_eq!(units.len(), 2);
        assert_eq!(units[1].name(), "b");
    }

    #[test]
    fn operators_precedence() {
        let src = "module m; const c : int = 1 + 2 * 3; end";
        let Unit::Module(m) = parse_unit(src).unwrap() else {
            panic!()
        };
        match &m.consts[0].body {
            Expr::Binop {
                op: BinOp::Add,
                rhs,
                ..
            } => {
                assert!(matches!(&**rhs, Expr::Binop { op: BinOp::Mul, .. }));
            }
            other => panic!("expected + at top, got {other:?}"),
        }
    }
}
