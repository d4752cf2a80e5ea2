//! The OLGA expression interpreter.
//!
//! Evaluates checked expressions over the dynamic [`Value`] model: this is
//! the role the paper's OLGA-to-C/Lisp translators play at run time (the
//! generated C text is produced by `fnc2-codegen`; measurement runs execute
//! in-process through this interpreter).
//!
//! # Errors
//!
//! OLGA's `error("…")` builtin — the documented abort path of a language
//! whose exceptions were *designed but not implemented* ("the most notable
//! omissions are … exceptions") — and every other runtime failure (partial
//! accessors such as `hd`/`lookup`, an unmatched `case`, a circular
//! constant) surface as [`EvalAbort`] values, never as Rust panics, so the
//! surrounding pipeline can report them as ordinary diagnostics.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use fnc2_ag::{List, Map, Value};

use crate::ast::{Expr, Pat};
use crate::check::UnitEnv;
use crate::lexer::Pos;

/// A runtime failure inside the OLGA interpreter: the `error` builtin, a
/// partial builtin applied out of domain, an unmatched `case`, a circular
/// constant definition, or a dynamic type confusion that slipped past the
/// checker.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EvalAbort {
    /// Human-readable description of the failure.
    pub message: String,
    /// Source position, when the failing construct carries one.
    pub pos: Option<Pos>,
}

impl EvalAbort {
    /// An abort without a source position.
    pub fn new(message: impl Into<String>) -> EvalAbort {
        EvalAbort {
            message: message.into(),
            pos: None,
        }
    }

    /// An abort at a known source position.
    pub fn at(message: impl Into<String>, pos: Pos) -> EvalAbort {
        EvalAbort {
            message: message.into(),
            pos: Some(pos),
        }
    }
}

impl fmt::Display for EvalAbort {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.pos {
            Some(pos) => write!(f, "{} at {pos}", self.message),
            None => write!(f, "{}", self.message),
        }
    }
}

impl std::error::Error for EvalAbort {}

/// Internal result type: the abort is boxed so the `Result` temporaries in
/// the interpreter's (deeply recursive) frames stay pointer-sized — debug
/// builds do not coalesce stack slots, and OLGA programs recurse hundreds
/// of frames deep.
type EResult = Result<Value, Box<EvalAbort>>;

#[cold]
fn abort(message: String, pos: Pos) -> Box<EvalAbort> {
    Box::new(EvalAbort::at(message, pos))
}

/// Immutable evaluation context: functions and constant values.
#[derive(Clone, Debug)]
pub struct EvalCtx {
    env: Arc<UnitEnv>,
    consts: Arc<HashMap<String, Value>>,
}

impl EvalCtx {
    /// Builds the context for a checked unit: constant definitions are
    /// evaluated once, in dependency order.
    ///
    /// # Errors
    ///
    /// Fails on circular constant definitions (the checker defers the cycle
    /// check to here) or when a constant's body aborts at evaluation time.
    pub fn new(env: &UnitEnv) -> Result<EvalCtx, EvalAbort> {
        let env = Arc::new(env.clone());
        // Dependency-order the constants by the constant names their
        // bodies reference.
        let mut names: Vec<&String> = env.consts.keys().collect();
        names.sort();
        let mut order: Vec<&String> = Vec::new();
        let mut state: HashMap<&str, u8> = HashMap::new(); // 1=visiting, 2=done
        fn visit<'a>(
            n: &'a String,
            env: &'a UnitEnv,
            state: &mut HashMap<&'a str, u8>,
            order: &mut Vec<&'a String>,
        ) -> Result<(), EvalAbort> {
            match state.get(n.as_str()) {
                Some(2) => return Ok(()),
                Some(1) => {
                    return Err(EvalAbort::at(
                        format!("circular constant definition involving `{n}`"),
                        env.consts[n].1.pos(),
                    ))
                }
                _ => {}
            }
            state.insert(n, 1);
            let mut refs = Vec::new();
            let mut bound = Vec::new();
            collect_const_refs(&env.consts[n].1, env, &mut bound, &mut refs);
            for r in refs {
                visit(r, env, state, order)?;
            }
            state.insert(n, 2);
            order.push(n);
            Ok(())
        }
        for n in names {
            visit(n, &env, &mut state, &mut order)?;
        }
        let mut done: HashMap<String, Value> = HashMap::new();
        for n in order {
            let ctx = EvalCtx {
                env: env.clone(),
                consts: Arc::new(done.clone()),
            };
            let v = ctx.eval_closed(&env.consts[n].1.clone())?;
            done.insert(n.clone(), v);
        }
        Ok(EvalCtx {
            env,
            consts: Arc::new(done),
        })
    }

    /// The unit environment.
    pub fn env(&self) -> &UnitEnv {
        &self.env
    }

    /// Evaluates a closed expression.
    ///
    /// # Errors
    /// Fails when evaluation aborts (see [`EvalAbort`]).
    pub fn eval_closed(&self, e: &Expr) -> Result<Value, EvalAbort> {
        let mut scope = Scope::default();
        self.eval(e, &mut scope).map_err(|e| *e)
    }

    /// Evaluates `e` under `bindings` (used by lowered semantic rules).
    ///
    /// # Errors
    /// Fails when evaluation aborts (see [`EvalAbort`]).
    pub fn eval_with(&self, e: &Expr, bindings: &[(String, Value)]) -> Result<Value, EvalAbort> {
        let mut scope = Scope::default();
        for (n, v) in bindings {
            scope.bind(n.clone(), v.clone());
        }
        self.eval(e, &mut scope).map_err(|e| *e)
    }

    /// Applies a user function by name.
    ///
    /// # Errors
    /// Fails if the function is unknown, the arity is wrong (the checker
    /// prevents both for checked programs), or the body aborts.
    pub fn apply(&self, name: &str, args: Vec<Value>) -> Result<Value, EvalAbort> {
        self.apply_inner(name, args).map_err(|e| *e)
    }

    fn apply_inner(&self, name: &str, args: Vec<Value>) -> EResult {
        let sig = self
            .env
            .funcs
            .get(name)
            .ok_or_else(|| Box::new(EvalAbort::new(format!("unknown function `{name}`"))))?;
        if sig.params.len() != args.len() {
            return Err(Box::new(EvalAbort::new(format!(
                "arity mismatch applying `{name}`: expected {} arguments, got {}",
                sig.params.len(),
                args.len()
            ))));
        }
        let mut scope = Scope::default();
        for ((p, _), v) in sig.params.iter().zip(args) {
            scope.bind(p.clone(), v);
        }
        self.eval(&sig.body, &mut scope)
    }

    fn eval(&self, e: &Expr, scope: &mut Scope) -> EResult {
        match e {
            Expr::Int(i, _) => Ok(Value::Int(*i)),
            Expr::Real(r, _) => Ok(Value::Real(*r)),
            Expr::Bool(b, _) => Ok(Value::Bool(*b)),
            Expr::Str(s, _) => Ok(Value::str(s)),
            Expr::Var(n, pos) => match scope.lookup(n) {
                Some(v) => Ok(v.clone()),
                None => self
                    .consts
                    .get(n)
                    .cloned()
                    .ok_or_else(|| abort(format!("unbound variable `{n}`"), *pos)),
            },
            Expr::Occ(o) => Err(abort(
                format!(
                    "occurrence `{}.{}` reached the interpreter; lowering must substitute it",
                    o.name, o.attr
                ),
                o.pos,
            )),
            Expr::Call { name, args, pos } => {
                let mut vals = Vec::with_capacity(args.len());
                for a in args {
                    vals.push(self.eval(a, scope)?);
                }
                self.call(name, vals, *pos)
            }
            Expr::Unop { op, expr, pos } => {
                let v = self.eval(expr, scope)?;
                match (*op, v) {
                    ("-", Value::Int(i)) => Ok(Value::Int(i.wrapping_neg())),
                    ("-", Value::Real(r)) => Ok(Value::Real(-r)),
                    ("not", Value::Bool(b)) => Ok(Value::Bool(!b)),
                    (op, v) => Err(abort(
                        format!("unary `{op}` applied to a {}", v.type_name()),
                        *pos,
                    )),
                }
            }
            Expr::Binop { op, lhs, rhs, pos } => {
                // Short-circuit and/or.
                if *op == "and" {
                    return if want_bool(&self.eval(lhs, scope)?, *pos)? {
                        self.eval(rhs, scope)
                    } else {
                        Ok(Value::Bool(false))
                    };
                }
                if *op == "or" {
                    return if want_bool(&self.eval(lhs, scope)?, *pos)? {
                        Ok(Value::Bool(true))
                    } else {
                        self.eval(rhs, scope)
                    };
                }
                let l = self.eval(lhs, scope)?;
                let r = self.eval(rhs, scope)?;
                binop(op, l, r, *pos)
            }
            Expr::If {
                cond, then, els, ..
            } => {
                if want_bool(&self.eval(cond, scope)?, cond.pos())? {
                    self.eval(then, scope)
                } else {
                    self.eval(els, scope)
                }
            }
            Expr::Let {
                name, value, body, ..
            } => {
                let v = self.eval(value, scope)?;
                scope.bind(name.clone(), v);
                let out = self.eval(body, scope);
                scope.unbind(1);
                out
            }
            Expr::Case {
                scrutinee,
                arms,
                pos,
            } => {
                let v = self.eval(scrutinee, scope)?;
                for (pat, body) in arms {
                    let mut n = 0;
                    if match_pat(pat, &v, scope, &mut n) {
                        let out = self.eval(body, scope);
                        scope.unbind(n);
                        return out;
                    }
                    scope.unbind(n);
                }
                Err(abort(format!("case expression: no arm matched {v}"), *pos))
            }
            Expr::ListLit(items, _) => {
                let mut vs = Vec::with_capacity(items.len());
                for i in items {
                    vs.push(self.eval(i, scope)?);
                }
                Ok(Value::list(vs))
            }
            Expr::TupleLit(items, _) => {
                let mut vs = Vec::with_capacity(items.len());
                for i in items {
                    vs.push(self.eval(i, scope)?);
                }
                Ok(Value::tuple(vs))
            }
            Expr::TreeCons { op, args, .. } => {
                let mut vs = Vec::with_capacity(args.len());
                for a in args {
                    vs.push(self.eval(a, scope)?);
                }
                Ok(Value::term(op.clone(), vs))
            }
        }
    }

    fn call(&self, name: &str, args: Vec<Value>, pos: Pos) -> EResult {
        let arg = |i: usize| -> Result<&Value, Box<EvalAbort>> {
            args.get(i)
                .ok_or_else(|| abort(format!("builtin `{name}`: missing argument {i}"), pos))
        };
        match name {
            "to_real" => Ok(Value::Real(want_int(arg(0)?, pos)? as f64)),
            "to_int" => Ok(Value::Int(want_real(arg(0)?, pos)? as i64)),
            "abs" => Ok(Value::Int(want_int(arg(0)?, pos)?.wrapping_abs())),
            "min" => Ok(Value::Int(
                want_int(arg(0)?, pos)?.min(want_int(arg(1)?, pos)?),
            )),
            "max" => Ok(Value::Int(
                want_int(arg(0)?, pos)?.max(want_int(arg(1)?, pos)?),
            )),
            "len" => Ok(Value::Int(want_list(arg(0)?, pos)?.len() as i64)),
            "null" => Ok(Value::Bool(want_list(arg(0)?, pos)?.is_empty())),
            "hd" => want_list(arg(0)?, pos)?
                .first()
                .cloned()
                .ok_or_else(|| abort("hd of empty list".to_string(), pos)),
            "tl" => Ok(Value::List(want_list(arg(0)?, pos)?.tail())),
            "rev" => {
                let mut items: Vec<Value> = want_list(arg(0)?, pos)?.iter().cloned().collect();
                items.reverse();
                Ok(Value::List(List::new(items)))
            }
            "empty_map" => Ok(Value::empty_map()),
            "size" => Ok(Value::Int(want_map(arg(0)?, pos)?.len() as i64)),
            "insert" => {
                let key = want_str(arg(1)?, pos)?.to_string();
                Ok(arg(0)?.map_insert(key, arg(2)?.clone()))
            }
            "lookup" => {
                want_map(arg(0)?, pos)?;
                let key = want_str(arg(1)?, pos)?;
                arg(0)?
                    .map_get(key)
                    .cloned()
                    .ok_or_else(|| abort(format!("lookup: unbound key {key:?}"), pos))
            }
            "bound" => {
                want_map(arg(0)?, pos)?;
                let key = want_str(arg(1)?, pos)?;
                Ok(Value::Bool(arg(0)?.map_get(key).is_some()))
            }
            "remove" => {
                let mut m = (**want_map(arg(0)?, pos)?).clone();
                m.remove(want_str(arg(1)?, pos)?);
                Ok(Value::map(m))
            }
            "itoa" => Ok(Value::str(want_int(arg(0)?, pos)?.to_string())),
            "rtoa" => Ok(Value::str(format!("{}", want_real(arg(0)?, pos)?))),
            "strlen" => Ok(Value::Int(want_str(arg(0)?, pos)?.chars().count() as i64)),
            "error" => Err(abort(
                format!("OLGA error: {}", want_str(arg(0)?, pos)?),
                pos,
            )),
            _ => self.apply_inner(name, args),
        }
    }
}

/// Collects references to constant names in `e` for dependency ordering.
///
/// The scan is binder-aware: `let` and `case` binders shadow constants of
/// the same name, so a shadowed occurrence contributes no dependency edge
/// (a naive scan reports `let c = 1 in c end` as a self-cycle of `c`).
fn collect_const_refs<'a>(
    e: &Expr,
    env: &'a UnitEnv,
    bound: &mut Vec<String>,
    out: &mut Vec<&'a String>,
) {
    match e {
        Expr::Var(n, _) => {
            if bound.iter().any(|b| b == n) {
                return;
            }
            if let Some((k, _)) = env.consts.get_key_value(n) {
                out.push(k);
            }
        }
        Expr::Call { args, .. } => {
            for a in args {
                collect_const_refs(a, env, bound, out);
            }
        }
        Expr::Unop { expr, .. } => collect_const_refs(expr, env, bound, out),
        Expr::Binop { lhs, rhs, .. } => {
            collect_const_refs(lhs, env, bound, out);
            collect_const_refs(rhs, env, bound, out);
        }
        Expr::If {
            cond, then, els, ..
        } => {
            collect_const_refs(cond, env, bound, out);
            collect_const_refs(then, env, bound, out);
            collect_const_refs(els, env, bound, out);
        }
        Expr::Let {
            name, value, body, ..
        } => {
            collect_const_refs(value, env, bound, out);
            bound.push(name.clone());
            collect_const_refs(body, env, bound, out);
            bound.pop();
        }
        Expr::Case {
            scrutinee, arms, ..
        } => {
            collect_const_refs(scrutinee, env, bound, out);
            for (p, b) in arms {
                let before = bound.len();
                bound.extend(p.binders().into_iter().map(String::from));
                collect_const_refs(b, env, bound, out);
                bound.truncate(before);
            }
        }
        Expr::ListLit(items, _) | Expr::TupleLit(items, _) => {
            for i in items {
                collect_const_refs(i, env, bound, out);
            }
        }
        Expr::TreeCons { args, .. } => {
            for a in args {
                collect_const_refs(a, env, bound, out);
            }
        }
        _ => {}
    }
}

/// Lexical runtime scope.
#[derive(Default, Debug)]
struct Scope {
    stack: Vec<(String, Value)>,
}

impl Scope {
    fn bind(&mut self, name: String, v: Value) {
        self.stack.push((name, v));
    }
    fn unbind(&mut self, n: usize) {
        self.stack.truncate(self.stack.len() - n);
    }
    fn lookup(&self, name: &str) -> Option<&Value> {
        self.stack
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v)
    }
}

fn want_int(v: &Value, pos: Pos) -> Result<i64, Box<EvalAbort>> {
    match v {
        Value::Int(i) => Ok(*i),
        v => Err(type_confusion("int", v, pos)),
    }
}

fn want_real(v: &Value, pos: Pos) -> Result<f64, Box<EvalAbort>> {
    match v {
        Value::Real(r) => Ok(*r),
        v => Err(type_confusion("real", v, pos)),
    }
}

fn want_bool(v: &Value, pos: Pos) -> Result<bool, Box<EvalAbort>> {
    match v {
        Value::Bool(b) => Ok(*b),
        v => Err(type_confusion("bool", v, pos)),
    }
}

fn want_str(v: &Value, pos: Pos) -> Result<&str, Box<EvalAbort>> {
    match v {
        Value::Str(s) => Ok(s),
        v => Err(type_confusion("string", v, pos)),
    }
}

fn want_list(v: &Value, pos: Pos) -> Result<&List, Box<EvalAbort>> {
    match v {
        Value::List(l) => Ok(l),
        v => Err(type_confusion("list", v, pos)),
    }
}

fn want_map(v: &Value, pos: Pos) -> Result<&Map, Box<EvalAbort>> {
    match v {
        Value::Map(m) => Ok(m),
        v => Err(type_confusion("map", v, pos)),
    }
}

#[cold]
fn type_confusion(wanted: &str, got: &Value, pos: Pos) -> Box<EvalAbort> {
    abort(
        format!("expected a {wanted}, got a {} ({got})", got.type_name()),
        pos,
    )
}

fn binop(op: &str, l: Value, r: Value, pos: Pos) -> EResult {
    use Value::*;
    Ok(match (op, &l, &r) {
        ("+", Int(a), Int(b)) => Int(a.wrapping_add(*b)),
        ("+", Real(a), Real(b)) => Real(a + b),
        ("+", Str(a), Str(b)) => Value::str(format!("{a}{b}")),
        ("-", Int(a), Int(b)) => Int(a.wrapping_sub(*b)),
        ("-", Real(a), Real(b)) => Real(a - b),
        ("*", Int(a), Int(b)) => Int(a.wrapping_mul(*b)),
        ("*", Real(a), Real(b)) => Real(a * b),
        ("/", Int(_), Int(0)) => {
            return Err(abort("integer division by zero".to_string(), pos));
        }
        ("/", Int(a), Int(b)) => Int(a.wrapping_div(*b)),
        ("/", Real(a), Real(b)) => Real(a / b),
        ("%", Int(_), Int(0)) => {
            return Err(abort("integer remainder by zero".to_string(), pos));
        }
        ("%", Int(a), Int(b)) => Int(a.wrapping_rem(*b)),
        ("=", a, b) => Bool(a == b),
        ("<>", a, b) => Bool(a != b),
        ("<", a, b) => Bool(a.partial_cmp(b) == Some(std::cmp::Ordering::Less)),
        ("<=", a, b) => Bool(matches!(
            a.partial_cmp(b),
            Some(std::cmp::Ordering::Less | std::cmp::Ordering::Equal)
        )),
        (">", a, b) => Bool(a.partial_cmp(b) == Some(std::cmp::Ordering::Greater)),
        (">=", a, b) => Bool(matches!(
            a.partial_cmp(b),
            Some(std::cmp::Ordering::Greater | std::cmp::Ordering::Equal)
        )),
        ("::", _, List(items)) => concat(&fnc2_ag::List::new(vec![l.clone()]), items, pos)?,
        ("++", Str(a), Str(b)) => Value::str(format!("{a}{b}")),
        ("++", List(a), List(b)) => concat(a, b, pos)?,
        (op, l, r) => {
            return Err(abort(
                format!(
                    "binary `{op}` applied to a {} and a {}",
                    l.type_name(),
                    r.type_name()
                ),
                pos,
            ));
        }
    })
}

/// `a ++ b` for lists, sharing both; aborts rather than build a list
/// longer than `isize::MAX` elements (no slice could ever hold it).
fn concat(a: &List, b: &List, pos: Pos) -> EResult {
    match a.len().checked_add(b.len()) {
        Some(n) if n <= isize::MAX as usize => Ok(Value::List(a.concat(b))),
        _ => Err(abort(
            format!("list too long: {} + {} elements", a.len(), b.len()),
            pos,
        )),
    }
}

/// Pattern match; pushes bindings into `scope` (caller pops `*pushed`).
fn match_pat(pat: &Pat, v: &Value, scope: &mut Scope, pushed: &mut usize) -> bool {
    match (pat, v) {
        (Pat::Wild(_), _) => true,
        (Pat::Bind(n, _), v) => {
            scope.bind(n.clone(), v.clone());
            *pushed += 1;
            true
        }
        (Pat::Int(i, _), Value::Int(j)) => i == j,
        (Pat::Bool(b, _), Value::Bool(c)) => b == c,
        (Pat::Str(s, _), Value::Str(t)) => s.as_str() == &**t,
        (Pat::Nil(_), Value::List(items)) => items.is_empty(),
        (Pat::Cons(h, t, _), Value::List(items)) => match items.first() {
            Some(x) => {
                match_pat(h, x, scope, pushed)
                    && match_pat(t, &Value::List(items.tail()), scope, pushed)
            }
            None => false,
        },
        (Pat::Tuple(ps, _), Value::Tuple(items)) => {
            ps.len() == items.len()
                && ps
                    .iter()
                    .zip(items.iter())
                    .all(|(p, v)| match_pat(p, v, scope, pushed))
        }
        (Pat::Term { op, args, .. }, Value::Term(t)) => {
            op == &t.op
                && args.len() == t.children.len()
                && args
                    .iter()
                    .zip(&t.children)
                    .all(|(p, v)| match_pat(p, v, scope, pushed))
        }
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use crate::ast::Unit;
    use crate::check::Compiler;
    use crate::parser::parse_unit;

    use super::*;

    fn ctx_for(src: &str) -> EvalCtx {
        try_ctx_for(src).unwrap()
    }

    fn try_ctx_for(src: &str) -> Result<EvalCtx, EvalAbort> {
        let Unit::Module(m) = parse_unit(src).unwrap() else {
            panic!("expected module")
        };
        let mut c = Compiler::new();
        c.add_module(m.clone()).unwrap();
        EvalCtx::new(&c.module(&m.name).unwrap().env)
    }

    fn apply(ctx: &EvalCtx, name: &str, args: Vec<Value>) -> Value {
        ctx.apply(name, args).unwrap()
    }

    #[test]
    fn arithmetic_and_recursion() {
        let ctx = ctx_for(
            r#"
            module m;
              function fact(n : int) : int = if n <= 1 then 1 else n * fact(n - 1) end;
              function fib(n : int) : int =
                if n < 2 then n else fib(n - 1) + fib(n - 2) end;
            end
            "#,
        );
        assert_eq!(apply(&ctx, "fact", vec![Value::Int(6)]), Value::Int(720));
        assert_eq!(apply(&ctx, "fib", vec![Value::Int(10)]), Value::Int(55));
    }

    #[test]
    fn lists_and_patterns() {
        let ctx = ctx_for(
            r#"
            module m;
              function suml(l : list of int) : int =
                case l of [] => 0 | x :: r => x + suml(r) end;
              function second(l : list of int) : int =
                case l of _ :: y :: _ => y | _ => -1 end;
            end
            "#,
        );
        let l = Value::list([Value::Int(1), Value::Int(2), Value::Int(3)]);
        assert_eq!(apply(&ctx, "suml", vec![l.clone()]), Value::Int(6));
        assert_eq!(apply(&ctx, "second", vec![l]), Value::Int(2));
        assert_eq!(
            apply(&ctx, "second", vec![Value::list([Value::Int(9)])]),
            Value::Int(-1)
        );
    }

    /// The same element sequence as a flat list, as concatenations
    /// (balanced, left- and right-leaning) and as a view into a flat chunk.
    fn shapes(items: &[Value]) -> Vec<Value> {
        let one = |x: &Value| List::new(vec![x.clone()]);
        let mut left = List::new(Vec::new());
        let mut right = List::new(Vec::new());
        for (x, y) in items.iter().zip(items.iter().rev()) {
            left = left.concat(&one(x));
            right = one(y).concat(&right);
        }
        let (a, b) = items.split_at(items.len() / 2);
        let halves = List::new(a.to_vec()).concat(&List::new(b.to_vec()));
        let view = List::new([Value::Int(-9)].iter().chain(items).cloned().collect()).tail();
        let mut out = vec![Value::list(items.to_vec())];
        out.extend([left, right, halves, view].map(Value::List));
        out
    }

    #[test]
    fn list_builtins_agree_on_every_shape() {
        let ctx = ctx_for(
            r#"
            module m;
              function f_len(l : list of int) : int = len(l);
              function f_null(l : list of int) : bool = null(l);
              function f_hd(l : list of int) : int = if null(l) then -1 else hd(l) end;
              function f_tl(l : list of int) : list of int = tl(l);
              function f_tl2(l : list of int) : list of int = tl(tl(l));
              function f_rev(l : list of int) : list of int = rev(l);
              function f_cons(l : list of int) : list of int = 7 :: l;
              function f_app(l : list of int) : list of int = l ++ [8] ++ l;
              function f_sum(l : list of int) : int =
                case l of [] => 0 | x :: r => x + 2 * f_sum(r) end;
              function f_second(l : list of int) : int =
                case l of _ :: y :: _ => y | _ => -1 end;
              function f_rest(l : list of int) : list of int =
                case l of _ :: _ :: r => r | _ => [] end;
              function f_nil(l : list of int) : bool = case l of [] => true | _ => false end;
              function f_eq(l : list of int, k : list of int) : bool = l = k;
            end
            "#,
        );
        let unary = [
            "f_len", "f_null", "f_hd", "f_tl", "f_tl2", "f_rev", "f_cons", "f_app", "f_sum",
            "f_second", "f_rest", "f_nil",
        ];
        for n in [0, 1, 2, 3, 31, 32, 33, 34, 64, 70] {
            let items: Vec<Value> = (0..n).map(|i| Value::Int(i * 3 % 11)).collect();
            let shapes = shapes(&items);
            for f in unary {
                let want = apply(&ctx, f, vec![shapes[0].clone()]);
                for (k, shape) in shapes.iter().enumerate() {
                    let got = apply(&ctx, f, vec![shape.clone()]);
                    assert_eq!(got, want, "{f} on {n} elements, shape {k}");
                    assert_eq!(got.to_string(), want.to_string(), "{f}, shape {k}");
                    assert_eq!(got.cell_count(), want.cell_count(), "{f}, shape {k}");
                }
            }
            for a in &shapes {
                for b in &shapes {
                    let args = vec![a.clone(), b.clone()];
                    assert_eq!(apply(&ctx, "f_eq", args), Value::Bool(true));
                }
            }
        }
    }

    #[test]
    fn doubling_shares_and_huge_lengths_abort() {
        let ctx = ctx_for(
            r#"
            module m;
              function dbl(l : list of int, n : int) : list of int =
                if n = 0 then l else dbl(l ++ l, n - 1) end;
              function len_dbl(n : int) : int = len(dbl([1], n));
              function eq_dbl(n : int) : bool = dbl([1], n) = dbl([1], n);
              function hd_tl_dbl(n : int) : int = hd(tl(dbl([1], n)));
            end
            "#,
        );
        let n = vec![Value::Int(62)];
        assert_eq!(apply(&ctx, "len_dbl", n.clone()), Value::Int(1 << 62));
        assert_eq!(apply(&ctx, "eq_dbl", n.clone()), Value::Bool(true));
        assert_eq!(apply(&ctx, "hd_tl_dbl", n), Value::Int(1));
        let err = ctx.apply("dbl", vec![Value::list([Value::Int(1)]), Value::Int(70)]);
        assert!(err.unwrap_err().message.starts_with("list too long"));
    }

    #[test]
    fn maps_and_strings() {
        let ctx = ctx_for(
            r#"
            module m;
              function note(e : map of string, k : string, v : string) : map of string =
                insert(e, k, v);
              function get(e : map of string, k : string) : string =
                if bound(e, k) then lookup(e, k) else "?" end;
              const greeting : string = "hi " ++ "there";
            end
            "#,
        );
        let m0 = Value::empty_map();
        let m1 = apply(&ctx, "note", vec![m0, Value::str("a"), Value::str("1")]);
        assert_eq!(
            apply(&ctx, "get", vec![m1.clone(), Value::str("a")]),
            Value::str("1")
        );
        assert_eq!(
            apply(&ctx, "get", vec![m1, Value::str("b")]),
            Value::str("?")
        );
        assert_eq!(
            ctx.eval_closed(&crate::ast::Expr::Var(
                "greeting".into(),
                crate::lexer::Pos { line: 0, col: 0 }
            ))
            .unwrap(),
            Value::str("hi there")
        );
    }

    #[test]
    fn trees_and_term_patterns() {
        let ctx = ctx_for(
            r#"
            module m;
              function mk(n : int) : tree = @leaf(n);
              function depth(t : tree) : int =
                case t of @leaf(_) => 1 | @fork(a, b) => 1 + max(depth(a), depth(b)) end;
              function grow(n : int) : tree =
                if n = 0 then @leaf(0) else @fork(grow(n - 1), @leaf(n)) end;
            end
            "#,
        );
        let t = apply(&ctx, "grow", vec![Value::Int(3)]);
        assert_eq!(apply(&ctx, "depth", vec![t]), Value::Int(4));
    }

    #[test]
    fn consts_depending_on_consts() {
        let ctx = ctx_for(
            r#"
            module m;
              const b : int = a + 1;
              const a : int = 41;
            end
            "#,
        );
        assert_eq!(
            ctx.eval_closed(&crate::ast::Expr::Var(
                "b".into(),
                crate::lexer::Pos { line: 0, col: 0 }
            ))
            .unwrap(),
            Value::Int(42)
        );
    }

    #[test]
    fn error_builtin_reports_abort() {
        let ctx = ctx_for("module m; function f(x : int) : int = error(\"boom\"); end");
        let err = ctx.apply("f", vec![Value::Int(0)]).unwrap_err();
        assert_eq!(err.message, "OLGA error: boom");
        assert!(err.pos.is_some(), "error builtin reports its call site");
    }

    #[test]
    fn partial_builtins_report_aborts() {
        let ctx = ctx_for(
            r#"
            module m;
              function first(l : list of int) : int = hd(l);
              function get(e : map of string, k : string) : string = lookup(e, k);
              function halve(n : int) : int = n / 0;
            end
            "#,
        );
        let err = ctx.apply("first", vec![Value::list([])]).unwrap_err();
        assert_eq!(err.message, "hd of empty list");
        let err = ctx
            .apply("get", vec![Value::empty_map(), Value::str("k")])
            .unwrap_err();
        assert!(err.message.starts_with("lookup: unbound key"));
        let err = ctx.apply("halve", vec![Value::Int(4)]).unwrap_err();
        assert_eq!(err.message, "integer division by zero");
    }

    #[test]
    fn circular_consts_report_abort() {
        let err = try_ctx_for(
            r#"
            module m;
              const a : int = b + 1;
              const b : int = a + 1;
            end
            "#,
        )
        .unwrap_err();
        assert!(err.message.contains("circular constant definition"));
        assert!(err.pos.is_some());
    }

    #[test]
    fn let_shadowing_is_not_a_constant_cycle() {
        // A naive free-variable scan sees `c` in the let body and reports a
        // self-cycle; the binder-aware scan must not.
        let ctx = ctx_for(
            r#"
            module m;
              const c : int = let c = 1 in c + 41 end;
            end
            "#,
        );
        assert_eq!(
            ctx.eval_closed(&crate::ast::Expr::Var(
                "c".into(),
                crate::lexer::Pos { line: 0, col: 0 }
            ))
            .unwrap(),
            Value::Int(42)
        );
    }

    #[test]
    fn case_binder_shadowing_is_not_a_constant_cycle() {
        let ctx = ctx_for(
            r#"
            module m;
              const c : int = case [7] of c :: _ => c | _ => 0 end;
            end
            "#,
        );
        assert_eq!(
            ctx.eval_closed(&crate::ast::Expr::Var(
                "c".into(),
                crate::lexer::Pos { line: 0, col: 0 }
            ))
            .unwrap(),
            Value::Int(7)
        );
    }

    #[test]
    fn short_circuit() {
        let ctx = ctx_for(
            r#"
            module m;
              function safe(l : list of int) : bool =
                not null(l) and hd(l) > 0;
            end
            "#,
        );
        assert_eq!(
            apply(&ctx, "safe", vec![Value::list([])]),
            Value::Bool(false),
            "hd must not run on the empty list"
        );
    }
}
