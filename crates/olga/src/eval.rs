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

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::Arc;

use fnc2_ag::{List, Map, Value};

use crate::ast::{Callee, Expr, Pat, VarRef};
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

/// The values a body reads by position: a lowered rule's arguments, and
/// the frame of parameters and binders in the checker's slot order.
struct Frame<'a> {
    args: &'a [Value],
    slots: Vec<Value>,
}

impl EvalCtx {
    /// Builds the context for a checked unit: constant definitions are
    /// evaluated once, into one table, in [`UnitEnv::const_order`].
    ///
    /// # Errors
    ///
    /// Fails on circular constant definitions (the checker defers the cycle
    /// check to here) or when a constant's body aborts at evaluation time.
    pub fn new(env: &UnitEnv) -> Result<EvalCtx, EvalAbort> {
        let env = Arc::new(env.clone());
        let (order, cycle) = env.const_order();
        if let Some(cycle) = cycle {
            return Err(cycle);
        }
        let mut ctx = EvalCtx {
            env: Arc::clone(&env),
            consts: Arc::default(),
        };
        for name in order {
            let v = ctx.eval_closed(&env.consts[name].1)?;
            Arc::get_mut(&mut ctx.consts)
                .expect("the table is not shared while it is built")
                .insert(name.to_string(), v);
        }
        Ok(ctx)
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
        self.eval_with(e, &[])
    }

    /// Evaluates a lowered rule body, which reads [`Expr::Arg`]`(k)` as
    /// `args[k]`.
    ///
    /// # Errors
    /// Fails when evaluation aborts (see [`EvalAbort`]).
    pub fn eval_with(&self, e: &Expr, args: &[Value]) -> Result<Value, EvalAbort> {
        let mut frame = Frame {
            args,
            slots: Vec::new(),
        };
        self.eval(e, &mut frame).map_err(|e| *e)
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
        let mut frame = Frame {
            args: &[],
            slots: args,
        };
        self.eval(&sig.body, &mut frame)
    }

    fn eval(&self, e: &Expr, frame: &mut Frame) -> EResult {
        match e {
            Expr::Int(i, _) => Ok(Value::Int(*i)),
            Expr::Real(r, _) => Ok(Value::Real(*r)),
            Expr::Bool(b, _) => Ok(Value::Bool(*b)),
            Expr::Str(s, _) => Ok(Value::str(s)),
            Expr::Var { name, var, pos } => {
                let v = match var {
                    VarRef::Binder(slot) => frame.slots.get(*slot),
                    VarRef::Const => self.consts.get(name),
                    VarRef::Local | VarRef::Unresolved => {
                        return Err(abort(
                            format!("variable `{name}` reached the interpreter unresolved"),
                            *pos,
                        ))
                    }
                };
                v.cloned()
                    .ok_or_else(|| abort(format!("unbound variable `{name}`"), *pos))
            }
            Expr::Arg(k) => frame
                .args
                .get(*k)
                .cloned()
                .ok_or_else(|| abort(format!("missing rule argument {k}"), e.pos())),
            Expr::Occ(o) => Err(abort(
                format!(
                    "occurrence `{}.{}` reached the interpreter; lowering must substitute it",
                    o.name, o.attr
                ),
                o.pos,
            )),
            Expr::Call {
                name,
                args,
                callee,
                pos,
            } => {
                let mut vals = Vec::with_capacity(args.len());
                for a in args {
                    vals.push(self.eval(a, frame)?);
                }
                match callee {
                    Callee::User => self.apply_inner(name, vals),
                    Callee::Builtin => self.builtin(name, vals, *pos),
                    Callee::Unresolved => Err(abort(
                        format!("call of `{name}` reached the interpreter unresolved"),
                        *pos,
                    )),
                }
            }
            Expr::Unop { op, expr, pos } => {
                let v = self.eval(expr, frame)?;
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
                    return if want_bool(&self.eval(lhs, frame)?, *pos)? {
                        self.eval(rhs, frame)
                    } else {
                        Ok(Value::Bool(false))
                    };
                }
                if *op == "or" {
                    return if want_bool(&self.eval(lhs, frame)?, *pos)? {
                        Ok(Value::Bool(true))
                    } else {
                        self.eval(rhs, frame)
                    };
                }
                let l = self.eval(lhs, frame)?;
                let r = self.eval(rhs, frame)?;
                binop(op, l, r, *pos)
            }
            Expr::If {
                cond, then, els, ..
            } => {
                if want_bool(&self.eval(cond, frame)?, cond.pos())? {
                    self.eval(then, frame)
                } else {
                    self.eval(els, frame)
                }
            }
            Expr::Let { value, body, .. } => {
                let v = self.eval(value, frame)?;
                frame.slots.push(v);
                let out = self.eval(body, frame);
                frame.slots.pop();
                out
            }
            Expr::Case {
                scrutinee,
                arms,
                pos,
            } => {
                let v = self.eval(scrutinee, frame)?;
                let base = frame.slots.len();
                for (pat, body) in arms {
                    let matched = match_pat(pat, &v, &mut frame.slots);
                    let out = matched.then(|| self.eval(body, frame));
                    frame.slots.truncate(base);
                    if let Some(out) = out {
                        return out;
                    }
                }
                Err(abort(format!("case expression: no arm matched {v}"), *pos))
            }
            Expr::ListLit(items, _) => {
                let mut vs = Vec::with_capacity(items.len());
                for i in items {
                    vs.push(self.eval(i, frame)?);
                }
                Ok(Value::list(vs))
            }
            Expr::TupleLit(items, _) => {
                let mut vs = Vec::with_capacity(items.len());
                for i in items {
                    vs.push(self.eval(i, frame)?);
                }
                Ok(Value::tuple(vs))
            }
            Expr::TreeCons { op, args, .. } => {
                let mut vs = Vec::with_capacity(args.len());
                for a in args {
                    vs.push(self.eval(a, frame)?);
                }
                Ok(Value::term(op.clone(), vs))
            }
        }
    }

    fn builtin(&self, name: &str, args: Vec<Value>, pos: Pos) -> EResult {
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
            _ => Err(abort(format!("unknown builtin `{name}`"), pos)),
        }
    }
}

impl UnitEnv {
    /// The unit's constants in dependency order: each after every
    /// constant its body reads, directly or through the functions it
    /// calls. Roots are taken in name order. Also returns the first
    /// circular definition met, if any; the order then leaves out the
    /// edge that closes the cycle.
    pub fn const_order(&self) -> (Vec<&str>, Option<EvalAbort>) {
        fn visit<'a>(
            env: &'a UnitEnv,
            name: &'a str,
            done: &mut HashMap<&'a str, bool>,
            order: &mut Vec<&'a str>,
            cycle: &mut Option<EvalAbort>,
        ) {
            let Some((_, body)) = env.consts.get(name) else {
                return;
            };
            match done.get(name) {
                Some(true) => return,
                Some(false) => {
                    cycle.get_or_insert_with(|| {
                        EvalAbort::at(
                            format!("circular constant definition involving `{name}`"),
                            body.pos(),
                        )
                    });
                    return;
                }
                None => {}
            }
            done.insert(name, false);
            for read in const_reads(body, env) {
                visit(env, read, done, order, cycle);
            }
            done.insert(name, true);
            order.push(name);
        }
        let mut names: Vec<&str> = self.consts.keys().map(String::as_str).collect();
        names.sort_unstable();
        let (mut done, mut order, mut cycle) = (HashMap::new(), Vec::new(), None);
        for name in names {
            visit(self, name, &mut done, &mut order, &mut cycle);
        }
        (order, cycle)
    }
}

/// The constants `body` reads, directly or through the functions it calls,
/// each function walked once.
fn const_reads<'a>(body: &'a Expr, env: &'a UnitEnv) -> Vec<&'a str> {
    let mut reads = Vec::new();
    let mut called = HashSet::new();
    let mut bodies = vec![body];
    while let Some(body) = bodies.pop() {
        body.walk(&mut |e| match e {
            Expr::Var {
                name,
                var: VarRef::Const,
                ..
            } => reads.push(name.as_str()),
            Expr::Call {
                name,
                callee: Callee::User,
                ..
            } if called.insert(name.as_str()) => {
                bodies.extend(env.funcs.get(name).map(|f| &f.body));
            }
            _ => {}
        });
    }
    reads
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

/// Pattern match; pushes the binders' values onto `slots` in the
/// checker's order (the caller truncates them).
fn match_pat(pat: &Pat, v: &Value, slots: &mut Vec<Value>) -> bool {
    match (pat, v) {
        (Pat::Wild(_), _) => true,
        (Pat::Bind(..), v) => {
            slots.push(v.clone());
            true
        }
        (Pat::Int(i, _), Value::Int(j)) => i == j,
        (Pat::Bool(b, _), Value::Bool(c)) => b == c,
        (Pat::Str(s, _), Value::Str(t)) => s.as_str() == &**t,
        (Pat::Nil(_), Value::List(items)) => items.is_empty(),
        (Pat::Cons(h, t, _), Value::List(items)) => match items.first() {
            Some(x) => match_pat(h, x, slots) && match_pat(t, &Value::List(items.tail()), slots),
            None => false,
        },
        (Pat::Tuple(ps, _), Value::Tuple(items)) => {
            ps.len() == items.len()
                && ps
                    .iter()
                    .zip(items.iter())
                    .all(|(p, v)| match_pat(p, v, slots))
        }
        (Pat::Term { op, args, .. }, Value::Term(t)) => {
            op == &t.op
                && args.len() == t.children.len()
                && args
                    .iter()
                    .zip(&t.children)
                    .all(|(p, v)| match_pat(p, v, slots))
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
        assert_eq!(ctx.consts["greeting"], Value::str("hi there"));
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
        assert_eq!(ctx.consts["b"], Value::Int(42));
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
    fn constants_follow_the_functions_they_call() {
        // `a` sorts before `b` but reads it through `f`.
        let ctx = ctx_for(
            r#"
            module m;
              const a : int = f(1);
              const b : int = 41;
              function f(x : int) : int = x + b;
            end
            "#,
        );
        assert_eq!(ctx.consts["a"], Value::Int(42));
    }

    #[test]
    fn a_cycle_through_a_function_is_circular() {
        let err = try_ctx_for(
            "module m;\nconst a : int = f(1);\nfunction f(x : int) : int = x + a;\nend",
        )
        .unwrap_err();
        assert_eq!(err.message, "circular constant definition involving `a`");
        assert_eq!(err.pos, Some(Pos { line: 2, col: 17 }), "at `a`'s body");
    }

    #[test]
    fn let_shadowing_is_not_a_constant_cycle() {
        // A naive free-variable scan sees `c` in the let body and reports a
        // self-cycle; the checker marks that `c` as a binder.
        let ctx = ctx_for(
            r#"
            module m;
              const c : int = let c = 1 in c + 41 end;
            end
            "#,
        );
        assert_eq!(ctx.consts["c"], Value::Int(42));
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
        assert_eq!(ctx.consts["c"], Value::Int(7));
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
