//! The OLGA expression interpreter.
//!
//! Evaluates checked expressions over the dynamic [`Value`] model: this is
//! the role the paper's OLGA-to-C/Lisp translators play at run time (the
//! generated C text is produced by `fnc2-codegen`; measurement runs execute
//! in-process through this interpreter).
//!
//! It runs what the checker resolved: a call carries its function's id or
//! its [`Builtin`], a constant read its constant's id, an operator its enum
//! value, a string literal its value. Functions and constant values sit in
//! vectors indexed by those ids. Every body runs on one value stack per
//! thread, reused across firings: a user call pushes its arguments, which
//! become the callee's parameters, and `let` and `case` push their binders,
//! so a binder's slot is its offset from the frame's base. Operands that are
//! binders, rule arguments, constants or literals are read in place, and a
//! chain of string `++`s builds one string.
//!
//! # Errors
//!
//! OLGA's `error("…")` builtin — the documented abort path of a language
//! whose exceptions were *designed but not implemented* ("the most notable
//! omissions are … exceptions") — and every other runtime failure (partial
//! accessors such as `hd`/`lookup`, an unmatched `case`, a circular
//! constant) surface as [`EvalAbort`] values, never as Rust panics, so the
//! surrounding pipeline can report them as ordinary diagnostics.

use std::cell::Cell;
use std::collections::HashSet;
use std::fmt;
use std::io::Write as _;
use std::sync::Arc;

use fnc2_ag::{List, Map, Value};

use crate::ast::{BinOp, Builtin, Callee, Expr, Pat, UnOp, VarRef};
use crate::check::{Program, UnitEnv};
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
type EResult<T = Value> = Result<T, Box<EvalAbort>>;

#[cold]
fn abort(message: String, pos: Pos) -> Box<EvalAbort> {
    Box::new(EvalAbort::at(message, pos))
}

/// Immutable evaluation context: the program's functions and the values
/// of the constants the unit reaches, both by id.
#[derive(Clone, Debug)]
pub struct EvalCtx {
    program: Arc<Program>,
    consts: Arc<[Option<Value>]>,
}

thread_local! {
    /// The value stack and the text buffer of this thread's interpreter.
    static SCRATCH: Cell<(Vec<Value>, String)> = const { Cell::new((Vec::new(), String::new())) };
}

/// Runs `f` on a machine over the thread's scratch space, which it takes
/// for the run: a nested run gets a fresh one, and a run that panics drops
/// its own, so no slots outlive it.
fn run<'a>(
    program: &'a Program,
    consts: &'a [Option<Value>],
    args: &'a [Value],
    f: impl FnOnce(&mut Machine<'a>) -> EResult,
) -> Result<Value, EvalAbort> {
    let (stack, text) = SCRATCH.take();
    let mut m = Machine {
        program,
        consts,
        args,
        stack,
        text,
        base: 0,
    };
    let out = f(&mut m);
    m.stack.clear();
    m.text.clear();
    SCRATCH.set((m.stack, m.text));
    out.map_err(|e| *e)
}

impl EvalCtx {
    /// Builds the context for a checked unit: the constants it reaches are
    /// evaluated once, in [`UnitEnv::const_order`].
    ///
    /// # Errors
    ///
    /// Fails on circular constant definitions (the checker defers the cycle
    /// check to here) or when a constant's body aborts at evaluation time.
    pub fn new(env: &UnitEnv) -> Result<EvalCtx, EvalAbort> {
        let (order, cycle) = env.const_order();
        if let Some(cycle) = cycle {
            return Err(cycle);
        }
        let program = Arc::clone(&env.program);
        let mut consts = vec![None; program.consts.len()];
        for c in order {
            let body = &program.consts[c].1;
            consts[c] = Some(run(&program, &consts, &[], |m| m.eval(body))?);
        }
        Ok(EvalCtx {
            program,
            consts: consts.into(),
        })
    }

    /// Evaluates a lowered rule body, which reads [`Expr::Arg`]`(k)` as
    /// `args[k]`.
    ///
    /// # Errors
    /// Fails when evaluation aborts (see [`EvalAbort`]).
    pub fn eval_with(&self, e: &Expr, args: &[Value]) -> Result<Value, EvalAbort> {
        run(&self.program, &self.consts, args, |m| m.eval(e))
    }

    /// Applies the function of id `f` (see [`crate::FunSig::id`]).
    ///
    /// # Errors
    /// Fails if the function is unknown, the arity is wrong (the checker
    /// prevents both for checked programs), or the body aborts.
    pub fn apply(&self, f: usize, args: Vec<Value>) -> Result<Value, EvalAbort> {
        run(&self.program, &self.consts, &[], |m| {
            m.stack.extend(args);
            m.enter(f, 0)
        })
    }
}

/// One run: the program, the constant values, a lowered rule's arguments,
/// the value stack, whose frame from `base` on holds the current
/// function's parameters and binders, and the text buffer that string
/// chains are built in.
struct Machine<'a> {
    program: &'a Program,
    consts: &'a [Option<Value>],
    args: &'a [Value],
    stack: Vec<Value>,
    text: String,
    base: usize,
}

/// An operand: a value read in place (a literal, a constant or a rule
/// argument), a slot of the value stack, or a value computed for it.
enum Opnd<'a> {
    Ref(&'a Value),
    Slot(usize),
    Own(Value),
}

impl Opnd<'_> {
    fn get<'s>(&'s self, stack: &'s [Value]) -> &'s Value {
        match self {
            Opnd::Ref(v) => v,
            Opnd::Slot(k) => &stack[*k],
            Opnd::Own(v) => v,
        }
    }

    fn into_value(self, stack: &[Value]) -> Value {
        match self {
            Opnd::Own(v) => v,
            o => o.get(stack).clone(),
        }
    }
}

impl<'a> Machine<'a> {
    /// Evaluates `e` as an operand, reading literals, constants, rule
    /// arguments and binders in place.
    fn operand(&mut self, e: &'a Expr) -> EResult<Opnd<'a>> {
        match e {
            Expr::Str(v, _) | Expr::ListLit(_, Some(v), _) => Ok(Opnd::Ref(v)),
            Expr::Var { name, var, pos } => {
                let unbound = || abort(format!("unbound variable `{name}`"), *pos);
                match *var {
                    VarRef::Binder(k) if self.base + k < self.stack.len() => {
                        Ok(Opnd::Slot(self.base + k))
                    }
                    VarRef::Binder(_) => Err(unbound()),
                    VarRef::Const(c) => match self.consts.get(c) {
                        Some(Some(v)) => Ok(Opnd::Ref(v)),
                        _ => Err(unbound()),
                    },
                    VarRef::Local | VarRef::Unresolved => Err(abort(
                        format!("variable `{name}` reached the interpreter unresolved"),
                        *pos,
                    )),
                }
            }
            Expr::Arg(k) => self
                .args
                .get(*k)
                .map(Opnd::Ref)
                .ok_or_else(|| abort(format!("missing rule argument {k}"), e.pos())),
            _ => self.eval(e).map(Opnd::Own),
        }
    }

    /// Evaluates `e` as a condition.
    fn truth(&mut self, e: &'a Expr, pos: Pos) -> EResult<bool> {
        let v = self.operand(e)?;
        want_bool(v.get(&self.stack), pos)
    }

    fn eval(&mut self, e: &'a Expr) -> EResult {
        match e {
            Expr::Int(i, _) => Ok(Value::Int(*i)),
            Expr::Real(r, _) => Ok(Value::Real(*r)),
            Expr::Bool(b, _) => Ok(Value::Bool(*b)),
            Expr::Str(..) | Expr::ListLit(_, Some(_), _) | Expr::Var { .. } | Expr::Arg(_) => {
                Ok(self.operand(e)?.into_value(&self.stack))
            }
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
            } => match *callee {
                Callee::User(f) => {
                    let base = self.stack.len();
                    for a in args {
                        let v = self.eval(a)?;
                        self.stack.push(v);
                    }
                    self.enter(f, base)
                }
                Callee::Builtin(b) => self.builtin(b, args, *pos),
                Callee::Unresolved => Err(abort(
                    format!("call of `{name}` reached the interpreter unresolved"),
                    *pos,
                )),
            },
            Expr::Unop { op, expr, pos } => {
                let v = self.operand(expr)?;
                match (*op, v.get(&self.stack)) {
                    (UnOp::Neg, Value::Int(i)) => Ok(Value::Int(i.wrapping_neg())),
                    (UnOp::Neg, Value::Real(r)) => Ok(Value::Real(-r)),
                    (UnOp::Not, Value::Bool(b)) => Ok(Value::Bool(!b)),
                    (op, v) => Err(abort(
                        format!("unary `{op}` applied to a {}", v.type_name()),
                        *pos,
                    )),
                }
            }
            // Short-circuit and/or.
            Expr::Binop {
                op: BinOp::And,
                lhs,
                rhs,
                pos,
            } => match self.truth(lhs, *pos)? {
                true => self.eval(rhs),
                false => Ok(Value::Bool(false)),
            },
            Expr::Binop {
                op: BinOp::Or,
                lhs,
                rhs,
                pos,
            } => match self.truth(lhs, *pos)? {
                true => Ok(Value::Bool(true)),
                false => self.eval(rhs),
            },
            Expr::Binop {
                op: BinOp::Concat, ..
            } => {
                let mark = self.text.len();
                let out = self.append(e);
                let out = out.map(|v| v.unwrap_or_else(|| Value::str(&self.text[mark..])));
                self.text.truncate(mark);
                out
            }
            Expr::Binop { op, lhs, rhs, pos } => {
                let l = self.operand(lhs)?;
                let r = self.operand(rhs)?;
                binop(*op, l.get(&self.stack), r.get(&self.stack), *pos)
            }
            Expr::If {
                cond, then, els, ..
            } => {
                if self.truth(cond, cond.pos())? {
                    self.eval(then)
                } else {
                    self.eval(els)
                }
            }
            Expr::Let { value, body, .. } => {
                let v = self.eval(value)?;
                self.stack.push(v);
                let out = self.eval(body);
                self.stack.pop();
                out
            }
            Expr::Case {
                scrutinee,
                arms,
                pos,
            } => {
                // Owned: the arms' binders go onto the stack it may be in.
                let v = self.eval(scrutinee)?;
                let depth = self.stack.len();
                for (pat, body) in arms {
                    let matched = match_pat(pat, &v, &mut self.stack);
                    let out = matched.then(|| self.eval(body));
                    self.stack.truncate(depth);
                    if let Some(out) = out {
                        return out;
                    }
                }
                Err(abort(format!("case expression: no arm matched {v}"), *pos))
            }
            Expr::ListLit(items, None, _) => {
                let mut vs = Vec::with_capacity(items.len());
                for i in items {
                    vs.push(self.eval(i)?);
                }
                Ok(Value::list(vs))
            }
            Expr::TupleLit(items, _) => {
                let mut vs = Vec::with_capacity(items.len());
                for i in items {
                    vs.push(self.eval(i)?);
                }
                Ok(Value::tuple(vs))
            }
            Expr::TreeCons { op, args, .. } => {
                let mut vs = Vec::with_capacity(args.len());
                for a in args {
                    vs.push(self.eval(a)?);
                }
                Ok(Value::term(op.clone(), vs))
            }
        }
    }

    /// Runs the function of id `f` on the arguments pushed from `base` on.
    fn enter(&mut self, f: usize, base: usize) -> EResult {
        let fun = self
            .program
            .funcs
            .get(f)
            .ok_or_else(|| Box::new(EvalAbort::new(format!("unknown function #{f}"))))?;
        let got = self.stack.len() - base;
        if fun.params.len() != got {
            return Err(Box::new(EvalAbort::new(format!(
                "arity mismatch applying `{}`: expected {} arguments, got {got}",
                fun.name,
                fun.params.len()
            ))));
        }
        let caller = std::mem::replace(&mut self.base, base);
        let out = self.eval(&fun.body);
        self.base = caller;
        self.stack.truncate(base);
        out
    }

    /// Evaluates `e`, appending it to the text buffer when it is a string
    /// (`None`) and returning it otherwise. `++` is right-associative, so
    /// the strings of a chain append in order; the operands are all
    /// evaluated before any is rejected, as they are for a lone `++`.
    fn append(&mut self, e: &'a Expr) -> EResult<Option<Value>> {
        let Expr::Binop {
            op: BinOp::Concat,
            lhs,
            rhs,
            pos,
        } = e
        else {
            let o = self.operand(e)?;
            if let Value::Str(s) = o.get(&self.stack) {
                self.text.push_str(s);
                return Ok(None);
            }
            return Ok(Some(o.into_value(&self.stack)));
        };
        let l = self.operand(lhs)?;
        let r = if let Value::Str(s) = l.get(&self.stack) {
            self.text.push_str(s);
            match self.append(rhs)? {
                None => return Ok(None),
                Some(r) => r,
            }
        } else {
            self.eval(rhs)?
        };
        binop(BinOp::Concat, l.get(&self.stack), &r, *pos).map(Some)
    }

    fn builtin(&mut self, b: Builtin, args: &'a [Expr], pos: Pos) -> EResult {
        let mut ops: [Option<Opnd>; 3] = [None, None, None];
        for (o, a) in ops.iter_mut().zip(args) {
            *o = Some(self.operand(a)?);
        }
        let stack = &self.stack;
        let arg = |i: usize| -> EResult<&Value> {
            ops[i]
                .as_ref()
                .map(|o| o.get(stack))
                .ok_or_else(|| abort(format!("builtin `{b}`: missing argument {i}"), pos))
        };
        use Builtin::*;
        match b {
            ToReal => Ok(Value::Real(want_int(arg(0)?, pos)? as f64)),
            ToInt => Ok(Value::Int(want_real(arg(0)?, pos)? as i64)),
            Abs => Ok(Value::Int(want_int(arg(0)?, pos)?.wrapping_abs())),
            Min => Ok(Value::Int(
                want_int(arg(0)?, pos)?.min(want_int(arg(1)?, pos)?),
            )),
            Max => Ok(Value::Int(
                want_int(arg(0)?, pos)?.max(want_int(arg(1)?, pos)?),
            )),
            Len => Ok(Value::Int(want_list(arg(0)?, pos)?.len() as i64)),
            Null => Ok(Value::Bool(want_list(arg(0)?, pos)?.is_empty())),
            Hd => want_list(arg(0)?, pos)?
                .first()
                .cloned()
                .ok_or_else(|| abort("hd of empty list".to_string(), pos)),
            Tl => Ok(Value::List(want_list(arg(0)?, pos)?.tail())),
            Rev => {
                let mut items: Vec<Value> = want_list(arg(0)?, pos)?.iter().cloned().collect();
                items.reverse();
                Ok(Value::List(List::new(items)))
            }
            EmptyMap => Ok(Value::empty_map()),
            Size => Ok(Value::Int(want_map(arg(0)?, pos)?.len() as i64)),
            Insert => {
                let key = want_str(arg(1)?, pos)?.to_string();
                Ok(arg(0)?.map_insert(key, arg(2)?.clone()))
            }
            Lookup => {
                want_map(arg(0)?, pos)?;
                let key = want_str(arg(1)?, pos)?;
                arg(0)?
                    .map_get(key)
                    .cloned()
                    .ok_or_else(|| abort(format!("lookup: unbound key {key:?}"), pos))
            }
            Bound => {
                want_map(arg(0)?, pos)?;
                let key = want_str(arg(1)?, pos)?;
                Ok(Value::Bool(arg(0)?.map_get(key).is_some()))
            }
            Remove => {
                let mut m = (**want_map(arg(0)?, pos)?).clone();
                m.remove(want_str(arg(1)?, pos)?);
                Ok(Value::map(m))
            }
            Itoa => {
                let mut digits = [0u8; 20];
                let mut rest = &mut digits[..];
                write!(rest, "{}", want_int(arg(0)?, pos)?).expect("an i64 has 20 characters");
                let n = 20 - rest.len();
                Ok(Value::str(
                    std::str::from_utf8(&digits[..n]).expect("digits"),
                ))
            }
            Rtoa => Ok(Value::str(format!("{}", want_real(arg(0)?, pos)?))),
            Strlen => Ok(Value::Int(want_str(arg(0)?, pos)?.chars().count() as i64)),
            Error => Err(abort(
                format!("OLGA error: {}", want_str(arg(0)?, pos)?),
                pos,
            )),
            Token => Err(abort(format!("unknown builtin `{b}`"), pos)),
        }
    }
}

impl UnitEnv {
    /// The constants the unit reaches (see [`UnitEnv::reach`]) in
    /// dependency order: each after every constant its body reads, directly
    /// or through the functions it calls. Roots are taken in name order.
    /// Also returns the first circular definition met, if any; the order
    /// then leaves out the edge that closes the cycle.
    pub fn const_order(&self) -> (Vec<usize>, Option<EvalAbort>) {
        fn visit(
            prog: &Program,
            c: usize,
            done: &mut [Option<bool>],
            order: &mut Vec<usize>,
            cycle: &mut Option<EvalAbort>,
        ) {
            let (name, body) = &prog.consts[c];
            match done[c] {
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
            done[c] = Some(false);
            for read in const_reads(body, prog) {
                visit(prog, read, done, order, cycle);
            }
            done[c] = Some(true);
            order.push(c);
        }
        let prog = &*self.program;
        let (_, mut roots) = self.reach();
        roots.sort_by(|&a, &b| prog.consts[a].0.cmp(&prog.consts[b].0));
        let mut done = vec![None; prog.consts.len()];
        let (mut order, mut cycle) = (Vec::new(), None);
        for c in roots {
            visit(prog, c, &mut done, &mut order, &mut cycle);
        }
        (order, cycle)
    }
}

/// The constants `body` reads, directly or through the functions it calls,
/// each function walked once.
fn const_reads(body: &Expr, prog: &Program) -> Vec<usize> {
    let mut reads = Vec::new();
    let mut called = HashSet::new();
    let mut bodies = vec![body];
    while let Some(body) = bodies.pop() {
        body.walk(&mut |e| match e {
            Expr::Var {
                var: VarRef::Const(c),
                ..
            } => reads.push(*c),
            Expr::Call {
                callee: Callee::User(f),
                ..
            } if called.insert(*f) => bodies.push(&prog.funcs[*f].body),
            _ => {}
        });
    }
    reads
}

/// Declares `want_<type>`, which unwraps a value of that type or aborts.
macro_rules! want {
    ($($f:ident($pat:pat => $out:expr) -> $ty:ty, $name:literal;)*) => {$(
        fn $f(v: &Value, pos: Pos) -> EResult<$ty> {
            match v {
                $pat => Ok($out),
                v => Err(type_confusion($name, v, pos)),
            }
        }
    )*};
}

want! {
    want_int(Value::Int(i) => *i) -> i64, "int";
    want_real(Value::Real(r) => *r) -> f64, "real";
    want_bool(Value::Bool(b) => *b) -> bool, "bool";
    want_str(Value::Str(s) => s) -> &str, "string";
    want_list(Value::List(l) => l) -> &List, "list";
    want_map(Value::Map(m) => m) -> &Map, "map";
}

#[cold]
fn type_confusion(wanted: &str, got: &Value, pos: Pos) -> Box<EvalAbort> {
    abort(
        format!("expected a {wanted}, got a {} ({got})", got.type_name()),
        pos,
    )
}

fn binop(op: BinOp, l: &Value, r: &Value, pos: Pos) -> EResult {
    use std::cmp::Ordering::{Equal, Greater, Less};
    use BinOp::*;
    use Value::{Int, List, Real, Str};
    Ok(match (op, l, r) {
        (Add, Int(a), Int(b)) => Int(a.wrapping_add(*b)),
        (Add, Real(a), Real(b)) => Real(a + b),
        (Add | Concat, Str(a), Str(b)) => Value::str(format!("{a}{b}")),
        (Sub, Int(a), Int(b)) => Int(a.wrapping_sub(*b)),
        (Sub, Real(a), Real(b)) => Real(a - b),
        (Mul, Int(a), Int(b)) => Int(a.wrapping_mul(*b)),
        (Mul, Real(a), Real(b)) => Real(a * b),
        (Div, Int(_), Int(0)) => {
            return Err(abort("integer division by zero".to_string(), pos));
        }
        (Div, Int(a), Int(b)) => Int(a.wrapping_div(*b)),
        (Div, Real(a), Real(b)) => Real(a / b),
        (Rem, Int(_), Int(0)) => {
            return Err(abort("integer remainder by zero".to_string(), pos));
        }
        (Rem, Int(a), Int(b)) => Int(a.wrapping_rem(*b)),
        (Eq, a, b) => Value::Bool(a == b),
        (Ne, a, b) => Value::Bool(a != b),
        (Lt, a, b) => Value::Bool(a.partial_cmp(b) == Some(Less)),
        (Le, a, b) => Value::Bool(matches!(a.partial_cmp(b), Some(Less | Equal))),
        (Gt, a, b) => Value::Bool(a.partial_cmp(b) == Some(Greater)),
        (Ge, a, b) => Value::Bool(matches!(a.partial_cmp(b), Some(Greater | Equal))),
        (Cons, _, List(items)) => concat(&fnc2_ag::List::new(vec![l.clone()]), items, pos)?,
        (Concat, List(a), List(b)) => concat(a, b, pos)?,
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

    /// A module's context and environment.
    #[derive(Debug)]
    struct Ctx(EvalCtx, UnitEnv);

    impl Ctx {
        fn apply(&self, name: &str, args: Vec<Value>) -> Result<Value, EvalAbort> {
            self.0.apply(self.1.funcs[name].id, args)
        }

        fn konst(&self, name: &str) -> &Value {
            self.0.consts[self.1.consts[name].0].as_ref().unwrap()
        }
    }

    fn ctx_for(src: &str) -> Ctx {
        try_ctx_for(src).unwrap()
    }

    fn try_ctx_for(src: &str) -> Result<Ctx, EvalAbort> {
        let Unit::Module(m) = parse_unit(src).unwrap() else {
            panic!("expected module")
        };
        let mut c = Compiler::new();
        c.add_module(m.clone()).unwrap();
        let env = c.module(&m.name).unwrap().env.clone();
        Ok(Ctx(EvalCtx::new(&env)?, env))
    }

    fn apply(ctx: &Ctx, name: &str, args: Vec<Value>) -> Value {
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
        assert_eq!(ctx.konst("greeting"), &Value::str("hi there"));
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
        assert_eq!(ctx.konst("b"), &Value::Int(42));
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
        assert_eq!(ctx.konst("a"), &Value::Int(42));
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
        assert_eq!(ctx.konst("c"), &Value::Int(42));
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
        assert_eq!(ctx.konst("c"), &Value::Int(7));
    }

    #[test]
    fn a_panicking_run_leaves_no_slots_behind() {
        let prog = Program::default();
        let caught = std::panic::catch_unwind(|| {
            run(&prog, &[], &[], |m| {
                m.stack.push(Value::Int(1));
                m.text.push_str("partial");
                panic!("a panic inside a rule")
            })
        });
        assert!(caught.is_err());
        let left = run(&prog, &[], &[], |m| {
            Ok(Value::Int((m.stack.len() + m.text.len()) as i64))
        });
        assert_eq!(left, Ok(Value::Int(0)));
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
