//! The common optimizer preceding the translators (paper §3.2): "a common
//! optimizer, which in particular performs tail recursion elimination and
//! builds deterministic decision trees for the OLGA pattern-matching
//! construct".

use std::collections::HashMap;

use fnc2_olga::ast::{Callee, Expr, Pat};

// ---------------------------------------------------------------------------
// Tail-recursion analysis (AG 6 of Table 1 is exactly this test)
// ---------------------------------------------------------------------------

/// Result of the tail-recursion test on one function.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TailInfo {
    /// Number of self-calls in tail position.
    pub tail_self_calls: usize,
    /// Number of self-calls in non-tail position.
    pub non_tail_self_calls: usize,
}

impl TailInfo {
    /// True if the function can be compiled to a loop: it calls itself, and
    /// only in tail position.
    pub fn is_tail_recursive(&self) -> bool {
        self.tail_self_calls > 0 && self.non_tail_self_calls == 0
    }
}

/// Analyzes the body of function `name`.
pub fn tail_info(name: &str, body: &Expr) -> TailInfo {
    let mut info = TailInfo::default();
    walk(name, body, true, &mut info);
    info
}

fn walk(name: &str, e: &Expr, tail: bool, info: &mut TailInfo) {
    match e {
        Expr::Call {
            name: n,
            args,
            callee,
            ..
        } => {
            for a in args {
                walk(name, a, false, info);
            }
            if n == name && matches!(callee, Callee::User(_)) {
                if tail {
                    info.tail_self_calls += 1;
                } else {
                    info.non_tail_self_calls += 1;
                }
            }
        }
        Expr::Unop { expr, .. } => walk(name, expr, false, info),
        Expr::Binop { lhs, rhs, .. } => {
            walk(name, lhs, false, info);
            walk(name, rhs, false, info);
        }
        Expr::If {
            cond, then, els, ..
        } => {
            walk(name, cond, false, info);
            walk(name, then, tail, info);
            walk(name, els, tail, info);
        }
        Expr::Let { value, body, .. } => {
            walk(name, value, false, info);
            walk(name, body, tail, info);
        }
        Expr::Case {
            scrutinee, arms, ..
        } => {
            walk(name, scrutinee, false, info);
            for (_, b) in arms {
                walk(name, b, tail, info);
            }
        }
        Expr::ListLit(items, _, _) | Expr::TupleLit(items, _) => {
            for i in items {
                walk(name, i, false, info);
            }
        }
        Expr::TreeCons { args, .. } => {
            for a in args {
                walk(name, a, false, info);
            }
        }
        _ => {}
    }
}

// ---------------------------------------------------------------------------
// Decision trees for pattern matching
// ---------------------------------------------------------------------------

/// A path into the scrutinee value: child indices from the root
/// (for tuples, list head `0`/tail `1` after a cons test, term children).
pub type Path = Vec<usize>;

/// A primitive test performed at a path.
#[derive(Clone, Debug, PartialEq)]
pub enum Test {
    /// Integer equality.
    IntIs(i64),
    /// Boolean equality.
    BoolIs(bool),
    /// String equality.
    StrIs(String),
    /// The list at the path is empty.
    IsNil,
    /// The list at the path is nonempty (its head is path+`[0]`, its tail
    /// path+`[1]`).
    IsCons,
    /// The term at the path has the given operator and arity.
    IsTerm(String, usize),
    /// The value at the path is a tuple of the given arity.
    IsTuple(usize),
}

/// A deterministic decision tree.
#[derive(Clone, Debug, PartialEq)]
pub enum Decision {
    /// Evaluate arm `arm` with the given variable bindings (name → path).
    Leaf {
        /// 0-based arm index of the original `case`.
        arm: usize,
        /// Binder name → access path.
        bindings: Vec<(String, Path)>,
    },
    /// No arm matches (run-time match failure).
    Fail,
    /// Perform `test` at `path`; on success continue with `yes`, else `no`.
    Test {
        /// Where to test.
        path: Path,
        /// What to test.
        test: Test,
        /// Success branch.
        yes: Box<Decision>,
        /// Failure branch.
        no: Box<Decision>,
    },
}

impl Decision {
    /// Number of internal test nodes.
    pub fn test_count(&self) -> usize {
        match self {
            Decision::Test { yes, no, .. } => 1 + yes.test_count() + no.test_count(),
            _ => 0,
        }
    }

    /// Maximum depth of tests along any branch.
    pub fn depth(&self) -> usize {
        match self {
            Decision::Test { yes, no, .. } => 1 + yes.depth().max(no.depth()),
            _ => 0,
        }
    }
}

/// Compiles the arms of a `case` into a decision tree (first-match
/// semantics preserved).
pub fn compile_arms(pats: &[Pat]) -> Decision {
    let rows: Vec<Row2> = pats
        .iter()
        .enumerate()
        .map(|(i, p)| Row2 {
            obligations: vec![(Vec::new(), p.clone())],
            bindings: Vec::new(),
            arm: i,
        })
        .collect();
    build(rows)
}

fn build(mut rows: Vec<Row2>) -> Decision {
    // Simplify irrefutable obligations (wildcards, binders, tuples
    // expanded structurally).
    for r in &mut rows {
        r.simplify();
    }
    let Some(first) = rows.first() else {
        return Decision::Fail;
    };
    if first.obligations.is_empty() {
        return Decision::Leaf {
            arm: first.arm,
            bindings: first.bindings.clone(),
        };
    }
    // Pick the first obligation of the first row as the test column.
    let (path, pat) = first.obligations[0].clone();
    let test = test_of(&pat);
    // Split rows on the test outcome.
    let mut yes_rows: Vec<Row2> = Vec::new();
    let mut no_rows: Vec<Row2> = Vec::new();
    for r in &rows {
        match r.refine(&path, &test) {
            Refined::Yes(r2) => yes_rows.push(r2),
            Refined::No(r2) => no_rows.push(r2),
            Refined::Both(a, b) => {
                yes_rows.push(a);
                no_rows.push(b);
            }
        }
    }
    Decision::Test {
        path,
        test,
        yes: Box::new(build(yes_rows)),
        no: Box::new(build(no_rows)),
    }
}

/// A row of the pattern matrix during construction.
#[derive(Clone, Debug)]
struct Row2 {
    obligations: Vec<(Path, Pat)>,
    bindings: Vec<(String, Path)>,
    arm: usize,
}

enum Refined {
    Yes(Row2),
    No(Row2),
    Both(Row2, Row2),
}

impl Row2 {
    fn simplify(&mut self) {
        let mut out: Vec<(Path, Pat)> = Vec::new();
        let mut todo: Vec<(Path, Pat)> = std::mem::take(&mut self.obligations);
        todo.reverse();
        while let Some((path, pat)) = todo.pop() {
            match pat {
                Pat::Wild(_) => {}
                Pat::Bind(n, _) => self.bindings.push((n, path)),
                other => out.push((path, other)),
            }
        }
        self.obligations = out;
    }

    fn refine(&self, path: &Path, test: &Test) -> Refined {
        // Find this row's obligation at `path`, if any.
        let Some(ix) = self.obligations.iter().position(|(p, _)| p == path) else {
            // Unconstrained at this path: the row survives both branches.
            return Refined::Both(self.clone(), self.clone());
        };
        let (_, pat) = &self.obligations[ix];
        let own = test_of(pat);
        let mut without = self.clone();
        without.obligations.remove(ix);
        if own == *test {
            // Compatible: expand sub-obligations in the yes branch.
            match pat.clone() {
                Pat::Cons(h, tl, _) => {
                    let mut hp = path.clone();
                    hp.push(0);
                    let mut tp = path.clone();
                    tp.push(1);
                    without.obligations.push((hp, *h));
                    without.obligations.push((tp, *tl));
                }
                Pat::Term { args, .. } | Pat::Tuple(args, _) => {
                    for (i, p) in args.into_iter().enumerate() {
                        let mut sp = path.clone();
                        sp.push(i);
                        without.obligations.push((sp, p));
                    }
                }
                _ => {}
            }
            without.simplify();
            Refined::Yes(without)
        } else {
            // Either mutually exclusive with the test (the row can only
            // match in the no-branch) or a different test on the same path
            // (retried in the no-branch, preserving first-match order).
            Refined::No(self.clone())
        }
    }
}

fn test_of(p: &Pat) -> Test {
    match p {
        Pat::Int(i, _) => Test::IntIs(*i),
        Pat::Bool(b, _) => Test::BoolIs(*b),
        Pat::Str(s, _) => Test::StrIs(s.clone()),
        Pat::Nil(_) => Test::IsNil,
        Pat::Cons(..) => Test::IsCons,
        Pat::Term { op, args, .. } => Test::IsTerm(op.clone(), args.len()),
        Pat::Tuple(ps, _) => Test::IsTuple(ps.len()),
        Pat::Wild(_) | Pat::Bind(..) => {
            unreachable!("irrefutable patterns are simplified away")
        }
    }
}

/// Evaluates a decision tree against a value — the reference semantics used
/// to prove the compilation faithful to linear first-match.
pub fn run_decision(
    d: &Decision,
    scrutinee: &fnc2_ag::Value,
) -> Option<(usize, HashMap<String, fnc2_ag::Value>)> {
    fn at<'v>(
        v: &'v fnc2_ag::Value,
        path: &[usize],
    ) -> Option<std::borrow::Cow<'v, fnc2_ag::Value>> {
        use std::borrow::Cow;
        let mut cur = Cow::Borrowed(v);
        for &i in path {
            let next: fnc2_ag::Value = match &*cur {
                fnc2_ag::Value::Tuple(items) => items.get(i)?.clone(),
                fnc2_ag::Value::List(items) => {
                    if i == 0 {
                        items.first()?.clone()
                    } else {
                        fnc2_ag::Value::List(items.tail())
                    }
                }
                fnc2_ag::Value::Term(t) => t.children.get(i)?.clone(),
                _ => return None,
            };
            cur = Cow::Owned(next);
        }
        Some(cur)
    }
    match d {
        Decision::Fail => None,
        Decision::Leaf { arm, bindings } => {
            let mut env = HashMap::new();
            for (n, p) in bindings {
                env.insert(n.clone(), at(scrutinee, p)?.into_owned());
            }
            Some((*arm, env))
        }
        Decision::Test {
            path,
            test,
            yes,
            no,
        } => {
            let v = at(scrutinee, path)?;
            let pass = match (test, &*v) {
                (Test::IntIs(i), fnc2_ag::Value::Int(j)) => i == j,
                (Test::BoolIs(b), fnc2_ag::Value::Bool(c)) => b == c,
                (Test::StrIs(s), fnc2_ag::Value::Str(t)) => s.as_str() == &**t,
                (Test::IsNil, fnc2_ag::Value::List(l)) => l.is_empty(),
                (Test::IsCons, fnc2_ag::Value::List(l)) => !l.is_empty(),
                (Test::IsTerm(op, ar), fnc2_ag::Value::Term(t)) => {
                    *op == t.op && *ar == t.children.len()
                }
                (Test::IsTuple(n), fnc2_ag::Value::Tuple(items)) => *n == items.len(),
                _ => false,
            };
            run_decision(if pass { yes } else { no }, scrutinee)
        }
    }
}

#[cfg(test)]
mod tests {
    use fnc2_ag::Value;

    use super::*;

    /// The checked body of function `name` of module `m` in `src`.
    fn fun_body(src: &str, name: &str) -> Expr {
        let compiler = fnc2_olga::compile_modules(src).unwrap();
        let env = &compiler.module("m").unwrap().env;
        env.program.funcs[env.funcs[name].id].body.clone()
    }

    #[test]
    fn tail_recursion_detected() {
        let src = r#"
            module m;
              function last(l : list of int, d : int) : int =
                case l of [] => d | x :: r => last(r, x) end;
              function suml(l : list of int) : int =
                case l of [] => 0 | x :: r => x + suml(r) end;
              function plain(x : int) : int = x + 1;
            end
        "#;
        let last = tail_info("last", &fun_body(src, "last"));
        assert!(last.is_tail_recursive());
        assert_eq!(last.tail_self_calls, 1);
        let suml = tail_info("suml", &fun_body(src, "suml"));
        assert!(!suml.is_tail_recursive());
        assert_eq!(suml.non_tail_self_calls, 1);
        let plain = tail_info("plain", &fun_body(src, "plain"));
        assert!(!plain.is_tail_recursive());
    }

    fn arms_of(src: &str, name: &str) -> Vec<Pat> {
        match fun_body(src, name) {
            Expr::Case { arms, .. } => arms.into_iter().map(|(p, _)| p).collect(),
            other => panic!("expected case, got {other:?}"),
        }
    }

    #[test]
    fn decision_tree_matches_linear_semantics() {
        let src = r#"
            module m;
              function f(l : list of int) : int =
                case l of
                  [] => 0
                | 1 :: [] => 10
                | x :: [] => x
                | _ :: _ :: _ => 2
                end;
            end
        "#;
        let pats = arms_of(src, "f");
        let d = compile_arms(&pats);
        assert!(d.test_count() >= 3);

        let cases = [
            (Value::list([]), 0usize),
            (Value::list([Value::Int(1)]), 1),
            (Value::list([Value::Int(7)]), 2),
            (Value::list([Value::Int(1), Value::Int(2)]), 3),
        ];
        for (v, want_arm) in cases {
            let (arm, _) = run_decision(&d, &v).unwrap_or_else(|| panic!("no match for {v:?}"));
            assert_eq!(arm, want_arm, "scrutinee {v:?}");
        }
    }

    #[test]
    fn decision_tree_bindings() {
        let src = r#"
            module m;
              function g(p : tuple(int, int)) : int =
                case p of (0, y) => y | (x, y) => x + y end;
            end
        "#;
        let pats = arms_of(src, "g");
        let d = compile_arms(&pats);
        let v = Value::tuple([Value::Int(0), Value::Int(5)]);
        let (arm, env) = run_decision(&d, &v).unwrap();
        assert_eq!(arm, 0);
        assert_eq!(env["y"], Value::Int(5));
        let v = Value::tuple([Value::Int(3), Value::Int(4)]);
        let (arm, env) = run_decision(&d, &v).unwrap();
        assert_eq!(arm, 1);
        assert_eq!(env["x"], Value::Int(3));
        assert_eq!(env["y"], Value::Int(4));
    }

    #[test]
    fn term_patterns_in_decision_trees() {
        let src = r#"
            module m;
              function h(t : tree) : int =
                case t of @leaf(n) => 1 | @fork(_, _) => 2 end;
            end
        "#;
        let pats = arms_of(src, "h");
        let d = compile_arms(&pats);
        let leaf = Value::term("leaf", [Value::Int(9)]);
        assert_eq!(run_decision(&d, &leaf).unwrap().0, 0);
        let fork = Value::term("fork", [leaf.clone(), leaf.clone()]);
        assert_eq!(run_decision(&d, &fork).unwrap().0, 1);
        let other = Value::term("odd", []);
        assert!(run_decision(&d, &other).is_none());
    }

    #[test]
    fn fail_on_no_arms() {
        assert_eq!(compile_arms(&[]), Decision::Fail);
    }
}
