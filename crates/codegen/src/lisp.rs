//! The OLGA-to-Lisp translator (paper §3.2).
//!
//! FNC-2's second back end: "presently there are two translators, one to C
//! and one to Lisp… the OLGA to Lisp translator is the basis of the
//! integration of FNC-2, CENTAUR and GIGAS". The emitted text is plain
//! Common-Lisp-style: values map to native Lisp data (lists, numbers,
//! strings), maps to assoc lists, output terms to `(term op children…)`
//! vectors, and one `defun` per semantic function, rule, and
//! (production, partition, visit) visit-sequence.

use std::fmt::Write as _;

use fnc2_ag::{Arg, Grammar, ONode, Occ, ProductionId, RuleBody, Value};
use fnc2_olga::ast::{Expr, Pat, VarRef};
use fnc2_olga::{RuleText, UnitEnv};
use fnc2_visit::{Instr, VisitSeqs};

/// Generates the Lisp text for an AG: its unit's functions and constants,
/// its rule table and its visit sequences.
///
/// `rules`, `grammar` and `seqs` must come from lowering the same checked
/// AG, whose environment is `env`.
pub fn to_lisp(env: &UnitEnv, rules: &[RuleText], grammar: &Grammar, seqs: &VisitSeqs) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        ";;; Generated by fnc2-codegen from attribute grammar `{}`.",
        grammar.name()
    );
    out.push_str(PRELUDE);

    // Functions.
    let mut fnames: Vec<&String> = env.funcs.keys().collect();
    fnames.sort();
    for f in fnames {
        let sig = &env.funcs[f];
        let params: Vec<String> = sig.params.iter().map(|(n, _)| lid(n)).collect();
        let _ = writeln!(
            out,
            "(defun f-{} ({})\n  {})\n",
            lid(f),
            params.join(" "),
            expr(&sig.body, &[])
        );
    }
    // Constants, in dependency order.
    for c in env.const_order().0 {
        let (_, body) = &env.consts[c];
        let _ = writeln!(out, "(defparameter c-{} {})\n", lid(c), expr(body, &[]));
    }

    // Rule functions: one per rule of the OLGA text, reading its arguments
    // from the node.
    for r in rules {
        let args: Vec<String> = r.args.iter().map(|a| access(grammar, a)).collect();
        let body = expr(&r.body, &args);
        let name = rule_fn(grammar, r.production, r.target);
        let _ = writeln!(out, "(defun {name} (node)\n  {body})\n");
    }

    for &(p, pi) in &seqs.keys() {
        let seq = seqs.seq(p, pi);
        let prod = grammar.production(p);
        for (vi, segment) in seq.segments.iter().enumerate() {
            let _ = writeln!(
                out,
                "(defun visit-{}-pi{}-v{} (node)",
                lid(prod.name()),
                pi,
                vi + 1
            );
            for instr in segment {
                match instr {
                    Instr::Visit {
                        child,
                        visit,
                        partition,
                    } => {
                        let _ = writeln!(
                            out,
                            "  (visit (nth {} (node-kids node)) {partition} {visit})",
                            child - 1
                        );
                    }
                    Instr::Eval(target) => {
                        let place = access(grammar, &Arg::Node(*target));
                        let rhs = eval_rhs(grammar, p, *target);
                        let _ = writeln!(out, "  (setf {place} {rhs})");
                    }
                }
            }
            let _ = writeln!(out, "  nil)\n");
        }
    }

    // Dispatch.
    out.push_str("(defun visit (node partition v)\n  (cond\n");
    for &(p, pi) in &seqs.keys() {
        let seq = seqs.seq(p, pi);
        let prod = grammar.production(p);
        for vi in 1..=seq.segments.len() {
            let _ = writeln!(
                out,
                "    ((and (= (node-prod node) {}) (= partition {pi}) (= v {vi}))\n     (visit-{}-pi{}-v{} node))",
                p.index(),
                lid(prod.name()),
                pi,
                vi
            );
        }
    }
    out.push_str("    (t (error \"no visit sequence\"))))\n\n");
    let root = grammar.root();
    let visits = seqs.partitions_of(root)[0].visit_count();
    let _ = writeln!(
        out,
        "(defun evaluate-root (root)\n  (loop for v from 1 to {visits} do (visit root 0 v))\n  (aref (node-attrs root) 0))"
    );
    out
}

const PRELUDE: &str = r#"
;;; ---- runtime ----------------------------------------------------------
(defstruct node prod kids token attrs locals)
(defun v-insert (m k x) (cons (cons k x) m))
(defun v-lookup (m k) (cdr (assoc k m :test #'string=)))
(defun v-bound (m k) (if (assoc k m :test #'string=) t nil))
(defun v-remove (m k) (remove k m :key #'car :test #'string= :count 1))
(defun v-append (a b) (if (stringp a) (concatenate 'string a b) (append a b)))
(defun make-term (op &rest kids) (cons op kids))
(defun term-op (x) (car x))
(defun term-kids (x) (cdr x))
"#;

/// Lisp identifier.
fn lid(s: &str) -> String {
    s.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() {
                c.to_ascii_lowercase()
            } else {
                '-'
            }
        })
        .collect()
}

/// Prints an OLGA expression as Lisp. A rule body's argument `k` prints as
/// `rule_args[k]`, that argument's access.
fn expr(e: &Expr, rule_args: &[String]) -> String {
    match e {
        Expr::Int(i, _) => i.to_string(),
        Expr::Real(r, _) => format!("{r:?}"),
        Expr::Bool(b, _) => if *b { "t" } else { "nil" }.to_string(),
        Expr::Str(s, _) => lisp_string(s),
        Expr::Var { name, var, .. } => match var {
            VarRef::Binder(_) => lid(name),
            VarRef::Const => format!("c-{}", lid(name)),
            VarRef::Local | VarRef::Unresolved => {
                unreachable!(
                    "the checker resolves `{name}`; the lowering turns locals into arguments"
                )
            }
        },
        Expr::Arg(k) => rule_args[*k].clone(),
        Expr::Occ(_) => unreachable!("the lowering turns occurrences into rule arguments"),
        Expr::Call { name, args, .. } => {
            let vals: Vec<String> = args.iter().map(|a| expr(a, rule_args)).collect();
            call(name, &vals)
        }
        Expr::Unop {
            op, expr: inner, ..
        } => {
            let v = expr(inner, rule_args);
            match *op {
                "-" => format!("(- {v})"),
                "not" => format!("(not {v})"),
                _ => unreachable!(),
            }
        }
        Expr::Binop { op, lhs, rhs, .. } => {
            let l = expr(lhs, rule_args);
            let r = expr(rhs, rule_args);
            match *op {
                "+" => format!("(if (stringp {l}) (concatenate 'string {l} {r}) (+ {l} {r}))"),
                "-" => format!("(- {l} {r})"),
                "*" => format!("(* {l} {r})"),
                "/" => format!("(if (integerp {l}) (truncate {l} {r}) (/ {l} {r}))"),
                "%" => format!("(rem {l} {r})"),
                "=" => format!("(equal {l} {r})"),
                "<>" => format!("(not (equal {l} {r}))"),
                "<" => format!("(if (stringp {l}) (string< {l} {r}) (< {l} {r}))"),
                "<=" => format!("(if (stringp {l}) (string<= {l} {r}) (<= {l} {r}))"),
                ">" => format!("(if (stringp {l}) (string> {l} {r}) (> {l} {r}))"),
                ">=" => format!("(if (stringp {l}) (string>= {l} {r}) (>= {l} {r}))"),
                "::" => format!("(cons {l} {r})"),
                "++" => format!("(v-append {l} {r})"),
                "and" => format!("(and {l} {r})"),
                "or" => format!("(or {l} {r})"),
                _ => unreachable!(),
            }
        }
        Expr::If {
            cond, then, els, ..
        } => format!(
            "(if {} {} {})",
            expr(cond, rule_args),
            expr(then, rule_args),
            expr(els, rule_args)
        ),
        Expr::Let {
            name, value, body, ..
        } => format!(
            "(let (({} {})) {})",
            lid(name),
            expr(value, rule_args),
            expr(body, rule_args)
        ),
        Expr::Case {
            scrutinee, arms, ..
        } => {
            let s = expr(scrutinee, rule_args);
            let mut body = String::from("(let ((scrutinee ");
            body.push_str(&s);
            body.push_str(")) (cond");
            for (p, b) in arms {
                let (test, bindings) = pat_test("scrutinee", p);
                let be = expr(b, rule_args);
                let binds: Vec<String> = bindings
                    .iter()
                    .map(|(n, access)| format!("({} {access})", lid(n)))
                    .collect();
                if binds.is_empty() {
                    let _ = write!(body, " ({test} {be})");
                } else {
                    let _ = write!(body, " ({test} (let ({}) {be}))", binds.join(" "));
                }
            }
            body.push_str(" (t (error \"match failure\"))))");
            body
        }
        Expr::ListLit(items, _) => {
            let vals: Vec<String> = items.iter().map(|i| expr(i, rule_args)).collect();
            format!("(list {})", vals.join(" "))
        }
        Expr::TupleLit(items, _) => {
            let vals: Vec<String> = items.iter().map(|i| expr(i, rule_args)).collect();
            format!("(vector {})", vals.join(" "))
        }
        Expr::TreeCons { op, args, .. } => {
            let vals: Vec<String> = args.iter().map(|a| expr(a, rule_args)).collect();
            format!("(make-term {} {})", lisp_string(op), vals.join(" "))
        }
    }
}

/// The Lisp name of the function of the OLGA rule defining `target` in `p`.
fn rule_fn(grammar: &Grammar, p: ProductionId, target: ONode) -> String {
    crate::rule_name(grammar, p, target)
        .map(|w| lid(&w))
        .join("-")
}

/// The Lisp expression reading `arg` at `node`.
fn access(grammar: &Grammar, arg: &Arg) -> String {
    match arg {
        Arg::Node(ONode::Attr(Occ { pos: 0, attr })) => {
            format!("(aref (node-attrs node) {})", grammar.attr(*attr).offset())
        }
        Arg::Node(ONode::Attr(Occ { pos, attr })) => format!(
            "(aref (node-attrs (nth {} (node-kids node))) {})",
            pos - 1,
            grammar.attr(*attr).offset()
        ),
        Arg::Node(ONode::Local(l)) => format!("(aref (node-locals node) {})", l.index()),
        Arg::Token => "(node-token node)".to_string(),
        Arg::Const(Value::Int(i)) => i.to_string(),
        Arg::Const(Value::Real(r)) => format!("{r:?}"),
        Arg::Const(Value::Bool(b)) => if *b { "t" } else { "nil" }.to_string(),
        Arg::Const(Value::Str(s)) => lisp_string(s),
        Arg::Const(_) => "nil".to_string(),
    }
}

/// The value an EVAL of `target` in production `p` stores: the grammar's
/// copy or rule-model fold inline, or a call of the OLGA rule's function.
fn eval_rhs(grammar: &Grammar, p: ProductionId, target: ONode) -> String {
    match grammar.rule_for(p, target).expect("well-defined").body() {
        RuleBody::Copy(src) => access(grammar, src),
        RuleBody::Call { func, args } if grammar.function(*func).name().starts_with("model@") => {
            let op = if crate::is_sum_model(grammar.function(*func).name()) {
                "+"
            } else {
                "v-append"
            };
            let args = args.iter().map(|a| access(grammar, a));
            let folded = args.reduce(|acc, a| format!("({op} {acc} {a})"));
            folded.expect("a rule model folds its carriers")
        }
        RuleBody::Call { .. } => format!("({} node)", rule_fn(grammar, p, target)),
    }
}

fn lisp_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn call(name: &str, vals: &[String]) -> String {
    match name {
        "to_real" => format!("(float {})", vals[0]),
        "to_int" => format!("(truncate {})", vals[0]),
        "abs" => format!("(abs {})", vals[0]),
        "min" => format!("(min {} {})", vals[0], vals[1]),
        "max" => format!("(max {} {})", vals[0], vals[1]),
        "len" => format!("(length {})", vals[0]),
        "null" => format!("(null {})", vals[0]),
        "hd" => format!("(car {})", vals[0]),
        "tl" => format!("(cdr {})", vals[0]),
        "rev" => format!("(reverse {})", vals[0]),
        "empty_map" => "nil".to_string(),
        "size" => format!("(length {})", vals[0]),
        "insert" => format!("(v-insert {} {} {})", vals[0], vals[1], vals[2]),
        "lookup" => format!("(v-lookup {} {})", vals[0], vals[1]),
        "bound" => format!("(v-bound {} {})", vals[0], vals[1]),
        "remove" => format!("(v-remove {} {})", vals[0], vals[1]),
        "itoa" => format!("(princ-to-string {})", vals[0]),
        "rtoa" => format!("(princ-to-string {})", vals[0]),
        "strlen" => format!("(length {})", vals[0]),
        "error" => format!("(error {})", vals[0]),
        _ => format!("(f-{} {})", lid(name), vals.join(" ")),
    }
}

/// Pattern test + bindings (name → accessor) for the Lisp `cond` arms.
fn pat_test(access: &str, p: &Pat) -> (String, Vec<(String, String)>) {
    match p {
        Pat::Wild(_) => ("t".to_string(), Vec::new()),
        Pat::Bind(n, _) => ("t".to_string(), vec![(n.clone(), access.to_string())]),
        Pat::Int(i, _) => (format!("(eql {access} {i})"), Vec::new()),
        Pat::Bool(b, _) => (
            if *b {
                format!("(eq {access} t)")
            } else {
                format!("(null {access})")
            },
            Vec::new(),
        ),
        Pat::Str(s, _) => (format!("(equal {access} {})", lisp_string(s)), Vec::new()),
        Pat::Nil(_) => (format!("(null {access})"), Vec::new()),
        Pat::Cons(h, t, _) => {
            let (ht, mut hb) = pat_test(&format!("(car {access})"), h);
            let (tt, tb) = pat_test(&format!("(cdr {access})"), t);
            hb.extend(tb);
            (format!("(and (consp {access}) {ht} {tt})"), hb)
        }
        Pat::Tuple(ps, _) => {
            let mut tests = vec![format!("(vectorp {access})")];
            let mut binds = Vec::new();
            for (i, q) in ps.iter().enumerate() {
                let (t, b) = pat_test(&format!("(aref {access} {i})"), q);
                tests.push(t);
                binds.extend(b);
            }
            (format!("(and {})", tests.join(" ")), binds)
        }
        Pat::Term { op, args, .. } => {
            let mut tests = vec![
                format!("(consp {access})"),
                format!("(equal (term-op {access}) {})", lisp_string(op)),
            ];
            let mut binds = Vec::new();
            for (i, q) in args.iter().enumerate() {
                let (t, b) = pat_test(&format!("(nth {i} (term-kids {access}))"), q);
                tests.push(t);
                binds.extend(b);
            }
            (format!("(and {})", tests.join(" ")), binds)
        }
    }
}
