//! The OLGA-to-C translator (paper §3.2).
//!
//! Produces one self-contained C translation unit for an AG: the value
//! runtime, the translated semantic functions (self-tail-recursive ones
//! compiled to loops by the common optimizer), the rule functions, the tree
//! representation, and one C function per (production, partition, visit)
//! interpreting the visit-sequences. Like the paper's C translator, the
//! generated code "lacks a garbage collector" — values are allocated and
//! never freed, which the paper reports as its own implementation's most
//! noticeable naïveté.

use std::collections::HashMap;
use std::fmt::Write as _;

use fnc2_ag::{Arg, Grammar, ONode, Occ, ProductionId, RuleBody, Value};
use fnc2_olga::ast::{BinOp, Builtin, Callee, Expr, Pat, UnOp, VarRef};
use fnc2_olga::{Function, RuleText, UnitEnv};
use fnc2_visit::{Instr, VisitSeqs};

use crate::optimizer::{compile_arms, tail_info, Decision, Test};

/// Generates the complete C text for an AG: its unit's functions and
/// constants, its rule table and its visit sequences.
///
/// `rules`, `grammar` and `seqs` must come from lowering the same checked
/// AG, whose environment is `env`.
pub fn to_c(env: &UnitEnv, rules: &[RuleText], grammar: &Grammar, seqs: &VisitSeqs) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "/* Generated by fnc2-codegen from attribute grammar `{}`. */",
        grammar.name()
    );
    out.push_str(PRELUDE);

    emit_unit(&mut out, env);

    // ---- tree representation -------------------------------------------
    let _ = writeln!(out, "{}", NODE_DEF);
    // Attribute offsets per phylum (comment only; offsets are positional).
    for ph in grammar.phyla() {
        let names: Vec<String> = grammar
            .phylum(ph)
            .attrs()
            .iter()
            .map(|&a| format!("{}:{}", grammar.attr(a).offset(), grammar.attr(a).name()))
            .collect();
        let _ = writeln!(
            out,
            "/* phylum {} attrs: [{}] */",
            grammar.phylum(ph).name(),
            names.join(", ")
        );
    }
    out.push('\n');

    // ---- rule functions: one per rule of the OLGA text --------------------
    for r in rules {
        emit_rule_fn(&mut out, grammar, r);
    }
    let by_target: HashMap<(ProductionId, ONode), &RuleText> = rules
        .iter()
        .map(|r| ((r.production, r.target), r))
        .collect();

    // ---- visit functions ----------------------------------------------------
    out.push_str("static void visit(Node* n, int partition, int v);\n\n");
    for seq in seqs.iter() {
        let (p, pi) = (seq.production, seq.lhs_partition);
        let prod = grammar.production(p);
        for (vi, segment) in seq.segments.iter().enumerate() {
            let _ = writeln!(
                out,
                "static void visit_{}_pi{}_v{}(Node* n) {{",
                cid(prod.name()),
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
                            "    visit(n->kids[{}], {partition}, {visit});",
                            child - 1
                        );
                    }
                    Instr::Eval(target) => {
                        let rule = by_target.get(&(p, *target)).copied();
                        emit_eval(&mut out, grammar, rule, p, *target);
                    }
                }
            }
            out.push_str("}\n\n");
        }
    }
    // Dispatch.
    out.push_str("static void visit(Node* n, int partition, int v) {\n");
    for seq in seqs.iter() {
        let (p, pi) = (seq.production, seq.lhs_partition);
        let prod = grammar.production(p);
        for vi in 1..=seq.segments.len() {
            let _ = writeln!(
                out,
                "    if (n->prod == {} && partition == {pi} && v == {vi}) {{ visit_{}_pi{}_v{}(n); return; }}",
                p.index(),
                cid(prod.name()),
                pi,
                vi
            );
        }
    }
    out.push_str("    fprintf(stderr, \"no visit sequence\\n\"); exit(1);\n}\n\n");

    // ---- driver stub -----------------------------------------------------
    let root = grammar.root();
    let visits = seqs.partitions_of(root)[0].visit_count();
    let _ = writeln!(
        out,
        "V evaluate_root(Node* root) {{\n    init_consts();\n    int v;\n    for (v = 1; v <= {visits}; v++) visit(root, 0, v);\n    return root->attrs[0];\n}}\n"
    );
    out.push_str("int main(void) { return 0; }\n");
    out
}

/// Generates C for a plain module (no AG): the Table 3 "translator"
/// phase, which translates the non-AG parts of an OLGA text.
pub fn module_to_c(env: &UnitEnv) -> String {
    let mut out = String::new();
    out.push_str("/* Generated by fnc2-codegen (module translation). */\n");
    out.push_str(PRELUDE);
    emit_unit(&mut out, env);
    out.push_str("int main(void) { init_consts(); return 0; }\n");
    out
}

/// Prints the functions and constants a unit reaches
/// ([`UnitEnv::reach`]): the prototypes (functions may be mutually
/// recursive), the constants' declarations (functions may read them), the
/// function bodies, and `init_consts`, which computes the constants in
/// [`UnitEnv::const_order`].
fn emit_unit(out: &mut String, env: &UnitEnv) {
    let prog = &*env.program;
    let (funcs, _) = env.reach();
    for &f in &funcs {
        let fun = &prog.funcs[f];
        let params: Vec<String> = fun.params.iter().map(|n| format!("V {}", uid(n))).collect();
        let _ = writeln!(
            out,
            "static V {}({});",
            global('f', f, &fun.name),
            params.join(", ")
        );
    }
    out.push('\n');
    let (consts, _) = env.const_order();
    for &c in &consts {
        let name = global('c', c, &prog.consts[c].0);
        let _ = writeln!(out, "static V {name}; /* initialised in init_consts */");
    }
    for &f in &funcs {
        emit_function(out, f, &prog.funcs[f]);
    }
    out.push_str("static void init_consts(void) {\n");
    for &c in &consts {
        let (name, body) = &prog.consts[c];
        let mut ctx = EmitCtx::new();
        let v = emit_expr(&mut ctx, body);
        out.push_str(&ctx.indented(1));
        let _ = writeln!(out, "    {} = {v};", global('c', c, name));
    }
    out.push_str("}\n\n");
}

const PRELUDE: &str = r#"
#include <stdio.h>
#include <stdlib.h>
#include <string.h>

/* ---- dynamic values (no garbage collector, like the 1990 translator) -- */
enum { T_UNIT, T_INT, T_REAL, T_BOOL, T_STR, T_LIST, T_TUPLE, T_MAP, T_TERM };
typedef struct V V;
typedef struct Cell Cell;
struct V { int tag; union { long i; double r; const char* s; Cell* cell; } u; };
struct Cell { V head; Cell* tail; const char* key; int len; };

static V mk_unit(void) { V v; v.tag = T_UNIT; v.u.i = 0; return v; }
static V mk_int(long i) { V v; v.tag = T_INT; v.u.i = i; return v; }
static V mk_real(double r) { V v; v.tag = T_REAL; v.u.r = r; return v; }
static V mk_bool(int b) { V v; v.tag = T_BOOL; v.u.i = b; return v; }
static V mk_str(const char* s) { V v; v.tag = T_STR; v.u.s = s; return v; }
static Cell* cell(V head, Cell* tail) {
    Cell* c = (Cell*)malloc(sizeof(Cell));
    c->head = head; c->tail = tail; c->key = 0; c->len = 0; return c;
}
static V mk_nil(void) { V v; v.tag = T_LIST; v.u.cell = 0; return v; }
static V v_cons(V h, V t) { V v; v.tag = T_LIST; v.u.cell = cell(h, t.u.cell); return v; }
static V v_hd(V l) { return l.u.cell->head; }
static V v_tl(V l) { V v; v.tag = T_LIST; v.u.cell = l.u.cell->tail; return v; }
static V v_null(V l) { return mk_bool(l.u.cell == 0); }
static long v_len(V l) { long n = 0; Cell* c = l.u.cell; while (c) { n++; c = c->tail; } return n; }
static V v_append(V a, V b) {
    if (a.tag == T_STR) { /* string concat */
        size_t la = strlen(a.u.s), lb = strlen(b.u.s);
        char* s = (char*)malloc(la + lb + 1);
        memcpy(s, a.u.s, la); memcpy(s + la, b.u.s, lb + 1);
        return mk_str(s);
    }
    if (a.u.cell == 0) return b;
    return v_cons(a.u.cell->head, v_append(v_tl(a), b));
}
static V v_rev(V l) { V out = mk_nil(); Cell* c = l.u.cell; while (c) { out = v_cons(c->head, out); c = c->tail; } return out; }
static V mk_tuple2(V a, V b) { V v; v.tag = T_TUPLE; v.u.cell = cell(a, cell(b, 0)); return v; }
static V v_tuple_push(V t, V x) { /* append one field */
    Cell** p; V v = t; if (v.tag != T_TUPLE) { v.tag = T_TUPLE; v.u.cell = 0; }
    p = &v.u.cell; while (*p) p = &(*p)->tail; *p = cell(x, 0); return v;
}
static V v_proj(V t, int i) { Cell* c = t.u.cell; while (i-- > 0) c = c->tail; return c->head; }
static int v_tuple_len(V t) { int n = 0; Cell* c = t.u.cell; while (c) { n++; c = c->tail; } return n; }
/* maps: assoc lists keyed by C strings */
static V mk_map(void) { V v; v.tag = T_MAP; v.u.cell = 0; return v; }
static V v_insert(V m, V k, V x) {
    Cell* c = cell(x, m.u.cell); c->key = k.u.s; V v; v.tag = T_MAP; v.u.cell = c; return v;
}
static V v_lookup(V m, V k) {
    Cell* c = m.u.cell;
    for (; c; c = c->tail) if (strcmp(c->key, k.u.s) == 0) return c->head;
    fprintf(stderr, "lookup: unbound key %s\n", k.u.s); exit(1);
}
static V v_bound(V m, V k) {
    Cell* c = m.u.cell;
    for (; c; c = c->tail) if (strcmp(c->key, k.u.s) == 0) return mk_bool(1);
    return mk_bool(0);
}
static V v_remove(V m, V k) {
    if (m.u.cell == 0) return m;
    if (strcmp(m.u.cell->key, k.u.s) == 0) { V t; t.tag = T_MAP; t.u.cell = m.u.cell->tail; return v_remove(t, k); }
    { V rest; rest.tag = T_MAP; rest.u.cell = m.u.cell->tail;
      V r = v_remove(rest, k);
      Cell* c = cell(m.u.cell->head, r.u.cell); c->key = m.u.cell->key;
      { V v; v.tag = T_MAP; v.u.cell = c; return v; } }
}
static long v_size(V m) { long n = 0; Cell* c = m.u.cell; while (c) { n++; c = c->tail; } return n; }
/* terms */
static V mk_term(const char* op, int n, ...) ;
#include <stdarg.h>
static V mk_term(const char* op, int n, ...) {
    va_list ap; int i; Cell* first = 0; Cell** p = &first;
    va_start(ap, n);
    for (i = 0; i < n; i++) { V x = va_arg(ap, V); *p = cell(x, 0); p = &(*p)->tail; }
    va_end(ap);
    { V v; v.tag = T_TERM; v.u.cell = cell(mk_str(op), first); v.u.cell->len = n; return v; }
}
static const char* term_op(V t) { return t.u.cell->head.u.s; }
static int term_arity(V t) { return t.u.cell->len; }
static V term_child(V t, int i) { Cell* c = t.u.cell->tail; while (i-- > 0) c = c->tail; return c->head; }
/* arithmetic & comparison */
static V v_add(V a, V b) { return a.tag == T_INT ? mk_int(a.u.i + b.u.i) : (a.tag == T_REAL ? mk_real(a.u.r + b.u.r) : v_append(a, b)); }
static V v_sub(V a, V b) { return a.tag == T_INT ? mk_int(a.u.i - b.u.i) : mk_real(a.u.r - b.u.r); }
static V v_mul(V a, V b) { return a.tag == T_INT ? mk_int(a.u.i * b.u.i) : mk_real(a.u.r * b.u.r); }
static V v_div(V a, V b) { return a.tag == T_INT ? mk_int(a.u.i / b.u.i) : mk_real(a.u.r / b.u.r); }
static V v_mod(V a, V b) { return mk_int(a.u.i % b.u.i); }
static int v_eq(V a, V b) {
    if (a.tag != b.tag) return 0;
    switch (a.tag) {
    case T_UNIT: return 1;
    case T_INT: case T_BOOL: return a.u.i == b.u.i;
    case T_REAL: return a.u.r == b.u.r;
    case T_STR: return strcmp(a.u.s, b.u.s) == 0;
    case T_LIST: case T_TUPLE: {
        Cell *x = a.u.cell, *y = b.u.cell;
        for (; x && y; x = x->tail, y = y->tail) if (!v_eq(x->head, y->head)) return 0;
        return x == y; }
    case T_TERM: {
        Cell *x = a.u.cell, *y = b.u.cell;
        if (strcmp(x->head.u.s, y->head.u.s) != 0 || x->len != y->len) return 0;
        for (x = x->tail, y = y->tail; x && y; x = x->tail, y = y->tail)
            if (!v_eq(x->head, y->head)) return 0;
        return 1; }
    case T_MAP: return a.u.cell == b.u.cell; /* nominal */
    }
    return 0;
}
static int v_lt(V a, V b) {
    if (a.tag == T_INT) return a.u.i < b.u.i;
    if (a.tag == T_REAL) return a.u.r < b.u.r;
    return strcmp(a.u.s, b.u.s) < 0;
}
static V v_path(V v, int i) {
    if (v.tag == T_LIST) { return i == 0 ? v.u.cell->head : v_tl(v); }
    if (v.tag == T_TERM) return term_child(v, i);
    return v_proj(v, i);
}
static V v_itoa(V a) { char* s = (char*)malloc(24); sprintf(s, "%ld", a.u.i); return mk_str(s); }
static V v_rtoa(V a) { char* s = (char*)malloc(32); sprintf(s, "%g", a.u.r); return mk_str(s); }
static V v_error(V a) { fprintf(stderr, "OLGA error: %s\n", a.u.s); exit(1); }
"#;

const NODE_DEF: &str = r#"/* ---- attributed abstract trees ---- */
typedef struct Node {
    int prod;            /* production id */
    struct Node** kids;
    int nkids;
    V token;             /* lexeme attached by the tree constructor */
    V* attrs;            /* indexed by the phylum's attribute offsets */
    V* locals;           /* production-local attributes */
} Node;
"#;

/// Sanitizes an identifier for C.
fn cid(s: &str) -> String {
    s.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

/// The C name of a user-written variable, a parameter or a `let`/`case`
/// binder: `u_<name>`. No prelude or generated name starts with `u_`, so
/// user names never meet the temporaries `t<k>`, the rule parameters
/// `o<k>`, the globals or the runtime's own names.
fn uid(s: &str) -> String {
    format!("u_{}", cid(s))
}

/// The C name of the function (`kind` `f`) or constant (`c`) of id `id`
/// in the program: `f<id>_<name>`, so same-named entities of two modules
/// keep apart.
fn global(kind: char, id: usize, name: &str) -> String {
    format!("{kind}{id}_{}", cid(name))
}

/// Expression-emission context: accumulated statements + temp counter.
struct EmitCtx {
    stmts: Vec<String>,
    next: usize,
}

impl EmitCtx {
    fn new() -> EmitCtx {
        EmitCtx {
            stmts: Vec::new(),
            next: 0,
        }
    }

    fn tmp(&mut self) -> String {
        self.next += 1;
        format!("t{}", self.next)
    }

    fn push(&mut self, s: String) {
        self.stmts.push(s);
    }

    fn indented(&self, level: usize) -> String {
        let pad = "    ".repeat(level);
        self.stmts.iter().map(|s| format!("{pad}{s}\n")).collect()
    }
}

/// Runs `f` on a context for statements nested one level inside the
/// current braces, then appends them indented.
fn nested<R>(ctx: &mut EmitCtx, f: impl FnOnce(&mut EmitCtx) -> R) -> R {
    let mut inner = EmitCtx::new();
    inner.next = ctx.next;
    let r = f(&mut inner);
    ctx.next = inner.next;
    for s in inner.stmts {
        ctx.push(format!("    {s}"));
    }
    r
}

/// Emits the user function of id `id`, compiling self-tail-recursion to a
/// loop.
fn emit_function(out: &mut String, id: usize, fun: &Function) {
    let info = tail_info(&fun.name, &fun.body);
    let params: Vec<String> = fun.params.iter().map(|n| format!("V {}", uid(n))).collect();
    let name = global('f', id, &fun.name);
    let _ = writeln!(out, "static V {name}({}) {{", params.join(", "));
    if info.is_tail_recursive() {
        // The common optimizer's tail-recursion elimination: wrap in a
        // loop; tail self-calls assign the parameters and continue.
        let _ = writeln!(out, "    for (;;) {{ /* tail-recursion eliminated */");
        let mut ctx = EmitCtx::new();
        let v = emit_expr_tail(&mut ctx, &fun.body, &fun.name, &fun.params);
        out.push_str(&ctx.indented(2));
        if v != TAIL_CONTINUED {
            let _ = writeln!(out, "        return {v};");
        }
        let _ = writeln!(out, "    }}");
    } else {
        let mut ctx = EmitCtx::new();
        let v = emit_expr(&mut ctx, &fun.body);
        out.push_str(&ctx.indented(1));
        let _ = writeln!(out, "    return {v};");
    }
    let _ = writeln!(out, "}}\n");
}

const TAIL_CONTINUED: &str = "/*continue*/";

/// Emits `e` in tail position of `fname`: self-calls become parameter
/// reassignment + `continue`.
fn emit_expr_tail(ctx: &mut EmitCtx, e: &Expr, fname: &str, params: &[String]) -> String {
    match e {
        Expr::Call {
            name,
            args,
            callee: Callee::User(_),
            ..
        } if name == fname => {
            let vals: Vec<String> = args.iter().map(|a| emit_expr(ctx, a)).collect();
            // Assign via temporaries (simultaneous assignment).
            let tmps: Vec<String> = vals
                .iter()
                .map(|v| {
                    let t = ctx.tmp();
                    ctx.push(format!("V {t} = {v};"));
                    t
                })
                .collect();
            for (p, t) in params.iter().zip(&tmps) {
                ctx.push(format!("{} = {t};", uid(p)));
            }
            ctx.push("continue;".to_string());
            TAIL_CONTINUED.to_string()
        }
        Expr::If {
            cond, then, els, ..
        } => {
            let c = emit_expr(ctx, cond);
            let t = ctx.tmp();
            ctx.push(format!("V {t} = mk_unit();"));
            ctx.push(format!("if ({c}.u.i) {{"));
            let tv = nested(ctx, |inner| emit_expr_tail(inner, then, fname, params));
            if tv != TAIL_CONTINUED {
                ctx.push(format!("    {t} = {tv}; break;"));
            }
            ctx.push("} else {".to_string());
            let ev = nested(ctx, |inner| emit_expr_tail(inner, els, fname, params));
            if ev != TAIL_CONTINUED {
                ctx.push(format!("    {t} = {ev}; break;"));
            }
            ctx.push("}".to_string());
            // If both branches continued, this point is unreachable; the
            // returned temp keeps the C type checker happy either way.
            ctx.push(format!("return {t};"));
            TAIL_CONTINUED.to_string()
        }
        Expr::Case { .. } | Expr::Let { .. } => {
            // Conservatively drop TCO inside other constructs: emit the
            // expression non-tail and return it.
            let v = emit_expr(ctx, e);
            ctx.push(format!("return {v};"));
            TAIL_CONTINUED.to_string()
        }
        other => emit_expr(ctx, other),
    }
}

/// Emits `e` as statements + a resulting C expression (a temp or literal).
fn emit_expr(ctx: &mut EmitCtx, e: &Expr) -> String {
    match e {
        Expr::Int(i, _) => format!("mk_int({i})"),
        Expr::Real(r, _) => format!("mk_real({r:?})"),
        Expr::Bool(b, _) => format!("mk_bool({})", i32::from(*b)),
        Expr::Str(s, _) => format!("mk_str({})", c_string(s.as_str())),
        Expr::Var { name, var, .. } => match *var {
            VarRef::Binder(_) => uid(name),
            VarRef::Const(c) => global('c', c, name),
            VarRef::Local | VarRef::Unresolved => {
                unreachable!(
                    "the checker resolves `{name}`; the lowering turns locals into arguments"
                )
            }
        },
        // Argument `k` of a rule function.
        Expr::Arg(k) => format!("o{k}"),
        Expr::Occ(_) => unreachable!("the lowering turns occurrences into rule arguments"),
        Expr::Call {
            name, args, callee, ..
        } => {
            let vals: Vec<String> = args.iter().map(|a| emit_expr(ctx, a)).collect();
            match *callee {
                Callee::Builtin(b) => builtin_call(b, &vals),
                Callee::User(f) => format!("{}({})", global('f', f, name), vals.join(", ")),
                Callee::Unresolved => unreachable!("the checker resolves `{name}`"),
            }
        }
        Expr::Unop { op, expr, .. } => {
            let v = emit_expr(ctx, expr);
            match *op {
                UnOp::Neg => {
                    let t = ctx.tmp();
                    ctx.push(format!(
                        "V {t} = ({v}.tag == T_INT) ? mk_int(-{v}.u.i) : mk_real(-{v}.u.r);"
                    ));
                    t
                }
                UnOp::Not => format!("mk_bool(!{v}.u.i)"),
            }
        }
        Expr::Binop { op, lhs, rhs, .. } => match *op {
            BinOp::And | BinOp::Or => {
                let l = emit_expr(ctx, lhs);
                let t = ctx.tmp();
                ctx.push(format!("V {t} = {l};"));
                let guard = if *op == BinOp::And {
                    format!("if ({t}.u.i) {{")
                } else {
                    format!("if (!{t}.u.i) {{")
                };
                ctx.push(guard);
                let r = emit_block(ctx, rhs);
                ctx.push(format!("    {t} = {r};"));
                ctx.push("}".to_string());
                t
            }
            _ => {
                let l = emit_expr(ctx, lhs);
                let r = emit_expr(ctx, rhs);
                match *op {
                    BinOp::Add => format!("v_add({l}, {r})"),
                    BinOp::Sub => format!("v_sub({l}, {r})"),
                    BinOp::Mul => format!("v_mul({l}, {r})"),
                    BinOp::Div => format!("v_div({l}, {r})"),
                    BinOp::Rem => format!("v_mod({l}, {r})"),
                    BinOp::Eq => format!("mk_bool(v_eq({l}, {r}))"),
                    BinOp::Ne => format!("mk_bool(!v_eq({l}, {r}))"),
                    BinOp::Lt => format!("mk_bool(v_lt({l}, {r}))"),
                    BinOp::Gt => format!("mk_bool(v_lt({r}, {l}))"),
                    BinOp::Le => format!("mk_bool(!v_lt({r}, {l}))"),
                    BinOp::Ge => format!("mk_bool(!v_lt({l}, {r}))"),
                    BinOp::Cons => format!("v_cons({l}, {r})"),
                    BinOp::Concat => format!("v_append({l}, {r})"),
                    BinOp::And | BinOp::Or => unreachable!("short-circuited above"),
                }
            }
        },
        Expr::If {
            cond, then, els, ..
        } => {
            let c = emit_expr(ctx, cond);
            let t = ctx.tmp();
            ctx.push(format!("V {t};"));
            ctx.push(format!("if ({c}.u.i) {{"));
            let tv = emit_block(ctx, then);
            ctx.push(format!("    {t} = {tv};"));
            ctx.push("} else {".to_string());
            let ev = emit_block(ctx, els);
            ctx.push(format!("    {t} = {ev};"));
            ctx.push("}".to_string());
            t
        }
        Expr::Let {
            name, value, body, ..
        } => {
            let v = emit_expr(ctx, value);
            let r = ctx.tmp();
            ctx.push(format!("V {r};"));
            ctx.push(format!("{{ V {} = {v};", uid(name)));
            let b = emit_block(ctx, body);
            ctx.push(format!("  {r} = {b}; }}"));
            r
        }
        Expr::Case {
            scrutinee, arms, ..
        } => {
            let s = emit_expr(ctx, scrutinee);
            let sv = ctx.tmp();
            ctx.push(format!("V {sv} = {s};"));
            let result = ctx.tmp();
            ctx.push(format!("V {result} = mk_unit();"));
            let pats: Vec<Pat> = arms.iter().map(|(p, _)| p.clone()).collect();
            let decision = compile_arms(&pats);
            emit_decision(ctx, &decision, &sv, &result, arms);
            result
        }
        Expr::ListLit(items, _, _) => {
            let mut acc = "mk_nil()".to_string();
            for it in items.iter().rev() {
                let v = emit_expr(ctx, it);
                let t = ctx.tmp();
                ctx.push(format!("V {t} = v_cons({v}, {acc});"));
                acc = t;
            }
            acc
        }
        Expr::TupleLit(items, _) => {
            let t = ctx.tmp();
            ctx.push(format!("V {t}; {t}.tag = T_TUPLE; {t}.u.cell = 0;"));
            for it in items {
                let v = emit_expr(ctx, it);
                ctx.push(format!("{t} = v_tuple_push({t}, {v});"));
            }
            t
        }
        Expr::TreeCons { op, args, .. } => {
            let vals: Vec<String> = args.iter().map(|a| emit_expr(ctx, a)).collect();
            format!(
                "mk_term({}, {}{}{})",
                c_string(op),
                vals.len(),
                if vals.is_empty() { "" } else { ", " },
                vals.join(", ")
            )
        }
    }
}

/// Emits a sub-expression whose statements must live inside the current
/// braces (then/else bodies).
fn emit_block(ctx: &mut EmitCtx, e: &Expr) -> String {
    nested(ctx, |inner| emit_expr(inner, e))
}

/// Emits the decision tree of a `case` as nested ifs.
fn emit_decision(
    ctx: &mut EmitCtx,
    d: &Decision,
    scrutinee: &str,
    result: &str,
    arms: &[(Pat, Expr)],
) {
    match d {
        Decision::Fail => {
            ctx.push(format!(
                "fprintf(stderr, \"match failure\\n\"); exit(1); (void){result};"
            ));
        }
        Decision::Leaf { arm, bindings } => {
            for (name, path) in bindings {
                let access = emit_path(scrutinee, path);
                ctx.push(format!("{{ V {} = {access};", uid(name)));
            }
            let v = emit_block(ctx, &arms[*arm].1);
            ctx.push(format!("{result} = {v};"));
            for _ in bindings {
                ctx.push("}".to_string());
            }
        }
        Decision::Test {
            path,
            test,
            yes,
            no,
        } => {
            let access = emit_path(scrutinee, path);
            let cond = match test {
                Test::IntIs(i) => format!("{access}.u.i == {i}"),
                Test::BoolIs(b) => format!("{access}.u.i == {}", i32::from(*b)),
                Test::StrIs(s) => format!("strcmp({access}.u.s, {}) == 0", c_string(s)),
                Test::IsNil => format!("{access}.u.cell == 0"),
                Test::IsCons => format!("{access}.u.cell != 0"),
                Test::IsTerm(op, n) => format!(
                    "strcmp(term_op({access}), {}) == 0 && term_arity({access}) == {n}",
                    c_string(op)
                ),
                Test::IsTuple(n) => {
                    format!("{access}.tag == T_TUPLE && v_tuple_len({access}) == {n}")
                }
            };
            ctx.push(format!("if ({cond}) {{"));
            nested(ctx, |inner| {
                emit_decision(inner, yes, scrutinee, result, arms)
            });
            ctx.push("} else {".to_string());
            nested(ctx, |inner| {
                emit_decision(inner, no, scrutinee, result, arms)
            });
            ctx.push("}".to_string());
        }
    }
}

/// Access-path expression for the value at `path` under `root`. Paths into
/// lists use 0 = head, 1 = tail; tuples and terms use child indices.
/// Shape information is not tracked here, so list paths only arise under
/// cons tests (guaranteed by construction) and tuple/term projections use
/// `v_proj`/`term_child` interchangeably via the cell layout.
fn emit_path(root: &str, path: &[usize]) -> String {
    let mut acc = root.to_string();
    for &i in path {
        // Works uniformly: lists (head/tail via proj on cells), tuples and
        // term children (cells after the op cell are handled by
        // term_child; tuples by v_proj). We cannot distinguish statically,
        // so use a generic projection helper:
        acc = format!("v_path({acc}, {i})");
    }
    acc
}

fn builtin_call(b: Builtin, vals: &[String]) -> String {
    use Builtin::*;
    match b {
        ToReal => format!("mk_real((double){}.u.i)", vals[0]),
        ToInt => format!("mk_int((long){}.u.r)", vals[0]),
        Abs => format!("mk_int(labs({}.u.i))", vals[0]),
        Min => format!(
            "mk_int({0}.u.i < {1}.u.i ? {0}.u.i : {1}.u.i)",
            vals[0], vals[1]
        ),
        Max => format!(
            "mk_int({0}.u.i > {1}.u.i ? {0}.u.i : {1}.u.i)",
            vals[0], vals[1]
        ),
        Len => format!("mk_int(v_len({}))", vals[0]),
        Null => format!("v_null({})", vals[0]),
        Hd => format!("v_hd({})", vals[0]),
        Tl => format!("v_tl({})", vals[0]),
        Rev => format!("v_rev({})", vals[0]),
        EmptyMap => "mk_map()".to_string(),
        Size => format!("mk_int(v_size({}))", vals[0]),
        Insert => format!("v_insert({}, {}, {})", vals[0], vals[1], vals[2]),
        Lookup => format!("v_lookup({}, {})", vals[0], vals[1]),
        Bound => format!("v_bound({}, {})", vals[0], vals[1]),
        Remove => format!("v_remove({}, {})", vals[0], vals[1]),
        Itoa => format!("v_itoa({})", vals[0]),
        Rtoa => format!("v_rtoa({})", vals[0]),
        Strlen => format!("mk_int((long)strlen({}.u.s))", vals[0]),
        Error => format!("v_error({})", vals[0]),
        Token => unreachable!("the lowering turns `token()` into a rule argument"),
    }
}

fn c_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Emits the function of one OLGA rule: its parameters are the rule's
/// arguments, `o0`, `o1`, … in the table's order.
fn emit_rule_fn(out: &mut String, grammar: &Grammar, r: &RuleText) {
    let mut ctx = EmitCtx::new();
    let v = emit_expr(&mut ctx, &r.body);
    let params: Vec<String> = (0..r.args.len()).map(|k| format!("V o{k}")).collect();
    let name = rule_fn(grammar, r.production, r.target);
    let _ = writeln!(out, "static V {name}({}) {{", params.join(", "));
    out.push_str(&ctx.indented(1));
    let _ = writeln!(out, "    return {v};");
    let _ = writeln!(out, "}}");
    let op = grammar.production(r.production).name();
    let _ = writeln!(out, "/* used by visit sequences of operator {op} */\n");
}

/// The C name of the function of the OLGA rule defining `target` in `p`:
/// `rule`, the production's index, the operator, then `p<k>` and the
/// attribute for an occurrence at position `k`, or `local` and the local's
/// name. A local that shares its name with another local of the production
/// (two blocks may each declare one) says `local<i>`, with its index. The
/// index keeps the names of two productions apart even when an operator's
/// name, joined with `_`, reads like another's with a position.
fn rule_fn(grammar: &Grammar, p: ProductionId, target: ONode) -> String {
    let prod = grammar.production(p);
    let (kind, name) = match target {
        ONode::Attr(o) => (format!("p{}", o.pos), grammar.attr(o.attr).name()),
        ONode::Local(l) => {
            let name = prod.locals()[l.index()].name();
            let shared = prod.locals().iter().filter(|x| x.name() == name).count() > 1;
            let kind = if shared {
                format!("local{}", l.index())
            } else {
                "local".to_string()
            };
            (kind, name)
        }
    };
    format!(
        "rule{}_{}_{kind}_{}",
        p.index(),
        cid(prod.name()),
        cid(name)
    )
}

/// The C expression reading `arg` at the node `n`.
fn access(grammar: &Grammar, arg: &Arg) -> String {
    match arg {
        Arg::Node(ONode::Attr(Occ { pos: 0, attr })) => {
            format!("n->attrs[{}]", grammar.attr(*attr).offset())
        }
        Arg::Node(ONode::Attr(Occ { pos, attr })) => format!(
            "n->kids[{}]->attrs[{}]",
            pos - 1,
            grammar.attr(*attr).offset()
        ),
        Arg::Node(ONode::Local(l)) => format!("n->locals[{}]", l.index()),
        Arg::Token => "n->token".to_string(),
        Arg::Const(Value::Int(i)) => format!("mk_int({i})"),
        Arg::Const(Value::Real(r)) => format!("mk_real({r:?})"),
        Arg::Const(Value::Bool(b)) => format!("mk_bool({})", i32::from(*b)),
        Arg::Const(Value::Str(s)) => format!("mk_str({})", c_string(s)),
        Arg::Const(_) => "mk_unit()".to_string(),
    }
}

/// Emits the EVAL of `target` in production `p` of a visit function: a call
/// of the function of its OLGA rule, or, for a rule the lowering generated,
/// the copy or the rule model's fold that the grammar holds.
fn emit_eval(
    out: &mut String,
    grammar: &Grammar,
    rule: Option<&RuleText>,
    p: ProductionId,
    target: ONode,
) {
    let reads = |args: &[Arg]| args.iter().map(|a| access(grammar, a)).collect::<Vec<_>>();
    let rhs = match rule {
        Some(r) => format!(
            "{}({})",
            rule_fn(grammar, p, target),
            reads(&r.args).join(", ")
        ),
        None => match grammar
            .rule_for(p, target)
            .expect("well-defined grammar")
            .body()
        {
            RuleBody::Copy(src) => access(grammar, src),
            RuleBody::Call { func, args } => {
                // The lowering's `with sum` rule model adds; `with concat`
                // appends.
                let op = if grammar.function(*func).name().starts_with("model@Sum@") {
                    "v_add"
                } else {
                    "v_append"
                };
                let folded = reads(args)
                    .into_iter()
                    .reduce(|acc, a| format!("{op}({acc}, {a})"));
                folded.expect("a rule model folds its carriers")
            }
        },
    };
    let _ = writeln!(out, "    {} = {rhs};", access(grammar, &Arg::Node(target)));
}
