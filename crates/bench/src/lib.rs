//! # fnc2-bench — the reproduction's measurement harness
//!
//! Shared machinery for the table binaries (`table1` … `table4`,
//! `table_partitions`, `table_space`, `table_evaluator`,
//! `table_incremental`) and the `benches/` targets: hand-written reference
//! evaluators (the §4.2 comparison point), a byte-counting global-allocator
//! hook (the Table 2/3 "memory" column), a dependency-free timing harness
//! ([`harness`]), table rendering, and optional JSON table dumps
//! ([`maybe_emit_json`]).

#![warn(missing_docs)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use fnc2::ag::{Grammar, NodeId, Tree, Value};

// ---------------------------------------------------------------------------
// Counting allocator (Table 2/3 "memory" column)
// ---------------------------------------------------------------------------

/// A global allocator wrapper tracking current and peak live bytes.
#[derive(Debug)]
pub struct CountingAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

// SAFETY: delegates to `System` and only adds relaxed counters.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            let live = LIVE.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
            PEAK.fetch_max(live, Ordering::Relaxed);
        }
        p
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }
}

impl CountingAlloc {
    /// Resets the peak to the current live volume.
    pub fn reset_peak() {
        PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// Peak live bytes since the last reset.
    pub fn peak() -> usize {
        PEAK.load(Ordering::Relaxed)
    }

    /// Currently live bytes.
    pub fn live() -> usize {
        LIVE.load(Ordering::Relaxed)
    }
}

// ---------------------------------------------------------------------------
// Hand-written evaluators (the §4.2 "hand-written version" baseline)
// ---------------------------------------------------------------------------

/// Hand-written evaluator for the binary grammar: a direct recursive walk
/// with native arithmetic — "as efficient in time and space as hand-written
/// programs using the same basic data structures" is the design goal the
/// generated evaluator is measured against.
pub fn handwritten_binary(g: &Grammar, tree: &Tree) -> f64 {
    fn seq(g: &Grammar, tree: &Tree, n: NodeId, scale: i64) -> (f64, i64) {
        let prod = g.production(tree.node(n).production());
        match prod.name() {
            "pair" => {
                let kids = tree.node(n).children();
                let b = bit(g, tree, kids[1], scale);
                let (v, len) = seq(g, tree, kids[0], scale + 1);
                (v + b, len + 1)
            }
            "single" => (bit(g, tree, tree.node(n).children()[0], scale), 1),
            other => unreachable!("not a Seq production: {other}"),
        }
    }
    fn bit(g: &Grammar, tree: &Tree, n: NodeId, scale: i64) -> f64 {
        let prod = g.production(tree.node(n).production());
        match prod.name() {
            "zero" => 0.0,
            "one" => 2f64.powi(scale as i32),
            other => unreachable!("not a Bit production: {other}"),
        }
    }
    let root = tree.root();
    let prod = g.production(tree.node(root).production());
    let kids = tree.node(root).children();
    match prod.name() {
        "number" => seq(g, tree, kids[0], 0).0,
        "fraction" => {
            let (int, _) = seq(g, tree, kids[0], 0);
            // Fractional part: scale = -length.
            fn length(tree: &Tree, g: &Grammar, n: NodeId) -> i64 {
                match g.production(tree.node(n).production()).name() {
                    "pair" => 1 + length(tree, g, tree.node(n).children()[0]),
                    _ => 1,
                }
            }
            let len = length(tree, g, kids[1]);
            let (frac, _) = seq(g, tree, kids[1], -len);
            int + frac
        }
        other => unreachable!("not a Number production: {other}"),
    }
}

/// Hand-written evaluator for the binary grammar *using the same basic
/// data structures* as the generated evaluator (dynamic [`Value`]s) — the
/// paper's exact comparison point: "as efficient in time and space as
/// hand-written programs using the same basic data structures".
pub fn handwritten_binary_boxed(g: &Grammar, tree: &Tree) -> Value {
    fn seq(g: &Grammar, tree: &Tree, n: NodeId, scale: Value) -> (Value, Value) {
        let prod = g.production(tree.node(n).production());
        match prod.name() {
            "pair" => {
                let kids = tree.node(n).children();
                let b = bit(g, tree, kids[1], scale.clone());
                let (v, len) = seq(g, tree, kids[0], Value::Int(scale.as_int() + 1));
                (
                    Value::Real(v.as_real() + b.as_real()),
                    Value::Int(len.as_int() + 1),
                )
            }
            "single" => (
                bit(g, tree, tree.node(n).children()[0], scale),
                Value::Int(1),
            ),
            other => unreachable!("not a Seq production: {other}"),
        }
    }
    fn bit(g: &Grammar, tree: &Tree, n: NodeId, scale: Value) -> Value {
        let prod = g.production(tree.node(n).production());
        match prod.name() {
            "zero" => Value::Real(0.0),
            "one" => Value::Real(2f64.powi(scale.as_int() as i32)),
            other => unreachable!("not a Bit production: {other}"),
        }
    }
    let root = tree.root();
    let kids = tree.node(root).children();
    match g.production(tree.node(root).production()).name() {
        "number" => seq(g, tree, kids[0], Value::Int(0)).0,
        "fraction" => {
            fn length(tree: &Tree, g: &Grammar, n: NodeId) -> i64 {
                match g.production(tree.node(n).production()).name() {
                    "pair" => 1 + length(tree, g, tree.node(n).children()[0]),
                    _ => 1,
                }
            }
            let (int, _) = seq(g, tree, kids[0], Value::Int(0));
            let len = length(tree, g, kids[1]);
            let (frac, _) = seq(g, tree, kids[1], Value::Int(-len));
            Value::Real(int.as_real() + frac.as_real())
        }
        other => unreachable!("not a Number production: {other}"),
    }
}

/// Hand-written evaluator for the desk grammar: environment threading with
/// a persistent map, mirroring exactly the data structures the generated
/// evaluator uses (so the measured gap is pure interpretation overhead).
pub fn handwritten_desk(g: &Grammar, tree: &Tree) -> i64 {
    use std::collections::BTreeMap;
    use std::rc::Rc;
    type Env = Rc<BTreeMap<String, i64>>;
    fn expr(g: &Grammar, tree: &Tree, n: NodeId, env: &Env) -> i64 {
        let node = tree.node(n);
        let kids = node.children();
        match g.production(node.production()).name() {
            "add" => expr(g, tree, kids[0], env).wrapping_add(expr(g, tree, kids[1], env)),
            "mul" => expr(g, tree, kids[0], env).wrapping_mul(expr(g, tree, kids[1], env)),
            "letx" => {
                let v = expr(g, tree, kids[0], env);
                let name = node.token().expect("let has a name").as_str().to_string();
                let mut m = (**env).clone();
                m.insert(name, v);
                expr(g, tree, kids[1], &Rc::new(m))
            }
            "var" => *env
                .get(node.token().expect("var has a name").as_str())
                .unwrap_or(&0),
            "lit" => node.token().expect("lit has a value").as_int(),
            other => unreachable!("not an Expr production: {other}"),
        }
    }
    let root = tree.root();
    let body = tree.node(root).children()[0];
    expr(g, tree, body, &Rc::new(BTreeMap::new()))
}

/// Hand-written mini-Pascal compiler over the corpus abstract trees: the
/// same semantics as the OLGA AG (identical P-code, identical label
/// numbering) *and the same basic data structures* — code and error lists
/// are combined functionally (fresh list per node, both operands copied),
/// exactly like the AG's `++`. The remaining gap to the generated
/// evaluator is then pure interpretation overhead — the paper's
/// "execution of the semantic rules" argument.
pub fn handwritten_minipascal(g: &Grammar, tree: &Tree) -> (Vec<String>, Vec<String>) {
    use std::collections::BTreeMap;
    type Env = BTreeMap<String, (i64, &'static str)>;
    type L = Vec<String>;

    fn cat(a: &L, b: &L) -> L {
        let mut v = Vec::with_capacity(a.len() + b.len());
        v.extend_from_slice(a);
        v.extend_from_slice(b);
        v
    }
    fn cat1(a: &L, s: String) -> L {
        let mut v = Vec::with_capacity(a.len() + 1);
        v.extend_from_slice(a);
        v.push(s);
        v
    }

    fn decls(g: &Grammar, tree: &Tree, n: NodeId, base: i64, env: &mut Env) -> i64 {
        let node = tree.node(n);
        match g.production(node.production()).name() {
            "decls_cons" => {
                let kids = node.children();
                let d = tree.node(kids[0]);
                let ty = match g.production(tree.node(d.children()[0]).production()).name() {
                    "tint" => "int",
                    _ => "bool",
                };
                env.insert(
                    d.token().expect("decl name").as_str().to_string(),
                    (base, ty),
                );
                1 + decls(g, tree, kids[1], base + 1, env)
            }
            _ => 0,
        }
    }

    fn expr(g: &Grammar, tree: &Tree, n: NodeId, env: &Env) -> (&'static str, L, L) {
        let node = tree.node(n);
        let kids = node.children();
        let prod = g.production(node.production()).name();
        let binop = |op: &str, want: &'static str, out: &'static str| {
            let (t1, c1, e1) = expr(g, tree, kids[0], env);
            let (t2, c2, e2) = expr(g, tree, kids[1], env);
            let mut errs = L::new();
            for t in [t1, t2] {
                if t != want && t != "?" {
                    errs = cat1(&errs, format!("{op}: expected {want}, got {t}"));
                }
            }
            let opc = match op {
                "+" => "ADD",
                "-" => "SUB",
                "*" => "MUL",
                "<" => "LT",
                _ => "EQ",
            };
            (
                out,
                cat1(&cat(&c1, &c2), opc.to_string()),
                cat(&cat(&errs, &e1), &e2),
            )
        };
        match prod {
            "eadd" => binop("+", "int", "int"),
            "esub" => binop("-", "int", "int"),
            "emul" => binop("*", "int", "int"),
            "elt" => binop("<", "int", "bool"),
            "eeq" => {
                let (t1, c1, e1) = expr(g, tree, kids[0], env);
                let (t2, c2, e2) = expr(g, tree, kids[1], env);
                let head = if t1 != t2 && t1 != "?" && t2 != "?" {
                    vec![format!("= applied to {t1} and {t2}")]
                } else {
                    L::new()
                };
                (
                    "bool",
                    cat1(&cat(&c1, &c2), "EQ".into()),
                    cat(&cat(&head, &e1), &e2),
                )
            }
            "enot" => {
                let (t, c, e) = expr(g, tree, kids[0], env);
                let head = if t != "bool" && t != "?" {
                    vec![format!("not: expected bool, got {t}")]
                } else {
                    L::new()
                };
                ("bool", cat1(&c, "NOT".into()), cat(&head, &e))
            }
            "elit" => (
                "int",
                vec![format!("LDC {}", node.token().expect("lit").as_int())],
                L::new(),
            ),
            "etrue" => ("bool", vec!["LDC 1".into()], L::new()),
            "efalse" => ("bool", vec!["LDC 0".into()], L::new()),
            "evar" => {
                let name = node.token().expect("var").as_str();
                match env.get(name) {
                    Some((a, t)) => (t, vec![format!("LOD {a}")], L::new()),
                    None => (
                        "?",
                        vec!["LOD 0".into()],
                        vec![format!("undeclared {name}")],
                    ),
                }
            }
            other => unreachable!("not an Expr production: {other}"),
        }
    }

    fn stmts(g: &Grammar, tree: &Tree, n: NodeId, env: &Env, lab: i64) -> (i64, L, L) {
        let node = tree.node(n);
        match g.production(node.production()).name() {
            "stmts_cons" => {
                let kids = node.children();
                let (lab, c1, e1) = stmt(g, tree, kids[0], env, lab);
                let (lab, c2, e2) = stmts(g, tree, kids[1], env, lab);
                (lab, cat(&c1, &c2), cat(&e1, &e2))
            }
            _ => (lab, L::new(), L::new()),
        }
    }

    fn stmt(g: &Grammar, tree: &Tree, n: NodeId, env: &Env, lab: i64) -> (i64, L, L) {
        let node = tree.node(n);
        let kids = node.children();
        match g.production(node.production()).name() {
            "assign" => {
                let name = node.token().expect("assign").as_str().to_string();
                let (t, c, e) = expr(g, tree, kids[0], env);
                let (addr, head) = match env.get(&name) {
                    Some((a, want)) => {
                        if t != *want && t != "?" {
                            (
                                *a,
                                vec![format!("assignment to {name}: expected {want}, got {t}")],
                            )
                        } else {
                            (*a, L::new())
                        }
                    }
                    None => (0, vec![format!("undeclared {name}")]),
                };
                (lab, cat1(&c, format!("STO {addr}")), cat(&head, &e))
            }
            "sif" => {
                let (t, c, e) = expr(g, tree, kids[0], env);
                let head = if t != "bool" && t != "?" {
                    vec![format!("if condition: expected bool, got {t}")]
                } else {
                    L::new()
                };
                let (l0, l1) = (lab, lab + 1);
                let (lab2, ct, et) = stmts(g, tree, kids[1], env, lab + 2);
                let (lab3, ce, ee) = stmts(g, tree, kids[2], env, lab2);
                let mut code = cat1(&c, format!("JPC L{l0}"));
                code = cat(&code, &ct);
                code = cat1(&code, format!("JMP L{l1}"));
                code = cat1(&code, format!("LAB L{l0}"));
                code = cat(&code, &ce);
                code = cat1(&code, format!("LAB L{l1}"));
                (lab3, code, cat(&cat(&head, &e), &cat(&et, &ee)))
            }
            "swhile" => {
                let (t, c, e) = expr(g, tree, kids[0], env);
                let head = if t != "bool" && t != "?" {
                    vec![format!("while condition: expected bool, got {t}")]
                } else {
                    L::new()
                };
                let (l0, l1) = (lab, lab + 1);
                let (lab2, cb, eb) = stmts(g, tree, kids[1], env, lab + 2);
                let mut code = vec![format!("LAB L{l0}")];
                code = cat(&code, &c);
                code = cat1(&code, format!("JPC L{l1}"));
                code = cat(&code, &cb);
                code = cat1(&code, format!("JMP L{l0}"));
                code = cat1(&code, format!("LAB L{l1}"));
                (lab2, code, cat(&cat(&head, &e), &eb))
            }
            "swrite" => {
                let (_, c, e) = expr(g, tree, kids[0], env);
                (lab, cat1(&c, "WRI".into()), e)
            }
            other => unreachable!("not a Stmt production: {other}"),
        }
    }

    let root = tree.root();
    let kids = tree.node(root).children();
    let mut env = BTreeMap::new();
    let count = decls(g, tree, kids[0], 0, &mut env);
    let (_, body, errs) = stmts(g, tree, kids[1], &env, 0);
    let mut code = vec![format!("ENT {count}")];
    code = cat(&code, &body);
    code = cat1(&code, "HLT".into());
    (code, errs)
}

/// Builds a large random desk-calculator tree (`2^depth` leaves-ish).
pub fn desk_tree(g: &Grammar, depth: usize) -> Tree {
    use fnc2::ag::TreeBuilder;
    fn grow(g: &Grammar, tb: &mut TreeBuilder, depth: usize, salt: i64) -> NodeId {
        if depth == 0 {
            if salt % 3 == 0 {
                tb.node_with_token(
                    g.production_by_name("var").unwrap(),
                    &[],
                    Some(Value::str(format!("v{}", salt % 7))),
                )
                .unwrap()
            } else {
                tb.node_with_token(
                    g.production_by_name("lit").unwrap(),
                    &[],
                    Some(Value::Int(salt % 100)),
                )
                .unwrap()
            }
        } else if salt % 5 == 0 {
            let bound = grow(g, tb, depth - 1, salt * 2 + 1);
            let body = grow(g, tb, depth - 1, salt * 2 + 2);
            tb.node_with_token(
                g.production_by_name("letx").unwrap(),
                &[bound, body],
                Some(Value::str(format!("v{}", salt % 7))),
            )
            .unwrap()
        } else {
            let a = grow(g, tb, depth - 1, salt * 2 + 1);
            let b = grow(g, tb, depth - 1, salt * 2 + 2);
            let op = if salt % 2 == 0 { "add" } else { "mul" };
            tb.op(op, &[a, b]).unwrap()
        }
    }
    let mut tb = TreeBuilder::new(g);
    let body = grow(g, &mut tb, depth, 1);
    let root = tb.op("prog", &[body]).unwrap();
    tb.finish_root(root).unwrap()
}

/// Builds a long random bit string (for binary-grammar workloads).
pub fn bit_string(len: usize, seed: u64) -> String {
    let mut x = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
    let mut s = String::with_capacity(len + 1);
    s.push('1');
    for _ in 1..len {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        s.push(if x >> 62 & 1 == 0 { '0' } else { '1' });
    }
    s
}

// ---------------------------------------------------------------------------
// Table rendering
// ---------------------------------------------------------------------------

/// Renders rows as a fixed-width table with a header.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let line = |out: &mut String, cells: &[String]| {
        for (i, c) in cells.iter().enumerate() {
            out.push_str(&format!("{:>w$}  ", c, w = widths[i]));
        }
        out.push('\n');
    };
    line(
        &mut out,
        &headers.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
    );
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
    out.push('\n');
    for row in rows {
        line(&mut out, row);
    }
    out
}

// ---------------------------------------------------------------------------
// JSON table dumps (the perf trajectory)
// ---------------------------------------------------------------------------

/// Writes `BENCH_<name>.json` when `FNC2_BENCH_JSON` is set (to a
/// directory, or to `1` for the current directory), so table runs start
/// accumulating a machine-readable perf trajectory.
///
/// The document is `{"table": name, "headers": [...], "rows": [[...]]}`.
/// Returns the path written, or `None` when the env var is unset.
pub fn maybe_emit_json(
    name: &str,
    headers: &[&str],
    rows: &[Vec<String>],
) -> Option<std::path::PathBuf> {
    let dest = std::env::var("FNC2_BENCH_JSON").ok()?;
    let dir = if dest == "1" {
        std::path::PathBuf::from(".")
    } else {
        std::path::PathBuf::from(dest)
    };
    let doc = fnc2_obs::Json::obj([
        ("table", fnc2_obs::Json::str(name)),
        (
            "headers",
            fnc2_obs::Json::Arr(headers.iter().map(|h| fnc2_obs::Json::str(*h)).collect()),
        ),
        (
            "rows",
            fnc2_obs::Json::Arr(
                rows.iter()
                    .map(|row| {
                        fnc2_obs::Json::Arr(
                            row.iter().map(|c| fnc2_obs::Json::str(c.clone())).collect(),
                        )
                    })
                    .collect(),
            ),
        ),
    ]);
    let path = dir.join(format!("BENCH_{name}.json"));
    match std::fs::write(&path, format!("{doc}\n")) {
        Ok(()) => Some(path),
        Err(e) => {
            eprintln!("warning: could not write {}: {e}", path.display());
            None
        }
    }
}

// ---------------------------------------------------------------------------
// Timing harness (replaces the external bench framework; offline builds)
// ---------------------------------------------------------------------------

/// A minimal measurement harness for the `benches/` targets
/// (`harness = false`): fixed warmup, fixed sample count, median-of-samples
/// reporting. Dependency-free by construction — the workspace builds
/// offline.
pub mod harness {
    use std::hint::black_box;
    use std::time::Instant;

    /// One benchmark's result.
    #[derive(Clone, Debug)]
    pub struct Measurement {
        /// Group/name label, e.g. `"evaluator/binary-1024/generated"`.
        pub name: String,
        /// Median nanoseconds per iteration.
        pub median_ns: f64,
        /// Minimum nanoseconds per iteration.
        pub min_ns: f64,
        /// Number of timed samples.
        pub samples: usize,
    }

    impl Measurement {
        /// `"name  median  (min)"` with µs/ms scaling.
        pub fn render(&self) -> String {
            format!(
                "{:<48} {:>12} (min {})",
                self.name,
                fmt_ns(self.median_ns),
                fmt_ns(self.min_ns)
            )
        }
    }

    fn fmt_ns(ns: f64) -> String {
        if ns >= 1e9 {
            format!("{:.3} s", ns / 1e9)
        } else if ns >= 1e6 {
            format!("{:.3} ms", ns / 1e6)
        } else if ns >= 1e3 {
            format!("{:.3} µs", ns / 1e3)
        } else {
            format!("{ns:.0} ns")
        }
    }

    /// Runs `f` for `warmup` untimed and `samples` timed iterations and
    /// prints the median. The closure's result is passed through
    /// [`black_box`] so the optimizer cannot delete the work.
    pub fn bench<T>(name: &str, samples: usize, mut f: impl FnMut() -> T) -> Measurement {
        let samples = samples.max(3);
        let warmup = (samples / 4).max(1);
        for _ in 0..warmup {
            black_box(f());
        }
        let mut times: Vec<f64> = Vec::with_capacity(samples);
        for _ in 0..samples {
            let t0 = Instant::now();
            black_box(f());
            times.push(t0.elapsed().as_nanos() as f64);
        }
        times.sort_by(|a, b| a.partial_cmp(b).expect("no NaN timings"));
        let m = Measurement {
            name: name.to_string(),
            median_ns: times[times.len() / 2],
            min_ns: times[0],
            samples,
        };
        println!("{}", m.render());
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handwritten_binary_matches_generated() {
        let g = fnc2_corpus::binary();
        let compiled = fnc2::Pipeline::new().compile(g).unwrap();
        for text in ["1101", "110.01", "101010101010101"] {
            let tree = fnc2_corpus::binary_tree(&compiled.grammar, text);
            let (vals, _) = compiled.evaluate(&tree, &Default::default()).unwrap();
            let number = compiled.grammar.phylum_by_name("Number").unwrap();
            let value = compiled.grammar.attr_by_name(number, "value").unwrap();
            let want = match vals.get(&compiled.grammar, tree.root(), value).unwrap() {
                Value::Real(r) => *r,
                other => panic!("unexpected {other:?}"),
            };
            assert_eq!(handwritten_binary(&compiled.grammar, &tree), want, "{text}");
        }
    }

    #[test]
    fn handwritten_desk_matches_generated() {
        let g = fnc2_corpus::desk();
        let compiled = fnc2::Pipeline::new().compile(g).unwrap();
        let tree = desk_tree(&compiled.grammar, 8);
        let (vals, _) = compiled.evaluate(&tree, &Default::default()).unwrap();
        let prog = compiled.grammar.phylum_by_name("Prog").unwrap();
        let value = compiled.grammar.attr_by_name(prog, "value").unwrap();
        assert_eq!(
            vals.get(&compiled.grammar, tree.root(), value),
            Some(&Value::Int(handwritten_desk(&compiled.grammar, &tree)))
        );
    }

    #[test]
    fn handwritten_minipascal_matches_generated_on_undeclared_names() {
        // An assignment to an undeclared name is reported once, as
        // "undeclared", not again as a type mismatch against `?`.
        let compiled = fnc2::Pipeline::new()
            .compile_olga(fnc2_corpus::MINIPASCAL_OLGA)
            .unwrap();
        let g = &compiled.grammar;
        let prog = g.phylum_by_name("Prog").unwrap();
        for body in ["b := 1", "b := a + 1; a := b", "b := c"] {
            let src = format!("program p;\nvar a : integer;\nbegin\n  {body}\nend.\n");
            let tree = fnc2_corpus::parse_minipascal(g, &src).unwrap();
            let (vals, _) = compiled.evaluate(&tree, &Default::default()).unwrap();
            let strings = |name: &str| -> Vec<String> {
                let attr = g.attr_by_name(prog, name).unwrap();
                let list = vals.get(g, tree.root(), attr).unwrap().as_list();
                list.iter().map(|v| v.as_str().to_string()).collect()
            };
            let (code, errs) = handwritten_minipascal(g, &tree);
            assert_eq!(strings("code"), code, "{body}");
            assert_eq!(strings("errs"), errs, "{body}");
        }
    }

    #[test]
    fn table_renders() {
        let t = render_table(
            &["a", "bb"],
            &[vec!["1".into(), "2".into()], vec!["33".into(), "4".into()]],
        );
        assert!(t.contains("a"));
        assert!(t.lines().count() == 4);
    }

    #[test]
    fn bit_strings_are_deterministic() {
        assert_eq!(bit_string(32, 7), bit_string(32, 7));
        assert_ne!(bit_string(32, 7), bit_string(32, 8));
        assert_eq!(bit_string(32, 7).len(), 32);
    }
}
