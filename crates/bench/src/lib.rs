//! # fnc2-bench — the reproduction's measurement harness
//!
//! Shared machinery for the table binaries (`table1` … `table4`,
//! `table_partitions`, `table_space`, `table_evaluator`,
//! `table_incremental`, `table_throughput`) and `bench_compare`:
//! hand-written reference evaluators (the §4.2 comparison point), a
//! byte-counting global-allocator hook (the Table 2/3 "memory" column), the
//! paired-rounds timing harness every ratio cell comes from ([`harness`]),
//! table rendering, and the JSON table dumps ([`maybe_emit_json`],
//! [`BenchTable`]).

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
// Figure 1: partition counts of the two transformations
// ---------------------------------------------------------------------------

/// Figure 1's grammars: three corpus AGs, the SNC-only AG5 shape, and the
/// AG5-profile synthetic grammar.
pub fn figure1_grammars() -> Vec<(&'static str, Grammar)> {
    use fnc2_corpus as corpus;
    vec![
        ("binary", corpus::binary()),
        ("blocks", corpus::blocks()),
        ("minipascal", corpus::minipascal().0),
        ("snc_only(AG5)", corpus::snc_only()),
        ("synthAG5", corpus::synthetic(&corpus::TABLE1_PROFILES[4])),
    ]
}

/// The headers of [`figure1_rows`].
pub const FIGURE1_HEADERS: [&str; 6] = [
    "AG",
    "strategy",
    "part/NT avg",
    "part/NT max",
    "visit-seqs",
    "dyn. visits",
];

/// Figure 1's count columns, one row per grammar of [`figure1_grammars`]
/// and strategy (long inclusion, then equality): partitions per
/// non-terminal (average and maximum), visit-sequences, and the visits
/// that evaluate a representative tree ("-" for grammars without one).
/// Every cell repeats exactly from run to run.
pub fn figure1_rows() -> Vec<Vec<String>> {
    use fnc2::analysis::{snc_test, snc_to_l_ordered, Inclusion};
    use fnc2::visit::{build_visit_seqs, Evaluator, RootInputs};
    use fnc2_corpus as corpus;
    let mut rows = Vec::new();
    for (name, g) in figure1_grammars() {
        let tree = match name {
            "binary" => Some(corpus::binary_tree(&g, &bit_string(64, 3))),
            "blocks" => Some(corpus::blocks_tree(
                &g,
                "d:a u:a [ d:b u:b u:a [ u:b d:c u:c ] ] u:a",
            )),
            "minipascal" => {
                Some(corpus::parse_minipascal(&g, &corpus::sample_program(6)).expect("parses"))
            }
            _ => None,
        };
        let snc = snc_test(&g);
        assert!(snc.is_snc(), "{name}");
        for (label, inc) in [("long", Inclusion::Long), ("equality", Inclusion::Equality)] {
            let lo = snc_to_l_ordered(&g, &snc, inc).expect("SNC grammars transform");
            let visits = tree.as_ref().map_or("-".to_string(), |tree| {
                let seqs = build_visit_seqs(&g, &lo);
                let (_, stats) = Evaluator::new(&g, &seqs)
                    .evaluate(tree, &RootInputs::new())
                    .expect("evaluates");
                stats.visits.to_string()
            });
            rows.push(vec![
                name.to_string(),
                label.to_string(),
                format!("{:.2}", lo.stats.avg_partitions()),
                lo.stats.max_partitions().to_string(),
                lo.stats.plans.to_string(),
                visits,
            ]);
        }
    }
    rows
}

// ---------------------------------------------------------------------------
// §2.1.2: incremental reevaluation counts
// ---------------------------------------------------------------------------

/// The sum grammar of `table_incremental`: `S.total` sums the leaves of an
/// `E` tree, and every `E` also gets its `depth` from above.
pub fn sum_grammar() -> Grammar {
    use fnc2::ag::{Arg, GrammarBuilder, Occ};
    let mut g = GrammarBuilder::new("sum");
    let s = g.phylum("S");
    let e = g.phylum("E");
    let total = g.syn(s, "total");
    let depth = g.inh(e, "depth");
    let sum = g.syn(e, "sum");
    g.func("succ", 1, |v| Value::Int(v[0].as_int() + 1));
    g.func("add", 2, |v| Value::Int(v[0].as_int() + v[1].as_int()));
    let root = g.production("root", s, &[e]);
    g.copy(root, Occ::lhs(total), Occ::new(1, sum));
    g.constant(root, Occ::new(1, depth), Value::Int(0));
    let fork = g.production("fork", e, &[e, e]);
    g.call(fork, Occ::new(1, depth), "succ", [Occ::lhs(depth).into()]);
    g.call(fork, Occ::new(2, depth), "succ", [Occ::lhs(depth).into()]);
    g.call(
        fork,
        Occ::lhs(sum),
        "add",
        [Occ::new(1, sum).into(), Occ::new(2, sum).into()],
    );
    let leaf = g.production("leafe", e, &[]);
    g.copy(leaf, Occ::lhs(sum), Arg::Token);
    g.finish().expect("well-defined")
}

/// A balanced [`sum_grammar`] tree with `2^depth` leaves holding
/// `1, 2, …` modulo 23.
pub fn balanced_sum_tree(g: &Grammar, depth: usize) -> Tree {
    use fnc2::ag::TreeBuilder;
    fn balanced(g: &Grammar, tb: &mut TreeBuilder, depth: usize, next: &mut i64) -> NodeId {
        if depth == 0 {
            *next += 1;
            let leafe = g.production_by_name("leafe").unwrap();
            tb.node_with_token(leafe, &[], Some(Value::Int(*next % 23)))
                .unwrap()
        } else {
            let a = balanced(g, tb, depth - 1, next);
            let b = balanced(g, tb, depth - 1, next);
            tb.op("fork", &[a, b]).unwrap()
        }
    }
    let mut tb = TreeBuilder::new(g);
    let body = balanced(g, &mut tb, depth, &mut 0);
    let root = tb.op("root", &[body]).unwrap();
    tb.finish_root(root).unwrap()
}

/// A one-leaf [`sum_grammar`] subtree holding `v`.
pub fn sum_leaf(g: &Grammar, v: i64) -> Tree {
    let mut tb = fnc2::ag::TreeBuilder::new(g);
    let leafe = g.production_by_name("leafe").unwrap();
    let n = tb.node_with_token(leafe, &[], Some(Value::Int(v))).unwrap();
    tb.finish(n)
}

/// The first leaf of `tree` in preorder: the victim of every single-leaf
/// edit.
pub fn first_leaf(tree: &Tree) -> NodeId {
    tree.preorder()
        .find(|&(n, _)| tree.node(n).children().is_empty())
        .map(|(n, _)| n)
        .expect("a balanced tree has leaves")
}

/// The headers of [`incremental_rows`].
pub const INCREMENTAL_HEADERS: [&str; 7] = [
    "tree depth",
    "instances",
    "edit",
    "reevaluated",
    "changed",
    "cut",
    "fraction",
];

/// §2.1.2's count table: on balanced [`sum_grammar`] trees of depth 8, 11
/// and 14, in turn, the first leaf gets a new value, then the same value
/// again, then the first four leaves get new values in one wave. Each row
/// is one wave's counts and the share of the tree's instances it
/// reevaluated. Every cell repeats exactly from run to run.
pub fn incremental_rows() -> Vec<Vec<String>> {
    use fnc2::incremental::{Equality, IncrementalEvaluator, IncrementalStats};
    let g = sum_grammar();
    let mut rows = Vec::new();
    for depth in [8usize, 11, 14] {
        let tree = balanced_sum_tree(&g, depth);
        let mut inc = IncrementalEvaluator::new(&g, tree, Equality::default()).expect("evaluates");
        let instances = inc.instance_count();
        let mut row = |edit: &str, stats: IncrementalStats| {
            rows.push(vec![
                depth.to_string(),
                instances.to_string(),
                edit.to_string(),
                stats.reevaluated.to_string(),
                stats.changed.to_string(),
                stats.cut.to_string(),
                format!(
                    "{:.3}%",
                    100.0 * stats.reevaluated as f64 / instances as f64
                ),
            ]);
        };
        let stats = inc
            .replace_subtree(first_leaf(inc.tree()), &sum_leaf(&g, 999))
            .expect("edits");
        row("1 leaf, changed", stats);
        let victim = first_leaf(inc.tree());
        let old = inc
            .tree()
            .node(victim)
            .token()
            .expect("leaf token")
            .as_int();
        let stats = inc
            .replace_subtree(victim, &sum_leaf(&g, old))
            .expect("edits");
        row("1 leaf, same value", stats);
        let edits = inc
            .tree()
            .preorder()
            .filter(|&(n, _)| inc.tree().node(n).children().is_empty())
            .take(4)
            .enumerate()
            .map(|(i, (n, _))| (n, sum_leaf(&g, 500 + i as i64)))
            .collect();
        let stats = inc.replace_subtrees(edits).expect("edits");
        row("4 leaves, one wave", stats);
    }
    rows
}

// ---------------------------------------------------------------------------
// Table rendering
// ---------------------------------------------------------------------------

/// Renders rows as a fixed-width table with a header. Lines carry no
/// trailing blanks, so the text can be quoted verbatim in the docs.
pub fn render_table<H: AsRef<str>>(headers: &[H], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.as_ref().len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let line = |out: &mut String, cells: &[String]| {
        let mut text = String::new();
        for (i, c) in cells.iter().enumerate() {
            text.push_str(&format!("{:>w$}  ", c, w = widths[i]));
        }
        out.push_str(text.trim_end());
        out.push('\n');
    };
    line(
        &mut out,
        &headers
            .iter()
            .map(|s| s.as_ref().to_string())
            .collect::<Vec<_>>(),
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
/// The document is `{"table": name, "headers": [...], "rows": [[...]],
/// "spread": {column: [...]}}`: for each timed ratio column, the
/// [`harness::Leg::spread`] behind each row's cell. Returns the path
/// written, or `None` when the env var is unset.
pub fn maybe_emit_json(
    name: &str,
    headers: &[&str],
    rows: &[Vec<String>],
    spread: &[(&str, &[f64])],
) -> Option<std::path::PathBuf> {
    use fnc2_obs::Json;
    let dest = std::env::var("FNC2_BENCH_JSON").ok()?;
    let dir = if dest == "1" {
        std::path::PathBuf::from(".")
    } else {
        std::path::PathBuf::from(dest)
    };
    let strings =
        |cells: &[String]| Json::Arr(cells.iter().map(|c| Json::str(c.clone())).collect());
    // Four decimals: the spread is for people to read, never gated.
    let floats = |xs: &[f64]| {
        Json::Arr(
            xs.iter()
                .map(|x| Json::Float((x * 1e4).round() / 1e4))
                .collect(),
        )
    };
    let doc = Json::obj([
        ("table", Json::str(name)),
        (
            "headers",
            Json::Arr(headers.iter().map(|h| Json::str(*h)).collect()),
        ),
        ("rows", Json::Arr(rows.iter().map(|r| strings(r)).collect())),
        (
            "spread",
            Json::obj(spread.iter().map(|(col, xs)| (*col, floats(xs)))),
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

/// A `BENCH_<table>.json` document read back: what [`maybe_emit_json`]
/// wrote.
#[derive(Debug)]
pub struct BenchTable {
    /// The table name, as in `BENCH_<name>.json`.
    pub name: String,
    /// The column headers.
    pub headers: Vec<String>,
    /// The rendered cells, row by row.
    pub rows: Vec<Vec<String>>,
    /// For each timed ratio column, the spread behind each row's cell.
    pub spread: std::collections::BTreeMap<String, Vec<f64>>,
}

impl BenchTable {
    /// Reads one dump.
    ///
    /// # Errors
    ///
    /// An unreadable file, malformed JSON, or a missing or mistyped field,
    /// as a message naming the file.
    pub fn load(path: &std::path::Path) -> Result<BenchTable, String> {
        use fnc2_obs::Json;
        fn list<T>(v: &Json, item: impl Fn(&Json) -> Option<T>) -> Option<Vec<T>> {
            v.as_arr()?.iter().map(item).collect()
        }
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let doc = Json::parse(&text).map_err(|e| format!("{}: bad JSON: {e}", path.display()))?;
        let mistyped = |key: &str| format!("{}: missing or mistyped \"{key}\"", path.display());
        let field = |key: &str| doc.get(key).ok_or_else(|| mistyped(key));
        let strings = |v: &Json| list(v, |c| c.as_str().map(str::to_string));
        let floats = |v: &Json| {
            list(v, |c| {
                if let Json::Float(x) = c {
                    Some(*x)
                } else {
                    None
                }
            })
        };
        let spread = match field("spread")? {
            Json::Obj(cols) => cols
                .iter()
                .map(|(c, xs)| Some((c.clone(), floats(xs)?)))
                .collect(),
            _ => None,
        };
        Ok(BenchTable {
            name: field("table")?
                .as_str()
                .ok_or_else(|| mistyped("table"))?
                .into(),
            headers: strings(field("headers")?).ok_or_else(|| mistyped("headers"))?,
            rows: list(field("rows")?, strings).ok_or_else(|| mistyped("rows"))?,
            spread: spread.ok_or_else(|| mistyped("spread"))?,
        })
    }

    /// The table as [`render_table`] prints it.
    pub fn render(&self) -> String {
        render_table(&self.headers, &self.rows)
    }
}

// ---------------------------------------------------------------------------
// Timing harness: paired, rotating rounds
// ---------------------------------------------------------------------------

/// The one way a ratio cell is timed. Every leg runs once per round, and
/// each leg's ratio is the median of its per-round ratios to leg 0. Pairing
/// cancels drift slower than a round (another tenant, frequency scaling)
/// inside each ratio. Rotating which leg goes first keeps any one leg from
/// always inheriting the cache and scheduler state of the same
/// predecessor. The median keeps one preempted round from moving a cell.
pub mod harness {
    use std::time::{Duration, Instant};

    /// Untimed rounds before the timed ones, so caches, lazy allocations
    /// and the allocator's free lists are warm.
    pub const WARMUP_ROUNDS: usize = 2;

    /// One leg's result from [`paired`].
    #[derive(Clone, Copy, Debug)]
    pub struct Leg {
        /// Median time of one run of the leg.
        pub median: Duration,
        /// Median over the timed rounds of this leg's time over leg 0's
        /// time in the same round (1 for leg 0).
        pub ratio: f64,
        /// The interquartile range of those per-round ratios over their
        /// median (0 for leg 0).
        pub spread: f64,
    }

    /// Runs [`WARMUP_ROUNDS`] untimed rounds, then `rounds` timed ones.
    /// Every round runs each leg once: round `r` starts with leg
    /// `r mod legs.len()` and continues in index order, wrapping around, so
    /// over the timed rounds each leg goes first equally often, give or
    /// take one. Returns one [`Leg`] per leg, in input order. Legs pass
    /// their results through [`std::hint::black_box`] themselves.
    ///
    /// # Panics
    ///
    /// Panics if `rounds` is zero or `legs` is empty.
    pub fn paired(rounds: usize, legs: &mut [&mut dyn FnMut()]) -> Vec<Leg> {
        let n = legs.len();
        assert!(rounds > 0 && n > 0, "paired needs a round and a leg");
        let mut times = vec![Vec::with_capacity(WARMUP_ROUNDS + rounds); n];
        for round in 0..WARMUP_ROUNDS + rounds {
            for k in 0..n {
                let leg = (round + k) % n;
                let t0 = Instant::now();
                legs[leg]();
                times[leg].push(t0.elapsed());
            }
        }
        for leg in &mut times {
            leg.drain(..WARMUP_ROUNDS);
        }
        summarize(&times)
    }

    /// Per-leg medians, median ratios to leg 0 and their spreads, from
    /// `times[leg][round]`.
    fn summarize(times: &[Vec<Duration>]) -> Vec<Leg> {
        times
            .iter()
            .map(|leg| {
                let mut sorted = leg.clone();
                sorted.sort_unstable();
                let m = sorted.len();
                let mut ratios: Vec<f64> = leg
                    .iter()
                    .zip(&times[0])
                    .map(|(t, t0)| t.as_secs_f64() / t0.as_secs_f64())
                    .collect();
                let (q1, ratio, q3) = quartiles(&mut ratios);
                Leg {
                    median: (sorted[(m - 1) / 2] + sorted[m / 2]) / 2,
                    ratio,
                    spread: (q3 - q1) / ratio,
                }
            })
            .collect()
    }

    /// First quartile, median and third quartile, interpolating linearly
    /// between order statistics.
    fn quartiles(xs: &mut [f64]) -> (f64, f64, f64) {
        xs.sort_by(f64::total_cmp);
        let at = |p: f64| {
            let pos = p * (xs.len() - 1) as f64;
            let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
            xs[lo] + (xs[hi] - xs[lo]) * (pos - lo as f64)
        };
        (at(0.25), at(0.5), at(0.75))
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use std::cell::RefCell;

        #[test]
        fn every_round_runs_each_leg_once_rotating_the_first() {
            for (n, rounds) in [(3usize, 7usize), (2, 5), (4, 4), (1, 3)] {
                let log = RefCell::new(Vec::new());
                let mut l0 = || log.borrow_mut().push(0);
                let mut l1 = || log.borrow_mut().push(1);
                let mut l2 = || log.borrow_mut().push(2);
                let mut l3 = || log.borrow_mut().push(3);
                let mut legs: [&mut dyn FnMut(); 4] = [&mut l0, &mut l1, &mut l2, &mut l3];
                assert_eq!(paired(rounds, &mut legs[..n]).len(), n);
                let log = log.borrow().clone();
                assert_eq!(log.len(), (WARMUP_ROUNDS + rounds) * n);
                let timed: Vec<&[usize]> = log.chunks(n).skip(WARMUP_ROUNDS).collect();
                for round in &timed {
                    let mut seen = round.to_vec();
                    seen.sort_unstable();
                    assert_eq!(seen, (0..n).collect::<Vec<_>>(), "each leg once per round");
                }
                for leg in 0..n {
                    let first = timed.iter().filter(|r| r[0] == leg).count();
                    assert!(
                        (rounds / n..=rounds.div_ceil(n)).contains(&first),
                        "{n} legs, {rounds} rounds: leg {leg} first in {first}"
                    );
                }
            }
        }

        #[test]
        fn warmup_rounds_are_not_timed() {
            // Leg 1 is slow only while warming up; were those rounds
            // counted, its median ratio over one timed round would be ~5.
            let mut calls = 0;
            let legs = paired(
                1,
                &mut [
                    &mut || std::thread::sleep(Duration::from_millis(1)),
                    &mut || {
                        calls += 1;
                        if calls <= WARMUP_ROUNDS {
                            std::thread::sleep(Duration::from_millis(5));
                        }
                    },
                ],
            );
            assert!(legs[1].ratio < 1.0, "{:?}", legs[1]);
            assert_eq!((legs[0].ratio, legs[0].spread), (1.0, 0.0));
        }

        #[test]
        fn median_and_spread_of_fixed_per_round_ratios() {
            let ms = |v: &[u64]| {
                v.iter()
                    .map(|&m| Duration::from_millis(m))
                    .collect::<Vec<_>>()
            };
            // Leg 1 over leg 0, round by round: 1.1, 1.4, 1.2, 3.0, 1.3.
            let legs = summarize(&[ms(&[10, 10, 20, 10, 10]), ms(&[11, 14, 24, 30, 13])]);
            assert_eq!(legs[0].median, Duration::from_millis(10));
            assert_eq!((legs[0].ratio, legs[0].spread), (1.0, 0.0));
            assert_eq!(legs[1].median, Duration::from_millis(14));
            assert!((legs[1].ratio - 1.3).abs() < 1e-12, "{:?}", legs[1]);
            // Quartiles 1.2 and 1.4: IQR 0.2 over the median 1.3.
            assert!((legs[1].spread - 0.2 / 1.3).abs() < 1e-12, "{:?}", legs[1]);
            // Even counts interpolate: ratios 1, 2, 3, 4 give median 2.5
            // and quartiles 1.75 and 3.25.
            let legs = summarize(&[ms(&[10, 10, 10, 10]), ms(&[10, 20, 30, 40])]);
            assert!((legs[1].ratio - 2.5).abs() < 1e-12);
            assert!((legs[1].spread - 1.5 / 2.5).abs() < 1e-12);
        }
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
