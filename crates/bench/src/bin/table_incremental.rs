//! §2.1.2 — incremental vs. exhaustive reevaluation.
//!
//! The DNC-based incremental evaluator limits reevaluation to affected
//! instances. This harness applies single-leaf edits, same-value edits and
//! multi-subtree replacements to growing trees, comparing instances
//! reevaluated against the exhaustive instance count. A second table times
//! a one-leaf edit against reevaluating the whole tree from scratch with
//! the demand-driven evaluator. A third does both on mini-Pascal: literal,
//! statement and declaration edits in `sample_program` at three sizes,
//! each wave timed against `Compiled::evaluate` on the same tree.
//!
//! Run with `cargo run --release --bin table_incremental -p fnc2-bench`.

use std::hint::black_box;

use fnc2::ag::{Grammar, GrammarBuilder, NodeId, Occ, ProductionId, TreeBuilder, Value};
use fnc2::incremental::{Equality, IncrementalEvaluator};
use fnc2::visit::{DynamicEvaluator, RootInputs};
use fnc2::Pipeline;
use fnc2_bench::harness::paired;
use fnc2_bench::render_table;

/// Timed rounds of the edit-vs-from-scratch table (`harness::paired`).
const ROUNDS: usize = 31;

fn sum_grammar() -> Grammar {
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
    g.copy(leaf, Occ::lhs(sum), fnc2::ag::Arg::Token);
    g.finish().expect("well-defined")
}

fn balanced_tree(g: &Grammar, depth: usize) -> fnc2::ag::Tree {
    let mut tb = TreeBuilder::new(g);
    let body = balanced(g, &mut tb, depth, &mut 0);
    let root = tb.op("root", &[body]).unwrap();
    tb.finish_root(root).unwrap()
}

fn balanced(g: &Grammar, tb: &mut TreeBuilder, depth: usize, next: &mut i64) -> NodeId {
    if depth == 0 {
        *next += 1;
        tb.node_with_token(
            g.production_by_name("leafe").unwrap(),
            &[],
            Some(Value::Int(*next % 23)),
        )
        .unwrap()
    } else {
        let a = balanced(g, tb, depth - 1, next);
        let b = balanced(g, tb, depth - 1, next);
        tb.op("fork", &[a, b]).unwrap()
    }
}

fn leaf_sub(g: &Grammar, v: i64) -> fnc2::ag::Tree {
    let mut tb = TreeBuilder::new(g);
    let n = tb
        .node_with_token(
            g.production_by_name("leafe").unwrap(),
            &[],
            Some(Value::Int(v)),
        )
        .unwrap();
    tb.finish(n)
}

fn main() {
    println!("Section 2.1.2: incremental vs. exhaustive reevaluation\n");
    let headers = [
        "tree depth",
        "instances",
        "edit",
        "reevaluated",
        "changed",
        "cut",
        "fraction",
    ];
    let mut rows = Vec::new();
    let g = sum_grammar();

    for depth in [8usize, 11, 14] {
        let tree = balanced_tree(&g, depth);
        let mut inc = IncrementalEvaluator::new(&g, tree, Equality::default()).expect("evaluates");
        let instances = inc.instance_count();

        // One leaf, new value.
        let stats = inc
            .replace_subtree(first_leaf(&inc), &leaf_sub(&g, 999))
            .unwrap();
        rows.push(vec![
            depth.to_string(),
            instances.to_string(),
            "1 leaf, changed".into(),
            stats.reevaluated.to_string(),
            stats.changed.to_string(),
            stats.cut.to_string(),
            format!(
                "{:.3}%",
                100.0 * stats.reevaluated as f64 / instances as f64
            ),
        ]);

        // Same-value edit: propagation cut immediately.
        let victim = first_leaf(&inc);
        let old = inc
            .tree()
            .node(victim)
            .token()
            .expect("leaf token")
            .as_int();
        let stats = inc.replace_subtree(victim, &leaf_sub(&g, old)).unwrap();
        rows.push(vec![
            depth.to_string(),
            instances.to_string(),
            "1 leaf, same value".into(),
            stats.reevaluated.to_string(),
            stats.changed.to_string(),
            stats.cut.to_string(),
            format!(
                "{:.3}%",
                100.0 * stats.reevaluated as f64 / instances as f64
            ),
        ]);

        // Multiple subtree replacements in one wave.
        let leaves: Vec<NodeId> = inc
            .tree()
            .preorder()
            .filter(|&(n, _)| inc.tree().node(n).children().is_empty())
            .map(|(n, _)| n)
            .take(4)
            .collect();
        let edits: Vec<(NodeId, fnc2::ag::Tree)> = leaves
            .into_iter()
            .enumerate()
            .map(|(i, n)| (n, leaf_sub(&g, 500 + i as i64)))
            .collect();
        let stats = inc.replace_subtrees(edits).unwrap();
        rows.push(vec![
            depth.to_string(),
            instances.to_string(),
            "4 leaves, one wave".into(),
            stats.reevaluated.to_string(),
            stats.changed.to_string(),
            stats.cut.to_string(),
            format!(
                "{:.3}%",
                100.0 * stats.reevaluated as f64 / instances as f64
            ),
        ]);
    }
    println!("{}", render_table(&headers, &rows));
    fnc2_bench::maybe_emit_json("table_incremental", &headers, &rows, &[]);
    println!("Expected shape: reevaluation touches O(depth) instances per edit (the spine");
    println!("to the root), a vanishing fraction as the tree grows; equal-value edits cut");
    println!("immediately; multiple replacements share one propagation wave.");

    println!("\nOne-leaf edit vs. from-scratch reevaluation (per-run times)\n");
    let headers = [
        "tree depth",
        "instances",
        "one-leaf edit",
        "from scratch",
        "speedup",
    ];
    let depth = 12;
    let tree = balanced_tree(&g, depth);
    let mut inc =
        IncrementalEvaluator::new(&g, tree.clone(), Equality::default()).expect("evaluates");
    let demand = DynamicEvaluator::new(&g);
    // Leaves hold values below 23, so every edit changes a value and
    // propagates.
    let mut value = 23;
    let legs = paired(
        ROUNDS,
        &mut [
            &mut || {
                value += 1;
                let edit = leaf_sub(&g, value);
                black_box(inc.replace_subtree(first_leaf(&inc), &edit).expect("edits"));
            },
            &mut || _ = black_box(demand.evaluate(&tree, &RootInputs::new()).expect("runs")),
        ],
    );
    let rows = [vec![
        depth.to_string(),
        inc.instance_count().to_string(),
        format!("{:.2?}", legs[0].median),
        format!("{:.2?}", legs[1].median),
        format!("{:.0}x", legs[1].ratio),
    ]];
    println!("{}", render_table(&headers, &rows));
    let spread = [("speedup", &[legs[1].spread][..])];
    fnc2_bench::maybe_emit_json("table_incremental_edit", &headers, &rows, &spread);

    minipascal_edits();
}

/// Mini-Pascal rows: `sample_program` at 8, 32 and 128 blocks, with five
/// edit sites. The first, middle and last integer literal of the program
/// (source order) get a new value; the first sits in the first statement,
/// the last in the last block's `while` loop. The first statement,
/// `n := 100`, becomes `while true do end` and back, which shifts the
/// labels of every later `if` and `while` by two. The first declaration,
/// `n : integer`, flips to `boolean` and back, which changes `env`
/// everywhere and the type errors of every use of `n`. The counts are the
/// first wave's; the times are medians of paired rounds, each wave against
/// one `Compiled::evaluate` of the unedited tree.
fn minipascal_edits() {
    println!("\nMini-Pascal: one edit vs. from-scratch evaluation\n");
    let headers = [
        "blocks",
        "nodes",
        "edit",
        "reevaluated",
        "changed",
        "cut",
        "wave",
        "from scratch",
        "µs/node",
        "wave/scratch",
    ];
    let compiled = Pipeline::new()
        .compile_olga(fnc2_corpus::MINIPASCAL_OLGA)
        .expect("mini-Pascal compiles");
    let g = &compiled.grammar;
    let op = |name: &str| g.production_by_name(name).expect("mini-Pascal production");
    let (elit, assign, tint) = (op("elit"), op("assign"), op("tint"));
    let sizes = [8, 32, 128];
    let trees: Vec<fnc2::ag::Tree> = sizes
        .iter()
        .map(|&b| {
            fnc2_corpus::parse_minipascal(g, &fnc2_corpus::sample_program(b)).expect("parses")
        })
        .collect();
    // The replacement for the `i`-th edit of a site (from 0).
    let new_literal = |i: usize| literal(g, elit, 1000 + i as i64);
    let new_statement = |i: usize| {
        let mut tb = TreeBuilder::new(g);
        let s = if i.is_multiple_of(2) {
            let cond = tb.op("etrue", &[]).expect("builds");
            let body = tb.op("stmts_nil", &[]).expect("builds");
            tb.op("swhile", &[cond, body]).expect("builds")
        } else {
            let e = tb
                .node_with_token(elit, &[], Some(Value::Int(100)))
                .expect("builds");
            tb.node_with_token(assign, &[e], Some(Value::str("n")))
                .expect("builds")
        };
        tb.finish(s)
    };
    let new_type = |i: usize| {
        let mut tb = TreeBuilder::new(g);
        let t = tb
            .op(if i.is_multiple_of(2) { "tbool" } else { "tint" }, &[])
            .expect("builds");
        tb.finish(t)
    };
    let (mut rows, mut spread) = (Vec::new(), Vec::new());
    for (&blocks, tree) in sizes.iter().zip(&trees) {
        let of = |p: ProductionId| -> Vec<NodeId> {
            tree.preorder()
                .map(|(n, _)| n)
                .filter(|&n| tree.node(n).production() == p)
                .collect()
        };
        let lits = of(elit);
        let sites: [(&str, NodeId, Replacement); 5] = [
            ("first literal", lits[0], &new_literal),
            ("middle literal", lits[lits.len() / 2], &new_literal),
            ("last literal", lits[lits.len() - 1], &new_literal),
            ("statement", of(assign)[0], &new_statement),
            ("declaration", of(tint)[0], &new_type),
        ];
        for (name, site, make) in sites {
            let mut inc =
                IncrementalEvaluator::new(g, tree.clone(), Equality::default()).expect("evaluates");
            // An edit replaces the site's node, so it is found again
            // through its parent, which keeps its identity.
            let parent = tree.node(site).parent().expect("a site has a parent");
            let pos = tree.child_index(site).expect("a site is a child");
            let mut i = 0;
            let mut edit = |inc: &mut IncrementalEvaluator| {
                let at = inc.tree().node(parent).children()[pos - 1];
                i += 1;
                inc.replace_subtree(at, &make(i - 1)).expect("edits")
            };
            let stats = edit(&mut inc);
            let legs = paired(
                ROUNDS,
                &mut [
                    &mut || {
                        _ = black_box(compiled.evaluate(tree, &RootInputs::new()).expect("runs"))
                    },
                    &mut || _ = black_box(edit(&mut inc)),
                ],
            );
            let per_node = legs[0].median.as_secs_f64() * 1e6 / tree.size() as f64;
            rows.push(vec![
                blocks.to_string(),
                tree.size().to_string(),
                name.into(),
                stats.reevaluated.to_string(),
                stats.changed.to_string(),
                stats.cut.to_string(),
                format!("{:.2?}", legs[1].median),
                format!("{:.2?}", legs[0].median),
                format!("{per_node:.2}"),
                format!("{:.3}", legs[1].ratio),
            ]);
            spread.push(legs[1].spread);
        }
    }
    println!("{}", render_table(&headers, &rows));
    let spread = [("wave/scratch", &spread[..])];
    fnc2_bench::maybe_emit_json("table_incremental_minipascal", &headers, &rows, &spread);

    // Per-node cost across sizes, free of the host's drift between rows:
    // the three from-scratch evaluations share each round.
    println!("\nMini-Pascal: from-scratch time per node across sizes\n");
    let headers = [
        "blocks",
        "nodes",
        "from scratch",
        "µs/node",
        "per node ÷ 8 blocks",
    ];
    let mut legs: Vec<Box<dyn FnMut() + '_>> = trees
        .iter()
        .map(|t| {
            Box::new(|| _ = black_box(compiled.evaluate(t, &RootInputs::new()).expect("runs")))
                as Box<dyn FnMut()>
        })
        .collect();
    let mut legs: Vec<&mut dyn FnMut()> = legs.iter_mut().map(|l| &mut **l as _).collect();
    let timed = paired(ROUNDS, &mut legs);
    let rows: Vec<Vec<String>> = sizes
        .iter()
        .zip(&trees)
        .zip(&timed)
        .map(|((blocks, tree), leg)| {
            let per_node = leg.median.as_secs_f64() * 1e6 / tree.size() as f64;
            let vs_8 = leg.ratio * trees[0].size() as f64 / tree.size() as f64;
            vec![
                blocks.to_string(),
                tree.size().to_string(),
                format!("{:.2?}", leg.median),
                format!("{per_node:.2}"),
                format!("{vs_8:.2}x"),
            ]
        })
        .collect();
    println!("{}", render_table(&headers, &rows));
}

/// The replacement for the `i`-th edit of a mini-Pascal edit site (from 0).
type Replacement<'a> = &'a dyn Fn(usize) -> fnc2::ag::Tree;

/// A one-node literal subtree holding `v`.
fn literal(g: &Grammar, elit: ProductionId, v: i64) -> fnc2::ag::Tree {
    let mut tb = TreeBuilder::new(g);
    let n = tb.node_with_token(elit, &[], Some(Value::Int(v))).unwrap();
    tb.finish(n)
}

/// The first leaf in preorder: the victim of every single-leaf edit.
fn first_leaf(inc: &IncrementalEvaluator) -> NodeId {
    inc.tree()
        .preorder()
        .find(|&(n, _)| inc.tree().node(n).children().is_empty())
        .map(|(n, _)| n)
        .expect("a balanced tree has leaves")
}
