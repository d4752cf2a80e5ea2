//! §2.1.2 — incremental vs. exhaustive reevaluation.
//!
//! The DNC-based incremental evaluator limits reevaluation to affected
//! instances. This harness applies single-leaf edits, same-value edits and
//! multi-subtree replacements to growing trees, comparing instances
//! reevaluated against the exhaustive instance count. A second table times
//! a one-leaf edit against reevaluating the whole tree from scratch with
//! the demand-driven evaluator.
//!
//! Run with `cargo run --release --bin table_incremental -p fnc2-bench`.

use std::hint::black_box;

use fnc2::ag::{Grammar, GrammarBuilder, NodeId, Occ, TreeBuilder, Value};
use fnc2::incremental::{Equality, IncrementalEvaluator};
use fnc2::visit::{DynamicEvaluator, RootInputs};
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
}

/// The first leaf in preorder: the victim of every single-leaf edit.
fn first_leaf(inc: &IncrementalEvaluator) -> NodeId {
    inc.tree()
        .preorder()
        .find(|&(n, _)| inc.tree().node(n).children().is_empty())
        .map(|(n, _)| n)
        .expect("a balanced tree has leaves")
}
