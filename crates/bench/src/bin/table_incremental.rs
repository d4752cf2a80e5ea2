//! §2.1.2 — incremental vs. exhaustive reevaluation.
//!
//! The DNC-based incremental evaluator limits reevaluation to affected
//! instances. This harness applies single-leaf edits, same-value edits and
//! multi-subtree replacements to growing trees, comparing instances
//! reevaluated against the exhaustive instance count; its rows come from
//! [`fnc2_bench::incremental_rows`], so a test checks that the docs quote
//! them. A second table times
//! one-leaf edits against reevaluating the whole tree from scratch with
//! the demand-driven evaluator. A third does both on mini-Pascal: literal,
//! statement and declaration edits in `sample_program` at three sizes,
//! each wave timed against `Compiled::evaluate` on the same tree.
//!
//! Run with `cargo run --release --bin table_incremental -p fnc2-bench`.

use std::hint::black_box;

use fnc2::ag::{Grammar, NodeId, ProductionId, TreeBuilder, Value};
use fnc2::incremental::{Equality, IncrementalEvaluator};
use fnc2::visit::{DynamicEvaluator, RootInputs};
use fnc2::Pipeline;
use fnc2_bench::harness::paired;
use fnc2_bench::{
    balanced_sum_tree, first_leaf, incremental_rows, render_table, sum_grammar, sum_leaf,
    INCREMENTAL_HEADERS,
};

/// Timed rounds of the edit-vs-from-scratch table (`harness::paired`).
const ROUNDS: usize = 31;

/// One-leaf edits per timed round. A warm edit takes about 3 µs and a cold
/// one up to 8, so a round takes more than 1 ms: long enough that its time
/// is the edits', not the allocator and cache state that the from-scratch
/// leg left behind.
const EDITS: u32 = 512;

fn main() {
    println!("Section 2.1.2: incremental vs. exhaustive reevaluation\n");
    let (headers, rows) = (INCREMENTAL_HEADERS, incremental_rows());
    println!("{}", render_table(&headers, &rows));
    fnc2_bench::maybe_emit_json("table_incremental", &headers, &rows, &[]);
    println!("Expected shape: reevaluation touches O(depth) instances per edit (the spine");
    println!("to the root), a vanishing fraction as the tree grows; equal-value edits cut");
    println!("immediately; multiple replacements share one propagation wave.");

    println!("\nOne-leaf edit vs. from-scratch reevaluation (per-run times)\n");
    let headers = [
        "tree depth",
        "instances",
        "edits",
        "per edit",
        "from scratch",
        "speedup",
    ];
    let g = sum_grammar();
    let depth = 12;
    let tree = balanced_sum_tree(&g, depth);
    let mut inc =
        IncrementalEvaluator::new(&g, tree.clone(), Equality::default()).expect("evaluates");
    let demand = DynamicEvaluator::new(&g);
    // Leaves hold values below 23, and the first leaf toggles between 23
    // and 24, so every edit changes a value and propagates.
    let leaves = [sum_leaf(&g, 23), sum_leaf(&g, 24)];
    let mut next = 0;
    let legs = paired(
        ROUNDS,
        &mut [
            &mut || {
                for _ in 0..EDITS {
                    let at = first_leaf(inc.tree());
                    black_box(inc.replace_subtree(at, &leaves[next]).expect("edits"));
                    next = 1 - next;
                }
            },
            &mut || _ = black_box(demand.evaluate(&tree, &RootInputs::new()).expect("runs")),
        ],
    );
    let rows = [vec![
        depth.to_string(),
        inc.instance_count().to_string(),
        EDITS.to_string(),
        format!("{:.2?}", legs[0].median / EDITS),
        format!("{:.2?}", legs[1].median),
        format!("{:.0}x", legs[1].ratio * f64::from(EDITS)),
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
