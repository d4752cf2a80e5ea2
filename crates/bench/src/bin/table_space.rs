//! §4.1 dynamic claims — attribute storage cells.
//!
//! "Dynamic measures show a decrease of the number of attribute storage
//! cells by a factor of 4 to 8 in the execution of AG 5 on various source
//! texts." Runs the visit-sequence interpreter with tree storage (the
//! trivial plan) and with the space plan on growing inputs and reports the
//! high-water mark of live storage cells, the reduction factor, the
//! runtime copy-elimination volume, and the time of the trivial plan over
//! the real plan's (median of 31 paired rounds; above 1 the plan is
//! faster).
//!
//! Run with `cargo run --release --bin table_space -p fnc2-bench`.

use std::hint::black_box;

use fnc2::ag::Tree;
use fnc2::space::plan_evaluator;
use fnc2::visit::{Evaluator, RootInputs};
use fnc2::{Compiled, Pipeline};
use fnc2_bench::harness::{paired, Leg};
use fnc2_bench::render_table;
use fnc2_corpus as corpus;

/// Timed rounds per row (`harness::paired`).
const ROUNDS: usize = 31;

/// The trivial plan's leg against the real plan's (leg 0). Each leg
/// evaluates the tree often enough to cover ~4k tree nodes, so that a leg
/// on the smallest trees still outlasts the clock's own noise.
fn plan_speedup(c: &Compiled, tree: &Tree) -> Leg {
    let trivial = Evaluator::new(&c.grammar, &c.seqs);
    let space = c.space.as_ref().unwrap();
    let planned = plan_evaluator(&c.grammar, &c.seqs, &space.flat, &space.plan);
    let reps = (4000 / tree.size()).max(1);
    let run = |ev: &Evaluator| {
        for _ in 0..reps {
            black_box(ev.evaluate(tree, &RootInputs::new()).expect("runs"));
        }
    };
    paired(ROUNDS, &mut [&mut || run(&planned), &mut || run(&trivial)])[1]
}

fn main() {
    println!("Section 4.1: dynamic attribute-storage cells, tree storage vs. optimized\n");
    let headers = [
        "AG",
        "input",
        "instances",
        "max live (opt)",
        "reduction",
        "copies skipped",
        "evals",
        "plan speedup",
    ];
    let mut rows = Vec::new();
    let mut spread = Vec::new();
    let mut row = |ag: &str, input: String, c: &Compiled, tree: &Tree| {
        let (plain, _) = c.evaluate(tree, &RootInputs::new()).expect("plain");
        let (_, opt) = c
            .evaluate_optimized(tree, &RootInputs::new())
            .expect("plan");
        let reduction = plain.live_count() as f64 / opt.max_live_cells.max(1) as f64;
        let speedup = plan_speedup(c, tree);
        rows.push(vec![
            ag.to_string(),
            input,
            plain.live_count().to_string(),
            opt.max_live_cells.to_string(),
            format!("{reduction:.1}x"),
            opt.copies_skipped.to_string(),
            opt.evals.to_string(),
            format!("{:.2}x", speedup.ratio),
        ]);
        spread.push(speedup.spread);
    };
    let compile = |g| Pipeline::new().compile(g).expect("compiles");

    // Binary on growing bit strings.
    let c = compile(corpus::binary());
    for len in [64usize, 256, 1024, 2048] {
        let tree = corpus::binary_tree(&c.grammar, &fnc2_bench::bit_string(len, 11));
        row("binary", format!("{len} bits"), &c, &tree);
    }

    // The desk calculator on a depth-14 expression.
    let c = compile(corpus::desk());
    let tree = fnc2_bench::desk_tree(&c.grammar, 14);
    row("desk", format!("{} nodes", tree.size()), &c, &tree);

    // Mini-Pascal on growing programs.
    let c = compile(corpus::minipascal().0);
    for blocks in [4usize, 16, 64] {
        let src = corpus::sample_program(blocks);
        let tree = corpus::parse_minipascal(&c.grammar, &src).expect("parses");
        row(
            "minipascal",
            format!("{} lines", src.lines().count()),
            &c,
            &tree,
        );
    }

    // Every Table 1 profile; the big AG 5 one, as in the paper's claim, on
    // growing trees.
    for (i, p) in corpus::TABLE1_PROFILES.iter().enumerate() {
        let c = compile(corpus::synthetic(p));
        let targets: &[usize] = if i == 4 { &[300, 1200, 4000] } else { &[600] };
        for &target in targets {
            let tree = corpus::synthetic_tree(&c.grammar, p, target, 5);
            row(
                &format!("synth{}", p.name),
                format!("{} nodes", tree.size()),
                &c,
                &tree,
            );
        }
    }

    println!("{}", render_table(&headers, &rows));
    fnc2_bench::maybe_emit_json("table_space", &headers, &rows, &[("plan speedup", &spread)]);
    println!("Paper claim: a 4-8x decrease in storage cells on AG 5 (dynamic measures).");
    println!("Reproduction: ~2x on the AG5-profile synthetic grammar (4-6x on AG2, AG3,");
    println!("AG7), ~5x on binary, 11-16x on mini-Pascal. The EVAL-sinking schedule");
    println!("refinement (delay each EVAL to just before its first use) is what keeps");
    println!("lifetimes short enough for variables and stacks to dominate.");
}
