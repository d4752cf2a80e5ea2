//! §4.2 — generated evaluators vs. hand-written equivalents.
//!
//! "Comparison between the hand-written version of the system and the
//! bootstrapped version shows that the latter is only between two and four
//! times slower on average"; the slowdown is attributed to the naïve
//! translation of semantic rules, not the visit-sequence walk. This
//! harness times hand-written Rust evaluators against the generated
//! visit-sequence interpreter (and the demand-driven evaluator as the
//! dynamic-scheduling straw man the paper ruled out).
//!
//! Run with `cargo run --release --bin table_evaluator -p fnc2-bench`.

use std::hint::black_box;

use fnc2::visit::{DynamicEvaluator, Evaluator, RootInputs};
use fnc2::Pipeline;
use fnc2_bench::harness::{paired, Leg};
use fnc2_bench::{
    bit_string, desk_tree, handwritten_binary, handwritten_binary_boxed, handwritten_desk,
    handwritten_minipascal, render_table,
};
use fnc2_corpus as corpus;

/// Timed rounds per row (`harness::paired`).
const ROUNDS: usize = 41;

fn main() {
    println!("Section 4.2: generated evaluator vs. hand-written (per-run times)\n");
    let headers = [
        "AG",
        "input",
        "hand(native)",
        "hand(boxed)",
        "generated",
        "ratio",
        "demand-driven",
        "dd ratio",
    ];
    let mut rows = Vec::new();
    let (mut ratio_spread, mut dd_spread) = (Vec::new(), Vec::new());
    // Legs: the hand-written evaluator both ratios divide by, the generated
    // one, the demand-driven one, and for binary the native walk, shown
    // but not divided by.
    let mut row = |ag: &str, input: String, legs: &[Leg]| {
        let (hand, generated, demand) = (legs[0], legs[1], legs[2]);
        let native = legs.get(3).map(|l| l.median);
        rows.push(vec![
            ag.to_string(),
            input,
            format!("{:.2?}", native.unwrap_or(hand.median)),
            native.map_or("same".into(), |_| format!("{:.2?}", hand.median)),
            format!("{:.2?}", generated.median),
            format!("{:.1}x", generated.ratio),
            format!("{:.2?}", demand.median),
            format!("{:.1}x", demand.ratio),
        ]);
        ratio_spread.push(generated.spread);
        dd_spread.push(demand.spread);
    };
    let inputs = RootInputs::new();

    // Binary: the ratios divide by the boxed hand-written walk, which uses
    // the generated evaluator's data structures.
    let compiled = Pipeline::new().compile(corpus::binary()).expect("compiles");
    let g = &compiled.grammar;
    let generated = Evaluator::new(g, &compiled.seqs);
    let demand = DynamicEvaluator::new(g);
    for len in [256usize, 2048] {
        let tree = corpus::binary_tree(g, &bit_string(len, 7));
        let legs = paired(
            ROUNDS,
            &mut [
                &mut || _ = black_box(handwritten_binary_boxed(g, &tree)),
                &mut || _ = black_box(generated.evaluate(&tree, &inputs).unwrap()),
                &mut || _ = black_box(demand.evaluate(&tree, &inputs).unwrap()),
                &mut || _ = black_box(handwritten_binary(g, &tree)),
            ],
        );
        row("binary", format!("{len} bits"), &legs);
    }

    // Desk calculator.
    let compiled = Pipeline::new().compile(corpus::desk()).expect("compiles");
    let g = &compiled.grammar;
    let generated = Evaluator::new(g, &compiled.seqs);
    let demand = DynamicEvaluator::new(g);
    for depth in [10usize, 14] {
        let tree = desk_tree(g, depth);
        let legs = paired(
            ROUNDS,
            &mut [
                &mut || _ = black_box(handwritten_desk(g, &tree)),
                &mut || _ = black_box(generated.evaluate(&tree, &inputs).unwrap()),
                &mut || _ = black_box(demand.evaluate(&tree, &inputs).unwrap()),
            ],
        );
        row("desk", format!("depth {depth}"), &legs);
    }

    // Mini-Pascal: the paper's point that "this slowdown must not be
    // attributed to the evaluator as such but to the execution of the
    // semantic rules" — with real rule work the gap collapses.
    let compiled = Pipeline::new()
        .compile(corpus::minipascal().0)
        .expect("compiles");
    let g = &compiled.grammar;
    let generated = Evaluator::new(g, &compiled.seqs);
    let demand = DynamicEvaluator::new(g);
    for blocks in [16usize, 64] {
        let src = corpus::sample_program(blocks);
        let tree = corpus::parse_minipascal(g, &src).expect("parses");
        let legs = paired(
            ROUNDS,
            &mut [
                &mut || _ = black_box(handwritten_minipascal(g, &tree)),
                &mut || _ = black_box(generated.evaluate(&tree, &inputs).unwrap()),
                &mut || _ = black_box(demand.evaluate(&tree, &inputs).unwrap()),
            ],
        );
        row(
            "minipascal",
            format!("{} lines", src.lines().count()),
            &legs,
        );
    }

    println!("{}", render_table(&headers, &rows));
    let spread = [("ratio", &ratio_spread[..]), ("dd ratio", &dd_spread[..])];
    fnc2_bench::maybe_emit_json("table_evaluator", &headers, &rows, &spread);
    println!("Paper shape: a small constant factor over hand-written code (2-4x in the");
    println!("paper), bracketed here: trivial-rule AGs pay the full interpretation");
    println!("overhead (~4-6x), while AGs whose semantic functions do real work (the");
    println!("mini-Pascal code generator) land at or below ~1x — confirming the paper's");
    println!("\"this slowdown must not be attributed to the evaluator as such but to the");
    println!("execution of the semantic rules\". Static scheduling beats demand-driven.");
}
