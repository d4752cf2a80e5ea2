//! Figure 1 / §2.1.1 — the long-inclusion transformation.
//!
//! Compares the classical SNC → l-ordered transformation (partition reuse
//! by equality) with FNC-2's long inclusion: partitions per non-terminal
//! (avg/max), number of generated visit-sequences, transformation time,
//! and the dynamic visit overhead partition replacement introduces.
//!
//! Paper claims: classical reuse yields >4 partitions per non-terminal on
//! AG 5 (avg 4.15, max 29) where long inclusion yields 1.03 (max 2); the
//! transformation's running time tracks the total partition count (almost
//! linear with long inclusion); and the visit-count increase from coarser
//! partitions stays under 2%.
//!
//! The count columns come from [`fnc2_bench::figure1_rows`], so a test
//! can check the docs against them. The transformation time is timed with
//! [`fnc2_bench::harness::paired`]: both strategies in rotating rounds,
//! each leg repeating its transformation for about 2 ms; the table gives
//! each strategy's median time per transformation, and equality's time over
//! long inclusion's (median per-round ratio, with its spread: the
//! interquartile range over the median).
//!
//! A last table scales `fnc2_corpus::partition_blowup(12, d)`, the family
//! on which long inclusion cannot merge partitions: the deepest phylum's
//! partitions, the plans, and one run's transformation and space-analysis
//! times per depth.
//!
//! Run with `cargo run --release --bin table_partitions -p fnc2-bench`.

use std::hint::black_box;
use std::time::{Duration, Instant};

use fnc2::analysis::{snc_test, snc_to_l_ordered, Inclusion};
use fnc2::space::analyze_space;
use fnc2::visit::build_visit_seqs;
use fnc2_bench::harness::paired;
use fnc2_bench::{figure1_grammars, figure1_rows, render_table, FIGURE1_HEADERS};

/// Timed rounds per grammar (`harness::paired`).
const ROUNDS: usize = 21;

/// About how long one leg of a round runs, so that the shortest
/// transformations still outlast the clock's noise.
const LEG: Duration = Duration::from_millis(2);

/// Pairs per phylum of the blow-up table's grammars.
const BLOWUP_PAIRS: usize = 12;

/// The blow-up table's deepest grammar: `2^7` partitions on its deepest
/// phylum, about a second of generator time.
const BLOWUP_DEPTH: usize = 7;

fn main() {
    println!("Figure 1 / section 2.1.1: classical (equality) vs. long-inclusion transformation\n");
    println!("{}", render_table(&FIGURE1_HEADERS, &figure1_rows()));

    println!("Transformation time ({ROUNDS} paired rounds):\n");
    let headers = ["AG", "long", "equality", "equality/long", "spread"];
    let mut rows = Vec::new();
    let mut spread = Vec::new();
    for (name, g) in figure1_grammars() {
        let snc = snc_test(&g);
        let once = |inc| {
            black_box(snc_to_l_ordered(&g, &snc, inc).expect("SNC grammars transform"));
        };
        let t0 = Instant::now();
        once(Inclusion::Long);
        let reps = (LEG.as_secs_f64() / t0.elapsed().as_secs_f64()).ceil() as u32;
        let transform = |inc| (0..reps).for_each(|_| once(inc));
        let legs = paired(
            ROUNDS,
            &mut [&mut || transform(Inclusion::Long), &mut || {
                transform(Inclusion::Equality)
            }],
        );
        rows.push(vec![
            name.to_string(),
            format!("{:.2?}", legs[0].median / reps),
            format!("{:.2?}", legs[1].median / reps),
            format!("{:.2}x", legs[1].ratio),
            format!("{:.2}", legs[1].spread),
        ]);
        spread.push(legs[1].spread);
    }
    println!("{}", render_table(&headers, &rows));
    fnc2_bench::maybe_emit_json(
        "table_partitions",
        &headers,
        &rows,
        &[("equality/long", &spread)],
    );
    println!("Expected shape: long inclusion never registers more partitions than equality,");
    println!("collapses to ~1 partition/NT on realistic AGs (max 2 on the AG5 shape), and");
    println!("the dynamic visit counts of the two strategies differ by <2%.\n");

    println!("Partition blow-up, partition_blowup({BLOWUP_PAIRS}, d), one run per depth:\n");
    let headers = ["d", "partitions", "plans", "transform ms", "space ms"];
    let ms = |t: Duration| format!("{:.1}", t.as_secs_f64() * 1e3);
    let rows: Vec<Vec<String>> = (1..=BLOWUP_DEPTH)
        .map(|d| {
            let g = fnc2_corpus::partition_blowup(BLOWUP_PAIRS, d);
            let snc = snc_test(&g);
            let t0 = Instant::now();
            let lo = snc_to_l_ordered(&g, &snc, Inclusion::Long).expect("SNC grammars transform");
            let transform = t0.elapsed();
            let seqs = build_visit_seqs(&g, &lo);
            let t1 = Instant::now();
            black_box(analyze_space(&g, &seqs));
            let space = t1.elapsed();
            vec![
                d.to_string(),
                lo.stats.max_partitions().to_string(),
                lo.stats.plans.to_string(),
                ms(transform),
                ms(space),
            ]
        })
        .collect();
    println!("{}", render_table(&headers, &rows));
    println!("The deepest phylum gets 2^d partitions and the transformation 3 * 2^d - 1 plans.");
}
