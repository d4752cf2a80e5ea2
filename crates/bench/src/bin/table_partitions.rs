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
//! Run with `cargo run --release --bin table_partitions -p fnc2-bench`.

use std::time::Instant;

use fnc2::analysis::{snc_test, snc_to_l_ordered, Inclusion};
use fnc2::visit::{build_visit_seqs, Evaluator, RootInputs};
use fnc2_bench::render_table;
use fnc2_corpus as corpus;

fn main() {
    println!("Figure 1 / section 2.1.1: classical (equality) vs. long-inclusion transformation\n");
    let headers = [
        "AG",
        "strategy",
        "part/NT avg",
        "part/NT max",
        "visit-seqs",
        "transform time",
        "dyn. visits",
    ];
    let mut rows = Vec::new();

    let grammars: Vec<(String, fnc2::ag::Grammar)> = vec![
        ("binary".into(), corpus::binary()),
        ("blocks".into(), corpus::blocks()),
        ("minipascal".into(), corpus::minipascal().0),
        ("snc_only(AG5)".into(), corpus::snc_only()),
        (
            "synthAG5".into(),
            corpus::synthetic(&corpus::TABLE1_PROFILES[4]),
        ),
    ];
    for (name, g) in &grammars {
        let snc = snc_test(g);
        assert!(snc.is_snc(), "{name}");
        for (label, inc) in [("long", Inclusion::Long), ("equality", Inclusion::Equality)] {
            let t0 = Instant::now();
            let lo = snc_to_l_ordered(g, &snc, inc).expect("SNC grammars transform");
            let elapsed = t0.elapsed();
            // Dynamic visit count on a representative tree.
            let dyn_visits = match name.as_str() {
                "binary" => {
                    let seqs = build_visit_seqs(g, &lo);
                    let tree = corpus::binary_tree(g, &fnc2_bench::bit_string(64, 3));
                    let (_, s) = Evaluator::new(g, &seqs)
                        .evaluate(&tree, &RootInputs::new())
                        .expect("evaluates");
                    s.visits.to_string()
                }
                "blocks" => {
                    let seqs = build_visit_seqs(g, &lo);
                    let tree =
                        corpus::blocks_tree(g, "d:a u:a [ d:b u:b u:a [ u:b d:c u:c ] ] u:a");
                    let (_, s) = Evaluator::new(g, &seqs)
                        .evaluate(&tree, &RootInputs::new())
                        .expect("evaluates");
                    s.visits.to_string()
                }
                "minipascal" => {
                    let seqs = build_visit_seqs(g, &lo);
                    let tree =
                        corpus::parse_minipascal(g, &corpus::sample_program(6)).expect("parses");
                    let (_, s) = Evaluator::new(g, &seqs)
                        .evaluate(&tree, &RootInputs::new())
                        .expect("evaluates");
                    s.visits.to_string()
                }
                _ => "-".into(),
            };
            rows.push(vec![
                name.clone(),
                label.to_string(),
                format!("{:.2}", lo.stats.avg_partitions()),
                lo.stats.max_partitions().to_string(),
                lo.stats.plans.to_string(),
                format!("{elapsed:.2?}"),
                dyn_visits,
            ]);
        }
    }
    println!("{}", render_table(&headers, &rows));
    fnc2_bench::maybe_emit_json("table_partitions", &headers, &rows, &[]);
    println!("Expected shape: long inclusion never registers more partitions than equality,");
    println!("collapses to ~1 partition/NT on realistic AGs (max 2 on the AG5 shape), and");
    println!("the dynamic visit counts of the two strategies differ by <2%.");
}
