//! Table 1 — statistics gathered for the evaluator generator.
//!
//! Runs the full generator (class cascade, transformation, visit
//! sequences, space optimization) on the seven synthetic profiles standing
//! in for the paper's AG 1–7 and prints the paper's columns: sizes, the
//! smallest class, the storage-class proportions, packing results, copy
//! elimination rates, and the generator's CPU time.
//!
//! Run with `cargo run --release --bin table1`.

use std::time::Instant;

use fnc2::Pipeline;
use fnc2_bench::render_table;
use fnc2_corpus::{synthetic, TABLE1_PROFILES};

fn main() {
    println!("Table 1: statistics gathered for the evaluator generator");
    println!("(synthetic AGs matched to the paper's size/class profiles; see DESIGN.md)\n");

    let headers = [
        "AG",
        "phyla",
        "operators",
        "occ. attr.",
        "sem. rules",
        "class",
        "% vars",
        "% stacks",
        "% non-temp.",
        "# variables",
        "# stacks",
        "% elim./copy",
        "% elim./poss.",
        "time",
    ];
    let mut rows = Vec::new();
    let mut tot_occ = 0usize;
    let mut w_vars = 0.0f64;
    let mut w_stacks = 0.0f64;
    let mut w_node = 0.0f64;

    for profile in &TABLE1_PROFILES {
        let grammar = synthetic(profile);
        let t0 = Instant::now();
        let compiled = Pipeline::new()
            .compile(grammar)
            .unwrap_or_else(|e| panic!("{}: {e}", profile.name));
        let elapsed = t0.elapsed();
        let r = &compiled.report;
        let s = r.space.as_ref().expect("space stats");
        let occ = s.occ_total();
        tot_occ += occ;
        w_vars += s.pct_variables() * occ as f64;
        w_stacks += s.pct_stacks() * occ as f64;
        w_node += s.pct_node() * occ as f64;
        rows.push(vec![
            profile.name.to_string(),
            r.phyla.to_string(),
            r.operators.to_string(),
            r.occurrences.to_string(),
            r.rules.to_string(),
            r.class.to_string(),
            format!("{:.0}", s.pct_variables()),
            format!("{:.0}", s.pct_stacks()),
            format!("{:.0}", s.pct_node()),
            s.variables_after.to_string(),
            s.stacks_after.to_string(),
            format!("{:.0}", s.pct_eliminated_of_copies()),
            format!("{:.0}", s.pct_eliminated_of_possible()),
            format!("{:.2?}", elapsed),
        ]);
    }
    // Occurrence-weighted averages, like the paper's "ave." column.
    rows.push(vec![
        "ave.".into(),
        String::new(),
        String::new(),
        String::new(),
        String::new(),
        String::new(),
        format!("{:.0}", w_vars / tot_occ as f64),
        format!("{:.0}", w_stacks / tot_occ as f64),
        format!("{:.0}", w_node / tot_occ as f64),
        String::new(),
        String::new(),
        String::new(),
        String::new(),
        String::new(),
    ]);
    println!("{}", render_table(&headers, &rows));
    fnc2_bench::maybe_emit_json("table1", &headers, &rows, &[]);
    println!("Paper shape: mostly-OAG(0) class column with one DNC, one not-OAG(k) (SNC),");
    println!("one OAG(1); storage dominated by variables+stacks (>80% of occurrences out");
    println!("of the tree); near-optimal elimination of the eliminable copy rules;");
    println!("generator time non-linear but far from exponential in AG size.");
}
