//! Table 2 — statistics gathered for the FNC-2 system (on AGs).
//!
//! The paper measures the bootstrapped system's phases on FNC-2's own AG
//! sources: "input" (scan, parse, initial tree construction), "typing"
//! (type- and well-definedness checking + abstract-AG construction, itself
//! a generated evaluator: AG 5), and "translator" (translation to C of the
//! non-AG parts: AG 7), plus memory and lines/minute. Our substitution
//! runs the same phases of this reproduction's OLGA pipeline on generated
//! AG sources of seven sizes.
//!
//! A second table times evaluator generation alone on one production of
//! growing width, `fnc2_corpus::flat(width)`: one `Pipeline::compile` per
//! width, the generator phase's cost per occurrence.
//!
//! Run with `cargo run --release --bin table2 -p fnc2-bench`.

use std::time::{Duration, Instant};

use fnc2_bench::{render_table, CountingAlloc};
use fnc2_corpus::sized_ag_source;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn lines_per_min(lines: usize, d: Duration) -> String {
    if d.is_zero() {
        return "-".into();
    }
    format!("{:.0}", lines as f64 * 60.0 / d.as_secs_f64())
}

fn main() {
    println!("Table 2: statistics gathered for the FNC-2 system (on AGs)");
    println!("(generated OLGA AG sources; phases: input = lex+parse, typing = check,");
    println!(
        " translator = OLGA-to-C of the non-AG parts; evaluator generation included in total)\n"
    );

    let sizes = [
        ("AG1", 320),
        ("AG2", 520),
        ("AG3", 760),
        ("AG4", 1000),
        ("AG5", 1500),
        ("AG6", 440),
        ("AG7", 1150),
    ];
    let headers = [
        "AG",
        "# lines",
        "input",
        "typing",
        "translator",
        "generator",
        "memory(KB)",
        "total",
        "l/mn typing",
    ];
    let mut rows = Vec::new();
    // Warm up lazy allocations/caches so the first row is not inflated.
    {
        let src = fnc2_corpus::sized_ag_source("warmup", 120);
        let _ = fnc2::olga::parse_units(&src).expect("parses");
        let _ = fnc2::Pipeline::new().compile_olga(&src);
    }
    for (name, lines) in sizes {
        let src = sized_ag_source(&name.to_lowercase(), lines);
        let actual_lines = src.lines().count();
        CountingAlloc::reset_peak();
        let t_total = Instant::now();

        // input: lexing + parsing.
        let t0 = Instant::now();
        let units = fnc2::olga::parse_units(&src).expect("generated source parses");
        let input = t0.elapsed();

        // typing: checking modules and the AG (abstract-AG construction).
        let t1 = Instant::now();
        let mut compiler = fnc2::olga::Compiler::new();
        let mut ag = None;
        for u in units {
            match u {
                fnc2::olga::ast::Unit::Module(m) => compiler.add_module(m).expect("checks"),
                fnc2::olga::ast::Unit::Ag(a) => ag = Some(a),
            }
        }
        let checked = compiler.check_ag(ag.expect("AG present")).expect("checks");
        let env = checked.env.clone();
        let (grammar, _, rules) = fnc2::olga::lower(checked).expect("lowers");
        let typing = t1.elapsed();

        // evaluator generation (the Table 2 runs include it in the total).
        let t2 = Instant::now();
        let compiled = fnc2::Pipeline::new().compile(grammar).expect("generates");
        let generator = t2.elapsed();

        // translator: OLGA to C.
        let t3 = Instant::now();
        let c_text = fnc2::codegen::to_c(&env, &rules, &compiled.grammar, &compiled.seqs);
        let translator = t3.elapsed();
        std::hint::black_box(c_text.len());

        let total = t_total.elapsed();
        rows.push(vec![
            name.to_string(),
            actual_lines.to_string(),
            format!("{input:.2?}"),
            format!("{typing:.2?}"),
            format!("{translator:.2?}"),
            format!("{generator:.2?}"),
            format!("{}", CountingAlloc::peak() / 1024),
            format!("{total:.2?}"),
            lines_per_min(actual_lines, typing),
        ]);
    }
    println!("{}", render_table(&headers, &rows));
    fnc2_bench::maybe_emit_json("table2", &headers, &rows, &[]);
    println!("Paper shape: typing dominates input; the whole process is roughly linear in");
    println!("lines except the generator phase; memory grows with source size (the paper");
    println!("reports 1.3–1.4 KB/line on a Sun-3/60).\n");

    println!("Evaluator generation on one wide production (flat(width), one run each):\n");
    let rows: Vec<Vec<String>> = [1_000, 2_000, 4_000, 10_000]
        .into_iter()
        .map(|width| {
            let g = fnc2_corpus::flat(width);
            let t0 = Instant::now();
            let compiled = fnc2::Pipeline::new().compile(g).expect("generates");
            let generator = t0.elapsed();
            std::hint::black_box(compiled.seqs.len());
            vec![width.to_string(), format!("{generator:.2?}")]
        })
        .collect();
    println!("{}", render_table(&["width", "generator"], &rows));
}
