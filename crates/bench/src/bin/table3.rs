//! Table 3 — statistics gathered for the FNC-2 system (on modules).
//!
//! The paper's C1/F1 … C6/F6 are declaration/definition module pairs of
//! 86–3188 lines. The substitution generates well-typed OLGA modules of
//! exactly those sizes and runs the same phases: input (lex+parse), typing
//! (checking), translator (module-to-C), with the peak-allocation proxy
//! for the memory column.
//!
//! Run with `cargo run --release --bin table3 -p fnc2-bench`.

use std::time::{Duration, Instant};

use fnc2_bench::{render_table, CountingAlloc};
use fnc2_corpus::{module_source, TABLE3_MODULES};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn lines_per_min(lines: usize, d: Duration) -> String {
    if d.is_zero() {
        return "-".into();
    }
    format!("{:.0}", lines as f64 * 60.0 / d.as_secs_f64())
}

fn main() {
    println!("Table 3: statistics gathered for the FNC-2 system (on modules)");
    println!("(generated module sources at the paper's line counts)\n");
    let headers = [
        "module",
        "# lines",
        "input",
        "typing",
        "translator",
        "memory(KB)",
        "total",
        "l/mn",
    ];
    let mut rows = Vec::new();
    // Warm up lazy allocations/caches so the first row is not inflated.
    {
        let src = module_source("W0", 120);
        let _ = fnc2::olga::compile_modules(&src).expect("checks");
    }
    for (name, lines) in TABLE3_MODULES {
        let src = module_source(name, lines);
        let actual = src.lines().count();
        CountingAlloc::reset_peak();
        let t_total = Instant::now();

        let t0 = Instant::now();
        let units = fnc2::olga::parse_units(&src).expect("parses");
        let input = t0.elapsed();

        let t1 = Instant::now();
        let mut compiler = fnc2::olga::Compiler::new();
        let mut envs = Vec::new();
        for u in units {
            match u {
                fnc2::olga::ast::Unit::Module(m) => {
                    let name = m.name.clone();
                    compiler.add_module(m).expect("checks");
                    envs.push(name);
                }
                fnc2::olga::ast::Unit::Ag(_) => unreachable!("modules only"),
            }
        }
        let typing = t1.elapsed();

        let t2 = Instant::now();
        for n in &envs {
            let env = &compiler.module(n).expect("registered").env;
            let c = fnc2::codegen::module_to_c(env);
            std::hint::black_box(c.len());
        }
        let translator = t2.elapsed();

        let total = t_total.elapsed();
        rows.push(vec![
            name.to_string(),
            actual.to_string(),
            format!("{input:.2?}"),
            format!("{typing:.2?}"),
            format!("{translator:.2?}"),
            format!("{}", CountingAlloc::peak() / 1024),
            format!("{total:.2?}"),
            lines_per_min(actual, total),
        ]);
    }
    println!("{}", render_table(&headers, &rows));
    fnc2_bench::maybe_emit_json("table3", &headers, &rows, &[]);
    println!("Paper shape: module processing is roughly linear in lines (these phases are");
    println!("\"typical of a compiler-like application\"); small modules show constant");
    println!("overhead in the input phase; typing dominates.");
}
