//! The corpus flagship end to end: a mini-Pascal compiler whose semantic
//! analysis and P-code generation are one OLGA attribute grammar (the
//! paper's "compiler from full ISO Pascal to P-code" at reproduction
//! scale). Also prints a slice of the generated C translation — the
//! paper's C back end.
//!
//! Run with `cargo run --example minipascal_compiler`.

use fnc2::Pipeline;
use fnc2_corpus::{minipascal, parse_minipascal};

const PROGRAM: &str = r#"
program demo;
var n : integer;
var sum : integer;
var even : boolean;
begin
  n := 10;
  sum := 0;
  while 0 < n do
    sum := sum + n * n;
    even := not (n = 1);
    if even then n := n - 2 else n := n - 1 end
  end;
  write sum
end.
"#;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let (grammar, info) = minipascal();
    println!(
        "mini-Pascal AG: {} operators, {} rules ({} auto-generated copies)\n",
        grammar.production_count(),
        grammar.rule_count(),
        info.auto_copies
    );

    let compiled = Pipeline::new().compile(grammar)?;
    println!("generator report:\n{}\n", compiled.report);

    let tree = parse_minipascal(&compiled.grammar, PROGRAM)?;
    println!("parsed {} tree nodes", tree.size());

    let (values, stats) = compiled.evaluate(&tree, &Default::default())?;
    let g = &compiled.grammar;
    let prog = g.phylum_by_name("Prog").expect("phylum");
    let code = g.attr_by_name(prog, "code").expect("attribute");
    let errs = g.attr_by_name(prog, "errs").expect("attribute");

    let errors = values.get(g, tree.root(), errs).expect("evaluated");
    if errors.as_list().is_empty() {
        println!("type checking: ok");
    } else {
        println!("type errors:");
        for e in errors.as_list() {
            println!("  {e}");
        }
    }

    println!(
        "\nP-code ({} visits, {} evaluations):",
        stats.visits, stats.evals
    );
    for instr in values
        .get(g, tree.root(), code)
        .expect("evaluated")
        .as_list()
    {
        println!("  {instr}");
    }

    // The C translation (paper §3.2). Print its head.
    let checked = fnc2::olga::check_units(fnc2::olga::parse_units(fnc2_corpus::MINIPASCAL_OLGA)?)?;
    let (_, _, rules) = fnc2::olga::lower(&checked)?;
    let c_text = fnc2::codegen::to_c(&checked.env, &rules, &compiled.grammar, &compiled.seqs);
    println!(
        "\ngenerated C translation: {} lines; first visit function:",
        c_text.lines().count()
    );
    let mut show = false;
    for line in c_text.lines() {
        if line.starts_with("static void visit_") {
            show = true;
        }
        if show {
            println!("  {line}");
            if line == "}" {
                break;
            }
        }
    }
    Ok(())
}
