//! Quickstart: write an attribute grammar in OLGA, run the FNC-2 pipeline,
//! evaluate a tree, and look at the generator's report.
//!
//! Run with `cargo run --example quickstart`.

use fnc2::ag::TreeBuilder;
use fnc2::Pipeline;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Knuth's binary-number grammar, in OLGA.
    let compiled = Pipeline::new().compile_olga(
        r#"
        attribute grammar binary;
          phylum Number, Seq, Bit;
          root Number;
          operator number : Number ::= Seq;
          operator pair   : Seq ::= Seq Bit;
          operator single : Seq ::= Bit;
          operator zero   : Bit ::= ;
          operator one    : Bit ::= ;
          synthesized value : real of Number, Seq, Bit;
          synthesized length : int of Seq;
          inherited scale : int of Seq, Bit;
          function pow2(n : int) : real =
            if n = 0 then 1.0
            else if n < 0 then 1.0 / pow2(0 - n) else 2.0 * pow2(n - 1) end
            end;
          for number { Seq.scale := 0; }
          for pair {
            Seq$1.value := Seq$2.value + Bit.value;
            Seq$1.length := Seq$2.length + 1;
            Seq$2.scale := Seq$1.scale + 1;
          }
          for single { Seq.length := 1; }
          for zero { Bit.value := 0.0; }
          for one  { Bit.value := pow2(Bit.scale); }
        end
        "#,
    )?;

    println!("generator report for `binary`:");
    println!("{}\n", compiled.report);

    // Build the tree of "1101" and evaluate it.
    let g = &compiled.grammar;
    let mut tb = TreeBuilder::new(g);
    let mut seq = {
        let b = tb.op("one", &[])?;
        tb.op("single", &[b])?
    };
    for c in "101".chars() {
        let b = tb.op(if c == '1' { "one" } else { "zero" }, &[])?;
        seq = tb.op("pair", &[seq, b])?;
    }
    let root = tb.op("number", &[seq])?;
    let tree = tb.finish_root(root)?;

    let (values, stats) = compiled.evaluate(&tree, &Default::default())?;
    let number = g.phylum_by_name("Number").expect("phylum");
    let value = g.attr_by_name(number, "value").expect("attribute");
    println!(
        "value of 1101 = {}   ({} visits, {} rule evaluations)",
        values.get(g, tree.root(), value).expect("evaluated"),
        stats.visits,
        stats.evals
    );

    // The space-optimized evaluator computes the same thing with far
    // fewer live cells.
    let (_, opt) = compiled.evaluate_optimized(&tree, &Default::default())?;
    println!(
        "optimized: max {} live cells (tree storage would hold {} instances)",
        opt.max_live_cells,
        values.live_count()
    );
    Ok(())
}
