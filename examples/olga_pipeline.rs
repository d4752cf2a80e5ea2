//! Modularity and the companion processors (paper §2.3, §3.3, Figure 4):
//! an application as a set of OLGA modules plus an AG, the `mkfnc2`
//! dependency graph and Table-4-style statistics, lint's diagnostics
//! (`asx`'s checks among them), and a `ppat` unparser for the AG's output trees.
//!
//! Run with `cargo run --example olga_pipeline`.

use fnc2::tools::{analyze_project, render_stats, Item, PpatSpec, SourceFile, Unparser};
use fnc2::Pipeline;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // ---- an application: two library modules + one AG -----------------
    let arith = r#"
module arith;
  export max2, clamp;
  function max2(a : int, b : int) : int = if a > b then a else b end;
  function clamp(x : int, hi : int) : int = if x > hi then hi else x end;
end
"#;
    let trees = r#"
module trees;
  import max2 from arith;
  export grow;
  function grow(n : int) : tree =
    if n = 0 then @leaf(0) else @fork(grow(n - 1), @leaf(max2(n, 1))) end;
end
"#;
    let ag = r#"
attribute grammar shaper;
  import grow, max2 from arith;      -- wrong module on purpose? no: see below
  phylum S;
  operator mk : S ::= ;
  synthesized shape : tree of S;
  synthesized depth : int of S;
  function measure(t : tree) : int =
    case t of @leaf(_) => 1 | @fork(a, b) => 1 + max2(measure(a), measure(b)) end;
  for mk {
    S.shape := grow(4);
    S.depth := measure(S.shape);
  }
end
"#;
    // `grow` lives in `trees`, `max2` in `arith`:
    let ag = ag.replace(
        "import grow, max2 from arith;      -- wrong module on purpose? no: see below",
        "import grow from trees;\n  import max2 from arith;",
    );

    // ---- mkfnc2: dependency graph + Table-4 statistics ------------------
    let files = vec![
        SourceFile {
            name: "arith.olga".into(),
            subsystem: "lib".into(),
            text: arith.into(),
        },
        SourceFile {
            name: "trees.olga".into(),
            subsystem: "lib".into(),
            text: trees.into(),
        },
        SourceFile {
            name: "shaper.olga".into(),
            subsystem: "ag".into(),
            text: ag.clone(),
        },
    ];
    let project = analyze_project(&files)?;
    println!("build order: {}", project.build_order.join(" -> "));
    println!(
        "\nsource statistics (Table 4 style):\n{}",
        render_stats(&project.stats)
    );

    // ---- compile the whole application ---------------------------------
    let source = format!("{arith}\n{trees}\n{ag}");
    let compiled = Pipeline::new().compile_olga(&source)?;
    println!("generator report:\n{}\n", compiled.report);

    // lint's findings on the grammar: unused attributes, useless
    // productions and phyla (what the paper's `asx` checks), copy chains.
    print!(
        "{}",
        fnc2::lint::lint_grammar(&compiled.grammar, None).render_text()
    );

    // ---- evaluate and unparse the output tree with ppat ----------------
    let mut tb = fnc2::ag::TreeBuilder::new(&compiled.grammar);
    let root = tb.op("mk", &[])?;
    let tree = tb.finish_root(root)?;
    let (values, _) = compiled.evaluate(&tree, &Default::default())?;
    let s = compiled.grammar.phylum_by_name("S").expect("phylum");
    let shape = compiled.grammar.attr_by_name(s, "shape").expect("attr");
    let depth = compiled.grammar.attr_by_name(s, "depth").expect("attr");
    println!(
        "\noutput tree depth = {}",
        values
            .get(&compiled.grammar, tree.root(), depth)
            .expect("evaluated")
    );

    let mut spec = PpatSpec::new();
    spec.template(
        "fork",
        vec![
            Item::Text("(".into()),
            Item::Indent,
            Item::Newline,
            Item::Child(1),
            Item::Newline,
            Item::Child(2),
            Item::Dedent,
            Item::Newline,
            Item::Text(")".into()),
        ],
    );
    spec.template("leaf", vec![Item::Text("leaf ".into()), Item::Child(1)]);
    let unparser = Unparser::generate_unchecked(spec);
    println!(
        "unparsed output tree:\n{}",
        unparser.unparse_term(
            values
                .get(&compiled.grammar, tree.root(), shape)
                .expect("evaluated")
        )
    );
    Ok(())
}
