//! Evaluation after the space plan is dropped: `degrade_to_exhaustive_recorded`
//! promises that later evaluation falls back to node storage, the trivial
//! plan, so `evaluate_optimized` must keep working, and that an artifact
//! emitted afterwards still carries the cascade's plan.

use fnc2::ag::{TreeBuilder, Value};
use fnc2::artifact::emit_tables;
use fnc2::guard::EvalBudget;
use fnc2::obs::NoopRecorder;
use fnc2::visit::RootInputs;
use fnc2::Pipeline;

#[test]
fn evaluate_optimized_runs_the_trivial_plan_after_a_degrade() {
    let mut compiled = Pipeline::new()
        .compile(fnc2_corpus::desk())
        .expect("desk compiles");
    // prog(add(lit 2, mul(lit 3, lit 4))) = 14
    let tree = {
        let g = &compiled.grammar;
        let lit = g.production_by_name("lit").unwrap();
        let mut tb = TreeBuilder::new(g);
        let mut leaf = |v| tb.node_with_token(lit, &[], Some(Value::Int(v))).unwrap();
        let (a, b, c) = (leaf(2), leaf(3), leaf(4));
        let product = tb.op("mul", &[b, c]).unwrap();
        let sum = tb.op("add", &[a, product]).unwrap();
        let root = tb.op("prog", &[sum]).unwrap();
        tb.finish_root(root).unwrap()
    };

    // No value cells: the plan's variables and stacks cannot fit.
    let budget = EvalBudget {
        max_value_cells: 0,
        ..EvalBudget::default()
    };
    let reason = compiled.degrade_to_exhaustive_recorded(&budget, &mut NoopRecorder);
    assert!(reason.is_some_and(|r| r.contains("budget")));
    assert!(compiled.space.is_none());

    let (vals, _) = compiled
        .evaluate_optimized(&tree, &RootInputs::new())
        .expect("the trivial plan runs");
    let g = &compiled.grammar;
    let value = g
        .attr_by_name(g.phylum_by_name("Prog").unwrap(), "value")
        .unwrap();
    assert_eq!(vals.get(g, tree.root(), value), Some(&Value::Int(14)));
}

/// A compile whose plan was dropped still emits the artifact the cascade
/// builds, space plan included, so a later load gets the plan back.
#[test]
fn a_degraded_compile_emits_the_cascades_artifact() {
    let pipeline = Pipeline::new();
    let source = fnc2_corpus::DESK_OLGA;
    let mut compiled = pipeline.compile_olga(source).expect("desk compiles");
    let fresh = emit_tables(&compiled, &pipeline, source);
    let budget = EvalBudget {
        max_value_cells: 0,
        ..EvalBudget::default()
    };
    let reason = compiled.degrade_to_exhaustive_recorded(&budget, &mut NoopRecorder);
    assert!(reason.is_some() && compiled.space.is_none());
    assert!(emit_tables(&compiled, &pipeline, source) == fresh);
}
