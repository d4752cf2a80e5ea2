//! Dependency-slice (`fnc2c explain`) correctness on the corpus grammars:
//! the dynamic slices reconstructed from evaluation events must match
//! dependency sets computed by hand from the semantic rules.

use std::collections::BTreeSet;

use fnc2::ag::{AttrId, Grammar, Inst, NodeId, Tree, TreeBuilder, Value};
use fnc2::obs::Obs;
use fnc2::visit::{dependency_slice, DynamicEvaluator, RootInputs, Slice};
use fnc2::Pipeline;

fn attr(g: &Grammar, phylum: &str, name: &str) -> AttrId {
    let ph = g.phylum_by_name(phylum).expect("phylum exists");
    g.attr_by_name(ph, name).expect("attr exists")
}

/// Renders the slice's instance set as sorted `attr@node` strings — the
/// stable form the hand-computed sets below are written in.
fn instance_set(slice: &Slice, g: &Grammar, tree: &Tree) -> BTreeSet<String> {
    slice
        .instances()
        .iter()
        .map(|i| i.display(g, tree))
        .collect()
}

/// `let x = 2 in x + 3`, nodes in `TreeBuilder` creation order:
/// 0 `lit(2)`, 1 `var(x)`, 2 `lit(3)`, 3 `add(1, 2)`, 4 `letx(0, 3)`,
/// 5 `prog(4)` (root).
fn desk_let_tree(g: &Grammar) -> Tree {
    let mut tb = TreeBuilder::new(g);
    let bound = tb
        .node_with_token(
            g.production_by_name("lit").unwrap(),
            &[],
            Some(Value::Int(2)),
        )
        .unwrap();
    let var = tb
        .node_with_token(
            g.production_by_name("var").unwrap(),
            &[],
            Some(Value::str("x")),
        )
        .unwrap();
    let three = tb
        .node_with_token(
            g.production_by_name("lit").unwrap(),
            &[],
            Some(Value::Int(3)),
        )
        .unwrap();
    let add = tb.op("add", &[var, three]).unwrap();
    let letx = tb
        .node_with_token(
            g.production_by_name("letx").unwrap(),
            &[bound, add],
            Some(Value::str("x")),
        )
        .unwrap();
    let root = tb.op("prog", &[letx]).unwrap();
    tb.finish_root(root).unwrap()
}

/// The slice of `value@root` on the desk tree above, chased by hand
/// through the grammar's rules:
///
/// ```text
/// value@5 := value@4                    (prog copy)
/// value@4 := value@3                    (letx copies the body value)
/// value@3 := add(value@1, value@2)
/// value@1 := deref(env@1, "x")          (var)
/// value@2 := token 3                    (lit — reads no attribute)
/// env@1   := env@3                      (add distributes env)
/// env@3   := bind(env@4, "x", value@0)  (letx extends the body env)
/// env@4   := {}                         (prog constant)
/// value@0 := token 2                    (lit)
/// ```
///
/// Crucially `env@2` (the env of `lit(3)`) is **absent**: `lit` never
/// reads its environment, so the slice is a strict subset of the
/// decorated tree.
const DESK_VALUE_SLICE: &[&str] = &[
    "value@5", "value@4", "value@3", "value@2", "value@1", "value@0", "env@1", "env@3", "env@4",
];

#[test]
fn desk_value_slice_matches_hand_computed_set() {
    let compiled = Pipeline::new().compile(fnc2_corpus::desk()).unwrap();
    let g = &compiled.grammar;
    let tree = desk_let_tree(g);

    let mut obs = Obs::with_trace(1 << 12);
    compiled
        .evaluate_recorded(&tree, &RootInputs::new(), &mut obs)
        .unwrap();
    let buf = obs.events.as_ref().unwrap();
    let value = attr(g, "Prog", "value");
    let slice = dependency_slice(g, &tree, buf.iter(), tree.root(), value);

    let want: BTreeSet<String> = DESK_VALUE_SLICE.iter().map(|s| s.to_string()).collect();
    assert_eq!(instance_set(&slice, g, &tree), want);
    // Everything in the slice was computed — the desk root has no
    // inherited inputs, so nothing is undefined.
    assert!(slice.undefined.is_empty(), "{:?}", slice.undefined);
    // The target step comes first and carries its visit number
    // (exhaustive runs have visit structure).
    assert_eq!(slice.steps[0].inst, Inst::Attr(tree.root(), value));
    assert!(slice.steps.iter().all(|s| s.visit.is_some()));
    // 9 defined instances, and env@2 is genuinely excluded.
    assert_eq!(slice.steps.len(), 9);
}

#[test]
fn desk_slice_agrees_between_exhaustive_and_demand_evaluation() {
    let compiled = Pipeline::new().compile(fnc2_corpus::desk()).unwrap();
    let g = &compiled.grammar;
    let tree = desk_let_tree(g);
    let value = attr(g, "Prog", "value");

    let mut obs = Obs::with_trace(1 << 12);
    compiled
        .evaluate_recorded(&tree, &RootInputs::new(), &mut obs)
        .unwrap();
    let exhaustive = dependency_slice(
        g,
        &tree,
        obs.events.as_ref().unwrap().iter(),
        tree.root(),
        value,
    );

    let dyn_ev = DynamicEvaluator::new(g);
    let mut obs2 = Obs::with_trace(1 << 12);
    dyn_ev
        .evaluate_with(&tree, &RootInputs::new(), &Default::default(), &mut obs2)
        .unwrap();
    let demand = dependency_slice(
        g,
        &tree,
        obs2.events.as_ref().unwrap().iter(),
        tree.root(),
        value,
    );

    // Same dynamic dependencies regardless of evaluation order; only the
    // visit annotations differ (demand-driven firings have none).
    assert_eq!(
        instance_set(&exhaustive, g, &tree),
        instance_set(&demand, g, &tree)
    );
    assert!(demand.steps.iter().all(|s| s.visit.is_none()));
}

#[test]
fn minipascal_code_slice_matches_hand_computed_set() {
    let (g, _) = fnc2_corpus::minipascal();
    let compiled = Pipeline::new().compile(g).unwrap();
    let g = &compiled.grammar;
    let tree =
        fnc2_corpus::parse_minipascal(g, "program t; var x : integer; begin x := 1 end.").unwrap();

    let mut obs = Obs::with_trace(1 << 14);
    compiled
        .evaluate_recorded(&tree, &RootInputs::new(), &mut obs)
        .unwrap();
    let code = attr(g, "Prog", "code");
    let slice = dependency_slice(
        g,
        &tree,
        obs.events.as_ref().unwrap().iter(),
        tree.root(),
        code,
    );

    // Name tree nodes by production so the hand-computed set below does
    // not depend on parser creation order.
    let by_prod = |name: &str| -> NodeId {
        let mut found = None;
        for (n, _) in tree.preorder() {
            if g.production(tree.node(n).production()).name() == name {
                assert!(found.is_none(), "production {name} applied twice");
                found = Some(n);
            }
        }
        found.unwrap_or_else(|| panic!("no {name} node"))
    };
    let inst = |prod: &str, attr_name: &str| -> String {
        let n = by_prod(prod);
        let ph = tree.phylum(g, n);
        format!(
            "{}@{}",
            g.attr(g.attr_by_name(ph, attr_name).unwrap()).name(),
            n.index()
        )
    };

    // Hand-computed from the OLGA rules for `program t; var x : integer;
    // begin x := 1 end.`:
    //
    //   code@program := ENT count ++ code(stmts) ++ HLT
    //     -> count@decls_cons -> count@decls_nil
    //     -> code@stmts_cons -> code@assign, code@stmts_nil
    //   code@assign reads code@elit and env@assign (for the STO address)
    //     env@assign <- env@stmts_cons (auto-copy) <- defs@decls_cons
    //     defs@decls_cons := insert(defs@decls_nil, dname@decl,
    //                               (base@decls_cons, dty@decl))
    //     dty@decl <- tname@tint; base@decls_cons := 0
    //
    // `ty@elit`, every `errs`, and the whole labin/labout chain are
    // *not* read on the code path and must be absent.
    let want: BTreeSet<String> = [
        inst("program", "code"),
        inst("decls_cons", "count"),
        inst("decls_nil", "count"),
        inst("stmts_cons", "code"),
        inst("assign", "code"),
        inst("stmts_nil", "code"),
        inst("elit", "code"),
        inst("assign", "env"),
        inst("stmts_cons", "env"),
        inst("decls_cons", "defs"),
        inst("decls_nil", "defs"),
        inst("decl", "dname"),
        inst("decl", "dty"),
        inst("decls_cons", "base"),
        inst("tint", "tname"),
    ]
    .into_iter()
    .collect();
    assert_eq!(instance_set(&slice, g, &tree), want);
    assert!(slice.undefined.is_empty(), "{:?}", slice.undefined);

    // Precision spot-checks: present and absent instances.
    let got = instance_set(&slice, g, &tree);
    assert!(!got.contains(&inst("elit", "ty")));
    assert!(!got.contains(&inst("program", "errs")));
    assert!(!got.contains(&inst("assign", "labin")));
}
