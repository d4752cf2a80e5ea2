//! Seeded equivalence of the four evaluators.
//!
//! The reproduction's central internal invariant: for any tree of any
//! corpus grammar, the deterministic visit-sequence evaluator, the
//! demand-driven evaluator, the space-optimized evaluator, and the
//! incremental evaluator (after arbitrary edits) compute the same
//! attribute values. Inputs are drawn from the in-repo deterministic
//! generator (`fnc2_corpus::rng`), so every run covers the same cases.

use fnc2::ag::{Grammar, List, NodeId, Tree, TreeBuilder, Value};
use fnc2::incremental::{Equality, IncrementalEvaluator};
use fnc2::visit::{DynamicEvaluator, RootInputs};
use fnc2::Pipeline;
use fnc2_corpus::rng::Rng;

/// Generates a random bit-string for the binary grammar.
fn random_bits(rng: &mut Rng) -> String {
    let int_len = rng.gen_usize(1, 23);
    let mut s: String = (0..int_len)
        .map(|_| if rng.gen_bool(0.5) { '1' } else { '0' })
        .collect();
    if rng.gen_bool(0.5) {
        s.push('.');
        let frac_len = rng.gen_usize(1, 11);
        s.extend((0..frac_len).map(|_| if rng.gen_bool(0.5) { '1' } else { '0' }));
    }
    s
}

#[test]
fn binary_evaluators_agree() {
    let compiled = Pipeline::new().compile(fnc2_corpus::binary()).unwrap();
    let g = &compiled.grammar;
    let mut rng = Rng::seed_from_u64(0xb17);
    for _ in 0..64 {
        let bits = random_bits(&mut rng);
        let tree = fnc2_corpus::binary_tree(g, &bits);
        let (a, _) = compiled.evaluate(&tree, &RootInputs::new()).unwrap();
        let (b, _) = DynamicEvaluator::new(g)
            .evaluate(&tree, &RootInputs::new())
            .unwrap();
        let (c, _) = compiled
            .evaluate_optimized(&tree, &RootInputs::new())
            .unwrap();
        let number = g.phylum_by_name("Number").unwrap();
        for attr in g.phylum(number).attrs() {
            assert_eq!(
                a.get(g, tree.root(), *attr),
                b.get(g, tree.root(), *attr),
                "bits {bits}"
            );
            assert_eq!(
                a.get(g, tree.root(), *attr),
                c.get(g, tree.root(), *attr),
                "bits {bits}"
            );
        }
        // Exhaustive evaluation decorates every instance identically.
        let differs = |&(n, x): &_| a.get(g, n, x) != b.get(g, n, x);
        assert_eq!(tree.attr_instances(g).find(differs), None, "bits {bits}");
    }
}

/// A random item-spec for the blocks grammar.
fn random_blocks_spec(rng: &mut Rng) -> String {
    let n = rng.gen_usize(0, 11);
    let items: Vec<String> = (0..n)
        .map(|_| {
            if rng.gen_bool(0.5) {
                format!("d:v{}", rng.gen_usize(0, 3))
            } else {
                format!("u:v{}", rng.gen_usize(0, 5))
            }
        })
        .collect();
    items.join(" ")
}

#[test]
fn blocks_evaluators_agree() {
    let compiled = Pipeline::new().compile(fnc2_corpus::blocks()).unwrap();
    let g = &compiled.grammar;
    let mut rng = Rng::seed_from_u64(0xb10c);
    for _ in 0..48 {
        let outer = random_blocks_spec(&mut rng);
        let inner = random_blocks_spec(&mut rng);
        let spec = format!("{outer} [ {inner} ]");
        let tree = fnc2_corpus::blocks_tree(g, &spec);
        let (a, _) = compiled.evaluate(&tree, &RootInputs::new()).unwrap();
        let (b, _) = DynamicEvaluator::new(g)
            .evaluate(&tree, &RootInputs::new())
            .unwrap();
        let (c, _) = compiled
            .evaluate_optimized(&tree, &RootInputs::new())
            .unwrap();
        let prog = g.phylum_by_name("Prog").unwrap();
        let errors = g.attr_by_name(prog, "errors").unwrap();
        assert_eq!(
            a.get(g, tree.root(), errors),
            b.get(g, tree.root(), errors),
            "spec {spec}"
        );
        assert_eq!(
            a.get(g, tree.root(), errors),
            c.get(g, tree.root(), errors),
            "spec {spec}"
        );
    }
}

// ---------------------------------------------------------------------------
// Mini-Pascal: a full front-end grammar through all three evaluators
// ---------------------------------------------------------------------------

#[test]
fn minipascal_evaluators_agree() {
    let compiled = Pipeline::new()
        .compile(fnc2_corpus::minipascal().0)
        .unwrap();
    let g = &compiled.grammar;
    for blocks in [0, 1, 3, 6] {
        let src = fnc2_corpus::sample_program(blocks);
        let tree = fnc2_corpus::parse_minipascal(g, &src).unwrap();
        let (a, _) = compiled.evaluate(&tree, &RootInputs::new()).unwrap();
        let (b, _) = DynamicEvaluator::new(g)
            .evaluate(&tree, &RootInputs::new())
            .unwrap();
        let (c, _) = compiled
            .evaluate_optimized(&tree, &RootInputs::new())
            .unwrap();
        let differs = |&(n, x): &_| a.get(g, n, x) != b.get(g, n, x);
        assert_eq!(
            tree.attr_instances(g).find(differs),
            None,
            "blocks {blocks}"
        );
        // The space plan keeps node storage only where needed, so compare
        // wherever the optimized run materialized a value.
        let differs = |&(n, x): &_| c.get(g, n, x).is_some_and(|v| a.get(g, n, x) != Some(v));
        assert_eq!(
            tree.attr_instances(g).find(differs),
            None,
            "blocks {blocks}"
        );
    }
}

// ---------------------------------------------------------------------------
// Pathological corpus grammars (AG 4/5/7 shapes): multi-partition phyla
// and OAG(k) repairs must not change any value
// ---------------------------------------------------------------------------

fn pathological_tree(g: &Grammar, root_prod: &str, leaf_prod: &str, leaves: usize) -> Tree {
    let mut tb = TreeBuilder::new(g);
    let kids: Vec<NodeId> = (0..leaves)
        .map(|_| tb.op(leaf_prod, &[]).unwrap())
        .collect();
    let root = tb.op(root_prod, &kids).unwrap();
    tb.finish_root(root).unwrap()
}

#[test]
fn pathological_evaluators_agree() {
    let cases = [
        (fnc2_corpus::snc_only(), "ctx_a", "leafx", 1),
        (fnc2_corpus::snc_only(), "ctx_b", "leafx", 1),
        (fnc2_corpus::oag1_not_oag0(), "cross", "leafx", 2),
        (fnc2_corpus::dnc_not_oag(3), "cross0", "leaf0", 2),
        (fnc2_corpus::dnc_not_oag(3), "cross2", "leaf2", 2),
    ];
    for (grammar, root_prod, leaf_prod, leaves) in cases {
        let name = format!("{}/{root_prod}", grammar.name());
        let compiled = Pipeline::new().compile(grammar).unwrap();
        let g = &compiled.grammar;
        let tree = pathological_tree(g, root_prod, leaf_prod, leaves);
        let (a, _) = compiled.evaluate(&tree, &RootInputs::new()).unwrap();
        let (b, _) = DynamicEvaluator::new(g)
            .evaluate(&tree, &RootInputs::new())
            .unwrap();
        let (c, _) = compiled
            .evaluate_optimized(&tree, &RootInputs::new())
            .unwrap();
        let differs = |&(n, x): &_| a.get(g, n, x) != b.get(g, n, x);
        assert_eq!(tree.attr_instances(g).find(differs), None, "{name}");
        let differs = |&(n, x): &_| c.get(g, n, x).is_some_and(|v| a.get(g, n, x) != Some(v));
        assert_eq!(tree.attr_instances(g).find(differs), None, "{name}");
    }
}

// ---------------------------------------------------------------------------
// Generated grammars with incremental edit scripts: the fuzzing oracle run
// as a deterministic regression (all four evaluators + space-plan
// re-validation per case)
// ---------------------------------------------------------------------------

#[test]
fn generated_grammars_with_edit_scripts_agree() {
    use fnc2::fuzz::{render_reproducer, run_case, CaseParams};
    for case in 0..12 {
        let mut p = CaseParams::for_case(0x9e4e, case);
        p.edits = p.edits.max(2);
        if let Err(d) = run_case(&p) {
            panic!(
                "case {case} diverged at `{}`: {}\n{}",
                d.stage,
                d.detail,
                render_reproducer(&d)
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Work-stealing batch driver vs. the sequential exhaustive evaluator, over
// fuzz-generated grammars at 1, 2, 4 and 8 threads
// ---------------------------------------------------------------------------

#[test]
fn batch_driver_is_deterministic_across_thread_counts() {
    use fnc2::analysis::{classify, Inclusion};
    use fnc2::fuzz::{build_tree, gen::build_grammar, CaseParams};
    use fnc2::visit::{build_visit_seqs, Evaluator};

    for case in 0..6 {
        let params = CaseParams::for_case(0xba7c4, case);
        let gg = build_grammar(&params);
        let g = &gg.grammar;
        let cls = classify(g, 2, Inclusion::Long).expect("generated grammar transforms");
        let lo = cls.l_ordered.as_ref().expect("generated grammar is SNC");
        let seqs = build_visit_seqs(g, lo);
        let ev = Evaluator::new(g, &seqs);

        // A batch of distinct trees of the same grammar.
        let trees: Vec<Tree> = (0..23)
            .map(|t| {
                let tp = CaseParams {
                    seed: params
                        .seed
                        .wrapping_add(u64::wrapping_mul(t, 0x9e37_79b9_7f4a_7c15)),
                    ..params
                };
                build_tree(&gg, &tp)
            })
            .collect();
        let inputs = RootInputs::new();

        // Sequential reference: evaluate() in a plain loop.
        let reference: Vec<_> = trees
            .iter()
            .map(|t| ev.evaluate(t, &inputs).expect("sequential evaluation"))
            .collect();

        let budget = fnc2::guard::EvalBudget::default();
        for threads in [1usize, 2, 4, 8] {
            let report =
                fnc2::par::batch_evaluate_guarded(&ev, &trees, &inputs, threads, &budget, 0, None);
            assert_eq!(report.stats.trees, trees.len() as u64, "case {case}");
            for (i, o) in report.outcomes.iter().enumerate() {
                let fnc2::par::TreeOutcome::Ok(vals, estats) = o else {
                    panic!("case {case} tree {i}: batch evaluation {}", o.label());
                };
                let (ref_vals, ref_stats) = &reference[i];
                assert_eq!(
                    estats, ref_stats,
                    "case {case} tree {i} at {threads} threads: stats diverge"
                );
                let differs = |&(n, a): &_| vals.get(g, n, a) != ref_vals.get(g, n, a);
                if let Some((n, attr)) = trees[i].attr_instances(g).find(differs) {
                    panic!(
                        "case {case} tree {i} at {threads} threads: node {n:?} attr {} diverges",
                        g.attr(attr).name()
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Incremental vs. from-scratch under random edit sequences
// ---------------------------------------------------------------------------

fn sum_grammar() -> Grammar {
    use fnc2::ag::{GrammarBuilder, Occ};
    let mut g = GrammarBuilder::new("sum");
    let s = g.phylum("S");
    let e = g.phylum("E");
    let total = g.syn(s, "total");
    let depth = g.inh(e, "depth");
    let sum = g.syn(e, "sum");
    g.func("succ", 1, |v| Value::Int(v[0].as_int() + 1));
    g.func("addd", 3, |v| {
        Value::Int(v[0].as_int() + v[1].as_int() + v[2].as_int())
    });
    let root = g.production("root", s, &[e]);
    g.copy(root, Occ::lhs(total), Occ::new(1, sum));
    g.constant(root, Occ::new(1, depth), Value::Int(0));
    let fork = g.production("fork", e, &[e, e]);
    g.call(fork, Occ::new(1, depth), "succ", [Occ::lhs(depth).into()]);
    g.call(fork, Occ::new(2, depth), "succ", [Occ::lhs(depth).into()]);
    g.call(
        fork,
        Occ::lhs(sum),
        "addd",
        [
            Occ::new(1, sum).into(),
            Occ::new(2, sum).into(),
            Occ::lhs(depth).into(),
        ],
    );
    let leaf = g.production("leafe", e, &[]);
    g.copy(leaf, Occ::lhs(sum), fnc2::ag::Arg::Token);
    g.finish().unwrap()
}

/// Builds a tree from a shape term: leaves carry the next value.
fn build_shape(g: &Grammar, tb: &mut TreeBuilder, shape: &ShapeTree, next: &mut i64) -> NodeId {
    match shape {
        ShapeTree::Leaf => {
            *next += 1;
            tb.node_with_token(
                g.production_by_name("leafe").unwrap(),
                &[],
                Some(Value::Int(*next * 3 % 17)),
            )
            .unwrap()
        }
        ShapeTree::Fork(a, b) => {
            let x = build_shape(g, tb, a, next);
            let y = build_shape(g, tb, b, next);
            tb.op("fork", &[x, y]).unwrap()
        }
    }
}

#[derive(Clone, Debug)]
enum ShapeTree {
    Leaf,
    Fork(Box<ShapeTree>, Box<ShapeTree>),
}

/// A random shape of bounded depth, forking with decreasing probability.
fn random_shape(rng: &mut Rng, depth: usize) -> ShapeTree {
    if depth == 0 || rng.gen_bool(0.4) {
        ShapeTree::Leaf
    } else {
        ShapeTree::Fork(
            Box::new(random_shape(rng, depth - 1)),
            Box::new(random_shape(rng, depth - 1)),
        )
    }
}

fn tree_of(g: &Grammar, shape: &ShapeTree) -> Tree {
    let mut tb = TreeBuilder::new(g);
    let mut next = 0;
    let body = build_shape(g, &mut tb, shape, &mut next);
    let root = tb.op("root", &[body]).unwrap();
    tb.finish_root(root).unwrap()
}

#[test]
fn incremental_matches_from_scratch() {
    let g = sum_grammar();
    let mut rng = Rng::seed_from_u64(0x1c);
    for _ in 0..32 {
        let base = random_shape(&mut rng, 5);
        let tree = tree_of(&g, &base);
        let mut inc = IncrementalEvaluator::new(&g, tree, Equality::default()).unwrap();

        let n_edits = rng.gen_usize(1, 3);
        for _ in 0..n_edits {
            let shape = random_shape(&mut rng, 5);
            let pick = rng.gen_usize(0, 999);
            // Pick a node deriving E (any non-root node).
            let candidates: Vec<NodeId> = inc
                .tree()
                .preorder()
                .map(|(n, _)| n)
                .filter(|&n| inc.tree().node(n).parent().is_some())
                .collect();
            let at = candidates[pick % candidates.len()];
            let mut tb = TreeBuilder::new(&g);
            let mut next = 100;
            let sub_root = build_shape(&g, &mut tb, &shape, &mut next);
            let sub = tb.finish(sub_root);
            inc.replace_subtree(at, &sub).unwrap();

            // From-scratch on the edited tree must agree everywhere live.
            let (want, _) = DynamicEvaluator::new(&g)
                .evaluate(inc.tree(), &RootInputs::new())
                .unwrap();
            let differs = |&(n, a): &_| inc.value(n, a) != want.get(&g, n, a);
            if let Some((n, attr)) = inc.tree().attr_instances(&g).find(differs) {
                panic!("node {:?} attr {}", n, g.attr(attr).name());
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Pathological shapes under default budgets: 100k-deep chains, 10k-child
// flat nodes, and value-ballooning concat spines must evaluate (or be
// stopped by a budget) without any evaluator blowing the call stack
// ---------------------------------------------------------------------------

#[test]
fn deep_chain_evaluates_under_all_four_evaluators() {
    const LINKS: usize = 100_000;
    let compiled = Pipeline::new().compile(fnc2_corpus::chain()).unwrap();
    let g = &compiled.grammar;
    let tree = fnc2_corpus::chain_tree(g, LINKS);
    let want = Value::Int(fnc2_corpus::chain_expected(LINKS));
    let s = g.phylum_by_name("S").unwrap();
    let out = g.attr_by_name(s, "out").unwrap();

    let (a, _) = compiled.evaluate(&tree, &RootInputs::new()).unwrap();
    assert_eq!(a.get(g, tree.root(), out), Some(&want), "exhaustive");

    let (b, _) = DynamicEvaluator::new(g)
        .evaluate(&tree, &RootInputs::new())
        .unwrap();
    assert_eq!(b.get(g, tree.root(), out), Some(&want), "dynamic");

    let (c, _) = compiled
        .evaluate_optimized(&tree, &RootInputs::new())
        .unwrap();
    assert_eq!(c.get(g, tree.root(), out), Some(&want), "space-optimized");

    let inc = IncrementalEvaluator::new(g, fnc2_corpus::chain_tree(g, LINKS), Equality::default())
        .unwrap();
    assert_eq!(
        inc.value(inc.tree().root(), out),
        Some(&want),
        "incremental"
    );
}

#[test]
fn wide_flat_tree_evaluates_under_all_four_evaluators() {
    const WIDTH: usize = 10_000;
    let compiled = Pipeline::new().compile(fnc2_corpus::flat(WIDTH)).unwrap();
    let g = &compiled.grammar;
    let tree = fnc2_corpus::flat_tree(g);
    let want = Value::Int(fnc2_corpus::flat_expected(WIDTH));
    let s = g.phylum_by_name("S").unwrap();
    let out = g.attr_by_name(s, "out").unwrap();

    let (a, _) = compiled.evaluate(&tree, &RootInputs::new()).unwrap();
    assert_eq!(a.get(g, tree.root(), out), Some(&want), "exhaustive");

    let (b, _) = DynamicEvaluator::new(g)
        .evaluate(&tree, &RootInputs::new())
        .unwrap();
    assert_eq!(b.get(g, tree.root(), out), Some(&want), "dynamic");

    let (c, _) = compiled
        .evaluate_optimized(&tree, &RootInputs::new())
        .unwrap();
    assert_eq!(c.get(g, tree.root(), out), Some(&want), "space-optimized");

    let inc = IncrementalEvaluator::new(g, fnc2_corpus::flat_tree(g), Equality::default()).unwrap();
    assert_eq!(
        inc.value(inc.tree().root(), out),
        Some(&want),
        "incremental"
    );
}

#[test]
fn balloon_grammar_agrees_while_in_budget() {
    const DOUBLINGS: usize = 12;
    let compiled = Pipeline::new().compile(fnc2_corpus::balloon()).unwrap();
    let g = &compiled.grammar;
    let tree = fnc2_corpus::balloon_tree(g, DOUBLINGS);
    let want = Value::Int(fnc2_corpus::balloon_expected(DOUBLINGS));
    let s = g.phylum_by_name("S").unwrap();
    let out = g.attr_by_name(s, "out").unwrap();

    let (a, _) = compiled.evaluate(&tree, &RootInputs::new()).unwrap();
    assert_eq!(a.get(g, tree.root(), out), Some(&want), "exhaustive");
    let (b, _) = DynamicEvaluator::new(g)
        .evaluate(&tree, &RootInputs::new())
        .unwrap();
    assert_eq!(b.get(g, tree.root(), out), Some(&want), "dynamic");
    let (c, _) = compiled
        .evaluate_optimized(&tree, &RootInputs::new())
        .unwrap();
    assert_eq!(c.get(g, tree.root(), out), Some(&want), "space-optimized");
    let inc = IncrementalEvaluator::new(
        g,
        fnc2_corpus::balloon_tree(g, DOUBLINGS),
        Equality::default(),
    )
    .unwrap();
    assert_eq!(
        inc.value(inc.tree().root(), out),
        Some(&want),
        "incremental"
    );
}

#[test]
fn exceeded_budgets_surface_as_classified_errors() {
    use fnc2::guard::EvalBudget;
    use fnc2::obs::NoopRecorder;
    use fnc2::visit::Evaluator;

    let compiled = Pipeline::new().compile(fnc2_corpus::chain()).unwrap();
    let g = &compiled.grammar;
    let ev = Evaluator::new(g, &compiled.seqs);
    let tree = fnc2_corpus::chain_tree(g, 5_000);
    let inputs = RootInputs::new();

    // Step budget: far fewer steps than instances.
    let err = ev
        .evaluate_with(
            &tree,
            &inputs,
            &EvalBudget::default().with_max_steps(100),
            &mut NoopRecorder,
        )
        .unwrap_err();
    assert!(err.is_budget(), "steps: {err}");

    // Depth budget: shallower than the spine.
    let err = ev
        .evaluate_with(
            &tree,
            &inputs,
            &EvalBudget::default().with_max_depth(64),
            &mut NoopRecorder,
        )
        .unwrap_err();
    assert!(err.is_budget(), "depth: {err}");

    // Value-cell budget on the ballooning grammar: stops the geometric
    // growth long before it would materialize 2^24 cells.
    let bg = Pipeline::new().compile(fnc2_corpus::balloon()).unwrap();
    let bev = Evaluator::new(&bg.grammar, &bg.seqs);
    let btree = fnc2_corpus::balloon_tree(&bg.grammar, 24);
    let err = bev
        .evaluate_with(
            &btree,
            &inputs,
            &EvalBudget::default().with_max_value_cells(10_000),
            &mut NoopRecorder,
        )
        .unwrap_err();
    assert!(err.is_budget(), "cells: {err}");

    // The dynamic evaluator honors the same budgets.
    let err = DynamicEvaluator::new(g)
        .evaluate_with(
            &tree,
            &inputs,
            &EvalBudget::default().with_max_steps(100),
            &mut NoopRecorder,
        )
        .unwrap_err();
    assert!(err.is_budget(), "dynamic steps: {err}");
}

// ---------------------------------------------------------------------------
// Guarded batch determinism under injected worker panics: whatever the
// thread count, the surviving trees must be bit-identical to a no-fault
// run and the poisoned trees must surface as classified outcomes
// ---------------------------------------------------------------------------

/// An AG whose one rule doubles a one-element list `S.k` times with `++`.
const DOUBLING: &str = r#"
attribute grammar doubling;
  phylum S;
  root S;
  operator leaf : S ::= ;
  synthesized k : int of S;
  synthesized out : list of int of S;
  function dbl(l : list of int, n : int) : list of int =
    if n = 0 then l else dbl(l ++ l, n - 1) end;
  for leaf { S.k := 40; S.out := dbl([1], S.k); }
end
"#;

/// `++` shares its operands, so a 2^40-element result costs 40 nodes to
/// build; the meter's logical count still sees 2^40 + 1 cells, and every
/// evaluator ends in a classified value-cell budget error under the
/// default budget — not a wrapped counter, not an OOM.
#[test]
fn huge_lists_exceed_the_value_cell_budget() {
    use fnc2::guard::BudgetKind;
    use fnc2::visit::EvalError;

    let compiled = Pipeline::new().compile_olga(DOUBLING).unwrap();
    let g = &compiled.grammar;
    let tree = || {
        let mut tb = TreeBuilder::new(g);
        let leaf = tb.op("leaf", &[]).unwrap();
        tb.finish_root(leaf).unwrap()
    };
    let is_cells = |e: &EvalError| {
        matches!(
            e,
            EvalError::BudgetExceeded {
                kind: BudgetKind::ValueCells,
                ..
            }
        )
    };
    let err = compiled.evaluate(&tree(), &RootInputs::new()).unwrap_err();
    assert!(is_cells(&err), "exhaustive: {err}");
    let err = DynamicEvaluator::new(g)
        .evaluate(&tree(), &RootInputs::new())
        .unwrap_err();
    assert!(is_cells(&err), "dynamic: {err}");
    let err = IncrementalEvaluator::new(g, tree(), Equality::default()).unwrap_err();
    assert!(is_cells(&err), "incremental: {err}");
}

/// Depth of the concatenation chains of the `deep_list_*` tests.
const DEEP: usize = 1_000_000;

/// `DEEP` one-element lists folded with `List::concat`, to the left
/// (`acc ++ [x]`) or to the right (`[x] ++ acc`); element `i` is `i % 7`.
fn deep_list(left: bool) -> List {
    let leaves: Vec<List> = (0..7).map(|k| List::new(vec![Value::Int(k)])).collect();
    let mut acc = List::new(Vec::new());
    if left {
        for i in 0..DEEP {
            acc = acc.concat(&leaves[i % 7]);
        }
    } else {
        for i in (0..DEEP).rev() {
            acc = leaves[i % 7].concat(&acc);
        }
    }
    acc
}

fn deep_elements() -> Vec<Value> {
    (0..DEEP).map(|i| Value::Int((i % 7) as i64)).collect()
}

#[test]
fn deep_list_drop_does_not_recurse() {
    drop(deep_list(true));
    drop(deep_list(false));
    // A chain dropped while another list still shares part of it.
    let chain = deep_list(false);
    let tail = chain.tail().tail();
    drop(chain);
    assert_eq!(tail.len(), DEEP - 2);
}

#[test]
fn deep_list_equality_walks_iteratively() {
    let left = Value::List(deep_list(true));
    let flat = Value::list(deep_elements());
    assert!(left == flat, "chain vs equal flat list");
    assert!(flat == left, "chain vs equal flat list");
    let again = Value::List(deep_list(true));
    assert!(left == again, "chains of the same shape");
    assert!(again == left, "chains of the same shape");
    let right = Value::List(deep_list(false));
    assert!(left == right, "the other association");
    assert!(right == left, "the other association");
    let mut off = deep_elements();
    off[DEEP - 1] = Value::Int(-1);
    let off = Value::list(off);
    assert!(left != off, "last element differs");
    assert!(off != right, "last element differs");
}

#[test]
fn deep_list_iteration_slices_and_counts() {
    let want = deep_elements();
    for left in [true, false] {
        let l = deep_list(left);
        assert_eq!(l.len(), DEEP);
        assert_eq!(l.cell_count(), DEEP + 1);
        assert!(l.iter().eq(want.iter()), "left={left}: iteration");
        assert!(l.tail().iter().eq(&want[1..]), "left={left}: tail");
        assert_eq!(Value::List(l).cell_count(), DEEP + 1);
    }
}

#[test]
fn deep_list_display_matches_the_flat_list() {
    let flat = Value::list(deep_elements()).to_string();
    for left in [true, false] {
        assert_eq!(
            Value::List(deep_list(left)).to_string(),
            flat,
            "left={left}"
        );
    }
}

#[test]
fn guarded_batch_survives_injected_panics_deterministically() {
    use fnc2::guard::{EvalBudget, FaultPlan, InjectedFault, PlannedFault, INJECTED_PANIC_MSG};
    use fnc2::par::{batch_evaluate_guarded, TreeOutcome};
    use fnc2::visit::Evaluator;

    let compiled = Pipeline::new().compile(fnc2_corpus::chain()).unwrap();
    let g = &compiled.grammar;
    let ev = Evaluator::new(g, &compiled.seqs);
    let trees: Vec<Tree> = (0..10)
        .map(|i| fnc2_corpus::chain_tree(g, 50 + 37 * i))
        .collect();
    let inputs = RootInputs::new();

    // No-fault reference, computed once.
    let reference: Vec<_> = trees
        .iter()
        .map(|t| ev.evaluate(t, &inputs).expect("reference").0)
        .collect();

    let plan = FaultPlan::with_faults(vec![
        PlannedFault {
            tree: 1,
            fault: InjectedFault::PanicAtStep { step: 9 },
            transient: true,
        },
        PlannedFault {
            tree: 3,
            fault: InjectedFault::PanicAtStep { step: 17 },
            transient: false,
        },
        PlannedFault {
            tree: 5,
            fault: InjectedFault::FailRule { step: 4 },
            transient: false,
        },
        PlannedFault {
            tree: 7,
            fault: InjectedFault::PanicOnEntry,
            transient: false,
        },
    ]);

    for threads in [1usize, 2, 4, 8] {
        let report = batch_evaluate_guarded(
            &ev,
            &trees,
            &inputs,
            threads,
            &EvalBudget::default(),
            1,
            Some(&plan),
        );
        assert_eq!(report.outcomes.len(), trees.len(), "{threads} threads");
        assert!(report.panics_caught >= 1, "{threads} threads");
        assert!(report.retries >= 1, "{threads} threads");
        for (i, outcome) in report.outcomes.iter().enumerate() {
            match (i, outcome) {
                (3 | 7, TreeOutcome::Panicked(msg)) => {
                    assert!(msg.contains(INJECTED_PANIC_MSG), "{threads} threads: {msg}")
                }
                (5, TreeOutcome::Failed(e)) => {
                    assert!(e.is_budget(), "{threads} threads: {e}")
                }
                (_, TreeOutcome::Ok(vals, _)) => {
                    // Survivors (including the retried transient tree 1)
                    // are bit-identical to the no-fault reference.
                    let differs = |&(n, a): &_| vals.get(g, n, a) != reference[i].get(g, n, a);
                    if let Some((n, _)) = trees[i].attr_instances(g).find(differs) {
                        panic!("{threads} threads: tree {i} node {n:?}");
                    }
                }
                (_, other) => {
                    panic!(
                        "{threads} threads: tree {i} unexpected outcome {}",
                        other.label()
                    )
                }
            }
        }
    }
}

/// Compiles `src`, a single-leaf AG of root `S`, and checks the named
/// root attributes under the exhaustive, dynamic, space-optimized and
/// incremental evaluators.
fn assert_leaf_ints(src: &str, want: &[(&str, i64)]) {
    let compiled = Pipeline::new().compile_olga(src).unwrap();
    let g = &compiled.grammar;
    let mut tb = TreeBuilder::new(g);
    let leaf = tb.op("leaf", &[]).unwrap();
    let tree = tb.finish_root(leaf).unwrap();
    let root = tree.root();
    let (a, _) = compiled.evaluate(&tree, &RootInputs::new()).unwrap();
    let (b, _) = DynamicEvaluator::new(g)
        .evaluate(&tree, &RootInputs::new())
        .unwrap();
    let (c, _) = compiled
        .evaluate_optimized(&tree, &RootInputs::new())
        .unwrap();
    let inc = IncrementalEvaluator::new(g, tree.clone(), Equality::default()).unwrap();
    let s = g.phylum_by_name("S").unwrap();
    for &(name, want) in want {
        let attr = g.attr_by_name(s, name).unwrap();
        let want = Some(&Value::Int(want));
        let ag = g.name();
        assert_eq!(a.get(g, root, attr), want, "{ag}: exhaustive S.{name}");
        assert_eq!(b.get(g, root, attr), want, "{ag}: dynamic S.{name}");
        assert_eq!(c.get(g, root, attr), want, "{ag}: space-optimized S.{name}");
        assert_eq!(inc.value(root, attr), want, "{ag}: incremental S.{name}");
    }
}

/// Translates `src` to C, which the system C compiler, when present, must
/// accept.
fn translation(src: &str) -> String {
    let units = fnc2::olga::parse_units(src).unwrap();
    let checked = fnc2::olga::check_units(units).unwrap();
    let env = checked.env.clone();
    let (grammar, _, rules) = fnc2::olga::lower(checked).unwrap();
    let compiled = Pipeline::new().compile(grammar).unwrap();
    let (g, seqs) = (&compiled.grammar, &compiled.seqs);
    let c = fnc2::codegen::to_c(&env, &rules, g, seqs);
    let cc = || std::process::Command::new("cc");
    if cc().arg("--version").output().is_ok() {
        let path = std::env::temp_dir().join(format!("fnc2_equivalence_{}.c", g.name()));
        std::fs::write(&path, &c).unwrap();
        let out = cc()
            .args(["-std=c99", "-fsyntax-only", "-Wno-unused-function"])
            .arg(&path)
            .output()
            .unwrap();
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "cc rejected the C:\n{err}\n{c}");
    }
    c
}

/// Production locals are scoped per rule block, as the checker scopes
/// them. In `shadow`, phase two's `x` is the imported constant, not phase
/// one's local; in `dup`, two phases each declare their own `x`.
#[test]
fn phase_locals_are_scoped_per_block_under_all_four_evaluators() {
    assert_leaf_ints(
        "
        module m;
          export x;
          const x : int = 5;
        end
        attribute grammar shadow;
          import x from m;
          phylum S;
          root S;
          operator leaf : S ::= ;
          synthesized a : int of S;
          synthesized b : int of S;
          phase one { for leaf { local x : int := 20; S.a := x + 1; } }
          phase two { for leaf { S.b := x + 2; } }
        end",
        &[("a", 21), ("b", 7)],
    );
    assert_leaf_ints(
        "
        attribute grammar dup;
          phylum S;
          root S;
          operator leaf : S ::= ;
          synthesized a : int of S;
          synthesized b : int of S;
          phase one { for leaf { local x : int := 20; S.a := x + 1; } }
          phase two { for leaf { local x : int := 30; S.b := x + 2; } }
        end",
        &[("a", 21), ("b", 32)],
    );
}

/// One fixture through every consumer of the checker's name resolution:
/// a parameter, a `let` binder and a `case` binder each shadow a constant,
/// a binder shadows a production local, and `ten` is reached only
/// through `scale`. Then a parameter that shares its name with a private
/// constant of its module, which is therefore no dependency: the importer
/// may declare its own.
#[test]
fn binders_shadow_constants_and_locals_in_every_consumer() {
    const SRC: &str = "
        module lib;
          export x, scale;
          const x : int = 1000;
          const ten : int = 10;
          function scale(x : int) : int = x * ten;
        end
        attribute grammar shadowing;
          import x, scale from lib;
          phylum S;
          root S;
          operator leaf : S ::= ;
          synthesized v : int of S;
          const y : int = 5;
          function pick(l : list of int) : int = case l of y :: _ => y | [] => x end;
          for leaf {
            local n : int := 3;
            S.v := let x = 2 in scale(x) end + pick([4]) + let n = 7 in n end + n + x + y;
          }
        end";
    assert_leaf_ints(SRC, &[("v", 20 + 4 + 7 + 3 + 1000 + 5)]);
    let c = translation(SRC);
    for bound in [
        "static V f0_scale(V u_x) {\n    return v_mul(u_x, c1_ten);",
        "{ V u_x = mk_int(2);",
        "f0_scale(u_x)",
        "{ V u_y = v_path(",
        "= u_y;",
        "{ V u_n = mk_int(7);",
    ] {
        assert!(c.contains(bound), "missing `{bound}` in:\n{c}");
    }
    assert!(
        (0..3).all(|k| !c.contains(&format!("c{k}_n"))),
        "`n` is a binder"
    );
    assert_leaf_ints(
        "
        module m; export f; const b : int = 7; function f(b : int) : int = b + 1; end
        attribute grammar ps;
          import f from m;
          phylum S; root S; operator leaf : S ::= ; synthesized v : int of S;
          const b : int = 41;
          for leaf { S.v := f(b); }
        end",
        &[("v", 42)],
    );
}

/// A constant reached through a function is evaluated after the constants
/// the function reads, and the C translator initialises it after them too.
#[test]
fn constants_read_through_functions_in_every_consumer() {
    const SRC: &str = "
        module n; export b; const b : int = 41; end
        attribute grammar cfun;
          import b from n;
          phylum S; root S; operator leaf : S ::= ; synthesized v : int of S;
          function f(x : int) : int = x + b;
          const a : int = f(1);
          for leaf { S.v := a; }
        end";
    assert_leaf_ints(SRC, &[("v", 42)]);
    let c = translation(SRC);
    let at = |text: &str, needle: &str| text.find(needle).expect(needle);
    assert!(at(&c, "c0_b = ") < at(&c, "c1_a = "), "{c}");
    assert!(
        at(&c, "static V c0_b;") < at(&c, "static V f0_f(V u_x) {"),
        "{c}"
    );
}
