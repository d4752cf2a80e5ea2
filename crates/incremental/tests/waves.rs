//! Wave tests: every instance fires at most once per wave (an edited
//! node's synthesized instance at most twice), a source that a later
//! visit's input changes fires again, and a wave stopped by its budget
//! leaves the next wave correct.

use std::collections::HashMap;

use fnc2_ag::{Grammar, GrammarBuilder, ONode, Occ, Tree, TreeBuilder, Value};
use fnc2_guard::{BudgetKind, EvalBudget};
use fnc2_incremental::{Equality, IncrementalEvaluator};
use fnc2_obs::{Event, Recorder};
use fnc2_visit::{DynamicEvaluator, EvalError, RootInputs};

/// Counts the `RuleFired` events of a wave per `(node, production, rule)`.
#[derive(Default)]
struct Firings(HashMap<(u32, u32, u32), usize>);

impl Recorder for Firings {
    fn trace(&self) -> bool {
        true
    }

    fn emit(&mut self, event: Event) {
        if let Event::RuleFired {
            node,
            production,
            rule,
        } = event
        {
            *self.0.entry((node, production, rule)).or_default() += 1;
        }
    }
}

/// Checks every attribute instance of `inc.tree()` against a from-scratch
/// evaluation.
fn assert_matches_scratch(g: &Grammar, inc: &IncrementalEvaluator) {
    let t = inc.tree();
    let (want, _) = DynamicEvaluator::new(g)
        .evaluate(t, &RootInputs::new())
        .unwrap();
    for (n, _) in t.preorder() {
        for &a in g.phylum(t.phylum(g, n)).attrs() {
            let name = g.attr(a).name();
            assert_eq!(inc.value(n, a), want.get(g, n, a), "{n}.{name}");
        }
    }
}

/// A one-node subtree applying `op` with token `v`.
fn token_leaf(g: &Grammar, op: &str, v: i64) -> Tree {
    let mut tb = TreeBuilder::new(g);
    let p = g.production_by_name(op).unwrap();
    let n = tb.node_with_token(p, &[], Some(Value::Int(v))).unwrap();
    tb.finish(n)
}

/// Mini-Pascal threads `labin`/`labout` through every statement, so an
/// edit that uses two more labels changes the code of every later `if` and
/// `while`, and each `Stmts.code := Stmt.code ++ Stmts$2.code` up the
/// spine is reached along paths of many lengths. It fires once.
#[test]
fn a_statement_edit_fires_each_instance_once() {
    let (g, _) = fnc2_corpus::minipascal();
    let tree = fnc2_corpus::parse_minipascal(&g, &fnc2_corpus::sample_program(6)).unwrap();
    let mut inc = IncrementalEvaluator::new(&g, tree, Equality::default()).unwrap();
    // The first statement, `n := 100`, becomes `while true do end`.
    let assign = g.production_by_name("assign").unwrap();
    let at = inc
        .tree()
        .preorder()
        .map(|(n, _)| n)
        .find(|&n| inc.tree().node(n).production() == assign)
        .unwrap();
    let mut tb = TreeBuilder::new(&g);
    let cond = tb.op("etrue", &[]).unwrap();
    let body = tb.op("stmts_nil", &[]).unwrap();
    let wh = tb.op("swhile", &[cond, body]).unwrap();
    let mut fired = Firings::default();
    let stats = inc
        .replace_subtrees_recorded(vec![(at, tb.finish(wh))], &mut fired)
        .unwrap();
    assert_matches_scratch(&g, &inc);
    assert!(stats.changed > 20, "the labels shift: {stats:?}");
    assert_eq!(
        fired.0.values().sum::<usize>(),
        stats.reevaluated,
        "one event per firing"
    );
    let twice: Vec<_> = fired.0.iter().filter(|&(_, &k)| k > 1).collect();
    assert!(twice.is_empty(), "fired more than once: {twice:?}");
}

/// `root : S ::= X` with `X.i2 := X.s1` and `S.out := X.s2`: `X` has two
/// visits, and its visit-2 inherited `i2` reads its own visit-1
/// synthesized `s1`. A leaf copies its token to `s1` and `s1` to a local
/// `l`; leaf `add` makes `s2 := i2 + l`, leaf `keep` makes `s2 := 10 * l`,
/// reading `i2` but not using it.
fn two_pass_grammar() -> Grammar {
    let mut g = GrammarBuilder::new("two_pass");
    let s = g.phylum("S");
    let x = g.phylum("X");
    let out = g.syn(s, "out");
    let s1 = g.syn(x, "s1");
    let i2 = g.inh(x, "i2");
    let s2 = g.syn(x, "s2");
    g.func("add", 2, |v| Value::Int(v[0].as_int() + v[1].as_int()));
    g.func("keep", 2, |v| Value::Int(10 * v[1].as_int()));
    let root = g.production("root", s, &[x]);
    g.copy(root, Occ::new(1, i2), Occ::new(1, s1));
    g.copy(root, Occ::lhs(out), Occ::new(1, s2));
    for (op, func) in [("add", "add"), ("keep", "keep")] {
        let leaf = g.production(op, x, &[]);
        let l = g.local(leaf, "l");
        g.copy(leaf, Occ::lhs(s1), fnc2_ag::Arg::Token);
        g.copy(leaf, l, Occ::lhs(s1));
        g.call(
            leaf,
            Occ::lhs(s2),
            func,
            [Occ::lhs(i2).into(), ONode::Local(l).into()],
        );
    }
    g.finish().unwrap()
}

/// The edited leaf's `s2` is computed in the subtree evaluation from the
/// old `i2`, which then changes: `s2` must fire again before `S.out`
/// reads it, and `S.out` must fire even when the second firing of `s2`
/// returns its first value (leaf `keep`), which still differs from the
/// value before the edit. `l` read the new `s1` in the subtree evaluation
/// and does not fire again.
#[test]
fn a_source_fires_again_when_its_later_visit_input_changes() {
    let g = two_pass_grammar();
    let x = g.phylum_by_name("X").unwrap();
    let s2 = g.attr_by_name(x, "s2").unwrap();
    for op in ["add", "keep"] {
        let mut tb = TreeBuilder::new(&g);
        let p = g.production_by_name(op).unwrap();
        let leaf = tb.node_with_token(p, &[], Some(Value::Int(1))).unwrap();
        let root = tb.op("root", &[leaf]).unwrap();
        let tree = tb.finish_root(root).unwrap();
        let mut inc = IncrementalEvaluator::new(&g, tree, Equality::default()).unwrap();
        let at = inc.tree().node(inc.tree().root()).children()[0];
        let mut fired = Firings::default();
        let stats = inc
            .replace_subtrees_recorded(vec![(at, token_leaf(&g, op, 5))], &mut fired)
            .unwrap();
        assert_matches_scratch(&g, &inc);
        let new = inc.tree().node(inc.tree().root()).children()[0];
        let want = if op == "add" { 10 } else { 50 };
        assert_eq!(inc.value(new, s2), Some(&Value::Int(want)), "{op}");
        let s2_rule = 2;
        for (&(node, _, rule), &k) in &fired.0 {
            let bound = if node == new.index() as u32 && rule == s2_rule {
                2
            } else {
                1
            };
            assert!(k <= bound, "{op}: node {node} rule {rule} fired {k} times");
        }
        // s1, l, s2, then i2, s2 again and out.
        assert_eq!(stats.reevaluated, 6, "{op}: {stats:?}");
    }
}

/// `root : S ::= A B` with `B.base := A.sum`, `S.out := B.out`: A is a
/// chain of `succ`s over a token, B threads `base` down a chain and back
/// up as `out`.
fn cross_grammar() -> Grammar {
    let mut g = GrammarBuilder::new("cross");
    let s = g.phylum("S");
    let a = g.phylum("A");
    let b = g.phylum("B");
    let out = g.syn(s, "out");
    let asum = g.syn(a, "sum");
    let bbase = g.inh(b, "base");
    let bout = g.syn(b, "out");
    g.func("succ", 1, |v| Value::Int(v[0].as_int() + 1));
    let root = g.production("root", s, &[a, b]);
    g.copy(root, Occ::new(2, bbase), Occ::new(1, asum));
    g.copy(root, Occ::lhs(out), Occ::new(2, bout));
    let aleaf = g.production("aleaf", a, &[]);
    g.copy(aleaf, Occ::lhs(asum), fnc2_ag::Arg::Token);
    let achain = g.production("achain", a, &[a]);
    g.call(achain, Occ::lhs(asum), "succ", [Occ::new(1, asum).into()]);
    let bleaf = g.production("bleaf", b, &[]);
    g.copy(bleaf, Occ::lhs(bout), Occ::lhs(bbase));
    let bchain = g.production("bchain", b, &[b]);
    g.call(bchain, Occ::new(1, bbase), "succ", [Occ::lhs(bbase).into()]);
    g.copy(bchain, Occ::lhs(bout), Occ::new(1, bout));
    g.finish().unwrap()
}

/// `achain^k(aleaf(v))` as a subtree.
fn a_chain(g: &Grammar, k: usize, v: i64) -> Tree {
    let mut tb = TreeBuilder::new(g);
    let aleaf = g.production_by_name("aleaf").unwrap();
    let mut a = tb.node_with_token(aleaf, &[], Some(Value::Int(v))).unwrap();
    for _ in 0..k {
        a = tb.op("achain", &[a]).unwrap();
    }
    tb.finish(a)
}

/// Asserts that `result` is a step-budget error raised by the loop `at`.
fn assert_steps_exceeded<T: std::fmt::Debug>(
    result: Result<T, Box<dyn std::error::Error>>,
    at: &str,
) {
    let err = result.unwrap_err();
    match err.downcast_ref::<EvalError>() {
        Some(EvalError::BudgetExceeded {
            kind: BudgetKind::Steps,
            at: where_,
        }) => assert_eq!(where_, at),
        _ => panic!("not a step-budget error: {err}"),
    }
}

/// Under a budget of 10 steps a wave can stop in the middle of its
/// propagation (step 2) or of its subtree evaluation (step 0). Either way
/// the error is a classified `BudgetExceeded`, and the next wave on the
/// same evaluator, settling what the failed one left, is correct.
#[test]
fn a_budget_trip_leaves_the_next_wave_correct() {
    let g = cross_grammar();
    let mut tb = TreeBuilder::new(&g);
    let aleaf = g.production_by_name("aleaf").unwrap();
    let a0 = tb
        .node_with_token(aleaf, &[], Some(Value::Int(10)))
        .unwrap();
    let a = tb.op("achain", &[a0]).unwrap();
    let b0 = tb.op("bleaf", &[]).unwrap();
    let b = tb.op("bchain", &[b0]).unwrap();
    let root = tb.op("root", &[a, b]).unwrap();
    let tree = tb.finish_root(root).unwrap();
    let budget = EvalBudget::default().with_max_steps(10);
    // 7 instances: the initial decoration fits.
    let mut inc =
        IncrementalEvaluator::with_inputs(&g, tree, RootInputs::new(), Equality::default(), budget)
            .unwrap();
    let a_at = |inc: &IncrementalEvaluator| inc.tree().node(inc.tree().root()).children()[0];
    let b_leaf = |inc: &IncrementalEvaluator| {
        let b = inc.tree().node(inc.tree().root()).children()[1];
        inc.tree().node(b).children()[0]
    };

    // Six steps evaluate the new A, and the propagation through B's four
    // instances and `S.out` needs a fifth: it stops at `S.out`.
    let edit = vec![(a_at(&inc), a_chain(&g, 5, 10))];
    assert_steps_exceeded(inc.replace_subtrees(edit), "incremental propagation");
    // An edit that changes nothing of its own settles `S.out` too.
    let mut tb = TreeBuilder::new(&g);
    let same = tb.op("bleaf", &[]).unwrap();
    inc.replace_subtrees(vec![(b_leaf(&inc), tb.finish(same))])
        .unwrap();
    assert_matches_scratch(&g, &inc);

    // Thirteen steps to evaluate the new A: the wave stops before any
    // propagation. Replacing that A again settles the wave it abandoned.
    let edit = vec![(a_at(&inc), a_chain(&g, 12, 10))];
    assert_steps_exceeded(inc.replace_subtrees(edit), "incremental evaluator");
    inc.replace_subtrees(vec![(a_at(&inc), a_chain(&g, 0, 7))])
        .unwrap();
    assert_matches_scratch(&g, &inc);
    let s = g.phylum_by_name("S").unwrap();
    let out = g.attr_by_name(s, "out").unwrap();
    assert_eq!(inc.value(inc.tree().root(), out), Some(&Value::Int(8)));
}
