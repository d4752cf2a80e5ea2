//! Wave tests: every instance fires at most once per wave, an edited
//! node's synthesized instance too when a later visit's input changes, a
//! circular tree is a classified error, and a wave stopped by its budget
//! leaves the next wave correct.

use std::collections::HashMap;

use fnc2_ag::{Grammar, GrammarBuilder, NodeId, ONode, Occ, Tree, TreeBuilder, Value};
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
    let differs = |&(n, a): &_| inc.value(n, a) != want.get(g, n, a);
    if let Some((n, a)) = t.attr_instances(g).find(differs) {
        panic!("{n}.{}", g.attr(a).name());
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

/// Folds every `RuleFired` and `StatusComputed` event, in emission order,
/// and each wave's stats into one FNV-1a hash.
struct WaveDigest(u64);

impl WaveDigest {
    fn fold(&mut self, text: &str) {
        self.0 = text.bytes().fold(self.0, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        });
    }
}

impl Recorder for WaveDigest {
    fn trace(&self) -> bool {
        true
    }

    fn emit(&mut self, event: Event) {
        if matches!(
            event,
            Event::RuleFired { .. } | Event::StatusComputed { .. }
        ) {
            self.fold(&format!("{event:?}"));
        }
    }
}

/// Pins what four mini-Pascal edit waves fire, decide and count, so a
/// rework of the wave can be shown to fire the same rules in the same
/// order: the statement edit above, a literal replaced by another, a
/// declaration's `integer` swapped for `boolean` and a `+` for a `-`.
#[test]
fn wave_events_match_their_pinned_digests() {
    let (g, _) = fnc2_corpus::minipascal();
    let tree = fnc2_corpus::parse_minipascal(&g, &fnc2_corpus::sample_program(6)).unwrap();
    let mut inc = IncrementalEvaluator::new(&g, tree, Equality::default()).unwrap();
    let nodes_of = |inc: &IncrementalEvaluator, op: &str| -> Vec<NodeId> {
        let p = g.production_by_name(op).unwrap();
        let t = inc.tree();
        t.preorder()
            .map(|(n, _)| n)
            .filter(|&n| t.node(n).production() == p)
            .collect()
    };
    let want: [u64; 4] = [
        0x05e2_4594_e27e_ace9, // the statement edit: 290 fired, 280 changed
        0x2b43_0194_21d6_9fcc, // the last literal: 35 fired, 33 changed
        0x78ab_a7cb_cd57_9dac, // `integer` to `boolean`: 609 fired, 383 changed
        0xe1d3_3d4a_139e_8876, // `+` to `-`: 25 fired, 7 changed
    ];
    let mut got = Vec::new();
    for edit in 0..4 {
        let mut digest = WaveDigest(0xcbf2_9ce4_8422_2325);
        let stats = match edit {
            0 => {
                let at = nodes_of(&inc, "assign")[0];
                let mut tb = TreeBuilder::new(&g);
                let cond = tb.op("etrue", &[]).unwrap();
                let body = tb.op("stmts_nil", &[]).unwrap();
                let wh = tb.op("swhile", &[cond, body]).unwrap();
                inc.replace_subtrees_recorded(vec![(at, tb.finish(wh))], &mut digest)
            }
            1 => {
                let at = *nodes_of(&inc, "elit").last().unwrap();
                let lit = token_leaf(&g, "elit", 42);
                inc.replace_subtrees_recorded(vec![(at, lit)], &mut digest)
            }
            2 => {
                let at = nodes_of(&inc, "tint")[0];
                let tbool = g.production_by_name("tbool").unwrap();
                inc.swap_production_recorded(at, tbool, &mut digest)
            }
            _ => {
                let at = nodes_of(&inc, "eadd")[0];
                let esub = g.production_by_name("esub").unwrap();
                inc.swap_production_recorded(at, esub, &mut digest)
            }
        }
        .unwrap();
        digest.fold(&format!("{stats:?}"));
        got.push(digest.0);
    }
    assert_matches_scratch(&g, &inc);
    for (edit, (got, want)) in got.iter().zip(want).enumerate() {
        assert_eq!(*got, want, "edit {edit}: wave digest {got:#018x}");
    }
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

/// The edited leaf's `s2` reads `i2`, which the root computes from the
/// leaf's new `s1`: `s2` fires once, after `i2`, and `S.out` fires because
/// `s2` differs from its value before the edit, also under leaf `keep`,
/// which ignores `i2`. Every instance of the wave fires once.
#[test]
fn a_later_visit_input_change_fires_the_edited_node_once() {
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
        let twice: Vec<_> = fired.0.iter().filter(|&(_, &k)| k > 1).collect();
        assert!(twice.is_empty(), "{op}: fired more than once: {twice:?}");
        // s1, l, i2, s2 and out.
        assert_eq!(stats.reevaluated, 5, "{op}: {stats:?}");
        assert_eq!(fired.0.len(), 5, "{op}: {:?}", fired.0);
    }
}

/// `top : S ::= A` with `A.i := A.s0` and `S.out := A.s0`, over a leaf
/// with `A.s0 := A.i`: every instance of the tree waits on another.
fn circular_grammar() -> Grammar {
    let mut g = GrammarBuilder::new("circular");
    let s = g.phylum("S");
    let a = g.phylum("A");
    let out = g.syn(s, "out");
    let i = g.inh(a, "i");
    let s0 = g.syn(a, "s0");
    let top = g.production("top", s, &[a]);
    g.copy(top, Occ::new(1, i), Occ::new(1, s0));
    g.copy(top, Occ::lhs(out), Occ::new(1, s0));
    let leaf = g.production("leaf", a, &[]);
    g.copy(leaf, Occ::lhs(s0), Occ::lhs(i));
    g.finish().unwrap()
}

/// A circular tree is a classified `CircularInstance`, under the default
/// budget and under no budget at all: the settle finds instances that
/// never become ready, and no limit has to stop it.
#[test]
fn a_circular_tree_is_a_circular_instance() {
    let g = circular_grammar();
    let tree = || {
        let mut tb = TreeBuilder::new(&g);
        let leaf = tb.op("leaf", &[]).unwrap();
        let top = tb.op("top", &[leaf]).unwrap();
        tb.finish_root(top).unwrap()
    };
    let circular = |r: Result<IncrementalEvaluator, EvalError>| match r {
        Err(EvalError::CircularInstance { .. }) => {}
        Err(e) => panic!("not a circular instance: {e}"),
        Ok(_) => panic!("a circular tree evaluated"),
    };
    circular(IncrementalEvaluator::new(&g, tree(), Equality::default()));
    circular(IncrementalEvaluator::with_inputs(
        &g,
        tree(),
        RootInputs::new(),
        Equality::default(),
        EvalBudget::unlimited(),
    ));
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

/// Asserts that `result` is a step-budget error raised while firing a rule
/// of the production at `node`.
fn assert_steps_exceeded<T: std::fmt::Debug>(
    result: Result<T, Box<dyn std::error::Error>>,
    node: NodeId,
) {
    let err = result.unwrap_err();
    match err.downcast_ref::<EvalError>() {
        Some(EvalError::BudgetExceeded {
            kind: BudgetKind::Steps,
            at,
        }) => assert_eq!(at, &format!("incremental evaluator, {node}")),
        _ => panic!("not a step-budget error: {err}"),
    }
}

/// Under a budget of 10 steps a wave can stop outside the edited subtree
/// or inside it. Either way the error is a classified `BudgetExceeded`
/// naming the node whose rule it stopped at, and the next wave on the
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
    let root = inc.tree().root();
    assert_steps_exceeded(inc.replace_subtrees(edit), root);
    // An edit that changes nothing of its own settles `S.out` too.
    let mut tb = TreeBuilder::new(&g);
    let same = tb.op("bleaf", &[]).unwrap();
    inc.replace_subtrees(vec![(b_leaf(&inc), tb.finish(same))])
        .unwrap();
    assert_matches_scratch(&g, &inc);

    // Thirteen steps to evaluate the new A from its leaf up: the wave
    // stops at its third node from the top, before anything outside it
    // fires. Replacing that A again settles what the wave left.
    let edit = vec![(a_at(&inc), a_chain(&g, 12, 10))];
    let result = inc.replace_subtrees(edit);
    let below = |n| inc.tree().node(n).children()[0];
    assert_steps_exceeded(result, below(below(a_at(&inc))));
    inc.replace_subtrees(vec![(a_at(&inc), a_chain(&g, 0, 7))])
        .unwrap();
    assert_matches_scratch(&g, &inc);
    let s = g.phylum_by_name("S").unwrap();
    let out = g.attr_by_name(s, "out").unwrap();
    assert_eq!(inc.value(inc.tree().root(), out), Some(&Value::Int(8)));
}
