//! Incremental-evaluation integration tests: downward propagation through
//! sibling subtrees (the DNC scenario), internal-node replacement, and
//! wave accounting.

use fnc2_ag::{Grammar, GrammarBuilder, Occ, TreeBuilder, Value};
use fnc2_incremental::{Equality, IncrementalEvaluator};
use fnc2_visit::{DynamicEvaluator, RootInputs};

/// `root : S ::= A B` with `B.base := A.sum`: an edit inside A must
/// propagate *down into B's subtree* (synthesized → sibling inherited →
/// descendants), the pattern DNC start-anywhere evaluation exists for.
fn cross_grammar_ok() -> Grammar {
    let mut g = GrammarBuilder::new("cross");
    let s = g.phylum("S");
    let a = g.phylum("A");
    let b = g.phylum("B");
    let out = g.syn(s, "out");
    let asum = g.syn(a, "sum");
    let bbase = g.inh(b, "base");
    let bout = g.syn(b, "out");
    g.func("add", 2, |v| Value::Int(v[0].as_int() + v[1].as_int()));
    g.func("succ", 1, |v| Value::Int(v[0].as_int() + 1));
    let root = g.production("root", s, &[a, b]);
    g.copy(root, Occ::new(2, bbase), Occ::new(1, asum));
    g.copy(root, Occ::lhs(out), Occ::new(2, bout));
    let aleaf = g.production("aleaf", a, &[]);
    g.copy(aleaf, Occ::lhs(asum), fnc2_ag::Arg::Token);
    let achain = g.production("achain", a, &[a]);
    g.call(achain, Occ::lhs(asum), "succ", [Occ::new(1, asum).into()]);
    // B: a chain threading base down and echoing it back up.
    let bleaf = g.production("bleaf", b, &[]);
    g.copy(bleaf, Occ::lhs(bout), Occ::lhs(bbase));
    let bchain = g.production("bchain", b, &[b]);
    g.call(bchain, Occ::new(1, bbase), "succ", [Occ::lhs(bbase).into()]);
    g.copy(bchain, Occ::lhs(bout), Occ::new(1, bout));
    g.finish().unwrap()
}

fn build_cross(g: &Grammar, a_depth: usize, b_depth: usize, leaf: i64) -> fnc2_ag::Tree {
    let mut tb = TreeBuilder::new(g);
    let mut a = tb
        .node_with_token(
            g.production_by_name("aleaf").unwrap(),
            &[],
            Some(Value::Int(leaf)),
        )
        .unwrap();
    for _ in 0..a_depth {
        a = tb.op("achain", &[a]).unwrap();
    }
    let mut b = tb.op("bleaf", &[]).unwrap();
    for _ in 0..b_depth {
        b = tb.op("bchain", &[b]).unwrap();
    }
    let root = tb.op("root", &[a, b]).unwrap();
    tb.finish_root(root).unwrap()
}

#[test]
fn edit_in_a_propagates_down_through_b() {
    let g = cross_grammar_ok();
    let tree = build_cross(&g, 3, 8, 10);
    let mut inc = IncrementalEvaluator::new(&g, tree, Equality::default()).unwrap();
    let s = g.phylum_by_name("S").unwrap();
    let out = g.attr_by_name(s, "out").unwrap();
    // out = (10+3) + 8 = 21.
    assert_eq!(inc.value(inc.tree().root(), out), Some(&Value::Int(21)));

    // Replace A's leaf: 10 → 100.
    let victim = inc
        .tree()
        .preorder()
        .find(|&(n, _)| inc.tree().node(n).token().is_some())
        .map(|(n, _)| n)
        .unwrap();
    let mut tb = TreeBuilder::new(&g);
    let nl = tb
        .node_with_token(
            g.production_by_name("aleaf").unwrap(),
            &[],
            Some(Value::Int(100)),
        )
        .unwrap();
    let sub = tb.finish(nl);
    let stats = inc.replace_subtree(victim, &sub).unwrap();
    assert_eq!(inc.value(inc.tree().root(), out), Some(&Value::Int(111)));
    // The wave crossed: A's spine (3) + root + B's whole chain (9 nodes ×
    // 2 attrs-ish). Everything B-side had to be reevaluated.
    assert!(stats.changed >= 9 + 3, "{stats:?}");

    // And a from-scratch run agrees on every instance.
    let (want, _) = DynamicEvaluator::new(&g)
        .evaluate(inc.tree(), &RootInputs::new())
        .unwrap();
    let differs = |&(n, a): &_| inc.value(n, a) != want.get(&g, n, a);
    assert_eq!(inc.tree().attr_instances(&g).find(differs), None);
}

#[test]
fn internal_node_replacement() {
    let g = cross_grammar_ok();
    let tree = build_cross(&g, 4, 2, 7);
    let mut inc = IncrementalEvaluator::new(&g, tree, Equality::default()).unwrap();
    // Replace an *internal* achain node (with its whole subtree) by a
    // fresh two-level chain over a new leaf.
    let victim = inc
        .tree()
        .preorder()
        .find(|&(n, _)| {
            g.production(inc.tree().node(n).production()).name() == "achain"
                && inc.tree().depth(n) == 2
        })
        .map(|(n, _)| n)
        .unwrap();
    let mut tb = TreeBuilder::new(&g);
    let leaf = tb
        .node_with_token(
            g.production_by_name("aleaf").unwrap(),
            &[],
            Some(Value::Int(50)),
        )
        .unwrap();
    let c1 = tb.op("achain", &[leaf]).unwrap();
    let c2 = tb.op("achain", &[c1]).unwrap();
    let sub = tb.finish(c2);
    inc.replace_subtree(victim, &sub).unwrap();
    let (want, _) = DynamicEvaluator::new(&g)
        .evaluate(inc.tree(), &RootInputs::new())
        .unwrap();
    let s = g.phylum_by_name("S").unwrap();
    let out = g.attr_by_name(s, "out").unwrap();
    assert_eq!(
        inc.value(inc.tree().root(), out),
        want.get(&g, inc.tree().root(), out)
    );
}

#[test]
fn semantic_cut_stops_the_wave_early() {
    // A saturating rule (`min(sum, 50)`) makes most edits semantically
    // invisible one level up: the Changed/Unchanged control must cut the
    // wave immediately instead of reevaluating the whole 200-node spine.
    let mut g = GrammarBuilder::new("saturate");
    let s = g.phylum("S");
    let a = g.phylum("A");
    let out = g.syn(s, "out");
    let asum = g.syn(a, "sum");
    g.func("cap50", 1, |v| Value::Int(v[0].as_int().min(50)));
    let root = g.production("root", s, &[a]);
    g.copy(root, Occ::lhs(out), Occ::new(1, asum));
    let aleaf = g.production("aleaf", a, &[]);
    g.copy(aleaf, Occ::lhs(asum), fnc2_ag::Arg::Token);
    let achain = g.production("achain", a, &[a]);
    g.call(achain, Occ::lhs(asum), "cap50", [Occ::new(1, asum).into()]);
    let g = g.finish().unwrap();

    let mut tb = TreeBuilder::new(&g);
    let mut cur = tb
        .node_with_token(
            g.production_by_name("aleaf").unwrap(),
            &[],
            Some(Value::Int(60)),
        )
        .unwrap();
    for _ in 0..200 {
        cur = tb.op("achain", &[cur]).unwrap();
    }
    let root = tb.op("root", &[cur]).unwrap();
    let tree = tb.finish_root(root).unwrap();
    let mut inc = IncrementalEvaluator::new(&g, tree, Equality::default()).unwrap();
    let instances = inc.instance_count();

    // 60 → 70: still capped at 50 one level up.
    let victim = inc
        .tree()
        .preorder()
        .find(|&(n, _)| inc.tree().node(n).token().is_some())
        .map(|(n, _)| n)
        .unwrap();
    let mut tb = TreeBuilder::new(&g);
    let nl = tb
        .node_with_token(
            g.production_by_name("aleaf").unwrap(),
            &[],
            Some(Value::Int(70)),
        )
        .unwrap();
    let sub = tb.finish(nl);
    let stats = inc.replace_subtree(victim, &sub).unwrap();
    assert!(
        stats.reevaluated <= 3,
        "the cap cuts immediately: {stats:?} of {instances}"
    );
    assert!(stats.cut >= 1, "{stats:?}");
    let s_ph = g.phylum_by_name("S").unwrap();
    let out = g.attr_by_name(s_ph, "out").unwrap();
    assert_eq!(inc.value(inc.tree().root(), out), Some(&Value::Int(50)));
}
