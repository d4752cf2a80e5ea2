//! Evaluator integration tests: multi-partition dispatch, cross-visit
//! locals, deep trees, and visit accounting.

use fnc2_ag::{Grammar, GrammarBuilder, ONode, Occ, TreeBuilder, Value};
use fnc2_analysis::{classify, snc_test, snc_to_l_ordered, Inclusion};
use fnc2_visit::{build_visit_seqs, DynamicEvaluator, Evaluator, RootInputs};

/// The AG5 shape: X is used under two contexts that need *different*
/// partitions; the compiled evaluator must dispatch the right partition
/// per VISIT ("recursive VISIT instructions carry an additional parameter
/// that identifies the partition to use on the visited node").
#[test]
fn multi_partition_dispatch_is_correct() {
    let g = fnc2_corpus::snc_only();
    let c = classify(&g, 1, Inclusion::Long).unwrap();
    let lo = c.l_ordered.unwrap();
    let x = g.phylum_by_name("X").unwrap();
    assert_eq!(lo.partitions_of(x).len(), 2, "two partitions on X");
    let seqs = build_visit_seqs(&g, &lo);
    let ev = Evaluator::new(&g, &seqs);
    let dynev = DynamicEvaluator::new(&g);
    for ctx in ["ctx_a", "ctx_b"] {
        let mut tb = TreeBuilder::new(&g);
        let leaf = tb.op("leafx", &[]).unwrap();
        let root = tb.op(ctx, &[leaf]).unwrap();
        let tree = tb.finish_root(root).unwrap();
        let (a, _) = ev.evaluate(&tree, &RootInputs::new()).unwrap();
        let (b, _) = dynev.evaluate(&tree, &RootInputs::new()).unwrap();
        let differs = |&(n, x): &_| a.get(&g, n, x) != b.get(&g, n, x);
        assert_eq!(tree.attr_instances(&g).find(differs), None, "{ctx}");
    }
}

/// A production-local attribute computed in visit 1 and used in visit 2:
/// locals must survive across segments of the same node activation.
#[test]
fn locals_survive_across_visits() {
    let mut g = GrammarBuilder::new("crossvisit_local");
    let s = g.phylum("S");
    let a = g.phylum("A");
    let out = g.syn(s, "out");
    let i1 = g.inh(a, "i1");
    let s1 = g.syn(a, "s1");
    let i2 = g.inh(a, "i2");
    let s2 = g.syn(a, "s2");
    g.func("add", 2, |v| Value::Int(v[0].as_int() + v[1].as_int()));
    g.func("mul10", 1, |v| Value::Int(v[0].as_int() * 10));
    let root = g.production("root", s, &[a]);
    g.constant(root, Occ::new(1, i1), Value::Int(3));
    // i2 depends on s1 → forces 2 visits on A.
    g.copy(root, Occ::new(1, i2), Occ::new(1, s1));
    g.copy(root, Occ::lhs(out), Occ::new(1, s2));
    let leaf = g.production("leafa", a, &[]);
    let tmp = g.local(leaf, "tmp");
    // tmp computed from i1 (available in visit 1).
    g.call(leaf, ONode::Local(tmp), "mul10", [Occ::lhs(i1).into()]);
    g.copy(leaf, Occ::lhs(s1), Occ::lhs(i1));
    // s2 (visit 2) reads BOTH i2 and the visit-1 local.
    g.call(
        leaf,
        Occ::lhs(s2),
        "add",
        [Occ::lhs(i2).into(), fnc2_ag::Arg::Node(ONode::Local(tmp))],
    );
    let g = g.finish().unwrap();

    let c = classify(&g, 1, Inclusion::Long).unwrap();
    let lo = c.l_ordered.unwrap();
    let a_ph = g.phylum_by_name("A").unwrap();
    assert_eq!(lo.partitions_of(a_ph)[0].visit_count(), 2);
    let seqs = build_visit_seqs(&g, &lo);
    let ev = Evaluator::new(&g, &seqs);
    let mut tb = TreeBuilder::new(&g);
    let leaf = tb.op("leafa", &[]).unwrap();
    let root = tb.op("root", &[leaf]).unwrap();
    let tree = tb.finish_root(root).unwrap();
    let (vals, stats) = ev.evaluate(&tree, &RootInputs::new()).unwrap();
    let s_ph = g.phylum_by_name("S").unwrap();
    let out = g.attr_by_name(s_ph, "out").unwrap();
    // out = i2 + tmp = s1 + 10*i1 = 3 + 30 = 33.
    assert_eq!(vals.get(&g, tree.root(), out), Some(&Value::Int(33)));
    assert!(stats.visits >= 3, "root once + A twice");
}

/// Deep chains exercise the recursion depth of the interpreter.
#[test]
fn deep_chain_evaluates() {
    let mut g = GrammarBuilder::new("deep");
    let s = g.phylum("S");
    let n = g.syn(s, "n");
    g.func("succ", 1, |a| Value::Int(a[0].as_int() + 1));
    let leaf = g.production("leaf", s, &[]);
    g.constant(leaf, Occ::lhs(n), Value::Int(0));
    let node = g.production("node", s, &[s]);
    g.call(node, Occ::lhs(n), "succ", [Occ::new(1, n).into()]);
    let g = g.finish().unwrap();

    let snc = snc_test(&g);
    let lo = snc_to_l_ordered(&g, &snc, Inclusion::Long).unwrap();
    let seqs = build_visit_seqs(&g, &lo);
    let ev = Evaluator::new(&g, &seqs);
    let mut tb = TreeBuilder::new(&g);
    let mut cur = tb.op("leaf", &[]).unwrap();
    const DEPTH: usize = 20_000;
    for _ in 0..DEPTH {
        cur = tb.op("node", &[cur]).unwrap();
    }
    let tree = tb.finish_root(cur).unwrap();
    let (vals, stats) = ev.evaluate(&tree, &RootInputs::new()).unwrap();
    assert_eq!(
        vals.get(&g, tree.root(), n),
        Some(&Value::Int(DEPTH as i64))
    );
    assert_eq!(stats.visits, DEPTH + 1);
    assert_eq!(stats.evals, DEPTH + 1);
}

/// Visit accounting: every node is visited exactly
/// `visit_count(partition)` times in an exhaustive run.
#[test]
fn visit_counts_match_partitions() {
    let g = fnc2_corpus::blocks();
    let c = classify(&g, 1, Inclusion::Long).unwrap();
    let lo = c.l_ordered.unwrap();
    let seqs = build_visit_seqs(&g, &lo);
    let ev = Evaluator::new(&g, &seqs);
    let tree = fnc2_corpus::blocks_tree(&g, "d:a u:a [ d:b u:b ] u:c");
    let (_, stats) = ev.evaluate(&tree, &RootInputs::new()).unwrap();
    // Sum over nodes of their partition's visit count.
    let expected: usize = tree
        .preorder()
        .map(|(n, _)| {
            let ph = tree.phylum(&g, n);
            lo.partitions_of(ph)[0].visit_count()
        })
        .sum();
    assert_eq!(stats.visits, expected);
}

/// Copies are counted by the evaluator (the §4.1 statistics feed).
#[test]
fn copy_stats_counted() {
    let g = fnc2_corpus::desk();
    let snc = snc_test(&g);
    let lo = snc_to_l_ordered(&g, &snc, Inclusion::Long).unwrap();
    let seqs = build_visit_seqs(&g, &lo);
    let ev = Evaluator::new(&g, &seqs);
    let mut tb = TreeBuilder::new(&g);
    let l1 = tb
        .node_with_token(
            g.production_by_name("lit").unwrap(),
            &[],
            Some(Value::Int(1)),
        )
        .unwrap();
    let l2 = tb
        .node_with_token(
            g.production_by_name("lit").unwrap(),
            &[],
            Some(Value::Int(2)),
        )
        .unwrap();
    let sum = tb.op("add", &[l1, l2]).unwrap();
    let root = tb.op("prog", &[sum]).unwrap();
    let tree = tb.finish_root(root).unwrap();
    let (_, stats) = ev.evaluate(&tree, &RootInputs::new()).unwrap();
    // env copies into both children of `add` are occurrence copies.
    assert!(stats.copies >= 2, "{stats:?}");
    assert!(stats.evals > stats.copies);
}

/// Grammars where a phylum has several productions with different local
/// dependency shapes still produce one coherent partition.
#[test]
fn mixed_productions_share_one_partition() {
    let g: Grammar = fnc2_corpus::binary();
    let snc = snc_test(&g);
    let lo = snc_to_l_ordered(&g, &snc, Inclusion::Long).unwrap();
    let seq_ph = g.phylum_by_name("Seq").unwrap();
    // `pair` and `single` agree on Seq's partition, `number` and
    // `fraction` both plan against it.
    for p in g.phylum(seq_ph).productions() {
        assert!(!lo.plans[p.index()].is_empty());
    }
}
