//! The dense numberings agree everywhere: a production's occurrence
//! numbering (`Production::nodes`) is what the dependency graph, the
//! object index, the flattened program and `Grammar::rule_for` index by,
//! and a sequence's number is its place in key order (production, then
//! LHS partition) in the transformation's plans, the visit sequences, the
//! flattened program and the access tables alike.

use fnc2::ag::{AttrId, DepGraph, Grammar, LocalId, ONode, Occ};
use fnc2::analysis::{classify, Inclusion};
use fnc2::space::analyze_space;
use fnc2::visit::build_visit_seqs;
use fnc2_corpus as corpus;

/// Desk, blocks, mini-Pascal and binary, the seven Table 1 profiles, a
/// 64-wide flat grammar and 32 fuzz-generator grammars.
fn grammars() -> Vec<Grammar> {
    let mut gs = vec![
        corpus::desk(),
        corpus::blocks(),
        corpus::minipascal().0,
        corpus::binary(),
        corpus::flat(64),
    ];
    gs.extend(corpus::TABLE1_PROFILES.iter().map(corpus::synthetic));
    gs.extend((0..32).map(|case| {
        fnc2::fuzz::gen::build_grammar(&fnc2::fuzz::CaseParams::for_case(0, case)).grammar
    }));
    gs
}

/// Checks every numbering of `g`; the message names the grammar and what
/// disagreed.
fn check(g: &Grammar) {
    let name = g.name();
    for p in g.productions() {
        let prod = g.production(p);
        let dep = DepGraph::of(g, p);
        assert_eq!(dep.len(), prod.nodes().len(), "{name} {p}: node count");
        for i in 0..dep.len() {
            let node = dep.node(i);
            assert_eq!(dep.index_of(node), Some(i), "{name} {p}: node {i}");
            // The rule defining a node is the one whose target it is.
            let want = prod.rules().iter().find(|r| r.target() == node);
            let got = g.rule_for(p, node);
            assert_eq!(
                got.map(|r| r as *const _),
                want.map(|r| r as *const _),
                "{name} {p}: rule for node {i}"
            );
        }
        // Nodes that are not the production's have no number.
        let arity = prod.arity() as u16;
        for pos in 0..=arity {
            let ph = prod.phylum_at(pos);
            let stranger =
                (0..g.attr_count() as u32).find(|&a| g.attr(AttrId::from_raw(a)).phylum() != ph);
            if let Some(a) = stranger {
                let node = ONode::Attr(Occ::new(pos, AttrId::from_raw(a)));
                assert_eq!(
                    dep.index_of(node),
                    None,
                    "{name} {p}: {node} off its phylum"
                );
            }
        }
        if let Some(&a) = g.phylum(prod.lhs()).attrs().first() {
            let past = ONode::Attr(Occ::new(arity + 1, a));
            assert_eq!(dep.index_of(past), None, "{name} {p}: past the arity");
        }
        let local = ONode::Local(LocalId::from_raw(prod.locals().len() as u32));
        assert_eq!(dep.index_of(local), None, "{name} {p}: past the locals");
    }

    let class = classify(g, 1, Inclusion::Long).unwrap_or_else(|e| panic!("{name}: {e}"));
    let lo = class.l_ordered.as_ref().expect("l-ordered");
    let seqs = build_visit_seqs(g, lo);
    let (fp, objects, _, plan) = analyze_space(g, &seqs);
    for i in 0..objects.len() {
        assert_eq!(objects.index(objects.object(i)), i, "{name}: object {i}");
    }
    let keys = seqs.keys();
    assert!(keys.windows(2).all(|w| w[0] < w[1]), "{name}: key order");
    let n = keys.len();
    let counts = [fp.seqs.len(), fp.instances.len(), plan.access.len()];
    assert_eq!(counts, [n; 3], "{name}: sequence counts");
    assert_eq!(lo.iter().count(), n, "{name}: plan count");
    let tables = (seqs.iter().zip(lo.iter()))
        .zip(fp.seqs.iter().zip(&fp.instances))
        .zip(&plan.access);
    for (k, (((seq, (key, _)), (fs, insts)), access)) in tables.enumerate() {
        let named = [keys[k], (seq.production, seq.lhs_partition), fs.key];
        assert_eq!(named, [key; 3], "{name}: sequence {k}");
        let steps = access.steps.len();
        assert_eq!(steps, fs.items.len(), "{name}: access table {k}");
        let nodes = g.production(key.0).nodes();
        assert_eq!(insts.len(), nodes.len(), "{name} {key:?}: instances");
        for (i, inst) in insts.iter().enumerate() {
            assert_eq!(inst.node, nodes[i], "{name} {key:?}: instance {i}");
            assert_eq!(g.node_index(key.0, inst.node), Some(i), "{name} {key:?}");
        }
    }
}

#[test]
fn occurrence_and_sequence_numberings_agree() {
    for g in grammars() {
        check(&g);
    }
}
