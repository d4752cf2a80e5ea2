//! Deeper class-ladder tests: OAG(k) for k ≥ 2, start-anywhere DNC
//! properties, the exact NC test against SNC, and partition invariants on
//! random linear orders.

use fnc2_ag::{AttrKind, Grammar, GrammarBuilder, Occ, Value};
use fnc2_analysis::{
    classify, dnc_test, nc_test, oag_test, snc_test, AgClass, Inclusion, TotalOrder,
};

/// `pairs` independent OAG(0) conflicts on distinct phyla: needs exactly
/// `pairs` repairs.
fn crossings(pairs: usize) -> Grammar {
    let mut g = GrammarBuilder::new("crossings");
    let s = g.phylum("S");
    let out = g.syn(s, "out");
    g.func("add", 2, |v| Value::Int(v[0].as_int() + v[1].as_int()));
    for k in 0..pairs {
        let x = g.phylum(format!("X{k}"));
        let i1 = g.inh(x, "i1");
        let s1 = g.syn(x, "s1");
        let s2 = g.syn(x, "s2");
        let leaf = g.production(format!("leaf{k}"), x, &[]);
        g.copy(leaf, Occ::lhs(s1), Occ::lhs(i1));
        g.constant(leaf, Occ::lhs(s2), Value::Int(1));
        let cross = g.production(format!("cross{k}"), s, &[x, x]);
        g.copy(cross, Occ::new(1, i1), Occ::new(2, s2));
        g.copy(cross, Occ::new(2, i1), Occ::new(1, s2));
        g.call(
            cross,
            Occ::lhs(out),
            "add",
            [Occ::new(1, s1).into(), Occ::new(2, s1).into()],
        );
    }
    g.finish().unwrap()
}

#[test]
fn oag_k_ladder_is_strict_for_higher_k() {
    for pairs in 1..=3 {
        let g = crossings(pairs);
        for k in 0..pairs {
            assert!(
                !oag_test(&g, k).is_oag(),
                "{pairs} crossings must fail OAG({k})"
            );
        }
        let r = oag_test(&g, pairs);
        assert!(r.is_oag(), "{pairs} crossings pass OAG({pairs})");
        assert_eq!(r.repairs_used, pairs);
        // classify() finds the smallest k.
        let c = classify(&g, pairs, Inclusion::Long).unwrap();
        assert_eq!(c.class, AgClass::OagK(pairs));
    }
}

#[test]
fn oag_k_repaired_partitions_still_evaluate() {
    let g = crossings(2);
    let r = oag_test(&g, 2);
    let parts = r.partitions.expect("ordered at k=2");
    let lo = fnc2_analysis::l_ordered_from_partitions(&g, parts).unwrap();
    let seqs = fnc2_visit::build_visit_seqs(&g, &lo);
    let ev = fnc2_visit::Evaluator::new(&g, &seqs);
    let mut tb = fnc2_ag::TreeBuilder::new(&g);
    let a = tb.op("leaf0", &[]).unwrap();
    let b = tb.op("leaf0", &[]).unwrap();
    let root = tb.op("cross0", &[a, b]).unwrap();
    let tree = tb.finish_root(root).unwrap();
    let (vals, _) = ev.evaluate(&tree, &Default::default()).unwrap();
    let s = g.phylum_by_name("S").unwrap();
    let out = g.attr_by_name(s, "out").unwrap();
    // s1 = i1 = sibling's s2 = 1, both sides: out = 2.
    assert_eq!(vals.get(&g, tree.root(), out), Some(&Value::Int(2)));
}

#[test]
fn dnc_enables_start_anywhere_information() {
    // For a DNC grammar, OI ∪ IO gives a consistent evaluation order
    // around *any* node: check that for each phylum, the combined
    // OI(X) ∪ IO(X) relation is acyclic (the start-anywhere condition).
    let g = fnc2_corpus::blocks();
    let snc = snc_test(&g);
    assert!(snc.is_snc());
    let dnc = dnc_test(&g, &snc);
    assert!(dnc.is_dnc());
    for ph in g.phyla() {
        let n = g.phylum(ph).attrs().len();
        let mut m = fnc2_gfa::BitMatrix::new(n);
        for (i, j) in snc.io.get(ph).pairs() {
            m.set(i, j);
        }
        for (i, j) in dnc.oi.get(ph).pairs() {
            m.set(i, j);
        }
        assert!(
            m.closure().is_irreflexive(),
            "OI ∪ IO cyclic on {}",
            g.phylum(ph).name()
        );
    }
}

#[test]
fn nc_test_agrees_with_snc_on_the_corpus() {
    // SNC implies NC; the exact test must accept everything SNC accepts.
    for g in [
        fnc2_corpus::binary(),
        fnc2_corpus::desk(),
        fnc2_corpus::blocks(),
        fnc2_corpus::snc_only(),
        fnc2_corpus::oag1_not_oag0(),
    ] {
        let snc = snc_test(&g);
        assert!(snc.is_snc(), "{}", g.name());
        let nc = nc_test(&g, 256);
        assert!(nc.is_nc(), "{} must be plain non-circular", g.name());
    }
    // And the separating witness: NC yes, SNC no.
    let w = fnc2_corpus::nc_not_snc();
    assert!(nc_test(&w, 256).is_nc());
    assert!(!snc_test(&w).is_snc());
}

#[test]
fn circularity_witness_is_a_real_cycle() {
    let g = fnc2_corpus::circular();
    let snc = snc_test(&g);
    let w = snc.witness.expect("circular grammar has a witness");
    assert!(w.cycle.len() >= 3);
    assert_eq!(w.cycle.first(), w.cycle.last(), "closed cycle");
    let trace = fnc2_analysis::explain(&g, &w);
    assert!(trace.contains("->"));
}

/// Random attribute orders produce complete, well-formed partitions.
fn order_grammar() -> (Grammar, Vec<fnc2_ag::AttrId>) {
    let mut g = GrammarBuilder::new("t");
    let a = g.phylum("A");
    let mut attrs = Vec::new();
    for k in 0..3 {
        attrs.push(g.inh(a, format!("i{k}")));
        attrs.push(g.syn(a, format!("s{k}")));
    }
    let leaf = g.production("leaf", a, &[]);
    for k in 0..3 {
        g.copy(leaf, Occ::lhs(attrs[2 * k + 1]), Occ::lhs(attrs[2 * k]));
    }
    (g.finish().unwrap(), attrs)
}

#[test]
fn partitions_from_random_orders_are_complete() {
    // Seeded Fisher–Yates permutations (inline SplitMix64, same cases
    // every run).
    let mut state = 0x0a9du64;
    let mut next = move || {
        state = state.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    };
    let (g, attrs) = order_grammar();
    let a = g.phylum_by_name("A").unwrap();
    for _ in 0..256 {
        let mut idx: Vec<usize> = (0..6).collect();
        for i in (1..6).rev() {
            let j = (next() as usize) % (i + 1);
            idx.swap(i, j);
        }
        let order: Vec<fnc2_ag::AttrId> = idx.iter().map(|&i| attrs[i]).collect();
        let t = TotalOrder::from_linear(&g, a, &order);
        assert!(t.is_complete(&g));
        assert!(t.visit_count() >= 1 && t.visit_count() <= 4);
        // Every attribute appears in exactly one slot, kind respected.
        for &attr in &attrs {
            let v = t.visit_of(attr).expect("covered");
            let slot = &t.visits[v - 1];
            match g.attr(attr).kind() {
                AttrKind::Inherited => assert!(slot.inh.contains(&attr)),
                AttrKind::Synthesized => assert!(slot.syn.contains(&attr)),
            }
        }
        // The matrix it induces is a strict partial order (irreflexive
        // after closure).
        assert!(t.as_matrix(&g).closure().is_irreflexive());
    }
}
