//! Witness grammars separating the AG class ladder — including the shapes
//! behind Table 1's class column (an OAG(1)-not-OAG(0) grammar like AG 7,
//! an SNC grammar that is not OAG(k) for any k like AG 5, and a DNC
//! grammar outside the tested OAG levels like AG 4).

use fnc2_ag::{Grammar, GrammarBuilder, Occ, Value};

/// A circular AG: fails even the plain non-circularity test.
pub fn circular() -> Grammar {
    let mut g = GrammarBuilder::new("circular");
    let s = g.phylum("S");
    let a = g.phylum("A");
    let out = g.syn(s, "out");
    let i = g.inh(a, "i");
    let sy = g.syn(a, "s");
    let root = g.production("root", s, &[a]);
    g.copy(root, Occ::lhs(out), Occ::new(1, sy));
    g.copy(root, Occ::new(1, i), Occ::new(1, sy));
    let leaf = g.production("leaf", a, &[]);
    g.copy(leaf, Occ::lhs(sy), Occ::lhs(i));
    g.finish().expect("well-defined (though circular)")
}

/// Non-circular but not strongly non-circular: two leaf productions
/// realize IO graphs `{i1→s1}` and `{i2→s2}` whose *union* closes a cycle
/// with the crossing context, while no single derivation does.
pub fn nc_not_snc() -> Grammar {
    let mut g = GrammarBuilder::new("nc_not_snc");
    let s = g.phylum("S");
    let a = g.phylum("A");
    let out = g.syn(s, "out");
    let i1 = g.inh(a, "i1");
    let i2 = g.inh(a, "i2");
    let s1 = g.syn(a, "s1");
    let s2 = g.syn(a, "s2");
    g.func("pair2", 2, |v| Value::tuple([v[0].clone(), v[1].clone()]));
    let root = g.production("root", s, &[a]);
    g.copy(root, Occ::new(1, i1), Occ::new(1, s2));
    g.copy(root, Occ::new(1, i2), Occ::new(1, s1));
    g.call(
        root,
        Occ::lhs(out),
        "pair2",
        [Occ::new(1, s1).into(), Occ::new(1, s2).into()],
    );
    let leaf1 = g.production("leaf1", a, &[]);
    g.copy(leaf1, Occ::lhs(s1), Occ::lhs(i1));
    g.constant(leaf1, Occ::lhs(s2), Value::Int(0));
    let leaf2 = g.production("leaf2", a, &[]);
    g.copy(leaf2, Occ::lhs(s2), Occ::lhs(i2));
    g.constant(leaf2, Occ::lhs(s1), Value::Int(0));
    g.finish().expect("well-defined")
}

/// Strongly non-circular but **not DNC** and not OAG(k) for any k — the AG 5
/// shape: two contexts impose opposite visit orders on `X`, so the
/// SNC → l-ordered transformation must keep **two** partitions for `X`
/// (matching the paper's "max 2" on AG 5), and `DS(X)` is cyclic.
pub fn snc_only() -> Grammar {
    let mut g = GrammarBuilder::new("snc_only");
    let s = g.phylum("S");
    let x = g.phylum("X");
    let out = g.syn(s, "out");
    let i1 = g.inh(x, "i1");
    let i2 = g.inh(x, "i2");
    let s1 = g.syn(x, "s1");
    let s2 = g.syn(x, "s2");
    g.func("pair2", 2, |v| Value::tuple([v[0].clone(), v[1].clone()]));
    // Context A: s1 feeds i2 (order i1 s1 i2 s2).
    let ctx_a = g.production("ctx_a", s, &[x]);
    g.constant(ctx_a, Occ::new(1, i1), Value::Int(0));
    g.copy(ctx_a, Occ::new(1, i2), Occ::new(1, s1));
    g.call(
        ctx_a,
        Occ::lhs(out),
        "pair2",
        [Occ::new(1, s1).into(), Occ::new(1, s2).into()],
    );
    // Context B: s2 feeds i1 (order i2 s2 i1 s1).
    let ctx_b = g.production("ctx_b", s, &[x]);
    g.constant(ctx_b, Occ::new(1, i2), Value::Int(0));
    g.copy(ctx_b, Occ::new(1, i1), Occ::new(1, s2));
    g.call(
        ctx_b,
        Occ::lhs(out),
        "pair2",
        [Occ::new(1, s1).into(), Occ::new(1, s2).into()],
    );
    // X's subtree: s1 from i1, s2 from i2, independently.
    let leafx = g.production("leafx", x, &[]);
    g.copy(leafx, Occ::lhs(s1), Occ::lhs(i1));
    g.copy(leafx, Occ::lhs(s2), Occ::lhs(i2));
    g.finish().expect("well-defined")
}

/// DNC and OAG(1) but **not OAG(0)** — the AG 7 shape: Kastens' partition
/// puts both synthesized attributes in the final set, but the crossing
/// production needs `s2` a visit earlier; one repair (delaying `i1`) fixes
/// it, which is exactly what "directing the system to test for OAG(k)"
/// discovers by trial and error.
pub fn oag1_not_oag0() -> Grammar {
    let mut g = GrammarBuilder::new("oag1_not_oag0");
    let s = g.phylum("S");
    let x = g.phylum("X");
    let out = g.syn(s, "out");
    let i1 = g.inh(x, "i1");
    let s1 = g.syn(x, "s1");
    let s2 = g.syn(x, "s2");
    g.func("add", 2, |v| Value::Int(v[0].as_int() + v[1].as_int()));
    // cross : S ::= X X with i1(1) := s2(2) and i1(2) := s2(1).
    let cross = g.production("cross", s, &[x, x]);
    g.copy(cross, Occ::new(1, i1), Occ::new(2, s2));
    g.copy(cross, Occ::new(2, i1), Occ::new(1, s2));
    g.call(
        cross,
        Occ::lhs(out),
        "add",
        [Occ::new(1, s1).into(), Occ::new(2, s1).into()],
    );
    // leafx : s1 := i1 ; s2 := 1 (s2 is i1-independent).
    let leafx = g.production("leafx", x, &[]);
    g.copy(leafx, Occ::lhs(s1), Occ::lhs(i1));
    g.constant(leafx, Occ::lhs(s2), Value::Int(1));
    g.finish().expect("well-defined")
}

/// DNC but not OAG(k) for `k < pairs` — stacks `pairs` independent
/// OAG(0) conflicts, each needing its own repair; with the default budget
/// this lands in the "DNC" row of the class column (the AG 4 shape).
pub fn dnc_not_oag(pairs: usize) -> Grammar {
    assert!(pairs >= 1, "at least one crossing pair");
    let mut g = GrammarBuilder::new("dnc_not_oag");
    let s = g.phylum("S");
    g.func("add", 2, |v| Value::Int(v[0].as_int() + v[1].as_int()));
    let out = g.syn(s, "out");
    let mut phyla = Vec::new();
    for k in 0..pairs {
        let x = g.phylum(format!("X{k}"));
        let i1 = g.inh(x, "i1");
        let s1 = g.syn(x, "s1");
        let s2 = g.syn(x, "s2");
        phyla.push((x, i1, s1, s2));
        let leaf = g.production(format!("leaf{k}"), x, &[]);
        g.copy(leaf, Occ::lhs(s1), Occ::lhs(i1));
        g.constant(leaf, Occ::lhs(s2), Value::Int(1));
    }
    // One root production per pair (S has several alternatives).
    for (k, &(x, i1, s1, s2)) in phyla.iter().enumerate() {
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
    g.finish().expect("well-defined")
}

/// The transformation's worst case (ROADMAP item 7): phyla `X0…Xd` under
/// a root phylum `R`, each `Xl` with `k` inherited/synthesized pairs
/// `i0/s0 … i{k-1}/s{k-1}`. The root chains `X0`'s pairs in one order
/// (`i0 := 0`, `i{j+1} := s{j}`, `out := s{k-1}`). Each level `l < d` has
/// two productions: `straight{l}` copies every pair to its `X{l+1}` child,
/// and `swap{l}` copies them through the adjacent transposition of pairs
/// `t` and `t + 1`, `t = l mod (k - 1)`. The leaf `leaf{d}` copies each
/// `ij` to `sj`. Every path of choices orders the pairs differently and
/// long inclusion cannot merge orders that differ, so for `d < k` the
/// deepest phylum gets `2^d` partitions and the transformation plans
/// `3 · 2^d - 1` visit sequences.
pub fn partition_blowup(k: usize, d: usize) -> Grammar {
    assert!(k >= 2, "at least two pairs to transpose");
    let mut g = GrammarBuilder::new(format!("partition_blowup_{k}_{d}"));
    let r = g.phylum("R");
    let out = g.syn(r, "out");
    let levels: Vec<_> = (0..=d)
        .map(|l| {
            let x = g.phylum(format!("X{l}"));
            let pairs: Vec<_> = (0..k)
                .map(|j| (g.inh(x, format!("i{j}")), g.syn(x, format!("s{j}"))))
                .collect();
            (x, pairs)
        })
        .collect();
    let (x0, top) = &levels[0];
    let root = g.production("root", r, &[*x0]);
    g.constant(root, Occ::new(1, top[0].0), Value::Int(0));
    for j in 1..k {
        g.copy(root, Occ::new(1, top[j].0), Occ::new(1, top[j - 1].1));
    }
    g.copy(root, Occ::lhs(out), Occ::new(1, top[k - 1].1));
    for (l, pair) in levels.windows(2).enumerate() {
        let [(x, upper), (y, lower)] = pair else {
            unreachable!("windows of two")
        };
        let t = l % (k - 1);
        let swap = |j: usize| match j {
            _ if j == t => t + 1,
            _ if j == t + 1 => t,
            _ => j,
        };
        for (name, perm) in [("straight", None), ("swap", Some(swap))] {
            let p = g.production(format!("{name}{l}"), *x, &[*y]);
            for (j, &(i, s)) in upper.iter().enumerate() {
                let (ci, cs) = lower[perm.map_or(j, |f| f(j))];
                g.copy(p, Occ::new(1, ci), Occ::lhs(i));
                g.copy(p, Occ::lhs(s), Occ::new(1, cs));
            }
        }
    }
    let (xd, deepest) = &levels[d];
    let leaf = g.production(format!("leaf{d}"), *xd, &[]);
    for &(i, s) in deepest {
        g.copy(leaf, Occ::lhs(s), Occ::lhs(i));
    }
    g.finish().expect("well-defined")
}

#[cfg(test)]
mod tests {
    use fnc2_analysis::{classify, nc_test, snc_test, snc_to_l_ordered, AgClass, Inclusion};

    use super::*;

    #[test]
    fn ladder_is_strict() {
        assert_eq!(
            classify(&circular(), 1, Inclusion::Long).unwrap().class,
            AgClass::NotSnc
        );
        let nns = nc_not_snc();
        assert!(nc_test(&nns, 64).is_nc());
        assert_eq!(
            classify(&nns, 1, Inclusion::Long).unwrap().class,
            AgClass::NotSnc
        );
        assert_eq!(
            classify(&snc_only(), 1, Inclusion::Long).unwrap().class,
            AgClass::Snc
        );
        assert_eq!(
            classify(&oag1_not_oag0(), 0, Inclusion::Long)
                .unwrap()
                .class,
            AgClass::Dnc,
            "with max_k = 0 it falls through to the transformation"
        );
        assert_eq!(
            classify(&oag1_not_oag0(), 1, Inclusion::Long)
                .unwrap()
                .class,
            AgClass::OagK(1)
        );
        // Several independent conflicts: k = 1 is not enough.
        assert_eq!(
            classify(&dnc_not_oag(3), 1, Inclusion::Long).unwrap().class,
            AgClass::Dnc
        );
    }

    #[test]
    fn snc_only_needs_two_partitions() {
        let g = snc_only();
        let c = classify(&g, 1, Inclusion::Long).unwrap();
        let lo = c.l_ordered.unwrap();
        let x = g.phylum_by_name("X").unwrap();
        assert_eq!(lo.partitions_of(x).len(), 2, "the AG 5 'max 2' shape");
    }

    #[test]
    fn snc_only_is_evaluable() {
        // Both contexts evaluate correctly despite the opposite orders.
        let g = snc_only();
        let c = classify(&g, 1, Inclusion::Long).unwrap();
        let lo = c.l_ordered.unwrap();
        let seqs = fnc2_visit::build_visit_seqs(&g, &lo);
        let ev = fnc2_visit::Evaluator::new(&g, &seqs);
        for ctx in ["ctx_a", "ctx_b"] {
            let mut tb = fnc2_ag::TreeBuilder::new(&g);
            let leaf = tb.op("leafx", &[]).unwrap();
            let root = tb.op(ctx, &[leaf]).unwrap();
            let tree = tb.finish_root(root).unwrap();
            let (vals, _) = ev.evaluate(&tree, &Default::default()).unwrap();
            let s = g.phylum_by_name("S").unwrap();
            let out = g.attr_by_name(s, "out").unwrap();
            let v = vals.get(&g, tree.root(), out).unwrap();
            assert_eq!(v.as_tuple().len(), 2, "{ctx}: {v:?}");
        }
    }

    /// The deepest phylum's partitions and the plans of
    /// `partition_blowup(k, d)`: `2^d` and `3 · 2^d - 1`, none reused.
    #[test]
    fn partition_blowup_doubles_per_level() {
        for (k, d, deepest, plans) in [(2, 1, 2, 5), (3, 2, 4, 11), (4, 3, 8, 23), (5, 4, 16, 47)] {
            let g = partition_blowup(k, d);
            assert_eq!(g.phylum_count(), d + 2, "R and X0..X{d}");
            let lo = snc_to_l_ordered(&g, &snc_test(&g), Inclusion::Long).unwrap();
            let per_phylum = &lo.stats.partitions_per_phylum;
            assert_eq!(per_phylum[d + 1], deepest, "k = {k}, d = {d}");
            assert_eq!(lo.stats.plans, plans, "k = {k}, d = {d}");
            assert_eq!(lo.stats.reuses, 0, "k = {k}, d = {d}");
        }
    }
}
