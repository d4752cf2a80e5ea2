//! The plain (Knuth) non-circularity test.
//!
//! Keeps, for every phylum, the *set* of IO graphs realizable by individual
//! derivation shapes, instead of SNC's single union graph. Exact but
//! exponential in the worst case — the reason FNC-2 settles on the SNC
//! class, whose single-graph test is polynomial and whose expressive power
//! is "very useful" in practice (paper §4.3). Provided here for the class
//! ladder and for the benches contrasting test costs.

use std::collections::HashSet;

use fnc2_ag::{AttrKind, Grammar, ProductionId};
use fnc2_gfa::{fixpoint, BitMatrix};
use fnc2_obs::NoopRecorder;

use crate::io::{bottom_up_dependents, CircWitness};
use crate::paste::{Deps, Pasted};

/// Result of the exact non-circularity test.
#[derive(Clone, Debug)]
pub struct NcResult {
    /// Per-phylum sets of realizable IO graphs (when the run completed).
    pub io_sets: Vec<HashSet<BitMatrix>>,
    /// A witness cycle if the AG is circular.
    pub witness: Option<CircWitness>,
    /// True if the run hit `max_graphs` and gave up (the grammar may still
    /// be non-circular).
    pub aborted: bool,
}

impl NcResult {
    /// True if the grammar was proved non-circular.
    pub fn is_nc(&self) -> bool {
        self.witness.is_none() && !self.aborted
    }
}

/// Runs the exact non-circularity test, giving up once any phylum
/// accumulates more than `max_graphs` distinct IO graphs.
pub fn nc_test(grammar: &Grammar, max_graphs: usize) -> NcResult {
    let deps = Deps::new(grammar);
    let mut pasted = Pasted::new(&deps);
    let mut io_sets: Vec<HashSet<BitMatrix>> = vec![HashSet::new(); grammar.phylum_count()];
    let mut witness = None;
    let mut aborted = false;

    // A bottom-up flow whose sets only grow; once a witness or the budget
    // ends the test, the remaining steps change nothing.
    fixpoint(
        grammar.production_count(),
        &bottom_up_dependents(grammar),
        |pi| {
            if witness.is_some() || aborted {
                return false;
            }
            let p = ProductionId::from_raw(pi as u32);
            match expand(&mut pasted, p, &io_sets) {
                Expansion::Cycle(w) => {
                    witness = Some(w);
                    false
                }
                Expansion::Graphs(gs) => {
                    let set = &mut io_sets[grammar.production(p).lhs().index()];
                    let mut changed = false;
                    for g in gs {
                        changed |= set.insert(g);
                    }
                    aborted = set.len() > max_graphs;
                    changed && !aborted
                }
            }
        },
        &mut NoopRecorder,
    );
    NcResult {
        io_sets,
        witness,
        aborted,
    }
}

enum Expansion {
    Graphs(Vec<BitMatrix>),
    Cycle(CircWitness),
}

/// All IO graphs of `lhs(p)` obtainable by choosing one IO graph per RHS
/// occurrence from the current sets.
fn expand(pasted: &mut Pasted, p: ProductionId, io_sets: &[HashSet<BitMatrix>]) -> Expansion {
    let grammar = pasted.deps().grammar;
    let prod = grammar.production(p);
    let arity = prod.arity();
    let attrs = grammar.phylum(prod.lhs()).attrs();
    // Choice lists per RHS position; a position whose phylum has no graph
    // yet cannot yield a complete derivation — skip this production for now
    // (leaf productions have no positions, so the base case seeds the sets).
    let mut choices: Vec<Vec<&BitMatrix>> = Vec::with_capacity(arity);
    for pos in 1..=arity as u16 {
        let set = &io_sets[prod.phylum_at(pos).index()];
        if set.is_empty() {
            return Expansion::Graphs(Vec::new());
        }
        let mut v: Vec<&BitMatrix> = set.iter().collect();
        // Deterministic order for reproducible witnesses.
        v.sort_by_key(|m| m.pairs().collect::<Vec<_>>());
        choices.push(v);
    }
    let mut out = Vec::new();
    let mut pick = vec![0usize; arity];
    loop {
        pasted.reset(p);
        for (i, &c) in pick.iter().enumerate() {
            pasted.paste((i + 1) as u16, choices[i][c]);
        }
        if let Some(cycle) = pasted.find_cycle() {
            return Expansion::Cycle(CircWitness {
                production: p,
                cycle,
            });
        }
        let proj = pasted.project_reach(0, |i, j| {
            grammar.attr(attrs[i]).kind() == AttrKind::Inherited
                && grammar.attr(attrs[j]).kind() == AttrKind::Synthesized
        });
        out.push(proj.clone());
        // Next combination (odometer).
        let mut k = 0;
        loop {
            if k == arity {
                return Expansion::Graphs(out);
            }
            pick[k] += 1;
            if pick[k] < choices[k].len() {
                break;
            }
            pick[k] = 0;
            k += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use fnc2_ag::{GrammarBuilder, Occ, Value};

    use crate::io::snc_test;

    use super::*;

    #[test]
    fn simple_grammar_is_nc() {
        let mut g = GrammarBuilder::new("t");
        let s = g.phylum("S");
        let a = g.phylum("A");
        let out = g.syn(s, "out");
        let i = g.inh(a, "i");
        let sy = g.syn(a, "s");
        let root = g.production("root", s, &[a]);
        g.copy(root, Occ::lhs(out), Occ::new(1, sy));
        g.constant(root, Occ::new(1, i), Value::Int(0));
        let leaf = g.production("leaf", a, &[]);
        g.copy(leaf, Occ::lhs(sy), Occ::lhs(i));
        let g = g.finish().unwrap();
        let r = nc_test(&g, 64);
        assert!(r.is_nc());
        let a = g.phylum_by_name("A").unwrap();
        assert_eq!(r.io_sets[a.index()].len(), 1);
    }

    #[test]
    fn circular_grammar_rejected() {
        let mut g = GrammarBuilder::new("t");
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
        let g = g.finish().unwrap();
        let r = nc_test(&g, 64);
        assert!(!r.is_nc());
        assert!(r.witness.is_some());
    }

    /// The classical NC-but-not-SNC grammar: two leaf productions realize
    /// IO graphs {i1→s1} and {i2→s2}; the SNC union {i1→s1, i2→s2} closes a
    /// cycle with the context, but no single derivation does.
    #[test]
    fn nc_strictly_larger_than_snc() {
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
        // Context: i1 := s2, i2 := s1 — crossing feedback.
        g.copy(root, Occ::new(1, i1), Occ::new(1, s2));
        g.copy(root, Occ::new(1, i2), Occ::new(1, s1));
        g.call(
            root,
            Occ::lhs(out),
            "pair2",
            [Occ::new(1, s1).into(), Occ::new(1, s2).into()],
        );
        // leaf1: s1 := i1, s2 := const — IO {i1→s1}.
        let leaf1 = g.production("leaf1", a, &[]);
        g.copy(leaf1, Occ::lhs(s1), Occ::lhs(i1));
        g.constant(leaf1, Occ::lhs(s2), Value::Int(0));
        // leaf2: s2 := i2, s1 := const — IO {i2→s2}.
        let leaf2 = g.production("leaf2", a, &[]);
        g.copy(leaf2, Occ::lhs(s2), Occ::lhs(i2));
        g.constant(leaf2, Occ::lhs(s1), Value::Int(0));
        let g = g.finish().unwrap();

        let nc = nc_test(&g, 64);
        assert!(nc.is_nc(), "each derivation alone is acyclic");
        let snc = snc_test(&g);
        assert!(!snc.is_snc(), "the union of IO graphs is cyclic");
    }

    #[test]
    fn abort_on_budget() {
        // Same NC grammar with a budget of 1 graph per phylum: A gets 2.
        let mut g = GrammarBuilder::new("t");
        let s = g.phylum("S");
        let a = g.phylum("A");
        let out = g.syn(s, "out");
        let i = g.inh(a, "i");
        let sy = g.syn(a, "s");
        let root = g.production("root", s, &[a]);
        g.copy(root, Occ::lhs(out), Occ::new(1, sy));
        g.constant(root, Occ::new(1, i), Value::Int(0));
        let leaf1 = g.production("leaf1", a, &[]);
        g.copy(leaf1, Occ::lhs(sy), Occ::lhs(i));
        let leaf2 = g.production("leaf2", a, &[]);
        g.constant(leaf2, Occ::lhs(sy), Value::Int(1));
        let g = g.finish().unwrap();
        let r = nc_test(&g, 1);
        assert!(r.aborted);
        assert!(!r.is_nc());
    }
}
