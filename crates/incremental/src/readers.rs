//! The readers index: for every production, the rules that read each of
//! its occurrences. The wave's walk looks readers up here instead of
//! scanning every rule's arguments; the index is built once per
//! evaluator, so no other evaluator pays for it.

use fnc2_ag::{Grammar, LocalId, Production, ProductionId};

/// The rules reading each occurrence, for every production of a grammar.
#[derive(Debug)]
pub(crate) struct Readers<'g> {
    prods: Vec<ProductionReaders<'g>>,
}

/// One production's readers. The rules reading the node numbered `k` in
/// the production ([`Production::nodes`]) are `rules[start[k]..start[k + 1]]`.
#[derive(Debug)]
struct ProductionReaders<'g> {
    prod: &'g Production,
    start: Box<[u32]>,
    rules: Box<[u32]>,
}

impl<'g> Readers<'g> {
    pub(crate) fn new(grammar: &'g Grammar) -> Self {
        Readers {
            prods: grammar
                .productions()
                .map(|p| ProductionReaders::new(grammar, p))
                .collect(),
        }
    }

    /// The rules of `p` that read attribute slot `off` (the attribute's
    /// offset in its phylum's block) at position `pos` (0 = the LHS), each
    /// once, in rule order.
    #[inline]
    pub(crate) fn attr(&self, p: ProductionId, pos: u16, off: usize) -> &[u32] {
        let pr = &self.prods[p.index()];
        pr.at(pr.prod.occ_base(pos) + off)
    }

    /// The rules of `p` that read `local`, each once, in rule order.
    #[inline]
    pub(crate) fn local(&self, p: ProductionId, local: LocalId) -> &[u32] {
        let pr = &self.prods[p.index()];
        pr.at(pr.prod.local_base() + local.index())
    }
}

impl<'g> ProductionReaders<'g> {
    fn new(grammar: &'g Grammar, p: ProductionId) -> Self {
        let prod = grammar.production(p);
        let width = prod.nodes().len();
        let mut reads: Vec<(u32, u32)> = prod
            .rules()
            .iter()
            .enumerate()
            .flat_map(|(i, rule)| rule.read_nodes().map(move |read| (read, i as u32)))
            .map(|(read, i)| {
                let k = grammar.node_index(p, read).expect("validated grammar");
                (k as u32, i)
            })
            .collect();
        reads.sort_unstable();
        reads.dedup();
        let mut start = vec![0; width + 1];
        for &(k, _) in &reads {
            start[k as usize + 1] += 1;
        }
        for k in 0..width {
            start[k + 1] += start[k];
        }
        ProductionReaders {
            prod,
            start: start.into(),
            rules: reads.into_iter().map(|(_, rule)| rule).collect(),
        }
    }

    #[inline]
    fn at(&self, k: usize) -> &[u32] {
        &self.rules[self.start[k] as usize..self.start[k + 1] as usize]
    }
}

#[cfg(test)]
mod tests {
    use fnc2_ag::{GrammarBuilder, ONode, Occ, Value};

    use super::*;

    #[test]
    fn readers_index_lists_each_reading_rule_once() {
        // root : S ::= A A with `both := add(A$1.w, A$1.w)`, `S.out := both`
        // and `A$2.i := A$1.w`.
        let mut g = GrammarBuilder::new("t");
        let s = g.phylum("S");
        let a = g.phylum("A");
        let out = g.syn(s, "out");
        let i = g.inh(a, "i");
        let w = g.syn(a, "w");
        g.func("add", 2, |v| Value::Int(v[0].as_int() + v[1].as_int()));
        let root = g.production("root", s, &[a, a]);
        let both = g.local(root, "both");
        g.call(
            root,
            both,
            "add",
            [Occ::new(1, w).into(), Occ::new(1, w).into()],
        );
        g.copy(root, Occ::lhs(out), ONode::Local(both));
        g.copy(root, Occ::new(2, i), Occ::new(1, w));
        g.constant(root, Occ::new(1, i), Value::Int(0));
        let leaf = g.production("leaf", a, &[]);
        g.copy(leaf, Occ::lhs(w), Occ::lhs(i));
        let g = g.finish().unwrap();

        let readers = Readers::new(&g);
        let (root, leaf) = (
            g.production_by_name("root").unwrap(),
            g.production_by_name("leaf").unwrap(),
        );
        let (w_off, i_off) = (g.attr(w).offset(), g.attr(i).offset());
        assert_eq!(readers.attr(root, 1, w_off), &[0, 2]);
        assert_eq!(readers.local(root, both), &[1]);
        assert!(readers.attr(root, 2, w_off).is_empty());
        assert!(readers.attr(root, 1, i_off).is_empty());
        assert_eq!(readers.attr(leaf, 0, i_off), &[0]);
    }
}
