//! Production dependency graphs `D(p)`.
//!
//! For a production `p`, the local dependency graph has one node per
//! attribute occurrence (and per production-local attribute) and an edge
//! `u → v` whenever the semantic rule defining `v` reads `u`.

use crate::grammar::Grammar;
use crate::ids::{ONode, ProductionId};

/// The local dependency graph of one production.
///
/// Node identity is the [`ONode`]; a node's dense index is its number in
/// the production's numbering ([`Production::nodes`](crate::Production::nodes):
/// occurrences in [`Grammar::occurrences`] order followed by locals), so
/// analyses can build parallel side tables and find a node by arithmetic.
/// The edges are stored compactly: one array of successors, sliced per
/// node by an offset table.
#[derive(Clone, Debug)]
pub struct DepGraph<'g> {
    grammar: &'g Grammar,
    production: ProductionId,
    /// `succs[offsets[u]..offsets[u + 1]]` lists v with `u → v`, in the
    /// order of the rules that first create each edge.
    succs: Vec<usize>,
    offsets: Vec<usize>,
}

impl<'g> DepGraph<'g> {
    /// Builds `D(p)` for production `p` of `grammar`.
    pub fn of(grammar: &'g Grammar, p: ProductionId) -> DepGraph<'g> {
        let prod = grammar.production(p);
        let index = |n: ONode| grammar.node_index(p, n).expect("validated grammar");
        let n = prod.nodes().len();
        // The edges in rule order, grouped by source by a stable sort. Every
        // rule has its own target, so a repeated edge is a repeated read of
        // one rule, and the sort leaves the two adjacent.
        let mut edges: Vec<(usize, usize)> = (prod.rules().iter())
            .flat_map(|rule| {
                rule.read_nodes()
                    .map(|src| (index(src), index(rule.target())))
            })
            .collect();
        edges.sort_by_key(|&(u, _)| u);
        edges.dedup();
        let mut offsets = vec![0; n + 1];
        for &(u, _) in &edges {
            offsets[u + 1] += 1;
        }
        for u in 0..n {
            offsets[u + 1] += offsets[u];
        }
        let succs = edges.into_iter().map(|(_, v)| v).collect();
        DepGraph {
            grammar,
            production: p,
            succs,
            offsets,
        }
    }

    /// The production this graph belongs to.
    pub fn production(&self) -> ProductionId {
        self.production
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// True if the production has no occurrences at all.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The node at dense index `i`.
    pub fn node(&self, i: usize) -> ONode {
        self.nodes()[i]
    }

    /// All nodes in dense-index order.
    pub fn nodes(&self) -> &'g [ONode] {
        self.grammar.production(self.production).nodes()
    }

    /// The dense index of `node`, if it is a node of the production.
    pub fn index_of(&self, node: ONode) -> Option<usize> {
        self.grammar.node_index(self.production, node)
    }

    /// The dense index of the attribute at `offset` in the phylum at
    /// position `pos`.
    pub fn attr_index(&self, pos: u16, offset: usize) -> usize {
        self.grammar.production(self.production).occ_base(pos) + offset
    }

    /// Successors of dense index `i`.
    pub fn succs(&self, i: usize) -> &[usize] {
        &self.succs[self.offsets[i]..self.offsets[i + 1]]
    }

    /// All edges as `(from, to)` dense-index pairs.
    pub fn edges(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        (0..self.len()).flat_map(move |u| self.succs(u).iter().map(move |&v| (u, v)))
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.succs.len()
    }
}

#[cfg(test)]
mod tests {
    use crate::builder::GrammarBuilder;
    use crate::ids::Occ;
    use crate::value::Value;

    use super::*;

    #[test]
    fn dep_graph_of_copy_chain() {
        // root : S ::= A with S.v := A.w, A.i := 1 ; leaf : A with A.w := A.i
        let mut g = GrammarBuilder::new("tiny");
        let s = g.phylum("S");
        let a = g.phylum("A");
        let v = g.syn(s, "v");
        let w = g.syn(a, "w");
        let i = g.inh(a, "i");
        let root = g.production("root", s, &[a]);
        let leaf = g.production("leaf", a, &[]);
        g.copy(root, Occ::lhs(v), Occ::new(1, w));
        g.constant(root, Occ::new(1, i), Value::Int(1));
        g.copy(leaf, Occ::lhs(w), Occ::lhs(i));
        let g = g.finish().unwrap();

        let d = DepGraph::of(&g, root);
        assert_eq!(d.len(), 3); // S.v, A.w, A.i
        assert_eq!(d.edge_count(), 1); // A.w -> S.v
        let (from, to) = d.edges().next().unwrap();
        assert_eq!(d.node(from), Occ::new(1, w).into());
        assert_eq!(d.node(to), Occ::lhs(v).into());

        let dl = DepGraph::of(&g, leaf);
        assert_eq!(dl.len(), 2);
        assert_eq!(dl.edge_count(), 1); // A.i -> A.w
    }

    /// The incremental evaluator's readers of a node are its successors,
    /// so each reading rule's target appears once, in rule order.
    #[test]
    fn successors_are_the_reading_rules_once_in_rule_order() {
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
        let w1: ONode = Occ::new(1, w).into();
        g.call(root, both, "add", [w1.into(), w1.into()]);
        g.copy(root, Occ::lhs(out), ONode::Local(both));
        g.copy(root, Occ::new(2, i), Occ::new(1, w));
        g.constant(root, Occ::new(1, i), Value::Int(0));
        let leaf = g.production("leaf", a, &[]);
        g.copy(leaf, Occ::lhs(w), Occ::lhs(i));
        let g = g.finish().unwrap();

        let d = DepGraph::of(&g, root);
        let prod = g.production(root);
        let readers = |node: ONode| -> Vec<u32> {
            let k = d.index_of(node).unwrap();
            d.succs(k)
                .iter()
                .map(|&v| prod.rule_index(v).unwrap())
                .collect()
        };
        assert_eq!(readers(w1), [0, 2]);
        assert_eq!(readers(ONode::Local(both)), [1]);
        assert!(readers(Occ::new(2, w).into()).is_empty());
        assert!(readers(Occ::new(1, i).into()).is_empty());
        assert_eq!(
            prod.rule_index(d.index_of(Occ::new(1, i).into()).unwrap()),
            Some(3)
        );
        assert_eq!(
            prod.rule_index(d.index_of(Occ::new(1, w).into()).unwrap()),
            None
        );
    }

    #[test]
    fn duplicate_reads_create_one_edge() {
        let mut g = GrammarBuilder::new("dup");
        let s = g.phylum("S");
        let a = g.phylum("A");
        let v = g.syn(s, "v");
        let w = g.syn(a, "w");
        g.func("add", 2, |x| Value::Int(x[0].as_int() + x[1].as_int()));
        let root = g.production("root", s, &[a]);
        let leaf = g.production("leaf", a, &[]);
        g.call(
            root,
            Occ::lhs(v),
            "add",
            [Occ::new(1, w).into(), Occ::new(1, w).into()],
        );
        g.constant(leaf, Occ::lhs(w), Value::Int(2));
        let g = g.finish().unwrap();
        let d = DepGraph::of(&g, root);
        assert_eq!(d.edge_count(), 1);
    }
}
