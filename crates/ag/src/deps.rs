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
#[derive(Clone, Debug)]
pub struct DepGraph<'g> {
    grammar: &'g Grammar,
    production: ProductionId,
    /// Adjacency: `succs[u]` lists v with `u → v`.
    succs: Vec<Vec<usize>>,
}

impl<'g> DepGraph<'g> {
    /// Builds `D(p)` for production `p` of `grammar`.
    pub fn of(grammar: &'g Grammar, p: ProductionId) -> DepGraph<'g> {
        let prod = grammar.production(p);
        let index = |n: ONode| grammar.node_index(p, n).expect("validated grammar");
        let mut succs = vec![Vec::new(); prod.nodes().len()];
        for rule in prod.rules() {
            let t = index(rule.target());
            for src in rule.read_nodes() {
                let s = index(src);
                if !succs[s].contains(&t) {
                    succs[s].push(t);
                }
            }
        }
        DepGraph {
            grammar,
            production: p,
            succs,
        }
    }

    /// The production this graph belongs to.
    pub fn production(&self) -> ProductionId {
        self.production
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.succs.len()
    }

    /// True if the production has no occurrences at all.
    pub fn is_empty(&self) -> bool {
        self.succs.is_empty()
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
        &self.succs[i]
    }

    /// All edges as `(from, to)` dense-index pairs.
    pub fn edges(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.succs
            .iter()
            .enumerate()
            .flat_map(|(u, vs)| vs.iter().map(move |&v| (u, v)))
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.succs.iter().map(Vec::len).sum()
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
