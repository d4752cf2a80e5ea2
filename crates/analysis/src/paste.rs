//! Building "pasted" production graphs: the local dependency graph `D(p)`
//! augmented with per-phylum relations (argument selectors / IO-graphs,
//! OI-graphs, induced dependencies, or partition orders) attached to chosen
//! occurrence positions.

use fnc2_ag::{DepGraph, Grammar, ONode, ProductionId};
use fnc2_gfa::{BitMatrix, Digraph};

use crate::attrs::AttrIndex;

/// `D(p)` plus pasted relations, with matching dense node indexing.
#[derive(Clone, Debug)]
pub struct Pasted<'g> {
    /// Node identities (the indexing of `graph`).
    pub dep: DepGraph<'g>,
    /// The combined digraph.
    pub graph: Digraph,
}

impl<'g> Pasted<'g> {
    /// Starts from the bare local dependency graph of `p`.
    pub fn base(grammar: &'g Grammar, p: ProductionId) -> Pasted<'g> {
        let dep = DepGraph::of(grammar, p);
        let mut graph = Digraph::new(dep.len());
        for (u, v) in dep.edges() {
            graph.add_edge(u, v);
        }
        Pasted { dep, graph }
    }

    /// Pastes relation `rel` (over the local attribute indices of the
    /// phylum at `pos`) onto position `pos`: for each pair `(i, j)` adds an
    /// edge between the corresponding occurrences.
    pub fn paste(&mut self, grammar: &Grammar, ix: &AttrIndex, pos: u16, rel: &BitMatrix) {
        let p = self.dep.production();
        let ph = grammar.production(p).phylum_at(pos);
        debug_assert_eq!(rel.len(), ix.len(ph), "relation sized for phylum");
        for (i, j) in rel.pairs() {
            self.graph
                .add_edge(self.dep.attr_index(pos, i), self.dep.attr_index(pos, j));
        }
    }

    /// Adds an explicit edge between two occurrence nodes.
    pub fn add_edge(&mut self, from: ONode, to: ONode) {
        if let (Some(u), Some(v)) = (self.dep.index_of(from), self.dep.index_of(to)) {
            self.graph.add_edge(u, v);
        }
    }

    /// The transitive closure of the combined graph as a [`BitMatrix`] over
    /// the dense node indices.
    pub fn closure(&self) -> BitMatrix {
        let mut m = BitMatrix::new(self.dep.len());
        for (u, v) in self.graph.edges() {
            m.set(u, v);
        }
        m.close();
        m
    }

    /// Projects `closed` (a closure from [`closure`](Self::closure)) onto
    /// position `pos`: the relation over local attribute indices of the
    /// phylum at `pos` induced by paths between its occurrences. Pairs are
    /// filtered by `keep(i, j)`.
    pub fn project(
        &self,
        grammar: &Grammar,
        ix: &AttrIndex,
        closed: &BitMatrix,
        pos: u16,
        mut keep: impl FnMut(usize, usize) -> bool,
    ) -> BitMatrix {
        let p = self.dep.production();
        let ph = grammar.production(p).phylum_at(pos);
        let k = ix.len(ph);
        let mut out = BitMatrix::new(k);
        for i in 0..k {
            let u = self.dep.attr_index(pos, i);
            for j in 0..k {
                if i == j || !keep(i, j) {
                    continue;
                }
                let v = self.dep.attr_index(pos, j);
                if closed.get(u, v) {
                    out.set(i, j);
                }
            }
        }
        out
    }

    /// Like [`project`](Self::project), but computed by breadth-first
    /// search from the `k` occurrence nodes of `pos` instead of from a
    /// dense all-pairs closure: `O(k · (V + E))` where the closure costs
    /// `O(V³/64)`. The two agree because `closure().get(u, v)` for `u ≠ v`
    /// is exactly "v reachable from u by a non-empty path".
    pub fn project_reach(
        &self,
        grammar: &Grammar,
        ix: &AttrIndex,
        pos: u16,
        keep: impl FnMut(usize, usize) -> bool,
    ) -> BitMatrix {
        self.project_reach_excluding(grammar, ix, pos, None, keep)
    }

    /// [`project_reach`](Self::project_reach) over the combined graph
    /// *minus* the relation `excluded` pasted at `pos` itself: traversal
    /// skips an edge between two `pos` occurrences if `excluded` relates
    /// them — unless `D(p)` contributes the same edge, which stays (the
    /// digraph dedups edges, so a pasted pair and a real local dependency
    /// can share one edge). This reproduces "paste everywhere except at
    /// `pos`" without rebuilding the graph per position, which is what the
    /// DNC test needs for each child's context.
    pub fn project_reach_excluding(
        &self,
        grammar: &Grammar,
        ix: &AttrIndex,
        pos: u16,
        excluded: Option<&BitMatrix>,
        mut keep: impl FnMut(usize, usize) -> bool,
    ) -> BitMatrix {
        let p = self.dep.production();
        let ph = grammar.production(p).phylum_at(pos);
        let k = ix.len(ph);
        let node_of = |i: usize| self.dep.attr_index(pos, i);
        // The pairs to skip, by local index: those `excluded` relates that
        // are not also an edge of `D(p)`.
        let mut skip = BitMatrix::new(k);
        if let Some(rel) = excluded {
            debug_assert_eq!(rel.len(), k, "relation sized for phylum");
            for (i, j) in rel.pairs() {
                if !self.dep.succs(node_of(i)).contains(&node_of(j)) {
                    skip.set(i, j);
                }
            }
        }
        // `pos`'s occurrences are numbered `base..base + k`.
        let base = node_of(0);
        let skipped = |u: usize, v: usize| {
            let (i, j) = (u.wrapping_sub(base), v.wrapping_sub(base));
            i < k && j < k && skip.get(i, j)
        };
        let mut out = BitMatrix::new(k);
        let mut seen = vec![false; self.dep.len()];
        let mut queue: Vec<usize> = Vec::new();
        for i in 0..k {
            let start = node_of(i);
            seen.iter_mut().for_each(|s| *s = false);
            queue.clear();
            // The start node is not marked reached: closure semantics give
            // `(u, u)` only via a real cycle, and projections skip `i == j`
            // anyway.
            seen[start] = true;
            queue.push(start);
            let mut head = 0;
            while head < queue.len() {
                let u = queue[head];
                head += 1;
                for &v in self.graph.succs(u) {
                    if !seen[v] && !skipped(u, v) {
                        seen[v] = true;
                        queue.push(v);
                    }
                }
            }
            for j in 0..k {
                if i != j && seen[node_of(j)] && keep(i, j) {
                    out.set(i, j);
                }
            }
        }
        out
    }

    /// Groups the RHS positions `1..=arity` into classes whose projections
    /// are guaranteed identical, so a class-test fixpoint only projects one
    /// representative per class. Two positions land in the same class when
    /// they hold the same phylum and their occurrence nodes have identical
    /// edge *signatures*: every neighbor is encoded as either
    /// `(local attribute index)` when it belongs to the position itself or
    /// `(absolute node id)` otherwise. Equal signatures make the map that
    /// swaps the two positions' nodes (by local index) and fixes all other
    /// nodes a graph automorphism — equality rules out edges between the
    /// two positions, since such an edge would encode as an absolute id on
    /// one side with no counterpart on the other — and an automorphism
    /// fixing a `keep` predicate preserves reachability projections. A
    /// production with thousands of interchangeable children (a wide list)
    /// collapses to a handful of classes.
    pub fn rhs_position_groups(&self, grammar: &Grammar, ix: &AttrIndex) -> Vec<Vec<u16>> {
        let p = self.dep.production();
        let prod = grammar.production(p);
        let arity = prod.arity() as u16;
        let n = self.dep.len();
        let mut preds: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (u, v) in self.graph.edges() {
            preds[v].push(u);
        }
        // node -> its position, for "own node" testing during encoding.
        let pos_of: Vec<Option<u16>> = (0..n)
            .map(|u| self.dep.node(u).occ().map(|o| o.pos))
            .collect();
        let mut sigs: Vec<(Vec<u64>, u16)> = Vec::with_capacity(arity as usize);
        for pos in 1..=arity {
            let ph = prod.phylum_at(pos);
            let k = ix.len(ph);
            // Signature: phylum, then per local attribute the sorted
            // encodings of successor and predecessor neighbors, with
            // sentinels separating the sections. Own-position neighbors
            // encode as `2 * local`, everything else as `2 * node + 1`.
            let mut sig: Vec<u64> = vec![ph.index() as u64];
            let encode = |w: usize| -> u64 {
                if pos_of[w] == Some(pos) {
                    let a = self.dep.node(w).occ().expect("own node is an occurrence");
                    2 * ix.local(grammar, a.attr) as u64
                } else {
                    2 * w as u64 + 1
                }
            };
            for i in 0..k {
                let u = self.dep.attr_index(pos, i);
                for list in [self.graph.succs(u), &preds[u]] {
                    let mut enc: Vec<u64> = list.iter().map(|&w| encode(w)).collect();
                    enc.sort_unstable();
                    sig.push(u64::MAX);
                    sig.extend(enc);
                }
            }
            sigs.push((sig, pos));
        }
        // Equal signatures end up adjacent, each class in position order;
        // the classes are then ordered by their first position.
        sigs.sort_unstable();
        let mut groups: Vec<Vec<u16>> = Vec::new();
        for (i, (sig, pos)) in sigs.iter().enumerate() {
            match groups.last_mut() {
                Some(group) if sigs[i - 1].0 == *sig => group.push(*pos),
                _ => groups.push(vec![*pos]),
            }
        }
        groups.sort_unstable_by_key(|group| group[0]);
        groups
    }

    /// Finds a dependency cycle in the combined graph, as occurrence nodes.
    pub fn find_cycle(&self) -> Option<Vec<ONode>> {
        self.graph
            .find_cycle()
            .map(|c| c.into_iter().map(|u| self.dep.node(u)).collect())
    }
}

#[cfg(test)]
mod tests {
    use fnc2_ag::{Grammar, GrammarBuilder, Occ, Value};

    use super::*;

    /// S ::= A with S.v := A.w, A.i := S.j ; A.w := A.i at the leaf.
    fn g() -> Grammar {
        let mut g = GrammarBuilder::new("t");
        let s = g.phylum("S");
        let a = g.phylum("A");
        let j = g.inh(s, "j");
        let v = g.syn(s, "v");
        let i = g.inh(a, "i");
        let w = g.syn(a, "w");
        let root = g.production("root", s, &[a]);
        g.copy(root, Occ::lhs(v), Occ::new(1, w));
        g.copy(root, Occ::new(1, i), Occ::lhs(j));
        let leaf = g.production("leaf", a, &[]);
        g.copy(leaf, Occ::lhs(w), Occ::lhs(i));
        let _ = Value::Unit;
        g.finish().unwrap()
    }

    #[test]
    fn paste_and_project() {
        let g = g();
        let ix = AttrIndex::new(&g);
        let root = g.production_by_name("root").unwrap();
        let a = g.phylum_by_name("A").unwrap();
        let mut pg = Pasted::base(&g, root);
        // io(A) = { i -> w }
        let mut io_a = BitMatrix::new(2);
        io_a.set(0, 1);
        pg.paste(&g, &ix, 1, &io_a);
        let closed = pg.closure();
        assert!(closed.is_irreflexive());
        // Path S.j -> A.i -> A.w -> S.v projects to j -> v on S.
        let proj = pg.project(&g, &ix, &closed, 0, |_, _| true);
        assert!(proj.get(0, 1));
        assert!(!proj.get(1, 0));
        let _ = a;
    }

    #[test]
    fn cycle_detected_after_paste() {
        let g = g();
        let ix = AttrIndex::new(&g);
        let root = g.production_by_name("root").unwrap();
        let mut pg = Pasted::base(&g, root);
        let mut io_a = BitMatrix::new(2);
        io_a.set(0, 1);
        pg.paste(&g, &ix, 1, &io_a);
        // Paste a bogus S relation v -> j, closing the loop.
        let mut rel_s = BitMatrix::new(2);
        rel_s.set(1, 0);
        pg.paste(&g, &ix, 0, &rel_s);
        assert!(!pg.closure().is_irreflexive());
        let cyc = pg.find_cycle().unwrap();
        assert!(cyc.len() >= 4);
    }
}
