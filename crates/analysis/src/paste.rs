//! Building "pasted" production graphs: the local dependency graph `D(p)`
//! augmented with per-phylum relations (argument selectors / IO-graphs,
//! OI-graphs, induced dependencies, or partition orders) attached to chosen
//! occurrence positions.
//!
//! A cascade run builds every `D(p)` once ([`Deps`]) and pastes onto one
//! workspace ([`Pasted`]) that each use resets to some `D(p)`, keeping its
//! buffers, so a fixpoint step allocates only while its graphs grow.

use std::cell::OnceCell;

use fnc2_ag::{DepGraph, Grammar, ONode, ProductionId};
use fnc2_gfa::{BitMatrix, Digraph, Scratch};

/// Every production's `D(p)` for one cascade run, with its RHS position
/// classes computed on first use.
#[derive(Debug)]
pub(crate) struct Deps<'g> {
    pub grammar: &'g Grammar,
    graphs: Vec<DepGraph<'g>>,
    groups: Vec<OnceCell<Vec<Vec<u16>>>>,
}

impl<'g> Deps<'g> {
    pub fn new(grammar: &'g Grammar) -> Self {
        Deps {
            grammar,
            graphs: grammar
                .productions()
                .map(|p| DepGraph::of(grammar, p))
                .collect(),
            groups: grammar.productions().map(|_| OnceCell::new()).collect(),
        }
    }

    /// `D(p)`.
    pub fn dep(&self, p: ProductionId) -> &DepGraph<'g> {
        &self.graphs[p.index()]
    }

    /// Groups the RHS positions `1..=arity` of `p` into classes whose
    /// projections are guaranteed identical, so a class-test fixpoint only
    /// projects one representative per class. Two positions land in the
    /// same class when they hold the same phylum and their occurrence
    /// nodes have identical edge *signatures* in `D(p)`: every neighbor is
    /// encoded as either `(local attribute index)` when it belongs to the
    /// position itself or `(absolute node id)` otherwise. Equal signatures
    /// make the map that swaps the two positions' nodes (by local index)
    /// and fixes all other nodes an automorphism of `D(p)` — equality rules
    /// out edges between the two positions, since such an edge would
    /// encode as an absolute id on one side with no counterpart on the
    /// other. Pasting one relation per phylum at each position (the `IO`,
    /// `OI` and `DS` flows all do) keeps it an automorphism, and an
    /// automorphism fixing a `keep` predicate preserves reachability
    /// projections, so the classes hold for every step of those flows. A
    /// production with thousands of interchangeable children (a wide
    /// list) collapses to a handful of classes.
    pub fn rhs_position_groups(&self, p: ProductionId) -> &[Vec<u16>] {
        self.groups[p.index()].get_or_init(|| self.position_groups(p))
    }

    fn position_groups(&self, p: ProductionId) -> Vec<Vec<u16>> {
        let (grammar, dep) = (self.grammar, self.dep(p));
        let prod = grammar.production(p);
        let n = dep.len();
        let mut preds: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (u, v) in dep.edges() {
            preds[v].push(u);
        }
        let mut sigs: Vec<(Vec<u64>, u16)> = Vec::with_capacity(prod.arity());
        for pos in 1..=prod.arity() as u16 {
            let ph = prod.phylum_at(pos);
            let own = dep.attr_index(pos, 0)..dep.attr_index(pos, grammar.phylum(ph).attrs().len());
            // Signature: phylum, then per local attribute the sorted
            // encodings of successor and predecessor neighbors, with
            // sentinels separating the sections. Own-position neighbors
            // encode as `2 * local`, everything else as `2 * node + 1`.
            let mut sig: Vec<u64> = vec![ph.index() as u64];
            for u in own.clone() {
                for list in [dep.succs(u), &preds[u]] {
                    sig.push(u64::MAX);
                    let from = sig.len();
                    sig.extend(list.iter().map(|&w| match own.contains(&w) {
                        true => 2 * (w - own.start) as u64,
                        false => 2 * w as u64 + 1,
                    }));
                    sig[from..].sort_unstable();
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
}

/// The pasting workspace: `D(p)` of the production it was last
/// [`reset`](Self::reset) to, plus pasted relations, with matching dense
/// node indexing.
#[derive(Debug)]
pub(crate) struct Pasted<'d, 'g> {
    deps: &'d Deps<'g>,
    p: ProductionId,
    /// The combined digraph.
    graph: Digraph,
    scratch: Scratch,
    proj: BitMatrix,
    skip: BitMatrix,
    seen: Vec<bool>,
    queue: Vec<usize>,
    lens: Vec<usize>,
}

impl<'d, 'g> Pasted<'d, 'g> {
    pub fn new(deps: &'d Deps<'g>) -> Self {
        Pasted {
            deps,
            p: ProductionId::from_raw(0),
            graph: Digraph::default(),
            scratch: Scratch::default(),
            proj: BitMatrix::new(0),
            skip: BitMatrix::new(0),
            seen: Vec::new(),
            queue: Vec::new(),
            lens: Vec::new(),
        }
    }

    /// Makes the graph the bare `D(p)`.
    pub fn reset(&mut self, p: ProductionId) -> &mut Self {
        let dep = self.deps.dep(p);
        self.p = p;
        self.graph.reset_to(dep.len(), |u| dep.succs(u));
        self
    }

    /// The cascade run's graphs.
    pub fn deps(&self) -> &'d Deps<'g> {
        self.deps
    }

    /// `D(p)` of the current production.
    pub fn dep(&self) -> &'d DepGraph<'g> {
        self.deps.dep(self.p)
    }

    /// The combined digraph.
    pub fn graph(&self) -> &Digraph {
        &self.graph
    }

    /// Pastes relation `rel` (over the local attribute indices of the
    /// phylum at `pos`) onto position `pos`: for each pair `(i, j)` adds an
    /// edge between the corresponding occurrences.
    pub fn paste(&mut self, pos: u16, rel: &BitMatrix) -> &mut Self {
        let dep = self.dep();
        let ph = self.deps.grammar.production(self.p).phylum_at(pos);
        debug_assert_eq!(
            rel.len(),
            self.deps.grammar.phylum(ph).attrs().len(),
            "relation sized for phylum"
        );
        for (i, j) in rel.pairs() {
            self.graph
                .add_edge(dep.attr_index(pos, i), dep.attr_index(pos, j));
        }
        self
    }

    /// True if the graph stays acyclic with `rel` pasted at `pos`; the
    /// graph is left as it was either way.
    pub fn fits(&mut self, pos: u16, rel: &BitMatrix) -> bool {
        // Pasting at `pos` only appends to the rows of `pos`'s nodes.
        let nodes = self.dep().attr_index(pos, 0)..self.dep().attr_index(pos, rel.len());
        self.lens.clear();
        self.lens
            .extend(nodes.clone().map(|u| self.graph.succs(u).len()));
        self.paste(pos, rel);
        let fits = self.graph.find_cycle_with(&mut self.scratch).is_none();
        for (u, &len) in nodes.zip(&self.lens) {
            self.graph.truncate_succs(u, len);
        }
        fits
    }

    /// Like a projection of the transitive closure onto position `pos` —
    /// the relation over local attribute indices of the phylum at `pos`
    /// induced by paths between its occurrences, filtered by `keep(i, j)` —
    /// computed by breadth-first search from the `k` occurrence nodes of
    /// `pos`: `O(k · (V + E))` where a closure costs `O(V³/64)`. The two
    /// agree because a closure's `(u, v)` for `u ≠ v` is exactly "v
    /// reachable from u by a non-empty path". The result lives in the
    /// workspace until its next projection.
    pub fn project_reach(
        &mut self,
        pos: u16,
        keep: impl FnMut(usize, usize) -> bool,
    ) -> &BitMatrix {
        self.project_reach_excluding(pos, None, keep)
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
        &mut self,
        pos: u16,
        excluded: Option<&BitMatrix>,
        mut keep: impl FnMut(usize, usize) -> bool,
    ) -> &BitMatrix {
        let dep = self.dep();
        let ph = self.deps.grammar.production(self.p).phylum_at(pos);
        let k = self.deps.grammar.phylum(ph).attrs().len();
        // `pos`'s occurrences are numbered `base..base + k`.
        let base = dep.attr_index(pos, 0);
        // The pairs to skip, by local index: those `excluded` relates that
        // are not also an edge of `D(p)`.
        let skip = &mut self.skip;
        skip.reset(k);
        if let Some(rel) = excluded {
            debug_assert_eq!(rel.len(), k, "relation sized for phylum");
            for (i, j) in rel.pairs() {
                if !dep.succs(base + i).contains(&(base + j)) {
                    skip.set(i, j);
                }
            }
        }
        let skipped = |u: usize, v: usize| {
            let (i, j) = (u.wrapping_sub(base), v.wrapping_sub(base));
            i < k && j < k && skip.get(i, j)
        };
        let (seen, queue) = (&mut self.seen, &mut self.queue);
        self.proj.reset(k);
        for i in 0..k {
            let start = base + i;
            seen.clear();
            seen.resize(dep.len(), false);
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
                if i != j && seen[base + j] && keep(i, j) {
                    self.proj.set(i, j);
                }
            }
        }
        &self.proj
    }

    /// Finds a dependency cycle in the combined graph, as occurrence nodes.
    pub fn find_cycle(&mut self) -> Option<Vec<ONode>> {
        let dep = self.dep();
        self.graph
            .find_cycle_with(&mut self.scratch)
            .map(|c| c.into_iter().map(|u| dep.node(u)).collect())
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
        let deps = Deps::new(&g);
        let root = g.production_by_name("root").unwrap();
        let mut pg = Pasted::new(&deps);
        // io(A) = { i -> w }
        let mut io_a = BitMatrix::new(2);
        io_a.set(0, 1);
        pg.reset(root).paste(1, &io_a);
        assert!(pg.find_cycle().is_none());
        // Path S.j -> A.i -> A.w -> S.v projects to j -> v on S.
        let proj = pg.project_reach(0, |_, _| true);
        assert!(proj.get(0, 1));
        assert!(!proj.get(1, 0));
        // Without the pasted IO, the path is cut at A.
        let proj = pg.project_reach_excluding(1, Some(&io_a), |_, _| true);
        assert_eq!(proj.count(), 0);
    }

    #[test]
    fn cycle_detected_after_paste_and_trials_leave_the_graph() {
        let g = g();
        let deps = Deps::new(&g);
        let root = g.production_by_name("root").unwrap();
        let mut pg = Pasted::new(&deps);
        let mut io_a = BitMatrix::new(2);
        io_a.set(0, 1);
        pg.reset(root).paste(1, &io_a);
        // A bogus S relation v -> j closes the loop.
        let mut rel_s = BitMatrix::new(2);
        rel_s.set(1, 0);
        let edges = pg.graph().edge_count();
        assert!(!pg.fits(0, &rel_s));
        assert_eq!(pg.graph().edge_count(), edges);
        assert!(pg.find_cycle().is_none());
        pg.paste(0, &rel_s);
        let cyc = pg.find_cycle().unwrap();
        assert!(cyc.len() >= 4);
        // A reset drops every pasted edge.
        let leaf = g.production_by_name("leaf").unwrap();
        pg.reset(leaf);
        assert_eq!(pg.graph().edge_count(), deps.dep(leaf).edge_count());
        pg.reset(root);
        assert_eq!(pg.graph().edge_count(), deps.dep(root).edge_count());
    }
}
