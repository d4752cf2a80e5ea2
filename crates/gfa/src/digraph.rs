//! Adjacency-list digraphs: deterministic topological sorting, cycle
//! extraction (for the circularity trace, paper §3.1), strongly connected
//! components, and reachability.

use std::collections::VecDeque;

/// A directed graph on dense node indices `0..n`.
#[derive(Clone, Debug, Default)]
pub struct Digraph {
    /// `succs[u]` for `u < n`; [`reset_to`](Self::reset_to) keeps the rest.
    succs: Vec<Vec<usize>>,
    n: usize,
}

/// Reusable buffers for [`Digraph::find_cycle_with`].
#[derive(Clone, Debug, Default)]
pub struct Scratch {
    grey: Vec<u8>,
    path: Vec<usize>,
    dfs: Vec<(usize, usize)>,
}

impl Digraph {
    /// An edgeless graph on `n` nodes.
    pub fn new(n: usize) -> Self {
        let mut g = Digraph::default();
        g.reset_to(n, |_| &[]);
        g
    }

    /// Makes this the graph on `n` nodes where `u`'s successors are
    /// `succs(u)` (in order, without duplicates), keeping the row buffers.
    pub fn reset_to<'a>(&mut self, n: usize, succs: impl Fn(usize) -> &'a [usize]) {
        if self.succs.len() < n {
            self.succs.resize_with(n, Vec::new);
        }
        for (u, row) in self.succs[..n].iter_mut().enumerate() {
            row.clear();
            row.extend_from_slice(succs(u));
            debug_assert!(row.iter().all(|&v| v < n), "successor out of range");
        }
        self.n = n;
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True if the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Removes the edges added from `u` after its first `len` ones.
    pub fn truncate_succs(&mut self, u: usize, len: usize) {
        self.succs[u].truncate(len);
    }

    /// Adds the edge `u → v` (duplicates ignored). Returns `true` if new.
    ///
    /// # Panics
    /// Panics if `u` or `v` is out of range.
    pub fn add_edge(&mut self, u: usize, v: usize) -> bool {
        assert!(u < self.n && v < self.n, "edge ({u},{v}) out of range");
        let s = &mut self.succs[u];
        if s.contains(&v) {
            false
        } else {
            s.push(v);
            true
        }
    }

    /// Successors of `u`.
    pub fn succs(&self, u: usize) -> &[usize] {
        &self.succs[u]
    }

    /// All edges.
    pub fn edges(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.succs[..self.n]
            .iter()
            .enumerate()
            .flat_map(|(u, vs)| vs.iter().map(move |&v| (u, v)))
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.succs[..self.n].iter().map(Vec::len).sum()
    }

    /// Deterministic topological order: Kahn's algorithm, breaking ties by
    /// the caller-supplied priority (lower key first), then by node index.
    ///
    /// Returns `None` if the graph has a cycle. The priority hook is what
    /// lets the visit-sequence generator group actions by visit while still
    /// respecting dependencies.
    pub fn topo_order_by<K: Ord>(&self, key: impl Fn(usize) -> K) -> Option<Vec<usize>> {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        let n = self.len();
        let mut indeg = vec![0usize; n];
        for (_, v) in self.edges() {
            indeg[v] += 1;
        }
        // Min-heap on (key, node): pops in exactly the order the naive
        // "scan ready for the minimum" loop would, but survives wide
        // productions where thousands of nodes are ready at once.
        let mut ready: BinaryHeap<Reverse<(K, usize)>> = (0..n)
            .filter(|&u| indeg[u] == 0)
            .map(|u| Reverse((key(u), u)))
            .collect();
        let mut out = Vec::with_capacity(n);
        while let Some(Reverse((_, u))) = ready.pop() {
            out.push(u);
            for &v in &self.succs[u] {
                indeg[v] -= 1;
                if indeg[v] == 0 {
                    ready.push(Reverse((key(v), v)));
                }
            }
        }
        (out.len() == n).then_some(out)
    }

    /// Plain deterministic topological order (ties by node index).
    pub fn topo_order(&self) -> Option<Vec<usize>> {
        self.topo_order_by(|_| 0u8)
    }

    /// Finds a cycle and returns it as a node sequence `v0 → v1 → … → v0`
    /// (first node repeated at the end), or `None` if acyclic. Used by the
    /// interactive circularity trace to show *why* an AG fails a test.
    pub fn find_cycle(&self) -> Option<Vec<usize>> {
        self.find_cycle_with(&mut Scratch::default())
    }

    /// [`find_cycle`](Self::find_cycle) on the buffers of `scratch`.
    pub fn find_cycle_with(&self, scratch: &mut Scratch) -> Option<Vec<usize>> {
        const WHITE: u8 = 0;
        const GREY: u8 = 1;
        const BLACK: u8 = 2;
        let Scratch { grey, path, dfs } = scratch;
        grey.clear();
        grey.resize(self.n, WHITE);
        path.clear();

        // Iterative DFS keeping the grey path in `path`.
        for start in 0..self.n {
            if grey[start] != WHITE {
                continue;
            }
            dfs.clear();
            dfs.push((start, 0));
            grey[start] = GREY;
            path.push(start);
            while let Some(&mut (u, ref mut i)) = dfs.last_mut() {
                if *i < self.succs[u].len() {
                    let v = self.succs[u][*i];
                    *i += 1;
                    match grey[v] {
                        WHITE => {
                            grey[v] = GREY;
                            path.push(v);
                            dfs.push((v, 0));
                        }
                        GREY => {
                            let at = path.iter().position(|&x| x == v).expect("grey on path");
                            let mut cycle: Vec<usize> = path[at..].to_vec();
                            cycle.push(v);
                            return Some(cycle);
                        }
                        _ => {}
                    }
                } else {
                    grey[u] = BLACK;
                    path.pop();
                    dfs.pop();
                }
            }
        }
        None
    }

    /// Strongly connected components in reverse topological order
    /// (Tarjan, iterative).
    pub fn sccs(&self) -> Vec<Vec<usize>> {
        let n = self.n;
        let mut index = vec![usize::MAX; n];
        let mut low = vec![0usize; n];
        let mut on_stack = vec![false; n];
        let mut stack: Vec<usize> = Vec::new();
        let mut next = 0usize;
        let mut out: Vec<Vec<usize>> = Vec::new();

        for root in 0..n {
            if index[root] != usize::MAX {
                continue;
            }
            let mut dfs: Vec<(usize, usize)> = vec![(root, 0)];
            index[root] = next;
            low[root] = next;
            next += 1;
            stack.push(root);
            on_stack[root] = true;
            while let Some(&mut (u, ref mut i)) = dfs.last_mut() {
                if *i < self.succs[u].len() {
                    let v = self.succs[u][*i];
                    *i += 1;
                    if index[v] == usize::MAX {
                        index[v] = next;
                        low[v] = next;
                        next += 1;
                        stack.push(v);
                        on_stack[v] = true;
                        dfs.push((v, 0));
                    } else if on_stack[v] {
                        low[u] = low[u].min(index[v]);
                    }
                } else {
                    dfs.pop();
                    if let Some(&(p, _)) = dfs.last() {
                        low[p] = low[p].min(low[u]);
                    }
                    if low[u] == index[u] {
                        let mut comp = Vec::new();
                        loop {
                            let w = stack.pop().expect("scc stack");
                            on_stack[w] = false;
                            comp.push(w);
                            if w == u {
                                break;
                            }
                        }
                        comp.sort_unstable();
                        out.push(comp);
                    }
                }
            }
        }
        out
    }

    /// Nodes reachable from `start` (including `start`).
    pub fn reachable_from(&self, start: usize) -> Vec<usize> {
        let n = self.n;
        let mut seen = vec![false; n];
        let mut q = VecDeque::from([start]);
        seen[start] = true;
        while let Some(u) = q.pop_front() {
            for &v in &self.succs[u] {
                if !seen[v] {
                    seen[v] = true;
                    q.push_back(v);
                }
            }
        }
        (0..n).filter(|&u| seen[u]).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> Digraph {
        let mut g = Digraph::new(4);
        g.add_edge(0, 1);
        g.add_edge(0, 2);
        g.add_edge(1, 3);
        g.add_edge(2, 3);
        g
    }

    #[test]
    fn topo_order_is_deterministic() {
        let g = diamond();
        assert_eq!(g.topo_order(), Some(vec![0, 1, 2, 3]));
        // Priority can flip the tie between 1 and 2.
        let order = g.topo_order_by(std::cmp::Reverse).unwrap();
        assert_eq!(order, vec![0, 2, 1, 3]);
    }

    #[test]
    fn topo_order_none_on_cycle() {
        let mut g = diamond();
        g.add_edge(3, 0);
        assert_eq!(g.topo_order(), None);
    }

    #[test]
    fn cycle_extraction() {
        let mut g = Digraph::new(5);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        g.add_edge(2, 3);
        g.add_edge(3, 1);
        g.add_edge(3, 4);
        let cyc = g.find_cycle().unwrap();
        assert_eq!(cyc.first(), cyc.last());
        assert!(cyc.len() >= 4, "1→2→3→1 plus repeat");
        for w in cyc.windows(2) {
            assert!(g.succs(w[0]).contains(&w[1]), "cycle uses real edges");
        }
        assert!(diamond().find_cycle().is_none());
    }

    #[test]
    fn sccs_partition_nodes() {
        let mut g = Digraph::new(6);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        g.add_edge(2, 0);
        g.add_edge(2, 3);
        g.add_edge(3, 4);
        g.add_edge(4, 3);
        let mut comps = g.sccs();
        comps.sort();
        assert!(comps.contains(&vec![0, 1, 2]));
        assert!(comps.contains(&vec![3, 4]));
        assert!(comps.contains(&vec![5]));
        let total: usize = comps.iter().map(Vec::len).sum();
        assert_eq!(total, 6);
    }

    #[test]
    fn reachability() {
        let g = diamond();
        assert_eq!(g.reachable_from(1), vec![1, 3]);
        assert_eq!(g.reachable_from(0).len(), 4);
    }

    #[test]
    fn reset_keeps_only_the_given_edges() {
        let mut g = diamond();
        g.reset_to(2, |_| &[]);
        assert_eq!((g.len(), g.edge_count()), (2, 0));
        g.add_edge(1, 0);
        g.reset_to(4, |u| if u == 3 { &[2, 0] } else { &[] });
        assert_eq!(g.edges().collect::<Vec<_>>(), [(3, 2), (3, 0)]);
        assert_eq!(g.topo_order(), Some(vec![1, 3, 0, 2]));
    }

    #[test]
    fn duplicate_edges_ignored() {
        let mut g = Digraph::new(2);
        assert!(g.add_edge(0, 1));
        assert!(!g.add_edge(0, 1));
        assert_eq!(g.edge_count(), 1);
    }
}
