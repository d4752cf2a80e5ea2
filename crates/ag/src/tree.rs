//! Attributed abstract trees and attribute-value stores.
//!
//! Trees are arena-allocated; nodes carry the applied production, their
//! children, and optionally a lexical token value (as attached by the
//! `aic`-style tree constructors, paper §3.3). Attribute values live in a
//! separate [`AttrValues`] store so that different evaluators (exhaustive,
//! space-optimized, incremental) can choose their own storage policy — the
//! whole point of paper §2.2.

use crate::error::TreeError;
use crate::grammar::Grammar;
use crate::ids::{AttrId, LocalId, NodeId, PhylumId, ProductionId};
use crate::value::Value;

/// A node of an attributed tree.
#[derive(Clone, Debug)]
pub struct Node {
    pub(crate) production: ProductionId,
    pub(crate) children: Vec<NodeId>,
    pub(crate) parent: Option<NodeId>,
    pub(crate) token: Option<Value>,
}

impl Node {
    /// The production applied at this node.
    pub fn production(&self) -> ProductionId {
        self.production
    }

    /// Children, left to right.
    pub fn children(&self) -> &[NodeId] {
        &self.children
    }

    /// The parent, or `None` at the root.
    pub fn parent(&self) -> Option<NodeId> {
        self.parent
    }

    /// The lexical token attached by the tree constructor, if any.
    pub fn token(&self) -> Option<&Value> {
        self.token.as_ref()
    }
}

/// An abstract syntax tree conforming to a [`Grammar`].
///
/// Build one with [`TreeBuilder`]; edit it with
/// [`replace_subtree`](Tree::replace_subtree) (the incremental evaluator's
/// edit operation, paper §2.1.2).
#[derive(Clone, Debug)]
pub struct Tree {
    pub(crate) nodes: Vec<Node>,
    pub(crate) root: NodeId,
}

impl Tree {
    /// The root node.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// The node table entry.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// Number of *live* nodes (reachable from the root).
    pub fn size(&self) -> usize {
        self.preorder().count()
    }

    /// Total arena capacity, including nodes detached by replacements.
    pub fn arena_len(&self) -> usize {
        self.nodes.len()
    }

    /// The phylum a node derives.
    pub fn phylum(&self, grammar: &Grammar, id: NodeId) -> PhylumId {
        grammar.production(self.node(id).production).lhs()
    }

    /// Preorder (node, depth) traversal from the root.
    pub fn preorder(&self) -> Preorder<'_> {
        Preorder {
            tree: self,
            stack: vec![(self.root, 0)],
        }
    }

    /// Replaces the subtree rooted at `at` by `replacement` (grafted into
    /// this arena). Returns the [`NodeId`] of the new subtree root.
    ///
    /// The old subtree's nodes stay in the arena but become unreachable.
    ///
    /// # Errors
    ///
    /// Fails with [`TreeError::Detached`] if `at` is not in the tree, or
    /// [`TreeError::ReplacePhylum`] if the replacement derives a different
    /// phylum. A rejected replacement leaves the tree unchanged.
    pub fn replace_subtree(
        &mut self,
        grammar: &Grammar,
        at: NodeId,
        replacement: &Tree,
    ) -> Result<NodeId, TreeError> {
        self.check_replacement(grammar, at, replacement)?;
        Ok(self.graft(at, replacement))
    }

    /// Applies several subtree replacements and returns the new subtree
    /// roots in edit order (paper §2.1.2: "multiple subtree
    /// replacements").
    ///
    /// # Errors
    ///
    /// Every edit is checked before any is applied, so a rejected batch
    /// leaves the tree unchanged. Each edit fails as for
    /// [`replace_subtree`](Self::replace_subtree), and with
    /// [`TreeError::NestedEdit`] when its target lies inside another
    /// target's subtree or is named twice.
    pub fn replace_subtrees(
        &mut self,
        grammar: &Grammar,
        edits: &[(NodeId, Tree)],
    ) -> Result<Vec<NodeId>, TreeError> {
        for (i, (at, replacement)) in edits.iter().enumerate() {
            let ancestry = self.check_replacement(grammar, *at, replacement)?;
            for (j, &(outer, _)) in edits.iter().enumerate() {
                if j != i && ancestry.contains(&outer) {
                    return Err(TreeError::NestedEdit { inner: *at, outer });
                }
            }
        }
        Ok(edits.iter().map(|(at, r)| self.graft(*at, r)).collect())
    }

    /// Checks that `at` is in the tree and `replacement` derives its
    /// phylum, returning `at` and its ancestors.
    fn check_replacement(
        &self,
        grammar: &Grammar,
        at: NodeId,
        replacement: &Tree,
    ) -> Result<Vec<NodeId>, TreeError> {
        let ancestry = self.ancestry(at)?;
        let want = self.phylum(grammar, at);
        let got = replacement.phylum(grammar, replacement.root());
        if want != got {
            return Err(TreeError::ReplacePhylum {
                expected: grammar.phylum(want).name().to_string(),
                found: grammar.phylum(got).name().to_string(),
            });
        }
        Ok(ancestry)
    }

    /// Whether `id` is a node of the tree: inside the arena, and not left
    /// behind by a replacement (each ancestor still lists the node below
    /// it, up to the root).
    pub fn is_live(&self, id: NodeId) -> bool {
        if id.index() >= self.nodes.len() {
            return false;
        }
        let mut cur = id;
        while let Some(parent) = self.nodes[cur.index()].parent {
            if !self.nodes[parent.index()].children.contains(&cur) {
                return false;
            }
            cur = parent;
        }
        cur == self.root
    }

    /// `id` followed by its ancestors up to the root, or
    /// [`TreeError::Detached`] when `id` is not [live](Self::is_live).
    fn ancestry(&self, id: NodeId) -> Result<Vec<NodeId>, TreeError> {
        if !self.is_live(id) {
            return Err(TreeError::Detached { node: id });
        }
        Ok(std::iter::successors(Some(id), |n| self.nodes[n.index()].parent).collect())
    }

    /// Grafts `replacement` at the checked target `at`.
    fn graft(&mut self, at: NodeId, replacement: &Tree) -> NodeId {
        let base = self.nodes.len() as u32;
        for (i, n) in replacement.nodes.iter().enumerate() {
            let mut n = n.clone();
            n.children = n
                .children
                .iter()
                .map(|c| NodeId::from_raw(c.0 + base))
                .collect();
            n.parent = if i as u32 == replacement.root.0 {
                self.nodes[at.index()].parent
            } else {
                n.parent.map(|p| NodeId::from_raw(p.0 + base))
            };
            self.nodes.push(n);
        }
        let new_root = NodeId::from_raw(replacement.root.0 + base);
        match self.nodes[at.index()].parent {
            Some(parent) => {
                let slot = self.nodes[parent.index()]
                    .children
                    .iter()
                    .position(|&c| c == at)
                    .expect("checked target is listed by its parent");
                self.nodes[parent.index()].children[slot] = new_root;
            }
            None => self.root = new_root,
        }
        new_root
    }

    /// Replaces the production applied at `at` **in place**, keeping the
    /// node's children, and returns the production it replaced. The new
    /// production must derive the same phylum with the same RHS signature
    /// (the paper's operator-swap edit, e.g. exchanging `add` for `sub`).
    ///
    /// The attribute stores do not notice the swap. The node's
    /// [`AttrValues`] block still fits, since the phylum is unchanged; which
    /// of its cells are stale is the caller's decision. When the local count
    /// changes, the caller gives the node a fresh frame with
    /// [`LocalFrames::reframe`].
    ///
    /// # Errors
    ///
    /// Fails with [`TreeError::Detached`] if `at` is not in the tree,
    /// [`TreeError::ReplacePhylum`] when the LHS phylum differs,
    /// [`TreeError::ChildCount`] when the arity differs, or
    /// [`TreeError::ChildPhylum`] when an RHS phylum differs. A rejected
    /// swap leaves the tree unchanged.
    pub fn replace_production(
        &mut self,
        grammar: &Grammar,
        at: NodeId,
        production: ProductionId,
    ) -> Result<ProductionId, TreeError> {
        self.ancestry(at)?;
        let old = grammar.production(self.nodes[at.index()].production);
        let new = grammar.production(production);
        if old.lhs() != new.lhs() {
            return Err(TreeError::ReplacePhylum {
                expected: grammar.phylum(old.lhs()).name().to_string(),
                found: grammar.phylum(new.lhs()).name().to_string(),
            });
        }
        if old.arity() != new.arity() {
            return Err(TreeError::ChildCount {
                production: new.name().to_string(),
                expected: new.arity(),
                found: old.arity(),
            });
        }
        for (i, (&have, &want)) in old.rhs().iter().zip(new.rhs()).enumerate() {
            if have != want {
                return Err(TreeError::ChildPhylum {
                    production: new.name().to_string(),
                    pos: i + 1,
                    expected: grammar.phylum(want).name().to_string(),
                    found: grammar.phylum(have).name().to_string(),
                });
            }
        }
        Ok(std::mem::replace(
            &mut self.nodes[at.index()].production,
            production,
        ))
    }

    /// Depth of `id` (root has depth 0).
    pub fn depth(&self, id: NodeId) -> usize {
        let mut d = 0;
        let mut cur = id;
        while let Some(p) = self.node(cur).parent() {
            d += 1;
            cur = p;
        }
        d
    }

    /// The 1-based child position of `id` under its parent, or `None` at
    /// the root. This is the `j` of the paper's `VISIT i, j` instruction.
    pub fn child_index(&self, id: NodeId) -> Option<usize> {
        let parent = self.node(id).parent()?;
        self.node(parent)
            .children()
            .iter()
            .position(|&c| c == id)
            .map(|i| i + 1)
    }
}

/// Preorder traversal iterator over a [`Tree`], yielding `(node, depth)`.
#[derive(Debug)]
pub struct Preorder<'a> {
    tree: &'a Tree,
    stack: Vec<(NodeId, usize)>,
}

impl Iterator for Preorder<'_> {
    type Item = (NodeId, usize);

    fn next(&mut self) -> Option<Self::Item> {
        let (id, depth) = self.stack.pop()?;
        let node = self.tree.node(id);
        for &c in node.children().iter().rev() {
            self.stack.push((c, depth + 1));
        }
        Some((id, depth))
    }
}

/// Reconstructs a [`Tree`] of `grammar` from an output-tree
/// [`Term`](crate::Term)
/// value — the glue of the paper's modularity scheme (§2.3): "each
/// evaluator takes as input a tree … and produces as output one or more
/// decorated trees", so one AG's output term becomes the next AG's input
/// tree. Term operators are resolved by production name; a term child that
/// is not itself a term becomes the node's lexical token (for leaf
/// productions carrying a scalar).
///
/// # Errors
///
/// Fails if an operator name is unknown, the child count mismatches the
/// production arity, or a child phylum is wrong.
pub fn term_to_tree(grammar: &Grammar, term: &crate::value::Term) -> Result<Tree, TreeError> {
    fn build(
        grammar: &Grammar,
        tb: &mut TreeBuilder,
        term: &crate::value::Term,
    ) -> Result<NodeId, TreeError> {
        let p = grammar
            .production_by_name(&term.op)
            .ok_or_else(|| TreeError::ChildCount {
                production: format!("<unknown `{}`>", term.op),
                expected: 0,
                found: term.children.len(),
            })?;
        let mut kids = Vec::new();
        let mut token = None;
        for c in &term.children {
            match c {
                Value::Term(t) => kids.push(build(grammar, tb, t)?),
                scalar => token = Some(scalar.clone()),
            }
        }
        tb.node_with_token(p, &kids, token)
    }
    let mut tb = TreeBuilder::new(grammar);
    let root = build(grammar, &mut tb, term)?;
    Ok(tb.finish(root))
}

/// Builds [`Tree`]s bottom-up, validating each node against the grammar.
#[derive(Debug)]
pub struct TreeBuilder<'g> {
    grammar: &'g Grammar,
    nodes: Vec<Node>,
}

impl<'g> TreeBuilder<'g> {
    /// Starts building a tree for `grammar`.
    pub fn new(grammar: &'g Grammar) -> Self {
        TreeBuilder {
            grammar,
            nodes: Vec::new(),
        }
    }

    /// Creates a node applying `production` to `children`.
    ///
    /// # Errors
    ///
    /// Fails if the child count or a child's phylum does not match the
    /// production signature.
    pub fn node(
        &mut self,
        production: ProductionId,
        children: &[NodeId],
    ) -> Result<NodeId, TreeError> {
        self.node_with_token(production, children, None)
    }

    /// Like [`node`](Self::node) but attaches a lexical token value.
    pub fn node_with_token(
        &mut self,
        production: ProductionId,
        children: &[NodeId],
        token: Option<Value>,
    ) -> Result<NodeId, TreeError> {
        let prod = self.grammar.production(production);
        if prod.arity() != children.len() {
            return Err(TreeError::ChildCount {
                production: prod.name().to_string(),
                expected: prod.arity(),
                found: children.len(),
            });
        }
        for (i, (&c, &want)) in children.iter().zip(prod.rhs()).enumerate() {
            let got = self
                .grammar
                .production(self.nodes[c.index()].production)
                .lhs();
            if got != want {
                return Err(TreeError::ChildPhylum {
                    production: prod.name().to_string(),
                    pos: i + 1,
                    expected: self.grammar.phylum(want).name().to_string(),
                    found: self.grammar.phylum(got).name().to_string(),
                });
            }
        }
        let id = NodeId::from_raw(self.nodes.len() as u32);
        self.nodes.push(Node {
            production,
            children: children.to_vec(),
            parent: None,
            token,
        });
        for &c in children {
            self.nodes[c.index()].parent = Some(id);
        }
        Ok(id)
    }

    /// Shorthand: creates a node by production *name*.
    ///
    /// # Errors
    ///
    /// Fails if the name is unknown or the node is ill-formed.
    pub fn op(&mut self, name: &str, children: &[NodeId]) -> Result<NodeId, TreeError> {
        let p = self
            .grammar
            .production_by_name(name)
            .ok_or_else(|| TreeError::ChildCount {
                production: format!("<unknown `{name}`>"),
                expected: 0,
                found: children.len(),
            })?;
        self.node(p, children)
    }

    /// Finishes the tree with `root`. The root must derive a phylum; it need
    /// not be the grammar's axiom (subtrees are first-class for incremental
    /// replacement), but [`finish_root`](Self::finish_root) enforces the
    /// axiom when wanted.
    pub fn finish(self, root: NodeId) -> Tree {
        Tree {
            nodes: self.nodes,
            root,
        }
    }

    /// Finishes the tree, requiring `root` to derive the grammar's axiom.
    ///
    /// # Errors
    ///
    /// Fails with [`TreeError::RootPhylum`] otherwise.
    pub fn finish_root(self, root: NodeId) -> Result<Tree, TreeError> {
        let got = self
            .grammar
            .production(self.nodes[root.index()].production)
            .lhs();
        if got != self.grammar.root() {
            return Err(TreeError::RootPhylum {
                expected: self.grammar.phylum(self.grammar.root()).name().to_string(),
                found: self.grammar.phylum(got).name().to_string(),
            });
        }
        Ok(self.finish(root))
    }
}

/// Dense per-node attribute storage: the "attributes at tree nodes" storage
/// class, and the baseline the space optimizer improves on.
///
/// Values live in a single flat arena (`cells`) addressed by a per-node base
/// offset plus the attribute's offset within its phylum — one contiguous
/// allocation instead of one `Vec` per node, so the slot-compiled evaluators
/// can turn an attribute fetch into two indexed loads. A node's block is
/// sized by its phylum, which no edit changes, so the store never needs to
/// know which production a node applies.
#[derive(Clone, Debug, Default)]
pub struct AttrValues {
    /// The flat cell arena; node `n`'s block starts at `offsets[n]`.
    cells: Vec<Option<Value>>,
    /// Per-node base offset into `cells`.
    offsets: Vec<u32>,
}

impl AttrValues {
    /// Creates an empty store shaped for `tree` under `grammar`.
    pub fn new(grammar: &Grammar, tree: &Tree) -> Self {
        let mut vals = AttrValues::default();
        vals.sync(grammar, tree);
        vals
    }

    /// Appends empty blocks for the nodes grafted into `tree` since the
    /// last call. Existing blocks, including those of replaced nodes, are
    /// left alone: invalidating cells after an edit is the evaluator's
    /// decision. The blocks are reserved in one pass, so a store is
    /// allocated once when a tree is first synced and grows amortized by
    /// the grafts of later edits.
    pub fn sync(&mut self, grammar: &Grammar, tree: &Tree) {
        let widths = tree.nodes[self.offsets.len()..].iter().map(|n| {
            grammar
                .phylum(grammar.production(n.production).lhs())
                .attrs()
                .len()
        });
        append_blocks(&mut self.cells, &mut self.offsets, widths);
    }

    /// The value of `attr` at `node`, if evaluated.
    #[inline]
    pub fn get(&self, grammar: &Grammar, node: NodeId, attr: AttrId) -> Option<&Value> {
        self.get_slot(node, grammar.attr(attr).offset())
    }

    /// Sets the value of `attr` at `node`, returning the previous value.
    #[inline]
    pub fn set(
        &mut self,
        grammar: &Grammar,
        node: NodeId,
        attr: AttrId,
        value: Value,
    ) -> Option<Value> {
        self.set_slot(node, grammar.attr(attr).offset(), value)
    }

    /// Clears the value of `attr` at `node`.
    #[inline]
    pub fn clear(&mut self, grammar: &Grammar, node: NodeId, attr: AttrId) -> Option<Value> {
        let i = self.slot_index(node, grammar.attr(attr).offset());
        self.cells[i].take()
    }

    /// The value in `node`'s block at pre-computed slot offset `off` (an
    /// attribute's offset within its phylum, resolved once at evaluator
    /// construction).
    #[inline]
    pub fn get_slot(&self, node: NodeId, off: usize) -> Option<&Value> {
        self.cells[self.slot_index(node, off)].as_ref()
    }

    /// Sets the slot at pre-computed offset `off` in `node`'s block.
    #[inline]
    pub fn set_slot(&mut self, node: NodeId, off: usize, value: Value) -> Option<Value> {
        let i = self.slot_index(node, off);
        self.cells[i].replace(value)
    }

    /// The arena index of slot `off` in `node`'s block: a dense number per
    /// attribute instance, fixed for the store's life (blocks are only
    /// appended), so an evaluator can keep a side table per instance.
    #[inline]
    pub fn slot_index(&self, node: NodeId, off: usize) -> usize {
        self.offsets[node.index()] as usize + off
    }

    /// Number of currently stored (live) attribute values.
    pub fn live_count(&self) -> usize {
        self.cells.iter().filter(|v| v.is_some()).count()
    }

    /// All cells in dense arena order (node id order, each node's block
    /// in phylum attribute order). The order is a pure function of the
    /// tree shape, which makes it usable for deterministic digests
    /// without any per-cell grammar lookups.
    pub fn cells(&self) -> impl Iterator<Item = Option<&Value>> {
        self.cells.iter().map(Option::as_ref)
    }
}

/// Dense per-activation storage for production-local attributes, laid out as
/// one flat arena with a frame per tree node sized by the node's production.
/// Replaces the `(NodeId, LocalId)` hash map the evaluators used before slot
/// compilation.
#[derive(Clone, Debug, Default)]
pub struct LocalFrames {
    /// The flat cell arena; node `n`'s frame starts at `offsets[n]`.
    cells: Vec<Option<Value>>,
    /// Per-node frame base offset into `cells`.
    offsets: Vec<u32>,
}

impl LocalFrames {
    /// Creates empty frames shaped for `tree` under `grammar`.
    pub fn new(grammar: &Grammar, tree: &Tree) -> Self {
        let mut frames = LocalFrames::default();
        frames.sync(grammar, tree);
        frames
    }

    /// Appends empty frames for the nodes grafted into `tree` since the
    /// last call, leaving existing frames alone. Like
    /// [`AttrValues::sync`], it sizes a fresh store in one pass and grows
    /// amortized after edits.
    pub fn sync(&mut self, grammar: &Grammar, tree: &Tree) {
        let widths = tree.nodes[self.offsets.len()..]
            .iter()
            .map(|n| grammar.production(n.production).locals().len());
        append_blocks(&mut self.cells, &mut self.offsets, widths);
    }

    /// Gives `node` a fresh, empty frame of `width` locals at the end of
    /// the arena: the frame it needs after [`Tree::replace_production`]
    /// swapped in a production with a different local count.
    pub fn reframe(&mut self, node: NodeId, width: usize) {
        self.offsets[node.index()] = self.cells.len() as u32;
        self.cells
            .extend(std::iter::repeat_with(|| None).take(width));
    }

    /// The value of `local` in `node`'s frame, if computed.
    #[inline]
    pub fn get(&self, node: NodeId, local: LocalId) -> Option<&Value> {
        self.cells[self.slot_index(node, local)].as_ref()
    }

    /// Sets `local` in `node`'s frame, returning the previous value.
    #[inline]
    pub fn set(&mut self, node: NodeId, local: LocalId, value: Value) -> Option<Value> {
        let i = self.slot_index(node, local);
        self.cells[i].replace(value)
    }

    /// Clears `local` in `node`'s frame.
    #[inline]
    pub fn clear(&mut self, node: NodeId, local: LocalId) -> Option<Value> {
        let i = self.slot_index(node, local);
        self.cells[i].take()
    }

    /// The arena index of `local` in `node`'s frame: a dense number per
    /// local instance (see [`AttrValues::slot_index`]), fixed until
    /// [`reframe`](Self::reframe) moves the node's frame.
    #[inline]
    pub fn slot_index(&self, node: NodeId, local: LocalId) -> usize {
        self.offsets[node.index()] as usize + local.index()
    }

    /// Number of currently stored (live) local values.
    pub fn live_count(&self) -> usize {
        self.cells.iter().filter(|v| v.is_some()).count()
    }
}

/// Appends one empty block per width to a flat arena, recording each
/// block's base in `offsets`. Both vectors reserve the whole run first:
/// `Vec::reserve` is exact on an empty vector and amortized on a full one.
fn append_blocks(
    cells: &mut Vec<Option<Value>>,
    offsets: &mut Vec<u32>,
    widths: impl ExactSizeIterator<Item = usize> + Clone,
) {
    offsets.reserve(widths.len());
    cells.reserve(widths.clone().sum());
    for w in widths {
        offsets.push(cells.len() as u32);
        cells.resize(cells.len() + w, None);
    }
}

#[cfg(test)]
mod tests {
    use crate::builder::GrammarBuilder;
    use crate::ids::Occ;

    use super::*;

    fn list_grammar() -> Grammar {
        // S ::= L ; L ::= cons(L) | nil
        let mut g = GrammarBuilder::new("list");
        let s = g.phylum("S");
        let l = g.phylum("L");
        let n = g.syn(s, "n");
        let len = g.syn(l, "len");
        g.func("succ", 1, |a| Value::Int(a[0].as_int() + 1));
        let root = g.production("root", s, &[l]);
        let cons = g.production("cons", l, &[l]);
        // Same signature as `cons` — the in-place production-swap target.
        let cons2 = g.production("cons2", l, &[l]);
        let nil = g.production("nil", l, &[]);
        g.copy(root, Occ::lhs(n), Occ::new(1, len));
        g.call(cons, Occ::lhs(len), "succ", [Occ::new(1, len).into()]);
        g.copy(cons2, Occ::lhs(len), Occ::new(1, len));
        g.constant(nil, Occ::lhs(len), Value::Int(0));
        g.finish().unwrap()
    }

    fn chain(g: &Grammar, k: usize) -> Tree {
        let mut b = TreeBuilder::new(g);
        let mut cur = b.op("nil", &[]).unwrap();
        for _ in 0..k {
            cur = b.op("cons", &[cur]).unwrap();
        }
        let root = b.op("root", &[cur]).unwrap();
        b.finish_root(root).unwrap()
    }

    #[test]
    fn build_and_traverse() {
        let g = list_grammar();
        let t = chain(&g, 3);
        assert_eq!(t.size(), 5);
        let kinds: Vec<usize> = t.preorder().map(|(_, d)| d).collect();
        assert_eq!(kinds, vec![0, 1, 2, 3, 4]);
        let (deepest, _) = t.preorder().last().unwrap();
        assert_eq!(t.depth(deepest), 4);
        assert_eq!(t.child_index(t.root()), None);
    }

    #[test]
    fn bad_children_rejected() {
        let g = list_grammar();
        let mut b = TreeBuilder::new(&g);
        let nil = b.op("nil", &[]).unwrap();
        assert!(matches!(
            b.op("root", &[nil, nil]),
            Err(TreeError::ChildCount { .. })
        ));
        let root = b.op("root", &[nil]).unwrap();
        // root derives S, but cons wants L.
        assert!(matches!(
            b.op("cons", &[root]),
            Err(TreeError::ChildPhylum { pos: 1, .. })
        ));
    }

    #[test]
    fn finish_root_checks_axiom() {
        let g = list_grammar();
        let mut b = TreeBuilder::new(&g);
        let nil = b.op("nil", &[]).unwrap();
        assert!(matches!(
            b.finish_root(nil),
            Err(TreeError::RootPhylum { .. })
        ));
    }

    #[test]
    fn replace_subtree_grafts() {
        let g = list_grammar();
        let mut t = chain(&g, 2);
        // replace the innermost `nil` subtree's parent (a cons chain of 1)
        let target = t
            .preorder()
            .find(|&(id, _)| g.production(t.node(id).production()).name() == "cons")
            .map(|(id, _)| id)
            .unwrap();
        let mut b = TreeBuilder::new(&g);
        let nil = b.op("nil", &[]).unwrap();
        let c1 = b.op("cons", &[nil]).unwrap();
        let c2 = b.op("cons", &[c1]).unwrap();
        let c3 = b.op("cons", &[c2]).unwrap();
        let sub = b.finish(c3);
        let before = t.size();
        let new_root = t.replace_subtree(&g, target, &sub).unwrap();
        assert_eq!(t.size(), before + 1); // replaced 3-node subtree by 4-node subtree
        assert_eq!(t.child_index(new_root), Some(1));
        // Phylum mismatch rejected.
        let mut b = TreeBuilder::new(&g);
        let nil = b.op("nil", &[]).unwrap();
        let s_root = b.op("root", &[nil]).unwrap();
        let s_tree = b.finish(s_root);
        assert!(matches!(
            t.replace_subtree(&g, new_root, &s_tree),
            Err(TreeError::ReplacePhylum { .. })
        ));
        // The replaced node, and any node below it, is no longer a target.
        let cons2 = g.production_by_name("cons2").unwrap();
        let inner = t.node(target).children()[0];
        assert!(t.is_live(new_root) && t.is_live(t.node(new_root).children()[0]));
        for gone in [target, inner, NodeId::from_raw(t.arena_len() as u32)] {
            assert!(!t.is_live(gone));
            let before = t.clone();
            let err = TreeError::Detached { node: gone };
            assert_eq!(t.replace_subtree(&g, gone, &sub), Err(err.clone()));
            assert_eq!(t.replace_production(&g, gone, cons2), Err(err));
            assert_eq!(format!("{t:?}"), format!("{before:?}"));
        }
    }

    #[test]
    fn replace_at_root() {
        let g = list_grammar();
        let mut t = chain(&g, 1);
        let sub = chain(&g, 4);
        let new_root = t.replace_subtree(&g, t.root(), &sub).unwrap();
        assert_eq!(t.root(), new_root);
        assert_eq!(t.size(), 6);
        assert!(t.node(t.root()).parent().is_none());
    }

    #[test]
    fn attr_values_store() {
        let g = list_grammar();
        let t = chain(&g, 1);
        let l = g.phylum_by_name("L").unwrap();
        let len = g.attr_by_name(l, "len").unwrap();
        let mut vals = AttrValues::new(&g, &t);
        let leaf = t.preorder().last().unwrap().0;
        assert_eq!(vals.get(&g, leaf, len), None);
        assert_eq!(vals.set(&g, leaf, len, Value::Int(0)), None);
        assert_eq!(vals.set(&g, leaf, len, Value::Int(5)), Some(Value::Int(0)));
        assert_eq!(vals.get(&g, leaf, len), Some(&Value::Int(5)));
        assert_eq!(vals.live_count(), 1);
        assert_eq!(vals.clear(&g, leaf, len), Some(Value::Int(5)));
        assert_eq!(vals.live_count(), 0);
    }

    #[test]
    fn replace_production_validates_signature() {
        let g = list_grammar();
        let mut t = chain(&g, 2);
        let target = t
            .preorder()
            .find(|&(id, _)| g.production(t.node(id).production()).name() == "cons")
            .map(|(id, _)| id)
            .unwrap();
        // Wrong LHS phylum (root derives S, node is an L).
        let root_p = g.production_by_name("root").unwrap();
        assert!(matches!(
            t.replace_production(&g, target, root_p),
            Err(TreeError::ReplacePhylum { .. })
        ));
        // Wrong arity (nil has no children).
        let nil_p = g.production_by_name("nil").unwrap();
        assert!(matches!(
            t.replace_production(&g, target, nil_p),
            Err(TreeError::ChildCount { .. })
        ));
        // Same signature is accepted.
        let cons2 = g.production_by_name("cons2").unwrap();
        t.replace_production(&g, target, cons2).unwrap();
        assert_eq!(g.production(t.node(target).production()).name(), "cons2");
    }

    #[test]
    fn sync_covers_grafts_and_keeps_existing_cells() {
        let g = list_grammar();
        let mut t = chain(&g, 2);
        let l = g.phylum_by_name("L").unwrap();
        let len = g.attr_by_name(l, "len").unwrap();
        let mut vals = AttrValues::new(&g, &t);
        let target = t
            .preorder()
            .find(|&(id, _)| g.production(t.node(id).production()).name() == "cons")
            .map(|(id, _)| id)
            .unwrap();
        let leaf = t.preorder().last().unwrap().0;
        vals.set(&g, target, len, Value::Int(2));
        vals.set(&g, leaf, len, Value::Int(0));
        // An in-place swap keeps the node's block and values: which cells
        // it invalidates is the evaluator's decision.
        let cons2 = g.production_by_name("cons2").unwrap();
        t.replace_production(&g, target, cons2).unwrap();
        vals.sync(&g, &t);
        assert_eq!(vals.get(&g, target, len), Some(&Value::Int(2)));
        // A graft gets fresh, empty blocks; the replaced node keeps its own.
        let mut b = TreeBuilder::new(&g);
        let nil = b.op("nil", &[]).unwrap();
        let new_leaf = t.replace_subtree(&g, leaf, &b.finish(nil)).unwrap();
        vals.sync(&g, &t);
        assert_eq!(vals.get(&g, new_leaf, len), None);
        assert_eq!(vals.get(&g, leaf, len), Some(&Value::Int(0)));
        vals.set(&g, new_leaf, len, Value::Int(0));
        // A second sync with no edits is a no-op.
        vals.sync(&g, &t);
        assert_eq!(vals.get(&g, new_leaf, len), Some(&Value::Int(0)));
        assert_eq!(vals.live_count(), 3);
    }
}
