//! The attribute-grammar object model.
//!
//! A [`Grammar`] is the *abstract AG* of the paper (§3.1): abstract syntax
//! (phyla and operators), attribute declarations, and semantic rules with
//! their local dependencies. It is the interface between the OLGA front-end
//! and the evaluator generator.

use std::fmt;
use std::sync::Arc;

use crate::ids::{AttrId, FuncId, LocalId, ONode, Occ, PhylumId, ProductionId};
use crate::value::Value;

/// Whether an attribute flows down (inherited) or up (synthesized).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AttrKind {
    /// Computed at a node from its context; flows top-down.
    Inherited,
    /// Computed at a node from its subtree; flows bottom-up.
    Synthesized,
}

impl AttrKind {
    /// `"inh"` or `"syn"`.
    pub fn short(self) -> &'static str {
        match self {
            AttrKind::Inherited => "inh",
            AttrKind::Synthesized => "syn",
        }
    }
}

/// A phylum (non-terminal) and its attribute declarations.
#[derive(Clone, Debug)]
pub struct Phylum {
    pub(crate) name: String,
    /// All attributes declared on this phylum, in declaration order.
    pub(crate) attrs: Vec<AttrId>,
    /// Productions whose LHS is this phylum.
    pub(crate) productions: Vec<ProductionId>,
}

impl Phylum {
    /// The phylum's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Attributes declared on this phylum, in declaration order.
    pub fn attrs(&self) -> &[AttrId] {
        &self.attrs
    }

    /// Productions deriving this phylum.
    pub fn productions(&self) -> &[ProductionId] {
        &self.productions
    }
}

/// An attribute declaration: name, kind, and owning phylum.
#[derive(Clone, Debug)]
pub struct AttrInfo {
    pub(crate) name: String,
    pub(crate) kind: AttrKind,
    pub(crate) phylum: PhylumId,
    /// Index of this attribute within its phylum's `attrs` list.
    pub(crate) offset: usize,
}

impl AttrInfo {
    /// The attribute's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Inherited or synthesized.
    pub fn kind(&self) -> AttrKind {
        self.kind
    }

    /// The phylum this attribute is declared on.
    pub fn phylum(&self) -> PhylumId {
        self.phylum
    }

    /// Index of this attribute within its phylum's attribute list; useful
    /// for dense per-node side tables.
    pub fn offset(&self) -> usize {
        self.offset
    }
}

/// An argument of a semantic rule.
#[derive(Clone, Debug, PartialEq)]
pub enum Arg {
    /// An attribute occurrence or production-local attribute.
    Node(ONode),
    /// An embedded constant.
    Const(Value),
    /// The lexical token value attached to the node the production is
    /// applied at (how `aic`-built trees carry scanned lexemes).
    Token,
}

impl From<Occ> for Arg {
    fn from(o: Occ) -> Self {
        Arg::Node(ONode::Attr(o))
    }
}

impl From<ONode> for Arg {
    fn from(n: ONode) -> Self {
        Arg::Node(n)
    }
}

/// The body of a semantic rule.
#[derive(Clone, Debug)]
pub enum RuleBody {
    /// `target := source` — a copy rule. Kept distinct because copy-rule
    /// elimination is central to the space optimizer (paper §2.2).
    Copy(Arg),
    /// `target := f(args…)`.
    Call {
        /// The applied semantic function.
        func: FuncId,
        /// Argument list.
        args: Vec<Arg>,
    },
}

/// A semantic rule `target := body` of one production.
#[derive(Clone, Debug)]
pub struct SemRule {
    pub(crate) target: ONode,
    pub(crate) body: RuleBody,
}

impl SemRule {
    /// The defined occurrence.
    pub fn target(&self) -> ONode {
        self.target
    }

    /// The rule's right-hand side.
    pub fn body(&self) -> &RuleBody {
        &self.body
    }

    /// True if this is a copy rule `x := y` between occurrences.
    pub fn is_copy(&self) -> bool {
        matches!(self.body, RuleBody::Copy(Arg::Node(_)))
    }

    /// The occurrences this rule reads.
    pub fn read_nodes(&self) -> impl Iterator<Item = ONode> + '_ {
        let args: &[Arg] = match &self.body {
            RuleBody::Copy(a) => std::slice::from_ref(a),
            RuleBody::Call { args, .. } => args,
        };
        args.iter().filter_map(|a| match a {
            Arg::Node(n) => Some(*n),
            _ => None,
        })
    }
}

/// A production-local attribute (paper §2.4: "a value local to a production
/// and depending on some attributes is hence a local attribute").
#[derive(Clone, Debug)]
pub struct LocalInfo {
    pub(crate) name: String,
}

impl LocalInfo {
    /// The local attribute's name.
    pub fn name(&self) -> &str {
        &self.name
    }
}

/// Marks an occurrence that no rule of its production defines.
const NO_RULE: u32 = u32::MAX;

/// A production (operator): `lhs ::= rhs…`, with semantic rules.
///
/// Every attribute occurrence and every local of a finished production has
/// a dense number: the LHS attributes in phylum order, then each child's
/// in turn, then the locals. [`nodes`](Self::nodes) lists them in that
/// order and [`Grammar::node_index`] finds a node's number, so analyses
/// keep per-occurrence tables in plain vectors.
#[derive(Clone, Debug)]
pub struct Production {
    pub(crate) name: String,
    pub(crate) lhs: PhylumId,
    pub(crate) rhs: Vec<PhylumId>,
    pub(crate) rules: Vec<SemRule>,
    pub(crate) locals: Vec<LocalInfo>,
    /// `base[pos]` numbers the first attribute at position `pos`;
    /// `base[arity + 1]` numbers the first local.
    pub(crate) base: Box<[u32]>,
    /// Every node, in number order.
    pub(crate) nodes: Box<[ONode]>,
    /// `rule_at[k]`: the index in `rules` of the rule defining node `k`,
    /// or [`NO_RULE`].
    pub(crate) rule_at: Box<[u32]>,
}

impl Production {
    /// The operator name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The left-hand-side phylum.
    pub fn lhs(&self) -> PhylumId {
        self.lhs
    }

    /// The right-hand-side phyla, left to right.
    pub fn rhs(&self) -> &[PhylumId] {
        &self.rhs
    }

    /// Number of RHS symbols.
    pub fn arity(&self) -> usize {
        self.rhs.len()
    }

    /// The semantic rules of this production.
    pub fn rules(&self) -> &[SemRule] {
        &self.rules
    }

    /// The production-local attributes.
    pub fn locals(&self) -> &[LocalInfo] {
        &self.locals
    }

    /// The phylum at occurrence position `pos` (0 = LHS).
    ///
    /// # Panics
    /// Panics if `pos > arity`.
    pub fn phylum_at(&self, pos: u16) -> PhylumId {
        if pos == 0 {
            self.lhs
        } else {
            self.rhs[pos as usize - 1]
        }
    }

    /// Every attribute occurrence and local of this production, in its
    /// dense numbering: a node's number is its place here.
    pub fn nodes(&self) -> &[ONode] {
        &self.nodes
    }

    /// The number of the first attribute occurrence at position `pos`
    /// (0 = LHS); at `pos == arity + 1`, the number of the first local.
    ///
    /// # Panics
    /// Panics if `pos > arity + 1`.
    #[inline]
    pub fn occ_base(&self, pos: u16) -> usize {
        self.base[pos as usize] as usize
    }

    /// The number of the first local.
    #[inline]
    pub fn local_base(&self) -> usize {
        self.base[self.rhs.len() + 1] as usize
    }

    /// The rule defining node number `k`, if any.
    #[inline]
    pub fn rule_at(&self, k: usize) -> Option<&SemRule> {
        match self.rule_at.get(k) {
            Some(&r) if r != NO_RULE => Some(&self.rules[r as usize]),
            _ => None,
        }
    }

    /// Numbers this production's nodes against the phyla `phyla`: fills
    /// `base` and `nodes` (every position is in range by construction) and
    /// then `rule_at`, where the first rule for a node wins and a target
    /// that is not a node of the production is skipped.
    pub(crate) fn number(&mut self, phyla: &[Phylum], attrs: &[AttrInfo]) {
        let arity = self.rhs.len();
        let width = (0..=arity as u16)
            .map(|pos| phyla[self.phylum_at(pos).index()].attrs.len())
            .sum::<usize>()
            + self.locals.len();
        let mut base = Vec::with_capacity(arity + 2);
        let mut nodes = Vec::with_capacity(width);
        for pos in 0..=arity as u16 {
            base.push(nodes.len() as u32);
            let ph = self.phylum_at(pos);
            nodes.extend(
                phyla[ph.index()]
                    .attrs
                    .iter()
                    .map(|&a| ONode::Attr(Occ::new(pos, a))),
            );
        }
        base.push(nodes.len() as u32);
        nodes.extend((0..self.locals.len() as u32).map(|l| ONode::Local(LocalId::from_raw(l))));
        self.base = base.into();
        self.nodes = nodes.into();
        let mut rule_at = vec![NO_RULE; self.nodes.len()];
        for (i, rule) in self.rules.iter().enumerate() {
            if let Some(k) = self.index_in(attrs, rule.target) {
                if rule_at[k] == NO_RULE {
                    rule_at[k] = i as u32;
                }
            }
        }
        self.rule_at = rule_at.into();
    }

    /// The number of `node`, or `None` when it is not a node of this
    /// production: a position past the arity, an attribute not of the
    /// phylum at its position, or a local past the production's locals.
    fn index_in(&self, attrs: &[AttrInfo], node: ONode) -> Option<usize> {
        match node {
            ONode::Attr(Occ { pos, attr }) => {
                let ph = match pos {
                    0 => self.lhs,
                    _ => *self.rhs.get(pos as usize - 1)?,
                };
                let info = attrs.get(attr.index())?;
                (info.phylum == ph).then(|| self.base[pos as usize] as usize + info.offset)
            }
            ONode::Local(l) => {
                (l.index() < self.locals.len()).then(|| self.local_base() + l.index())
            }
        }
    }
}

/// A runtime failure reported by a semantic function.
///
/// Semantic functions are ordinary host-language closures; most are total,
/// but functions lowered from OLGA may abort (the `error` builtin, a partial
/// list accessor, …). Such failures surface as values of this type instead
/// of unwinding, so every evaluator can report them as diagnostics.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SemError {
    /// Human-readable description of the failure.
    pub message: String,
}

impl SemError {
    /// A semantic failure with the given message.
    pub fn new(message: impl Into<String>) -> SemError {
        SemError {
            message: message.into(),
        }
    }
}

impl fmt::Display for SemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for SemError {}

/// The boxed implementation of a semantic function. `Send + Sync` so a
/// [`Grammar`] — and every evaluator borrowing it — can be shared across
/// the parallel batch driver's worker threads.
pub type SemFnImpl = Arc<dyn Fn(&[Value]) -> Result<Value, SemError> + Send + Sync>;

/// A registered semantic function.
#[derive(Clone)]
pub struct SemFn {
    pub(crate) name: String,
    pub(crate) arity: usize,
    pub(crate) f: SemFnImpl,
    /// Rough evaluation cost in abstract units; used by benches to model
    /// rule-heavy vs. tree-walk-heavy AGs. 1 for trivial functions.
    pub(crate) cost: u32,
}

impl SemFn {
    /// The function's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of parameters.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// The abstract evaluation cost declared at registration (used by the
    /// workload models in the benches).
    pub fn cost(&self) -> u32 {
        self.cost
    }

    /// Applies the function.
    ///
    /// # Errors
    /// Returns [`SemError`] when the function aborts at runtime (e.g. the
    /// OLGA `error` builtin or a partial accessor applied out of domain).
    ///
    /// # Panics
    /// May panic if the argument count or dynamic types are wrong; the
    /// grammar validator checks arity and the OLGA type checker types.
    pub fn apply(&self, args: &[Value]) -> Result<Value, SemError> {
        (self.f)(args)
    }
}

impl fmt::Debug for SemFn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SemFn({}/{})", self.name, self.arity)
    }
}

/// A complete, validated attribute grammar.
///
/// Construct with [`GrammarBuilder`](crate::GrammarBuilder); a `Grammar` is
/// immutable and well-defined by construction (every output occurrence of
/// every production defined exactly once).
#[derive(Clone, Debug)]
pub struct Grammar {
    pub(crate) name: String,
    pub(crate) phyla: Vec<Phylum>,
    pub(crate) attrs: Vec<AttrInfo>,
    pub(crate) productions: Vec<Production>,
    pub(crate) functions: Vec<SemFn>,
    pub(crate) root: PhylumId,
}

impl Grammar {
    /// The grammar's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The root (axiom) phylum.
    pub fn root(&self) -> PhylumId {
        self.root
    }

    /// All phyla.
    pub fn phyla(&self) -> impl ExactSizeIterator<Item = PhylumId> {
        (0..self.phyla.len() as u32).map(PhylumId::from_raw)
    }

    /// All productions.
    pub fn productions(&self) -> impl ExactSizeIterator<Item = ProductionId> {
        (0..self.productions.len() as u32).map(ProductionId::from_raw)
    }

    /// Number of phyla.
    pub fn phylum_count(&self) -> usize {
        self.phyla.len()
    }

    /// Number of productions.
    pub fn production_count(&self) -> usize {
        self.productions.len()
    }

    /// Number of attribute declarations (attribute occurrences in the sense
    /// of Table 1: the sum over phyla of attributes attached to each).
    pub fn attr_count(&self) -> usize {
        self.attrs.len()
    }

    /// Total number of semantic rules.
    pub fn rule_count(&self) -> usize {
        self.productions.iter().map(|p| p.rules.len()).sum()
    }

    /// The phylum table entry.
    pub fn phylum(&self, id: PhylumId) -> &Phylum {
        &self.phyla[id.index()]
    }

    /// The production table entry.
    pub fn production(&self, id: ProductionId) -> &Production {
        &self.productions[id.index()]
    }

    /// The attribute table entry.
    pub fn attr(&self, id: AttrId) -> &AttrInfo {
        &self.attrs[id.index()]
    }

    /// The function table entry.
    pub fn function(&self, id: FuncId) -> &SemFn {
        &self.functions[id.index()]
    }

    /// Number of semantic functions.
    pub fn function_count(&self) -> usize {
        self.functions.len()
    }

    /// Looks up a phylum by name.
    pub fn phylum_by_name(&self, name: &str) -> Option<PhylumId> {
        self.phyla
            .iter()
            .position(|p| p.name == name)
            .map(|i| PhylumId::from_raw(i as u32))
    }

    /// Looks up a production by name.
    pub fn production_by_name(&self, name: &str) -> Option<ProductionId> {
        self.productions
            .iter()
            .position(|p| p.name == name)
            .map(|i| ProductionId::from_raw(i as u32))
    }

    /// Looks up an attribute of a phylum by name.
    pub fn attr_by_name(&self, phylum: PhylumId, name: &str) -> Option<AttrId> {
        self.phyla[phylum.index()]
            .attrs
            .iter()
            .copied()
            .find(|&a| self.attrs[a.index()].name == name)
    }

    /// Attributes of `phylum` of the given kind, in declaration order.
    pub fn attrs_of(&self, phylum: PhylumId, kind: AttrKind) -> impl Iterator<Item = AttrId> + '_ {
        self.phyla[phylum.index()]
            .attrs
            .iter()
            .copied()
            .filter(move |&a| self.attrs[a.index()].kind == kind)
    }

    /// Inherited attributes of `phylum`.
    pub fn inherited(&self, phylum: PhylumId) -> Vec<AttrId> {
        self.attrs_of(phylum, AttrKind::Inherited).collect()
    }

    /// Synthesized attributes of `phylum`.
    pub fn synthesized(&self, phylum: PhylumId) -> Vec<AttrId> {
        self.attrs_of(phylum, AttrKind::Synthesized).collect()
    }

    /// True if occurrence `occ` of production `p` is an *output* occurrence
    /// (defined by the production): synthesized on the LHS or inherited on a
    /// RHS symbol.
    pub fn is_output(&self, _p: ProductionId, occ: Occ) -> bool {
        let kind = self.attrs[occ.attr.index()].kind;
        (occ.is_lhs()) == (kind == AttrKind::Synthesized)
    }

    /// All attribute occurrences of production `p`: `(pos, attr)` for every
    /// position and every attribute of the phylum at that position, in the
    /// production's numbering.
    pub fn occurrences(&self, p: ProductionId) -> Vec<Occ> {
        let prod = &self.productions[p.index()];
        prod.nodes[..prod.local_base()]
            .iter()
            .filter_map(|n| n.occ())
            .collect()
    }

    /// The number of `node` in production `p`'s numbering (see
    /// [`Production::nodes`]), or `None` when `node` is not a node of `p`:
    /// a position past the arity, an attribute not of the phylum at its
    /// position, or a local past the production's locals.
    #[inline]
    pub fn node_index(&self, p: ProductionId, node: ONode) -> Option<usize> {
        self.productions[p.index()].index_in(&self.attrs, node)
    }

    /// Output occurrences (targets that must be defined) of production `p`,
    /// including locals.
    pub fn outputs(&self, p: ProductionId) -> Vec<ONode> {
        let prod = &self.productions[p.index()];
        let mut out: Vec<ONode> = self
            .occurrences(p)
            .into_iter()
            .filter(|&o| self.is_output(p, o))
            .map(ONode::Attr)
            .collect();
        out.extend((0..prod.locals.len() as u32).map(|i| ONode::Local(LocalId::from_raw(i))));
        out
    }

    /// The rule defining `target` in production `p`, if any.
    pub fn rule_for(&self, p: ProductionId, target: ONode) -> Option<&SemRule> {
        self.productions[p.index()].rule_at(self.node_index(p, target)?)
    }

    /// Display form of an occurrence, e.g. `Seq$1.scale`.
    pub fn occ_name(&self, p: ProductionId, node: ONode) -> String {
        match node {
            ONode::Attr(o) => {
                let prod = &self.productions[p.index()];
                let ph = prod.phylum_at(o.pos);
                let nth = (0..=o.pos).filter(|&q| prod.phylum_at(q) == ph).count();
                let total = (0..=prod.rhs.len() as u16)
                    .filter(|&q| prod.phylum_at(q) == ph)
                    .count();
                let phn = &self.phyla[ph.index()].name;
                let an = &self.attrs[o.attr.index()].name;
                if total > 1 {
                    format!("{phn}${nth}.{an}")
                } else {
                    format!("{phn}.{an}")
                }
            }
            ONode::Local(l) => {
                format!(
                    "local {}",
                    self.productions[p.index()].locals[l.index()].name
                )
            }
        }
    }

    /// Total number of copy rules in the grammar.
    pub fn copy_rule_count(&self) -> usize {
        self.productions
            .iter()
            .flat_map(|p| p.rules.iter())
            .filter(|r| r.is_copy())
            .count()
    }
}

impl fmt::Display for Grammar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "attribute grammar {} (root {})",
            self.name,
            self.phyla[self.root.index()].name
        )?;
        for p in self.productions() {
            let prod = self.production(p);
            let rhs: Vec<&str> = prod
                .rhs
                .iter()
                .map(|&x| self.phyla[x.index()].name.as_str())
                .collect();
            writeln!(
                f,
                "  {} : {} ::= {}",
                prod.name,
                self.phyla[prod.lhs.index()].name,
                rhs.join(" ")
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use crate::builder::GrammarBuilder;
    use crate::ids::Occ;

    use super::*;

    fn tiny() -> Grammar {
        // S ::= A ; A ::= <leaf>
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
        g.finish().unwrap()
    }

    #[test]
    fn basic_lookups() {
        let g = tiny();
        assert_eq!(g.phylum_count(), 2);
        assert_eq!(g.production_count(), 2);
        assert_eq!(g.attr_count(), 3);
        assert_eq!(g.rule_count(), 3);
        let s = g.phylum_by_name("S").unwrap();
        let a = g.phylum_by_name("A").unwrap();
        assert_eq!(g.phylum(s).name(), "S");
        assert_eq!(g.synthesized(a).len(), 1);
        assert_eq!(g.inherited(a).len(), 1);
        assert!(g.phylum_by_name("Z").is_none());
    }

    #[test]
    fn occurrences_and_outputs() {
        let g = tiny();
        let root = g.production_by_name("root").unwrap();
        // S has 1 attr, A has 2 => 3 occurrences.
        assert_eq!(g.occurrences(root).len(), 3);
        // outputs: S.v (syn LHS), A.i (inh RHS)
        assert_eq!(g.outputs(root).len(), 2);
        let leaf = g.production_by_name("leaf").unwrap();
        assert_eq!(g.outputs(leaf).len(), 1);
    }

    #[test]
    fn occ_names() {
        let g = tiny();
        let root = g.production_by_name("root").unwrap();
        let a = g.phylum_by_name("A").unwrap();
        let w = g.attr_by_name(a, "w").unwrap();
        assert_eq!(g.occ_name(root, ONode::Attr(Occ::new(1, w))), "A.w");
    }

    #[test]
    fn copy_rule_count() {
        let g = tiny();
        assert_eq!(g.copy_rule_count(), 2);
    }

    #[test]
    fn grammar_display() {
        let g = tiny();
        let s = g.to_string();
        assert!(s.contains("attribute grammar tiny"));
        assert!(s.contains("root : S ::= A"));
    }
}
