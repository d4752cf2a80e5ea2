//! Runtime values of attribute instances.
//!
//! Semantic functions in FNC-2 are written in OLGA, a strongly typed
//! applicative language; once translated, an evaluator manipulates dynamic
//! values. [`Value`] is that dynamic representation: scalars, strings,
//! lists, tuples, finite maps (symbol tables) and *terms* — the attributed
//! output trees of the tree-to-tree mapping paradigm (paper §2.3).
//!
//! Compound values are atomically reference-counted (shareable across the
//! parallel batch driver's worker threads) so that copy rules (the dominant
//! rule form in real AGs) are O(1), mirroring the pointer-copy semantics of
//! the original C back-end.
//!
//! Lists are persistent ([`List`]): a list is a flat chunk, a shared tail
//! of one, or the concatenation of two lists, so `++`, `::` and `tl` share
//! their operands instead of copying them. Lists and maps cache their
//! [`Value::cell_count`] (lists also their length and an element hash).
//! The count is *logical*: a list that holds one sub-list twice counts it
//! twice, whatever is shared, so the budget meter's charge is O(1) per
//! rule and independent of how the value was built. Nothing but time and
//! memory depends on that shape: equality, `Debug`/`Display` and every
//! encoding see only the element sequence.

use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// A dynamically typed attribute value.
#[derive(Clone, Default)]
pub enum Value {
    /// The unit (void) value.
    #[default]
    Unit,
    /// A boolean.
    Bool(bool),
    /// A 64-bit integer.
    Int(i64),
    /// A double-precision real.
    Real(f64),
    /// An immutable string.
    Str(Arc<str>),
    /// An immutable, persistent list.
    List(List),
    /// An immutable tuple.
    Tuple(Arc<Vec<Value>>),
    /// A finite map with string keys (symbol tables, environments).
    Map(Arc<Map>),
    /// A term of an output tree (tree-to-tree mapping, paper §2.3).
    Term(Arc<Term>),
}

/// A constructed output-tree term: an operator name applied to children.
#[derive(Clone, PartialEq, Debug)]
pub struct Term {
    /// Operator (production) name of the constructed node.
    pub op: String,
    /// Child terms or embedded scalar values.
    pub children: Vec<Value>,
}

impl Value {
    /// Builds a string value.
    pub fn str(s: impl AsRef<str>) -> Value {
        Value::Str(Arc::from(s.as_ref()))
    }

    /// Builds a (flat) list value.
    pub fn list(items: impl IntoIterator<Item = Value>) -> Value {
        Value::List(List::new(items.into_iter().collect()))
    }

    /// Builds a tuple value.
    pub fn tuple(items: impl IntoIterator<Item = Value>) -> Value {
        Value::Tuple(Arc::new(items.into_iter().collect()))
    }

    /// Builds a map value.
    pub fn map(entries: BTreeMap<String, Value>) -> Value {
        Value::Map(Arc::new(Map::new(entries)))
    }

    /// Builds an empty map value.
    pub fn empty_map() -> Value {
        Value::map(BTreeMap::new())
    }

    /// Builds a term value.
    pub fn term(op: impl Into<String>, children: impl IntoIterator<Item = Value>) -> Value {
        Value::Term(Arc::new(Term {
            op: op.into(),
            children: children.into_iter().collect(),
        }))
    }

    /// The integer payload.
    ///
    /// # Panics
    /// Panics if the value is not an [`Value::Int`]; evaluator-internal use
    /// where the OLGA type checker has already guaranteed the type.
    #[track_caller]
    pub fn as_int(&self) -> i64 {
        match self {
            Value::Int(i) => *i,
            other => panic!("expected int, got {other:?}"),
        }
    }

    /// The real payload (an `Int` is promoted).
    ///
    /// # Panics
    /// Panics if the value is neither `Real` nor `Int`.
    #[track_caller]
    pub fn as_real(&self) -> f64 {
        match self {
            Value::Real(r) => *r,
            Value::Int(i) => *i as f64,
            other => panic!("expected real, got {other:?}"),
        }
    }

    /// The boolean payload.
    ///
    /// # Panics
    /// Panics if the value is not a `Bool`.
    #[track_caller]
    pub fn as_bool(&self) -> bool {
        match self {
            Value::Bool(b) => *b,
            other => panic!("expected bool, got {other:?}"),
        }
    }

    /// The string payload.
    ///
    /// # Panics
    /// Panics if the value is not a `Str`.
    #[track_caller]
    pub fn as_str(&self) -> &str {
        match self {
            Value::Str(s) => s,
            other => panic!("expected string, got {other:?}"),
        }
    }

    /// The list payload, read through [`List::iter`] (nothing flattens).
    ///
    /// # Panics
    /// Panics if the value is not a `List`.
    #[track_caller]
    pub fn as_list(&self) -> &List {
        match self {
            Value::List(l) => l,
            other => panic!("expected list, got {other:?}"),
        }
    }

    /// The tuple payload.
    ///
    /// # Panics
    /// Panics if the value is not a `Tuple`.
    #[track_caller]
    pub fn as_tuple(&self) -> &[Value] {
        match self {
            Value::Tuple(t) => t,
            other => panic!("expected tuple, got {other:?}"),
        }
    }

    /// The map payload.
    ///
    /// # Panics
    /// Panics if the value is not a `Map`.
    #[track_caller]
    pub fn as_map(&self) -> &BTreeMap<String, Value> {
        match self {
            Value::Map(m) => m,
            other => panic!("expected map, got {other:?}"),
        }
    }

    /// The term payload.
    ///
    /// # Panics
    /// Panics if the value is not a `Term`.
    #[track_caller]
    pub fn as_term(&self) -> &Term {
        match self {
            Value::Term(t) => t,
            other => panic!("expected term, got {other:?}"),
        }
    }

    /// Functional map update: returns a map equal to `self` with
    /// `key ↦ value` added or replaced.
    ///
    /// # Panics
    /// Panics if the value is not a `Map`.
    pub fn map_insert(&self, key: impl Into<String>, value: Value) -> Value {
        // Copy-on-write: `Arc::make_mut` mutates in place when this map is
        // the sole owner (the common fold-style threading pattern) and only
        // deep-clones when the old version is still shared — the functional
        // semantics observed by callers are identical either way.
        let Value::Map(m) = self else {
            panic!("expected map, got {self:?}")
        };
        let mut m = Arc::clone(m);
        Arc::make_mut(&mut m).insert(key.into(), value);
        Value::Map(m)
    }

    /// Map lookup. Returns `None` when absent.
    ///
    /// # Panics
    /// Panics if the value is not a `Map`.
    pub fn map_get(&self, key: &str) -> Option<&Value> {
        self.as_map().get(key)
    }

    /// The name of this value's dynamic type, for diagnostics.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Unit => "unit",
            Value::Bool(_) => "bool",
            Value::Int(_) => "int",
            Value::Real(_) => "real",
            Value::Str(_) => "string",
            Value::List(_) => "list",
            Value::Tuple(_) => "tuple",
            Value::Map(_) => "map",
            Value::Term(_) => "term",
        }
    }

    /// A coarse, logical measure of the heap cells this value denotes: one
    /// per node of the value read as a tree, shared parts counted at every
    /// occurrence, saturating at `usize::MAX`. O(1) for lists and maps,
    /// which cache it; used by the budget meter and the space-consumption
    /// benchmarks (paper §4.1).
    pub fn cell_count(&self) -> usize {
        match self {
            Value::Unit | Value::Bool(_) | Value::Int(_) | Value::Real(_) => 1,
            Value::Str(_) => 1,
            Value::List(l) => l.cell_count(),
            Value::Map(m) => m.cell_count(),
            Value::Tuple(items) => node_cells(items.iter()),
            Value::Term(t) => node_cells(t.children.iter()),
        }
    }
}

impl PartialEq for Value {
    /// Structural equality with an O(1) fast path: compound values sharing
    /// one allocation (as every copy rule's source and target do) are
    /// equal without recursion. The slow path is the usual deep recursion,
    /// which itself short-circuits on shared subtrees.
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Value::Unit, Value::Unit) => true,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Real(a), Value::Real(b)) => a == b,
            (Value::Str(a), Value::Str(b)) => Arc::ptr_eq(a, b) || a == b,
            (Value::List(a), Value::List(b)) => a == b,
            (Value::Tuple(a), Value::Tuple(b)) => Arc::ptr_eq(a, b) || a == b,
            (Value::Map(a), Value::Map(b)) => Arc::ptr_eq(a, b) || a == b,
            (Value::Term(a), Value::Term(b)) => Arc::ptr_eq(a, b) || a == b,
            _ => false,
        }
    }
}

impl PartialOrd for Value {
    /// Orders scalars of the same type; compound values and mixed types are
    /// unordered (returns `None`).
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => a.partial_cmp(b),
            (Value::Real(a), Value::Real(b)) => a.partial_cmp(b),
            (Value::Str(a), Value::Str(b)) => a.partial_cmp(b),
            (Value::Bool(a), Value::Bool(b)) => a.partial_cmp(b),
            _ => None,
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Real(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::str(v)
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(Arc::from(v.as_str()))
    }
}

impl fmt::Debug for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Unit => write!(f, "()"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Real(r) => write!(f, "{r}"),
            Value::Str(s) => write!(f, "{s:?}"),
            Value::List(l) => l.fmt(f),
            Value::Tuple(items) => {
                write!(f, "(")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v:?}")?;
                }
                write!(f, ")")
            }
            Value::Map(m) => f.debug_map().entries(m.iter()).finish(),
            Value::Term(t) => {
                write!(f, "{}", t.op)?;
                if !t.children.is_empty() {
                    write!(f, "(")?;
                    for (i, c) in t.children.iter().enumerate() {
                        if i > 0 {
                            write!(f, ", ")?;
                        }
                        write!(f, "{c:?}")?;
                    }
                    write!(f, ")")?;
                }
                Ok(())
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Str(s) => write!(f, "{s}"),
            other => write!(f, "{other:?}"),
        }
    }
}

/// The cell count of a node with `children`: one for the node plus theirs.
fn node_cells<'a>(children: impl Iterator<Item = &'a Value>) -> usize {
    children.fold(1, |n, c| n.saturating_add(c.cell_count()))
}

/// [`List::concat`] builds results of at most this many elements flat: a
/// short copy is cheaper than a node, and it keeps chunk walks dense.
pub const FLAT_MAX: usize = 32;

/// The odd multiplier of the lists' polynomial hash: `x1 … xn` hashes to
/// `Σ h(xi)·K^(n-i)` (mod 2^64), so a concatenation's hash is
/// `h(a)·K^|b| + h(b)` and a tail's is `h(l) - h(x1)·K^(n-1)`.
const K: u64 = 0x0000_0100_0000_01b3;

/// `h·K^n` (mod 2^64).
fn shift(h: u64, n: usize) -> u64 {
    const K32: u64 = K.wrapping_pow(1 << 31).wrapping_pow(2);
    let hi = K32.wrapping_pow((n as u64 >> 32) as u32);
    h.wrapping_mul(hi).wrapping_mul(K.wrapping_pow(n as u32))
}

/// An element's hash: equal values hash alike. Scalars, strings and lists
/// hash their contents (`+ 0.0` makes `-0.0` hash as `0.0`); unit,
/// tuples, maps and terms all hash to 0.
fn elem_hash(v: &Value) -> u64 {
    match v {
        Value::Bool(b) => *b as u64,
        Value::Int(i) => *i as u64,
        Value::Real(r) => (r + 0.0).to_bits(),
        Value::Str(s) => s.bytes().fold(!0, |h, b| (h ^ b as u64).wrapping_mul(K)),
        Value::List(l) => l.0.hash.wrapping_add(l.len() as u64),
        _ => 0,
    }
}

/// A persistent list: an `Arc`'d node that is a flat chunk, a view of a
/// flat chunk from an offset on, or the concatenation of two non-empty
/// lists. Nothing flattens a concatenation: readers walk it chunk by
/// chunk.
///
/// Every node caches its length, its [`Value::cell_count`] (both
/// saturating) and a hash of its elements, so `len`, `concat`, `first`
/// and `cell_count` never walk the elements, and most unequal lists are
/// told apart in O(1). Equality, drop and iteration use explicit stacks: a
/// chain of any depth never recurses.
#[derive(Clone)]
pub struct List(Arc<Node>);

struct Node {
    len: usize,
    /// The cell count of the elements (the list's own cell excluded).
    cells: usize,
    hash: u64,
    repr: Repr,
}

enum Repr {
    Flat(Box<[Value]>),
    View(List, usize),
    Cat(List, List),
}

impl List {
    fn node(len: usize, cells: usize, hash: u64, repr: Repr) -> List {
        List(Arc::new(Node {
            len,
            cells,
            hash,
            repr,
        }))
    }

    /// A flat list of `items`.
    pub fn new(items: Vec<Value>) -> List {
        let cells = node_cells(items.iter()) - 1;
        let hash = items
            .iter()
            .fold(0, |h, x| shift(h, 1).wrapping_add(elem_hash(x)));
        List::node(items.len(), cells, hash, Repr::Flat(items.into()))
    }

    /// The number of elements (saturating). O(1).
    pub fn len(&self) -> usize {
        self.0.len
    }

    /// True when the list has no elements. O(1).
    pub fn is_empty(&self) -> bool {
        self.0.len == 0
    }

    /// This list's [`Value::cell_count`]. O(1).
    pub fn cell_count(&self) -> usize {
        self.0.cells.saturating_add(1)
    }

    /// The address of this list's node.
    pub fn addr(&self) -> usize {
        Arc::as_ptr(&self.0) as usize
    }

    /// The elements of `self`, then those of `other`: O(1), sharing both,
    /// unless the result has at most [`FLAT_MAX`] elements, which are
    /// copied into one flat chunk.
    pub fn concat(&self, other: &List) -> List {
        if self.is_empty() {
            return other.clone();
        }
        if other.is_empty() {
            return self.clone();
        }
        let len = self.len().saturating_add(other.len());
        let cells = self.0.cells.saturating_add(other.0.cells);
        let hash = shift(self.0.hash, other.len()).wrapping_add(other.0.hash);
        let repr = if len <= FLAT_MAX {
            // Concatenation nodes are longer, so both operands are chunks.
            Repr::Flat([self.as_slice(), other.as_slice()].concat().into())
        } else {
            Repr::Cat(self.clone(), other.clone())
        };
        List::node(len, cells, hash, repr)
    }

    /// The first element, found down the left spine without flattening.
    pub fn first(&self) -> Option<&Value> {
        let mut l = self;
        loop {
            match &l.0.repr {
                Repr::Flat(items) => return items.first(),
                Repr::View(base, at) => return base.as_slice().get(*at),
                Repr::Cat(left, _) => l = left,
            }
        }
    }

    /// All elements but the first (the empty list stays empty), sharing
    /// them without flattening: a view into a flat chunk, or the leftmost
    /// chunk's tail concatenated with the rest. The left spine is rotated on
    /// the way down (`(a ++ b) ++ c` becomes `a ++ (b ++ c)`), so walking a
    /// list by `tail` costs amortized O(1) per step.
    pub fn tail(&self) -> List {
        let Some(head) = self.first() else {
            return self.clone();
        };
        let (base, at) = match &self.0.repr {
            Repr::Flat(_) => (self, 0),
            Repr::View(base, at) => (base, *at),
            Repr::Cat(left, right) => {
                let (mut left, mut right) = (left, right.clone());
                while let Repr::Cat(a, b) = &left.0.repr {
                    right = b.concat(&right);
                    left = a;
                }
                return match left.len() {
                    1 => right,
                    _ => left.tail().concat(&right),
                };
            }
        };
        let len = self.len() - 1;
        let cells = self.0.cells.saturating_sub(head.cell_count());
        let hash = self.0.hash.wrapping_sub(shift(elem_hash(head), len));
        List::node(len, cells, hash, Repr::View(base.clone(), at + 1))
    }

    /// The elements in order, walked chunk by chunk without flattening.
    pub fn iter(&self) -> ListIter<'_> {
        let mut it = ListIter {
            chunk: [].iter(),
            pending: Vec::new(),
        };
        it.descend(self);
        it
    }

    /// The elements of a flat chunk or of a view of one; a concatenation
    /// is never sliced.
    fn as_slice(&self) -> &[Value] {
        match &self.0.repr {
            Repr::Flat(items) => items,
            Repr::View(base, at) => &base.as_slice()[*at..],
            Repr::Cat(..) => unreachable!("concatenations are walked, not sliced"),
        }
    }
}

/// The elements of a [`List`] in order ([`List::iter`]). Walking a flat
/// list allocates nothing; a concatenation keeps the right parts still to
/// walk on a stack.
#[derive(Clone, Debug)]
pub struct ListIter<'a> {
    /// The rest of the current chunk.
    chunk: std::slice::Iter<'a, Value>,
    /// The parts after it, the next on top.
    pending: Vec<&'a List>,
}

impl<'a> ListIter<'a> {
    /// Makes the leftmost chunk of `l` current, stacking the right parts
    /// on the way down.
    fn descend(&mut self, mut l: &'a List) {
        while let Repr::Cat(left, right) = &l.0.repr {
            self.pending.push(right);
            l = left;
        }
        self.chunk = l.as_slice().iter();
    }
}

impl<'a> Iterator for ListIter<'a> {
    type Item = &'a Value;

    fn next(&mut self) -> Option<&'a Value> {
        loop {
            if let Some(v) = self.chunk.next() {
                return Some(v);
            }
            let next = self.pending.pop()?;
            self.descend(next);
        }
    }
}

impl<'a> IntoIterator for &'a List {
    type Item = &'a Value;
    type IntoIter = ListIter<'a>;

    fn into_iter(self) -> ListIter<'a> {
        self.iter()
    }
}

impl Drop for Node {
    /// Unlinks uniquely owned nodes with an explicit stack, so dropping a
    /// deep concatenation does not recurse.
    fn drop(&mut self) {
        let empty = || Repr::Flat(Box::default());
        let mut stack = Vec::new();
        let mut repr = std::mem::replace(&mut self.repr, empty());
        loop {
            match repr {
                Repr::Cat(left, right) => stack.extend([left, right]),
                Repr::View(base, _) => stack.push(base),
                Repr::Flat(_) => {}
            }
            let Some(l) = stack.pop() else { return };
            repr = Arc::into_inner(l.0)
                .map_or_else(empty, |mut n| std::mem::replace(&mut n.repr, empty()));
        }
    }
}

impl PartialEq for List {
    /// Element-wise equality that uses the sharing: pointer-equal lists
    /// are equal; lists of different lengths or hashes are not;
    /// concatenations split at the same length compare part by part; and
    /// anything else walks both element sequences chunk by chunk.
    fn eq(&self, other: &List) -> bool {
        let mut pairs = vec![(self, other)];
        while let Some((a, b)) = pairs.pop() {
            if Arc::ptr_eq(&a.0, &b.0) {
                continue;
            }
            if a.len() != b.len() || a.0.hash != b.0.hash {
                return false;
            }
            match (&a.0.repr, &b.0.repr) {
                (Repr::Cat(al, ar), Repr::Cat(bl, br)) if al.len() == bl.len() => {
                    // `l ++ l` on both sides: one comparison covers both.
                    if !(Arc::ptr_eq(&al.0, &ar.0) && Arc::ptr_eq(&bl.0, &br.0)) {
                        pairs.push((ar, br));
                    }
                    pairs.push((al, bl));
                }
                _ if !a.iter().eq(b.iter()) => return false,
                _ => {}
            }
        }
        true
    }
}

impl fmt::Debug for List {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// A finite map with string keys and its cached [`Value::cell_count`],
/// kept up to date by [`insert`](Map::insert). Reads go through `Deref`
/// to the `BTreeMap`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Map {
    /// The cell count of the values (the map's own cell excluded).
    cells: usize,
    entries: BTreeMap<String, Value>,
}

impl Map {
    /// A map of `entries`.
    pub fn new(entries: BTreeMap<String, Value>) -> Map {
        let cells = node_cells(entries.values()) - 1;
        Map { cells, entries }
    }

    /// This map's [`Value::cell_count`]. O(1).
    pub fn cell_count(&self) -> usize {
        self.cells.saturating_add(1)
    }

    /// Adds or replaces `key ↦ value`.
    pub fn insert(&mut self, key: String, value: Value) {
        self.cells = self.cells.saturating_add(value.cell_count());
        if let Some(old) = self.entries.insert(key, value) {
            self.cells = self.cells.saturating_sub(old.cell_count());
        }
    }
}

impl Deref for Map {
    type Target = BTreeMap<String, Value>;

    fn deref(&self) -> &BTreeMap<String, Value> {
        &self.entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_accessors() {
        assert_eq!(Value::Int(4).as_int(), 4);
        assert_eq!(Value::Int(4).as_real(), 4.0);
        assert_eq!(Value::Real(0.5).as_real(), 0.5);
        assert!(Value::Bool(true).as_bool());
        assert_eq!(Value::str("hi").as_str(), "hi");
    }

    #[test]
    #[should_panic(expected = "expected int")]
    fn wrong_accessor_panics() {
        Value::Bool(true).as_int();
    }

    #[test]
    fn map_is_functional() {
        let m0 = Value::empty_map();
        let m1 = m0.map_insert("x", Value::Int(1));
        let m2 = m1.map_insert("y", Value::Int(2));
        assert_eq!(m0.as_map().len(), 0);
        assert_eq!(m1.as_map().len(), 1);
        assert_eq!(m2.map_get("x"), Some(&Value::Int(1)));
        assert_eq!(m1.map_get("y"), None);
    }

    #[test]
    fn term_display() {
        let t = Value::term("add", [Value::term("lit", [Value::Int(1)]), Value::Int(2)]);
        assert_eq!(format!("{t}"), "add(lit(1), 2)");
    }

    #[test]
    fn cell_count_is_transitive() {
        let v = Value::list([Value::Int(1), Value::list([Value::Int(2)])]);
        assert_eq!(v.cell_count(), 4);
    }

    #[test]
    fn partial_order_only_same_scalars() {
        assert!(Value::Int(1) < Value::Int(2));
        assert_eq!(Value::Int(1).partial_cmp(&Value::str("a")), None);
        assert_eq!(
            Value::list([]).partial_cmp(&Value::list([])),
            None,
            "compound values are unordered"
        );
    }

    #[test]
    fn display_vs_debug_for_strings() {
        let s = Value::str("a\"b");
        assert_eq!(format!("{s}"), "a\"b");
        assert_eq!(format!("{s:?}"), "\"a\\\"b\"");
    }
}
