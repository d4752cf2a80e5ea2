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

use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::fmt;
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
    /// An immutable list.
    List(Arc<Vec<Value>>),
    /// An immutable tuple.
    Tuple(Arc<Vec<Value>>),
    /// A finite map with string keys (symbol tables, environments).
    Map(Arc<BTreeMap<String, Value>>),
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

    /// Builds a list value.
    pub fn list(items: impl IntoIterator<Item = Value>) -> Value {
        Value::List(Arc::new(items.into_iter().collect()))
    }

    /// Builds a tuple value.
    pub fn tuple(items: impl IntoIterator<Item = Value>) -> Value {
        Value::Tuple(Arc::new(items.into_iter().collect()))
    }

    /// Builds an empty map value.
    pub fn empty_map() -> Value {
        Value::Map(Arc::new(BTreeMap::new()))
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

    /// The list payload.
    ///
    /// # Panics
    /// Panics if the value is not a `List`.
    #[track_caller]
    pub fn as_list(&self) -> &[Value] {
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

    /// The identity token of this value: scalars by payload (reals by bit
    /// pattern), compound values by the address of their shared allocation.
    ///
    /// Two values with equal identities are bitwise-structurally equal
    /// **provided** compound allocations are kept alive for the comparison
    /// window (an address can be reused once its `Arc` drops) — the
    /// [`Interner`](crate::intern::Interner) guarantees exactly that for
    /// canonical values, which is what makes identity comparison a sound
    /// O(1) equality for interned attribute stores.
    pub fn ident(&self) -> ValueIdent {
        match self {
            Value::Unit => ValueIdent::Unit,
            Value::Bool(b) => ValueIdent::Bool(*b),
            Value::Int(i) => ValueIdent::Int(*i),
            Value::Real(r) => ValueIdent::Real(r.to_bits()),
            Value::Str(s) => ValueIdent::Str(Arc::as_ptr(s) as *const u8 as usize),
            Value::List(l) => ValueIdent::List(Arc::as_ptr(l) as usize),
            Value::Tuple(t) => ValueIdent::Tuple(Arc::as_ptr(t) as usize),
            Value::Map(m) => ValueIdent::Map(Arc::as_ptr(m) as usize),
            Value::Term(t) => ValueIdent::Term(Arc::as_ptr(t) as usize),
        }
    }

    /// A coarse measure of the number of heap cells this value transitively
    /// owns; used by the space-consumption benchmarks (paper §4.1).
    pub fn cell_count(&self) -> usize {
        match self {
            Value::Unit | Value::Bool(_) | Value::Int(_) | Value::Real(_) => 1,
            Value::Str(_) => 1,
            Value::List(items) | Value::Tuple(items) => {
                1 + items.iter().map(Value::cell_count).sum::<usize>()
            }
            Value::Map(m) => 1 + m.values().map(Value::cell_count).sum::<usize>(),
            Value::Term(t) => 1 + t.children.iter().map(Value::cell_count).sum::<usize>(),
        }
    }
}

/// A value's identity: the payload for scalars (reals by bit pattern), the
/// shared allocation's address for compound values, tagged by variant.
///
/// Identity equality implies structural equality whenever the compound
/// allocations involved are pinned (see [`Value::ident`]); the converse
/// holds only for values canonicalized in the *same*
/// [`Interner`](crate::intern::Interner). `ValueIdent` is `Copy + Eq +
/// Hash`, which is what makes it usable as a memo-cache key.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ValueIdent {
    /// The unit value.
    Unit,
    /// A boolean, by payload.
    Bool(bool),
    /// An integer, by payload.
    Int(i64),
    /// A real, by IEEE-754 bit pattern.
    Real(u64),
    /// A string, by allocation address.
    Str(usize),
    /// A list, by allocation address.
    List(usize),
    /// A tuple, by allocation address.
    Tuple(usize),
    /// A map, by allocation address.
    Map(usize),
    /// A term, by allocation address.
    Term(usize),
}

impl PartialEq for Value {
    /// Structural equality with an O(1) fast path: compound values sharing
    /// one allocation (copy rules, interned canonical representatives) are
    /// equal without recursion. The slow path is the usual deep recursion,
    /// which itself short-circuits on shared subtrees.
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Value::Unit, Value::Unit) => true,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Real(a), Value::Real(b)) => a == b,
            (Value::Str(a), Value::Str(b)) => Arc::ptr_eq(a, b) || a == b,
            (Value::List(a), Value::List(b)) => Arc::ptr_eq(a, b) || a == b,
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
            Value::List(items) => f.debug_list().entries(items.iter()).finish(),
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
