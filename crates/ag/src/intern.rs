//! Hash-consed value interning: O(1) structural equality for attribute
//! stores.
//!
//! FNC-2's evaluators spend their inner loops moving and comparing
//! attribute values (§2.2 of the paper is about making attribute storage
//! and transport cheap; §2.1.2's incremental evaluator lives or dies by
//! how fast it can decide "this attribute did not change"). [`Value`] is a
//! tree of `Arc`-shared lists/maps/terms: *transport* is already O(1)
//! (cloning shares the allocation), but *equality* between two
//! independently built values is a deep structural recursion — O(size) on
//! big synthesized environments and code lists, in the innermost loop of
//! the incremental cutoff.
//!
//! The [`Interner`] fixes that by **hash-consing**: every composite value
//! produced by a semantic function is canonicalized bottom-up, so two
//! structurally equal values interned in the same table are the *same*
//! `Arc` — structural equality and hashing collapse to pointer/id
//! comparison ([`Value::ident`]).
//!
//! ## The invariant
//!
//! For values canonicalized in one interner:
//!
//! > `a.ident() == b.ident()`  ⟺  `a` and `b` are bitwise-structurally
//! > equal (reals compared by bit pattern).
//!
//! Soundness (⟹) holds because the interner keeps every canonical `Arc`
//! alive, so an address identifies one immutable allocation for the
//! interner's whole lifetime — no ABA reuse. Completeness (⟸) holds by
//! induction: children are canonicalized first, so a parent's structure is
//! fully described by its shape plus its children's identities, and the
//! within-bucket search compares exactly that. Correctness therefore does
//! **not** depend on hash quality — a degraded hash (see
//! [`Interner::with_hash_bits`]) only grows buckets, never conflates
//! values — which is what the collision-stress property tests prove.
//!
//! Reals are canonicalized by bit pattern. A `NaN` would make identity
//! equality diverge from IEEE `==` (which is irreflexive on `NaN`), but a
//! `NaN` attribute value already violates the repo's differential oracles
//! (they compare evaluator outputs with `==`), so no evaluator-reachable
//! value hits that corner.
//!
//! ## Cost model
//!
//! Interning a freshly built value hashes its *top layer only* (children
//! are identified by their ids), so the intern cost is proportional to the
//! value's width — the same order as building it. Re-interning an already
//! canonical value (copy-rule transport) is an O(1) set lookup, counted as
//! a hit.

use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use crate::value::{List, Value, ValueIdent};

/// Default bound on distinct canonical values per interner; past it new
/// values pass through uncanonicalized (correct, just not shared), so a
/// pathological evaluation cannot pin unbounded memory in the table.
pub const DEFAULT_CAPACITY: usize = 1 << 20;

/// Running totals of one interner.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct InternStats {
    /// Values found already canonical or already present (O(1) / bucket hit).
    pub hits: u64,
    /// Fresh values canonicalized (inserted into the table).
    pub misses: u64,
    /// Distinct canonical values held.
    pub len: u64,
}

/// A hash-consing intern table for [`Value`]s.
///
/// Not thread-safe — an evaluator that interns owns one per evaluation.
#[derive(Debug)]
pub struct Interner {
    /// Canonical values bucketed by shallow structural hash.
    buckets: HashMap<u64, Vec<Value>>,
    /// Addresses of canonical compound allocations: O(1) "already interned"
    /// checks without rehashing (the copy-rule fast path).
    canonical: HashSet<usize>,
    hits: u64,
    misses: u64,
    hash_mask: u64,
    capacity: usize,
}

impl Default for Interner {
    fn default() -> Self {
        Interner::new()
    }
}

impl Interner {
    /// An empty interner with the full 64-bit hash and default capacity.
    pub fn new() -> Interner {
        Interner::with_hash_bits(64)
    }

    /// An empty interner whose shallow hash is truncated to `bits` bits.
    ///
    /// A degraded hash (e.g. 8 bits) forces heavy bucket collisions; the
    /// property tests use it to prove that canonicalization decisions are
    /// made by the structural within-bucket comparison, never by the hash.
    pub fn with_hash_bits(bits: u32) -> Interner {
        let hash_mask = if bits >= 64 {
            u64::MAX
        } else {
            (1u64 << bits) - 1
        };
        Interner {
            buckets: HashMap::new(),
            canonical: HashSet::new(),
            hits: 0,
            misses: 0,
            hash_mask,
            capacity: DEFAULT_CAPACITY,
        }
    }

    /// Caps the number of distinct canonical values; past the cap, interning
    /// passes values through unchanged (still structurally correct).
    pub fn with_capacity_limit(mut self, capacity: usize) -> Interner {
        self.capacity = capacity;
        self
    }

    /// Distinct canonical values held (the table's occupancy).
    pub fn len(&self) -> usize {
        self.canonical.len()
    }

    /// True when nothing has been canonicalized yet.
    pub fn is_empty(&self) -> bool {
        self.canonical.is_empty()
    }

    /// Hits / misses / occupancy so far.
    pub fn stats(&self) -> InternStats {
        InternStats {
            hits: self.hits,
            misses: self.misses,
            len: self.canonical.len() as u64,
        }
    }

    /// True when `v`'s identity is stable for the lifetime of this interner:
    /// scalars always, compounds only when canonical here. Only stable
    /// identities may be used in memo-cache keys or O(1) equality cuts.
    pub fn is_stable(&self, v: &Value) -> bool {
        match compound_addr(v) {
            Some(addr) => self.canonical.contains(&addr),
            None => true,
        }
    }

    /// Canonicalizes `v` bottom-up and returns the canonical representative
    /// (which is `v` itself when `v` is first of its structure, or already
    /// canonical).
    pub fn intern(&mut self, v: Value) -> Value {
        match v {
            Value::Unit | Value::Bool(_) | Value::Int(_) | Value::Real(_) => v,
            Value::Str(_) => self.canonize(v),
            Value::List(l) => {
                let work = l.iter().any(|c| self.needs_work(c));
                let l = if work {
                    List::new(l.iter().map(|c| self.intern(c.clone())).collect())
                } else {
                    l
                };
                self.canonize(Value::List(l))
            }
            Value::Tuple(mut t) => {
                if t.iter().any(|c| self.needs_work(c)) {
                    for c in Arc::make_mut(&mut t).iter_mut() {
                        *c = self.intern(std::mem::take(c));
                    }
                }
                self.canonize(Value::Tuple(t))
            }
            Value::Map(mut m) => {
                if m.values().any(|c| self.needs_work(c)) {
                    for c in Arc::make_mut(&mut m).values_mut() {
                        *c = self.intern(std::mem::take(c));
                    }
                }
                self.canonize(Value::Map(m))
            }
            Value::Term(mut t) => {
                if t.children.iter().any(|c| self.needs_work(c)) {
                    for c in Arc::make_mut(&mut t).children.iter_mut() {
                        *c = self.intern(std::mem::take(c));
                    }
                }
                self.canonize(Value::Term(t))
            }
        }
    }

    /// True when `c` is a compound that still needs canonicalization.
    fn needs_work(&self, c: &Value) -> bool {
        match compound_addr(c) {
            Some(addr) => !self.canonical.contains(&addr),
            None => false,
        }
    }

    /// Canonicalizes one value whose children are already canonical.
    fn canonize(&mut self, v: Value) -> Value {
        let addr = compound_addr(&v).expect("canonize takes compounds only");
        if self.canonical.contains(&addr) {
            self.hits += 1;
            return v;
        }
        let h = shallow_hash(&v) & self.hash_mask;
        let bucket = self.buckets.entry(h).or_default();
        for candidate in bucket.iter() {
            if shallow_eq(candidate, &v) {
                self.hits += 1;
                return candidate.clone();
            }
        }
        if self.canonical.len() >= self.capacity {
            // Table full: pass through uncanonicalized. Still correct —
            // equality falls back to the structural comparison.
            self.misses += 1;
            return v;
        }
        bucket.push(v.clone());
        self.canonical.insert(addr);
        self.misses += 1;
        v
    }
}

/// The allocation address of a compound value, `None` for scalars.
fn compound_addr(v: &Value) -> Option<usize> {
    match v {
        Value::Unit | Value::Bool(_) | Value::Int(_) | Value::Real(_) => None,
        Value::Str(s) => Some(Arc::as_ptr(s) as *const u8 as usize),
        Value::List(l) => Some(l.addr()),
        Value::Tuple(t) => Some(Arc::as_ptr(t) as usize),
        Value::Map(m) => Some(Arc::as_ptr(m) as usize),
        Value::Term(t) => Some(Arc::as_ptr(t) as usize),
    }
}

/// Hashes one value's top layer: its shape plus its children's identities.
/// Children must already be canonical for this to respect the interner
/// invariant. `DefaultHasher::new()` uses fixed keys, so hashes are
/// deterministic within a process.
fn shallow_hash(v: &Value) -> u64 {
    let mut h = DefaultHasher::new();
    match v {
        Value::Str(s) => {
            0u8.hash(&mut h);
            s.hash(&mut h);
        }
        Value::List(l) => {
            1u8.hash(&mut h);
            hash_children(l.as_slice(), &mut h);
        }
        Value::Tuple(t) => {
            2u8.hash(&mut h);
            hash_children(t, &mut h);
        }
        Value::Map(m) => {
            3u8.hash(&mut h);
            m.len().hash(&mut h);
            for (k, c) in m.iter() {
                k.hash(&mut h);
                c.ident().hash(&mut h);
            }
        }
        Value::Term(t) => {
            4u8.hash(&mut h);
            t.op.hash(&mut h);
            hash_children(&t.children, &mut h);
        }
        scalar => unreachable!("scalars are not hash-consed: {scalar:?}"),
    }
    h.finish()
}

fn hash_children(children: &[Value], h: &mut DefaultHasher) {
    children.len().hash(h);
    for c in children {
        c.ident().hash(h);
    }
}

/// Structural equality of two values whose children are canonical in the
/// same table: shape plus pairwise child identity. This is the within-bucket
/// comparison — by induction it is exactly bitwise structural equality, so
/// hash collisions can never conflate distinct values.
fn shallow_eq(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Str(x), Value::Str(y)) => x == y,
        (Value::List(x), Value::List(y)) => eq_children(x.as_slice(), y.as_slice()),
        (Value::Tuple(x), Value::Tuple(y)) => eq_children(x, y),
        (Value::Map(x), Value::Map(y)) => {
            x.len() == y.len()
                && x.iter()
                    .zip(y.iter())
                    .all(|((ka, va), (kb, vb))| ka == kb && va.ident() == vb.ident())
        }
        (Value::Term(x), Value::Term(y)) => x.op == y.op && eq_children(&x.children, &y.children),
        _ => false,
    }
}

fn eq_children(a: &[Value], b: &[Value]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.ident() == y.ident())
}

// ---------------------------------------------------------------------------
// Memoizing apply cache
// ---------------------------------------------------------------------------

/// A `(function, argument identities) → result` cache for pure semantic
/// functions over canonical arguments.
///
/// Safety of memoization rests on two facts: semantic functions are pure
/// (OLGA is applicative — a function's result depends only on its
/// arguments), and a key is only built from *stable* identities
/// ([`Interner::is_stable`]), so equal keys really denote bitwise equal
/// argument vectors. The cached result is itself canonical, so a hit
/// transports one `Arc` clone.
#[derive(Debug)]
pub struct MemoCache {
    map: HashMap<MemoKey, Value>,
    hits: u64,
    capacity: usize,
}

/// A memo key: the rule's `(production, rule index)` plus the canonical
/// identities of the argument vector.
pub type MemoKey = (u32, u32, Box<[ValueIdent]>);

/// Default bound on memoized entries.
pub const DEFAULT_MEMO_CAPACITY: usize = 1 << 18;

impl Default for MemoCache {
    fn default() -> Self {
        MemoCache::new()
    }
}

impl MemoCache {
    /// An empty cache with the default capacity.
    pub fn new() -> MemoCache {
        MemoCache {
            map: HashMap::new(),
            hits: 0,
            capacity: DEFAULT_MEMO_CAPACITY,
        }
    }

    /// Cached result for `key`, if present.
    pub fn get(&mut self, key: &MemoKey) -> Option<Value> {
        let v = self.map.get(key).cloned();
        if v.is_some() {
            self.hits += 1;
        }
        v
    }

    /// Records `result` for `key` (dropped silently once at capacity).
    pub fn put(&mut self, key: MemoKey, result: Value) {
        if self.map.len() < self.capacity {
            self.map.insert(key, result);
        }
    }

    /// Hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Entries held.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when no entry has been recorded.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    /// SplitMix64 — the repo's deterministic RNG (fnc2-corpus has the
    /// canonical copy; fnc2-ag sits below it in the crate graph, so the
    /// property tests carry their own 10-line copy).
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    /// A random value of bounded depth, covering every variant.
    fn random_value(rng: &mut Rng, depth: usize) -> Value {
        let pick = if depth == 0 {
            rng.below(5)
        } else {
            rng.below(9)
        };
        match pick {
            0 => Value::Unit,
            1 => Value::Bool(rng.below(2) == 0),
            2 => Value::Int(rng.below(7) as i64 - 3),
            3 => Value::Real((rng.below(5) as f64) / 2.0),
            4 => Value::str(format!("s{}", rng.below(6))),
            5 => {
                let n = rng.below(4);
                Value::list((0..n).map(|_| random_value(rng, depth - 1)))
            }
            6 => {
                let n = rng.below(3);
                Value::tuple((0..n).map(|_| random_value(rng, depth - 1)))
            }
            7 => {
                let n = rng.below(4);
                let mut m = BTreeMap::new();
                for _ in 0..n {
                    m.insert(format!("k{}", rng.below(5)), random_value(rng, depth - 1));
                }
                Value::map(m)
            }
            _ => {
                let n = rng.below(3);
                Value::term(
                    format!("op{}", rng.below(4)),
                    (0..n).map(|_| random_value(rng, depth - 1)),
                )
            }
        }
    }

    #[test]
    fn interning_preserves_structure() {
        let mut rng = Rng(0x1177);
        let mut it = Interner::new();
        for _ in 0..500 {
            let v = random_value(&mut rng, 3);
            let original = v.clone();
            let canon = it.intern(v);
            assert_eq!(canon, original, "interning must not change the value");
        }
    }

    /// The tentpole invariant: same id ⟺ structurally equal, over random
    /// values drawn from a small alphabet (so collisions are common).
    #[test]
    fn same_id_iff_structurally_equal() {
        for hash_bits in [64u32, 8] {
            let mut rng = Rng(0x5eed ^ hash_bits as u64);
            let mut it = Interner::with_hash_bits(hash_bits);
            let canon: Vec<Value> = (0..400)
                .map(|_| it.intern(random_value(&mut rng, 3)))
                .collect();
            for a in &canon {
                for b in &canon {
                    assert_eq!(
                        a.ident() == b.ident(),
                        a == b,
                        "hash_bits={hash_bits}: {a:?} vs {b:?}"
                    );
                }
            }
        }
    }

    /// With an 8-bit hash nearly everything collides; occupancy must still
    /// equal the number of *distinct* structures, byte for byte what the
    /// full-width hash finds.
    #[test]
    fn degraded_hash_changes_nothing_but_bucket_sizes() {
        let mut values = Vec::new();
        let mut rng = Rng(0xc0111de);
        for _ in 0..600 {
            values.push(random_value(&mut rng, 3));
        }
        let mut wide = Interner::new();
        let mut narrow = Interner::with_hash_bits(8);
        for v in &values {
            let a = wide.intern(v.clone());
            let b = narrow.intern(v.clone());
            assert_eq!(a, b);
        }
        assert_eq!(wide.len(), narrow.len(), "same distinct structures");
        assert_eq!(
            wide.stats().misses,
            narrow.stats().misses,
            "canonicalization decisions are hash-independent"
        );
    }

    #[test]
    fn reinterning_canonical_is_a_hit() {
        let mut it = Interner::new();
        let v = it.intern(Value::list([Value::Int(1), Value::str("x")]));
        let before = it.stats();
        let w = it.intern(v.clone());
        assert_eq!(w.ident(), v.ident());
        let after = it.stats();
        assert_eq!(after.misses, before.misses);
        assert_eq!(after.hits, before.hits + 1);
    }

    #[test]
    fn structurally_equal_fresh_values_share_one_allocation() {
        let mut it = Interner::new();
        let a = it.intern(Value::list([Value::Int(1), Value::list([Value::Int(2)])]));
        let b = it.intern(Value::list([Value::Int(1), Value::list([Value::Int(2)])]));
        assert_eq!(a.ident(), b.ident());
        // And the nested list is shared too (bottom-up canonicalization).
        let inner_a = a.as_list()[1].ident();
        let c = it.intern(Value::list([Value::Int(2)]));
        assert_eq!(inner_a, c.ident());
    }

    #[test]
    fn capacity_overflow_degrades_gracefully() {
        let mut it = Interner::new().with_capacity_limit(2);
        let a = it.intern(Value::str("a"));
        let b = it.intern(Value::str("b"));
        let c = it.intern(Value::str("c")); // over capacity: passes through
        assert_eq!(it.len(), 2);
        assert_eq!(a, Value::str("a"));
        assert_eq!(b, Value::str("b"));
        assert_eq!(c, Value::str("c"));
        // The overflow value is NOT canonical: a re-intern of equal content
        // still misses, but equality still holds structurally.
        let c2 = it.intern(Value::str("c"));
        assert_eq!(c, c2);
    }

    #[test]
    fn real_values_canonicalize_by_bit_pattern() {
        let mut it = Interner::new();
        let a = it.intern(Value::list([Value::Real(0.5)]));
        let b = it.intern(Value::list([Value::Real(0.5)]));
        let c = it.intern(Value::list([Value::Real(-0.5)]));
        assert_eq!(a.ident(), b.ident());
        assert_ne!(a.ident(), c.ident());
        // 0.0 and -0.0 are IEEE-equal but bitwise distinct: the interner
        // keeps them apart (bitwise semantics), and `==` still says equal.
        let z = it.intern(Value::list([Value::Real(0.0)]));
        let nz = it.intern(Value::list([Value::Real(-0.0)]));
        assert_ne!(z.ident(), nz.ident());
        assert_eq!(z, nz);
    }

    #[test]
    fn memo_cache_round_trips() {
        let mut it = Interner::new();
        // `default()` is `new()`: a cache with the default capacity.
        let mut memo = MemoCache::default();
        let arg = it.intern(Value::list([Value::Int(1)]));
        let key: MemoKey = (3, 1, vec![arg.ident()].into_boxed_slice());
        assert_eq!(memo.get(&key), None);
        let result = it.intern(Value::list([Value::Int(2)]));
        memo.put(key.clone(), result.clone());
        assert_eq!(memo.get(&key), Some(result));
        assert_eq!(memo.hits(), 1);
    }
}
