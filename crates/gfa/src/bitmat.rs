//! Dense boolean relations (bit matrices) over small index sets.
//!
//! All AG class tests manipulate relations over the attributes of one
//! phylum or the occurrences of one production — index sets of a few dozen
//! elements. A `u64`-blocked adjacency matrix makes the transitive closure
//! (Warshall with whole-row ORs) and subset tests cheap, which is what keeps
//! the generator "quite fast" (paper §3.1).

use std::fmt;

/// A square boolean matrix / binary relation on `0..n`.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BitMatrix {
    n: usize,
    words: usize,
    rows: Vec<u64>,
}

impl BitMatrix {
    /// The empty relation on `0..n`.
    pub fn new(n: usize) -> Self {
        let words = n.div_ceil(64).max(1);
        BitMatrix {
            n,
            words,
            rows: vec![0; n * words],
        }
    }

    /// Makes this the empty relation on `0..n`, reusing its storage.
    pub fn reset(&mut self, n: usize) {
        self.n = n;
        self.words = n.div_ceil(64).max(1);
        self.rows.clear();
        self.rows.resize(n * self.words, 0);
    }

    /// The dimension `n`.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True if the dimension is zero.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Adds the pair `(i, j)`. Returns `true` if it was new.
    ///
    /// # Panics
    /// Panics if `i` or `j` is out of range.
    pub fn set(&mut self, i: usize, j: usize) -> bool {
        assert!(
            i < self.n && j < self.n,
            "bit ({i},{j}) out of range {}",
            self.n
        );
        let w = &mut self.rows[i * self.words + j / 64];
        let bit = 1u64 << (j % 64);
        let new = *w & bit == 0;
        *w |= bit;
        new
    }

    /// Tests the pair `(i, j)`.
    ///
    /// # Panics
    /// Panics if `i` or `j` is out of range.
    pub fn get(&self, i: usize, j: usize) -> bool {
        assert!(i < self.n && j < self.n);
        self.rows[i * self.words + j / 64] & (1u64 << (j % 64)) != 0
    }

    /// ORs `other` into `self` elementwise. Returns `true` if anything
    /// changed.
    ///
    /// # Panics
    /// Panics if dimensions differ.
    pub fn union_in_place(&mut self, other: &BitMatrix) -> bool {
        assert_eq!(self.n, other.n, "dimension mismatch");
        let mut changed = false;
        for (a, b) in self.rows.iter_mut().zip(&other.rows) {
            let next = *a | *b;
            changed |= next != *a;
            *a = next;
        }
        changed
    }

    /// Replaces `self` by its transitive closure (Warshall, row-OR form).
    pub fn close(&mut self) {
        let mut k_row = vec![0; self.words];
        for k in 0..self.n {
            k_row.copy_from_slice(&self.rows[k * self.words..(k + 1) * self.words]);
            for i in 0..self.n {
                if self.get(i, k) {
                    let row = &mut self.rows[i * self.words..(i + 1) * self.words];
                    for (a, b) in row.iter_mut().zip(&k_row) {
                        *a |= b;
                    }
                }
            }
        }
    }

    /// The transitive closure, non-destructively.
    pub fn closure(&self) -> BitMatrix {
        let mut m = self.clone();
        m.close();
        m
    }

    /// True if the *closed* relation has no `(i, i)` pair — i.e. the graph
    /// it closed from is acyclic. Call on a matrix produced by
    /// [`close`](Self::close)/[`closure`](Self::closure).
    pub fn is_irreflexive(&self) -> bool {
        (0..self.n).all(|i| !self.get(i, i))
    }

    /// Iterates the pairs of the relation.
    pub fn pairs(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        (0..self.n).flat_map(move |i| {
            (0..self.n)
                .filter(move |&j| self.get(i, j))
                .map(move |j| (i, j))
        })
    }

    /// Number of pairs in the relation.
    pub fn count(&self) -> usize {
        self.rows.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True if every pair of `self` is in `other`.
    ///
    /// # Panics
    /// Panics if dimensions differ.
    pub fn is_subset(&self, other: &BitMatrix) -> bool {
        assert_eq!(self.n, other.n);
        self.rows.iter().zip(&other.rows).all(|(a, b)| a & !b == 0)
    }
}

impl fmt::Debug for BitMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BitMatrix{{{}x{}: ", self.n, self.n)?;
        f.debug_set().entries(self.pairs()).finish()?;
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_count() {
        let mut m = BitMatrix::new(70);
        assert!(m.set(0, 65));
        assert!(!m.set(0, 65));
        assert!(m.get(0, 65));
        assert!(!m.get(65, 0));
        assert_eq!(m.count(), 1);
    }

    #[test]
    fn closure_of_chain() {
        let mut m = BitMatrix::new(4);
        m.set(0, 1);
        m.set(1, 2);
        m.set(2, 3);
        m.close();
        assert!(m.get(0, 3));
        assert!(m.get(1, 3));
        assert!(!m.get(3, 0));
        assert!(m.is_irreflexive());
        assert_eq!(m.count(), 6);
    }

    #[test]
    fn closure_detects_cycle() {
        let mut m = BitMatrix::new(3);
        m.set(0, 1);
        m.set(1, 2);
        m.set(2, 0);
        assert!(m.is_irreflexive(), "not closed yet");
        m.close();
        assert!(!m.is_irreflexive());
    }

    #[test]
    fn union_and_subset() {
        let mut a = BitMatrix::new(5);
        a.set(1, 2);
        let mut b = BitMatrix::new(5);
        b.set(3, 4);
        assert!(!a.is_subset(&b));
        assert!(a.union_in_place(&b));
        assert!(!a.union_in_place(&b), "idempotent");
        assert!(b.is_subset(&a));
        assert_eq!(a.count(), 2);
    }

    #[test]
    fn pairs_roundtrip() {
        let mut m = BitMatrix::new(6);
        m.set(5, 0);
        m.set(2, 3);
        let pairs: Vec<_> = m.pairs().collect();
        assert_eq!(pairs, vec![(2, 3), (5, 0)]);
    }

    #[test]
    fn zero_dim() {
        let m = BitMatrix::new(0);
        assert!(m.is_empty());
        assert!(m.closure().is_irreflexive());
    }
}
