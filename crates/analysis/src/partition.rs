//! Totally-ordered partitions of a phylum's attributes.
//!
//! A totally-ordered partition `I₁ S₁ I₂ S₂ … Iₖ Sₖ` fixes a protocol for
//! evaluating a node: during visit `v` the parent supplies the inherited
//! attributes `Iᵥ` and the node computes the synthesized attributes `Sᵥ`.
//! Visit-sequence evaluators exist exactly when every phylum can be given
//! such an order compatible with all productions — the *l-ordered* class —
//! and the SNC → l-ordered transformation manufactures sets of these
//! partitions for arbitrary SNC grammars (paper §2.1.1).

use fnc2_ag::{AttrId, AttrKind, Grammar, PhylumId};
use fnc2_gfa::BitMatrix;

/// One visit's worth of a partition: inherited in, synthesized out.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct VisitSlot {
    /// Inherited attributes available from this visit on.
    pub inh: Vec<AttrId>,
    /// Synthesized attributes computed by the end of this visit.
    pub syn: Vec<AttrId>,
}

impl VisitSlot {
    /// True if the slot carries no attributes.
    pub fn is_empty(&self) -> bool {
        self.inh.is_empty() && self.syn.is_empty()
    }
}

/// A totally-ordered partition of one phylum's attributes.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct TotalOrder {
    /// The phylum whose attributes are partitioned.
    pub phylum: PhylumId,
    /// The visits, in evaluation order.
    pub visits: Vec<VisitSlot>,
}

impl TotalOrder {
    /// Builds a canonical partition from visit slots: attribute sets are
    /// sorted, empty trailing visits dropped, and a visit whose synthesized
    /// set is empty is merged into the following visit (it would produce
    /// nothing for the parent).
    pub fn new(phylum: PhylumId, visits: Vec<VisitSlot>) -> TotalOrder {
        let mut merged: Vec<VisitSlot> = Vec::new();
        let mut pending_inh: Vec<AttrId> = Vec::new();
        for v in visits {
            pending_inh.extend(v.inh);
            if !v.syn.is_empty() {
                merged.push(VisitSlot {
                    inh: std::mem::take(&mut pending_inh),
                    syn: v.syn,
                });
            }
        }
        if !pending_inh.is_empty() {
            // Trailing inherited attributes that no synthesized attribute
            // follows: they still must be supplied, in a final visit.
            merged.push(VisitSlot {
                inh: pending_inh,
                syn: Vec::new(),
            });
        }
        for v in &mut merged {
            v.inh.sort_unstable();
            v.syn.sort_unstable();
        }
        if merged.is_empty() {
            merged.push(VisitSlot {
                inh: Vec::new(),
                syn: Vec::new(),
            });
        }
        TotalOrder {
            phylum,
            visits: merged,
        }
    }

    /// The single-visit partition: all inherited first, then all
    /// synthesized. Legal for the root phylum, whose context supplies
    /// everything up front.
    pub fn single_visit(grammar: &Grammar, phylum: PhylumId) -> TotalOrder {
        TotalOrder::new(
            phylum,
            vec![VisitSlot {
                inh: grammar.inherited(phylum),
                syn: grammar.synthesized(phylum),
            }],
        )
    }

    /// Derives a partition from a linear evaluation order of (a subset of
    /// the positions of) the phylum's attributes: a new visit starts
    /// whenever an inherited attribute follows a synthesized one.
    pub fn from_linear(grammar: &Grammar, phylum: PhylumId, order: &[AttrId]) -> TotalOrder {
        let mut visits: Vec<VisitSlot> = vec![VisitSlot {
            inh: Vec::new(),
            syn: Vec::new(),
        }];
        for &a in order {
            let last = visits.last_mut().expect("nonempty");
            match grammar.attr(a).kind() {
                AttrKind::Inherited => {
                    if last.syn.is_empty() {
                        last.inh.push(a);
                    } else {
                        visits.push(VisitSlot {
                            inh: vec![a],
                            syn: Vec::new(),
                        });
                    }
                }
                AttrKind::Synthesized => last.syn.push(a),
            }
        }
        TotalOrder::new(phylum, visits)
    }

    /// Number of visits.
    pub fn visit_count(&self) -> usize {
        self.visits.len()
    }

    /// Number of non-empty attribute sets (the "distinct attribute sets"
    /// of the long-inclusion replacement criterion).
    pub fn set_count(&self) -> usize {
        self.visits
            .iter()
            .map(|v| usize::from(!v.inh.is_empty()) + usize::from(!v.syn.is_empty()))
            .sum()
    }

    /// The 1-based visit in which `attr` is available (inherited) or
    /// computed (synthesized).
    pub fn visit_of(&self, attr: AttrId) -> Option<usize> {
        self.visits
            .iter()
            .position(|v| v.inh.contains(&attr) || v.syn.contains(&attr))
            .map(|i| i + 1)
    }

    /// The strict order the partition imposes, as a relation over local
    /// attribute indices: `a → b` when `a`'s set comes before `b`'s.
    pub fn as_matrix(&self, grammar: &Grammar) -> BitMatrix {
        let k = grammar.phylum(self.phylum).attrs().len();
        let mut m = BitMatrix::new(k);
        // Linearize sets: I1, S1, I2, S2, ...
        let sets: Vec<&[AttrId]> = self
            .visits
            .iter()
            .flat_map(|v| [v.inh.as_slice(), v.syn.as_slice()])
            .collect();
        for i in 0..sets.len() {
            for j in i + 1..sets.len() {
                for &a in sets[i] {
                    for &b in sets[j] {
                        m.set(grammar.attr(a).offset(), grammar.attr(b).offset());
                    }
                }
            }
        }
        m
    }

    /// True if this partition covers exactly the attributes of its phylum.
    pub fn is_complete(&self, grammar: &Grammar) -> bool {
        let mut seen: Vec<AttrId> = self
            .visits
            .iter()
            .flat_map(|v| v.inh.iter().chain(&v.syn).copied())
            .collect();
        seen.sort_unstable();
        let mut want = grammar.phylum(self.phylum).attrs().to_vec();
        want.sort_unstable();
        seen == want
    }

    /// Renders the partition as `[i1 i2 | s1][ | s2]`.
    pub fn display(&self, grammar: &Grammar) -> String {
        self.visits
            .iter()
            .map(|v| {
                let inh: Vec<&str> = v.inh.iter().map(|&a| grammar.attr(a).name()).collect();
                let syn: Vec<&str> = v.syn.iter().map(|&a| grammar.attr(a).name()).collect();
                format!("[{} | {}]", inh.join(" "), syn.join(" "))
            })
            .collect::<Vec<_>>()
            .join("")
    }
}

#[cfg(test)]
mod tests {
    use fnc2_ag::{Grammar, GrammarBuilder, Occ};

    use super::*;

    fn g() -> (Grammar, PhylumId, Vec<AttrId>) {
        let mut g = GrammarBuilder::new("t");
        let a = g.phylum("A");
        let i1 = g.inh(a, "i1");
        let s1 = g.syn(a, "s1");
        let i2 = g.inh(a, "i2");
        let s2 = g.syn(a, "s2");
        let leaf = g.production("leaf", a, &[]);
        g.copy(leaf, Occ::lhs(s1), Occ::lhs(i1));
        g.copy(leaf, Occ::lhs(s2), Occ::lhs(i2));
        let g = g.finish().unwrap();
        (g, a, vec![i1, s1, i2, s2])
    }

    #[test]
    fn from_linear_splits_visits() {
        let (g, a, at) = g();
        let (i1, s1, i2, s2) = (at[0], at[1], at[2], at[3]);
        let t = TotalOrder::from_linear(&g, a, &[i1, s1, i2, s2]);
        assert_eq!(t.visit_count(), 2);
        assert_eq!(t.visit_of(i1), Some(1));
        assert_eq!(t.visit_of(s2), Some(2));
        assert_eq!(t.set_count(), 4);
        assert!(t.is_complete(&g));
    }

    #[test]
    fn single_visit_partition() {
        let (g, a, at) = g();
        let t = TotalOrder::single_visit(&g, a);
        assert_eq!(t.visit_count(), 1);
        assert_eq!(t.visit_of(at[0]), Some(1));
        assert_eq!(t.visit_of(at[3]), Some(1));
        assert_eq!(t.set_count(), 2);
    }

    #[test]
    fn normalization_merges_empty_syn_visits() {
        let (g, a, at) = g();
        let (i1, s1, i2, s2) = (at[0], at[1], at[2], at[3]);
        // [i1 | ] [i2 | s1 s2] must merge the first into the second.
        let t = TotalOrder::new(
            a,
            vec![
                VisitSlot {
                    inh: vec![i1],
                    syn: vec![],
                },
                VisitSlot {
                    inh: vec![i2],
                    syn: vec![s1, s2],
                },
            ],
        );
        assert_eq!(t.visit_count(), 1);
        assert_eq!(t.visits[0].inh, vec![i1, i2]);
        let _ = g;
    }

    #[test]
    fn trailing_inherited_kept() {
        let (g, a, at) = g();
        let t = TotalOrder::new(
            a,
            vec![
                VisitSlot {
                    inh: vec![at[0]],
                    syn: vec![at[1]],
                },
                VisitSlot {
                    inh: vec![at[2]],
                    syn: vec![],
                },
            ],
        );
        assert_eq!(t.visit_count(), 2);
        assert!(t.visits[1].syn.is_empty());
        assert!(!t.is_complete(&g), "s2 missing");
    }

    #[test]
    fn matrix_orders_sets() {
        let (g, a, at) = g();
        let (i1, s1, i2, s2) = (at[0], at[1], at[2], at[3]);
        let t = TotalOrder::from_linear(&g, a, &[i1, s1, i2, s2]);
        let m = t.as_matrix(&g);
        let l = |x| g.attr(x).offset();
        assert!(m.get(l(i1), l(s1)));
        assert!(m.get(l(s1), l(i2)));
        assert!(m.get(l(i1), l(s2)));
        assert!(!m.get(l(s1), l(i1)));
        // Same-set pairs are unordered.
        assert!(!m.get(l(i1), l(i1)));
    }

    #[test]
    fn canonical_equality() {
        let (g, a, at) = g();
        let t1 = TotalOrder::from_linear(&g, a, &[at[0], at[2], at[1], at[3]]);
        let t2 = TotalOrder::from_linear(&g, a, &[at[2], at[0], at[3], at[1]]);
        assert_eq!(t1, t2, "set order canonicalized");
    }

    #[test]
    fn display_form() {
        let (g, a, at) = g();
        let t = TotalOrder::from_linear(&g, a, &[at[0], at[1]]);
        assert_eq!(t.display(&g), "[i1 | s1]");
    }
}
