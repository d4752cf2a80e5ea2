//! Kastens' ordered-attribute-grammar test, generalized to the OAG(k)
//! ladder of Barbar [3].
//!
//! The OAG test computes, for every phylum, the *induced* dependency
//! relation `DS(X)` (all dependencies between `X`'s attributes realizable
//! through any context and any subtree), peels a totally-ordered partition
//! from it, and accepts iff every production graph stays acyclic once the
//! partition orders are pasted in (the EDP check). `OAG(0)` is exactly
//! Kastens' test.
//!
//! Barbar's report defining OAG(k) is not publicly available; per DESIGN.md
//! we reconstruct the ladder as *cycle-driven repair*: when the EDP of some
//! production is cyclic, one partition edge on the cycle is relaxed by
//! delaying its source attribute to a later visit, up to `k` times. Each
//! repair can only coarsen the schedule, so `OAG(0) ⊆ OAG(1) ⊆ … ⊆`
//! l-ordered, with witnesses separating the levels (see the corpus).

use fnc2_ag::{AttrKind, Grammar, ONode, Occ, PhylumId, ProductionId};
use fnc2_gfa::{dependents, fixpoint, BitMatrix};
use fnc2_obs::{NoopRecorder, Recorder};

use crate::io::{lhs_of, rhs_of, CircWitness, PhylumRels};
use crate::partition::{TotalOrder, VisitSlot};
use crate::paste::{Deps, Pasted};

/// Result of the OAG(k) test.
#[derive(Clone, Debug)]
pub struct OagResult {
    /// The induced dependency relations `DS(X)`.
    pub ds: PhylumRels,
    /// The partitions, one per phylum, when the test succeeds.
    pub partitions: Option<Vec<TotalOrder>>,
    /// A cycle witness when it fails.
    pub witness: Option<CircWitness>,
    /// Number of repair steps actually spent (≤ the requested `k`).
    pub repairs_used: usize,
}

impl OagResult {
    /// True if the grammar is OAG(k) for the tested `k`.
    pub fn is_oag(&self) -> bool {
        self.partitions.is_some()
    }
}

/// Runs the OAG(k) test. `k = 0` is Kastens' classical test.
pub fn oag_test(grammar: &Grammar, k: usize) -> OagResult {
    oag_test_recorded(grammar, k, &mut NoopRecorder)
}

/// [`oag_test`], with the `DS` fixpoint run recorded into `rec`.
pub fn oag_test_recorded<R: Recorder>(grammar: &Grammar, k: usize, rec: &mut R) -> OagResult {
    oag(&Deps::new(grammar), k, rec)
}

/// The OAG(k) test on a cascade run's `D(p)`s.
pub(crate) fn oag<R: Recorder>(deps: &Deps, k: usize, rec: &mut R) -> OagResult {
    let grammar = deps.grammar;
    let mut pasted = Pasted::new(deps);
    let ds = induced_dependencies(&mut pasted, rec);

    // DS(X) must be acyclic for a partition to exist at all.
    for ph in grammar.phyla() {
        if !ds.get(ph).closure().is_irreflexive() {
            let witness = cycle_witness_for_phylum(&mut pasted, &ds, ph);
            return OagResult {
                ds,
                partitions: None,
                witness,
                repairs_used: 0,
            };
        }
    }

    // Initial slot assignment per phylum by backwards peeling.
    let mut slots: Vec<Vec<usize>> = Vec::with_capacity(grammar.phylum_count());
    for ph in grammar.phyla() {
        match peel_slots(grammar, &ds, ph) {
            Some(s) => slots.push(s),
            None => {
                let witness = cycle_witness_for_phylum(&mut pasted, &ds, ph);
                return OagResult {
                    ds,
                    partitions: None,
                    witness,
                    repairs_used: 0,
                };
            }
        }
    }

    let mut repairs_used = 0;
    loop {
        let partitions: Vec<TotalOrder> = grammar
            .phyla()
            .map(|ph| slots_to_partition(grammar, ph, &slots[ph.index()]))
            .collect();
        match edp_check(&mut pasted, &partitions) {
            None => {
                return OagResult {
                    ds,
                    partitions: Some(partitions),
                    witness: None,
                    repairs_used,
                }
            }
            Some(witness) => {
                if repairs_used >= k || !repair(deps, &ds, &mut slots, &witness) {
                    return OagResult {
                        ds,
                        partitions: None,
                        witness: Some(witness),
                        repairs_used,
                    };
                }
                repairs_used += 1;
            }
        }
    }
}

/// Computes `DS(X)` for every phylum: the up-and-down fixpoint of projected
/// transitive closures (Kastens [29], in GFA form).
fn induced_dependencies<R: Recorder>(pasted: &mut Pasted, rec: &mut R) -> PhylumRels {
    let deps = pasted.deps();
    let grammar = deps.grammar;
    let mut ds = PhylumRels::empty(grammar);
    // A production reads and writes the DS of every phylum it mentions, so
    // its dependents are all productions sharing a phylum with it.
    let mentioned = |p: usize| lhs_of(grammar, p).into_iter().chain(rhs_of(grammar, p));
    let n = grammar.production_count();
    let dependents = dependents(n, grammar.phylum_count(), mentioned, mentioned);

    fixpoint(
        n,
        &dependents,
        |pi| {
            let p = ProductionId::from_raw(pi as u32);
            let prod = grammar.production(p);
            paste_all(pasted, p, |ph| ds.get(ph));
            let mut changed = ds.absorb(prod.lhs(), pasted.project_reach(0, |_, _| true));
            for group in deps.rhs_position_groups(p) {
                let proj = pasted.project_reach(group[0], |_, _| true);
                changed |= ds.absorb(prod.phylum_at(group[0]), proj);
            }
            changed
        },
        rec,
    );
    ds
}

/// Resets `pasted` to `D(p)` with `rel(X)` pasted at every position of
/// phylum `X`, the LHS included.
fn paste_all<'a>(pasted: &mut Pasted, p: ProductionId, rel: impl Fn(PhylumId) -> &'a BitMatrix) {
    let prod = pasted.deps().grammar.production(p);
    pasted.reset(p);
    for pos in 0..=prod.arity() as u16 {
        pasted.paste(pos, rel(prod.phylum_at(pos)));
    }
}

/// Assigns each attribute of `ph` a *slot*: even slots inherited, odd
/// synthesized, in evaluation order (`I₁=0, S₁=1, I₂=2, …`). Peels from the
/// end: the last set is the synthesized attributes nothing depends on.
/// Returns `None` if peeling gets stuck (cyclic `DS`).
fn peel_slots(grammar: &Grammar, ds: &PhylumRels, ph: PhylumId) -> Option<Vec<usize>> {
    let attrs = grammar.phylum(ph).attrs();
    let n = attrs.len();
    let rel = ds.get(ph);
    let mut remaining: Vec<bool> = vec![true; n];
    let mut left = n;
    // Sets collected from the END of evaluation backwards.
    let mut sets_rev: Vec<Vec<usize>> = Vec::new();
    let mut want = AttrKind::Synthesized;
    let mut empties = 0;
    while left > 0 {
        let elig: Vec<usize> = (0..n)
            .filter(|&a| {
                remaining[a]
                    && grammar.attr(attrs[a]).kind() == want
                    && (0..n).all(|b| !remaining[b] || !rel.get(a, b))
            })
            .collect();
        if elig.is_empty() {
            empties += 1;
            if empties >= 2 {
                return None; // neither kind can make progress: cyclic DS
            }
        } else {
            empties = 0;
            for &a in &elig {
                remaining[a] = false;
            }
            left -= elig.len();
        }
        sets_rev.push(elig);
        want = match want {
            AttrKind::Synthesized => AttrKind::Inherited,
            AttrKind::Inherited => AttrKind::Synthesized,
        };
    }
    // sets_rev[0] is the last set (synthesized); convert to forward slot
    // numbers with parity: even = inherited, odd = synthesized.
    // The forward sequence alternates ending with a synthesized set, so
    // forward index = (len-1 - rev_index); make parity line up by padding:
    let mut total = sets_rev.len();
    // Forward sequence must start with an inherited set (even slot 0).
    // sets_rev alternates S, I, S, I, ... so forward starts with I iff
    // total is even.
    if total % 2 == 1 {
        total += 1; // virtual empty leading inherited set
    }
    let mut slot = vec![0usize; n];
    for (rev_i, set) in sets_rev.iter().enumerate() {
        let fwd = total - 1 - rev_i;
        for &a in set {
            slot[a] = fwd;
        }
    }
    debug_assert!(slot
        .iter()
        .enumerate()
        .all(|(a, &s)| (s % 2 == 1) == (grammar.attr(attrs[a]).kind() == AttrKind::Synthesized)));
    Some(slot)
}

/// Converts a slot assignment into a [`TotalOrder`].
fn slots_to_partition(grammar: &Grammar, ph: PhylumId, slot: &[usize]) -> TotalOrder {
    let max_slot = slot.iter().copied().max().unwrap_or(0);
    let n_visits = max_slot / 2 + 1;
    let mut visits: Vec<VisitSlot> = (0..n_visits)
        .map(|_| VisitSlot {
            inh: Vec::new(),
            syn: Vec::new(),
        })
        .collect();
    for (&attr, &s) in grammar.phylum(ph).attrs().iter().zip(slot) {
        let v = s / 2;
        if s % 2 == 0 {
            visits[v].inh.push(attr);
        } else {
            visits[v].syn.push(attr);
        }
    }
    TotalOrder::new(ph, visits)
}

/// Checks every production's EDP (D(p) + partition orders pasted at all
/// positions); returns a witness for the first cyclic one.
fn edp_check(pasted: &mut Pasted, partitions: &[TotalOrder]) -> Option<CircWitness> {
    let deps = pasted.deps();
    let orders: Vec<BitMatrix> = partitions
        .iter()
        .map(|t| t.as_matrix(deps.grammar))
        .collect();
    deps.grammar.productions().find_map(|p| {
        paste_all(pasted, p, |ph| &orders[ph.index()]);
        Some(CircWitness {
            production: p,
            cycle: pasted.find_cycle()?,
        })
    })
}

/// One OAG(k) repair step: pick a partition-order edge `(q,a) → (q,b)` on
/// the witness cycle (an edge that exists only because of the slot
/// assignment, not a real rule dependency) and delay `a` to `b`'s slot (or
/// the next slot of `a`'s kind), then re-propagate `DS` consistency.
/// Returns `false` if no repairable edge exists on the cycle.
fn repair(deps: &Deps, ds: &PhylumRels, slots: &mut [Vec<usize>], witness: &CircWitness) -> bool {
    let grammar = deps.grammar;
    let p = witness.production;
    let prod = grammar.production(p);
    let dep = deps.dep(p);
    // Real dependencies of D(p).
    let is_real = |from: ONode, to: ONode| -> bool {
        dep.index_of(from)
            .zip(dep.index_of(to))
            .map(|(u, v)| dep.succs(u).contains(&v))
            .unwrap_or(false)
    };
    for w in witness.cycle.windows(2) {
        let (ONode::Attr(a), ONode::Attr(b)) = (w[0], w[1]) else {
            continue;
        };
        if a.pos != b.pos || is_real(w[0], w[1]) {
            continue;
        }
        let ph = prod.phylum_at(a.pos);
        // DS pairs must keep their order; only pure partition edges bend.
        let la = grammar.attr(a.attr).offset();
        let lb = grammar.attr(b.attr).offset();
        if ds.get(ph).closure().get(la, lb) {
            continue;
        }
        // Delay `a` to at least `b`'s slot, respecting kind parity.
        let slot_b = slots[ph.index()][lb];
        let kind_a = grammar.attr(a.attr).kind();
        let parity = usize::from(kind_a == AttrKind::Synthesized);
        let mut new_slot = slot_b;
        if new_slot % 2 != parity {
            new_slot += 1;
        }
        if new_slot <= slots[ph.index()][la] {
            continue; // would not move anything
        }
        slots[ph.index()][la] = new_slot;
        propagate_slots(grammar, ds, slots);
        return true;
    }
    false
}

/// Restores `DS`-consistency of the slot assignment after a repair: if
/// `(a, b) ∈ DS(X)` then `slot(a) ≤ slot(b)`, bumping `b` forward (to the
/// next slot of its kind) where violated.
fn propagate_slots(grammar: &Grammar, ds: &PhylumRels, slots: &mut [Vec<usize>]) {
    for ph in grammar.phyla() {
        let attrs = grammar.phylum(ph).attrs();
        let n = attrs.len();
        let rel = ds.get(ph);
        let mut changed = true;
        while changed {
            changed = false;
            for a in 0..n {
                for b in 0..n {
                    if rel.get(a, b) && slots[ph.index()][b] < slots[ph.index()][a] {
                        // Pull b forward to a's slot, or the next slot of
                        // b's kind. Same-slot DS pairs are fine: intra-set
                        // order is decided by the local topological sort.
                        let kind_b = grammar.attr(attrs[b]).kind();
                        let parity = usize::from(kind_b == AttrKind::Synthesized);
                        let mut s = slots[ph.index()][a];
                        if s % 2 != parity {
                            s += 1;
                        }
                        if slots[ph.index()][b] < s {
                            slots[ph.index()][b] = s;
                            changed = true;
                        }
                    }
                }
            }
        }
    }
}

/// Builds a witness for a phylum whose `DS` relation is cyclic, pointing at
/// some production that contributes an edge of the cycle.
fn cycle_witness_for_phylum(
    pasted: &mut Pasted,
    ds: &PhylumRels,
    ph: PhylumId,
) -> Option<CircWitness> {
    // Report the cycle through any production whose pasted graph is cyclic
    // once DS is attached; fall back to the first production of the phylum.
    let deps = pasted.deps();
    let grammar = deps.grammar;
    grammar
        .productions()
        .find_map(|p| {
            paste_all(pasted, p, |ph| ds.get(ph));
            Some(CircWitness {
                production: p,
                cycle: pasted.find_cycle()?,
            })
        })
        .or_else(|| {
            grammar
                .phylum(ph)
                .productions()
                .first()
                .map(|&p| CircWitness {
                    production: p,
                    cycle: vec![ONode::Attr(Occ::lhs(grammar.phylum(ph).attrs()[0]))],
                })
        })
}

#[cfg(test)]
mod tests {
    use fnc2_ag::{GrammarBuilder, Occ, Value};
    use fnc2_corpus::two_pass;

    use super::*;

    #[test]
    fn two_pass_is_oag0() {
        let g = two_pass();
        let r = oag_test(&g, 0);
        assert!(r.is_oag());
        assert_eq!(r.repairs_used, 0);
        let parts = r.partitions.unwrap();
        let a = g.phylum_by_name("A").unwrap();
        assert_eq!(parts[a.index()].visit_count(), 1);
        assert!(parts[a.index()].is_complete(&g));
    }

    /// A 2-visit grammar: i1→s1 and s1 feeds i2 via the parent, s2 needs i2.
    #[test]
    fn two_visit_partition() {
        let mut g = GrammarBuilder::new("twovisit");
        let s = g.phylum("S");
        let a = g.phylum("A");
        let out = g.syn(s, "out");
        let i1 = g.inh(a, "i1");
        let s1 = g.syn(a, "s1");
        let i2 = g.inh(a, "i2");
        let s2 = g.syn(a, "s2");
        let root = g.production("root", s, &[a]);
        g.constant(root, Occ::new(1, i1), Value::Int(0));
        // i2 of the child depends on the child's own s1 (through the parent).
        g.copy(root, Occ::new(1, i2), Occ::new(1, s1));
        g.copy(root, Occ::lhs(out), Occ::new(1, s2));
        let leaf = g.production("leaf", a, &[]);
        g.copy(leaf, Occ::lhs(s1), Occ::lhs(i1));
        g.copy(leaf, Occ::lhs(s2), Occ::lhs(i2));
        let g = g.finish().unwrap();

        let r = oag_test(&g, 0);
        assert!(r.is_oag());
        let a = g.phylum_by_name("A").unwrap();
        let part = &r.partitions.unwrap()[a.index()];
        assert_eq!(part.visit_count(), 2);
        assert_eq!(part.visit_of(i1), Some(1));
        assert_eq!(part.visit_of(s1), Some(1));
        assert_eq!(part.visit_of(i2), Some(2));
        assert_eq!(part.visit_of(s2), Some(2));
    }

    #[test]
    fn circularity_in_ds_fails() {
        // A.i := A.s at the parent, A.s := A.i at the leaf: DS(A) cyclic.
        let mut g = GrammarBuilder::new("bad");
        let s = g.phylum("S");
        let a = g.phylum("A");
        let out = g.syn(s, "out");
        let i = g.inh(a, "i");
        let sy = g.syn(a, "s");
        let root = g.production("root", s, &[a]);
        g.copy(root, Occ::lhs(out), Occ::new(1, sy));
        g.copy(root, Occ::new(1, i), Occ::new(1, sy));
        let leaf = g.production("leaf", a, &[]);
        g.copy(leaf, Occ::lhs(sy), Occ::lhs(i));
        let g = g.finish().unwrap();
        let r = oag_test(&g, 3);
        assert!(!r.is_oag());
        assert!(r.witness.is_some());
    }
}
