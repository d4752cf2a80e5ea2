//! The temporary test and the may-evaluate sets.
//!
//! An object is *temporary* when every instance's lifetime is contained in
//! a single visit of every sequence it appears in — the paper reports that
//! temporaries "typically account for more than 80% of all attributes"
//! (§2.2) and stores all of them outside the tree. The may-evaluate sets
//! (`attributes evaluated during visit v of an X-rooted subtree`) drive the
//! global-variable test; they are a grammar-flow fixpoint over the
//! sequences, FNC-2's "grammar of visits and contexts" in set form.

use fnc2_ag::{Grammar, ONode, Occ, PhylumId};
use fnc2_visit::{Instr, VisitSeqs};

use crate::flat::{FlatItem, FlatProgram};
use crate::object::{Object, ObjectIndex, ObjectSet};

/// Lifetime facts about every storage object.
#[derive(Clone, Debug)]
pub struct Lifetimes {
    /// `temporary[i]`: object `i`'s lifetime never crosses a visit
    /// boundary.
    pub temporary: Vec<bool>,
    /// `may_eval[phylum][partition][visit - 1]`: objects that may be
    /// evaluated during that visit of a subtree of that phylum.
    pub may_eval: Vec<Vec<Vec<ObjectSet>>>,
}

impl Lifetimes {
    /// Computes lifetimes for the whole program.
    pub fn analyze(
        grammar: &Grammar,
        seqs: &VisitSeqs,
        fp: &FlatProgram,
        objects: &ObjectIndex,
    ) -> Lifetimes {
        let temporary = temporaries(fp, objects);
        let may_eval = may_eval_sets(grammar, seqs, fp, objects);
        Lifetimes {
            temporary,
            may_eval,
        }
    }

    /// The objects that may be evaluated during visit `visit` (1-based) of
    /// a subtree of `phylum` under partition `partition`.
    #[inline]
    pub fn may_evaluate(&self, phylum: PhylumId, partition: usize, visit: usize) -> &ObjectSet {
        &self.may_eval[phylum.index()][partition][visit - 1]
    }

    /// True if `o` is temporary.
    pub fn is_temporary(&self, objects: &ObjectIndex, o: Object) -> bool {
        self.temporary[objects.index(o)]
    }

    /// Fraction of objects that are temporary.
    pub fn temporary_ratio(&self) -> f64 {
        if self.temporary.is_empty() {
            return 1.0;
        }
        self.temporary.iter().filter(|&&b| b).count() as f64 / self.temporary.len() as f64
    }
}

/// Marks each object temporary iff, in every sequence, every instance's
/// uses stay in the visit of its definition.
fn temporaries(fp: &FlatProgram, objects: &ObjectIndex) -> Vec<bool> {
    let mut temp = vec![true; objects.len()];
    for (fs, insts) in fp.seqs.iter().zip(&fp.instances) {
        for inst in insts {
            let dv = fs.visit_at(inst.def_pos);
            if inst.uses.iter().any(|&u| fs.visit_at(u) != dv) {
                temp[objects.index(inst.object)] = false;
            }
        }
    }
    temp
}

/// The least fixpoint of the may-evaluate sets.
fn may_eval_sets(
    grammar: &Grammar,
    seqs: &VisitSeqs,
    fp: &FlatProgram,
    objects: &ObjectIndex,
) -> Vec<Vec<Vec<ObjectSet>>> {
    // Number the keys (phylum, partition, visit) densely: `first[phylum]
    // [partition]` is the number of visit 1.
    let mut first: Vec<Vec<usize>> = Vec::with_capacity(grammar.phylum_count());
    let mut n = 0;
    for ph in grammar.phyla() {
        let parts = seqs.partitions_of(ph);
        first.push(
            parts
                .iter()
                .map(|part| {
                    n += part.visit_count();
                    n - part.visit_count()
                })
                .collect(),
        );
    }
    let key = |ph: PhylumId, pi: usize, v: usize| first[ph.index()][pi] + v - 1;
    let mut sets: Vec<ObjectSet> = (0..n).map(|_| ObjectSet::new(objects.len())).collect();

    // Per key, the (sequence, visit) bodies contributing to it, and the
    // nested keys referenced by their VISITs.
    struct Body {
        direct: ObjectSet,
        nested: Vec<usize>, // key numbers
    }
    let mut bodies: Vec<Vec<Body>> = (0..n).map(|_| Vec::new()).collect();
    for fs in &fp.seqs {
        let (p, pi) = fs.key;
        let prod = grammar.production(p);
        let lhs = prod.lhs();
        let nvisits = seqs.partitions_of(lhs)[pi].visit_count();
        let mut own: Vec<Body> = (0..nvisits)
            .map(|_| Body {
                direct: ObjectSet::new(objects.len()),
                nested: Vec::new(),
            })
            .collect();
        for item in &fs.items {
            let FlatItem::Op { visit, instr } = item else {
                continue;
            };
            let Some(body) = own.get_mut(visit - 1) else {
                continue;
            };
            match instr {
                Instr::Eval(target) => {
                    let obj = match target {
                        ONode::Attr(Occ { attr, .. }) => Object::Attr(*attr),
                        ONode::Local(l) => Object::Local(p, *l),
                    };
                    body.direct.insert(objects.index(obj));
                }
                Instr::Visit {
                    child,
                    visit: w,
                    partition,
                } => {
                    let ph = prod.phylum_at(*child);
                    body.nested.push(key(ph, *partition, *w));
                }
            }
        }
        for (v, body) in own.into_iter().enumerate() {
            bodies[key(lhs, pi, v + 1)].push(body);
        }
    }

    // Key k writes its own set and reads the sets its bodies nest.
    let dependents = fnc2_gfa::dependents(
        n,
        n,
        |ki| [ki],
        |ki| bodies[ki].iter().flat_map(|b| b.nested.iter().copied()),
    );
    // A key's set grows in place by its bodies' own objects and the sets
    // of the keys they nest (a self-nesting key, for a recursive phylum,
    // adds nothing); taking it out of `sets` allocates nothing.
    let step = |ki: usize| {
        let mut set = std::mem::take(&mut sets[ki]);
        let mut changed = false;
        for b in &bodies[ki] {
            changed |= set.union_in_place(&b.direct);
            for &nk in b.nested.iter().filter(|&&nk| nk != ki) {
                changed |= set.union_in_place(&sets[nk]);
            }
        }
        sets[ki] = set;
        changed
    };
    fnc2_gfa::fixpoint(n, &dependents, step, &mut fnc2_obs::NoopRecorder);

    // Back into (phylum, partition, visit) shape.
    let mut sets = sets.into_iter();
    grammar
        .phyla()
        .map(|ph| {
            seqs.partitions_of(ph)
                .iter()
                .map(|part| sets.by_ref().take(part.visit_count()).collect())
                .collect()
        })
        .collect()
}

/// The strict-stack test for **non-temporary** attributes — the extension
/// the paper announces as work in progress (§2.2: "it seems possible to
/// use the grammar of visits and contexts … to determine whether a
/// non-temporary attribute can be stored in a strict stack, i.e., with
/// accesses only to the top element and without trying to extend the
/// lifetimes").
///
/// The conservative criterion implemented here: the object's instances may
/// cross visit boundaries only at their **own node** (LHS occurrences),
/// its parent-side interval must span from its definition to the last
/// visit that reads it with no parent-side reads in between, and no
/// intervening visit may evaluate the object in a *sibling* subtree (which
/// would break LIFO). Returns the candidate objects; the storage plan
/// itself still keeps non-temporaries at the nodes (matching the paper's
/// implementation state), so this feeds the §4.1 "will be even better"
/// projection.
pub fn strict_stack_candidates(
    grammar: &Grammar,
    fp: &FlatProgram,
    lt: &Lifetimes,
    objects: &ObjectIndex,
) -> Vec<usize> {
    use crate::flat::InstanceKind;
    let mut candidates = Vec::new();
    'obj: for (oi, obj) in objects.iter() {
        if lt.temporary[oi] {
            continue; // already handled by the temporary machinery
        }
        let Object::Attr(a) = obj else {
            continue; // locals that cross visits stay at the node
        };
        if grammar.attr(a).phylum() == grammar.root() {
            continue;
        }
        for (k, (fs, insts)) in fp.seqs.iter().zip(&fp.instances).enumerate() {
            for inst in insts.iter().filter(|i| i.object == obj) {
                match inst.kind {
                    // Cross-visit uses at the own node are the allowed
                    // lifetime extension.
                    InstanceKind::LhsInh | InstanceKind::LhsSyn => {}
                    // Parent-side: every use must be a VISIT (top-only
                    // access: the child consumes it; the parent itself
                    // never reads it back), and no intervening visit may
                    // evaluate the object elsewhere.
                    InstanceKind::ChildInh | InstanceKind::ChildSyn => {
                        for &u in &inst.uses {
                            let is_visit = matches!(
                                fs.items[u],
                                FlatItem::Op {
                                    instr: Instr::Visit { .. },
                                    ..
                                }
                            );
                            if !is_visit && fs.visit_at(u) != fs.visit_at(inst.def_pos) {
                                continue 'obj;
                            }
                        }
                        if interval_hits_visit(
                            grammar,
                            fp,
                            lt,
                            k,
                            inst.def_pos,
                            inst.last_use(),
                            &[oi],
                            &inst.uses,
                        ) {
                            continue 'obj;
                        }
                    }
                    InstanceKind::Local => continue 'obj,
                }
            }
        }
        candidates.push(oi);
    }
    candidates
}

/// Returns true if the interval `[def, last]` of sequence number `seq` (see
/// [`FlatProgram`]) contains a `VISIT` that may evaluate any of the object
/// indices `objs` — the global-variable conflict test. Positions listed in
/// `exclude`, ascending (the instance's own uses: visits during which the
/// visited subtree reads the instance and whose sequences are checked
/// directly), are skipped. Only the sequence's `VISIT` positions inside the
/// interval are looked at.
#[allow(clippy::too_many_arguments)]
pub fn interval_hits_visit(
    grammar: &Grammar,
    fp: &FlatProgram,
    lt: &Lifetimes,
    seq: usize,
    def: usize,
    last: usize,
    objs: &[usize],
    exclude: &[usize],
) -> bool {
    debug_assert!(exclude.is_sorted(), "excluded positions ascending");
    let fs = &fp.seqs[seq];
    let prod = grammar.production(fs.key.0);
    let from = fs.visits.partition_point(|&pos| pos <= def);
    let mut exclude = exclude.iter().peekable();
    for &pos in fs.visits[from..].iter().take_while(|&&pos| pos <= last) {
        while exclude.next_if(|&&x| x < pos).is_some() {}
        if exclude.peek() == Some(&&pos) {
            continue;
        }
        if let FlatItem::Op {
            instr:
                Instr::Visit {
                    child,
                    visit,
                    partition,
                },
            ..
        } = &fs.items[pos]
        {
            let set = lt.may_evaluate(prod.phylum_at(*child), *partition, *visit);
            if objs.iter().any(|&oi| set.contains(oi)) {
                return true;
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use fnc2_ag::{Grammar, GrammarBuilder, Occ, Value};
    use fnc2_analysis::{snc_test, snc_to_l_ordered, Inclusion};
    use fnc2_corpus::two_pass;
    use fnc2_visit::build_visit_seqs;

    use super::*;

    fn pipeline(g: &Grammar) -> (VisitSeqs, FlatProgram, ObjectIndex, Lifetimes) {
        let snc = snc_test(g);
        let lo = snc_to_l_ordered(g, &snc, Inclusion::Long).unwrap();
        let seqs = build_visit_seqs(g, &lo);
        let fp = FlatProgram::new(g, &seqs);
        let objects = ObjectIndex::new(g);
        let lt = Lifetimes::analyze(g, &seqs, &fp, &objects);
        (seqs, fp, objects, lt)
    }

    #[test]
    fn single_visit_grammar_is_all_temporary() {
        let g = two_pass();
        let (_seqs, _fp, objects, lt) = pipeline(&g);
        assert_eq!(lt.temporary.len(), objects.len());
        assert!(lt.temporary.iter().all(|&b| b), "{:?}", lt.temporary);
        assert_eq!(lt.temporary_ratio(), 1.0);
    }

    /// Force a cross-visit lifetime: i1 read again during visit 2.
    #[test]
    fn cross_visit_use_is_non_temporary() {
        let mut g = GrammarBuilder::new("twovisit");
        let s = g.phylum("S");
        let a = g.phylum("A");
        let out = g.syn(s, "out");
        let i1 = g.inh(a, "i1");
        let s1 = g.syn(a, "s1");
        let i2 = g.inh(a, "i2");
        let s2 = g.syn(a, "s2");
        g.func("add", 2, |v| Value::Int(v[0].as_int() + v[1].as_int()));
        let root = g.production("root", s, &[a]);
        g.constant(root, Occ::new(1, i1), Value::Int(3));
        g.copy(root, Occ::new(1, i2), Occ::new(1, s1));
        g.copy(root, Occ::lhs(out), Occ::new(1, s2));
        let leaf = g.production("leaf", a, &[]);
        g.copy(leaf, Occ::lhs(s1), Occ::lhs(i1));
        // s2 := i1 + i2 — reads i1 again in visit 2.
        g.call(
            leaf,
            Occ::lhs(s2),
            "add",
            [Occ::lhs(i1).into(), Occ::lhs(i2).into()],
        );
        let g = g.finish().unwrap();
        let (_seqs, _fp, objects, lt) = pipeline(&g);
        let a = g.phylum_by_name("A").unwrap();
        let i1 = g.attr_by_name(a, "i1").unwrap();
        let s1 = g.attr_by_name(a, "s1").unwrap();
        assert!(
            !lt.is_temporary(&objects, Object::Attr(i1)),
            "i1 crosses visits"
        );
        assert!(
            lt.is_temporary(&objects, Object::Attr(s1)),
            "s1 stays in visit 1"
        );
    }

    #[test]
    fn may_eval_propagates_through_recursion() {
        let g = two_pass();
        let (_seqs, _fp, objects, lt) = pipeline(&g);
        let a = g.phylum_by_name("A").unwrap();
        let down = g.attr_by_name(a, "down").unwrap();
        let up = g.attr_by_name(a, "up").unwrap();
        let me = lt.may_evaluate(a, 0, 1);
        // Visiting an A subtree evaluates nested down (via mid) and up.
        assert!(me.contains(objects.index(Object::Attr(down))));
        assert!(me.contains(objects.index(Object::Attr(up))));
    }
}
