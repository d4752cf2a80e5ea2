//! Flattened visit-sequences and attribute-instance lifetime intervals.
//!
//! Lifetime analysis (Kastens [30,31], Julié [27,28]) works on
//! visit-sequence *positions*: each occurrence of an attribute in a
//! production has, within that production's sequence, a definition position
//! and use positions; dependencies that live in other sequences are folded
//! into the `BEGIN`/`LEAVE` markers (LHS occurrences) and the `VISIT`
//! instructions (child occurrences).

use std::collections::BTreeMap;

use fnc2_ag::{AttrId, AttrKind, Grammar, ONode, Occ, PhylumId, ProductionId};
use fnc2_visit::{Instr, VisitSeq, VisitSeqs};

use crate::object::Object;

/// One position of a flattened sequence.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FlatItem {
    /// `BEGIN v` (1-based).
    Begin(usize),
    /// An `EVAL`/`VISIT` instruction inside visit `visit`.
    Op {
        /// The 1-based visit this instruction belongs to.
        visit: usize,
        /// The instruction.
        instr: Instr,
    },
    /// `LEAVE v`.
    Leave(usize),
}

/// A flattened visit-sequence with positions `0..items.len()`.
#[derive(Clone, Debug)]
pub struct FlatSeq {
    /// The (production, LHS partition) this flattens.
    pub key: (ProductionId, usize),
    /// Items in execution order.
    pub items: Vec<FlatItem>,
    /// The positions of the `VISIT` items, ascending.
    pub visits: Vec<usize>,
}

impl FlatSeq {
    fn new(seq: &VisitSeq) -> FlatSeq {
        let (mut items, mut visits) = (Vec::new(), Vec::new());
        for (i, segment) in seq.segments.iter().enumerate() {
            let v = i + 1;
            items.push(FlatItem::Begin(v));
            for instr in segment {
                if let Instr::Visit { .. } = instr {
                    visits.push(items.len());
                }
                items.push(FlatItem::Op {
                    visit: v,
                    instr: instr.clone(),
                });
            }
            items.push(FlatItem::Leave(v));
        }
        let key = (seq.production, seq.lhs_partition);
        FlatSeq { key, items, visits }
    }

    /// The visit a position belongs to.
    pub fn visit_at(&self, pos: usize) -> usize {
        match &self.items[pos] {
            FlatItem::Begin(v) | FlatItem::Leave(v) => *v,
            FlatItem::Op { visit, .. } => *visit,
        }
    }
}

/// How an instance appears in a sequence.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InstanceKind {
    /// The LHS occurrence of an inherited attribute: defined by the parent,
    /// available from `BEGIN v`.
    LhsInh,
    /// The LHS occurrence of a synthesized attribute: defined by `EVAL`,
    /// handed to the parent at `LEAVE v`.
    LhsSyn,
    /// A child occurrence of an inherited attribute: defined by `EVAL`,
    /// consumed through the `VISIT`s.
    ChildInh,
    /// A child occurrence of a synthesized attribute: materializes at the
    /// `VISIT` that computes it.
    ChildSyn,
    /// A production-local attribute.
    Local,
}

/// The lifetime interval of one attribute-occurrence instance within one
/// flattened sequence.
#[derive(Clone, Debug)]
pub struct Instance {
    /// The occurrence (or local) this instance is of.
    pub node: ONode,
    /// The storage object it belongs to.
    pub object: Object,
    /// How it appears here.
    pub kind: InstanceKind,
    /// Position where the value becomes available in this sequence.
    pub def_pos: usize,
    /// Positions where the value is read in this sequence, ascending
    /// (`EVAL` argument reads; for [`InstanceKind::ChildInh`] also the
    /// `VISIT`s during which the child reads it; for
    /// [`InstanceKind::LhsSyn`] the `LEAVE` that hands it up).
    pub uses: Vec<usize>,
}

impl Instance {
    /// The last position at which the instance must still be alive.
    pub fn last_use(&self) -> usize {
        self.uses.iter().copied().max().unwrap_or(self.def_pos)
    }
}

/// Flattened sequences plus instance tables for the whole grammar.
///
/// Every sequence has a dense number, its place in [`VisitSeqs`]: `seqs[k]`
/// and `instances[k]` describe the same sequence. Within a sequence,
/// instance `i` is node `i` of the production's numbering
/// ([`Production::nodes`](fnc2_ag::Production::nodes)).
#[derive(Clone, Debug)]
pub struct FlatProgram {
    /// Flattened sequences, in [`VisitSeqs`] order.
    pub seqs: Vec<FlatSeq>,
    /// Instances per sequence, in the same order.
    pub instances: Vec<Vec<Instance>>,
    /// `last_read_visit[(phylum, partition, attr)]`: the latest visit in
    /// which any production of `phylum` (under that partition) reads the
    /// LHS occurrence of the inherited attribute. Missing = never read.
    pub last_read_visit: BTreeMap<(PhylumId, usize, AttrId), usize>,
}

impl FlatProgram {
    /// Builds the flattened program for `grammar` under `seqs`.
    pub fn new(grammar: &Grammar, seqs: &VisitSeqs) -> FlatProgram {
        let flat: Vec<FlatSeq> = seqs.iter().map(FlatSeq::new).collect();

        // Pass 1: latest visit reading each (phylum, partition, inherited
        // attr) at its LHS occurrence.
        let mut last_read_visit = BTreeMap::new();
        for fs in &flat {
            let (p, pi) = fs.key;
            let lhs = grammar.production(p).lhs();
            for item in &fs.items {
                let FlatItem::Op {
                    visit,
                    instr: Instr::Eval(target),
                } = item
                else {
                    continue;
                };
                let rule = grammar.rule_for(p, *target).expect("rule exists");
                for read in rule.read_nodes() {
                    if let ONode::Attr(Occ { pos: 0, attr }) = read {
                        if grammar.attr(attr).kind() == AttrKind::Inherited {
                            let e = last_read_visit.entry((lhs, pi, attr)).or_insert(0);
                            *e = (*e).max(*visit);
                        }
                    }
                }
            }
        }

        // Pass 2: instances per sequence.
        let instances = flat
            .iter()
            .map(|fs| build_instances(grammar, seqs, fs, &last_read_visit))
            .collect();

        FlatProgram {
            seqs: flat,
            instances,
            last_read_visit,
        }
    }
}

/// Records `x` at `v[i]`, growing `v` with [`NONE`] as needed.
fn put(v: &mut Vec<usize>, i: usize, x: usize) {
    if v.len() <= i {
        v.resize(i + 1, NONE);
    }
    v[i] = x;
}

/// An unset position.
const NONE: usize = usize::MAX;

fn build_instances(
    grammar: &Grammar,
    seqs: &VisitSeqs,
    fs: &FlatSeq,
    last_read_visit: &BTreeMap<(PhylumId, usize, AttrId), usize>,
) -> Vec<Instance> {
    let (p, pi) = fs.key;
    let prod = grammar.production(p);
    let lhs_part = &seqs.partitions_of(prod.lhs())[pi];
    let nodes = prod.nodes();
    let number = |node: ONode| {
        grammar
            .node_index(p, node)
            .expect("a node of the production")
    };

    // Where is each node defined (by number), each visit begun and left
    // (by visit - 1), each child visited (by child, then visit - 1), and
    // under which partition is each child visited?
    let mut def_pos = vec![NONE; nodes.len()];
    let mut begin_pos = Vec::new();
    let mut leave_pos = Vec::new();
    let mut visit_pos: Vec<Vec<usize>> = vec![Vec::new(); prod.arity() + 1];
    let mut child_part = vec![NONE; prod.arity() + 1];
    // Reads: node number -> positions of EVALs whose rule reads it.
    let mut reads: Vec<Vec<usize>> = vec![Vec::new(); nodes.len()];
    for (pos, item) in fs.items.iter().enumerate() {
        match item {
            FlatItem::Begin(v) => put(&mut begin_pos, v - 1, pos),
            FlatItem::Leave(v) => put(&mut leave_pos, v - 1, pos),
            FlatItem::Op { instr, .. } => match instr {
                Instr::Eval(target) => {
                    def_pos[number(*target)] = pos;
                    let rule = grammar.rule_for(p, *target).expect("rule exists");
                    for read in rule.read_nodes() {
                        reads[number(read)].push(pos);
                    }
                }
                Instr::Visit {
                    child,
                    visit,
                    partition,
                } => {
                    put(&mut visit_pos[*child as usize], visit - 1, pos);
                    child_part[*child as usize] = *partition;
                }
            },
        }
    }
    let defined = |k: usize| {
        assert_ne!(def_pos[k], NONE, "every output is evaluated");
        def_pos[k]
    };

    // One instance per node, in number order: the LHS occurrences, each
    // child's, then the locals.
    let mut out = Vec::with_capacity(nodes.len());
    for (k, (&node, uses)) in nodes.iter().zip(reads).enumerate() {
        let inst = match node {
            ONode::Attr(Occ { pos: 0, attr }) => {
                let v = lhs_part.visit_of(attr).expect("partition is complete");
                match grammar.attr(attr).kind() {
                    AttrKind::Inherited => Instance {
                        node,
                        object: Object::Attr(attr),
                        kind: InstanceKind::LhsInh,
                        def_pos: begin_pos[v - 1],
                        uses,
                    },
                    AttrKind::Synthesized => {
                        let mut uses = uses;
                        uses.push(leave_pos[v - 1]); // handoff to the parent
                        Instance {
                            node,
                            object: Object::Attr(attr),
                            kind: InstanceKind::LhsSyn,
                            def_pos: defined(k),
                            uses,
                        }
                    }
                }
            }
            ONode::Attr(Occ { pos, attr }) => {
                let ph = prod.phylum_at(pos);
                // Partition used on this child: from any VISIT instruction.
                let cpart = child_part[pos as usize];
                assert_ne!(cpart, NONE, "every child is visited at least once");
                let part = &seqs.partitions_of(ph)[cpart];
                let w = part.visit_of(attr).expect("partition is complete");
                let visits = &visit_pos[pos as usize];
                match grammar.attr(attr).kind() {
                    AttrKind::Inherited => {
                        let mut uses = uses;
                        // The child consumes it during visits w ..= last read.
                        let last = last_read_visit
                            .get(&(ph, cpart, attr))
                            .copied()
                            .unwrap_or(0)
                            .max(w);
                        for wv in w..=last {
                            match visits.get(wv - 1) {
                                Some(&vp) if vp != NONE => uses.push(vp),
                                _ => {}
                            }
                        }
                        Instance {
                            node,
                            object: Object::Attr(attr),
                            kind: InstanceKind::ChildInh,
                            def_pos: defined(k),
                            uses,
                        }
                    }
                    AttrKind::Synthesized => {
                        let vp = visits.get(w - 1).copied().unwrap_or(NONE);
                        assert_ne!(vp, NONE, "the visit computing it is scheduled");
                        Instance {
                            node,
                            object: Object::Attr(attr),
                            kind: InstanceKind::ChildSyn,
                            def_pos: vp,
                            uses,
                        }
                    }
                }
            }
            ONode::Local(l) => Instance {
                node,
                object: Object::Local(p, l),
                kind: InstanceKind::Local,
                def_pos: defined(k),
                uses,
            },
        };
        out.push(inst);
    }
    for inst in &mut out {
        inst.uses.sort_unstable();
    }
    out
}

#[cfg(test)]
mod tests {
    use fnc2_ag::Grammar;
    use fnc2_analysis::{snc_test, snc_to_l_ordered, Inclusion};
    use fnc2_visit::build_visit_seqs;

    use super::*;

    fn two_pass() -> (Grammar, VisitSeqs) {
        let g = fnc2_corpus::two_pass();
        let snc = snc_test(&g);
        let lo = snc_to_l_ordered(&g, &snc, Inclusion::Long).unwrap();
        let seqs = build_visit_seqs(&g, &lo);
        (g, seqs)
    }

    #[test]
    fn flatten_marks_visits() {
        let (g, seqs) = two_pass();
        let fp = FlatProgram::new(&g, &seqs);
        // One partition per production: sequence k is production k's.
        let root = g.production_by_name("root").unwrap();
        let fs = &fp.seqs[root.index()];
        // BEGIN, EVAL down, VISIT, EVAL out, LEAVE.
        assert_eq!(fs.items.len(), 5);
        assert!(matches!(fs.items[0], FlatItem::Begin(1)));
        assert!(matches!(fs.items[4], FlatItem::Leave(1)));
        assert_eq!(fs.visit_at(2), 1);
    }

    #[test]
    fn instances_have_sane_intervals() {
        let (g, seqs) = two_pass();
        let fp = FlatProgram::new(&g, &seqs);
        let mid = g.production_by_name("mid").unwrap();
        let insts = &fp.instances[mid.index()];
        // A.down(lhs), A.up(lhs), A.down(child), A.up(child).
        assert_eq!(insts.len(), 4);
        for inst in insts {
            assert!(inst.last_use() >= inst.def_pos, "{inst:?}");
        }
        // The child `down` instance is used by the VISIT.
        let a = g.phylum_by_name("A").unwrap();
        let down = g.attr_by_name(a, "down").unwrap();
        let child_down = insts
            .iter()
            .find(|i| i.kind == InstanceKind::ChildInh && i.object == Object::Attr(down))
            .unwrap();
        assert!(!child_down.uses.is_empty());
    }

    #[test]
    fn last_read_visit_computed() {
        let (g, seqs) = two_pass();
        let fp = FlatProgram::new(&g, &seqs);
        let a = g.phylum_by_name("A").unwrap();
        let down = g.attr_by_name(a, "down").unwrap();
        // `down` is read at visit 1 (in mid and leaf).
        assert_eq!(fp.last_read_visit.get(&(a, 0, down)), Some(&1));
    }
}
