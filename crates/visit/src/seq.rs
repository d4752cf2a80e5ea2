//! Visit-sequence construction (paper §2.1.1).
//!
//! A visit-sequence evaluator is "a visit-sequence interpreter: there
//! exists one visit-sequence per production" — per (production, LHS
//! partition) pair after the SNC → l-ordered transformation — "which is a
//! sequence of instructions" `BEGIN i / EVAL s / VISIT i,j / LEAVE i`.
//! Here a sequence is stored as its segments: `segments[i-1]` holds the
//! instructions between `BEGIN i+…+LEAVE i`, so `BEGIN`/`LEAVE` are
//! implicit in the segment structure.

use fnc2_ag::{Grammar, ONode, Occ, PhylumId, ProductionId};
use fnc2_analysis::{LOrdered, TotalOrder};

/// One visit-sequence instruction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Instr {
    /// Evaluate the semantic rule defining this occurrence (a synthesized
    /// attribute of the LHS, an inherited attribute of a child, or a
    /// production-local attribute).
    Eval(ONode),
    /// Perform visit number `visit` (1-based) to child `child` (1-based),
    /// interpreting the child under `partition` — the extra parameter the
    /// transformation threads through recursive visits (paper §2.1.1,
    /// step 3).
    Visit {
        /// 1-based child position.
        child: u16,
        /// 1-based visit number on the child.
        visit: usize,
        /// Index of the partition to use on the child.
        partition: usize,
    },
}

/// The visit-sequence of one (production, LHS-partition) pair.
#[derive(Clone, Debug)]
pub struct VisitSeq {
    /// The production this sequence interprets.
    pub production: ProductionId,
    /// Index of the LHS partition this sequence serves.
    pub lhs_partition: usize,
    /// `segments[v-1]` = instructions of visit `v`.
    pub segments: Vec<Vec<Instr>>,
}

impl VisitSeq {
    /// Total number of instructions.
    pub fn instr_count(&self) -> usize {
        self.segments.iter().map(Vec::len).sum()
    }

    /// Number of `Visit` instructions.
    pub fn visit_instr_count(&self) -> usize {
        self.segments
            .iter()
            .flatten()
            .filter(|i| matches!(i, Instr::Visit { .. }))
            .count()
    }
}

/// The complete set of visit-sequences of a grammar, plus the partitions
/// they follow — the "abstract evaluator" handed to the translators.
///
/// The sequences are in key order, production then LHS partition, and a
/// sequence's place in that order is its number: every per-sequence table
/// downstream (the flattened program, the access tables, the artifact's
/// sections) is a vector in the same order.
#[derive(Clone, Debug)]
pub struct VisitSeqs {
    seqs: Vec<VisitSeq>,
    partitions: Vec<Vec<TotalOrder>>,
}

impl VisitSeqs {
    /// Iterates all sequences, in key order.
    pub fn iter(&self) -> std::slice::Iter<'_, VisitSeq> {
        self.seqs.iter()
    }

    /// All (production, partition) keys, in order.
    pub fn keys(&self) -> Vec<(ProductionId, usize)> {
        self.iter()
            .map(|s| (s.production, s.lhs_partition))
            .collect()
    }

    /// The partitions of `phylum`.
    pub fn partitions_of(&self, phylum: PhylumId) -> &[TotalOrder] {
        &self.partitions[phylum.index()]
    }

    /// All partition lists, indexed by phylum, for serialization.
    pub fn partitions(&self) -> &[Vec<TotalOrder>] {
        &self.partitions
    }

    /// Reassembles visit sequences from serialized parts. The caller is
    /// responsible for internal consistency (the sequences must be in key
    /// order, and every sequence's key must reference a registered
    /// partition).
    pub fn from_parts(seqs: Vec<VisitSeq>, partitions: Vec<Vec<TotalOrder>>) -> VisitSeqs {
        VisitSeqs { seqs, partitions }
    }

    /// Number of visits the root partition prescribes.
    pub fn root_visits(&self, grammar: &Grammar) -> usize {
        self.partitions[grammar.root().index()][0].visit_count()
    }

    /// Number of sequences (the evaluator-size figure the transformation's
    /// partition count drives).
    pub fn len(&self) -> usize {
        self.seqs.len()
    }

    /// True if there are no sequences.
    pub fn is_empty(&self) -> bool {
        self.seqs.is_empty()
    }
}

/// Builds the visit-sequences from the transformation's plans.
///
/// # Panics
///
/// Panics if `lo` is internally inconsistent (a plan referencing an
/// unregistered partition); [`fnc2_analysis::snc_to_l_ordered`] and
/// [`fnc2_analysis::l_ordered_from_partitions`] never produce such plans.
pub fn build_visit_seqs(grammar: &Grammar, lo: &LOrdered) -> VisitSeqs {
    let mut seqs = Vec::with_capacity(lo.stats.plans);
    let mut sink = Sink::default();
    for ((p, pi), plan) in lo.iter() {
        let prod = grammar.production(p);
        let lhs_part = &lo.partitions_of(prod.lhs())[pi];
        let nvisits = lhs_part.visit_count();
        let mut segments: Vec<Vec<Instr>> = vec![Vec::new(); nvisits];
        let mut current = 1usize;
        // Number of visits already emitted per child (1-based positions).
        let mut done = vec![0usize; prod.arity() + 1];
        for &node in &plan.linear {
            match node {
                ONode::Attr(Occ { pos: 0, attr }) => {
                    let v = lhs_part
                        .visit_of(attr)
                        .expect("LHS partition covers all attributes");
                    current = current.max(v);
                    if grammar.attr(attr).kind() == fnc2_ag::AttrKind::Synthesized {
                        segments[v - 1].push(Instr::Eval(node));
                    }
                }
                ONode::Attr(Occ { pos, attr }) => match grammar.attr(attr).kind() {
                    fnc2_ag::AttrKind::Inherited => {
                        segments[current - 1].push(Instr::Eval(node));
                    }
                    fnc2_ag::AttrKind::Synthesized => {
                        let part_idx = plan.rhs_partitions[pos as usize - 1];
                        let ph = prod.phylum_at(pos);
                        let part = &lo.partitions_of(ph)[part_idx];
                        let w = part
                            .visit_of(attr)
                            .expect("child partition covers all attributes");
                        while done[pos as usize] < w {
                            done[pos as usize] += 1;
                            segments[current - 1].push(Instr::Visit {
                                child: pos,
                                visit: done[pos as usize],
                                partition: part_idx,
                            });
                        }
                    }
                },
                ONode::Local(_) => segments[current - 1].push(Instr::Eval(node)),
            }
        }
        // Exhaustive evaluation: drive the remaining visits of every child
        // so the whole tree is decorated even when some synthesized results
        // are unused in this context.
        #[allow(clippy::needless_range_loop)] // pos is also the child index
        for pos in 1..=prod.arity() {
            let part_idx = plan.rhs_partitions[pos - 1];
            let ph = prod.phylum_at(pos as u16);
            let total = lo.partitions_of(ph)[part_idx].visit_count();
            while done[pos] < total {
                done[pos] += 1;
                segments[nvisits - 1].push(Instr::Visit {
                    child: pos as u16,
                    visit: done[pos],
                    partition: part_idx,
                });
            }
        }
        // Schedule refinement: sink every EVAL to just before its first
        // use in the segment. This shortens instance lifetimes (more
        // variables/stacks for the space optimizer) and groups each
        // child's inherited attributes right before the visit that
        // consumes them — without touching the partitions.
        for segment in &mut segments {
            sink_evals(grammar, p, segment, &mut sink);
        }
        seqs.push(VisitSeq {
            production: p,
            lhs_partition: pi,
            segments,
        });
    }
    VisitSeqs {
        seqs,
        partitions: lo.partitions.clone(),
    }
}

/// The buffers of [`sink_evals`], kept across the segments of a grammar.
#[derive(Default)]
struct Sink {
    at: Vec<usize>,
    reads: Vec<(usize, usize)>,
    next_visit: Vec<usize>,
    /// Per instruction: the anchor it hangs before (roots have none), its
    /// depth below a root, and its neighbours in the order.
    links: Vec<[usize; 4]>,
    sunk: Vec<Instr>,
}

/// Sinks each `EVAL` as late as the segment allows: to just before the
/// first later instruction that uses its result (or to the segment end if
/// nothing in the segment does — LHS synthesized attributes are handed to
/// the parent at `LEAVE`). Right to left, each instruction enters a linked
/// order of the ones after it: a `VISIT` at the front, an `EVAL` just
/// before its *anchor*, its first user there or the end. Entering never
/// reorders, so the anchors form a forest that says which of two users
/// comes first: the roots (`VISIT`s and the end) in position order, and
/// an anchor's `EVAL`s after what hangs before them, first come first.
fn sink_evals(grammar: &Grammar, p: ProductionId, segment: &mut Vec<Instr>, s: &mut Sink) {
    const NONE: usize = usize::MAX;
    const ANCHOR: usize = 0;
    const DEPTH: usize = 1;
    const PREV: usize = 2;
    const NEXT: usize = 3;
    let (n, end, head) = (segment.len(), segment.len(), segment.len() + 1);
    let number = |node: ONode| grammar.node_index(p, node).expect("validated grammar");
    // `(i, k)` for every later `EVAL` k reading the result of `EVAL` i.
    s.at.clear();
    s.at.resize(grammar.production(p).nodes().len(), NONE);
    s.reads.clear();
    for (k, instr) in segment.iter().enumerate() {
        if let Instr::Eval(t) = instr {
            for read in grammar
                .rule_for(p, *t)
                .expect("validated grammar")
                .read_nodes()
            {
                if let Some(&i) = s.at.get(number(read)).filter(|&&i| i != NONE) {
                    s.reads.push((i, k));
                }
            }
            s.at[number(*t)] = k;
        }
    }
    s.reads.sort_unstable();
    let links = &mut s.links;
    links.clear();
    links.resize(n + 2, [NONE, 0, NONE, NONE]);
    links[head][NEXT] = end;
    links[end][PREV] = head;
    let precedes = |links: &[[usize; 4]], mut x: usize, mut y: usize| {
        while links[x][DEPTH] > links[y][DEPTH] {
            x = links[x][ANCHOR];
            if x == y {
                return true;
            }
        }
        while links[y][DEPTH] > links[x][DEPTH] {
            y = links[y][ANCHOR];
            if y == x {
                return false;
            }
        }
        while links[x][ANCHOR] != links[y][ANCHOR] {
            (x, y) = (links[x][ANCHOR], links[y][ANCHOR]);
        }
        (links[x][ANCHOR] == NONE) == (x < y)
    };
    // The first `VISIT` of each child to the right of the scan.
    s.next_visit.clear();
    s.next_visit.resize(grammar.production(p).arity() + 1, NONE);
    for j in (0..n).rev() {
        let before = match segment[j] {
            Instr::Visit { child, .. } => {
                s.next_visit[child as usize] = j;
                links[head][NEXT]
            }
            Instr::Eval(t) => {
                let from = s.reads.partition_point(|&(i, _)| i < j);
                let users = s.reads[from..].iter().take_while(|&&(i, _)| i == j);
                let visit = match t {
                    ONode::Attr(Occ { pos, .. }) if pos > 0 => s.next_visit[pos as usize],
                    _ => NONE,
                };
                let users = users
                    .map(|&(_, k)| k)
                    .chain((visit != NONE).then_some(visit));
                let anchor = users.fold(end, |a, k| if precedes(links, k, a) { k } else { a });
                links[j][ANCHOR] = anchor;
                links[j][DEPTH] = links[anchor][DEPTH] + 1;
                anchor
            }
        };
        let after = links[before][PREV];
        links[after][NEXT] = j;
        links[before][PREV] = j;
        (links[j][PREV], links[j][NEXT]) = (after, before);
    }
    s.sunk.clear();
    let mut i = links[head][NEXT];
    while i != end {
        s.sunk.push(segment[i].clone());
        i = links[i][NEXT];
    }
    std::mem::swap(segment, &mut s.sunk);
}

#[cfg(test)]
mod tests {
    use fnc2_ag::{Grammar, Occ};
    use fnc2_analysis::{snc_test, snc_to_l_ordered, Inclusion};
    use fnc2_corpus::two_pass;

    use super::*;

    fn seqs_for(g: &Grammar) -> VisitSeqs {
        let snc = snc_test(g);
        let lo = snc_to_l_ordered(g, &snc, Inclusion::Long).unwrap();
        build_visit_seqs(g, &lo)
    }

    #[test]
    fn two_pass_sequences() {
        let g = two_pass();
        let seqs = seqs_for(&g);
        assert_eq!(seqs.len(), 3);
        assert_eq!(seqs.root_visits(&g), 1);
        let seq = |p| seqs.iter().find(|s| s.production == p).unwrap();

        let root = g.production_by_name("root").unwrap();
        let rs = seq(root);
        assert_eq!(rs.segments.len(), 1);
        // EVAL A.down ; VISIT 1,1 ; EVAL S.out.
        let a = g.phylum_by_name("A").unwrap();
        let down = g.attr_by_name(a, "down").unwrap();
        let s = g.phylum_by_name("S").unwrap();
        let out = g.attr_by_name(s, "out").unwrap();
        assert_eq!(
            rs.segments[0],
            vec![
                Instr::Eval(ONode::Attr(Occ::new(1, down))),
                Instr::Visit {
                    child: 1,
                    visit: 1,
                    partition: 0
                },
                Instr::Eval(ONode::Attr(Occ::lhs(out))),
            ]
        );

        let mid = g.production_by_name("mid").unwrap();
        let ms = seq(mid);
        assert_eq!(ms.visit_instr_count(), 1);

        let leaf = g.production_by_name("leaf").unwrap();
        let ls = seq(leaf);
        assert_eq!(ls.visit_instr_count(), 0);
        assert_eq!(ls.instr_count(), 1);
    }

    #[test]
    fn every_output_evaluated_exactly_once() {
        let g = two_pass();
        let seqs = seqs_for(&g);
        for seq in seqs.iter() {
            let p = seq.production;
            let mut evals: Vec<ONode> = seq
                .segments
                .iter()
                .flatten()
                .filter_map(|i| match i {
                    Instr::Eval(n) => Some(*n),
                    _ => None,
                })
                .collect();
            evals.sort();
            let mut outputs = g.outputs(p);
            outputs.sort();
            assert_eq!(evals, outputs, "production {}", g.production(p).name());
        }
    }

    #[test]
    fn child_visits_are_sequential() {
        let g = two_pass();
        let seqs = seqs_for(&g);
        for seq in seqs.iter() {
            let arity = g.production(seq.production).arity();
            let mut next = vec![1usize; arity + 1];
            for instr in seq.segments.iter().flatten() {
                if let Instr::Visit { child, visit, .. } = instr {
                    assert_eq!(*visit, next[*child as usize], "visits in order");
                    next[*child as usize] += 1;
                }
            }
        }
    }

    /// The quadratic sink the one-pass [`sink_evals`] replaced: each `EVAL`,
    /// right to left, found by `position` and moved before its first later
    /// use by `remove` and `insert`.
    fn sink_evals_reference(grammar: &Grammar, p: ProductionId, segment: &mut Vec<Instr>) {
        let uses = |target: ONode, later: &Instr| match later {
            Instr::Eval(t2) => {
                (grammar.rule_for(p, *t2).unwrap().read_nodes()).any(|n| n == target)
            }
            Instr::Visit { child, .. } => {
                matches!(target, ONode::Attr(Occ { pos, .. }) if pos == *child)
            }
        };
        let targets: Vec<ONode> = (segment.iter())
            .filter_map(|i| match i {
                Instr::Eval(t) => Some(*t),
                _ => None,
            })
            .collect();
        for &target in targets.iter().rev() {
            let i = (segment.iter())
                .position(|x| matches!(x, Instr::Eval(t) if *t == target))
                .unwrap();
            let first_use = (i + 1..segment.len()).find(|&k| uses(target, &segment[k]));
            let dest = first_use.map_or(segment.len() - 1, |k| k - 1);
            if dest > i {
                let instr = segment.remove(i);
                segment.insert(dest, instr);
            }
        }
    }

    /// The one-pass sink agrees with the reference on every segment of
    /// the corpus grammars, and on each segment's rotations and reversal,
    /// which put uses before and after their `EVAL`s in new orders.
    #[test]
    fn one_pass_sink_matches_the_reference() {
        let mut grammars = vec![
            fnc2_corpus::minipascal().0,
            fnc2_corpus::blocks(),
            fnc2_corpus::desk(),
            fnc2_corpus::binary(),
            fnc2_corpus::flat(64),
            two_pass(),
        ];
        grammars.extend(
            fnc2_corpus::TABLE1_PROFILES
                .iter()
                .map(fnc2_corpus::synthetic),
        );
        let mut segments = 0;
        for g in &grammars {
            let seqs = seqs_for(g);
            for seq in seqs.iter() {
                for segment in &seq.segments {
                    let mut variants = vec![segment.iter().rev().cloned().collect::<Vec<_>>()];
                    for r in 0..segment.len().min(8) {
                        let mut v = segment.clone();
                        v.rotate_left(r);
                        variants.push(v);
                    }
                    for v in variants {
                        let (mut fast, mut slow) = (v.clone(), v);
                        sink_evals(g, seq.production, &mut fast, &mut Sink::default());
                        sink_evals_reference(g, seq.production, &mut slow);
                        assert_eq!(fast, slow, "{}", g.name());
                        segments += 1;
                    }
                }
            }
        }
        assert!(segments > 1000, "{segments} segments");
    }
}
