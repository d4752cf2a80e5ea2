//! Load-time checks: what a decoded artifact must satisfy, against the
//! rebuilt grammar, before the evaluators may run it.
//!
//! The payload checksum only proves that the bytes are the ones written,
//! and a re-checksummed payload passes it. These checks cover every index
//! the evaluators and [`FlatProgram::new`] follow without a bounds check,
//! so a damaged artifact is [`ArtifactError::Corrupt`], never a panic.
//! Whether a well-formed plan is also *sound* (stack discipline, shared
//! storage of eliminated copies) stays `fnc2_space::validate_plan`'s job.

use fnc2_ag::{AttrKind, Grammar, RuleBody};
use fnc2_space::{
    FlatItem, FlatProgram, Lifetimes, ObjectIndex, ObjectSet, ReadPath, SpacePlan, Storage,
    WritePath,
};
use fnc2_visit::{Instr, VisitSeq, VisitSeqs};

use crate::ArtifactError;

fn corrupt<T>(what: &str) -> Result<T, ArtifactError> {
    Err(ArtifactError::Corrupt(what.into()))
}

/// The partitions and sequences must be the grammar's: each partition
/// lists its phylum's attributes once, each under its own kind, and the
/// root phylum has one to start from; there is one sequence per
/// (production, LHS partition), with one segment per visit of that
/// partition; each rule of the production is `EVAL`'d exactly once and
/// nothing else is; and each child is visited under one of its phylum's
/// partitions, visits 1, 2, … of it in order, each once.
pub(crate) fn sequences(grammar: &Grammar, seqs: &VisitSeqs) -> Result<(), ArtifactError> {
    let partitions = seqs.partitions();
    if partitions.len() != grammar.phylum_count() {
        return corrupt("partitions do not match the grammar's phyla");
    }
    if partitions[grammar.root().index()].is_empty() {
        return corrupt("the root phylum has no partition");
    }
    for ph in grammar.phyla() {
        let mut attrs = grammar.phylum(ph).attrs().to_vec();
        attrs.sort_unstable();
        for part in &partitions[ph.index()] {
            let mut listed = Vec::with_capacity(attrs.len());
            for slot in &part.visits {
                let inh = slot.inh.iter().map(|&a| (a, AttrKind::Inherited));
                let syn = slot.syn.iter().map(|&a| (a, AttrKind::Synthesized));
                for (a, kind) in inh.chain(syn) {
                    if a.index() >= grammar.attr_count() || grammar.attr(a).kind() != kind {
                        return corrupt("a partition lists an attribute under the wrong kind");
                    }
                    listed.push(a);
                }
            }
            listed.sort_unstable();
            if part.phylum != ph || listed != attrs {
                return corrupt("a partition does not list its phylum's attributes once");
            }
        }
    }
    let want = grammar.productions().flat_map(|p| {
        let n = partitions[grammar.production(p).lhs().index()].len();
        (0..n).map(move |pi| (p, pi))
    });
    if !seqs.keys().into_iter().eq(want) {
        return corrupt("visit sequences do not match the grammar's partitions");
    }
    seqs.iter().try_for_each(|seq| sequence(grammar, seqs, seq))
}

fn sequence(grammar: &Grammar, seqs: &VisitSeqs, seq: &VisitSeq) -> Result<(), ArtifactError> {
    let p = seq.production;
    let prod = grammar.production(p);
    if seq.segments.len() != seqs.partitions_of(prod.lhs())[seq.lhs_partition].visit_count() {
        return corrupt("a sequence's segments do not match its partition's visits");
    }
    let mut evaluated = vec![false; prod.nodes().len()];
    // Per child: the partition it is visited under, and its visits so far.
    let mut child_part = vec![None; prod.arity() + 1];
    let mut done = vec![0; prod.arity() + 1];
    for instr in seq.segments.iter().flatten() {
        match *instr {
            Instr::Eval(node) => {
                let k = grammar.node_index(p, node);
                let fresh = k.is_some_and(|k| !std::mem::replace(&mut evaluated[k], true));
                if !fresh || grammar.rule_for(p, node).is_none() {
                    return corrupt("an EVAL names no rule of its production, or repeats one");
                }
            }
            Instr::Visit {
                child,
                visit,
                partition,
            } => {
                let c = usize::from(child);
                if c == 0 || c > prod.arity() {
                    return corrupt("a VISIT names a child past the production's arity");
                }
                let parts = seqs.partitions_of(prod.phylum_at(child));
                let known = *child_part[c].get_or_insert(partition) == partition;
                if !known || partition >= parts.len() {
                    return corrupt("a VISIT names a partition the child's phylum lacks");
                }
                done[c] += 1;
                if visit != done[c] || visit > parts[partition].visit_count() {
                    return corrupt("a child's visits are out of order or out of range");
                }
            }
        }
    }
    if evaluated.iter().filter(|&&e| e).count() != prod.rules().len() {
        return corrupt("a sequence does not EVAL every rule of its production");
    }
    for c in 1..=prod.arity() {
        let ph = prod.phylum_at(c as u16);
        let visits = match child_part[c] {
            Some(part) => seqs.partitions_of(ph)[part].visit_count(),
            None => usize::from(!grammar.phylum(ph).attrs().is_empty()),
        };
        if done[c] != visits {
            return corrupt("a sequence does not visit a child once per visit");
        }
    }
    Ok(())
}

/// The lifetimes and the plan must fit the flattened program `fp` and the
/// grammar's objects: one access step per flattened item, a write and one
/// read path per rule argument at each `EVAL`, one storage class and one
/// temporary flag per object, may-evaluate sets sized for the objects, and
/// every variable and stack id below the plan's counts. Each variable and
/// stack holds some object, so neither count may exceed the objects; the
/// evaluator allocates that many cells up front.
pub(crate) fn space(
    grammar: &Grammar,
    fp: &FlatProgram,
    lifetimes: &Lifetimes,
    plan: &SpacePlan,
) -> Result<(), ArtifactError> {
    let objects = ObjectIndex::new(grammar).len();
    let words = ObjectSet::new(objects).raw_words().len();
    if lifetimes.temporary.len() != objects
        || lifetimes
            .may_eval
            .iter()
            .flatten()
            .flatten()
            .any(|set| set.raw_words().len() != words)
    {
        return corrupt("lifetimes do not cover the grammar's objects");
    }
    let (nv, ns) = (plan.n_variables, plan.n_stacks);
    if plan.storage.len() != objects || nv > objects || ns > objects {
        return corrupt("the storage map does not cover the grammar's objects");
    }
    let stored = plan.storage.iter().all(|s| match *s {
        Storage::Variable(i) => i < nv,
        Storage::Stack(i) => i < ns,
        Storage::Node => true,
    });
    if !stored {
        return corrupt("the storage map names a variable or stack the plan lacks");
    }
    if plan.access.len() != fp.seqs.len() {
        return corrupt("the access tables do not match the flattened sequences");
    }
    for (fs, access) in fp.seqs.iter().zip(&plan.access) {
        if access.steps.len() != fs.items.len() {
            return corrupt("an access table does not match its flattened sequence");
        }
        for (item, step) in fs.items.iter().zip(&access.steps) {
            if let FlatItem::Op {
                instr: Instr::Eval(target),
                ..
            } = item
            {
                let args = match grammar.rule_for(fs.key.0, *target).map(|r| r.body()) {
                    Some(RuleBody::Copy(_)) => 1,
                    Some(RuleBody::Call { args, .. }) => args.len(),
                    None => return corrupt("an EVAL names no rule of its production"),
                };
                if step.write.is_none() || step.args.len() != args {
                    return corrupt("an EVAL step lacks its write or a read path per argument");
                }
            }
            let reads = step.args.iter().all(|r| match *r {
                ReadPath::Variable(i) => i < nv,
                ReadPath::Stack(i, _) => i < ns,
                ReadPath::Immediate | ReadPath::Node => true,
            });
            let writes = match step.write {
                Some(WritePath::Variable(i)) => i < nv,
                Some(WritePath::Stack(i)) => i < ns,
                _ => true,
            };
            if !reads || !writes || step.pops_after.iter().any(|&i| i >= ns) {
                return corrupt("an access step names a variable or stack the plan lacks");
            }
        }
    }
    Ok(())
}
