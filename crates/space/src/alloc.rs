//! Storage assignment: global variables, global stacks, tree nodes.
//!
//! Implements paper §2.2:
//!
//! * **variables** — a temporary object whose instances are never alive
//!   simultaneously (checked per sequence, plus the may-evaluate test on
//!   intervening `VISIT`s) lives in one global variable;
//! * **stacks** — remaining temporaries live on global stacks, with
//!   *accesses below the top at statically-computed depth* and *delayed
//!   pops* (Julié & Parigot's relaxations of Kastens' top-only discipline),
//!   validated by a per-sequence symbolic stack simulation;
//! * **tree nodes** — the last resort (non-temporaries, and objects whose
//!   stack discipline cannot be made consistent across contexts);
//! * **packing** — variables and stacks are grouped greedily, driven by the
//!   number of **copy rules** each grouping eliminates (FNC-2's criterion,
//!   replacing Kastens' mere-feasibility grouping);
//! * **copy-rule elimination** — a copy whose source and target share a
//!   variable becomes a no-op; a copy whose source is on top of the shared
//!   stack and dies at the copy is a top *rename*.

use std::collections::{HashMap, HashSet};

use fnc2_ag::{Grammar, ONode, Occ, ProductionId, RuleBody};
use fnc2_visit::{Instr, VisitSeqs};

use crate::flat::{FlatItem, FlatProgram, InstanceKind};
use crate::lifetime::{interval_hits_visit, Lifetimes};
use crate::object::{Object, ObjectIndex};

/// Final storage location of an object.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Storage {
    /// A global variable (index into the evaluator's variable file).
    Variable(usize),
    /// A global stack (index into the evaluator's stack file).
    Stack(usize),
    /// At the tree node (the unoptimized fallback).
    Node,
}

/// How an `EVAL` argument is fetched at run time.
#[derive(Clone, Debug, PartialEq)]
pub enum ReadPath {
    /// Embedded constant / lexical token: resolved by the rule itself.
    Immediate,
    /// Read global variable `.0`.
    Variable(usize),
    /// Read stack `.0` at depth `.1` below the top.
    Stack(usize, usize),
    /// Read from the tree-node store.
    Node,
}

/// What an `EVAL` does with its result.
#[derive(Clone, Debug, PartialEq)]
pub enum WritePath {
    /// Write global variable `.0`.
    Variable(usize),
    /// Push onto stack `.0`.
    Stack(usize),
    /// Store at the tree node.
    Node,
    /// Eliminated copy into a shared variable: no action.
    SkipVariable,
    /// Eliminated copy on a shared stack: the top value is renamed.
    SkipStackTop,
}

/// Resolved access information for one instruction position.
#[derive(Clone, Debug, Default)]
pub struct StepAccess {
    /// For `EVAL` positions: how to fetch each rule argument.
    pub args: Vec<ReadPath>,
    /// For `EVAL` positions: where the result goes.
    pub write: Option<WritePath>,
    /// Stacks to pop (by id, possibly repeated) after this position.
    pub pops_after: Vec<usize>,
}

/// Per-sequence access table, parallel to the flattened items.
#[derive(Clone, Debug)]
pub struct SeqAccess {
    /// `steps[pos]` describes flattened position `pos`.
    pub steps: Vec<StepAccess>,
}

/// Aggregate statistics — the Table 1 space-optimization block.
#[derive(Clone, Debug, Default)]
pub struct SpaceStats {
    /// Attribute occurrences stored in global variables (static count).
    pub occ_variables: usize,
    /// Attribute occurrences stored on global stacks.
    pub occ_stacks: usize,
    /// Attribute occurrences stored at tree nodes (non-temporaries).
    pub occ_node: usize,
    /// Variable-class objects before packing.
    pub variables_before: usize,
    /// Variables after packing.
    pub variables_after: usize,
    /// Stack-class objects before packing.
    pub stacks_before: usize,
    /// Stacks after packing.
    pub stacks_after: usize,
    /// Total copy rules in the grammar.
    pub copies_total: usize,
    /// Copy rules eliminated.
    pub copies_eliminated: usize,
    /// Copy rules theoretically eliminable (source and target of compatible
    /// class and pairwise groupable).
    pub copies_eliminable: usize,
    /// Fraction of objects that are temporary.
    pub temporary_ratio: f64,
}

impl SpaceStats {
    /// % of occurrences in variables.
    pub fn pct_variables(&self) -> f64 {
        pct(self.occ_variables, self.occ_total())
    }
    /// % of occurrences in stacks.
    pub fn pct_stacks(&self) -> f64 {
        pct(self.occ_stacks, self.occ_total())
    }
    /// % of occurrences at tree nodes.
    pub fn pct_node(&self) -> f64 {
        pct(self.occ_node, self.occ_total())
    }
    /// Total occurrences counted.
    pub fn occ_total(&self) -> usize {
        self.occ_variables + self.occ_stacks + self.occ_node
    }
    /// % of all copy rules eliminated.
    pub fn pct_eliminated_of_copies(&self) -> f64 {
        pct(self.copies_eliminated, self.copies_total)
    }
    /// % of theoretically eliminable copy rules actually eliminated.
    pub fn pct_eliminated_of_possible(&self) -> f64 {
        pct(self.copies_eliminated, self.copies_eliminable)
    }
}

fn pct(a: usize, b: usize) -> f64 {
    if b == 0 {
        0.0
    } else {
        100.0 * a as f64 / b as f64
    }
}

/// The complete space plan: storage map, access tables, statistics.
#[derive(Clone, Debug)]
pub struct SpacePlan {
    /// Storage per object index.
    pub storage: Vec<Storage>,
    /// Number of variables allocated.
    pub n_variables: usize,
    /// Number of stacks allocated.
    pub n_stacks: usize,
    /// Copy rules eliminated, keyed by (production, target).
    pub eliminated: HashSet<(ProductionId, ONode)>,
    /// Access tables per sequence.
    pub access: HashMap<(ProductionId, usize), SeqAccess>,
    /// Statistics.
    pub stats: SpaceStats,
}

impl SpacePlan {
    /// The storage of object `o`.
    pub fn storage_of(&self, objects: &ObjectIndex, o: Object) -> Storage {
        self.storage[objects.index(o)]
    }
}

/// Storage *class* during solving (pre-packing).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Class {
    Variable,
    Stack,
    Node,
}

/// Computes the space plan for a grammar under given visit sequences.
///
/// Every group test (singletons, packing candidates, the final stack
/// simulations and the eliminable-copy statistic) visits only the
/// sequences where some member has an instance, read off a per-object
/// occurrence index. A sequence without a member instance cannot reject a
/// group: the variable test skips it, and its stack simulation is the
/// empty run. [`validate_plan`] deliberately keeps sweeping every
/// sequence: it is the fuzz oracle's independent re-check and the guard
/// behind plan degradation, so this shortcut is re-checked on every plan
/// it validates.
pub fn plan_storage(
    grammar: &Grammar,
    seqs: &VisitSeqs,
    fp: &FlatProgram,
    objects: &ObjectIndex,
    lt: &Lifetimes,
) -> SpacePlan {
    let n = objects.len();
    let occ = occurrence_index(fp, objects);
    // Can `members` share one storage of class `c`? Checked only over the
    // sequences where some member has instances.
    let fits = |c: Class, members: &[usize]| {
        let keys = seqs_of(&occ, members);
        match c {
            Class::Variable => variable_feasible(grammar, fp, lt, objects, members, &keys),
            Class::Stack => {
                StackSim::run(grammar, seqs, fp, objects, members, &HashSet::new(), &keys).is_some()
            }
            Class::Node => false,
        }
    };

    // ---- Phase A: singleton classification -----------------------------
    let mut class = vec![Class::Node; n];
    for (oi, o) in objects.iter() {
        if !lt.temporary[oi] {
            continue;
        }
        // The driver supplies/reads the root's attributes directly; keep
        // them at the node.
        if let Object::Attr(a) = o {
            if grammar.attr(a).phylum() == grammar.root() {
                continue;
            }
        }
        if fits(Class::Variable, &[oi]) {
            class[oi] = Class::Variable;
        } else if fits(Class::Stack, &[oi]) {
            class[oi] = Class::Stack;
        }
    }

    let variables_before = class.iter().filter(|&&c| c == Class::Variable).count();
    let stacks_before = class.iter().filter(|&&c| c == Class::Stack).count();

    // ---- Phase B: copy-driven packing ----------------------------------
    // Groups of same-class objects, merged greedily in order of copy-rule
    // benefit: `root[x]` names x's group, `group[r]` lists group r.
    let mut root: Vec<usize> = (0..n).collect();
    let mut group: Vec<Vec<usize>> = (0..n).map(|x| vec![x]).collect();

    // Candidate pairs: copy rules between same-class objects.
    let mut benefit: HashMap<(usize, usize), usize> = HashMap::new();
    for p in grammar.productions() {
        for rule in grammar.production(p).rules() {
            let Some((src, dst)) = copy_objects(p, rule) else {
                continue;
            };
            let (si, di) = (objects.index(src), objects.index(dst));
            if si == di || class[si] != class[di] || class[si] == Class::Node {
                continue;
            }
            let key = (si.min(di), si.max(di));
            *benefit.entry(key).or_insert(0) += 1;
        }
    }
    let mut candidates: Vec<((usize, usize), usize)> = benefit.into_iter().collect();
    candidates.sort_by_key(|&((a, b), ben)| (std::cmp::Reverse(ben), a, b));

    for ((a, b), _) in candidates {
        let (ra, rb) = (root[a], root[b]);
        if ra == rb {
            continue;
        }
        let members: Vec<usize> = group[ra].iter().chain(&group[rb]).copied().collect();
        if fits(class[a], &members) {
            for x in std::mem::take(&mut group[rb]) {
                root[x] = ra;
            }
            group[ra] = members;
        }
    }

    // ---- Final numbering ------------------------------------------------
    let mut var_ids: HashMap<usize, usize> = HashMap::new();
    let mut stack_ids: HashMap<usize, usize> = HashMap::new();
    let mut storage = vec![Storage::Node; n];
    for oi in 0..n {
        match class[oi] {
            Class::Node => {}
            Class::Variable => {
                let next = var_ids.len();
                let id = *var_ids.entry(root[oi]).or_insert(next);
                storage[oi] = Storage::Variable(id);
            }
            Class::Stack => {
                let next = stack_ids.len();
                let id = *stack_ids.entry(root[oi]).or_insert(next);
                storage[oi] = Storage::Stack(id);
            }
        }
    }

    // ---- Copy elimination ------------------------------------------------
    // Variables: every copy between objects sharing a variable is a no-op
    // (feasibility coalesced their intervals).
    // Stacks: a copy whose source dies at the copy with the source on top
    // becomes a rename; tentative per stack until its final simulation.
    let mut eliminated: HashSet<(ProductionId, ONode)> = HashSet::new();
    let mut stack_elim: Vec<HashSet<(ProductionId, ONode)>> = vec![HashSet::new(); stack_ids.len()];
    for p in grammar.productions() {
        for rule in grammar.production(p).rules() {
            let Some((src, dst)) = copy_objects(p, rule) else {
                continue;
            };
            let (si, di) = (objects.index(src), objects.index(dst));
            match (storage[si], storage[di]) {
                (Storage::Variable(x), Storage::Variable(y)) if x == y => {
                    eliminated.insert((p, rule.target()));
                }
                (Storage::Stack(x), Storage::Stack(y)) if x == y => {
                    stack_elim[x].insert((p, rule.target()));
                }
                _ => {}
            }
        }
    }

    // ---- Final simulation + access tables --------------------------------
    // One simulation per stack, in id order. A stack whose simulation
    // rejects a rename drops its smallest tentative elimination and is
    // simulated again; no other stack is affected, since a simulation
    // reads only its own members and its own eliminations.
    let mut stacks: Vec<Vec<usize>> = vec![Vec::new(); stack_ids.len()];
    for (oi, s) in storage.iter().enumerate() {
        if let Storage::Stack(id) = *s {
            stacks[id].push(oi);
        }
    }
    let mut recs = Vec::with_capacity(stacks.len());
    for (members, mut elim) in stacks.iter().zip(stack_elim) {
        let keys = seqs_of(&occ, members);
        let rec = loop {
            if let Some(rec) = StackSim::run(grammar, seqs, fp, objects, members, &elim, &keys) {
                break rec;
            }
            // Packing checked the group without eliminations, so the
            // rejection is one of them.
            let victim = elim
                .iter()
                .min()
                .copied()
                .expect("rejection implies a tentative elimination");
            elim.remove(&victim);
        };
        eliminated.extend(elim);
        recs.push(rec);
    }
    let access = build_access(grammar, fp, objects, &storage, &eliminated, &recs);

    // ---- Statistics -------------------------------------------------------
    let mut stats = SpaceStats {
        variables_before,
        variables_after: var_ids.len(),
        stacks_before,
        stacks_after: stack_ids.len(),
        copies_total: grammar.copy_rule_count(),
        copies_eliminated: eliminated.len(),
        temporary_ratio: lt.temporary_ratio(),
        ..SpaceStats::default()
    };
    // Occurrence-weighted storage proportions (the paper's static figures).
    for p in grammar.productions() {
        for o in grammar.occurrences(p) {
            match storage[objects.index(Object::Attr(o.attr))] {
                Storage::Variable(_) => stats.occ_variables += 1,
                Storage::Stack(_) => stats.occ_stacks += 1,
                Storage::Node => stats.occ_node += 1,
            }
        }
    }
    // Theoretically eliminable copies: pairwise-groupable same-class pairs.
    for p in grammar.productions() {
        for rule in grammar.production(p).rules() {
            let Some((src, dst)) = copy_objects(p, rule) else {
                continue;
            };
            let (si, di) = (objects.index(src), objects.index(dst));
            if si == di {
                stats.copies_eliminable += 1; // same object: trivially shared
                continue;
            }
            if class[si] == class[di] && fits(class[si], &[si, di]) {
                stats.copies_eliminable += 1;
            }
        }
    }

    SpacePlan {
        storage,
        n_variables: var_ids.len(),
        n_stacks: stack_ids.len(),
        eliminated,
        access,
        stats,
    }
}

/// A flattened sequence's key: (production, LHS partition).
type SeqKey = (ProductionId, usize);

/// The occurrence index: for each object, the sorted keys of the sequences
/// where it has instances.
fn occurrence_index(fp: &FlatProgram, objects: &ObjectIndex) -> Vec<Vec<SeqKey>> {
    let mut occ = vec![Vec::new(); objects.len()];
    for (&key, insts) in &fp.instances {
        for inst in insts {
            occ[objects.index(inst.object)].push(key);
        }
    }
    for keys in &mut occ {
        keys.sort_unstable();
        keys.dedup();
    }
    occ
}

/// The sorted keys of the sequences where any of `members` has instances.
fn seqs_of(occ: &[Vec<SeqKey>], members: &[usize]) -> Vec<SeqKey> {
    let mut keys: Vec<SeqKey> = members
        .iter()
        .flat_map(|&m| occ[m].iter().copied())
        .collect();
    keys.sort_unstable();
    keys.dedup();
    keys
}

/// If `rule` is a copy between occurrences/locals, its (source, target)
/// objects.
fn copy_objects(p: ProductionId, rule: &fnc2_ag::SemRule) -> Option<(Object, Object)> {
    if !rule.is_copy() {
        return None;
    }
    let src = rule.read_nodes().next()?;
    let to_obj = |n: ONode| match n {
        ONode::Attr(o) => Object::Attr(o.attr),
        ONode::Local(l) => Object::Local(p, l),
    };
    Some((to_obj(src), to_obj(rule.target())))
}

// ---------------------------------------------------------------------------
// Variable feasibility
// ---------------------------------------------------------------------------

/// True if the objects `members` can share one global variable: in each
/// sequence of `keys`, the (copy-coalesced) live intervals of their
/// instances are pairwise disjoint, and no interval contains a `VISIT` that
/// may evaluate a member.
fn variable_feasible(
    grammar: &Grammar,
    fp: &FlatProgram,
    lt: &Lifetimes,
    objects: &ObjectIndex,
    members: &[usize],
    keys: &[SeqKey],
) -> bool {
    let member_set: HashSet<usize> = members.iter().copied().collect();
    for &key in keys {
        // Instances of member objects, with their intervals.
        let mine: Vec<&crate::flat::Instance> = fp
            .instances_of(key)
            .iter()
            .filter(|i| member_set.contains(&objects.index(i.object)))
            .collect();
        if mine.is_empty() {
            continue;
        }
        // Coalesce copy-linked instances (the copy target holds the same
        // value, so overlap between source and target is harmless).
        let mut comp: HashMap<ONode, usize> = HashMap::new();
        for (idx, inst) in mine.iter().enumerate() {
            comp.insert(inst.node, idx);
        }
        let mut uf: Vec<usize> = (0..mine.len()).collect();
        fn find(uf: &mut [usize], x: usize) -> usize {
            let mut r = x;
            while uf[r] != r {
                r = uf[r];
            }
            uf[x] = r;
            r
        }
        for rule in grammar.production(key.0).rules() {
            if !rule.is_copy() {
                continue;
            }
            let Some(src) = rule.read_nodes().next() else {
                continue;
            };
            if let (Some(&a), Some(&b)) = (comp.get(&src), comp.get(&rule.target())) {
                let (ra, rb) = (find(&mut uf, a), find(&mut uf, b));
                uf[rb] = ra;
            }
        }
        // Merge intervals per component.
        let mut merged: HashMap<usize, (usize, usize)> = HashMap::new();
        for (idx, inst) in mine.iter().enumerate() {
            let r = find(&mut uf, idx);
            let e = merged.entry(r).or_insert((inst.def_pos, inst.last_use()));
            e.0 = e.0.min(inst.def_pos);
            e.1 = e.1.max(inst.last_use());
        }
        // Pairwise disjoint across components. Touching endpoints are safe:
        // at any single position, reads happen before the write (an `EVAL`
        // reads its arguments first; a `VISIT` handoff is validated by the
        // per-sequence checks of the visited phylum's own productions).
        let ivals: Vec<(usize, usize)> = merged.values().copied().collect();
        for (i, &(d1, u1)) in ivals.iter().enumerate() {
            for &(d2, u2) in &ivals[i + 1..] {
                if d1 < u2 && d2 < u1 {
                    return false;
                }
            }
        }
        // No intervening VISIT may evaluate any member — except the VISITs
        // that *use* the instance: during those the visited subtree sees
        // the instance as its own LHS occurrence and its sequences are
        // checked directly.
        for inst in &mine {
            if interval_hits_visit(
                grammar,
                fp,
                &lt.may_eval,
                key,
                inst.def_pos,
                inst.last_use(),
                members,
                &inst.uses,
            ) {
                return false;
            }
        }
    }
    true
}

// ---------------------------------------------------------------------------
// Stack simulation
// ---------------------------------------------------------------------------

/// What the final simulation records for the runtime.
#[derive(Clone, Debug, Default)]
struct SimRecord {
    /// (position, instance node) → depth below top at that read.
    depths: HashMap<(usize, ONode), usize>,
    /// position → number of pops to execute after it.
    pops: HashMap<usize, usize>,
    /// positions whose Eval became a stack-top rename.
    renames: HashSet<usize>,
}

/// Symbolic per-sequence stack simulation for one group of objects.
struct StackSim;

impl StackSim {
    /// Runs the simulation for `members` over the sequences `keys`; returns
    /// the per-sequence records, or `None` if the group is infeasible.
    /// `eliminate` holds (production, target) copies tentatively turned
    /// into top renames; if a rename is invalid the simulation fails (the
    /// caller retries without it).
    fn run(
        grammar: &Grammar,
        seqs: &VisitSeqs,
        fp: &FlatProgram,
        objects: &ObjectIndex,
        members: &[usize],
        eliminate: &HashSet<(ProductionId, ONode)>,
        keys: &[SeqKey],
    ) -> Option<HashMap<SeqKey, SimRecord>> {
        let member_set: HashSet<usize> = members.iter().copied().collect();
        keys.iter()
            .map(|&key| {
                let rec = Self::run_seq(grammar, seqs, fp, objects, &member_set, eliminate, key)?;
                Some((key, rec))
            })
            .collect()
    }

    fn run_seq(
        grammar: &Grammar,
        seqs: &VisitSeqs,
        fp: &FlatProgram,
        objects: &ObjectIndex,
        members: &HashSet<usize>,
        eliminate: &HashSet<(ProductionId, ONode)>,
        key: SeqKey,
    ) -> Option<SimRecord> {
        let (p, _pi) = key;
        let prod = grammar.production(p);
        let fs = &fp.seqs[&key];
        let insts = fp.instances_of(key);
        let by_node: HashMap<ONode, &crate::flat::Instance> =
            insts.iter().map(|i| (i.node, i)).collect();
        let is_member = |n: ONode| -> bool {
            by_node
                .get(&n)
                .map(|i| members.contains(&objects.index(i.object)))
                .unwrap_or(false)
        };
        // Pop schedule: position → instances whose last use is there (and
        // that this sequence must pop: ChildInh, ChildSyn, Local). Member
        // child-side instances are also bucketed by child position so the
        // VISIT handoff checks don't rescan every instance of a wide
        // production at every visit.
        let mut pops_at: HashMap<usize, Vec<ONode>> = HashMap::new();
        let mut member_child: HashMap<u16, Vec<&crate::flat::Instance>> = HashMap::new();
        for inst in insts {
            if !members.contains(&objects.index(inst.object)) {
                continue;
            }
            if matches!(
                inst.kind,
                InstanceKind::ChildInh | InstanceKind::ChildSyn | InstanceKind::Local
            ) {
                pops_at.entry(inst.last_use()).or_default().push(inst.node);
            }
            if matches!(inst.kind, InstanceKind::ChildInh | InstanceKind::ChildSyn) {
                if let ONode::Attr(o) = inst.node {
                    member_child.entry(o.pos).or_default().push(inst);
                }
            }
        }

        let mut rec = SimRecord::default();
        // The symbolic stack plus a mirror index (node → stack slot) so
        // membership and depth queries stay O(1) on stacks holding one
        // instance per child of a wide production.
        let mut stack: Vec<ONode> = Vec::new();
        let mut in_stack: HashMap<ONode, usize> = HashMap::new();
        let mut pending: HashSet<ONode> = HashSet::new();
        let mut baseline = 0usize;

        // Executes the pops scheduled at `pos` (dead instances), delaying
        // any that are not on top, and draining delayed pops that surface.
        // For EVAL positions this runs between the reads and the push, so
        // dead sources never get trapped under the fresh value.
        let do_pops = |stack: &mut Vec<ONode>,
                       in_stack: &mut HashMap<ONode, usize>,
                       pending: &mut HashSet<ONode>,
                       rec: &mut SimRecord,
                       pops_at: &HashMap<usize, Vec<ONode>>,
                       pos: usize|
         -> bool {
            let drain = |stack: &mut Vec<ONode>,
                         in_stack: &mut HashMap<ONode, usize>,
                         pending: &mut HashSet<ONode>,
                         rec: &mut SimRecord| {
                while let Some(top) = stack.last().copied() {
                    if pending.remove(&top) {
                        stack.pop();
                        in_stack.remove(&top);
                        *rec.pops.entry(pos).or_insert(0) += 1;
                    } else {
                        break;
                    }
                }
            };
            if let Some(nodes) = pops_at.get(&pos) {
                for &node in nodes {
                    if stack.last() == Some(&node) {
                        stack.pop();
                        in_stack.remove(&node);
                        *rec.pops.entry(pos).or_insert(0) += 1;
                        drain(stack, in_stack, pending, rec);
                    } else if in_stack.contains_key(&node) {
                        pending.insert(node); // delayed pop
                    } else {
                        return false;
                    }
                }
            }
            true
        };

        for (pos, item) in fs.items.iter().enumerate() {
            match item {
                FlatItem::Begin(v) => {
                    // Virtual pushes for the LHS inherited of this visit.
                    let mut virt: Vec<ONode> = insts
                        .iter()
                        .filter(|i| {
                            i.kind == InstanceKind::LhsInh
                                && members.contains(&objects.index(i.object))
                                && fs.visit_at(i.def_pos) == *v
                                && i.def_pos == pos
                        })
                        .map(|i| i.node)
                        .collect();
                    if virt.len() > 1 {
                        return None; // ambiguous handoff order
                    }
                    virt.sort();
                    for n in virt {
                        in_stack.insert(n, stack.len());
                        stack.push(n);
                    }
                    baseline = stack.len();
                }
                FlatItem::Leave(v) => {
                    if !pending.is_empty() {
                        return None; // unresolvable delayed pops
                    }
                    // Top region must be exactly this visit's LHS syn.
                    let syn: Vec<ONode> = insts
                        .iter()
                        .filter(|i| {
                            i.kind == InstanceKind::LhsSyn
                                && members.contains(&objects.index(i.object))
                                && fs.visit_at(i.def_pos) == *v
                        })
                        .map(|i| i.node)
                        .collect();
                    if stack.len() != baseline + syn.len() {
                        return None;
                    }
                    // In canonical order, not merely as a set: every caller's
                    // VISIT handoff pushes them sorted and reads them at
                    // their sorted depths.
                    let mut syn = syn;
                    syn.sort();
                    if stack[stack.len() - syn.len()..] != syn[..] {
                        return None;
                    }
                }
                FlatItem::Op { instr, .. } => match instr {
                    Instr::Eval(target) => {
                        let rule = grammar.rule_for(p, *target).expect("rule exists");
                        // Reads first.
                        for read in rule.read_nodes() {
                            if is_member(read) {
                                let at = *in_stack.get(&read)?;
                                rec.depths.insert((pos, read), stack.len() - 1 - at);
                            }
                        }
                        // Rename elimination claims the top before pops.
                        let mut renamed = false;
                        if is_member(*target) && eliminate.contains(&(p, *target)) {
                            // Rename: source must be on top and die here.
                            let src = rule.read_nodes().next().expect("copy has a source");
                            if stack.last() != Some(&src) || !is_member(src) {
                                return None;
                            }
                            let src_inst = by_node[&src];
                            if src_inst.last_use() != pos {
                                return None;
                            }
                            // The source's scheduled pop at `pos` is
                            // superseded by the rename.
                            if let Some(v) = pops_at.get_mut(&pos) {
                                v.retain(|&n| n != src);
                            }
                            *stack.last_mut().expect("nonempty") = *target;
                            in_stack.remove(&src);
                            in_stack.insert(*target, stack.len() - 1);
                            rec.renames.insert(pos);
                            renamed = true;
                        }
                        // Dead sources are popped before the fresh push so
                        // they are not trapped under it.
                        if !do_pops(
                            &mut stack,
                            &mut in_stack,
                            &mut pending,
                            &mut rec,
                            &pops_at,
                            pos,
                        ) {
                            return None;
                        }
                        if is_member(*target) && !renamed {
                            in_stack.insert(*target, stack.len());
                            stack.push(*target);
                        }
                    }
                    Instr::Visit {
                        child,
                        visit,
                        partition,
                    } => {
                        let ph = prod.phylum_at(*child);
                        let part = &seqs.partitions_of(ph)[*partition];
                        let of_child = member_child.get(child).map(Vec::as_slice).unwrap_or(&[]);
                        // Handoff check: this visit's inherited members must
                        // be exactly the topmost items, in canonical order.
                        let mut handoff: Vec<ONode> = of_child
                            .iter()
                            .filter(|i| {
                                i.kind == InstanceKind::ChildInh
                                    && matches!(i.node, ONode::Attr(o)
                                        if part.visit_of(o.attr) == Some(*visit))
                            })
                            .map(|i| i.node)
                            .collect();
                        handoff.sort();
                        if !handoff.is_empty() {
                            if stack.len() < handoff.len() {
                                return None;
                            }
                            if stack[stack.len() - handoff.len()..] != handoff[..] {
                                return None;
                            }
                        }
                        // The child's synthesized members of this visit
                        // materialize on top, in canonical order.
                        let mut syn: Vec<ONode> = of_child
                            .iter()
                            .filter(|i| {
                                i.kind == InstanceKind::ChildSyn
                                    && matches!(i.node, ONode::Attr(o)
                                        if part.visit_of(o.attr) == Some(*visit))
                            })
                            .map(|i| i.node)
                            .collect();
                        syn.sort();
                        for n in syn {
                            in_stack.insert(n, stack.len());
                            stack.push(n);
                        }
                        if !do_pops(
                            &mut stack,
                            &mut in_stack,
                            &mut pending,
                            &mut rec,
                            &pops_at,
                            pos,
                        ) {
                            return None;
                        }
                    }
                },
            }
        }
        Some(rec)
    }
}

// ---------------------------------------------------------------------------
// Final access tables
// ---------------------------------------------------------------------------

/// Builds the runtime access tables from the final storage and each
/// stack's simulation records (`recs[id]`).
fn build_access(
    grammar: &Grammar,
    fp: &FlatProgram,
    objects: &ObjectIndex,
    storage: &[Storage],
    eliminated: &HashSet<(ProductionId, ONode)>,
    recs: &[HashMap<SeqKey, SimRecord>],
) -> HashMap<SeqKey, SeqAccess> {
    let mut access = HashMap::new();
    for (&key, fs) in &fp.seqs {
        let (p, _) = key;
        let mut steps: Vec<StepAccess> = Vec::with_capacity(fs.items.len());
        for (pos, item) in fs.items.iter().enumerate() {
            let mut step = StepAccess::default();
            if let FlatItem::Op {
                instr: Instr::Eval(target),
                ..
            } = item
            {
                let rule = grammar.rule_for(p, *target).expect("rule exists");
                // Argument paths, in rule-argument order.
                let args: Vec<ReadPath> = match rule.body() {
                    RuleBody::Copy(a) => vec![arg_path(objects, storage, recs, key, pos, a)],
                    RuleBody::Call { args, .. } => args
                        .iter()
                        .map(|a| arg_path(objects, storage, recs, key, pos, a))
                        .collect(),
                };
                let tobj = match target {
                    ONode::Attr(o) => Object::Attr(o.attr),
                    ONode::Local(l) => Object::Local(p, *l),
                };
                let write = match storage[objects.index(tobj)] {
                    Storage::Node => WritePath::Node,
                    Storage::Variable(id) => {
                        if eliminated.contains(&(p, *target)) {
                            WritePath::SkipVariable
                        } else {
                            WritePath::Variable(id)
                        }
                    }
                    Storage::Stack(id) => {
                        if recs[id][&key].renames.contains(&pos) {
                            WritePath::SkipStackTop
                        } else {
                            WritePath::Stack(id)
                        }
                    }
                };
                step.args = args;
                step.write = Some(write);
            }
            // Pops scheduled after this position, in stack-id order.
            for (id, per_seq) in recs.iter().enumerate() {
                if let Some(&n) = per_seq.get(&key).and_then(|r| r.pops.get(&pos)) {
                    step.pops_after.extend(std::iter::repeat_n(id, n));
                }
            }
            steps.push(step);
        }
        access.insert(key, SeqAccess { steps });
    }
    access
}

fn arg_path(
    objects: &ObjectIndex,
    storage: &[Storage],
    recs: &[HashMap<SeqKey, SimRecord>],
    key: SeqKey,
    pos: usize,
    arg: &fnc2_ag::Arg,
) -> ReadPath {
    let p = key.0;
    match arg {
        fnc2_ag::Arg::Const(_) | fnc2_ag::Arg::Token => ReadPath::Immediate,
        fnc2_ag::Arg::Node(n) => {
            let obj = match n {
                ONode::Attr(Occ { attr, .. }) => Object::Attr(*attr),
                ONode::Local(l) => Object::Local(p, *l),
            };
            match storage[objects.index(obj)] {
                Storage::Node => ReadPath::Node,
                Storage::Variable(id) => ReadPath::Variable(id),
                Storage::Stack(id) => {
                    let depth = recs[id][&key]
                        .depths
                        .get(&(pos, *n))
                        .copied()
                        .expect("simulation recorded every member read");
                    ReadPath::Stack(id, depth)
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Plan validation
// ---------------------------------------------------------------------------

/// Re-validates a finished [`SpacePlan`] from first principles — the
/// independent oracle used by the differential fuzzer over the space
/// optimizer. Every final variable group must still pass the
/// lifetime-disjointness test, every final stack group must still admit a
/// consistent symbolic stack simulation under the plan's copy eliminations,
/// and every eliminated copy must actually share its storage between source
/// and target.
///
/// The stack re-check reuses the planner's own `StackSim`, so it is not
/// independent of it: a fault in the simulation passes both the planner
/// and this check. The differential comparison of the evaluators' results
/// is what catches such a fault.
///
/// # Errors
///
/// Returns a human-readable description of the first violated property.
pub fn validate_plan(
    grammar: &Grammar,
    seqs: &VisitSeqs,
    fp: &FlatProgram,
    objects: &ObjectIndex,
    lt: &Lifetimes,
    plan: &SpacePlan,
) -> Result<(), String> {
    let mut variables: HashMap<usize, Vec<usize>> = HashMap::new();
    let mut stacks: HashMap<usize, Vec<usize>> = HashMap::new();
    for (oi, s) in plan.storage.iter().enumerate() {
        match s {
            Storage::Variable(id) => variables.entry(*id).or_default().push(oi),
            Storage::Stack(id) => stacks.entry(*id).or_default().push(oi),
            Storage::Node => {}
        }
    }
    if variables.len() != plan.n_variables {
        return Err(format!(
            "plan claims {} variables but the storage map uses {}",
            plan.n_variables,
            variables.len()
        ));
    }
    if stacks.len() != plan.n_stacks {
        return Err(format!(
            "plan claims {} stacks but the storage map uses {}",
            plan.n_stacks,
            stacks.len()
        ));
    }
    // Every sequence, not just the occurrence-indexed ones the planner
    // visits: this is the independent re-check of that shortcut.
    let every: Vec<SeqKey> = fp.seqs.keys().copied().collect();
    let mut var_ids: Vec<usize> = variables.keys().copied().collect();
    var_ids.sort_unstable();
    for id in var_ids {
        if !variable_feasible(grammar, fp, lt, objects, &variables[&id], &every) {
            return Err(format!(
                "variable {id} groups objects with overlapping lifetimes"
            ));
        }
    }
    let mut stack_ids: Vec<usize> = stacks.keys().copied().collect();
    stack_ids.sort_unstable();
    for id in stack_ids {
        let elim: HashSet<(ProductionId, ONode)> = plan
            .eliminated
            .iter()
            .filter(|(p, t)| {
                let obj = match t {
                    ONode::Attr(o) => Object::Attr(o.attr),
                    ONode::Local(l) => Object::Local(*p, *l),
                };
                plan.storage[objects.index(obj)] == Storage::Stack(id)
            })
            .copied()
            .collect();
        if StackSim::run(grammar, seqs, fp, objects, &stacks[&id], &elim, &every).is_none() {
            return Err(format!(
                "stack {id} fails the symbolic simulation under the plan's eliminations"
            ));
        }
    }
    // Every eliminated copy must be a real copy rule whose source and
    // target share a variable or a stack.
    for &(p, target) in &plan.eliminated {
        let prod = grammar.production(p).name();
        let Some(rule) = grammar.rule_for(p, target) else {
            return Err(format!("eliminated copy in `{prod}` names a missing rule"));
        };
        let Some((src, dst)) = copy_objects(p, rule) else {
            return Err(format!(
                "eliminated rule in `{prod}` is not a copy between objects"
            ));
        };
        let (ss, ds) = (
            plan.storage[objects.index(src)],
            plan.storage[objects.index(dst)],
        );
        let shared = matches!(
            (ss, ds),
            (Storage::Variable(x), Storage::Variable(y)) if x == y
        ) || matches!((ss, ds), (Storage::Stack(x), Storage::Stack(y)) if x == y);
        if !shared {
            return Err(format!(
                "eliminated copy in `{prod}` does not share storage ({ss:?} vs {ds:?})"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use fnc2_ag::{Grammar, GrammarBuilder, Occ, Value};
    use fnc2_analysis::{snc_test, snc_to_l_ordered, Inclusion};
    use fnc2_visit::build_visit_seqs;

    use crate::flat::FlatProgram;
    use crate::lifetime::Lifetimes;

    use super::*;

    fn plan_for(g: &Grammar) -> (SpacePlan, ObjectIndex) {
        let snc = snc_test(g);
        let lo = snc_to_l_ordered(g, &snc, Inclusion::Long).unwrap();
        let seqs = build_visit_seqs(g, &lo);
        let fp = FlatProgram::new(g, &seqs);
        let objects = ObjectIndex::new(g);
        let lt = Lifetimes::analyze(g, &seqs, &fp, &objects);
        (plan_storage(g, &seqs, &fp, &objects, &lt), objects)
    }

    /// The threaded `down`/`up` grammar. Each instance dies exactly when
    /// the next one is produced (pure copy threading), so — as the
    /// may-evaluate analysis correctly discovers — a single global
    /// variable per attribute suffices even though the phylum recurses.
    fn two_pass() -> Grammar {
        let mut g = GrammarBuilder::new("two_pass");
        let s = g.phylum("S");
        let a = g.phylum("A");
        let out = g.syn(s, "out");
        let down = g.inh(a, "down");
        let up = g.syn(a, "up");
        let root = g.production("root", s, &[a]);
        g.copy(root, Occ::lhs(out), Occ::new(1, up));
        g.constant(root, Occ::new(1, down), Value::Int(0));
        let mid = g.production("mid", a, &[a]);
        g.copy(mid, Occ::new(1, down), Occ::lhs(down));
        g.copy(mid, Occ::lhs(up), Occ::new(1, up));
        let leaf = g.production("leaf", a, &[]);
        g.copy(leaf, Occ::lhs(up), Occ::lhs(down));
        g.finish().unwrap()
    }

    #[test]
    fn threaded_copies_fit_variables() {
        let g = two_pass();
        let (plan, objects) = plan_for(&g);
        let a = g.phylum_by_name("A").unwrap();
        let down = g.attr_by_name(a, "down").unwrap();
        let up = g.attr_by_name(a, "up").unwrap();
        assert!(matches!(
            plan.storage_of(&objects, Object::Attr(down)),
            Storage::Variable(_)
        ));
        assert!(matches!(
            plan.storage_of(&objects, Object::Attr(up)),
            Storage::Variable(_)
        ));
        // S.out belongs to the root phylum: forced to the node.
        let s = g.phylum_by_name("S").unwrap();
        let out = g.attr_by_name(s, "out").unwrap();
        assert_eq!(plan.storage_of(&objects, Object::Attr(out)), Storage::Node);
        assert!(plan.stats.occ_variables > 0);
    }

    /// `scale` in Knuth's binary grammar stays live across the visit to the
    /// left subsequence, which evaluates deeper `scale` instances: not a
    /// variable, but exactly a stack.
    fn binaryish() -> Grammar {
        let mut g = GrammarBuilder::new("binaryish");
        let number = g.phylum("Number");
        let seq = g.phylum("Seq");
        let n_value = g.syn(number, "value");
        let s_value = g.syn(seq, "value");
        let s_scale = g.inh(seq, "scale");
        g.func("succ", 1, |v| Value::Int(v[0].as_int() + 1));
        g.func("add", 2, |v| Value::Int(v[0].as_int() + v[1].as_int()));
        let number_p = g.production("number", number, &[seq]);
        g.copy(number_p, Occ::lhs(n_value), Occ::new(1, s_value));
        g.constant(number_p, Occ::new(1, s_scale), Value::Int(0));
        // pair : Seq ::= Seq, with scale := succ(scale) and value summed
        // with the own scale read *after* the recursive visit.
        let pair = g.production("pair", seq, &[seq]);
        g.call(
            pair,
            Occ::new(1, s_scale),
            "succ",
            [Occ::lhs(s_scale).into()],
        );
        g.call(
            pair,
            Occ::lhs(s_value),
            "add",
            [Occ::new(1, s_value).into(), Occ::lhs(s_scale).into()],
        );
        let single = g.production("single", seq, &[]);
        g.copy(single, Occ::lhs(s_value), Occ::lhs(s_scale));
        g.finish().unwrap()
    }

    #[test]
    fn live_across_recursive_visit_goes_to_stack() {
        let g = binaryish();
        let (plan, objects) = plan_for(&g);
        let seq = g.phylum_by_name("Seq").unwrap();
        let scale = g.attr_by_name(seq, "scale").unwrap();
        assert!(
            matches!(
                plan.storage_of(&objects, Object::Attr(scale)),
                Storage::Stack(_)
            ),
            "scale stored as {:?}",
            plan.storage_of(&objects, Object::Attr(scale))
        );
        assert!(plan.n_stacks >= 1);
        assert!(plan.stats.occ_stacks > 0);
    }

    /// A non-recursive pipeline: each attribute has at most one live
    /// instance at a time — variables.
    #[test]
    fn flat_grammar_uses_variables() {
        let mut g = GrammarBuilder::new("flat");
        let s = g.phylum("S");
        let b = g.phylum("B");
        let out = g.syn(s, "out");
        let bi = g.inh(b, "i");
        let bs = g.syn(b, "s");
        let root = g.production("root", s, &[b]);
        g.constant(root, Occ::new(1, bi), Value::Int(1));
        g.copy(root, Occ::lhs(out), Occ::new(1, bs));
        let leafb = g.production("leafb", b, &[]);
        g.copy(leafb, Occ::lhs(bs), Occ::lhs(bi));
        let g = g.finish().unwrap();
        let (plan, objects) = plan_for(&g);
        let b = g.phylum_by_name("B").unwrap();
        let bi = g.attr_by_name(b, "i").unwrap();
        let bs = g.attr_by_name(b, "s").unwrap();
        assert!(matches!(
            plan.storage_of(&objects, Object::Attr(bi)),
            Storage::Variable(_)
        ));
        assert!(matches!(
            plan.storage_of(&objects, Object::Attr(bs)),
            Storage::Variable(_)
        ));
        // The two copies (out:=bs is root-phylum targeted, not counted;
        // bs:=bi links two variables) drive grouping: bi and bs share one
        // variable and the copy is eliminated.
        assert_eq!(
            plan.storage_of(&objects, Object::Attr(bi)),
            plan.storage_of(&objects, Object::Attr(bs))
        );
        let leafb = g.production_by_name("leafb").unwrap();
        assert!(plan
            .eliminated
            .contains(&(leafb, ONode::Attr(Occ::lhs(bs)))));
        assert!(plan.stats.copies_eliminated >= 1);
    }

    #[test]
    fn variable_copy_elimination_on_thread() {
        let g = two_pass();
        let (plan, objects) = plan_for(&g);
        // down and up are variables; the copy chains collapse into shared
        // variables and the copies are eliminated.
        let mid = g.production_by_name("mid").unwrap();
        let a = g.phylum_by_name("A").unwrap();
        let up = g.attr_by_name(a, "up").unwrap();
        let down = g.attr_by_name(a, "down").unwrap();
        assert!(
            plan.eliminated.contains(&(mid, ONode::Attr(Occ::lhs(up)))),
            "eliminated: {:?}",
            plan.eliminated
        );
        assert!(plan
            .eliminated
            .contains(&(mid, ONode::Attr(Occ::new(1, down)))));
        let _ = objects;
    }

    /// Stack-top rename elimination: `up` is forced onto a stack by a
    /// two-child production; `wrap`'s copy `lhs.up := child.up` is the
    /// source's last use with the source on top.
    #[test]
    fn stack_rename_elimination() {
        let mut g = GrammarBuilder::new("fork");
        let s = g.phylum("S");
        let a = g.phylum("A");
        let out = g.syn(s, "out");
        let up = g.syn(a, "up");
        g.func("add", 2, |v| Value::Int(v[0].as_int() + v[1].as_int()));
        let root = g.production("root", s, &[a]);
        g.copy(root, Occ::lhs(out), Occ::new(1, up));
        let fork = g.production("fork", a, &[a, a]);
        g.call(
            fork,
            Occ::lhs(up),
            "add",
            [Occ::new(1, up).into(), Occ::new(2, up).into()],
        );
        let wrap = g.production("wrap", a, &[a]);
        g.copy(wrap, Occ::lhs(up), Occ::new(1, up));
        let leafa = g.production("leafa", a, &[]);
        g.constant(leafa, Occ::lhs(up), Value::Int(1));
        let g = g.finish().unwrap();
        let (plan, objects) = plan_for(&g);
        assert!(
            matches!(
                plan.storage_of(&objects, Object::Attr(up)),
                Storage::Stack(_)
            ),
            "up stored as {:?}",
            plan.storage_of(&objects, Object::Attr(up))
        );
        assert!(
            plan.eliminated.contains(&(wrap, ONode::Attr(Occ::lhs(up)))),
            "eliminated: {:?}",
            plan.eliminated
        );
    }

    #[test]
    fn stats_are_consistent() {
        let g = two_pass();
        let (plan, _) = plan_for(&g);
        let st = &plan.stats;
        assert_eq!(
            st.occ_total(),
            g.productions()
                .map(|p| g.occurrences(p).len())
                .sum::<usize>()
        );
        assert!(st.copies_eliminated <= st.copies_eliminable);
        assert!(st.copies_eliminable <= st.copies_total);
        assert!(st.variables_after <= st.variables_before.max(1));
        assert!(st.stacks_after <= st.stacks_before.max(1));
        assert!(st.temporary_ratio > 0.0);
    }
}
