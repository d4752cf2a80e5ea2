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

use std::collections::BTreeMap;

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
    /// Copy rules eliminated, as (production, target), sorted.
    pub eliminated: Vec<(ProductionId, ONode)>,
    /// Access tables per sequence, `access[k]` for sequence `k` of the
    /// flattened program.
    pub access: Vec<SeqAccess>,
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
///
/// Sequences are named by their number in `fp` and occurrences by their
/// number in their production ([`fnc2_ag::Production::nodes`]), so every
/// table of the planner is a vector or a sorted list.
pub fn plan_storage(
    grammar: &Grammar,
    seqs: &VisitSeqs,
    fp: &FlatProgram,
    objects: &ObjectIndex,
    lt: &Lifetimes,
) -> SpacePlan {
    let n = objects.len();
    let occ = occurrence_index(fp, objects);
    let copies = copy_numbers(grammar);
    // Can `members` share one storage of class `c`? Checked only over the
    // sequences where some member has instances, on buffers kept across
    // the calls.
    let (mut sorted, mut found) = (Vec::new(), Vec::new());
    let (mut scratch, mut sim) = (VarScratch::default(), SimScratch::default());
    let mut fits = |c: Class, members: &[usize]| {
        sorted.clear();
        sorted.extend_from_slice(members);
        sorted.sort_unstable();
        found.clear();
        for &m in members {
            found.extend_from_slice(&occ[m]);
        }
        found.sort_unstable();
        match c {
            Class::Variable => {
                variable_feasible(grammar, fp, lt, &copies, &sorted, &found, &mut scratch)
            }
            Class::Stack => {
                let mut seqs_of = found.chunk_by(|a, b| a.0 == b.0).map(|mine| mine[0].0);
                seqs_of.all(|k| {
                    StackSim::run_seq(grammar, seqs, fp, objects, &sorted, &[], k, &mut sim)
                })
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

    // Candidate pairs: copy rules between same-class objects, each pair
    // with the number of copies between its two objects.
    // (Copies within one object are trivially shared.)
    let mut pairs: Vec<(usize, usize)> = Vec::new();
    let mut same_object = 0;
    for p in grammar.productions() {
        for rule in grammar.production(p).rules() {
            let Some((src, dst)) = copy_objects(p, rule) else {
                continue;
            };
            let (si, di) = (objects.index(src), objects.index(dst));
            if si == di {
                same_object += 1;
            } else if class[si] == class[di] && class[si] != Class::Node {
                pairs.push((si.min(di), si.max(di)));
            }
        }
    }
    pairs.sort_unstable();
    let mut candidates: Vec<((usize, usize), usize)> = Vec::new();
    for pair in pairs {
        match candidates.last_mut() {
            Some((last, benefit)) if *last == pair => *benefit += 1,
            _ => candidates.push((pair, 1)),
        }
    }
    candidates.sort_by_key(|&((a, b), ben)| (std::cmp::Reverse(ben), a, b));

    for &((a, b), _) in &candidates {
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
    // Ids in order of each group's first object: `var_id[r]` and
    // `stack_id[r]` are group r's, once given.
    let mut var_id = vec![NONE; n];
    let mut stack_id = vec![NONE; n];
    let (mut n_variables, mut n_stacks) = (0, 0);
    let mut storage = vec![Storage::Node; n];
    for oi in 0..n {
        let (ids, count) = match class[oi] {
            Class::Node => continue,
            Class::Variable => (&mut var_id, &mut n_variables),
            Class::Stack => (&mut stack_id, &mut n_stacks),
        };
        let id = &mut ids[root[oi]];
        if *id == NONE {
            *id = *count;
            *count += 1;
        }
        storage[oi] = match class[oi] {
            Class::Variable => Storage::Variable(*id),
            _ => Storage::Stack(*id),
        };
    }

    // ---- Copy elimination ------------------------------------------------
    // Variables: every copy between objects sharing a variable is a no-op
    // (feasibility coalesced their intervals).
    // Stacks: a copy whose source dies at the copy with the source on top
    // becomes a rename; tentative per stack until its final simulation.
    // A copy is named by (production, target number).
    let mut eliminated: Vec<(ProductionId, usize)> = Vec::new();
    let mut stack_elim: Vec<Vec<(ProductionId, usize)>> = vec![Vec::new(); n_stacks];
    for p in grammar.productions() {
        for rule in grammar.production(p).rules() {
            let Some((src, dst)) = copy_objects(p, rule) else {
                continue;
            };
            let (si, di) = (objects.index(src), objects.index(dst));
            let copy = (p, node_number(grammar, p, rule.target()));
            match (storage[si], storage[di]) {
                (Storage::Variable(x), Storage::Variable(y)) if x == y => eliminated.push(copy),
                (Storage::Stack(x), Storage::Stack(y)) if x == y => stack_elim[x].push(copy),
                _ => {}
            }
        }
    }

    // ---- Final simulation + access tables --------------------------------
    // One simulation per stack, in id order. A stack whose simulation
    // rejects a rename drops its smallest tentative elimination and is
    // simulated again; no other stack is affected, since a simulation
    // reads only its own members and its own eliminations.
    let mut stacks: Vec<Vec<usize>> = vec![Vec::new(); n_stacks];
    for (oi, s) in storage.iter().enumerate() {
        if let Storage::Stack(id) = *s {
            stacks[id].push(oi);
        }
    }
    let mut recs = Vec::with_capacity(stacks.len());
    let mut sim = SimScratch::default();
    for (members, mut elim) in stacks.iter().zip(stack_elim) {
        elim.sort_unstable();
        let mut keys: Vec<usize> = members.iter().flat_map(|&m| &occ[m]).map(|e| e.0).collect();
        keys.sort_unstable();
        keys.dedup();
        let rec = loop {
            let run = StackSim::run(grammar, seqs, fp, objects, members, &elim, &keys, &mut sim);
            if let Some(rec) = run {
                break rec;
            }
            // Packing checked the group without eliminations, so the
            // rejection is one of them.
            assert!(
                !elim.is_empty(),
                "rejection implies a tentative elimination"
            );
            elim.remove(0);
        };
        eliminated.extend(elim);
        recs.push(rec);
    }
    eliminated.sort_unstable();
    let access = build_access(grammar, fp, objects, &storage, &eliminated, &recs);

    // ---- Statistics -------------------------------------------------------
    let mut stats = SpaceStats {
        variables_before,
        variables_after: n_variables,
        stacks_before,
        stacks_after: n_stacks,
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
    // Theoretically eliminable copies: those within one object, and those
    // of each pairwise-groupable same-class pair, tested once per pair.
    stats.copies_eliminable = same_object
        + (candidates.iter())
            .filter(|&&((a, b), _)| fits(class[a], &[a, b]))
            .map(|&(_, copies)| copies)
            .sum::<usize>();

    let mut eliminated: Vec<_> = (eliminated.into_iter())
        .map(|(p, t)| (p, grammar.production(p).nodes()[t]))
        .collect();
    eliminated.sort_unstable();
    SpacePlan {
        storage,
        n_variables,
        n_stacks,
        eliminated,
        access,
        stats,
    }
}

/// Marks an unset entry of a dense table.
const NONE: usize = usize::MAX;

/// The number of `node` in production `p`.
fn node_number(grammar: &Grammar, p: ProductionId, node: ONode) -> usize {
    grammar
        .node_index(p, node)
        .expect("a node of the production")
}

/// The occurrence index: for each object, its instances as sorted
/// (sequence number, instance number) pairs.
fn occurrence_index(fp: &FlatProgram, objects: &ObjectIndex) -> Vec<Vec<(usize, usize)>> {
    let mut occ: Vec<Vec<(usize, usize)>> = vec![Vec::new(); objects.len()];
    for (k, insts) in fp.instances.iter().enumerate() {
        for (i, inst) in insts.iter().enumerate() {
            occ[objects.index(inst.object)].push((k, i));
        }
    }
    occ
}

/// Each production's copy rules, as (source, target) node numbers.
fn copy_numbers(grammar: &Grammar) -> Vec<Vec<(usize, usize)>> {
    let number = |p, rule: &fnc2_ag::SemRule| {
        let src = rule.read_nodes().next().filter(|_| rule.is_copy())?;
        Some((
            node_number(grammar, p, src),
            node_number(grammar, p, rule.target()),
        ))
    };
    let copies = |p| {
        grammar
            .production(p)
            .rules()
            .iter()
            .filter_map(move |r| number(p, r))
    };
    grammar.productions().map(|p| copies(p).collect()).collect()
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

/// The buffers of [`variable_feasible`], kept across its calls.
#[derive(Default)]
struct VarScratch {
    /// By instance number: its place among the member instances, or
    /// [`NONE`].
    place: Vec<usize>,
    uf: Vec<usize>,
    merged: Vec<(usize, usize)>,
    ivals: Vec<(usize, usize)>,
}

/// True if the objects `members` (sorted) can share one global variable:
/// in each sequence where `found`, the members' instances as sorted
/// (sequence, instance) pairs, lists some, the (copy-coalesced) live
/// intervals of those instances are pairwise disjoint, and no interval
/// contains a `VISIT` that may evaluate a member. `copies` lists each
/// production's copy rules by node number.
fn variable_feasible(
    grammar: &Grammar,
    fp: &FlatProgram,
    lt: &Lifetimes,
    copies: &[Vec<(usize, usize)>],
    members: &[usize],
    found: &[(usize, usize)],
    s: &mut VarScratch,
) -> bool {
    fn find(uf: &mut [usize], x: usize) -> usize {
        let mut r = x;
        while uf[r] != r {
            r = uf[r];
        }
        uf[x] = r;
        r
    }
    for mine in found.chunk_by(|a, b| a.0 == b.0) {
        let k = mine[0].0;
        let insts = &fp.instances[k];
        s.place.clear();
        s.place.resize(insts.len(), NONE);
        for (at, &(_, i)) in mine.iter().enumerate() {
            s.place[i] = at;
        }
        // Coalesce copy-linked instances (the copy target holds the same
        // value, so overlap between source and target is harmless).
        s.uf.clear();
        s.uf.extend(0..mine.len());
        for &(src, dst) in &copies[fp.seqs[k].key.0.index()] {
            let (a, b) = (s.place[src], s.place[dst]);
            if a != NONE && b != NONE {
                let (ra, rb) = (find(&mut s.uf, a), find(&mut s.uf, b));
                s.uf[rb] = ra;
            }
        }
        // Merge intervals per component.
        s.merged.clear();
        s.merged.resize(mine.len(), (NONE, 0));
        for (at, &(_, i)) in mine.iter().enumerate() {
            let e = &mut s.merged[find(&mut s.uf, at)];
            e.0 = e.0.min(insts[i].def_pos);
            e.1 = e.1.max(insts[i].last_use());
        }
        // Pairwise disjoint across components: `(d1, u1)` and `(d2, u2)`
        // overlap when `d1 < u2 && d2 < u1`. Touching endpoints are safe:
        // at any single position, reads happen before the write (an `EVAL`
        // reads its arguments first; a `VISIT` handoff is validated by the
        // per-sequence checks of the visited phylum's own productions).
        // Sorted by start, an interval overlaps an earlier one exactly when
        // it starts before the latest end so far (an interval never ends
        // before it starts).
        s.ivals.clear();
        s.ivals.extend(s.merged.iter().filter(|e| e.0 != NONE));
        s.ivals.sort_unstable();
        let mut end = 0;
        for &(d, u) in &s.ivals {
            debug_assert!(d <= u, "an interval ends after it starts");
            if d < end {
                return false;
            }
            end = end.max(u);
        }
        // No intervening VISIT may evaluate any member — except the VISITs
        // that *use* the instance: during those the visited subtree sees
        // the instance as its own LHS occurrence and its sequences are
        // checked directly.
        for &(_, i) in mine {
            let inst = &insts[i];
            if interval_hits_visit(
                grammar,
                fp,
                lt,
                k,
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

/// What the final simulation of one sequence records for the runtime; each
/// list is sorted, by position first.
#[derive(Clone, Debug, Default)]
struct SimRecord {
    /// `(position, instance, depth)`: the `EVAL` at `position` reads member
    /// `instance` at `depth` below the top.
    depths: Vec<(usize, usize, usize)>,
    /// `(position, n)`: `n` pops to execute after `position`.
    pops: Vec<(usize, usize)>,
    /// Positions whose `EVAL` became a stack-top rename.
    renames: Vec<usize>,
}

impl SimRecord {
    /// The depth at which the `EVAL` at `pos` reads `inst`.
    fn depth(&self, pos: usize, inst: usize) -> Option<usize> {
        let at = self
            .depths
            .partition_point(|&(at, i, _)| (at, i) < (pos, inst));
        let read = self
            .depths
            .get(at)
            .filter(|&&(at, i, _)| (at, i) == (pos, inst));
        read.map(|&(_, _, depth)| depth)
    }

    /// The number of pops after `pos`.
    fn pops_after(&self, pos: usize) -> usize {
        self.pops
            .binary_search_by_key(&pos, |&(at, _)| at)
            .map_or(0, |i| self.pops[i].1)
    }

    /// Counts one pop after `pos`, the latest position so far.
    fn pop(&mut self, pos: usize) {
        match self.pops.last_mut() {
            Some((at, n)) if *at == pos => *n += 1,
            _ => self.pops.push((pos, 1)),
        }
    }
}

/// The state of one sequence's simulation: the symbolic stack of instance
/// numbers, each instance's slot on it (so membership and depth queries
/// stay O(1) on stacks holding one instance per child of a wide
/// production), and the delayed pops. The buffers are a [`SimScratch`]'s.
struct SimState<'s> {
    stack: &'s mut Vec<usize>,
    /// `slot[i]`: where instance `i` sits on the stack, or [`NONE`].
    slot: &'s mut Vec<usize>,
    /// `pending[i]`: instance `i` is dead and waits to surface.
    pending: &'s mut Vec<bool>,
    n_pending: usize,
    /// The next entry of the pop schedule.
    next_pop: usize,
    rec: &'s mut SimRecord,
}

/// The buffers of [`StackSim`]'s runs, kept across them; `rec` holds the
/// last simulated sequence's record.
#[derive(Default)]
struct SimScratch {
    member: Vec<bool>,
    schedule: Vec<(usize, usize)>,
    stack: Vec<usize>,
    slot: Vec<usize>,
    pending: Vec<bool>,
    group: Vec<usize>,
    rec: SimRecord,
}

impl SimState<'_> {
    fn push(&mut self, i: usize) {
        self.slot[i] = self.stack.len();
        self.stack.push(i);
    }

    fn pop(&mut self, pos: usize) {
        let i = self.stack.pop().expect("nonempty");
        self.slot[i] = NONE;
        self.rec.pop(pos);
    }

    /// Executes the pops scheduled at `pos` (dead instances), delaying any
    /// that are not on top, and draining delayed pops that surface; false
    /// if a scheduled instance is not on the stack. For `EVAL` positions
    /// this runs between the reads and the push, so dead sources never get
    /// trapped under the fresh value. `schedule` lists `(position,
    /// instance)` in order; a superseded entry carries [`NONE`].
    fn do_pops(&mut self, schedule: &[(usize, usize)], pos: usize) -> bool {
        while schedule.get(self.next_pop).is_some_and(|&(at, _)| at < pos) {
            self.next_pop += 1;
        }
        while let Some(&(at, i)) = schedule.get(self.next_pop) {
            if at != pos {
                break;
            }
            self.next_pop += 1;
            if i == NONE {
                continue;
            }
            if self.stack.last() == Some(&i) {
                self.pop(pos);
                while let Some(&top) = self.stack.last() {
                    if !self.pending[top] {
                        break;
                    }
                    self.pending[top] = false;
                    self.n_pending -= 1;
                    self.pop(pos);
                }
            } else if self.slot[i] != NONE {
                self.pending[i] = true; // delayed pop
                self.n_pending += 1;
            } else {
                return false;
            }
        }
        true
    }
}

/// Symbolic per-sequence stack simulation for one group of objects.
struct StackSim;

impl StackSim {
    /// Runs the simulation for `members` (sorted) over the sequences
    /// numbered in `keys`; returns each sequence's record, or `None` if the
    /// group is infeasible. `eliminate` holds the copies, as sorted
    /// (production, target number) pairs, tentatively turned into top
    /// renames; if a rename is invalid the simulation fails (the caller
    /// retries without it).
    #[allow(clippy::too_many_arguments)]
    fn run(
        grammar: &Grammar,
        seqs: &VisitSeqs,
        fp: &FlatProgram,
        objects: &ObjectIndex,
        members: &[usize],
        eliminate: &[(ProductionId, usize)],
        keys: &[usize],
        scratch: &mut SimScratch,
    ) -> Option<Vec<(usize, SimRecord)>> {
        keys.iter()
            .map(|&k| {
                Self::run_seq(grammar, seqs, fp, objects, members, eliminate, k, scratch).then(
                    || {
                        scratch.rec.depths.sort_unstable();
                        (k, std::mem::take(&mut scratch.rec))
                    },
                )
            })
            .collect()
    }

    /// Simulates sequence `k` into `scratch.rec`; false if the group is
    /// infeasible there.
    #[allow(clippy::too_many_arguments)]
    fn run_seq(
        grammar: &Grammar,
        seqs: &VisitSeqs,
        fp: &FlatProgram,
        objects: &ObjectIndex,
        members: &[usize],
        eliminate: &[(ProductionId, usize)],
        k: usize,
        scratch: &mut SimScratch,
    ) -> bool {
        let fs = &fp.seqs[k];
        let p = fs.key.0;
        let prod = grammar.production(p);
        let insts = &fp.instances[k];
        let s = scratch;
        // s.member[i]: instance i belongs to the s.group.
        s.member.clear();
        s.member.extend(
            insts
                .iter()
                .map(|i| members.binary_search(&objects.index(i.object)).is_ok()),
        );
        // The LHS occurrences are the first instances.
        let lhs = 0..prod.occ_base(1);
        // Pop schedule: (position, instance) for the member instances whose
        // last use is there and that this sequence must pop (ChildInh,
        // ChildSyn, Local), by position and then instance.
        s.schedule.clear();
        s.schedule.extend(
            insts
                .iter()
                .enumerate()
                .filter(|&(i, inst)| {
                    s.member[i]
                        && matches!(
                            inst.kind,
                            InstanceKind::ChildInh | InstanceKind::ChildSyn | InstanceKind::Local
                        )
                })
                .map(|(i, inst)| (inst.last_use(), i)),
        );
        s.schedule.sort_unstable();

        s.stack.clear();
        s.slot.clear();
        s.slot.resize(insts.len(), NONE);
        s.pending.clear();
        s.pending.resize(insts.len(), false);
        s.rec.depths.clear();
        s.rec.pops.clear();
        s.rec.renames.clear();
        let mut sim = SimState {
            stack: &mut s.stack,
            slot: &mut s.slot,
            pending: &mut s.pending,
            n_pending: 0,
            next_pop: 0,
            rec: &mut s.rec,
        };
        let mut baseline = 0usize;

        for (pos, item) in fs.items.iter().enumerate() {
            match item {
                FlatItem::Begin(v) => {
                    // Virtual pushes for the LHS inherited of this visit.
                    s.group.clear();
                    s.group.extend(lhs.clone().filter(|&i| {
                        let inst = &insts[i];
                        inst.kind == InstanceKind::LhsInh
                            && s.member[i]
                            && fs.visit_at(inst.def_pos) == *v
                            && inst.def_pos == pos
                    }));
                    if s.group.len() > 1 {
                        return false; // ambiguous handoff order
                    }
                    for &i in s.group.iter() {
                        sim.push(i);
                    }
                    baseline = sim.stack.len();
                }
                FlatItem::Leave(v) => {
                    if sim.n_pending != 0 {
                        return false; // unresolvable delayed pops
                    }
                    // Top region must be exactly this visit's LHS syn, in
                    // canonical (number) order, not merely as a set: every
                    // caller's VISIT handoff pushes them sorted and reads
                    // them at their sorted depths.
                    s.group.clear();
                    s.group.extend(lhs.clone().filter(|&i| {
                        let inst = &insts[i];
                        inst.kind == InstanceKind::LhsSyn
                            && s.member[i]
                            && fs.visit_at(inst.def_pos) == *v
                    }));
                    if sim.stack.len() != baseline + s.group.len() {
                        return false;
                    }
                    if sim.stack[sim.stack.len() - s.group.len()..] != s.group[..] {
                        return false;
                    }
                }
                FlatItem::Op { instr, .. } => match instr {
                    Instr::Eval(target) => {
                        let t = node_number(grammar, p, *target);
                        let rule = prod.rule_at(t).expect("rule exists");
                        // Reads first.
                        for read in rule.read_nodes() {
                            let r = node_number(grammar, p, read);
                            if s.member[r] {
                                let at = sim.slot[r];
                                if at == NONE {
                                    return false;
                                }
                                let depth = sim.stack.len() - 1 - at;
                                sim.rec.depths.push((pos, r, depth));
                            }
                        }
                        // Rename elimination claims the top before pops.
                        let mut renamed = false;
                        if s.member[t] && eliminate.binary_search(&(p, t)).is_ok() {
                            // Rename: source must be on top and die here.
                            let src = rule.read_nodes().next().expect("copy has a source");
                            let src = node_number(grammar, p, src);
                            if sim.stack.last() != Some(&src) || !s.member[src] {
                                return false;
                            }
                            if insts[src].last_use() != pos {
                                return false;
                            }
                            // The source's scheduled pop at `pos` is
                            // superseded by the rename.
                            if let Ok(e) = s.schedule.binary_search(&(pos, src)) {
                                s.schedule[e].1 = NONE;
                            }
                            let top = sim.stack.len() - 1;
                            sim.stack[top] = t;
                            sim.slot[src] = NONE;
                            sim.slot[t] = top;
                            sim.rec.renames.push(pos);
                            renamed = true;
                        }
                        // Dead sources are popped before the fresh push so
                        // they are not trapped under it.
                        if !sim.do_pops(&s.schedule, pos) {
                            return false;
                        }
                        if s.member[t] && !renamed {
                            sim.push(t);
                        }
                    }
                    Instr::Visit {
                        child,
                        visit,
                        partition,
                    } => {
                        let ph = prod.phylum_at(*child);
                        let part = &seqs.partitions_of(ph)[*partition];
                        // The child's member instances of this visit of a
                        // kind, in canonical (number) order.
                        let member = &s.member;
                        let of_child = |kind: InstanceKind| {
                            (prod.occ_base(*child)..prod.occ_base(*child + 1)).filter(move |&i| {
                                member[i]
                                    && insts[i].kind == kind
                                    && matches!(insts[i].node, ONode::Attr(o)
                                        if part.visit_of(o.attr) == Some(*visit))
                            })
                        };
                        // Handoff check: this visit's inherited members must
                        // be exactly the topmost items, in canonical order.
                        s.group.clear();
                        s.group.extend(of_child(InstanceKind::ChildInh));
                        if !s.group.is_empty() {
                            if sim.stack.len() < s.group.len() {
                                return false;
                            }
                            if sim.stack[sim.stack.len() - s.group.len()..] != s.group[..] {
                                return false;
                            }
                        }
                        // The child's synthesized members of this visit
                        // materialize on top, in canonical order.
                        for i in of_child(InstanceKind::ChildSyn) {
                            sim.push(i);
                        }
                        if !sim.do_pops(&s.schedule, pos) {
                            return false;
                        }
                    }
                },
            }
        }
        true
    }
}

// ---------------------------------------------------------------------------
// Final access tables
// ---------------------------------------------------------------------------

/// The record of stack `id` among one sequence's records (sorted by id).
fn record_of<'r>(recs: &[(usize, &'r SimRecord)], id: usize) -> &'r SimRecord {
    let i = recs
        .binary_search_by_key(&id, |&(s, _)| s)
        .expect("a stack is simulated on every sequence of its members");
    recs[i].1
}

/// Builds the runtime access tables from the final storage, the sorted
/// eliminated copies and each stack's simulation records (`recs[id]`).
fn build_access(
    grammar: &Grammar,
    fp: &FlatProgram,
    objects: &ObjectIndex,
    storage: &[Storage],
    eliminated: &[(ProductionId, usize)],
    recs: &[Vec<(usize, SimRecord)>],
) -> Vec<SeqAccess> {
    // Each sequence's records, by stack id.
    let mut by_seq: Vec<Vec<(usize, &SimRecord)>> = vec![Vec::new(); fp.seqs.len()];
    for (id, per_seq) in recs.iter().enumerate() {
        for (k, rec) in per_seq {
            by_seq[*k].push((id, rec));
        }
    }
    let mut access = Vec::with_capacity(fp.seqs.len());
    for (fs, recs) in fp.seqs.iter().zip(&by_seq) {
        let p = fs.key.0;
        let prod = grammar.production(p);
        let mut steps: Vec<StepAccess> = Vec::with_capacity(fs.items.len());
        for (pos, item) in fs.items.iter().enumerate() {
            let mut step = StepAccess::default();
            if let FlatItem::Op {
                instr: Instr::Eval(target),
                ..
            } = item
            {
                let t = node_number(grammar, p, *target);
                let rule = prod.rule_at(t).expect("rule exists");
                let path = |a| arg_path(grammar, objects, storage, recs, p, pos, a);
                // Argument paths, in rule-argument order.
                let args: Vec<ReadPath> = match rule.body() {
                    RuleBody::Copy(a) => vec![path(a)],
                    RuleBody::Call { args, .. } => args.iter().map(path).collect(),
                };
                let tobj = match target {
                    ONode::Attr(o) => Object::Attr(o.attr),
                    ONode::Local(l) => Object::Local(p, *l),
                };
                let write = match storage[objects.index(tobj)] {
                    Storage::Node => WritePath::Node,
                    Storage::Variable(id) => {
                        if eliminated.binary_search(&(p, t)).is_ok() {
                            WritePath::SkipVariable
                        } else {
                            WritePath::Variable(id)
                        }
                    }
                    Storage::Stack(id) => {
                        if record_of(recs, id).renames.binary_search(&pos).is_ok() {
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
            for &(id, rec) in recs {
                step.pops_after
                    .extend(std::iter::repeat_n(id, rec.pops_after(pos)));
            }
            steps.push(step);
        }
        access.push(SeqAccess { steps });
    }
    access
}

fn arg_path(
    grammar: &Grammar,
    objects: &ObjectIndex,
    storage: &[Storage],
    recs: &[(usize, &SimRecord)],
    p: ProductionId,
    pos: usize,
    arg: &fnc2_ag::Arg,
) -> ReadPath {
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
                    let depth = record_of(recs, id)
                        .depth(pos, node_number(grammar, p, *n))
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
    // Members per variable and per stack id, each list sorted.
    let mut variables: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    let mut stacks: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
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
    let every: Vec<usize> = (0..fp.seqs.len()).collect();
    let copies = copy_numbers(grammar);
    let mut scratch = VarScratch::default();
    for (id, members) in &variables {
        let found: Vec<(usize, usize)> = (fp.instances.iter().enumerate())
            .flat_map(|(k, insts)| insts.iter().enumerate().map(move |(i, inst)| (k, i, inst)))
            .filter(|(_, _, inst)| members.binary_search(&objects.index(inst.object)).is_ok())
            .map(|(k, i, _)| (k, i))
            .collect();
        if !variable_feasible(grammar, fp, lt, &copies, members, &found, &mut scratch) {
            return Err(format!(
                "variable {id} groups objects with overlapping lifetimes"
            ));
        }
    }
    let mut sim = SimScratch::default();
    for (&id, members) in &stacks {
        let mut elim: Vec<(ProductionId, usize)> = plan
            .eliminated
            .iter()
            .filter(|(p, t)| {
                let obj = match t {
                    ONode::Attr(o) => Object::Attr(o.attr),
                    ONode::Local(l) => Object::Local(*p, *l),
                };
                plan.storage[objects.index(obj)] == Storage::Stack(id)
            })
            .filter_map(|&(p, t)| Some((p, grammar.node_index(p, t)?)))
            .collect();
        elim.sort_unstable();
        let run = StackSim::run(grammar, seqs, fp, objects, members, &elim, &every, &mut sim);
        if run.is_none() {
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
