//! The incremental evaluator (paper §2.1.2).
//!
//! Keeps a fully decorated tree. Every edit — one or more subtree
//! replacements, or an in-place production swap — ends in one wave of two
//! steps. Each edited node first gets back its whole pre-edit decoration,
//! its inherited values and its synthesized ones; every instance that a
//! rule of an edited subtree defines starts the wave **dirty**, as do the
//! instances an earlier failed wave left pending.
//!
//! 1. The wave walks readers from the dirty instances, once per instance,
//!    recording each reached instance's readers and how many reached
//!    instances it reads.
//! 2. It settles the reached instances in topological (Kahn) order. An
//!    instance fires when it is dirty or something it reads is
//!    **Changed**, and propagation is **cut** where the new value equals
//!    the old one, which it keeps. An edited node's synthesized instance
//!    is compared with its pre-edit value, so its readers outside the
//!    subtree fire only if it changed.
//!
//! Step 2 fires an instance at most once, however many paths of different
//! lengths lead to it from the edit: the optimal-time change propagation
//! of Reps, Teitelbaum and Demers ("Incremental context-dependent analysis
//! for language-based editors", TOPLAS 1983). The settle has no nesting,
//! so a wave charges its budget steps, value cells and the deadline, never
//! `max_depth`; a circular tree leaves instances that never become ready,
//! reported as [`EvalError::CircularInstance`].
//!
//! A wave's bookkeeping costs what it reaches, not the tree's size: one
//! generation-tagged word per instance cell tells whether the wave has
//! reached it, an instance's readers are its occurrence's successors in
//! the production's dependency graph `D(p)`, which the evaluator builds
//! once, and every vector is reused from wave to wave. The tree names the
//! instances: [`Tree::instance`] the one an occurrence means at a node
//! (each rule target of an edited subtree, each reader), and
//! [`Tree::definition`] the rule application that defines a pending one.

use std::error::Error;
use std::time::Instant;

use fnc2_ag::{AttrId, DepGraph, Grammar, Inst, LocalId, NodeId, ProductionId, Tree, Value};
use fnc2_guard::{BudgetMeter, EvalBudget};
use fnc2_obs::{ChangeStatus, Counters, Event, Key, NoopRecorder, Recorder, RuleProfiler};
use fnc2_visit::{Cells, CompiledProgram, EvalError, RootInputs};

use crate::status::Equality;

/// Counters for one incremental wave (the §2.1.2 economy argument: compare
/// `reevaluated` with the instance count of a full evaluation).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IncrementalStats {
    /// Rule evaluations performed, each instance at most once.
    pub reevaluated: usize,
    /// Instances whose value actually changed, each counted once.
    pub changed: usize,
    /// Instances reevaluated to an equal value (propagation cut there).
    pub cut: usize,
}

impl IncrementalStats {
    /// The stats in the shared [`fnc2_obs`] counter vocabulary (`cut` maps
    /// to `inc.unchanged`; `inc.unknown` is tracked by the evaluator
    /// itself, not by this view).
    pub fn to_counters(&self) -> Counters {
        let mut c = Counters::new();
        c.set(Key::IncReevaluated, self.reevaluated as u64);
        c.set(Key::IncChanged, self.changed as u64);
        c.set(Key::IncUnchanged, self.cut as u64);
        c
    }
}

/// An incrementally maintained attributed tree.
#[derive(Debug)]
pub struct IncrementalEvaluator<'g> {
    grammar: &'g Grammar,
    program: CompiledProgram,
    /// `deps[p]`: production `p`'s `D(p)`, whose edges lead from each
    /// occurrence to the targets of the rules reading it.
    deps: Vec<DepGraph<'g>>,
    tree: Tree,
    cells: Cells,
    inputs: RootInputs,
    eq: Equality,
    budget: EvalBudget,
    /// Instances a failed wave left unsettled: the next wave fires them.
    pending: Vec<Inst>,
    /// Work space reused from wave to wave.
    s: Scratch,
}

/// An edited node's attributes with the values they had before the edit.
type Decoration = Vec<(AttrId, Option<Value>)>;

/// What one wave has spent and counted so far.
struct Wave {
    stats: IncrementalStats,
    /// Instances computed with no prior value (`inc.unknown`).
    unknown: usize,
    meter: BudgetMeter,
    /// Fetch counters of the wave's firings, replayed once at its end.
    counters: Counters,
}

/// One instance the wave has reached.
#[derive(Clone, Copy, Debug)]
struct Reached {
    inst: Inst,
    /// The node whose production defines the instance, and the rule.
    def: NodeId,
    rule: u32,
    /// Its readers are `Scratch::readers[first..last]`.
    first: u32,
    last: u32,
    /// Reached instances it reads that have not settled yet.
    waiting: u32,
    /// It is edited or pending, or something it reads changed: it fires.
    dirty: bool,
    /// Fired or passed over, and its readers released.
    settled: bool,
}

/// The work space of a wave, kept between waves so that none allocates
/// once the vectors have grown.
#[derive(Debug, Default)]
struct Scratch {
    /// The current wave's number; it tags the marks.
    wave: u32,
    /// One word per cell of the value arena (and of the local arena):
    /// `wave << 32 | entry` once wave `wave` has reached the instance.
    attr_marks: Vec<u64>,
    local_marks: Vec<u64>,
    reached: Vec<Reached>,
    /// Reader lists of the reached instances, as `reached` indices.
    readers: Vec<u32>,
    /// Instances to walk (step 1), then instances ready to settle (step 2).
    work: Vec<u32>,
    /// The argument buffer rules fire with.
    args: Vec<Value>,
}

impl Scratch {
    /// Starts a new wave's reached set without touching the marks.
    fn begin(&mut self) {
        self.wave = self.wave.wrapping_add(1);
        if self.wave == 0 {
            self.attr_marks.fill(0);
            self.local_marks.fill(0);
            self.wave = 1;
        }
        self.reached.clear();
        self.readers.clear();
        self.work.clear();
    }

    /// The entry of the instance in cell `cell` (of the local arena when
    /// `local`), added, and queued for the walk, on first reach.
    fn reach(&mut self, (local, cell): (bool, usize), inst: Inst, def: NodeId, rule: u32) -> usize {
        let marks = if local {
            &mut self.local_marks
        } else {
            &mut self.attr_marks
        };
        if cell >= marks.len() {
            marks.resize(cell + 1, 0);
        }
        if marks[cell] >> 32 == u64::from(self.wave) {
            return marks[cell] as u32 as usize;
        }
        let i = self.reached.len();
        marks[cell] = u64::from(self.wave) << 32 | i as u64;
        self.reached.push(Reached {
            inst,
            def,
            rule,
            first: 0,
            last: 0,
            waiting: 0,
            dirty: false,
            settled: false,
        });
        self.work.push(i as u32);
        i
    }
}

impl<'g> IncrementalEvaluator<'g> {
    /// Fully evaluates `tree` (which must have no root inherited
    /// attributes) and takes ownership of it, under the default
    /// [`EvalBudget`].
    ///
    /// # Errors
    ///
    /// Fails with [`EvalError::CircularInstance`] if the tree's instances
    /// are circular, or with [`EvalError::MissingToken`] if a rule reads a
    /// token that its node lacks.
    pub fn new(grammar: &'g Grammar, tree: Tree, eq: Equality) -> Result<Self, EvalError> {
        Self::with_inputs(grammar, tree, RootInputs::new(), eq, EvalBudget::default())
    }

    /// Like [`new`](Self::new), but supplies the root's inherited
    /// attributes and an explicit [`EvalBudget`] (which also governs every
    /// later edit wave).
    ///
    /// # Errors
    ///
    /// As for [`new`](Self::new), plus [`EvalError::MissingRootInput`]
    /// and [`EvalError::BudgetExceeded`].
    pub fn with_inputs(
        grammar: &'g Grammar,
        tree: Tree,
        inputs: RootInputs,
        eq: Equality,
        budget: EvalBudget,
    ) -> Result<Self, EvalError> {
        let root = tree.root();
        if let Some(attr) = grammar
            .inherited(tree.phylum(grammar, root))
            .into_iter()
            .find(|a| !inputs.contains_key(a))
        {
            return Err(EvalError::MissingRootInput {
                what: grammar.attr(attr).name().to_string(),
            });
        }
        let mut this = IncrementalEvaluator {
            grammar,
            program: CompiledProgram::new(grammar),
            deps: grammar
                .productions()
                .map(|p| DepGraph::of(grammar, p))
                .collect(),
            cells: Cells::new(grammar, &tree),
            tree,
            inputs,
            eq,
            budget,
            pending: Vec::new(),
            s: Scratch::default(),
        };
        // The initial decoration is a wave over the whole tree with
        // nothing to compare against. Its work space is as large as the
        // tree; edit waves grow their own.
        this.wave(vec![(root, Vec::new())], &mut NoopRecorder)?;
        this.s = Scratch::default();
        Ok(this)
    }

    /// The decorated tree.
    pub fn tree(&self) -> &Tree {
        &self.tree
    }

    /// The current value of `(node, attr)`.
    pub fn value(&self, node: NodeId, attr: AttrId) -> Option<&Value> {
        self.cells.values.get(self.grammar, node, attr)
    }

    /// Total number of live attribute instances (for comparing incremental
    /// cost with exhaustive cost).
    pub fn instance_count(&self) -> usize {
        self.tree.attr_instances(self.grammar).count()
    }

    /// Replaces the subtree at `at` and reevaluates incrementally.
    ///
    /// # Errors
    ///
    /// As for [`replace_subtrees`](Self::replace_subtrees).
    pub fn replace_subtree(
        &mut self,
        at: NodeId,
        replacement: &Tree,
    ) -> Result<IncrementalStats, Box<dyn Error>> {
        self.replace_subtrees(vec![(at, replacement.clone())])
    }

    /// Applies several subtree replacements, then runs one combined
    /// reevaluation wave (paper §2.1.2: "this method can accommodate
    /// multiple subtree replacements").
    ///
    /// The batch is checked whole before the tree changes: every target
    /// must be a node of the current tree (not one an earlier edit
    /// replaced), every replacement must derive its target's phylum, and
    /// no target may lie inside another target's subtree. A rejected
    /// batch changes nothing.
    ///
    /// # Errors
    ///
    /// Fails with a [`TreeError`](fnc2_ag::TreeError) when the batch is
    /// rejected, or an [`EvalError`] when the wave fails. A failed wave is
    /// not rolled back: the tree keeps the edits, and the instances the
    /// wave left unsettled keep stale or missing values until the next
    /// wave, which settles them first.
    pub fn replace_subtrees(
        &mut self,
        edits: Vec<(NodeId, Tree)>,
    ) -> Result<IncrementalStats, Box<dyn Error>> {
        self.replace_subtrees_recorded(edits, &mut NoopRecorder)
    }

    /// [`replace_subtrees`](Self::replace_subtrees), instrumented: the
    /// wave's counters are replayed into `rec` under the `inc.*` keys
    /// (`inc.unknown` counts fresh instances with no prior value), and
    /// when tracing is on every firing emits a `RuleFired` event and every
    /// semantic-control decision a `StatusComputed` event.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`replace_subtrees`](Self::replace_subtrees).
    pub fn replace_subtrees_recorded<R: Recorder>(
        &mut self,
        edits: Vec<(NodeId, Tree)>,
        rec: &mut R,
    ) -> Result<IncrementalStats, Box<dyn Error>> {
        let g = self.grammar;
        let new_roots = self.tree.replace_subtrees(g, &edits)?;
        self.cells.values.sync(g, &self.tree);
        self.cells.locals.sync(g, &self.tree);
        // A pending attribute of a replaced node is pending at its
        // replacement, which inherits the node's decoration.
        for inst in &mut self.pending {
            if let Inst::Attr(n, _) = inst {
                if let Some(k) = edits.iter().position(|&(at, _)| at == *n) {
                    *n = new_roots[k];
                }
            }
        }
        // A replaced node keeps its cells: they are its pre-edit decoration.
        let edited = edits
            .iter()
            .zip(new_roots)
            .map(|(&(at, _), new_root)| (new_root, self.decoration(at)))
            .collect();
        Ok(self.wave(edited, rec)?)
    }

    /// Replaces the production applied at `at` **in place** (the
    /// operator-swap edit — see [`Tree::replace_production`]) and
    /// reevaluates incrementally: the node's attribute cells and everything
    /// it dominates are invalidated and recomputed, then the usual
    /// semantic-control propagation runs above it with equality cuts.
    ///
    /// # Errors
    ///
    /// Fails with a [`TreeError`](fnc2_ag::TreeError), changing nothing,
    /// when `at` is not in the tree or the new production has a different
    /// LHS phylum or RHS signature; or with an [`EvalError`] when the wave
    /// fails, as for [`replace_subtrees`](Self::replace_subtrees).
    pub fn swap_production(
        &mut self,
        at: NodeId,
        production: ProductionId,
    ) -> Result<IncrementalStats, Box<dyn Error>> {
        self.swap_production_recorded(at, production, &mut NoopRecorder)
    }

    /// [`swap_production`](Self::swap_production), instrumented like
    /// [`replace_subtrees_recorded`](Self::replace_subtrees_recorded).
    ///
    /// # Errors
    ///
    /// Same failure modes as [`swap_production`](Self::swap_production).
    pub fn swap_production_recorded<R: Recorder>(
        &mut self,
        at: NodeId,
        production: ProductionId,
        rec: &mut R,
    ) -> Result<IncrementalStats, Box<dyn Error>> {
        let g = self.grammar;
        let width = |p: ProductionId| g.production(p).locals().len();
        let before = self.tree.replace_production(g, at, production)?;
        if width(before) != width(production) {
            self.cells.locals.reframe(at, width(production));
        }
        // The swapped-out production's locals are gone; the wave computes
        // the new ones.
        self.pending
            .retain(|i| !matches!(*i, Inst::Local(n, _) if n == at));
        let old = self.decoration(at);
        // Every cell at and below the node is stale: the inherited
        // attributes below flowed through the replaced rules.
        for n in self.subtree(at) {
            for &a in g.phylum(self.tree.phylum(g, n)).attrs() {
                self.cells.values.clear(g, n, a);
            }
            for l in 0..width(self.tree.node(n).production()) {
                self.cells.locals.clear(n, LocalId::from_raw(l as u32));
            }
        }
        Ok(self.wave(vec![(at, old)], rec)?)
    }

    /// The wave every edit ends with (paper §2.1.2): the two steps of the
    /// module doc. Each edited node gets back its pre-edit decoration (the
    /// root inputs at the root), and every instance a rule of its subtree
    /// defines is dirty, as is every instance an earlier failed wave left
    /// pending. The wave's counters are replayed into `rec` once.
    fn wave<R: Recorder>(
        &mut self,
        edited: Vec<(NodeId, Decoration)>,
        rec: &mut R,
    ) -> Result<IncrementalStats, EvalError> {
        let mut w = Wave {
            stats: IncrementalStats::default(),
            unknown: 0,
            meter: BudgetMeter::new(&self.budget),
            counters: Counters::new(),
        };
        let result = self.run_wave(&edited, &mut w, rec);
        self.s.args.clear();
        if result.is_ok() {
            w.counters.merge(&w.stats.to_counters());
            w.counters.set(Key::IncUnknown, w.unknown as u64);
        }
        w.counters.replay(rec);
        result.map(|()| w.stats)
    }

    /// The steps of [`wave`](Self::wave). A failure leaves the instances
    /// the wave did not settle pending.
    fn run_wave<R: Recorder>(
        &mut self,
        edited: &[(NodeId, Decoration)],
        w: &mut Wave,
        rec: &mut R,
    ) -> Result<(), EvalError> {
        let g = self.grammar;
        self.s.begin();
        for (node, old) in edited {
            for (a, v) in old {
                if let Some(v) = v {
                    self.cells.values.set(g, *node, *a, v.clone());
                }
            }
            if self.tree.node(*node).parent().is_none() {
                for a in g.inherited(self.tree.phylum(g, *node)) {
                    if let Some(v) = self.inputs.get(&a) {
                        self.cells.values.set(g, *node, a, v.clone());
                    }
                }
            }
            for n in self.subtree(*node) {
                let rules = g.production(self.tree.node(n).production()).rules();
                for (r, rule) in rules.iter().enumerate() {
                    let inst = self.tree.instance(n, rule.target());
                    let i = self
                        .s
                        .reach(cell_of(g, &self.cells, inst), inst, n, r as u32);
                    self.s.reached[i].dirty = true;
                }
            }
        }
        let mut pending = std::mem::take(&mut self.pending);
        pending.retain(|i| self.tree.is_live(i.node()));
        for &inst in &pending {
            let i = self.reach(inst);
            self.s.reached[i].dirty = true;
        }
        // Step 1: the reached set.
        while let Some(i) = self.s.work.pop() {
            let first = self.s.readers.len() as u32;
            // Readers live in the production at the node (the LHS
            // occurrence of an attribute, or a local) and, for an
            // attribute, in the parent's (a child occurrence).
            let (n, lhs) = match self.s.reached[i as usize].inst {
                Inst::Local(n, l) => (n, Err(l)),
                Inst::Attr(n, a) => (n, Ok(g.attr(a).offset())),
            };
            let dep = &self.deps[self.tree.node(n).production().index()];
            let k = match lhs {
                Ok(off) => dep.attr_index(0, off),
                Err(l) => g.production(dep.production()).local_base() + l.index(),
            };
            reach_readers(&mut self.s, g, &self.tree, &self.cells, dep, k, n);
            if let (Ok(off), Some(parent)) = (lhs, self.tree.node(n).parent()) {
                let pos = self.tree.child_index(n).expect("child position") as u16;
                let dep = &self.deps[self.tree.node(parent).production().index()];
                let k = dep.attr_index(pos, off);
                reach_readers(&mut self.s, g, &self.tree, &self.cells, dep, k, parent);
            }
            let e = &mut self.s.reached[i as usize];
            (e.first, e.last) = (first, self.s.readers.len() as u32);
        }
        // Step 2: settle in topological order.
        for (i, e) in self.s.reached.iter().enumerate() {
            if e.waiting == 0 {
                self.s.work.push(i as u32);
            }
        }
        let mut settled = 0;
        while let Some(i) = self.s.work.pop() {
            let e = self.s.reached[i as usize];
            let changed = e.dirty
                && match self.fire(e.inst, e.def, e.rule, w, rec) {
                    Ok(status) => status != ChangeStatus::Unchanged,
                    Err(err) => {
                        self.pending = self.unsettled();
                        return Err(err);
                    }
                };
            self.s.reached[i as usize].settled = true;
            settled += 1;
            for k in e.first..e.last {
                let j = self.s.readers[k as usize] as usize;
                let r = &mut self.s.reached[j];
                r.waiting -= 1;
                r.dirty |= changed;
                if r.waiting == 0 {
                    self.s.work.push(j as u32);
                }
            }
        }
        if settled < self.s.reached.len() {
            self.pending = self.unsettled();
            let inst = self.pending[0];
            return Err(EvalError::CircularInstance {
                node: inst.node(),
                what: inst.name(g, &self.tree).to_string(),
            });
        }
        Ok(())
    }

    /// The wave's entry for `inst`, reached now if it was not yet.
    fn reach(&mut self, inst: Inst) -> usize {
        let (def, target) = self
            .tree
            .definition(self.grammar, inst)
            .expect("root inherited supplied as inputs");
        let p = self.tree.node(def).production();
        let rule = self
            .grammar
            .node_index(p, target)
            .and_then(|k| self.grammar.production(p).rule_index(k))
            .expect("validated grammar");
        let cell = cell_of(self.grammar, &self.cells, inst);
        self.s.reach(cell, inst, def, rule)
    }

    /// The reached instances that have not settled.
    fn unsettled(&self) -> Vec<Inst> {
        self.s
            .reached
            .iter()
            .filter(|e| !e.settled)
            .map(|e| e.inst)
            .collect()
    }

    /// Every attribute of `node`'s phylum with its current value.
    fn decoration(&self, node: NodeId) -> Decoration {
        let g = self.grammar;
        let ph = self.tree.phylum(g, node);
        g.phylum(ph)
            .attrs()
            .iter()
            .map(|&a| (a, self.cells.values.get(g, node, a).cloned()))
            .collect()
    }

    /// `node` and every node below it.
    fn subtree(&self, node: NodeId) -> Vec<NodeId> {
        let mut nodes = Vec::new();
        let mut stack = vec![node];
        while let Some(n) = stack.pop() {
            nodes.push(n);
            stack.extend(self.tree.node(n).children().iter().copied());
        }
        nodes
    }

    /// The current value of an instance.
    fn get(&self, inst: Inst) -> Option<&Value> {
        match inst {
            Inst::Attr(n, a) => self.cells.values.get(self.grammar, n, a),
            Inst::Local(n, l) => self.cells.locals.get(n, l),
        }
    }

    /// Fires rule `rule` of the production at `def`, which defines `inst`,
    /// on behalf of the wave: steps the meter, computes the value, grows
    /// the cells, counts the firing and its outcome, emits the instance's
    /// status, and stores the value unless it equals the old one (the
    /// cut).
    fn fire<R: Recorder>(
        &mut self,
        inst: Inst,
        def: NodeId,
        rule: u32,
        w: &mut Wave,
        rec: &mut R,
    ) -> Result<ChangeStatus, EvalError> {
        let g = self.grammar;
        let at = |k| EvalError::budget(k, format!("incremental evaluator, {def}"));
        w.meter.step().map_err(at)?;
        let new = self.compute(def, rule, w, rec)?;
        w.meter.grow_cells(new.cell_count() as u64).map_err(at)?;
        w.stats.reevaluated += 1;
        let status = match self.get(inst) {
            None => ChangeStatus::Unknown,
            Some(old) if self.eq.same(old, &new) => ChangeStatus::Unchanged,
            Some(_) => ChangeStatus::Changed,
        };
        if rec.trace() {
            if let Inst::Attr(n, a) = inst {
                rec.emit(Event::StatusComputed {
                    node: n.index() as u32,
                    attr: a.index() as u32,
                    status,
                });
            }
        }
        match status {
            ChangeStatus::Unchanged => {
                w.stats.cut += 1;
                return Ok(status);
            }
            ChangeStatus::Changed => w.stats.changed += 1,
            ChangeStatus::Unknown => w.unknown += 1,
        }
        match inst {
            Inst::Attr(n, a) => self.cells.values.set(g, n, a, new),
            Inst::Local(n, l) => self.cells.locals.set(n, l, new),
        };
        Ok(status)
    }

    /// Runs rule `rule` of the production applied at `def` through the
    /// slot-compiled program and, when profiling or tracing is on,
    /// attributes the firing to its `(production, rule)` pair. Fetch
    /// counters go to the wave's block.
    fn compute<R: Recorder>(
        &mut self,
        def: NodeId,
        rule: u32,
        w: &mut Wave,
        rec: &mut R,
    ) -> Result<Value, EvalError> {
        let p = self.tree.node(def).production();
        let t0 = rec
            .profiler()
            .is_some_and(RuleProfiler::should_sample)
            .then(Instant::now);
        let (v, is_copy) = self.program.eval_rule(
            self.grammar,
            &self.tree,
            p,
            rule,
            def,
            &self.cells,
            &mut self.s.args,
            &mut w.counters,
        )?;
        if let Some(prof) = rec.profiler() {
            prof.record(
                p.index() as u32,
                rule,
                is_copy,
                t0.map(|t| t.elapsed().as_nanos() as u64),
            );
        }
        if rec.trace() {
            rec.emit(Event::RuleFired {
                node: def.index() as u32,
                production: p.index() as u32,
                rule,
            });
        }
        Ok(v)
    }
}

/// Which arena cell holds `inst`: `(is a local, index)`.
fn cell_of(g: &Grammar, cells: &Cells, inst: Inst) -> (bool, usize) {
    match inst {
        Inst::Attr(n, a) => (false, cells.values.slot_index(n, g.attr(a).offset())),
        Inst::Local(n, l) => (true, cells.locals.slot_index(n, l)),
    }
}

/// Reaches the readers of the entry being walked, which is node `k` of
/// `dep`'s production applied at `host`: the instances of `k`'s successors
/// in `D(p)`, each defined by the rule that reads `k`. `D(p)` lists them
/// once each, in rule order.
fn reach_readers(
    s: &mut Scratch,
    g: &Grammar,
    tree: &Tree,
    cells: &Cells,
    dep: &DepGraph,
    k: usize,
    host: NodeId,
) {
    let prod = g.production(dep.production());
    for &v in dep.succs(k) {
        let inst = tree.instance(host, dep.node(v));
        let r = prod.rule_index(v).expect("an edge ends at a rule's target");
        let j = s.reach(cell_of(g, cells, inst), inst, host, r);
        s.reached[j].waiting += 1;
        s.readers.push(j as u32);
    }
}

#[cfg(test)]
mod tests {
    use fnc2_ag::{Grammar, GrammarBuilder, ONode, Occ, TreeBuilder, TreeError, Value};
    use fnc2_visit::DynamicEvaluator;

    use super::*;

    /// Summing leaves with a threaded depth: exercises inherited and
    /// synthesized propagation.
    fn sum_grammar() -> Grammar {
        let mut g = GrammarBuilder::new("sum");
        let s = g.phylum("S");
        let e = g.phylum("E");
        let total = g.syn(s, "total");
        let depth = g.inh(e, "depth");
        let sum = g.syn(e, "sum");
        g.func("succ", 1, |v| Value::Int(v[0].as_int() + 1));
        g.func("add", 2, |v| Value::Int(v[0].as_int() + v[1].as_int()));
        let root = g.production("root", s, &[e]);
        g.copy(root, Occ::lhs(total), Occ::new(1, sum));
        g.constant(root, Occ::new(1, depth), Value::Int(0));
        let fork = g.production("fork", e, &[e, e]);
        g.call(fork, Occ::new(1, depth), "succ", [Occ::lhs(depth).into()]);
        g.call(fork, Occ::new(2, depth), "succ", [Occ::lhs(depth).into()]);
        g.call(
            fork,
            Occ::lhs(sum),
            "add",
            [Occ::new(1, sum).into(), Occ::new(2, sum).into()],
        );
        let leaf = g.production("leafe", e, &[]);
        g.copy(leaf, Occ::lhs(sum), fnc2_ag::Arg::Token);
        // Same signature as `fork` but combines with max — the in-place
        // production-swap target.
        g.func("maxf", 2, |v| Value::Int(v[0].as_int().max(v[1].as_int())));
        let forkmax = g.production("forkmax", e, &[e, e]);
        g.call(
            forkmax,
            Occ::new(1, depth),
            "succ",
            [Occ::lhs(depth).into()],
        );
        g.call(
            forkmax,
            Occ::new(2, depth),
            "succ",
            [Occ::lhs(depth).into()],
        );
        g.call(
            forkmax,
            Occ::lhs(sum),
            "maxf",
            [Occ::new(1, sum).into(), Occ::new(2, sum).into()],
        );
        // Same signature again, but doubling the sum through two locals:
        // the swap target whose local count differs from `fork`'s.
        let forkdbl = g.production("forkdbl", e, &[e, e]);
        let both = g.local(forkdbl, "both");
        let twice = g.local(forkdbl, "twice");
        g.call(
            forkdbl,
            Occ::new(1, depth),
            "succ",
            [Occ::lhs(depth).into()],
        );
        g.call(
            forkdbl,
            Occ::new(2, depth),
            "succ",
            [Occ::lhs(depth).into()],
        );
        g.call(
            forkdbl,
            both,
            "add",
            [Occ::new(1, sum).into(), Occ::new(2, sum).into()],
        );
        g.call(
            forkdbl,
            twice,
            "add",
            [ONode::Local(both).into(), ONode::Local(both).into()],
        );
        g.copy(forkdbl, Occ::lhs(sum), ONode::Local(twice));
        g.finish().unwrap()
    }

    /// A one-leaf replacement tree carrying `v`.
    fn leaf_tree(g: &Grammar, v: i64) -> Tree {
        let mut tb = TreeBuilder::new(g);
        let leafe = g.production_by_name("leafe").unwrap();
        let nl = tb.node_with_token(leafe, &[], Some(Value::Int(v))).unwrap();
        tb.finish(nl)
    }

    /// The live leaf carrying token `v`.
    fn leaf(inc: &IncrementalEvaluator, v: i64) -> NodeId {
        let t = inc.tree();
        t.preorder()
            .map(|(n, _)| n)
            .find(|&n| t.node(n).token() == Some(&Value::Int(v)))
            .unwrap()
    }

    /// Checks every attribute instance of `inc.tree()` against a
    /// from-scratch evaluation.
    fn assert_matches_scratch(g: &Grammar, inc: &IncrementalEvaluator) {
        let t = inc.tree();
        let (want, _) = DynamicEvaluator::new(g)
            .evaluate(t, &RootInputs::new())
            .unwrap();
        let differs = |&(n, a): &_| inc.value(n, a) != want.get(g, n, a);
        if let Some((n, a)) = t.attr_instances(g).find(differs) {
            panic!("{n}.{}", g.attr(a).name());
        }
    }

    /// Runs `edit`, which must fail with `want` and change nothing.
    fn assert_rejected(
        g: &Grammar,
        inc: &mut IncrementalEvaluator,
        want: TreeError,
        edit: impl FnOnce(&mut IncrementalEvaluator) -> Result<IncrementalStats, Box<dyn Error>>,
    ) {
        let before = format!("{:?}", inc.tree());
        let err = edit(inc).unwrap_err();
        assert_eq!(format!("{:?}", inc.tree()), before);
        assert_matches_scratch(g, inc);
        assert_eq!(err.downcast_ref::<TreeError>(), Some(&want));
    }

    fn build_tree(g: &Grammar, values: &[i64]) -> Tree {
        let mut tb = TreeBuilder::new(g);
        let leafe = g.production_by_name("leafe").unwrap();
        let mut nodes: Vec<NodeId> = values
            .iter()
            .map(|&v| tb.node_with_token(leafe, &[], Some(Value::Int(v))).unwrap())
            .collect();
        while nodes.len() > 1 {
            let b = nodes.pop().unwrap();
            let a = nodes.pop().unwrap();
            nodes.push(tb.op("fork", &[a, b]).unwrap());
        }
        let root = tb.op("root", &[nodes[0]]).unwrap();
        tb.finish_root(root).unwrap()
    }

    #[test]
    fn initial_evaluation_matches_dynamic() {
        let g = sum_grammar();
        let tree = build_tree(&g, &[1, 2, 3, 4]);
        let dynev = DynamicEvaluator::new(&g);
        let (want, _) = dynev.evaluate(&tree, &RootInputs::new()).unwrap();
        let inc = IncrementalEvaluator::new(&g, tree.clone(), Equality::default()).unwrap();
        let s = g.phylum_by_name("S").unwrap();
        let total = g.attr_by_name(s, "total").unwrap();
        assert_eq!(
            inc.value(tree.root(), total),
            want.get(&g, tree.root(), total)
        );
        assert_eq!(inc.value(tree.root(), total), Some(&Value::Int(10)));
    }

    #[test]
    fn small_edit_reevaluates_little() {
        let g = sum_grammar();
        let tree = build_tree(&g, &[1, 2, 3, 4, 5, 6, 7, 8]);
        let mut inc = IncrementalEvaluator::new(&g, tree, Equality::default()).unwrap();
        let total_instances = inc.instance_count();

        // Replace one leaf (token 1 -> 100).
        let target = inc
            .tree()
            .preorder()
            .find(|&(n, _)| inc.tree().node(n).token() == Some(&Value::Int(1)))
            .map(|(n, _)| n)
            .unwrap();
        let mut tb = TreeBuilder::new(&g);
        let leafe = g.production_by_name("leafe").unwrap();
        let nl = tb
            .node_with_token(leafe, &[], Some(Value::Int(100)))
            .unwrap();
        let sub = tb.finish(nl);
        let stats = inc.replace_subtree(target, &sub).unwrap();

        let s = g.phylum_by_name("S").unwrap();
        let total = g.attr_by_name(s, "total").unwrap();
        let root = inc.tree().root();
        assert_eq!(inc.value(root, total), Some(&Value::Int(135)));
        // Only the spine to the root reevaluates, far less than everything.
        assert!(
            stats.reevaluated * 2 < total_instances,
            "reevaluated {} of {total_instances}",
            stats.reevaluated
        );
    }

    #[test]
    fn equal_value_edit_cuts_propagation() {
        let g = sum_grammar();
        let tree = build_tree(&g, &[5, 2, 3]);
        let mut inc = IncrementalEvaluator::new(&g, tree, Equality::default()).unwrap();
        // Replace the 5-leaf by another 5-leaf: nothing changes above.
        let target = inc
            .tree()
            .preorder()
            .find(|&(n, _)| inc.tree().node(n).token() == Some(&Value::Int(5)))
            .map(|(n, _)| n)
            .unwrap();
        let mut tb = TreeBuilder::new(&g);
        let leafe = g.production_by_name("leafe").unwrap();
        let nl = tb.node_with_token(leafe, &[], Some(Value::Int(5))).unwrap();
        let sub = tb.finish(nl);
        let stats = inc.replace_subtree(target, &sub).unwrap();
        // The fresh leaf fires, returns its old sum and is cut there.
        let want = IncrementalStats {
            reevaluated: 1,
            changed: 0,
            cut: 1,
        };
        assert_eq!(stats, want);
    }

    #[test]
    fn multiple_replacements_in_one_wave() {
        let g = sum_grammar();
        let tree = build_tree(&g, &[1, 2, 3, 4]);
        let mut inc = IncrementalEvaluator::new(&g, tree, Equality::default()).unwrap();
        let leaves: Vec<NodeId> = inc
            .tree()
            .preorder()
            .filter(|&(n, _)| inc.tree().node(n).children().is_empty())
            .map(|(n, _)| n)
            .collect();
        let leafe = g.production_by_name("leafe").unwrap();
        let mk = |v: i64| {
            let mut tb = TreeBuilder::new(&g);
            let nl = tb.node_with_token(leafe, &[], Some(Value::Int(v))).unwrap();
            tb.finish(nl)
        };
        let edits = vec![(leaves[0], mk(10)), (leaves[1], mk(20))];
        inc.replace_subtrees(edits).unwrap();
        let s = g.phylum_by_name("S").unwrap();
        let total = g.attr_by_name(s, "total").unwrap();
        // Replaced two of {1,2,3,4} (preorder order) by 10 and 20.
        let dynev = DynamicEvaluator::new(&g);
        let (want, _) = dynev.evaluate(inc.tree(), &RootInputs::new()).unwrap();
        assert_eq!(
            inc.value(inc.tree().root(), total),
            want.get(&g, inc.tree().root(), total)
        );
    }

    #[test]
    fn custom_equality_cuts_more() {
        let g = sum_grammar();
        let tree = build_tree(&g, &[4, 2, 3]);
        // Equality modulo 2: replacing 4 by 6 changes the leaf sum 4→6 but
        // both are even, so the coarse equality cuts immediately.
        let eq = Equality::new(|a, b| a.as_int() % 2 == b.as_int() % 2);
        let mut inc = IncrementalEvaluator::new(&g, tree, eq).unwrap();
        let target = inc
            .tree()
            .preorder()
            .find(|&(n, _)| inc.tree().node(n).token() == Some(&Value::Int(4)))
            .map(|(n, _)| n)
            .unwrap();
        let mut tb = TreeBuilder::new(&g);
        let leafe = g.production_by_name("leafe").unwrap();
        let nl = tb.node_with_token(leafe, &[], Some(Value::Int(6))).unwrap();
        let sub = tb.finish(nl);
        let stats = inc.replace_subtree(target, &sub).unwrap();
        assert_eq!(stats.changed, 0, "{stats:?}");
        // The cut keeps the old value, at the edited leaf as anywhere.
        let e = g.phylum_by_name("E").unwrap();
        let sum = g.attr_by_name(e, "sum").unwrap();
        assert_eq!(inc.value(leaf(&inc, 6), sum), Some(&Value::Int(4)));
    }

    #[test]
    fn the_cutoff_asks_the_equality_once_per_firing() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;

        let g = sum_grammar();
        let calls = Arc::new(AtomicUsize::new(0));
        let counted = Arc::clone(&calls);
        let eq = Equality::new(move |a, b| {
            counted.fetch_add(1, Ordering::Relaxed);
            a == b
        });
        let mut inc = IncrementalEvaluator::new(&g, build_tree(&g, &[5, 2, 3]), eq).unwrap();
        // The initial decoration has no old values to compare.
        assert_eq!(calls.swap(0, Ordering::Relaxed), 0);

        // An equal leaf fires once and is cut: the equality decides that
        // too, even though old and new are the same integer.
        let stats = inc
            .replace_subtree(leaf(&inc, 5), &leaf_tree(&g, 5))
            .unwrap();
        assert_eq!((stats.reevaluated, stats.cut), (1, 1));
        assert_eq!(calls.swap(0, Ordering::Relaxed), 1);

        // A changed leaf: every firing has an old value to compare with.
        let stats = inc
            .replace_subtree(leaf(&inc, 2), &leaf_tree(&g, 7))
            .unwrap();
        assert!(stats.changed > 0, "{stats:?}");
        assert_eq!(calls.load(Ordering::Relaxed), stats.reevaluated);
        assert_matches_scratch(&g, &inc);
    }

    #[test]
    fn production_swap_reevaluates_subtree() {
        let g = sum_grammar();
        let tree = build_tree(&g, &[1, 2, 3, 4]);
        let mut inc = IncrementalEvaluator::new(&g, tree, Equality::default()).unwrap();
        let s = g.phylum_by_name("S").unwrap();
        let total = g.attr_by_name(s, "total").unwrap();
        assert_eq!(inc.value(inc.tree().root(), total), Some(&Value::Int(10)));

        // Swap the topmost fork (sum) for forkmax (max) in place.
        let fork = g.production_by_name("fork").unwrap();
        let forkmax = g.production_by_name("forkmax").unwrap();
        let target = inc
            .tree()
            .preorder()
            .find(|&(n, _)| inc.tree().node(n).production() == fork)
            .map(|(n, _)| n)
            .unwrap();
        inc.swap_production(target, forkmax).unwrap();

        // The edited tree must match a from-scratch evaluation.
        let dynev = DynamicEvaluator::new(&g);
        let (want, _) = dynev.evaluate(inc.tree(), &RootInputs::new()).unwrap();
        assert_eq!(
            inc.value(inc.tree().root(), total),
            want.get(&g, inc.tree().root(), total)
        );
        // fork(1, fork(2, fork(3, 4))) → max(1, 2+3+4) = 9.
        assert_eq!(inc.value(inc.tree().root(), total), Some(&Value::Int(9)));

        // Swapping back restores the original answer.
        inc.swap_production(target, fork).unwrap();
        assert_eq!(inc.value(inc.tree().root(), total), Some(&Value::Int(10)));

        // Signature mismatches are rejected without mutating the tree.
        let root_p = g.production_by_name("root").unwrap();
        assert!(inc.swap_production(target, root_p).is_err());
        assert_eq!(inc.value(inc.tree().root(), total), Some(&Value::Int(10)));
    }

    #[test]
    fn production_swap_deep_in_tree() {
        let g = sum_grammar();
        let tree = build_tree(&g, &[1, 2, 3, 4, 5]);
        let mut inc = IncrementalEvaluator::new(&g, tree, Equality::default()).unwrap();
        let fork = g.production_by_name("fork").unwrap();
        let forkmax = g.production_by_name("forkmax").unwrap();
        // Deepest fork: the last one in preorder.
        let target = inc
            .tree()
            .preorder()
            .filter(|&(n, _)| inc.tree().node(n).production() == fork)
            .map(|(n, _)| n)
            .last()
            .unwrap();
        let stats = inc.swap_production(target, forkmax).unwrap();
        let dynev = DynamicEvaluator::new(&g);
        let (want, _) = dynev.evaluate(inc.tree(), &RootInputs::new()).unwrap();
        let s = g.phylum_by_name("S").unwrap();
        let total = g.attr_by_name(s, "total").unwrap();
        assert_eq!(
            inc.value(inc.tree().root(), total),
            want.get(&g, inc.tree().root(), total)
        );
        // Propagation from a deep swap changes the spine above it.
        assert!(stats.changed > 0, "{stats:?}");
    }

    #[test]
    fn nested_batch_is_rejected_whole() {
        let g = sum_grammar();
        let mut inc =
            IncrementalEvaluator::new(&g, build_tree(&g, &[1, 2, 3, 4]), Equality::default())
                .unwrap();
        let two = leaf(&inc, 2);
        let parent = inc.tree().node(two).parent().unwrap();
        let nested = TreeError::NestedEdit {
            inner: two,
            outer: parent,
        };
        for order in [[two, parent], [parent, two]] {
            let edits = order.map(|at| (at, leaf_tree(&g, 100))).to_vec();
            assert_rejected(&g, &mut inc, nested.clone(), |inc| {
                inc.replace_subtrees(edits)
            });
        }
        let twice = vec![(two, leaf_tree(&g, 100)), (two, leaf_tree(&g, 200))];
        let dup = TreeError::NestedEdit {
            inner: two,
            outer: two,
        };
        assert_rejected(&g, &mut inc, dup, |inc| inc.replace_subtrees(twice));
    }

    #[test]
    fn replaced_leaf_is_no_longer_a_target() {
        let g = sum_grammar();
        let mut inc =
            IncrementalEvaluator::new(&g, build_tree(&g, &[1, 2, 3, 4]), Equality::default())
                .unwrap();
        let one = leaf(&inc, 1);
        inc.replace_subtree(one, &leaf_tree(&g, 100)).unwrap();
        let gone = TreeError::Detached { node: one };
        assert_rejected(&g, &mut inc, gone, |inc| {
            inc.replace_subtree(one, &leaf_tree(&g, 5))
        });
    }

    #[test]
    fn swap_below_a_replaced_node_is_rejected() {
        let g = sum_grammar();
        let mut inc = IncrementalEvaluator::new(
            &g,
            build_tree(&g, &[1, 2, 3, 4, 5, 6, 7, 8]),
            Equality::default(),
        )
        .unwrap();
        // Replace the fork over 2..8; the fork over 3..8 goes with it.
        let upper = inc.tree().node(leaf(&inc, 2)).parent().unwrap();
        let lower = inc.tree().node(upper).children()[1];
        inc.replace_subtree(upper, &leaf_tree(&g, 5)).unwrap();
        let forkmax = g.production_by_name("forkmax").unwrap();
        let gone = TreeError::Detached { node: lower };
        assert_rejected(&g, &mut inc, gone, |inc| {
            inc.swap_production(lower, forkmax)
        });
    }

    #[test]
    fn batch_with_a_bad_edit_changes_nothing() {
        let g = sum_grammar();
        let mut inc =
            IncrementalEvaluator::new(&g, build_tree(&g, &[1, 2, 3, 4]), Equality::default())
                .unwrap();
        let mut tb = TreeBuilder::new(&g);
        let leafe = g.production_by_name("leafe").unwrap();
        let nl = tb.node_with_token(leafe, &[], Some(Value::Int(7))).unwrap();
        let s_root = tb.op("root", &[nl]).unwrap();
        let s_tree = tb.finish(s_root);
        let edits = vec![(leaf(&inc, 1), leaf_tree(&g, 100)), (leaf(&inc, 2), s_tree)];
        let wrong = TreeError::ReplacePhylum {
            expected: "E".into(),
            found: "S".into(),
        };
        assert_rejected(&g, &mut inc, wrong, |inc| inc.replace_subtrees(edits));
        let s = g.phylum_by_name("S").unwrap();
        let total = g.attr_by_name(s, "total").unwrap();
        assert_eq!(inc.value(inc.tree().root(), total), Some(&Value::Int(10)));
    }

    #[test]
    fn swap_changing_the_local_count_and_back() {
        let g = sum_grammar();
        let mut inc =
            IncrementalEvaluator::new(&g, build_tree(&g, &[1, 2, 3, 4, 5]), Equality::default())
                .unwrap();
        let fork = g.production_by_name("fork").unwrap();
        let forkdbl = g.production_by_name("forkdbl").unwrap();
        let forks: Vec<NodeId> = inc
            .tree()
            .preorder()
            .map(|(n, _)| n)
            .filter(|&n| inc.tree().node(n).production() == fork)
            .collect();
        // Two locals in, none out, at an inner node and at the top.
        for &at in &[forks[2], forks[0]] {
            inc.swap_production(at, forkdbl).unwrap();
            assert_matches_scratch(&g, &inc);
        }
        let s = g.phylum_by_name("S").unwrap();
        let total = g.attr_by_name(s, "total").unwrap();
        // 2 * (1 + 2 + 2 * (3 + 4 + 5)) = 54.
        assert_eq!(inc.value(inc.tree().root(), total), Some(&Value::Int(54)));
        for &at in &[forks[0], forks[2]] {
            inc.swap_production(at, fork).unwrap();
            assert_matches_scratch(&g, &inc);
        }
        assert_eq!(inc.value(inc.tree().root(), total), Some(&Value::Int(15)));
    }

    #[test]
    fn batch_decorates_like_one_edit_at_a_time() {
        let g = sum_grammar();
        let tree = build_tree(&g, &[1, 2, 3, 4, 5, 6, 7, 8]);
        let mut batch = IncrementalEvaluator::new(&g, tree.clone(), Equality::default()).unwrap();
        let mut single = IncrementalEvaluator::new(&g, tree, Equality::default()).unwrap();
        // Leaf 8 becomes a fork over two fresh leaves.
        let mut tb = TreeBuilder::new(&g);
        let leafe = g.production_by_name("leafe").unwrap();
        let kids = [20, 30].map(|v| tb.node_with_token(leafe, &[], Some(Value::Int(v))).unwrap());
        let pair = tb.op("fork", &kids).unwrap();
        let edits = vec![
            (leaf(&batch, 1), leaf_tree(&g, 10)),
            (leaf(&batch, 8), tb.finish(pair)),
        ];
        for (at, sub) in &edits {
            single.replace_subtree(*at, sub).unwrap();
        }
        batch.replace_subtrees(edits).unwrap();
        assert_eq!(
            format!("{:?}", batch.tree()),
            format!("{:?}", single.tree())
        );
        let differs = |&(n, a): &_| batch.value(n, a) != single.value(n, a);
        if let Some((n, _)) = batch.tree().attr_instances(&g).find(differs) {
            panic!("{n}");
        }
        assert_matches_scratch(&g, &batch);
    }
}
