//! The DNC-based incremental evaluator.
//!
//! Keeps a fully decorated tree; after one or more subtree replacements it
//! (1) evaluates the fresh subtree *starting at its root* — legal exactly
//! because DNC argument selectors are closed from above and below — and
//! (2) runs the semantic-control propagation: dependents of a **Changed**
//! instance are reevaluated, and propagation is **cut** at instances whose
//! new value equals the old one.

use std::collections::VecDeque;

use fnc2_ag::{
    AttrKind, AttrValues, Grammar, LocalFrames, LocalId, NodeId, ONode, Occ, ProductionId, Tree,
    TreeError, Value,
};
use fnc2_guard::{BudgetMeter, EvalBudget};
use fnc2_obs::{ChangeStatus, Counters, Event, Key, NoopRecorder, Recorder, RuleProfiler};
use fnc2_visit::{CompiledProgram, EvalError, InternCtx, RootInputs};

use crate::status::Equality;

/// Counters for one incremental wave (the §2.1.2 economy argument: compare
/// `reevaluated` with the instance count of a full evaluation).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IncrementalStats {
    /// Rule evaluations performed (fresh subtree + propagation).
    pub reevaluated: usize,
    /// Instances whose value actually changed.
    pub changed: usize,
    /// Instances reevaluated to an equal value (propagation cut there).
    pub cut: usize,
}

impl IncrementalStats {
    /// The stats as seen through the shared [`fnc2_obs`] counter
    /// vocabulary (`cut` maps to `inc.unchanged`).
    pub fn from_counters(counters: &Counters) -> IncrementalStats {
        IncrementalStats {
            reevaluated: counters.get(Key::IncReevaluated) as usize,
            changed: counters.get(Key::IncChanged) as usize,
            cut: counters.get(Key::IncUnchanged) as usize,
        }
    }

    /// The stats as a dense counter block (inverse of
    /// [`IncrementalStats::from_counters`]; `inc.unknown` is tracked by
    /// the evaluator itself, not by this view).
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
    tree: Tree,
    values: AttrValues,
    locals: LocalFrames,
    inputs: RootInputs,
    eq: Equality,
    budget: EvalBudget,
    /// The hash-cons context, owned for the evaluator's whole lifetime so
    /// canonical identities stay comparable across edit waves (the O(1)
    /// cutoff compares a value interned in one wave with one interned in a
    /// later wave). `None` disables interning (`--no-intern`).
    ictx: Option<InternCtx>,
}

/// An attribute or local instance.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum Inst {
    Attr(NodeId, fnc2_ag::AttrId),
    Local(NodeId, LocalId),
}

impl<'g> IncrementalEvaluator<'g> {
    /// Fully evaluates `tree` (which must have no root inherited
    /// attributes) and takes ownership of it, with interning on and the
    /// default [`EvalBudget`].
    ///
    /// # Errors
    ///
    /// Fails if the tree's instances are circular or a token is missing.
    pub fn new(grammar: &'g Grammar, tree: Tree, eq: Equality) -> Result<Self, EvalError> {
        Self::with_inputs(
            grammar,
            tree,
            RootInputs::new(),
            eq,
            EvalBudget::default(),
            true,
        )
    }

    /// Like [`new`](Self::new), but supplies the root's inherited
    /// attributes, an explicit [`EvalBudget`] (which also governs every
    /// later edit wave) and whether to hash-cons values. With interning
    /// and the default structural [`Equality`] the change cutoff is an
    /// O(1) identity comparison and semantic functions are memoized;
    /// `intern: false` is the `--no-intern` differential escape hatch.
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
        intern: bool,
    ) -> Result<Self, EvalError> {
        let mut this = IncrementalEvaluator {
            grammar,
            program: CompiledProgram::new(grammar),
            tree,
            values: AttrValues::default(),
            locals: LocalFrames::default(),
            inputs,
            eq,
            budget,
            ictx: intern.then(InternCtx::local),
        };
        this.values = AttrValues::new(grammar, &this.tree);
        this.locals = LocalFrames::new(grammar, &this.tree);
        let root = this.tree.root();
        let root_ph = grammar.production(this.tree.node(root).production()).lhs();
        let mut icounters = Counters::new();
        for attr in grammar.inherited(root_ph) {
            let v = this
                .inputs
                .get(&attr)
                .ok_or_else(|| EvalError::MissingRootInput {
                    what: grammar.attr(attr).name().to_string(),
                })?
                .clone();
            let v = match &mut this.ictx {
                Some(ictx) => ictx.intern(v, &mut icounters).0,
                None => v,
            };
            this.values.set(grammar, root, attr, v);
        }
        let mut stats = IncrementalStats::default();
        let mut unknown = 0usize;
        let mut meter = BudgetMeter::new(&this.budget);
        this.eval_subtree(
            root,
            &mut stats,
            &mut unknown,
            &mut meter,
            &mut NoopRecorder,
        )?;
        Ok(this)
    }

    /// Replaces the budget governing subsequent edit waves.
    pub fn set_budget(&mut self, budget: EvalBudget) {
        self.budget = budget;
    }

    /// True when this evaluator hash-conses its values.
    pub fn interning(&self) -> bool {
        self.ictx.is_some()
    }

    /// Decides whether `old` and `new` are the same value for the change
    /// cutoff. Identity equality short-circuits first (two live values
    /// with one identity are the same allocation, and any reflexive
    /// equality accepts them); with interning and the default structural
    /// equality, two *stable* values with distinct identities are known
    /// different in O(1) — no deep traversal in either direction.
    fn values_same(&self, old: &Value, new: &Value) -> bool {
        if old.ident() == new.ident() {
            return true;
        }
        if self.eq.is_structural() {
            if let Some(ictx) = &self.ictx {
                if ictx.is_stable(old) && ictx.is_stable(new) {
                    return false;
                }
            }
            old == new
        } else {
            self.eq.same(old, new)
        }
    }

    /// Canonicalizes `v` when interning is on (setup paths outside the
    /// compiled rule programs).
    fn intern_value(&mut self, v: Value) -> Value {
        match &mut self.ictx {
            Some(ictx) => {
                let mut scratch = Counters::new();
                ictx.intern(v, &mut scratch).0
            }
            None => v,
        }
    }

    /// The decorated tree.
    pub fn tree(&self) -> &Tree {
        &self.tree
    }

    /// The current value of `(node, attr)`.
    pub fn value(&self, node: NodeId, attr: fnc2_ag::AttrId) -> Option<&Value> {
        self.values.get(self.grammar, node, attr)
    }

    /// Total number of live attribute instances (for comparing incremental
    /// cost with exhaustive cost).
    pub fn instance_count(&self) -> usize {
        self.tree
            .preorder()
            .map(|(n, _)| {
                let ph = self.tree.phylum(self.grammar, n);
                self.grammar.phylum(ph).attrs().len()
            })
            .sum()
    }

    /// Replaces the subtree at `at` and reevaluates incrementally.
    ///
    /// # Errors
    ///
    /// Fails if the replacement derives the wrong phylum, or evaluation
    /// fails.
    pub fn replace_subtree(
        &mut self,
        at: NodeId,
        replacement: &Tree,
    ) -> Result<IncrementalStats, Box<dyn std::error::Error>> {
        self.replace_subtrees(vec![(at, replacement.clone())])
    }

    /// Applies several subtree replacements, then runs one combined
    /// reevaluation wave (paper §2.1.2: "this method can accommodate
    /// multiple subtree replacements").
    ///
    /// # Errors
    ///
    /// Fails if a replacement derives the wrong phylum ([`TreeError`]), or
    /// evaluation fails ([`EvalError`]).
    pub fn replace_subtrees(
        &mut self,
        edits: Vec<(NodeId, Tree)>,
    ) -> Result<IncrementalStats, Box<dyn std::error::Error>> {
        self.replace_subtrees_recorded(edits, &mut NoopRecorder)
    }

    /// [`replace_subtrees`](Self::replace_subtrees), instrumented: the
    /// wave's counters are replayed into `rec` under the `inc.*` keys
    /// (`inc.unknown` counts fresh instances with no prior value), and
    /// when tracing is on every semantic-control decision emits a
    /// `StatusComputed` event.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`replace_subtrees`](Self::replace_subtrees).
    pub fn replace_subtrees_recorded<R: Recorder>(
        &mut self,
        edits: Vec<(NodeId, Tree)>,
        rec: &mut R,
    ) -> Result<IncrementalStats, Box<dyn std::error::Error>> {
        let g = self.grammar;
        let mut stats = IncrementalStats::default();
        let mut unknown = 0usize;
        let mut meter = BudgetMeter::new(&self.budget);
        let mut frontier: Vec<NodeId> = Vec::new();

        for (at, replacement) in edits {
            // Save the old boundary values of the replaced node.
            let ph = self.tree.phylum(g, at);
            let old: Vec<(fnc2_ag::AttrId, Option<Value>)> = g
                .phylum(ph)
                .attrs()
                .iter()
                .map(|&a| (a, self.values.get(g, at, a).cloned()))
                .collect();
            let new_root = self
                .tree
                .replace_subtree(g, at, &replacement)
                .map_err(Box::<TreeError>::new)?;
            self.values.sync(g, &self.tree);
            self.locals.sync(g, &self.tree);

            // Re-establish the inherited attributes of the new subtree root
            // (same defining rules in the parent, hence the old values).
            for (a, v) in &old {
                if g.attr(*a).kind() == AttrKind::Inherited {
                    if let Some(v) = v.clone() {
                        self.values.set(g, new_root, *a, v);
                    }
                }
            }
            if self.tree.node(new_root).parent().is_none() {
                // Replacing the root: supply the root inputs.
                for a in g.inherited(ph) {
                    if let Some(v) = self.inputs.get(&a) {
                        let v = v.clone();
                        let v = self.intern_value(v);
                        self.values.set(g, new_root, a, v);
                    }
                }
            }
            // Evaluate the fresh subtree, starting at its root (DNC).
            self.eval_subtree(new_root, &mut stats, &mut unknown, &mut meter, rec)
                .map_err(Box::new)?;
            // Seed propagation with the synthesized attributes whose value
            // differs from the replaced node's.
            for (a, oldv) in old {
                if g.attr(a).kind() != AttrKind::Synthesized {
                    continue;
                }
                let newv = self.values.get(g, new_root, a);
                let same = match (&oldv, newv) {
                    (Some(o), Some(n)) => self.values_same(o, n),
                    (None, None) => true,
                    _ => false,
                };
                if !same {
                    stats.changed += 1;
                    frontier.push(new_root);
                }
            }
        }

        // Propagation wave over changed instances.
        let mut queue: VecDeque<Inst> = VecDeque::new();
        let mut seed_changed: Vec<Inst> = Vec::new();
        for n in frontier {
            let ph = self.tree.phylum(g, n);
            for a in g.synthesized(ph) {
                seed_changed.push(Inst::Attr(n, a));
            }
        }
        for inst in seed_changed {
            self.enqueue_dependents(inst, &mut queue);
        }
        self.propagate(&mut queue, &mut stats, &mut unknown, &mut meter, rec)?;
        let mut counters = stats.to_counters();
        counters.set(Key::IncUnknown, unknown as u64);
        counters.replay(rec);
        Ok(stats)
    }

    /// Replaces the production applied at `at` **in place** (the
    /// operator-swap edit — see [`Tree::replace_production`]) and
    /// reevaluates incrementally: the node's attribute cells and everything
    /// it dominates are invalidated and recomputed, then the usual
    /// semantic-control propagation runs above it with equality cuts.
    ///
    /// # Errors
    ///
    /// Fails if the new production has a different LHS phylum or RHS
    /// signature ([`TreeError`]), or evaluation fails ([`EvalError`]).
    pub fn swap_production(
        &mut self,
        at: NodeId,
        production: ProductionId,
    ) -> Result<IncrementalStats, Box<dyn std::error::Error>> {
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
    ) -> Result<IncrementalStats, Box<dyn std::error::Error>> {
        let g = self.grammar;
        let mut stats = IncrementalStats::default();
        let mut unknown = 0usize;
        let mut meter = BudgetMeter::new(&self.budget);
        let ph = self.tree.phylum(g, at);
        let old: Vec<(fnc2_ag::AttrId, Option<Value>)> = g
            .phylum(ph)
            .attrs()
            .iter()
            .map(|&a| (a, self.values.get(g, at, a).cloned()))
            .collect();
        self.tree
            .replace_production(g, at, production)
            .map_err(Box::<TreeError>::new)?;
        // The stores detect the in-place swap and drop the node's stale
        // cells; the subtree below is invalidated explicitly, since its
        // inherited attributes flowed through the replaced rules.
        self.values.sync(g, &self.tree);
        self.locals.sync(g, &self.tree);
        let mut subtree = vec![at];
        let mut i = 0;
        while i < subtree.len() {
            let n = subtree[i];
            i += 1;
            subtree.extend(self.tree.node(n).children().iter().copied());
        }
        for &n in &subtree[1..] {
            let nph = self.tree.phylum(g, n);
            for &a in g.phylum(nph).attrs() {
                self.values.clear(g, n, a);
            }
        }
        for &n in &subtree {
            let p = self.tree.node(n).production();
            for li in 0..g.production(p).locals().len() {
                self.locals.clear(n, LocalId::from_raw(li as u32));
            }
        }
        // Re-establish the node's inherited attributes: their defining
        // rules live in the (unchanged) parent production.
        for (a, v) in &old {
            if g.attr(*a).kind() == AttrKind::Inherited {
                if let Some(v) = v.clone() {
                    self.values.set(g, at, *a, v);
                }
            }
        }
        if self.tree.node(at).parent().is_none() {
            for a in g.inherited(ph) {
                if let Some(v) = self.inputs.get(&a) {
                    let v = v.clone();
                    let v = self.intern_value(v);
                    self.values.set(g, at, a, v);
                }
            }
        }
        self.eval_subtree(at, &mut stats, &mut unknown, &mut meter, rec)
            .map_err(Box::new)?;
        // Seed propagation with the synthesized attributes whose value
        // differs from the pre-swap decoration.
        let mut queue: VecDeque<Inst> = VecDeque::new();
        let mut changed_syn = false;
        for (a, oldv) in old {
            if g.attr(a).kind() != AttrKind::Synthesized {
                continue;
            }
            let newv = self.values.get(g, at, a);
            let same = match (&oldv, newv) {
                (Some(o), Some(n)) => self.values_same(o, n),
                (None, None) => true,
                _ => false,
            };
            if !same {
                stats.changed += 1;
                changed_syn = true;
            }
        }
        if changed_syn {
            for a in g.synthesized(ph) {
                self.enqueue_dependents(Inst::Attr(at, a), &mut queue);
            }
        }
        self.propagate(&mut queue, &mut stats, &mut unknown, &mut meter, rec)?;
        let mut counters = stats.to_counters();
        counters.set(Key::IncUnknown, unknown as u64);
        counters.replay(rec);
        Ok(stats)
    }

    /// Drains the propagation queue: dependents of changed instances are
    /// reevaluated, with propagation cut where the new value equals the
    /// old one.
    fn propagate<R: Recorder>(
        &mut self,
        queue: &mut VecDeque<Inst>,
        stats: &mut IncrementalStats,
        unknown: &mut usize,
        meter: &mut BudgetMeter,
        rec: &mut R,
    ) -> Result<(), Box<dyn std::error::Error>> {
        let g = self.grammar;
        while let Some(inst) = queue.pop_front() {
            meter
                .step()
                .map_err(|k| Box::new(EvalError::budget(k, "incremental propagation")))?;
            let (newv, oldv) = {
                let old = match inst {
                    Inst::Attr(n, a) => self.values.get(g, n, a).cloned(),
                    Inst::Local(n, l) => self.locals.get(n, l).cloned(),
                };
                let new = self.compute_instance(inst, rec).map_err(Box::new)?;
                (new, old)
            };
            meter
                .grow_cells(newv.cell_count() as u64)
                .map_err(|k| Box::new(EvalError::budget(k, "incremental propagation")))?;
            stats.reevaluated += 1;
            let same = oldv
                .as_ref()
                .map(|o| self.values_same(o, &newv))
                .unwrap_or(false);
            if oldv.is_none() {
                *unknown += 1;
            }
            if rec.trace() {
                if let Inst::Attr(n, a) = inst {
                    let status = if oldv.is_none() {
                        ChangeStatus::Unknown
                    } else if same {
                        ChangeStatus::Unchanged
                    } else {
                        ChangeStatus::Changed
                    };
                    rec.emit(Event::StatusComputed {
                        node: n.index() as u32,
                        attr: a.index() as u32,
                        status,
                    });
                }
            }
            if same {
                stats.cut += 1;
                continue;
            }
            stats.changed += 1;
            match inst {
                Inst::Attr(n, a) => {
                    self.values.set(g, n, a, newv);
                }
                Inst::Local(n, l) => {
                    self.locals.set(n, l, newv);
                }
            }
            self.enqueue_dependents(inst, queue);
        }
        Ok(())
    }

    /// Exhaustively evaluates the subtree rooted at `node`, whose inherited
    /// attributes must already have values.
    fn eval_subtree<R: Recorder>(
        &mut self,
        node: NodeId,
        stats: &mut IncrementalStats,
        unknown: &mut usize,
        meter: &mut BudgetMeter,
        rec: &mut R,
    ) -> Result<(), EvalError> {
        let g = self.grammar;
        // Demand-driven over the subtree's instances (memoized by
        // presence).
        let subtree: Vec<NodeId> = {
            let mut v = Vec::new();
            let mut stack = vec![node];
            while let Some(n) = stack.pop() {
                v.push(n);
                stack.extend(self.tree.node(n).children().iter().copied());
            }
            v
        };
        let goals: Vec<Inst> = subtree
            .iter()
            .flat_map(|&n| {
                let ph = self.tree.phylum(g, n);
                g.phylum(ph)
                    .attrs()
                    .iter()
                    .map(move |&a| Inst::Attr(n, a))
                    .collect::<Vec<_>>()
            })
            .collect();
        for goal in goals {
            self.demand(goal, stats, unknown, meter, rec)?;
        }
        Ok(())
    }

    /// Demand-evaluates `goal` within the subtree rooted at `limit`;
    /// instances outside the subtree must already have values.
    ///
    /// Runs on an explicit work-stack so tree depth is a checked budget
    /// rather than native stack exhaustion. DNC membership guarantees the
    /// demand graph is acyclic; the depth budget bounds accidental cycles
    /// from malformed programs.
    fn demand<R: Recorder>(
        &mut self,
        goal: Inst,
        stats: &mut IncrementalStats,
        unknown: &mut usize,
        meter: &mut BudgetMeter,
        rec: &mut R,
    ) -> Result<(), EvalError> {
        enum Task {
            Enter(Inst),
            Finish(Inst),
        }
        let g = self.grammar;
        let mut stack: Vec<Task> = vec![Task::Enter(goal)];
        while let Some(task) = stack.pop() {
            match task {
                Task::Enter(goal) => {
                    match goal {
                        Inst::Attr(n, a) if self.values.get(g, n, a).is_some() => continue,
                        Inst::Local(n, l) if self.locals.get(n, l).is_some() => continue,
                        _ => {}
                    }
                    // Resolve the defining rule through the compiled index.
                    let (def_node, target) = self.definition_of(goal);
                    let p = self.tree.node(def_node).production();
                    let rule_ix = self
                        .program
                        .production(p)
                        .rule_index(target)
                        .expect("validated grammar");
                    let rule = &g.production(p).rules()[rule_ix as usize];
                    stack.push(Task::Finish(goal));
                    let base = stack.len();
                    for arg in rule.read_nodes() {
                        let sub = match arg {
                            ONode::Attr(Occ { pos, attr }) => {
                                let at = if pos == 0 {
                                    def_node
                                } else {
                                    self.tree.node(def_node).children()[pos as usize - 1]
                                };
                                Inst::Attr(at, attr)
                            }
                            ONode::Local(l) => Inst::Local(def_node, l),
                        };
                        stack.push(Task::Enter(sub));
                    }
                    stack[base..].reverse();
                    meter.check_depth(stack.len()).map_err(|k| {
                        EvalError::budget(k, format!("incremental evaluator, {def_node}"))
                    })?;
                }
                Task::Finish(goal) => {
                    meter
                        .step()
                        .map_err(|k| EvalError::budget(k, "incremental evaluator"))?;
                    let v = self.compute_instance(goal, rec)?;
                    meter
                        .grow_cells(v.cell_count() as u64)
                        .map_err(|k| EvalError::budget(k, "incremental evaluator"))?;
                    stats.reevaluated += 1;
                    *unknown += 1;
                    if rec.trace() {
                        if let Inst::Attr(n, a) = goal {
                            rec.emit(Event::StatusComputed {
                                node: n.index() as u32,
                                attr: a.index() as u32,
                                status: ChangeStatus::Unknown,
                            });
                        }
                    }
                    match goal {
                        Inst::Attr(n, a) => {
                            self.values.set(g, n, a, v);
                        }
                        Inst::Local(n, l) => {
                            self.locals.set(n, l, v);
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// The (defining node, target occurrence) of an instance.
    fn definition_of(&self, inst: Inst) -> (NodeId, ONode) {
        let g = self.grammar;
        match inst {
            Inst::Local(n, l) => (n, ONode::Local(l)),
            Inst::Attr(n, a) => match g.attr(a).kind() {
                AttrKind::Synthesized => (n, ONode::Attr(Occ::lhs(a))),
                AttrKind::Inherited => {
                    let parent = self
                        .tree
                        .node(n)
                        .parent()
                        .expect("root inherited supplied as inputs");
                    let pos = self.tree.child_index(n).expect("child position") as u16;
                    (parent, ONode::Attr(Occ::new(pos, a)))
                }
            },
        }
    }

    /// Recomputes an instance's value through the slot-compiled program,
    /// replaying fetch counters into `rec` and — when profiling or tracing
    /// is on — attributing the firing to its `(production, rule)` pair.
    /// With interning on, the result is canonical and the memo cache may
    /// answer without firing the semantic function at all.
    fn compute_instance<R: Recorder>(
        &mut self,
        inst: Inst,
        rec: &mut R,
    ) -> Result<Value, EvalError> {
        let g = self.grammar;
        let (def_node, target) = self.definition_of(inst);
        let p = self.tree.node(def_node).production();
        let rule = self
            .program
            .production(p)
            .rule_index(target)
            .expect("validated grammar");
        let mut buf = Vec::with_capacity(4);
        let mut counters = Counters::new();
        let t0 = rec
            .profiler()
            .is_some_and(RuleProfiler::should_sample)
            .then(std::time::Instant::now);
        let (v, is_copy) = self.program.eval_rule(
            g,
            &self.tree,
            p,
            rule,
            def_node,
            &self.values,
            &self.locals,
            &mut buf,
            &mut counters,
            self.ictx.as_mut(),
        )?;
        counters.replay(rec);
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
                node: def_node.index() as u32,
                production: p.index() as u32,
                rule,
            });
        }
        Ok(v)
    }

    /// Enqueues the instances that read `inst`.
    fn enqueue_dependents(&self, inst: Inst, queue: &mut VecDeque<Inst>) {
        let g = self.grammar;
        let mut push = |i: Inst| {
            if !queue.contains(&i) {
                queue.push_back(i);
            }
        };
        // Readers live in the production at the node (LHS occurrence of an
        // attribute, or a local) and — for attributes — in the parent's
        // production (child occurrence).
        let mut contexts: Vec<(NodeId, ONode)> = Vec::new();
        match inst {
            Inst::Local(n, l) => contexts.push((n, ONode::Local(l))),
            Inst::Attr(n, a) => {
                contexts.push((n, ONode::Attr(Occ::lhs(a))));
                if let Some(parent) = self.tree.node(n).parent() {
                    let pos = self.tree.child_index(n).expect("child position") as u16;
                    contexts.push((parent, ONode::Attr(Occ::new(pos, a))));
                }
            }
        }
        for (host, as_node) in contexts {
            let p = self.tree.node(host).production();
            for rule in g.production(p).rules() {
                if !rule.read_nodes().any(|r| r == as_node) {
                    continue;
                }
                let dep = match rule.target() {
                    ONode::Attr(Occ { pos, attr }) => {
                        let at = if pos == 0 {
                            host
                        } else {
                            self.tree.node(host).children()[pos as usize - 1]
                        };
                        Inst::Attr(at, attr)
                    }
                    ONode::Local(l) => Inst::Local(host, l),
                };
                push(dep);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use fnc2_ag::{Grammar, GrammarBuilder, Occ, TreeBuilder, Value};
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
        g.finish().unwrap()
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
        // The fresh leaf is evaluated but no propagation occurs.
        assert_eq!(stats.changed, 0, "{stats:?}");
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
}
