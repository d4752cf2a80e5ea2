//! The demand-driven (dynamically scheduled) evaluator.
//!
//! FNC-2 "ruled out methods based on dynamic scheduling" for production
//! evaluators (paper §2.1.1) but still ships one: during development, the
//! system can emit "non-deterministic visit-sequences directly after the
//! SNC test" with no space optimization. This module plays that role — it
//! needs no plans at all, works for every non-circular tree (even when the
//! grammar is outside SNC), detects circular instances at run time, and is
//! the baseline the deterministic evaluator is benchmarked against.
//!
//! It demands the instances of [`Tree::attr_instances`] in order. The
//! tree names the rule application that defines a goal
//! ([`Tree::definition`]) and the instances its arguments read
//! ([`Tree::instance`]); the scheduling, a memo and an explicit demand
//! stack, and the rule evaluation ([`eval_rule`]) are this module's own,
//! which keeps it an independent check of the visit-sequence evaluators.

use std::collections::HashMap;

use fnc2_ag::{
    AttrId, AttrValues, Grammar, Inst, LocalId, NodeId, ONode, ProductionId, Tree, Value,
};
use fnc2_guard::{BudgetMeter, EvalBudget};
use fnc2_obs::{Event, NoopRecorder, Recorder, RuleProfiler};

use crate::exhaustive::{EvalStats, RootInputs};
use crate::rules::{eval_rule, EvalError, Store};

/// The demand-driven evaluator.
#[derive(Debug)]
pub struct DynamicEvaluator<'g> {
    grammar: &'g Grammar,
}

struct DynStore<'a> {
    grammar: &'a Grammar,
    values: &'a AttrValues,
    locals: &'a HashMap<(NodeId, LocalId), Value>,
}

impl Store for DynStore<'_> {
    fn value(&self, node: NodeId, attr: AttrId) -> Option<Value> {
        self.values.get(self.grammar, node, attr).cloned()
    }
    fn local(&self, node: NodeId, local: LocalId) -> Option<Value> {
        self.locals.get(&(node, local)).cloned()
    }
}

impl<'g> DynamicEvaluator<'g> {
    /// Creates a demand-driven evaluator for `grammar`.
    pub fn new(grammar: &'g Grammar) -> Self {
        DynamicEvaluator { grammar }
    }

    /// Evaluates every attribute instance of `tree`, demand-driven with
    /// memoization.
    ///
    /// # Errors
    ///
    /// Fails with [`EvalError::CircularInstance`] when the tree's instances
    /// are circular, or [`EvalError::MissingRootInput`] when a root
    /// inherited attribute is not supplied.
    pub fn evaluate(
        &self,
        tree: &Tree,
        inputs: &RootInputs,
    ) -> Result<(AttrValues, EvalStats), EvalError> {
        self.evaluate_with(tree, inputs, &EvalBudget::default(), &mut NoopRecorder)
    }

    /// [`DynamicEvaluator::evaluate`] under an explicit [`EvalBudget`]
    /// (with its injected fault, if any, armed), instrumented: run
    /// counters are replayed into `rec`, every fired rule emits a
    /// `RuleFired` event when tracing is on, and the per-rule profiler
    /// hooks are honored. With [`NoopRecorder`] this monomorphizes to the
    /// bare loop.
    ///
    /// # Errors
    ///
    /// As for [`DynamicEvaluator::evaluate`], plus
    /// [`EvalError::BudgetExceeded`] when a limit is exhausted or the
    /// injected fault fires.
    pub fn evaluate_with<R: Recorder>(
        &self,
        tree: &Tree,
        inputs: &RootInputs,
        budget: &EvalBudget,
        rec: &mut R,
    ) -> Result<(AttrValues, EvalStats), EvalError> {
        self.evaluate_inner(tree, inputs, budget, rec, false)
    }

    /// Demand-driven evaluation of the **root outputs only**: demands just
    /// the root phylum's synthesized attributes and whatever they
    /// transitively require, leaving every other instance unevaluated.
    ///
    /// This is the oracle for the dead-rule lint (`L002`): a rule whose
    /// target cannot reach a root output through the static liveness
    /// fixpoint must never fire here, on any tree.
    ///
    /// # Errors
    ///
    /// As for [`DynamicEvaluator::evaluate_with`].
    pub fn evaluate_outputs<R: Recorder>(
        &self,
        tree: &Tree,
        inputs: &RootInputs,
        budget: &EvalBudget,
        rec: &mut R,
    ) -> Result<(AttrValues, EvalStats), EvalError> {
        self.evaluate_inner(tree, inputs, budget, rec, true)
    }

    fn evaluate_inner<R: Recorder>(
        &self,
        tree: &Tree,
        inputs: &RootInputs,
        budget: &EvalBudget,
        rec: &mut R,
        outputs_only: bool,
    ) -> Result<(AttrValues, EvalStats), EvalError> {
        let g = self.grammar;
        let mut meter = BudgetMeter::new(budget);
        let mut values = AttrValues::new(g, tree);
        let mut locals: HashMap<(NodeId, LocalId), Value> = HashMap::new();
        let mut stats = EvalStats::default();
        let root = tree.root();
        let root_ph = g.production(tree.node(root).production()).lhs();
        for attr in g.inherited(root_ph) {
            let v = inputs
                .get(&attr)
                .ok_or_else(|| EvalError::MissingRootInput {
                    what: g.attr(attr).name().to_string(),
                })?;
            values.set(g, root, attr, v.clone());
        }

        // Demand every instance of every node — or, outputs-only, just the
        // root synthesized attributes.
        let all: Vec<(NodeId, AttrId)> = if outputs_only {
            g.synthesized(root_ph)
                .into_iter()
                .map(|a| (root, a))
                .collect()
        } else {
            tree.attr_instances(g).collect()
        };
        let mut in_progress: HashMap<Inst, bool> = HashMap::new();
        for (n, a) in all {
            self.demand(
                tree,
                Inst::Attr(n, a),
                &mut values,
                &mut locals,
                &mut in_progress,
                &mut stats,
                &mut meter,
                rec,
            )?;
        }
        stats.to_counters(false).replay(rec);
        Ok((values, stats))
    }

    /// Evaluates `goal` with memoization and cycle detection, iteratively:
    /// the demand chain lives on an explicit heap stack (a list-like tree
    /// produces demand chains as deep as the tree), and its length is a
    /// checked [`fnc2_guard::BudgetKind::Depth`] budget instead of a
    /// thread-stack overflow.
    #[allow(clippy::too_many_arguments)]
    fn demand<R: Recorder>(
        &self,
        tree: &Tree,
        goal: Inst,
        values: &mut AttrValues,
        locals: &mut HashMap<(NodeId, LocalId), Value>,
        in_progress: &mut HashMap<Inst, bool>,
        stats: &mut EvalStats,
        meter: &mut BudgetMeter,
        rec: &mut R,
    ) -> Result<(), EvalError> {
        let g = self.grammar;
        /// `Enter` demands a goal (memo check, cycle mark, push args);
        /// `Finish` fires its rule once every argument below it completed.
        enum Task {
            Enter(Inst),
            Finish(Inst, NodeId, ProductionId, ONode),
        }
        let mut stack: Vec<Task> = vec![Task::Enter(goal)];
        while let Some(task) = stack.pop() {
            match task {
                Task::Enter(goal) => {
                    match goal {
                        Inst::Attr(n, a) if values.get(g, n, a).is_some() => continue,
                        Inst::Local(n, l) if locals.contains_key(&(n, l)) => continue,
                        _ => {}
                    }
                    if in_progress.insert(goal, true).is_some() {
                        return Err(EvalError::CircularInstance {
                            node: goal.node(),
                            what: goal.name(g, tree).to_string(),
                        });
                    }
                    let (def_node, target) = tree
                        .definition(g, goal)
                        .expect("root inherited supplied as inputs");
                    let def_prod = tree.node(def_node).production();

                    // Finish after the arguments; push them reversed so they
                    // are demanded in rule order.
                    let rule = g
                        .rule_for(def_prod, target)
                        .expect("validated grammar defines every output");
                    stack.push(Task::Finish(goal, def_node, def_prod, target));
                    let base = stack.len();
                    for arg in rule.read_nodes() {
                        stack.push(Task::Enter(tree.instance(def_node, arg)));
                    }
                    stack[base..].reverse();
                    meter.check_depth(stack.len()).map_err(|k| {
                        EvalError::budget(k, format!("dynamic evaluator, {def_node}"))
                    })?;
                }
                Task::Finish(goal, def_node, def_prod, target) => {
                    meter.step().map_err(|k| {
                        EvalError::budget(k, format!("dynamic evaluator, {def_node}"))
                    })?;
                    let t0 = rec
                        .profiler()
                        .is_some_and(RuleProfiler::should_sample)
                        .then(std::time::Instant::now);
                    let (value, is_copy) = {
                        let store = DynStore {
                            grammar: g,
                            values,
                            locals,
                        };
                        eval_rule(g, tree, def_prod, def_node, target, &store)?
                    };
                    if rec.profiler().is_some() || rec.trace() {
                        // The rule index only matters to the instrumented
                        // paths, so the scan stays off the bare loop.
                        let rule_ix = g
                            .production(def_prod)
                            .rules()
                            .iter()
                            .position(|r| r.target() == target)
                            .expect("validated grammar defines every output")
                            as u32;
                        if let Some(prof) = rec.profiler() {
                            prof.record(
                                def_prod.index() as u32,
                                rule_ix,
                                is_copy,
                                t0.map(|t| t.elapsed().as_nanos() as u64),
                            );
                        }
                        if rec.trace() {
                            rec.emit(Event::RuleFired {
                                node: def_node.index() as u32,
                                production: def_prod.index() as u32,
                                rule: rule_ix,
                            });
                        }
                    }
                    meter.grow_cells(value.cell_count() as u64).map_err(|k| {
                        EvalError::budget(k, format!("dynamic evaluator, {def_node}"))
                    })?;
                    stats.evals += 1;
                    if is_copy {
                        stats.copies += 1;
                    }
                    match goal {
                        Inst::Attr(n, a) => {
                            values.set(g, n, a, value);
                        }
                        Inst::Local(n, l) => {
                            locals.insert((n, l), value);
                        }
                    }
                    in_progress.remove(&goal);
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use fnc2_ag::{GrammarBuilder, Occ, TreeBuilder};

    use super::*;

    #[test]
    fn dynamic_matches_semantics() {
        // Count the chain length two ways.
        let mut g = GrammarBuilder::new("count");
        let s = g.phylum("S");
        let n = g.syn(s, "n");
        let leaf = g.production("leaf", s, &[]);
        g.constant(leaf, Occ::lhs(n), Value::Int(0));
        let node = g.production("node", s, &[s]);
        g.func("succ", 1, |a| Value::Int(a[0].as_int() + 1));
        g.call(node, Occ::lhs(n), "succ", [Occ::new(1, n).into()]);
        let g = g.finish().unwrap();

        let mut tb = TreeBuilder::new(&g);
        let mut cur = tb.op("leaf", &[]).unwrap();
        for _ in 0..10 {
            cur = tb.op("node", &[cur]).unwrap();
        }
        let tree = tb.finish_root(cur).unwrap();
        let ev = DynamicEvaluator::new(&g);
        let (values, stats) = ev.evaluate(&tree, &RootInputs::new()).unwrap();
        assert_eq!(
            values.get(&g, tree.root(), g.attr_by_name(s, "n").unwrap()),
            Some(&Value::Int(10))
        );
        assert_eq!(stats.evals, 11, "memoized: one eval per instance");
    }

    /// Outputs-only demand must leave instances a dead rule would define
    /// untouched, and never fire the dead rule.
    #[test]
    fn outputs_only_skips_dead_rules() {
        struct Fired(Vec<(u32, u32)>);
        impl Recorder for Fired {
            fn trace(&self) -> bool {
                true
            }
            fn emit(&mut self, event: Event) {
                if let Event::RuleFired {
                    production, rule, ..
                } = event
                {
                    self.0.push((production, rule));
                }
            }
        }

        // R.out <- S.v; S.w is defined but feeds nothing.
        let mut g = GrammarBuilder::new("junk");
        let r = g.phylum("R");
        let out = g.syn(r, "out");
        let s = g.phylum("S");
        let v = g.syn(s, "v");
        let w = g.syn(s, "w");
        let top = g.production("top", r, &[s]);
        g.copy(top, Occ::lhs(out), Occ::new(1, v));
        let leaf = g.production("leaf", s, &[]);
        g.constant(leaf, Occ::lhs(v), Value::Int(1));
        g.constant(leaf, Occ::lhs(w), Value::Int(2));
        let g = g.finish().unwrap();

        let mut tb = TreeBuilder::new(&g);
        let l = tb.op("leaf", &[]).unwrap();
        let root = tb.op("top", &[l]).unwrap();
        let tree = tb.finish_root(root).unwrap();

        let ev = DynamicEvaluator::new(&g);
        let mut rec = Fired(Vec::new());
        let (values, _) = ev
            .evaluate_outputs(&tree, &RootInputs::new(), &EvalBudget::default(), &mut rec)
            .unwrap();
        assert_eq!(
            values.get(&g, tree.root(), out),
            Some(&Value::Int(1)),
            "root output still computed"
        );
        assert_eq!(values.get(&g, l, w), None, "dead instance never evaluated");
        let leaf_p = g.production_by_name("leaf").unwrap();
        let w_rule = g
            .production(leaf_p)
            .rules()
            .iter()
            .position(|rl| rl.target() == ONode::Attr(Occ::lhs(w)))
            .unwrap() as u32;
        assert!(
            !rec.0.contains(&(leaf_p.index() as u32, w_rule)),
            "dead rule fired: {:?}",
            rec.0
        );
    }

    #[test]
    fn circular_tree_detected_at_runtime() {
        // i := s at the parent, s := i at the leaf.
        let mut g = GrammarBuilder::new("circ");
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

        let mut tb = TreeBuilder::new(&g);
        let l = tb.op("leaf", &[]).unwrap();
        let r = tb.op("root", &[l]).unwrap();
        let tree = tb.finish_root(r).unwrap();
        let ev = DynamicEvaluator::new(&g);
        assert!(matches!(
            ev.evaluate(&tree, &RootInputs::new()),
            Err(EvalError::CircularInstance { .. })
        ));
    }

    #[test]
    fn locals_evaluated_on_demand() {
        let mut g = GrammarBuilder::new("loc");
        let s = g.phylum("S");
        let out = g.syn(s, "out");
        let leaf = g.production("leaf", s, &[]);
        let tmp = g.local(leaf, "tmp");
        g.constant(leaf, ONode::Local(tmp), Value::Int(20));
        g.func("double", 1, |a| Value::Int(a[0].as_int() * 2));
        g.call(
            leaf,
            Occ::lhs(out),
            "double",
            [fnc2_ag::Arg::Node(ONode::Local(tmp))],
        );
        let g = g.finish().unwrap();
        let mut tb = TreeBuilder::new(&g);
        let n = tb.op("leaf", &[]).unwrap();
        let tree = tb.finish_root(n).unwrap();
        let ev = DynamicEvaluator::new(&g);
        let (values, _) = ev.evaluate(&tree, &RootInputs::new()).unwrap();
        assert_eq!(values.get(&g, tree.root(), out), Some(&Value::Int(40)));
    }
}
