//! The visit-sequence interpreter (paper §2.1.1, §2.2).
//!
//! A deterministic interpreter of the visit-sequences: no run-time
//! scheduling at all — "as much information as possible about the
//! evaluation order [is] embodied in the code of the evaluator itself".
//! It runs one op stream per visit (see [`Op`]), lowered under a storage
//! plan. [`Lowered::new`] lowers under the *trivial plan*: every
//! attribute instance lives at its tree node, so every instance is
//! decorated (exhaustive evaluation). `fnc2-space` lowers a real plan with
//! [`Lowered::planned`], over the same slot-compiled rules: global
//! variables, global stacks (below-top reads at static depths, delayed
//! pops), and eliminated copy rules. The plan-only bookkeeping (pops,
//! live-cell counts) is compiled out of the trivial plan's loop.

use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::Arc;

use fnc2_ag::{AttrId, AttrValues, Grammar, NodeId, ONode, Occ, ProductionId, Tree, Value};
use fnc2_guard::{BudgetMeter, EvalBudget};
use fnc2_obs::{Counters, Event, Key, NoopRecorder, Recorder, RuleProfiler, StorageClass};

use crate::program::{at_child, Cells, CompiledProgram, CompiledRule, Op, SlotRef};
use crate::rules::EvalError;
use crate::seq::VisitSeqs;

/// Counters describing one evaluation run (feed the §4 claims: visit
/// overhead of partition replacement, copy-rule volume, cell counts).
///
/// A view over the shared `fnc2-obs` counter vocabulary: a run under the
/// trivial plan replays it as the `eval.*` keys, a run under a storage
/// plan as the `space.*` keys (see [`EvalStats::to_counters`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EvalStats {
    /// Number of `VISIT` instructions executed (tree-walk volume).
    pub visits: usize,
    /// Number of `EVAL` instructions executed (eliminated copies not
    /// counted).
    pub evals: usize,
    /// How many executed evaluations were copy rules.
    pub copies: usize,
    /// Copy rules skipped because the plan eliminated them (0 under the
    /// trivial plan).
    pub copies_skipped: usize,
    /// Maximum number of simultaneously live storage cells: variables,
    /// stack slots and node slots (counted under a storage plan only).
    pub max_live_cells: usize,
    /// Node cells still allocated at the end (counted under a storage
    /// plan only).
    pub final_node_cells: usize,
}

impl EvalStats {
    /// Re-expresses this view as a counter block: the `eval.*` keys for a
    /// node-storage run, the `space.*` keys for a run under a storage
    /// `plan`.
    pub fn to_counters(&self, plan: bool) -> Counters {
        let mut c = Counters::new();
        if plan {
            c.set(Key::SpaceVisits, self.visits as u64);
            c.set(Key::SpaceEvals, self.evals as u64);
            c.set(Key::SpaceCopiesSkipped, self.copies_skipped as u64);
            c.set(Key::SpaceMaxLiveCells, self.max_live_cells as u64);
            c.set(Key::SpaceFinalNodeCells, self.final_node_cells as u64);
        } else {
            c.set(Key::EvalVisits, self.visits as u64);
            c.set(Key::EvalEvals, self.evals as u64);
            c.set(Key::EvalCopies, self.copies as u64);
        }
        c
    }
}

/// Values of the root's inherited attributes, supplied by the caller.
pub type RootInputs = HashMap<AttrId, Value>;

/// What an [`Evaluator`] runs: the grammar's rules compiled into a
/// [`CompiledProgram`] and the visit-sequences lowered into flat op
/// streams, under the trivial plan or a storage plan. Built once, it
/// serves any number of evaluators ([`Evaluator::with_lowered`]), and two
/// lowerings of one grammar share one program.
#[derive(Clone, Debug)]
pub struct Lowered {
    program: Arc<CompiledProgram>,
    /// `ops[prod][partition][visit-1]` — the lowered op streams.
    ops: Vec<Vec<Vec<Box<[Op]>>>>,
    /// Whether `ops` were lowered under a storage plan (not the trivial
    /// one), and how many global variables and stacks that plan uses.
    plan: bool,
    variables: usize,
    stacks: usize,
}

impl Lowered {
    /// Slot-compiles every rule of `grammar` and lowers every sequence of
    /// `seqs` under the trivial plan.
    pub fn new(grammar: &Grammar, seqs: &VisitSeqs) -> Lowered {
        let program = Arc::new(CompiledProgram::new(grammar));
        let streams: Vec<_> = seqs
            .iter()
            .map(|seq| {
                let (p, visits) = (seq.production, seq.segments.iter());
                let lower = |segment: &Vec<_>| {
                    segment
                        .iter()
                        .map(|i| program.lower(grammar, p, i))
                        .collect()
                };
                ((p, seq.lhs_partition), visits.map(lower).collect())
            })
            .collect();
        Lowered {
            plan: false,
            ..Lowered::planned(program, streams, 0, 0)
        }
    }

    /// A storage plan's lowering over `program`: `streams` gives, per
    /// visit-sequence key, each visit's lowered steps, which may read and
    /// write `variables` global variables and `stacks` global stacks. The
    /// run then replays the `space.*` counters instead of `eval.*`.
    pub fn planned(
        program: Arc<CompiledProgram>,
        streams: impl IntoIterator<Item = ((ProductionId, usize), Vec<Vec<Op>>)>,
        variables: usize,
        stacks: usize,
    ) -> Lowered {
        let mut ops: Vec<Vec<Vec<Box<[Op]>>>> = Vec::new();
        for ((p, partition), visits) in streams {
            if ops.len() <= p.index() {
                ops.resize_with(p.index() + 1, Vec::new);
            }
            let slot = &mut ops[p.index()];
            if slot.len() <= partition {
                slot.resize(partition + 1, Vec::new());
            }
            slot[partition] = visits.into_iter().map(Vec::into_boxed_slice).collect();
        }
        Lowered {
            program,
            ops,
            plan: true,
            variables,
            stacks,
        }
    }

    /// The slot-compiled rules these op streams run, to share with
    /// another lowering of the same grammar.
    pub fn program(&self) -> &Arc<CompiledProgram> {
        &self.program
    }
}

/// The visit-sequence evaluator.
///
/// It runs a [`Lowered`] program, its own or one built once and borrowed;
/// evaluation is read-only on the evaluator, so a single instance can
/// decorate many trees concurrently (the `fnc2-par` batch driver shares one
/// `&Evaluator` across its worker threads).
#[derive(Debug)]
pub struct Evaluator<'g> {
    grammar: &'g Grammar,
    seqs: &'g VisitSeqs,
    code: Cow<'g, Lowered>,
}

impl<'g> Evaluator<'g> {
    /// Creates an evaluator for `grammar` driven by `seqs`, slot-compiling
    /// every rule and lowering every sequence under the trivial plan.
    pub fn new(grammar: &'g Grammar, seqs: &'g VisitSeqs) -> Self {
        Evaluator::with_lowered(grammar, seqs, Cow::Owned(Lowered::new(grammar, seqs)))
    }

    /// An evaluator running `code`, owned or borrowed, which must have
    /// been lowered from `grammar` and `seqs`; it builds nothing.
    pub fn with_lowered(grammar: &'g Grammar, seqs: &'g VisitSeqs, code: Cow<'g, Lowered>) -> Self {
        Evaluator {
            grammar,
            seqs,
            code,
        }
    }

    /// Returns `self` unchanged: values are never hash-consed. Inert, kept
    /// only because the e2e benchmark still calls it; it goes once the
    /// benchmark's revision drops that call.
    pub fn with_interning(self, _on: bool) -> Self {
        self
    }

    /// The grammar this evaluator decorates trees of.
    pub fn grammar(&self) -> &'g Grammar {
        self.grammar
    }

    /// Evaluates `tree`, whose root must derive the grammar's axiom.
    /// `inputs` supplies the root's inherited attributes (if any). Returns
    /// the node-stored values: every instance under the trivial plan, the
    /// plan's node-class instances (always including the root's) under a
    /// storage plan.
    ///
    /// # Errors
    ///
    /// Fails if a root inherited attribute is missing from `inputs`, or on
    /// the internal scheduling errors documented in [`EvalError`] (which a
    /// generated plan never triggers).
    pub fn evaluate(
        &self,
        tree: &Tree,
        inputs: &RootInputs,
    ) -> Result<(AttrValues, EvalStats), EvalError> {
        self.evaluate_with(tree, inputs, &EvalBudget::default(), &mut NoopRecorder)
    }

    /// [`Evaluator::evaluate`] under an explicit [`EvalBudget`] (with its
    /// injected fault, if any, armed), instrumented: counters are replayed
    /// into `rec` when the run finishes, and (when `rec.trace()` is on)
    /// `VisitEnter`/`VisitLeave`/`RuleFired` events are emitted along the
    /// way, plus `AttrRead` per argument under the trivial plan and
    /// `AttrStored` with its storage class under a storage plan. With
    /// [`NoopRecorder`] this monomorphizes to the bare loop.
    ///
    /// # Errors
    ///
    /// As for [`Evaluator::evaluate`], plus
    /// [`EvalError::BudgetExceeded`] when a limit is exhausted or the
    /// injected fault fires.
    pub fn evaluate_with<R: Recorder>(
        &self,
        tree: &Tree,
        inputs: &RootInputs,
        budget: &EvalBudget,
        rec: &mut R,
    ) -> Result<(AttrValues, EvalStats), EvalError> {
        if self.code.plan {
            self.run::<R, true>(tree, inputs, budget, rec)
        } else {
            self.run::<R, false>(tree, inputs, budget, rec)
        }
    }

    fn run<R: Recorder, const PLAN: bool>(
        &self,
        tree: &Tree,
        inputs: &RootInputs,
        budget: &EvalBudget,
        rec: &mut R,
    ) -> Result<(AttrValues, EvalStats), EvalError> {
        let g = self.grammar;
        let mut meter = BudgetMeter::new(budget);
        let mut cells = Cells {
            variables: vec![None; self.code.variables],
            stacks: vec![Vec::new(); self.code.stacks],
            ..Cells::new(g, tree)
        };
        let mut counters = Counters::new();
        let mut stats = EvalStats::default();
        let root = tree.root();
        let root_ph = g.production(tree.node(root).production()).lhs();
        // Supply the root's inherited attributes up front (its single-visit
        // partition makes them all available at visit 1).
        for attr in g.inherited(root_ph) {
            let v = inputs
                .get(&attr)
                .ok_or_else(|| EvalError::MissingRootInput {
                    what: g.attr(attr).name().to_string(),
                })?;
            cells.values.set(g, root, attr, v.clone());
            cells.grow();
        }
        let visits = self.seqs.partitions_of(root_ph)[0].visit_count();
        let mut buf = Vec::with_capacity(8);
        let label = if PLAN { "space" } else { "exhaustive" };
        for v in 1..=visits {
            if let Some(t) = rec.spans() {
                t.begin("visit", format!("{label} visit {v}/{visits} (root)"));
            }
            let r = self.run_visit::<R, PLAN>(
                tree,
                v,
                &mut cells,
                &mut stats,
                &mut counters,
                &mut buf,
                &mut meter,
                rec,
            );
            if let Some(t) = rec.spans() {
                t.end();
                if let Err(e) = &r {
                    if e.is_budget() {
                        t.instant("guard", format!("budget trip: {e}"));
                    }
                }
            }
            r?;
        }
        if PLAN {
            stats.max_live_cells = cells.max_live;
            stats.final_node_cells = cells.values.live_count() + cells.locals.live_count();
        }
        counters.merge(&stats.to_counters(PLAN));
        counters.replay(rec);
        Ok((cells.values, stats))
    }

    /// Performs visit `visit` of the root, iteratively (an explicit frame
    /// stack: generated evaluators must digest trees of arbitrary depth —
    /// list-like programs produce very deep spines). When a child frame
    /// finishes, the parent resumes at the op after its suspended
    /// `Op::Visit`, whose delayed pops run first.
    #[allow(clippy::too_many_arguments)]
    fn run_visit<R: Recorder, const PLAN: bool>(
        &self,
        tree: &Tree,
        visit: usize,
        cells: &mut Cells,
        stats: &mut EvalStats,
        counters: &mut Counters,
        buf: &mut Vec<Value>,
        meter: &mut BudgetMeter,
        rec: &mut R,
    ) -> Result<(), EvalError> {
        struct Frame<'a> {
            node: NodeId,
            p: ProductionId,
            visit: u16,
            ops: &'a [Op],
            at: usize,
        }
        let label = if PLAN { "space" } else { "exhaustive" };
        let lowered: &Lowered = &self.code;
        let program: &CompiledProgram = &lowered.program;
        let frame = |node: NodeId, partition: usize, visit: u16| {
            let p = tree.node(node).production();
            Frame {
                node,
                p,
                visit,
                ops: &lowered.ops[p.index()][partition][visit as usize - 1],
                at: 0,
            }
        };
        let enter = |rec: &mut R, f: &Frame| {
            if rec.trace() {
                rec.emit(Event::VisitEnter {
                    node: f.node.index() as u32,
                    production: f.p.index() as u32,
                    visit: f.visit,
                });
            }
        };
        let mut stack = vec![frame(tree.root(), 0, visit as u16)];
        stats.visits += 1;
        enter(rec, &stack[0]);
        while let Some(top) = stack.last_mut() {
            let (node, p) = (top.node, top.p);
            let ops = top.ops;
            let Some(op) = ops.get(top.at) else {
                if rec.trace() {
                    rec.emit(Event::VisitLeave {
                        node: node.index() as u32,
                        production: p.index() as u32,
                        visit: top.visit,
                    });
                }
                stack.pop();
                if PLAN {
                    if let Some(parent) = stack.last() {
                        if let Op::Visit { pops, .. } = &parent.ops[parent.at - 1] {
                            cells.pop(pops);
                        }
                    }
                }
                continue;
            };
            top.at += 1;
            match op {
                Op::Eval { rule, code, pops } => {
                    meter
                        .step()
                        .map_err(|k| EvalError::budget(k, format!("{label} evaluator, {node}")))?;
                    let t0 = rec
                        .profiler()
                        .is_some_and(RuleProfiler::should_sample)
                        .then(std::time::Instant::now);
                    let (value, is_copy) = program.exec_rule(
                        self.grammar,
                        tree,
                        p,
                        code,
                        node,
                        cells,
                        buf,
                        counters,
                    )?;
                    if let Some(prof) = rec.profiler() {
                        prof.record(
                            p.index() as u32,
                            *rule,
                            is_copy,
                            t0.map(|t| t.elapsed().as_nanos() as u64),
                        );
                    }
                    meter
                        .grow_cells(value.cell_count() as u64)
                        .map_err(|k| EvalError::budget(k, format!("{label} evaluator, {node}")))?;
                    stats.evals += 1;
                    if is_copy {
                        stats.copies += 1;
                    }
                    if rec.trace() {
                        self.trace_eval(tree, node, *rule, code, PLAN, rec);
                    }
                    if PLAN {
                        // Dead sources pop before the fresh push (mirrors
                        // the static simulation).
                        cells.pop(pops);
                    }
                    let fresh = cells.store(tree, node, &code.slot, value);
                    if PLAN && fresh {
                        cells.grow();
                    }
                }
                Op::Skip { pops } => {
                    stats.copies_skipped += 1;
                    cells.pop(pops);
                }
                Op::Visit {
                    child,
                    visit: w,
                    partition,
                    ..
                } => {
                    let c = at_child(tree, node, *child);
                    meter
                        .check_depth(stack.len() + 1)
                        .map_err(|k| EvalError::budget(k, format!("{label} evaluator, {c}")))?;
                    stats.visits += 1;
                    let f = frame(c, *partition as usize, *w);
                    enter(rec, &f);
                    stack.push(f);
                }
            }
        }
        Ok(())
    }

    /// The trace events of one rule firing: `RuleFired`, then under the
    /// trivial plan one `AttrRead` per attribute-occurrence argument,
    /// resolved to the instance actually fetched (the lint soundness
    /// oracle checks no `L001` attribute ever appears there), and under a
    /// storage plan the `AttrStored` of an attribute result with its
    /// storage class.
    fn trace_eval<R: Recorder>(
        &self,
        tree: &Tree,
        node: NodeId,
        rule: u32,
        code: &CompiledRule,
        plan: bool,
        rec: &mut R,
    ) {
        let p = tree.node(node).production();
        rec.emit(Event::RuleFired {
            node: node.index() as u32,
            production: p.index() as u32,
            rule,
        });
        if plan {
            if let ONode::Attr(Occ { pos, attr }) = code.target {
                let class = match code.slot {
                    SlotRef::Variable(_) => StorageClass::Global,
                    SlotRef::Stack(_) => StorageClass::Stack,
                    SlotRef::Attr { .. } | SlotRef::Local(_) => StorageClass::Node,
                };
                rec.emit(Event::AttrStored {
                    node: at_child(tree, node, pos).index() as u32,
                    attr: attr.index() as u32,
                    class,
                });
            }
            return;
        }
        let sem = &self.grammar.production(p).rules()[rule as usize];
        for n in sem.read_nodes() {
            if let ONode::Attr(o) = n {
                rec.emit(Event::AttrRead {
                    node: at_child(tree, node, o.pos).index() as u32,
                    attr: o.attr.index() as u32,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use fnc2_ag::{Grammar, GrammarBuilder, TreeBuilder};
    use fnc2_analysis::{snc_test, snc_to_l_ordered, Inclusion};
    use fnc2_obs::Obs;

    use crate::seq::build_visit_seqs;

    use super::*;

    /// Knuth's binary numbers: `value` of "1101" is 13, of "110.01" shapes
    /// omitted (no fraction here), scales propagate right-to-left.
    fn binary() -> Grammar {
        let mut g = GrammarBuilder::new("binary");
        let number = g.phylum("Number");
        let seq = g.phylum("Seq");
        let bit = g.phylum("Bit");
        let n_value = g.syn(number, "value");
        let s_value = g.syn(seq, "value");
        let s_len = g.syn(seq, "length");
        let s_scale = g.inh(seq, "scale");
        let b_value = g.syn(bit, "value");
        let b_scale = g.inh(bit, "scale");
        g.func("add", 2, |a| Value::Real(a[0].as_real() + a[1].as_real()));
        g.func("succ", 1, |a| Value::Int(a[0].as_int() + 1));
        g.func("pow2", 1, |a| Value::Real(2f64.powi(a[0].as_int() as i32)));
        let number_p = g.production("number", number, &[seq]);
        g.copy(
            number_p,
            fnc2_ag::Occ::lhs(n_value),
            fnc2_ag::Occ::new(1, s_value),
        );
        g.constant(number_p, fnc2_ag::Occ::new(1, s_scale), Value::Int(0));
        let pair = g.production("pair", seq, &[seq, bit]);
        g.call(
            pair,
            fnc2_ag::Occ::lhs(s_value),
            "add",
            [
                fnc2_ag::Occ::new(1, s_value).into(),
                fnc2_ag::Occ::new(2, b_value).into(),
            ],
        );
        g.call(
            pair,
            fnc2_ag::Occ::lhs(s_len),
            "succ",
            [fnc2_ag::Occ::new(1, s_len).into()],
        );
        g.call(
            pair,
            fnc2_ag::Occ::new(1, s_scale),
            "succ",
            [fnc2_ag::Occ::lhs(s_scale).into()],
        );
        g.copy(
            pair,
            fnc2_ag::Occ::new(2, b_scale),
            fnc2_ag::Occ::lhs(s_scale),
        );
        let single = g.production("single", seq, &[bit]);
        g.copy(
            single,
            fnc2_ag::Occ::lhs(s_value),
            fnc2_ag::Occ::new(1, b_value),
        );
        g.constant(single, fnc2_ag::Occ::lhs(s_len), Value::Int(1));
        g.copy(
            single,
            fnc2_ag::Occ::new(1, b_scale),
            fnc2_ag::Occ::lhs(s_scale),
        );
        let zero = g.production("zero", bit, &[]);
        g.constant(zero, fnc2_ag::Occ::lhs(b_value), Value::Real(0.0));
        let one = g.production("one", bit, &[]);
        g.call(
            one,
            fnc2_ag::Occ::lhs(b_value),
            "pow2",
            [fnc2_ag::Occ::lhs(b_scale).into()],
        );
        g.finish().unwrap()
    }

    /// Builds the tree of a bit string like "1101".
    fn bits_tree(g: &Grammar, bits: &str) -> fnc2_ag::Tree {
        let mut tb = TreeBuilder::new(g);
        let mut it = bits.chars();
        let first = it.next().expect("nonempty");
        let bit_node = |tb: &mut TreeBuilder, c: char| {
            tb.op(if c == '1' { "one" } else { "zero" }, &[]).unwrap()
        };
        let b = bit_node(&mut tb, first);
        let mut seq = tb.op("single", &[b]).unwrap();
        for c in it {
            let b = bit_node(&mut tb, c);
            seq = tb.op("pair", &[seq, b]).unwrap();
        }
        let root = tb.op("number", &[seq]).unwrap();
        tb.finish_root(root).unwrap()
    }

    #[test]
    fn binary_number_value() {
        let g = binary();
        let snc = snc_test(&g);
        assert!(snc.is_snc());
        let lo = snc_to_l_ordered(&g, &snc, Inclusion::Long).unwrap();
        let seqs = build_visit_seqs(&g, &lo);
        let ev = Evaluator::new(&g, &seqs);

        let tree = bits_tree(&g, "1101");
        let (values, stats) = ev.evaluate(&tree, &RootInputs::new()).unwrap();
        let number = g.phylum_by_name("Number").unwrap();
        let value = g.attr_by_name(number, "value").unwrap();
        assert_eq!(values.get(&g, tree.root(), value), Some(&Value::Real(13.0)));
        assert!(stats.evals > 0);
        assert!(stats.visits >= tree.size());
        // Every instance is decorated (exhaustive evaluation).
        let mut instances = 0;
        for (n, _) in tree.preorder() {
            let ph = tree.phylum(&g, n);
            instances += g.phylum(ph).attrs().len();
        }
        assert_eq!(values.live_count(), instances);
    }

    #[test]
    fn missing_root_input_reported() {
        // Root with an inherited attribute and no input.
        let mut g = GrammarBuilder::new("t");
        let s = g.phylum("S");
        let base = g.inh(s, "base");
        let out = g.syn(s, "out");
        let leaf = g.production("leaf", s, &[]);
        g.copy(leaf, fnc2_ag::Occ::lhs(out), fnc2_ag::Occ::lhs(base));
        let g = g.finish().unwrap();
        let snc = snc_test(&g);
        let lo = snc_to_l_ordered(&g, &snc, Inclusion::Long).unwrap();
        let seqs = build_visit_seqs(&g, &lo);
        let ev = Evaluator::new(&g, &seqs);
        let mut tb = TreeBuilder::new(&g);
        let leaf_p = g.production_by_name("leaf").unwrap();
        let n = tb.node(leaf_p, &[]).unwrap();
        let tree = tb.finish_root(n).unwrap();
        assert!(matches!(
            ev.evaluate(&tree, &RootInputs::new()),
            Err(EvalError::MissingRootInput { .. })
        ));
        // And with the input supplied it works.
        let mut inputs = RootInputs::new();
        inputs.insert(base, Value::Int(9));
        let (values, _) = ev.evaluate(&tree, &inputs).unwrap();
        assert_eq!(values.get(&g, tree.root(), out), Some(&Value::Int(9)));
    }

    #[test]
    fn budgets_trip_as_classified_errors() {
        use fnc2_guard::{BudgetKind, InjectedFault};
        let g = binary();
        let snc = snc_test(&g);
        let lo = snc_to_l_ordered(&g, &snc, Inclusion::Long).unwrap();
        let seqs = build_visit_seqs(&g, &lo);
        let ev = Evaluator::new(&g, &seqs);
        let tree = bits_tree(&g, "1011011101");

        let err = ev
            .evaluate_with(
                &tree,
                &RootInputs::new(),
                &EvalBudget::unlimited().with_max_steps(3),
                &mut NoopRecorder,
            )
            .unwrap_err();
        assert!(
            matches!(
                err,
                EvalError::BudgetExceeded {
                    kind: BudgetKind::Steps,
                    ..
                }
            ),
            "{err}"
        );

        let err = ev
            .evaluate_with(
                &tree,
                &RootInputs::new(),
                &EvalBudget::unlimited().with_max_depth(2),
                &mut NoopRecorder,
            )
            .unwrap_err();
        assert!(
            matches!(
                err,
                EvalError::BudgetExceeded {
                    kind: BudgetKind::Depth,
                    ..
                }
            ),
            "{err}"
        );

        let err = ev
            .evaluate_with(
                &tree,
                &RootInputs::new(),
                &EvalBudget::unlimited().with_max_value_cells(2),
                &mut NoopRecorder,
            )
            .unwrap_err();
        assert!(
            matches!(
                err,
                EvalError::BudgetExceeded {
                    kind: BudgetKind::ValueCells,
                    ..
                }
            ),
            "{err}"
        );

        // An injected fault surfaces as a classified error, and the same
        // call without the fault still succeeds (transient-retry shape).
        let faulted = EvalBudget {
            fault: Some(InjectedFault::FailRule { step: 2 }),
            ..EvalBudget::default()
        };
        let err = ev
            .evaluate_with(&tree, &RootInputs::new(), &faulted, &mut NoopRecorder)
            .unwrap_err();
        assert!(err.is_budget(), "{err}");
        let (ok, _) = ev
            .evaluate_with(
                &tree,
                &RootInputs::new(),
                &EvalBudget::default(),
                &mut NoopRecorder,
            )
            .unwrap();
        let (plain, _) = ev.evaluate(&tree, &RootInputs::new()).unwrap();
        for (n, _) in tree.preorder() {
            let ph = tree.phylum(&g, n);
            for &a in g.phylum(ph).attrs() {
                assert_eq!(ok.get(&g, n, a), plain.get(&g, n, a), "bit-identical");
            }
        }
    }

    #[test]
    fn const_fetches_hit_the_constant_pool() {
        let g = binary();
        let snc = snc_test(&g);
        let lo = snc_to_l_ordered(&g, &snc, Inclusion::Long).unwrap();
        let seqs = build_visit_seqs(&g, &lo);
        let ev = Evaluator::new(&g, &seqs);
        let tree = bits_tree(&g, "1001");
        let mut obs = Obs::new();
        ev.evaluate_with(&tree, &RootInputs::new(), &EvalBudget::default(), &mut obs)
            .unwrap();
        // "1001": one `number` const-scale, one `single` const-length, and
        // two `zero` const bit values — four constant-pool fetches.
        assert_eq!(obs.metrics.counter("eval.const_hits"), 4);
    }
}
