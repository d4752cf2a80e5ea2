//! The exhaustive visit-sequence evaluator (paper §2.1.1).
//!
//! A deterministic interpreter of the visit-sequences: no run-time
//! scheduling at all — "as much information as possible about the
//! evaluation order [is] embodied in the code of the evaluator itself".
//! Attribute instances live at tree nodes here; the space-optimized
//! interpreter in `fnc2-space` replaces this storage with global variables
//! and stacks.
//!
//! The hot path executes the slot-compiled programs of
//! [`CompiledProgram`]: rule lookups, occurrence resolution and constant
//! clones all happen once, at construction. The pre-compilation
//! interpretation strategy survives as [`Evaluator::evaluate_reference`],
//! both as a differential check and as the "before" leg of the hot-path
//! benchmark.

use std::collections::HashMap;
use std::sync::Arc;

use fnc2_ag::{
    AttrId, AttrValues, Grammar, LocalFrames, LocalId, NodeId, ONode, Occ, SharedInterner, Tree,
    Value,
};
use fnc2_guard::{BudgetMeter, EvalBudget};
use fnc2_obs::{Counters, Event, Key, NoopRecorder, Recorder, RuleProfiler};

use crate::program::{CompiledProgram, InternCtx};
use crate::rules::EvalError;
use crate::seq::{Instr, VisitSeqs};

/// How an evaluator canonicalizes the values it produces.
#[derive(Clone, Debug, Default)]
pub enum InternMode {
    /// No interning: values are transported as built (the historical
    /// behavior, and the `--no-intern` escape hatch).
    #[default]
    Off,
    /// A private hash-cons table per evaluation.
    Local,
    /// A thread-safe sharded table shared across evaluations (the batch
    /// driver's workers unify canonical representatives through it; its
    /// statistics are merged once at join).
    Shared(Arc<SharedInterner>),
}

impl InternMode {
    /// The per-evaluation context for this mode, if interning is on.
    /// Downstream evaluators (the space runtime, the incremental
    /// evaluator) call this to share the same backend selection logic.
    pub fn ctx(&self) -> Option<InternCtx> {
        match self {
            InternMode::Off => None,
            InternMode::Local => Some(InternCtx::local()),
            InternMode::Shared(table) => Some(InternCtx::shared(Arc::clone(table))),
        }
    }
}

/// Counters describing one evaluation run (feed the §4 claims: visit
/// overhead of partition replacement, copy-rule volume, cell counts).
///
/// A thin view over the shared `fnc2-obs` counter vocabulary: the
/// evaluator counts into an [`fnc2_obs::Counters`] block and this struct
/// is materialized from it when the run finishes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EvalStats {
    /// Number of `VISIT` instructions executed (tree-walk volume).
    pub visits: usize,
    /// Number of `EVAL` instructions executed.
    pub evals: usize,
    /// How many executed evaluations were copy rules.
    pub copies: usize,
}

impl EvalStats {
    /// Extracts the exhaustive-evaluator view from a counter block.
    pub fn from_counters(c: &Counters) -> EvalStats {
        EvalStats {
            visits: c.get(Key::EvalVisits) as usize,
            evals: c.get(Key::EvalEvals) as usize,
            copies: c.get(Key::EvalCopies) as usize,
        }
    }

    /// Re-expresses this view as a counter block.
    pub fn to_counters(&self) -> Counters {
        let mut c = Counters::new();
        c.set(Key::EvalVisits, self.visits as u64);
        c.set(Key::EvalEvals, self.evals as u64);
        c.set(Key::EvalCopies, self.copies as u64);
        c
    }
}

/// Values of the root's inherited attributes, supplied by the caller.
pub type RootInputs = HashMap<AttrId, Value>;

/// A pre-resolved visit-sequence instruction: the rule to run is looked
/// up once at evaluator-construction time ("as much information as
/// possible … embodied in the code of the evaluator itself").
#[derive(Clone, Debug)]
enum CInstr {
    Eval {
        rule: u32,
        target: ONode,
    },
    Visit {
        child: u16,
        visit: u16,
        partition: u16,
    },
}

/// The exhaustive visit-sequence evaluator.
///
/// Construction compiles the grammar's rules into a [`CompiledProgram`]
/// and the visit-sequences into flat instruction streams; evaluation is
/// read-only on the evaluator, so a single instance can decorate many
/// trees concurrently (the `fnc2-par` batch driver shares one `&Evaluator`
/// across its worker threads).
#[derive(Debug)]
pub struct Evaluator<'g> {
    grammar: &'g Grammar,
    seqs: &'g VisitSeqs,
    program: CompiledProgram,
    /// `compiled[prod][partition][visit-1]` — instruction streams with
    /// rule indices resolved.
    compiled: Vec<Vec<Vec<Vec<CInstr>>>>,
    intern: InternMode,
}

impl<'g> Evaluator<'g> {
    /// Creates an evaluator for `grammar` driven by `seqs`, resolving every
    /// `EVAL` to its rule index up front and slot-compiling every rule.
    pub fn new(grammar: &'g Grammar, seqs: &'g VisitSeqs) -> Self {
        let program = CompiledProgram::new(grammar);
        let mut compiled: Vec<Vec<Vec<Vec<CInstr>>>> = vec![Vec::new(); grammar.production_count()];
        for (p, pi) in seqs.keys() {
            let seq = seqs.seq(p, pi);
            let cp = program.production(p);
            let slot = &mut compiled[p.index()];
            if slot.len() <= pi {
                slot.resize(pi + 1, Vec::new());
            }
            slot[pi] = seq
                .segments
                .iter()
                .map(|segment| {
                    segment
                        .iter()
                        .map(|instr| match instr {
                            Instr::Eval(target) => CInstr::Eval {
                                rule: cp
                                    .rule_index(*target)
                                    .expect("validated grammar defines every output"),
                                target: *target,
                            },
                            Instr::Visit {
                                child,
                                visit,
                                partition,
                            } => CInstr::Visit {
                                child: *child,
                                visit: *visit as u16,
                                partition: *partition as u16,
                            },
                        })
                        .collect()
                })
                .collect();
        }
        Evaluator {
            grammar,
            seqs,
            program,
            compiled,
            intern: InternMode::Off,
        }
    }

    /// Enables or disables hash-cons interning for this evaluator
    /// (private per-evaluation table; see [`InternMode`]).
    pub fn with_interning(mut self, on: bool) -> Self {
        self.intern = if on {
            InternMode::Local
        } else {
            InternMode::Off
        };
        self
    }

    /// Routes this evaluator's interning through a shared sharded table —
    /// the batch driver's workers unify canonical values through it.
    pub fn with_shared_interner(mut self, table: Arc<SharedInterner>) -> Self {
        self.intern = InternMode::Shared(table);
        self
    }

    /// This evaluator's interning mode.
    pub fn intern_mode(&self) -> &InternMode {
        &self.intern
    }

    /// The slot-compiled rule programs driving this evaluator, shared with
    /// the other members of the cascade.
    pub fn program(&self) -> &CompiledProgram {
        &self.program
    }

    /// The grammar this evaluator decorates trees of.
    pub fn grammar(&self) -> &'g Grammar {
        self.grammar
    }

    /// Evaluates every attribute instance of `tree`, whose root must derive
    /// the grammar's axiom. `inputs` supplies the root's inherited
    /// attributes (if any).
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
    /// way. With [`NoopRecorder`] this monomorphizes to the bare loop.
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
        let mut meter = BudgetMeter::new(budget);
        let mut values = AttrValues::new(self.grammar, tree);
        let mut locals = LocalFrames::new(self.grammar, tree);
        let mut counters = Counters::new();
        let root = tree.root();
        let root_ph = self.grammar.production(tree.node(root).production()).lhs();
        // Supply the root's inherited attributes up front (its single-visit
        // partition makes them all available at visit 1).
        for attr in self.grammar.inherited(root_ph) {
            let v = inputs
                .get(&attr)
                .ok_or_else(|| EvalError::MissingRootInput {
                    what: self.grammar.attr(attr).name().to_string(),
                })?;
            values.set(self.grammar, root, attr, v.clone());
        }
        let visits = self.seqs.partitions_of(root_ph)[0].visit_count();
        let mut buf = Vec::with_capacity(8);
        let mut ictx = self.intern.ctx();
        for v in 1..=visits {
            if let Some(t) = rec.spans() {
                t.begin("visit", format!("exhaustive visit {v}/{visits} (root)"));
            }
            let r = self.run_visit(
                tree,
                root,
                0,
                v,
                &mut values,
                &mut locals,
                &mut counters,
                &mut buf,
                &mut meter,
                &mut ictx,
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
        counters.replay(rec);
        Ok((values, EvalStats::from_counters(&counters)))
    }

    /// Performs visit `visit` of `node` under `partition`, iteratively
    /// (an explicit frame stack: generated evaluators must digest trees of
    /// arbitrary depth — list-like programs produce very deep spines).
    #[allow(clippy::too_many_arguments)]
    fn run_visit<R: Recorder>(
        &self,
        tree: &Tree,
        node: NodeId,
        partition: usize,
        visit: usize,
        values: &mut AttrValues,
        locals: &mut LocalFrames,
        counters: &mut Counters,
        buf: &mut Vec<Value>,
        meter: &mut BudgetMeter,
        ictx: &mut Option<InternCtx>,
        rec: &mut R,
    ) -> Result<(), EvalError> {
        struct Frame {
            node: NodeId,
            partition: usize,
            visit: usize,
            at: usize,
        }
        let mut stack = vec![Frame {
            node,
            partition,
            visit,
            at: 0,
        }];
        counters.add(Key::EvalVisits, 1);
        if rec.trace() {
            rec.emit(Event::VisitEnter {
                node: node.index() as u32,
                production: tree.node(node).production().index() as u32,
                visit: visit as u16,
            });
        }
        while let Some(frame) = stack.last_mut() {
            let node = frame.node;
            let p = tree.node(node).production();
            let segment: &[CInstr] = &self.compiled[p.index()][frame.partition][frame.visit - 1];
            if frame.at == segment.len() {
                if rec.trace() {
                    rec.emit(Event::VisitLeave {
                        node: node.index() as u32,
                        production: p.index() as u32,
                        visit: frame.visit as u16,
                    });
                }
                stack.pop();
                continue;
            }
            let instr = &segment[frame.at];
            frame.at += 1;
            match instr {
                CInstr::Eval { rule, target: _ } => {
                    meter.step().map_err(|k| {
                        EvalError::budget(k, format!("exhaustive evaluator, {node}"))
                    })?;
                    let rule_ix = *rule;
                    let cr = &self.program.production(p).rules[rule_ix as usize];
                    let t0 = rec
                        .profiler()
                        .is_some_and(RuleProfiler::should_sample)
                        .then(std::time::Instant::now);
                    let (value, is_copy) = self.program.exec_rule(
                        self.grammar,
                        tree,
                        p,
                        rule_ix,
                        cr,
                        node,
                        values,
                        locals,
                        buf,
                        counters,
                        ictx.as_mut(),
                    )?;
                    if let Some(prof) = rec.profiler() {
                        prof.record(
                            p.index() as u32,
                            rule_ix,
                            is_copy,
                            t0.map(|t| t.elapsed().as_nanos() as u64),
                        );
                    }
                    meter.grow_cells(value.cell_count() as u64).map_err(|k| {
                        EvalError::budget(k, format!("exhaustive evaluator, {node}"))
                    })?;
                    counters.add(Key::EvalEvals, 1);
                    if is_copy {
                        counters.add(Key::EvalCopies, 1);
                    }
                    if rec.trace() {
                        rec.emit(Event::RuleFired {
                            node: node.index() as u32,
                            production: p.index() as u32,
                            rule: rule_ix,
                        });
                        // One AttrRead per attribute-occurrence argument,
                        // resolved to the instance actually fetched — the
                        // lint soundness oracle checks no `L001` attribute
                        // ever appears here.
                        let sem = &self.grammar.production(p).rules()[rule_ix as usize];
                        for n in sem.read_nodes() {
                            if let fnc2_ag::ONode::Attr(o) = n {
                                let at = if o.pos == 0 {
                                    node
                                } else {
                                    tree.node(node).children()[o.pos as usize - 1]
                                };
                                rec.emit(Event::AttrRead {
                                    node: at.index() as u32,
                                    attr: o.attr.index() as u32,
                                });
                            }
                        }
                    }
                    cr.slot.store(tree, node, values, locals, value);
                }
                CInstr::Visit {
                    child,
                    visit: w,
                    partition: cpart,
                } => {
                    let c = tree.node(node).children()[*child as usize - 1];
                    meter
                        .check_depth(stack.len() + 1)
                        .map_err(|k| EvalError::budget(k, format!("exhaustive evaluator, {c}")))?;
                    counters.add(Key::EvalVisits, 1);
                    if rec.trace() {
                        rec.emit(Event::VisitEnter {
                            node: c.index() as u32,
                            production: tree.node(c).production().index() as u32,
                            visit: *w,
                        });
                    }
                    stack.push(Frame {
                        node: c,
                        partition: *cpart as usize,
                        visit: *w as usize,
                        at: 0,
                    });
                }
            }
        }
        Ok(())
    }

    /// Evaluates `tree` with the *pre-slot-compilation* interpretation
    /// strategy: per-fetch occurrence resolution over [`fnc2_ag::Arg`],
    /// per-execution constant clones, and a `(NodeId, LocalId)` hash map
    /// for production locals. Kept as the "before" leg of the hot-path
    /// benchmark (`table_throughput`) and as an in-binary differential
    /// check against the compiled path.
    ///
    /// # Errors
    ///
    /// As for [`Evaluator::evaluate`].
    pub fn evaluate_reference(
        &self,
        tree: &Tree,
        inputs: &RootInputs,
    ) -> Result<(AttrValues, EvalStats), EvalError> {
        let mut values = AttrValues::new(self.grammar, tree);
        let mut locals: HashMap<(NodeId, LocalId), Value> = HashMap::new();
        let mut counters = Counters::new();
        let root = tree.root();
        let root_ph = self.grammar.production(tree.node(root).production()).lhs();
        for attr in self.grammar.inherited(root_ph) {
            let v = inputs
                .get(&attr)
                .ok_or_else(|| EvalError::MissingRootInput {
                    what: self.grammar.attr(attr).name().to_string(),
                })?;
            values.set(self.grammar, root, attr, v.clone());
        }
        let visits = self.seqs.partitions_of(root_ph)[0].visit_count();
        let mut buf = Vec::with_capacity(8);
        let mut meter = BudgetMeter::new(&EvalBudget::default());
        for v in 1..=visits {
            self.run_visit_reference(
                tree,
                root,
                0,
                v,
                &mut values,
                &mut locals,
                &mut counters,
                &mut buf,
                &mut meter,
            )?;
        }
        Ok((values, EvalStats::from_counters(&counters)))
    }

    /// Evaluates one rule the pre-compilation way: resolve each `Arg` on
    /// the fly, clone constants, hash production locals.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    fn eval_with_buf(
        &self,
        tree: &Tree,
        rule: &fnc2_ag::SemRule,
        node: NodeId,
        values: &AttrValues,
        locals: &HashMap<(NodeId, LocalId), Value>,
        buf: &mut Vec<Value>,
    ) -> Result<(Value, bool), EvalError> {
        use fnc2_ag::{Arg, RuleBody};
        let g = self.grammar;
        let fetch = |arg: &Arg| -> Result<Value, EvalError> {
            match arg {
                Arg::Const(v) => Ok(v.clone()),
                Arg::Token => {
                    tree.node(node)
                        .token()
                        .cloned()
                        .ok_or_else(|| EvalError::MissingToken {
                            node,
                            production: g
                                .production(tree.node(node).production())
                                .name()
                                .to_string(),
                        })
                }
                Arg::Node(ONode::Attr(Occ { pos, attr })) => {
                    let at = if *pos == 0 {
                        node
                    } else {
                        tree.node(node).children()[*pos as usize - 1]
                    };
                    values
                        .get(g, at, *attr)
                        .cloned()
                        .ok_or_else(|| EvalError::MissingValue {
                            node: at,
                            what: g.attr(*attr).name().to_string(),
                        })
                }
                Arg::Node(ONode::Local(l)) => {
                    locals
                        .get(&(node, *l))
                        .cloned()
                        .ok_or_else(|| EvalError::MissingValue {
                            node,
                            what: g.production(tree.node(node).production()).locals()[l.index()]
                                .name()
                                .to_string(),
                        })
                }
            }
        };
        match rule.body() {
            RuleBody::Copy(arg) => Ok((fetch(arg)?, rule.is_copy())),
            RuleBody::Call { func, args } => {
                buf.clear();
                for a in args {
                    buf.push(fetch(a)?);
                }
                let v = g
                    .function(*func)
                    .apply(buf)
                    .map_err(|e| EvalError::SemanticFailure {
                        node,
                        message: e.message,
                    })?;
                Ok((v, false))
            }
        }
    }

    /// [`run_visit`](Self::run_visit) with the pre-compilation fetch
    /// strategy (see [`evaluate_reference`](Self::evaluate_reference)).
    #[allow(clippy::too_many_arguments)]
    fn run_visit_reference(
        &self,
        tree: &Tree,
        node: NodeId,
        partition: usize,
        visit: usize,
        values: &mut AttrValues,
        locals: &mut HashMap<(NodeId, LocalId), Value>,
        counters: &mut Counters,
        buf: &mut Vec<Value>,
        meter: &mut BudgetMeter,
    ) -> Result<(), EvalError> {
        struct Frame {
            node: NodeId,
            partition: usize,
            visit: usize,
            at: usize,
        }
        let mut stack = vec![Frame {
            node,
            partition,
            visit,
            at: 0,
        }];
        counters.add(Key::EvalVisits, 1);
        while let Some(frame) = stack.last_mut() {
            let node = frame.node;
            let p = tree.node(node).production();
            let segment: &[CInstr] = &self.compiled[p.index()][frame.partition][frame.visit - 1];
            if frame.at == segment.len() {
                stack.pop();
                continue;
            }
            let instr = &segment[frame.at];
            frame.at += 1;
            match instr {
                CInstr::Eval { rule, target } => {
                    meter.step().map_err(|k| {
                        EvalError::budget(k, format!("reference evaluator, {node}"))
                    })?;
                    let rule = &self.grammar.production(p).rules()[*rule as usize];
                    let (value, is_copy) =
                        self.eval_with_buf(tree, rule, node, values, locals, buf)?;
                    counters.add(Key::EvalEvals, 1);
                    if is_copy {
                        counters.add(Key::EvalCopies, 1);
                    }
                    match target {
                        ONode::Attr(Occ { pos, attr }) => {
                            let at = if *pos == 0 {
                                node
                            } else {
                                tree.node(node).children()[*pos as usize - 1]
                            };
                            values.set(self.grammar, at, *attr, value);
                        }
                        ONode::Local(l) => {
                            locals.insert((node, *l), value);
                        }
                    }
                }
                CInstr::Visit {
                    child,
                    visit: w,
                    partition: cpart,
                } => {
                    let c = tree.node(node).children()[*child as usize - 1];
                    meter
                        .check_depth(stack.len() + 1)
                        .map_err(|k| EvalError::budget(k, format!("reference evaluator, {c}")))?;
                    counters.add(Key::EvalVisits, 1);
                    stack.push(Frame {
                        node: c,
                        partition: *cpart as usize,
                        visit: *w as usize,
                        at: 0,
                    });
                }
            }
        }
        Ok(())
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
    fn reference_and_compiled_paths_agree() {
        let g = binary();
        let snc = snc_test(&g);
        let lo = snc_to_l_ordered(&g, &snc, Inclusion::Long).unwrap();
        let seqs = build_visit_seqs(&g, &lo);
        let ev = Evaluator::new(&g, &seqs);
        let tree = bits_tree(&g, "1011011101");
        let (fast, fast_stats) = ev.evaluate(&tree, &RootInputs::new()).unwrap();
        let (slow, slow_stats) = ev.evaluate_reference(&tree, &RootInputs::new()).unwrap();
        assert_eq!(fast_stats, slow_stats);
        for (n, _) in tree.preorder() {
            let ph = tree.phylum(&g, n);
            for &a in g.phylum(ph).attrs() {
                assert_eq!(fast.get(&g, n, a), slow.get(&g, n, a), "{n} {a}");
            }
        }
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
    fn const_fetches_hit_the_interned_pool() {
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
        // two `zero` const bit values — four interned-constant fetches.
        assert_eq!(obs.metrics.counter("eval.const_hits"), 4);
    }
}
