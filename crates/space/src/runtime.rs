//! The space-optimized visit-sequence interpreter.
//!
//! Executes the same visit-sequences as `fnc2_visit::Evaluator` but stores
//! attributes according to the [`SpacePlan`]: global variables, global
//! stacks (with below-top reads at the statically computed depths and the
//! scheduled delayed pops), and tree nodes only as a last resort. Tracks
//! the high-water mark of live storage cells — the dynamic measure behind
//! the paper's "decrease of the number of attribute storage cells by a
//! factor of 4 to 8" (§4.1).
//!
//! Like the exhaustive evaluator, the hot path is slot-compiled at
//! construction: every `EVAL` step's rule is resolved once, its reads are
//! fused with the plan's [`ReadPath`]s into [`CRead`] descriptors (with
//! constants interned), and its write is reduced to a [`CWrite`] with node
//! slots pre-computed. The run loop then interprets flat per-visit `COp`
//! streams with no hash lookups or rule scans.

use fnc2_ag::{
    Arg, AttrValues, FuncId, Grammar, LocalFrames, LocalId, NodeId, ONode, Occ, ProductionId,
    RuleBody, Tree, Value,
};
use fnc2_guard::{BudgetMeter, EvalBudget};
use fnc2_obs::{Counters, Event, Key, NoopRecorder, Recorder, RuleProfiler, StorageClass};
use fnc2_visit::{EvalError, Instr, InternCtx, InternMode, RootInputs, VisitSeqs};

use crate::alloc::{ReadPath, SpacePlan, WritePath};
use crate::flat::{FlatItem, FlatProgram};

/// Counters from one space-optimized run.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SpaceRunStats {
    /// `VISIT` instructions executed.
    pub visits: usize,
    /// `EVAL` instructions executed (eliminated copies not counted).
    pub evals: usize,
    /// Copy rules skipped thanks to elimination.
    pub copies_skipped: usize,
    /// Maximum number of simultaneously live storage cells (variables +
    /// stack slots + node slots).
    pub max_live_cells: usize,
    /// Storage cells still allocated at the end (tree-resident attributes).
    pub final_node_cells: usize,
}

impl SpaceRunStats {
    /// The stats as seen through the shared [`fnc2_obs`] counter
    /// vocabulary.
    pub fn from_counters(counters: &Counters) -> SpaceRunStats {
        SpaceRunStats {
            visits: counters.get(Key::SpaceVisits) as usize,
            evals: counters.get(Key::SpaceEvals) as usize,
            copies_skipped: counters.get(Key::SpaceCopiesSkipped) as usize,
            max_live_cells: counters.get(Key::SpaceMaxLiveCells) as usize,
            final_node_cells: counters.get(Key::SpaceFinalNodeCells) as usize,
        }
    }

    /// The stats as a dense counter block (inverse of
    /// [`SpaceRunStats::from_counters`]).
    pub fn to_counters(&self) -> Counters {
        let mut c = Counters::new();
        c.set(Key::SpaceVisits, self.visits as u64);
        c.set(Key::SpaceEvals, self.evals as u64);
        c.set(Key::SpaceCopiesSkipped, self.copies_skipped as u64);
        c.set(Key::SpaceMaxLiveCells, self.max_live_cells as u64);
        c.set(Key::SpaceFinalNodeCells, self.final_node_cells as u64);
        c
    }
}

/// Result of a space-optimized evaluation.
#[derive(Debug)]
pub struct SpaceOutcome {
    /// Tree-stored attribute values (the non-temporaries and the root's
    /// attributes).
    pub node_values: AttrValues,
    /// Run counters.
    pub stats: SpaceRunStats,
}

/// A pre-resolved read: where one rule argument comes from, with the plan's
/// storage decision and the grammar's occurrence resolution fused at
/// compile time.
#[derive(Clone, Debug)]
enum CRead {
    /// An interned constant (index into the evaluator's pool).
    Const(u32),
    /// The node's lexical token.
    Token,
    /// A global variable.
    Variable(usize),
    /// A stack read at a static depth below the top.
    Stack(usize, usize),
    /// A tree-resident attribute slot (0 = the node itself).
    NodeAttr { child: u16, off: u32 },
    /// A tree-resident production local.
    NodeLocal(LocalId),
}

/// A pre-resolved write target.
#[derive(Clone, Copy, Debug)]
enum CWrite {
    Variable(usize),
    Stack(usize),
    NodeAttr { child: u16, off: u32 },
    NodeLocal(LocalId),
}

/// One compiled step of a visit: the run loop interprets these with no
/// rule lookups or per-step hash probes.
#[derive(Clone, Debug)]
enum COp {
    /// An eliminated copy rule: nothing to compute, only scheduled pops.
    Skip { pops: Vec<usize> },
    /// Evaluate a rule and store the result.
    Eval {
        /// The defined occurrence or local (for trace events).
        target: ONode,
        /// Rule index within the production (for profiling/trace events).
        rule: u32,
        /// `None` for copy rules (single read, transferred unchanged).
        func: Option<FuncId>,
        reads: Vec<CRead>,
        write: CWrite,
        pops: Vec<usize>,
    },
    /// Descend into a child.
    Visit {
        child: u16,
        visit: usize,
        partition: usize,
        pops: Vec<usize>,
    },
}

/// The space-optimized evaluator.
#[derive(Debug)]
pub struct SpaceEvaluator<'g> {
    grammar: &'g Grammar,
    seqs: &'g VisitSeqs,
    /// `compiled[prod][partition][visit-1]` — fused instruction streams.
    compiled: Vec<Vec<Vec<Vec<COp>>>>,
    /// Interned `Arg::Const` values, cloned per fetch instead of rebuilt.
    consts: Vec<Value>,
    n_variables: usize,
    n_stacks: usize,
    intern: InternMode,
}

struct RunState {
    globals: Vec<Option<Value>>,
    stacks: Vec<Vec<Value>>,
    node_values: AttrValues,
    node_locals: LocalFrames,
    buf: Vec<Value>,
    live: usize,
    max_live: usize,
    counters: Counters,
}

impl RunState {
    fn bump(&mut self, delta: isize) {
        self.live = (self.live as isize + delta) as usize;
        self.max_live = self.max_live.max(self.live);
    }
}

fn intern(consts: &mut Vec<Value>, v: &Value) -> u32 {
    match consts.iter().position(|c| c == v) {
        Some(i) => i as u32,
        None => {
            consts.push(v.clone());
            (consts.len() - 1) as u32
        }
    }
}

impl<'g> SpaceEvaluator<'g> {
    /// Creates the evaluator from the generator's artifacts, fusing the
    /// flat program with the storage plan into compiled step streams.
    pub fn new(
        grammar: &'g Grammar,
        seqs: &'g VisitSeqs,
        fp: &'g FlatProgram,
        plan: &'g SpacePlan,
    ) -> Self {
        let mut consts = Vec::new();
        let mut compiled: Vec<Vec<Vec<Vec<COp>>>> = vec![Vec::new(); grammar.production_count()];
        for (p, pi) in seqs.keys() {
            let key = (p, pi);
            let fs = &fp.seqs[&key];
            let acc = &plan.access[&key];
            let n_visits = seqs.seq(p, pi).segments.len();
            let mut per_visit: Vec<Vec<COp>> = vec![Vec::new(); n_visits];
            for (pos, item) in fs.items.iter().enumerate() {
                let FlatItem::Op { instr, .. } = item else {
                    continue;
                };
                let v = fs.visit_at(pos);
                let step = &acc.steps[pos];
                let op = match instr {
                    Instr::Eval(target) => {
                        let write = step.write.as_ref().expect("eval step has a write");
                        match write {
                            WritePath::SkipVariable | WritePath::SkipStackTop => COp::Skip {
                                pops: step.pops_after.clone(),
                            },
                            _ => Self::compile_eval(grammar, &mut consts, p, *target, write, step),
                        }
                    }
                    Instr::Visit {
                        child,
                        visit: w,
                        partition: cpart,
                    } => COp::Visit {
                        child: *child,
                        visit: *w,
                        partition: *cpart,
                        pops: step.pops_after.clone(),
                    },
                };
                per_visit[v - 1].push(op);
            }
            let slot = &mut compiled[p.index()];
            if slot.len() <= pi {
                slot.resize(pi + 1, Vec::new());
            }
            slot[pi] = per_visit;
        }
        SpaceEvaluator {
            grammar,
            seqs,
            compiled,
            consts,
            n_variables: plan.n_variables,
            n_stacks: plan.n_stacks,
            intern: InternMode::Off,
        }
    }

    /// Turns hash-consed value interning on or off (off by default).
    /// With interning on, every value stored in a global variable, stack
    /// slot, or node cell is the canonical representative from a private
    /// per-evaluation intern table, so structurally equal cells share one
    /// allocation.
    #[must_use]
    pub fn with_interning(mut self, on: bool) -> Self {
        self.intern = if on {
            InternMode::Local
        } else {
            InternMode::Off
        };
        self
    }

    /// Fuses one `EVAL` step's rule with its storage paths.
    fn compile_eval(
        grammar: &Grammar,
        consts: &mut Vec<Value>,
        p: ProductionId,
        target: ONode,
        write: &WritePath,
        step: &crate::alloc::StepAccess,
    ) -> COp {
        let rule = grammar.rule_for(p, target).expect("rule exists");
        let rule_ix = grammar
            .production(p)
            .rules()
            .iter()
            .position(|r| r.target() == target)
            .expect("rule_for found the rule above") as u32;
        let (func, args): (Option<FuncId>, Vec<&Arg>) = match rule.body() {
            RuleBody::Copy(a) => (None, vec![a]),
            RuleBody::Call { func, args } => (Some(*func), args.iter().collect()),
        };
        debug_assert_eq!(args.len(), step.args.len());
        let reads = args
            .iter()
            .zip(&step.args)
            .map(|(arg, path)| match path {
                ReadPath::Immediate => match arg {
                    Arg::Const(v) => CRead::Const(intern(consts, v)),
                    Arg::Token => CRead::Token,
                    Arg::Node(_) => unreachable!("occurrence args have storage paths"),
                },
                ReadPath::Variable(id) => CRead::Variable(*id),
                ReadPath::Stack(id, depth) => CRead::Stack(*id, *depth),
                ReadPath::Node => match arg {
                    Arg::Node(ONode::Attr(Occ { pos, attr })) => CRead::NodeAttr {
                        child: *pos,
                        off: grammar.attr(*attr).offset() as u32,
                    },
                    Arg::Node(ONode::Local(l)) => CRead::NodeLocal(*l),
                    _ => unreachable!("Node path implies an occurrence arg"),
                },
            })
            .collect();
        let write = match write {
            WritePath::Variable(id) => CWrite::Variable(*id),
            WritePath::Stack(id) => CWrite::Stack(*id),
            WritePath::Node => match target {
                ONode::Attr(Occ { pos, attr }) => CWrite::NodeAttr {
                    child: pos,
                    off: grammar.attr(attr).offset() as u32,
                },
                ONode::Local(l) => CWrite::NodeLocal(l),
            },
            WritePath::SkipVariable | WritePath::SkipStackTop => {
                unreachable!("skips compile to COp::Skip")
            }
        };
        COp::Eval {
            target,
            rule: rule_ix,
            func,
            reads,
            write,
            pops: step.pops_after.clone(),
        }
    }

    /// Evaluates `tree` with optimized storage.
    ///
    /// # Errors
    ///
    /// Same failure modes as the unoptimized evaluator: missing root
    /// inputs, missing tokens.
    pub fn evaluate(&self, tree: &Tree, inputs: &RootInputs) -> Result<SpaceOutcome, EvalError> {
        self.evaluate_with(tree, inputs, &EvalBudget::default(), &mut NoopRecorder)
    }

    /// [`SpaceEvaluator::evaluate`] under an explicit [`EvalBudget`] (with
    /// its injected fault, if any, armed), instrumented: run counters are
    /// replayed into `rec` under the `space.*` keys, and when tracing is
    /// on each storage write emits an `AttrStored` event tagged with its
    /// storage class.
    ///
    /// # Errors
    ///
    /// As for [`SpaceEvaluator::evaluate`], plus
    /// [`EvalError::BudgetExceeded`] when a limit is exhausted or the
    /// injected fault fires.
    pub fn evaluate_with<R: Recorder>(
        &self,
        tree: &Tree,
        inputs: &RootInputs,
        budget: &EvalBudget,
        rec: &mut R,
    ) -> Result<SpaceOutcome, EvalError> {
        let g = self.grammar;
        let mut meter = BudgetMeter::new(budget);
        let mut st = RunState {
            globals: vec![None; self.n_variables],
            stacks: vec![Vec::new(); self.n_stacks],
            node_values: AttrValues::new(g, tree),
            node_locals: LocalFrames::new(g, tree),
            buf: Vec::with_capacity(8),
            live: 0,
            max_live: 0,
            counters: Counters::new(),
        };
        let mut ictx = self.intern.ctx();
        let root = tree.root();
        let root_ph = g.production(tree.node(root).production()).lhs();
        for attr in g.inherited(root_ph) {
            let v = inputs
                .get(&attr)
                .ok_or_else(|| EvalError::MissingRootInput {
                    what: g.attr(attr).name().to_string(),
                })?;
            let v = match ictx.as_mut() {
                Some(ictx) => ictx.intern(v.clone(), &mut st.counters).0,
                None => v.clone(),
            };
            st.node_values.set(g, root, attr, v);
            st.bump(1);
        }
        let visits = self.seqs.partitions_of(root_ph)[0].visit_count();
        for v in 1..=visits {
            if let Some(t) = rec.spans() {
                t.begin("visit", format!("space visit {v}/{visits} (root)"));
            }
            let r = self.run_visit(tree, root, 0, v, &mut st, &mut meter, &mut ictx, rec);
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
        st.counters
            .raise(Key::SpaceMaxLiveCells, st.max_live as u64);
        st.counters.set(
            Key::SpaceFinalNodeCells,
            (st.node_values.live_count() + st.node_locals.live_count()) as u64,
        );
        st.counters.replay(rec);
        Ok(SpaceOutcome {
            node_values: st.node_values,
            stats: SpaceRunStats::from_counters(&st.counters),
        })
    }

    /// Performs visit `visit` of `node` under `partition`, iteratively: an
    /// explicit frame stack replaces recursion so visit depth is a checked
    /// budget instead of a thread-stack overflow. When a child frame
    /// finishes, the parent resumes at the op *after* its suspended
    /// `COp::Visit` and first runs that op's scheduled pops.
    #[allow(clippy::too_many_arguments)]
    fn run_visit<R: Recorder>(
        &self,
        tree: &Tree,
        node: NodeId,
        partition: usize,
        visit: usize,
        st: &mut RunState,
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
        st.counters.add(Key::SpaceVisits, 1);
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
            let ops: &[COp] = &self.compiled[p.index()][frame.partition][frame.visit - 1];
            if frame.at == ops.len() {
                if rec.trace() {
                    rec.emit(Event::VisitLeave {
                        node: node.index() as u32,
                        production: p.index() as u32,
                        visit: frame.visit as u16,
                    });
                }
                stack.pop();
                // Resume the parent: the op it suspended at is the Visit
                // that spawned this frame; run its delayed pops now.
                if let Some(parent) = stack.last() {
                    let pp = tree.node(parent.node).production();
                    let pops = match &self.compiled[pp.index()][parent.partition][parent.visit - 1]
                        [parent.at - 1]
                    {
                        COp::Visit { pops, .. } => pops,
                        _ => unreachable!("parent frames suspend only at COp::Visit"),
                    };
                    self.pops(pops, st);
                }
                continue;
            }
            let op = &ops[frame.at];
            frame.at += 1;
            match op {
                COp::Skip { pops } => {
                    st.counters.add(Key::SpaceCopiesSkipped, 1);
                    self.pops(pops, st);
                }
                COp::Eval {
                    target,
                    rule,
                    func,
                    reads,
                    write,
                    pops,
                } => {
                    meter
                        .step()
                        .map_err(|k| EvalError::budget(k, format!("space evaluator, {node}")))?;
                    let t0 = rec
                        .profiler()
                        .is_some_and(RuleProfiler::should_sample)
                        .then(std::time::Instant::now);
                    let value = self.compute(tree, p, node, *func, reads, st)?;
                    let value = match ictx.as_mut() {
                        Some(ictx) => ictx.intern(value, &mut st.counters).0,
                        None => value,
                    };
                    if let Some(prof) = rec.profiler() {
                        prof.record(
                            p.index() as u32,
                            *rule,
                            func.is_none(),
                            t0.map(|t| t.elapsed().as_nanos() as u64),
                        );
                    }
                    if rec.trace() {
                        rec.emit(Event::RuleFired {
                            node: node.index() as u32,
                            production: p.index() as u32,
                            rule: *rule,
                        });
                    }
                    meter
                        .grow_cells(value.cell_count() as u64)
                        .map_err(|k| EvalError::budget(k, format!("space evaluator, {node}")))?;
                    st.counters.add(Key::SpaceEvals, 1);
                    // Dead sources pop before the fresh push (mirrors the
                    // static simulation).
                    self.pops(pops, st);
                    self.write(tree, node, *target, write, value, st, rec);
                }
                COp::Visit {
                    child,
                    visit: w,
                    partition: cpart,
                    pops: _,
                } => {
                    let c = tree.node(node).children()[*child as usize - 1];
                    meter
                        .check_depth(stack.len() + 1)
                        .map_err(|k| EvalError::budget(k, format!("space evaluator, {c}")))?;
                    st.counters.add(Key::SpaceVisits, 1);
                    if rec.trace() {
                        rec.emit(Event::VisitEnter {
                            node: c.index() as u32,
                            production: tree.node(c).production().index() as u32,
                            visit: *w as u16,
                        });
                    }
                    stack.push(Frame {
                        node: c,
                        partition: *cpart,
                        visit: *w,
                        at: 0,
                    });
                }
            }
        }
        Ok(())
    }

    fn pops(&self, pops: &[usize], st: &mut RunState) {
        for &sid in pops {
            st.stacks[sid].pop().expect("scheduled pop finds a value");
            st.bump(-1);
        }
    }

    fn compute(
        &self,
        tree: &Tree,
        p: ProductionId,
        node: NodeId,
        func: Option<FuncId>,
        reads: &[CRead],
        st: &mut RunState,
    ) -> Result<Value, EvalError> {
        let g = self.grammar;
        let RunState {
            globals,
            stacks,
            node_values,
            node_locals,
            buf,
            counters,
            ..
        } = st;
        buf.clear();
        for read in reads {
            let v =
                match read {
                    CRead::Const(i) => {
                        counters.add(Key::EvalConstHits, 1);
                        self.consts[*i as usize].clone()
                    }
                    CRead::Token => {
                        tree.node(node)
                            .token()
                            .cloned()
                            .ok_or_else(|| EvalError::MissingToken {
                                node,
                                production: g.production(p).name().to_string(),
                            })?
                    }
                    CRead::Variable(id) => globals[*id]
                        .clone()
                        .unwrap_or_else(|| panic!("variable {id} read before write")),
                    CRead::Stack(id, depth) => {
                        let s = &stacks[*id];
                        s[s.len() - 1 - depth].clone()
                    }
                    CRead::NodeAttr { child, off } => {
                        let at = if *child == 0 {
                            node
                        } else {
                            tree.node(node).children()[*child as usize - 1]
                        };
                        node_values
                            .get_slot(at, *off as usize)
                            .cloned()
                            .ok_or_else(|| EvalError::MissingValue {
                                node: at,
                                what: format!("slot {off}"),
                            })?
                    }
                    CRead::NodeLocal(l) => node_locals.get(node, *l).cloned().ok_or_else(|| {
                        EvalError::MissingValue {
                            node,
                            what: g.production(p).locals()[l.index()].name().to_string(),
                        }
                    })?,
                };
            buf.push(v);
        }
        Ok(match func {
            None => buf.pop().expect("copy has one argument"),
            Some(f) => g
                .function(f)
                .apply(buf)
                .map_err(|e| EvalError::SemanticFailure {
                    node,
                    message: e.message,
                })?,
        })
    }

    #[allow(clippy::too_many_arguments)]
    fn write<R: Recorder>(
        &self,
        tree: &Tree,
        node: NodeId,
        target: ONode,
        write: &CWrite,
        value: Value,
        st: &mut RunState,
        rec: &mut R,
    ) {
        if rec.trace() {
            if let ONode::Attr(Occ { pos, attr }) = target {
                let at = if pos == 0 {
                    node
                } else {
                    tree.node(node).children()[pos as usize - 1]
                };
                let class = match write {
                    CWrite::Variable(_) => StorageClass::Global,
                    CWrite::Stack(_) => StorageClass::Stack,
                    CWrite::NodeAttr { .. } | CWrite::NodeLocal(_) => StorageClass::Node,
                };
                rec.emit(Event::AttrStored {
                    node: at.index() as u32,
                    attr: attr.index() as u32,
                    class,
                });
            }
        }
        match *write {
            CWrite::Variable(id) => {
                if st.globals[id].replace(value).is_none() {
                    st.bump(1);
                }
            }
            CWrite::Stack(id) => {
                st.stacks[id].push(value);
                st.bump(1);
            }
            CWrite::NodeAttr { child, off } => {
                let at = if child == 0 {
                    node
                } else {
                    tree.node(node).children()[child as usize - 1]
                };
                if st.node_values.set_slot(at, off as usize, value).is_none() {
                    st.bump(1);
                }
            }
            CWrite::NodeLocal(l) => {
                if st.node_locals.set(node, l, value).is_none() {
                    st.bump(1);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use fnc2_ag::{Grammar, GrammarBuilder, TreeBuilder};
    use fnc2_analysis::{snc_test, snc_to_l_ordered, Inclusion};
    use fnc2_visit::{build_visit_seqs, Evaluator};

    use crate::flat::FlatProgram;
    use crate::lifetime::Lifetimes;
    use crate::object::ObjectIndex;

    use super::*;

    /// Builds everything for a grammar and runs both evaluators on a tree,
    /// asserting identical tree-visible results for the given attributes.
    fn assert_equivalent(g: &Grammar, tree: &Tree, inputs: &RootInputs) -> (SpaceRunStats, usize) {
        let snc = snc_test(g);
        assert!(snc.is_snc());
        let lo = snc_to_l_ordered(g, &snc, Inclusion::Long).unwrap();
        let seqs = build_visit_seqs(g, &lo);
        let fp = FlatProgram::new(g, &seqs);
        let objects = ObjectIndex::new(g);
        let lt = Lifetimes::analyze(g, &seqs, &fp, &objects);
        let plan = crate::alloc::plan_storage(g, &seqs, &fp, &objects, &lt);

        let plain = Evaluator::new(g, &seqs);
        let (want, _) = plain.evaluate(tree, inputs).unwrap();
        let opt = SpaceEvaluator::new(g, &seqs, &fp, &plan);
        let outcome = opt.evaluate(tree, inputs).unwrap();

        // Root synthesized attributes must agree (they are node-stored).
        let root_ph = g.production(tree.node(tree.root()).production()).lhs();
        for attr in g.synthesized(root_ph) {
            assert_eq!(
                outcome.node_values.get(g, tree.root(), attr),
                want.get(g, tree.root(), attr),
                "root attribute {}",
                g.attr(attr).name()
            );
        }
        // Total instance count for the ÷4–8 comparison.
        let total_instances = want.live_count();
        (outcome.stats, total_instances)
    }

    fn two_pass() -> Grammar {
        let mut g = GrammarBuilder::new("two_pass");
        let s = g.phylum("S");
        let a = g.phylum("A");
        let out = g.syn(s, "out");
        let down = g.inh(a, "down");
        let up = g.syn(a, "up");
        g.func("succ", 1, |v| Value::Int(v[0].as_int() + 1));
        let root = g.production("root", s, &[a]);
        g.copy(root, fnc2_ag::Occ::lhs(out), fnc2_ag::Occ::new(1, up));
        g.constant(root, fnc2_ag::Occ::new(1, down), Value::Int(0));
        let mid = g.production("mid", a, &[a]);
        g.call(
            mid,
            fnc2_ag::Occ::new(1, down),
            "succ",
            [fnc2_ag::Occ::lhs(down).into()],
        );
        g.call(
            mid,
            fnc2_ag::Occ::lhs(up),
            "succ",
            [fnc2_ag::Occ::new(1, up).into()],
        );
        let leaf = g.production("leaf", a, &[]);
        g.copy(leaf, fnc2_ag::Occ::lhs(up), fnc2_ag::Occ::lhs(down));
        g.finish().unwrap()
    }

    #[test]
    fn equivalence_and_cell_reduction_on_chain() {
        let g = two_pass();
        let mut tb = TreeBuilder::new(&g);
        let mut cur = tb.op("leaf", &[]).unwrap();
        for _ in 0..40 {
            cur = tb.op("mid", &[cur]).unwrap();
        }
        let root = tb.op("root", &[cur]).unwrap();
        let tree = tb.finish_root(root).unwrap();

        let (stats, total_instances) = assert_equivalent(&g, &tree, &RootInputs::new());
        // The chain has ~84 instances but the stacks hold at most a couple
        // of cells at a time: the dynamic high-water mark must be far
        // smaller than tree storage.
        assert!(
            stats.max_live_cells * 4 <= total_instances,
            "max_live {} vs instances {total_instances}",
            stats.max_live_cells
        );
        assert!(stats.copies_skipped > 0 || stats.evals > 0);
    }

    #[test]
    fn interned_run_matches_plain() {
        let g = two_pass();
        let mut tb = TreeBuilder::new(&g);
        let mut cur = tb.op("leaf", &[]).unwrap();
        for _ in 0..20 {
            cur = tb.op("mid", &[cur]).unwrap();
        }
        let root = tb.op("root", &[cur]).unwrap();
        let tree = tb.finish_root(root).unwrap();

        let snc = snc_test(&g);
        let lo = snc_to_l_ordered(&g, &snc, Inclusion::Long).unwrap();
        let seqs = build_visit_seqs(&g, &lo);
        let fp = FlatProgram::new(&g, &seqs);
        let objects = ObjectIndex::new(&g);
        let lt = Lifetimes::analyze(&g, &seqs, &fp, &objects);
        let plan = crate::alloc::plan_storage(&g, &seqs, &fp, &objects, &lt);

        let plain = SpaceEvaluator::new(&g, &seqs, &fp, &plan);
        let want = plain.evaluate(&tree, &RootInputs::new()).unwrap();
        let interned = SpaceEvaluator::new(&g, &seqs, &fp, &plan).with_interning(true);
        let got = interned.evaluate(&tree, &RootInputs::new()).unwrap();

        let root_ph = g.production(tree.node(tree.root()).production()).lhs();
        for attr in g.synthesized(root_ph) {
            assert_eq!(
                got.node_values.get(&g, tree.root(), attr),
                want.node_values.get(&g, tree.root(), attr),
                "root attribute {}",
                g.attr(attr).name()
            );
        }
        // Interning must not change the storage accounting.
        assert_eq!(got.stats, want.stats);
    }

    #[test]
    fn stacks_drain_completely() {
        let g = two_pass();
        let mut tb = TreeBuilder::new(&g);
        let mut cur = tb.op("leaf", &[]).unwrap();
        for _ in 0..5 {
            cur = tb.op("mid", &[cur]).unwrap();
        }
        let root = tb.op("root", &[cur]).unwrap();
        let tree = tb.finish_root(root).unwrap();

        let snc = snc_test(&g);
        let lo = snc_to_l_ordered(&g, &snc, Inclusion::Long).unwrap();
        let seqs = build_visit_seqs(&g, &lo);
        let fp = FlatProgram::new(&g, &seqs);
        let objects = ObjectIndex::new(&g);
        let lt = Lifetimes::analyze(&g, &seqs, &fp, &objects);
        let plan = crate::alloc::plan_storage(&g, &seqs, &fp, &objects, &lt);
        let opt = SpaceEvaluator::new(&g, &seqs, &fp, &plan);
        let outcome = opt.evaluate(&tree, &RootInputs::new()).unwrap();
        // Nothing but node-resident cells remains live at the end: the
        // final count equals root in+out plus any node-class attributes.
        assert!(outcome.stats.final_node_cells <= tree.size());
    }
}
