//! Slot-compiled rule programs and the lowered op stream — the one
//! compiled hot path of the evaluator cascade.
//!
//! The generated evaluators of FNC-2 are ordinary compiled code: an
//! attribute access in the C back-end is a struct-field load, not a lookup
//! keyed by attribute name (paper §3.2). This module brings the
//! reproduction to the same shape. At evaluator-construction time every
//! semantic rule of every production is compiled once into a
//! [`CompiledRule`]: each argument becomes a [`FetchOp`] with its storage
//! location fully resolved — constants pooled once per program, node
//! attributes reduced to `(child position, slot offset)` pairs addressing
//! the flat [`AttrValues`] arena, production locals reduced to frame slots
//! in [`LocalFrames`]. Each visit-sequence instruction is then lowered to
//! an [`Op`] carrying its rule already compiled. A storage plan (paper
//! §2.2, computed by `fnc2-space`) only rewrites those ops: reads and
//! writes of global variables and stacks, eliminated copies, scheduled
//! pops. The visit-sequence interpreter and the incremental evaluator both
//! execute rules through [`CompiledProgram::exec_rule`], so none of them
//! pays per-evaluation rule lookups, occurrence resolution, or constant
//! deep-clones.

use std::sync::Arc;

use fnc2_ag::{
    Arg, AttrId, AttrValues, FuncId, Grammar, LocalFrames, LocalId, NodeId, ONode, Occ,
    ProductionId, RuleBody, Tree, Value,
};
use fnc2_obs::{Counters, Key};

use crate::rules::EvalError;
use crate::seq::Instr;

/// A pre-resolved argument fetch: where one rule argument comes from, with
/// every lookup done at compile time.
#[derive(Clone, Debug, PartialEq)]
pub enum FetchOp {
    /// A pooled constant — an index into [`CompiledProgram::consts`].
    Const(u32),
    /// The lexical token attached to the node the rule applies at.
    Token,
    /// An attribute occurrence: `child == 0` reads the node itself,
    /// `child == i` reads child `i` (1-based); `off` is the attribute's
    /// pre-computed slot offset within its phylum block.
    Attr {
        /// Position in the production: 0 = the node itself, 1-based = child.
        child: u16,
        /// The attribute read (kept for diagnostics).
        attr: AttrId,
        /// Slot offset of `attr` within its phylum's attribute block.
        off: u32,
    },
    /// A production-local attribute of the node's frame.
    Local(LocalId),
    /// A storage plan's global variable.
    Variable(u32),
    /// A storage plan's global stack, read `depth` cells below its top.
    Stack {
        /// The stack read.
        id: u32,
        /// Cells between the value and the top (0 = the top itself).
        depth: u32,
    },
}

/// A pre-resolved store target: where a rule's result goes.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SlotRef {
    /// An attribute occurrence slot (same addressing as [`FetchOp::Attr`]).
    Attr {
        /// Position in the production: 0 = the node itself, 1-based = child.
        child: u16,
        /// The attribute written (kept for diagnostics).
        attr: AttrId,
        /// Slot offset within the phylum's attribute block.
        off: u32,
    },
    /// A production-local slot in the node's frame.
    Local(LocalId),
    /// A storage plan's global variable (overwritten in place).
    Variable(u32),
    /// A storage plan's global stack (pushed).
    Stack(u32),
}

/// The compiled body of a semantic rule.
#[derive(Clone, Debug)]
pub enum CBody {
    /// Transfer one fetched value unchanged.
    Copy(FetchOp),
    /// Apply a semantic function to fetched arguments.
    Call {
        /// The semantic function to apply.
        func: FuncId,
        /// Pre-resolved argument fetches, in call order.
        args: Vec<FetchOp>,
    },
}

/// One semantic rule, compiled: its target slot and pre-resolved body.
#[derive(Clone, Debug)]
pub struct CompiledRule {
    /// The occurrence or local the rule defines (kept for diagnostics and
    /// dependency queries).
    pub target: ONode,
    /// The pre-resolved store target.
    pub slot: SlotRef,
    /// The pre-resolved body.
    pub body: CBody,
    /// Whether the rule is an occurrence-to-occurrence copy rule (for the
    /// copy statistics, paper §2.2's dominant rule form).
    pub is_copy: bool,
}

/// One lowered visit-sequence instruction: what the interpreter executes.
///
/// `pops` lists the storage plan's global stacks (by id, possibly
/// repeated) to pop once the step is done; for a `Visit`, once the child
/// returns. Under the trivial plan every op reads and writes node storage
/// and `pops` is empty.
#[derive(Clone, Debug)]
pub enum Op {
    /// `EVAL`: run rule `rule` of the production, compiled with the plan's
    /// reads and write, and store its result.
    Eval {
        /// Rule index within the production (for profiling and tracing).
        rule: u32,
        /// The rule with its storage resolved (shared with the program's
        /// copy under the trivial plan).
        code: Arc<CompiledRule>,
        /// Stacks popped after the rule's reads, before its write.
        pops: Box<[u32]>,
    },
    /// An `EVAL` of a copy rule the plan eliminated: its source and target
    /// share storage, so only the scheduled pops remain.
    Skip {
        /// Stacks popped.
        pops: Box<[u32]>,
    },
    /// `VISIT`: perform visit `visit` of child `child` under `partition`.
    Visit {
        /// 1-based child position.
        child: u16,
        /// 1-based visit number on the child.
        visit: u16,
        /// The child's partition.
        partition: u16,
        /// Stacks popped when the child returns.
        pops: Box<[u32]>,
    },
}

/// Attribute storage for one run: the tree-node arenas, plus a storage
/// plan's global variables and stacks and the live-cell count its
/// statistics report. Under the trivial plan only the node arenas are used.
#[derive(Debug, Default)]
pub struct Cells {
    /// Attribute slots at tree nodes.
    pub values: AttrValues,
    /// Production-local frames at tree nodes.
    pub locals: LocalFrames,
    pub(crate) variables: Vec<Option<Value>>,
    pub(crate) stacks: Vec<Vec<Value>>,
    pub(crate) live: usize,
    pub(crate) max_live: usize,
}

impl Cells {
    /// Empty node storage for `tree`, with no global variables or stacks.
    pub fn new(grammar: &Grammar, tree: &Tree) -> Cells {
        Cells {
            values: AttrValues::new(grammar, tree),
            locals: LocalFrames::new(grammar, tree),
            ..Cells::default()
        }
    }

    /// Stores `value` into `slot` for a rule applied at `node`. Returns
    /// true when the store occupied a fresh cell (a push always does).
    #[inline(always)]
    pub(crate) fn store(
        &mut self,
        tree: &Tree,
        node: NodeId,
        slot: &SlotRef,
        value: Value,
    ) -> bool {
        match *slot {
            SlotRef::Attr { child, off, .. } => self
                .values
                .set_slot(tree.node_at(node, child), off as usize, value)
                .is_none(),
            SlotRef::Local(l) => self.locals.set(node, l, value).is_none(),
            SlotRef::Variable(id) => self.variables[id as usize].replace(value).is_none(),
            SlotRef::Stack(id) => {
                self.stacks[id as usize].push(value);
                true
            }
        }
    }

    /// Counts one more live cell, raising the high-water mark.
    pub(crate) fn grow(&mut self) {
        self.live += 1;
        self.max_live = self.max_live.max(self.live);
    }

    /// Runs a step's scheduled pops.
    pub(crate) fn pop(&mut self, stacks: &[u32]) {
        for &id in stacks {
            self.stacks[id as usize]
                .pop()
                .expect("scheduled pop finds a value");
            self.live -= 1;
        }
    }
}

/// All productions of a grammar, slot-compiled, plus the shared constant
/// pool. Build once per grammar with [`CompiledProgram::new`]; execution
/// is read-only, so one program serves any number of lowerings and
/// concurrent workers.
#[derive(Clone, Debug)]
pub struct CompiledProgram {
    /// `rules[p]`: production `p`'s compiled rules, parallel to
    /// [`Production::rules`](fnc2_ag::Production::rules).
    rules: Vec<Vec<Arc<CompiledRule>>>,
    consts: Vec<Value>,
}

/// The index of `v` in the constant pool, added if it is new.
fn pool(consts: &mut Vec<Value>, v: &Value) -> u32 {
    match consts.iter().position(|c| c == v) {
        Some(i) => i as u32,
        None => {
            consts.push(v.clone());
            (consts.len() - 1) as u32
        }
    }
}

impl CompiledProgram {
    /// Compiles every semantic rule of `grammar`.
    pub fn new(grammar: &Grammar) -> Self {
        let mut consts = Vec::new();
        let compile_fetch = |consts: &mut Vec<Value>, arg: &Arg| match arg {
            Arg::Const(v) => FetchOp::Const(pool(consts, v)),
            Arg::Token => FetchOp::Token,
            Arg::Node(ONode::Attr(Occ { pos, attr })) => FetchOp::Attr {
                child: *pos,
                attr: *attr,
                off: grammar.attr(*attr).offset() as u32,
            },
            Arg::Node(ONode::Local(l)) => FetchOp::Local(*l),
        };
        let mut rules = Vec::with_capacity(grammar.production_count());
        for pid in grammar.productions() {
            let p = grammar.production(pid);
            let mut compiled = Vec::with_capacity(p.rules().len());
            for rule in p.rules() {
                let target = rule.target();
                let slot = match target {
                    ONode::Attr(Occ { pos, attr }) => SlotRef::Attr {
                        child: pos,
                        attr,
                        off: grammar.attr(attr).offset() as u32,
                    },
                    ONode::Local(l) => SlotRef::Local(l),
                };
                let body = match rule.body() {
                    RuleBody::Copy(arg) => CBody::Copy(compile_fetch(&mut consts, arg)),
                    RuleBody::Call { func, args } => CBody::Call {
                        func: *func,
                        args: args.iter().map(|a| compile_fetch(&mut consts, a)).collect(),
                    },
                };
                compiled.push(Arc::new(CompiledRule {
                    target,
                    slot,
                    body,
                    is_copy: rule.is_copy(),
                }));
            }
            rules.push(compiled);
        }
        CompiledProgram { rules, consts }
    }

    /// The constant pool shared by all rules, each constant once.
    pub fn consts(&self) -> &[Value] {
        &self.consts
    }

    /// Lowers one instruction of production `p`'s visit-sequences under the
    /// trivial plan: the rule reads and writes node storage, nothing pops.
    /// `grammar`, the program's own, says which rule defines a target.
    pub fn lower(&self, grammar: &Grammar, p: ProductionId, instr: &Instr) -> Op {
        match *instr {
            Instr::Eval(target) => {
                let rule = grammar
                    .node_index(p, target)
                    .and_then(|k| grammar.production(p).rule_index(k))
                    .expect("validated grammar defines every output");
                Op::Eval {
                    rule,
                    code: Arc::clone(&self.rules[p.index()][rule as usize]),
                    pops: Box::default(),
                }
            }
            Instr::Visit {
                child,
                visit,
                partition,
            } => Op::Visit {
                child,
                visit: visit as u16,
                partition: partition as u16,
                pops: Box::default(),
            },
        }
    }

    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    fn fetch(
        &self,
        grammar: &Grammar,
        tree: &Tree,
        p: ProductionId,
        node: NodeId,
        op: &FetchOp,
        cells: &Cells,
        counters: &mut Counters,
    ) -> Result<Value, EvalError> {
        match op {
            FetchOp::Const(i) => {
                counters.add(Key::EvalConstHits, 1);
                Ok(self.consts[*i as usize].clone())
            }
            FetchOp::Token => {
                tree.node(node)
                    .token()
                    .cloned()
                    .ok_or_else(|| EvalError::MissingToken {
                        node,
                        production: grammar.production(p).name().to_string(),
                    })
            }
            FetchOp::Attr { child, attr, off } => {
                let at = tree.node_at(node, *child);
                cells
                    .values
                    .get_slot(at, *off as usize)
                    .cloned()
                    .ok_or_else(|| EvalError::MissingValue {
                        node: at,
                        what: grammar.attr(*attr).name().to_string(),
                    })
            }
            FetchOp::Local(l) => {
                cells
                    .locals
                    .get(node, *l)
                    .cloned()
                    .ok_or_else(|| EvalError::MissingValue {
                        node,
                        what: grammar.production(p).locals()[l.index()].name().to_string(),
                    })
            }
            FetchOp::Variable(id) => {
                cells.variables[*id as usize]
                    .clone()
                    .ok_or_else(|| EvalError::MissingValue {
                        node,
                        what: format!("global variable {id}"),
                    })
            }
            FetchOp::Stack { id, depth } => {
                let s = &cells.stacks[*id as usize];
                s.len()
                    .checked_sub(*depth as usize + 1)
                    .map(|i| s[i].clone())
                    .ok_or_else(|| EvalError::MissingValue {
                        node,
                        what: format!("global stack {id} at depth {depth}"),
                    })
            }
        }
    }

    /// Executes rule `rule` of production `p` applied at `node`, reading
    /// its arguments from `cells`. Returns the
    /// computed value and whether the rule was a copy rule. `buf` is a
    /// reusable argument buffer; `counters` accumulates
    /// [`Key::EvalConstHits`].
    ///
    /// # Errors
    ///
    /// Fails when an argument is unavailable, a token is missing, or a
    /// semantic function aborts — same contract as
    /// [`eval_rule`](crate::rules::eval_rule).
    #[allow(clippy::too_many_arguments)]
    pub fn eval_rule(
        &self,
        grammar: &Grammar,
        tree: &Tree,
        p: ProductionId,
        rule: u32,
        node: NodeId,
        cells: &Cells,
        buf: &mut Vec<Value>,
        counters: &mut Counters,
    ) -> Result<(Value, bool), EvalError> {
        let cr = &self.rules[p.index()][rule as usize];
        self.exec_rule(grammar, tree, p, cr, node, cells, buf, counters)
    }

    /// [`eval_rule`](Self::eval_rule) with the [`CompiledRule`] already in
    /// hand — the interpreter's ops carry it, lowered under their storage
    /// plan, for both execution and the store, so this is forced inline.
    ///
    /// # Errors
    ///
    /// As for [`eval_rule`](Self::eval_rule).
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    pub fn exec_rule(
        &self,
        grammar: &Grammar,
        tree: &Tree,
        p: ProductionId,
        cr: &CompiledRule,
        node: NodeId,
        cells: &Cells,
        buf: &mut Vec<Value>,
        counters: &mut Counters,
    ) -> Result<(Value, bool), EvalError> {
        match &cr.body {
            CBody::Copy(op) => {
                let v = self.fetch(grammar, tree, p, node, op, cells, counters)?;
                Ok((v, cr.is_copy))
            }
            CBody::Call { func, args } => {
                buf.clear();
                for op in args {
                    buf.push(self.fetch(grammar, tree, p, node, op, cells, counters)?);
                }
                let v =
                    grammar
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
}

#[cfg(test)]
mod tests {
    use fnc2_ag::GrammarBuilder;

    use super::*;

    #[test]
    fn constants_are_pooled_once() {
        // Two productions both using the constant 0 share one pool slot.
        let mut g = GrammarBuilder::new("t");
        let s = g.phylum("S");
        let a = g.phylum("A");
        let out = g.syn(s, "out");
        let w = g.syn(a, "w");
        let root = g.production("root", s, &[a]);
        g.constant(root, Occ::lhs(out), Value::Int(0));
        let leaf = g.production("leaf", a, &[]);
        g.constant(leaf, Occ::lhs(w), Value::Int(0));
        let g = g.finish().unwrap();

        let prog = CompiledProgram::new(&g);
        assert_eq!(prog.consts(), &[Value::Int(0)]);
        let root_p = g.production_by_name("root").unwrap();
        let eval = Instr::Eval(Occ::lhs(out).into());
        assert!(matches!(
            prog.lower(&g, root_p, &eval),
            Op::Eval { rule: 0, .. }
        ));
    }
}
