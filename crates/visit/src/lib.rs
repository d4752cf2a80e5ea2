//! # fnc2-visit — visit sequences and the exhaustive evaluators
//!
//! The back half of the evaluator generator plus the generated evaluators'
//! run time (paper §2.1.1, §3.1):
//!
//! * [`build_visit_seqs`] turns the transformation's plans into
//!   `BEGIN/EVAL/VISIT/LEAVE` visit-sequences ([`VisitSeq`]);
//! * [`Evaluator`] interprets them deterministically — the production
//!   evaluator, with node storage (the trivial plan) or a space plan's
//!   global variables and stacks;
//! * [`DynamicEvaluator`] is the demand-driven development-mode evaluator
//!   ("non-deterministic visit-sequences directly after the SNC test").
//!
//! ```
//! use fnc2_ag::{GrammarBuilder, Occ, Value};
//! use fnc2_analysis::{snc_test, snc_to_l_ordered, Inclusion};
//! use fnc2_visit::{build_visit_seqs, Evaluator, RootInputs};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut g = GrammarBuilder::new("count");
//! let s = g.phylum("S");
//! let n = g.syn(s, "n");
//! let leaf = g.production("leaf", s, &[]);
//! g.constant(leaf, Occ::lhs(n), Value::Int(0));
//! let node = g.production("node", s, &[s]);
//! g.func("succ", 1, |a| Value::Int(a[0].as_int() + 1));
//! g.call(node, Occ::lhs(n), "succ", [Occ::new(1, n).into()]);
//! let grammar = g.finish()?;
//!
//! let snc = snc_test(&grammar);
//! let lo = snc_to_l_ordered(&grammar, &snc, Inclusion::Long)?;
//! let seqs = build_visit_seqs(&grammar, &lo);
//! let ev = Evaluator::new(&grammar, &seqs);
//!
//! let mut tb = fnc2_ag::TreeBuilder::new(&grammar);
//! let a = tb.op("leaf", &[])?;
//! let b = tb.op("node", &[a])?;
//! let tree = tb.finish_root(b)?;
//! let (values, _) = ev.evaluate(&tree, &RootInputs::new())?;
//! assert_eq!(values.get(&grammar, tree.root(), n), Some(&Value::Int(1)));
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod dynamic;
mod exhaustive;
mod program;
mod provenance;
mod rules;
mod seq;

pub use dynamic::DynamicEvaluator;
pub use exhaustive::{EvalStats, Evaluator, Lowered, RootInputs};
pub use program::{CBody, Cells, CompiledProgram, CompiledRule, FetchOp, Op, SlotRef};
pub use provenance::{dependency_slice, Slice, SliceStep};
pub use rules::{eval_rule, eval_rule_resolved, EvalError, Store};
pub use seq::{build_visit_seqs, Instr, VisitSeq, VisitSeqs};
