//! # fnc2-incremental — incremental attribute evaluation (paper §2.1.2)
//!
//! FNC-2's incremental method rests on the **doubly non-circular** class:
//! an exhaustive evaluator whose argument selectors are closed both "from
//! below" (`IO`) and "from above" (`OI`) can *start at any node in the
//! tree*. Incrementality is then "a set of semantic-control functions
//! limiting the reevaluation process to affected instances", based on the
//! status of each attribute instance — **Changed**, **Unchanged** or
//! **Unknown** — and the comparison of old and new values, where "the
//! notion of equality used in this comparison can be adapted to the problem
//! at hand" ([`Equality`]). Multiple subtree replacements are supported
//! ([`IncrementalEvaluator::replace_subtrees`]). This reproduction orders
//! the affected instances by their dependencies as it goes, so it does not
//! need to start an exhaustive evaluator inside the tree, and it works on
//! any tree whose instances are not circular.
//!
//! Every edit — one subtree replacement, a batch of them, or an in-place
//! production swap ([`IncrementalEvaluator::swap_production`]) — ends in
//! the same reevaluation wave, of two steps. Each edited node gets back its
//! pre-edit decoration, and every instance that a rule of an edited
//! subtree defines is dirty. The wave first walks the instances that read
//! the dirty ones, transitively, then settles all of them in topological
//! order: an instance fires when it is dirty or something it reads
//! changed, and at most once (the optimal-time propagation of Reps,
//! Teitelbaum and Demers). Where a firing returns a value equal to the old
//! one, the old value stays and propagation is cut; an edited node's
//! synthesized instances are compared with their pre-edit values, so an
//! edit whose subtree computes the same outputs goes no further.
//!
//! The settle has no nesting, so a wave charges its
//! [`EvalBudget`](fnc2_guard::EvalBudget) steps, value cells and the
//! deadline, but never `max_depth`. A circular tree leaves instances that
//! never become ready, and the wave reports
//! [`EvalError::CircularInstance`](fnc2_visit::EvalError::CircularInstance).
//!
//! An edit is checked before the tree changes: each target must be a node
//! of the current tree, each replacement must derive its target's phylum,
//! and no target of a batch may lie inside another's subtree. A rejected
//! edit returns a [`TreeError`](fnc2_ag::TreeError) and changes nothing.
//! A wave that fails — stopped by its budget, say — is not rolled back:
//! the edit stays applied and the instances the wave did not settle keep
//! stale or missing values. They stay pending, and the next wave settles
//! them with its own.
//!
//! ```
//! use fnc2_ag::{GrammarBuilder, Occ, TreeBuilder, Value};
//! use fnc2_incremental::IncrementalEvaluator;
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
//! let mut tb = TreeBuilder::new(&grammar);
//! let a = tb.op("leaf", &[])?;
//! let b = tb.op("node", &[a])?;
//! let tree = tb.finish_root(b)?;
//!
//! let mut inc = IncrementalEvaluator::new(&grammar, tree, Default::default())?;
//! let root = inc.tree().root();
//! assert_eq!(inc.value(root, n), Some(&Value::Int(1)));
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod evaluator;
mod status;

pub use evaluator::{IncrementalEvaluator, IncrementalStats};
pub use status::Equality;
