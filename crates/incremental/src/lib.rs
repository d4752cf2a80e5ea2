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
//! ([`IncrementalEvaluator::replace_subtrees`]).
//!
//! Every edit — one subtree replacement, a batch of them, or an in-place
//! production swap ([`IncrementalEvaluator::swap_production`]) — ends in
//! the same reevaluation wave. The wave evaluates each edited subtree from
//! its root; the root's synthesized instances whose values changed are its
//! sources. It then walks the instances that read them, transitively, and
//! settles those in topological order: an instance fires only when
//! something it reads changed, and at most once (the optimal-time
//! propagation of Reps, Teitelbaum and Demers). An instance of an edited
//! subtree, which the subtree evaluation fired already, fires a second
//! time only when a value it read has changed since: an edited node's
//! synthesized instance, say, whose later-visit inherited input the
//! propagation changed.
//!
//! An edit is checked before the tree changes: each target must be a node
//! of the current tree, each replacement must derive its target's phylum,
//! and no target of a batch may lie inside another's subtree. A rejected
//! edit returns a [`TreeError`](fnc2_ag::TreeError) and changes nothing.
//! A wave that fails — stopped by its
//! [`EvalBudget`](fnc2_guard::EvalBudget), say — is not rolled back: the
//! edit stays applied and the instances the wave did not settle keep stale
//! or missing values. They stay pending, and the next wave settles them
//! with its own sources.
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
mod readers;
mod status;

pub use evaluator::{IncrementalEvaluator, IncrementalStats};
pub use status::Equality;
