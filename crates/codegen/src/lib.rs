//! # fnc2-codegen — the C translator and the common optimizer (paper §3.2)
//!
//! The back end of the FNC-2 system: a **common optimizer** performing
//! tail-recursion elimination ([`tail_info`]) and building deterministic
//! **decision trees** for the OLGA pattern-matching construct
//! ([`compile_arms`]), followed by the translator producing the complete
//! C source text of a generated evaluator: [`to_c`]. It prints the rule
//! functions from the lowering's rule table ([`fnc2_olga::RuleText`]) and
//! the rules the lowering generated from the grammar, and reads every
//! variable as the checker marked it ([`fnc2_olga::ast::VarRef`]), so it
//! resolves no name itself. The paper's second translator, to Lisp, is not
//! reproduced (DESIGN.md, substitutions).
//!
//! Like the 1990 implementation, the C back end is deliberately naïve about
//! memory (no garbage collector) — the paper names that as the main reason
//! the bootstrapped system ran 2–4× slower than the hand-written one.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod c;
mod optimizer;

pub use c::{module_to_c, to_c};
pub use optimizer::{compile_arms, run_decision, tail_info, Decision, Path, TailInfo, Test};
