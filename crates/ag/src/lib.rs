//! # fnc2-ag — the attribute-grammar object model
//!
//! Core data structures of the FNC-2 reproduction: grammars (phyla,
//! operators/productions, inherited & synthesized attributes, semantic
//! rules, production-local attributes), local dependency graphs, attributed
//! trees, and the dynamic value model of semantic functions.
//!
//! This is the *abstract AG* interface of the paper (§3.1): the OLGA
//! front-end (`fnc2-olga`) produces a [`Grammar`], and the evaluator
//! generator (`fnc2-analysis`, `fnc2-visit`, `fnc2-space`) consumes it.
//!
//! ## Example
//!
//! Knuth's binary-number grammar, the canonical AG example:
//!
//! ```
//! use fnc2_ag::{GrammarBuilder, Occ, Value};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut g = GrammarBuilder::new("binary");
//! let number = g.phylum("Number");
//! let seq = g.phylum("Seq");
//! let bit = g.phylum("Bit");
//!
//! let n_value = g.syn(number, "value");
//! let s_value = g.syn(seq, "value");
//! let s_len = g.syn(seq, "length");
//! let s_scale = g.inh(seq, "scale");
//! let b_value = g.syn(bit, "value");
//! let b_scale = g.inh(bit, "scale");
//!
//! g.func("add", 2, |a| Value::Real(a[0].as_real() + a[1].as_real()));
//! g.func("succ", 1, |a| Value::Int(a[0].as_int() + 1));
//! g.func("pow2", 1, |a| Value::Real(2f64.powi(a[0].as_int() as i32)));
//!
//! let number_p = g.production("number", number, &[seq]);
//! g.copy(number_p, Occ::lhs(n_value), Occ::new(1, s_value));
//! g.constant(number_p, Occ::new(1, s_scale), Value::Int(0));
//!
//! let pair = g.production("pair", seq, &[seq, bit]);
//! g.call(pair, Occ::lhs(s_value), "add",
//!        [Occ::new(1, s_value).into(), Occ::new(2, b_value).into()]);
//! g.call(pair, Occ::lhs(s_len), "succ", [Occ::new(1, s_len).into()]);
//! g.call(pair, Occ::new(1, s_scale), "succ", [Occ::lhs(s_scale).into()]);
//! g.copy(pair, Occ::new(2, b_scale), Occ::lhs(s_scale));
//!
//! let single = g.production("single", seq, &[bit]);
//! g.copy(single, Occ::lhs(s_value), Occ::new(1, b_value));
//! g.constant(single, Occ::lhs(s_len), Value::Int(1));
//! g.copy(single, Occ::new(1, b_scale), Occ::lhs(s_scale));
//!
//! let zero = g.production("zero", bit, &[]);
//! g.constant(zero, Occ::lhs(b_value), Value::Real(0.0));
//!
//! let one = g.production("one", bit, &[]);
//! g.call(one, Occ::lhs(b_value), "pow2", [Occ::lhs(b_scale).into()]);
//!
//! let grammar = g.finish()?;
//! assert_eq!(grammar.attr_count(), 6);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod builder;
mod deps;
mod error;
mod grammar;
mod ids;
pub mod intern;
mod tree;
mod value;

pub use builder::GrammarBuilder;
pub use deps::DepGraph;
pub use error::{GrammarError, TreeError};
pub use grammar::{
    Arg, AttrInfo, AttrKind, Grammar, LocalInfo, Phylum, Production, RuleBody, SemError, SemFn,
    SemRule,
};
pub use ids::{AttrId, FuncId, LocalId, NodeId, ONode, Occ, PhylumId, ProductionId};
pub use intern::{InternStats, Interner, MemoCache, MemoKey};
pub use tree::{term_to_tree, AttrValues, LocalFrames, Node, Preorder, Tree, TreeBuilder};
pub use value::{Term, Value, ValueIdent};
