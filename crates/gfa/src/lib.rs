//! # fnc2-gfa — the Grammar Flow Analysis substrate
//!
//! FNC-2's evaluator generator is built on *Grammar Flow Analysis*
//! (Möncke \[38\], improved by Jourdan & Parigot \[26\]): every global
//! grammar property — the `IO`/`OI` graphs of the (strong/double)
//! non-circularity tests, the NC test's `IO` graph sets, Kastens' induced
//! dependencies, the space optimizer's may-evaluate sets, lint's derivation
//! heights and liveness, the LL(1) NULLABLE/FIRST/FOLLOW sets — is a least
//! fixed point over the grammar, computed by one engine. This crate
//! provides the shared machinery:
//!
//! * [`BitMatrix`] — dense relations with fast transitive closure,
//! * [`Digraph`] — deterministic topological sorting, cycle extraction
//!   (feeding the circularity trace), SCCs,
//! * [`fixpoint`] — the dependency-driven worklist engine that runs every
//!   grammar flow, with [`dependents`] building each flow's re-examination
//!   lists from the facts its items write and read.
//!
//! ```
//! use fnc2_gfa::BitMatrix;
//!
//! let mut dep = BitMatrix::new(3);
//! dep.set(0, 1);
//! dep.set(1, 2);
//! let closed = dep.closure();
//! assert!(closed.get(0, 2));
//! assert!(closed.is_irreflexive()); // acyclic
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod bitmat;
mod digraph;
mod fixpoint;

pub use bitmat::BitMatrix;
pub use digraph::{Digraph, Scratch};
pub use fixpoint::{dependents, fixpoint};
