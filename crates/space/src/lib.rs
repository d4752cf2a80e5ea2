//! # fnc2-space — the space optimizer (paper §2.2)
//!
//! The visit-sequence paradigm's "beneficial side effect": a statically
//! determinable total evaluation order permits a fine static analysis of
//! every attribute instance's lifetime, which in turn decides the most
//! efficient storage — a **global variable**, a **global stack**, or (last
//! resort) **tree nodes**. This crate implements FNC-2's improvements over
//! Kastens:
//!
//! * below-top stack accesses at statically computed depths, with delayed
//!   `POP`s, so that *every* temporary attribute fits a stack;
//! * a finer variable test based on the grammar of visits and contexts
//!   (here: per-visit may-evaluate sets);
//! * packing of variables and stacks driven by the number of **copy rules**
//!   a grouping eliminates (not mere feasibility);
//! * copy-rule elimination itself (shared variables; stack-top renames).
//!
//! Entry points: [`analyze_space`] builds a [`SpacePlan`];
//! [`plan_lowering`] lowers it into the visit-sequence interpreter's op
//! streams ([`plan_evaluator`] wraps them in an evaluator), which then run
//! with optimized storage and report the live-cell high-water mark.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod alloc;
mod flat;
mod lifetime;
mod lower;
mod object;

pub use alloc::{
    plan_storage, validate_plan, ReadPath, SeqAccess, SpacePlan, SpaceStats, StepAccess, Storage,
    WritePath,
};
pub use flat::{FlatItem, FlatProgram, FlatSeq, Instance, InstanceKind};
pub use lifetime::{interval_hits_visit, strict_stack_candidates, Lifetimes};
pub use lower::{plan_evaluator, plan_lowering};
pub use object::{Object, ObjectIndex, ObjectSet};

use fnc2_ag::Grammar;
use fnc2_visit::VisitSeqs;

/// One-call space analysis: flattening, lifetimes, storage plan.
pub fn analyze_space(
    grammar: &Grammar,
    seqs: &VisitSeqs,
) -> (FlatProgram, ObjectIndex, Lifetimes, SpacePlan) {
    let fp = FlatProgram::new(grammar, seqs);
    let objects = ObjectIndex::new(grammar);
    let lt = Lifetimes::analyze(grammar, seqs, &fp, &objects);
    let plan = plan_storage(grammar, seqs, &fp, &objects, &lt);
    (fp, objects, lt, plan)
}
