//! # fnc2-tools — the companion processors (paper §3.3)
//!
//! "FNC-2 comes with several companion processors": this crate reproduces
//! two that matter to the evaluation:
//!
//! * `ppat` — unparser generation from per-operator templates
//!   ([`Unparser`], for both input trees and output terms);
//! * `mkfnc2` — application construction: module dependency graph, build
//!   order, cycle diagnosis, and the Table 4 source statistics
//!   ([`analyze_project`]).
//!
//! The third, `asx`, checks attributed abstract syntaxes for unreachable
//! and unproductive phyla and unused attributes; those checks are lint's
//! `L003`, `L004` and `L001` (`fnc2-lint`).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod mkfnc2;
mod ppat;

pub use mkfnc2::{
    analyze_project, render_stats, Project, ProjectError, SourceFile, SubsystemStats, UnitInfo,
};
pub use ppat::{Item, PpatError, PpatSpec, Unparser};
