//! # fnc2-syntax — scanner and LL(1) tree-constructor generation
//!
//! The `aic`/SYNTAX substrate of FNC-2 (paper §3.3): "`aic` generates
//! abstract tree constructors which run in parallel with, and are driven
//! by, parsers constructed by the SYNTAX system". This crate provides the
//! two halves for the reproduction:
//!
//! * [`scan`] — a specification-driven scanner ([`ScannerSpec`]);
//! * [`Ll1Parser`] — FIRST/FOLLOW computation, predictive-table
//!   construction with conflict reporting, and a parse driver that builds
//!   attributed abstract trees directly (tokens attached as node values,
//!   operator levels folded left through tail nonterminals).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod ll1;
mod scanner;

pub use ll1::{n, t, Action, Cfg, CfgError, CfgRule, DriveError, Ll1Parser, Sym};
pub use scanner::{scan, Lexeme, ScanError, Scanned, ScannerSpec};
