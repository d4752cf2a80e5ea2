//! # fnc2-olga — the OLGA AG-description language (paper §2.4, §3.2)
//!
//! FNC-2 rejected "implementation language plus attribute accessors" input
//! styles and designed OLGA: purely applicative (but not functional),
//! strongly typed with overloading and local inference, block-structured
//! and modular — compilation units are declaration/definition **modules**
//! and **attribute grammars**, an AG defines a tree-to-tree mapping, AGs
//! are structured into **phases**, rules may bind production-**local**
//! attributes, and most copy rules are generated automatically.
//!
//! This crate implements a faithful subset: lexer, parser, type checker,
//! module system with opaque exports, expression interpreter, and the
//! lowering to the abstract AG consumed by the evaluator generator.
//!
//! ```
//! use fnc2_olga::compile_ag_source;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let (grammar, info) = compile_ag_source(r#"
//!     attribute grammar count;
//!       phylum S;
//!       operator leaf : S ::= ;
//!       operator node : S ::= S;
//!       synthesized n : int of S;
//!       for leaf { S.n := 0; }
//!       for node { S$1.n := S$2.n + 1; }
//!     end
//! "#)?;
//! assert_eq!(grammar.production_count(), 2);
//! assert_eq!(info.computed_rules, 2);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod ast;
mod check;
mod eval;
mod lexer;
mod lower;
mod parser;
mod types;

pub use check::{
    AgAttrTable, CheckError, CheckedAg, CheckedModule, Compiler, FunSig, ThreadInfo, UnitEnv,
};
pub use eval::{EvalAbort, EvalCtx};
pub use lexer::{lex, LexError, Pos, Tok, Token};
pub use lower::{lower, LowerError, LowerInfo, RuleText};
pub use parser::{parse_unit, parse_units, ParseError};
pub use types::{resolve_type, Ty};

use ast::Unit;
use fnc2_ag::Grammar;

/// Everything that can go wrong while compiling OLGA sources.
#[derive(Debug)]
pub enum OlgaError {
    /// Lexing/parsing failed.
    Parse(ParseError),
    /// Checking failed.
    Check(CheckError),
    /// Lowering failed (well-definedness).
    Lower(LowerError),
}

impl std::fmt::Display for OlgaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OlgaError::Parse(e) => write!(f, "{e}"),
            OlgaError::Check(e) => write!(f, "{e}"),
            OlgaError::Lower(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for OlgaError {}

impl From<ParseError> for OlgaError {
    fn from(e: ParseError) -> Self {
        OlgaError::Parse(e)
    }
}
impl From<CheckError> for OlgaError {
    fn from(e: CheckError) -> Self {
        OlgaError::Check(e)
    }
}
impl From<LowerError> for OlgaError {
    fn from(e: LowerError) -> Self {
        OlgaError::Lower(e)
    }
}

/// One-call pipeline: parse, check and lower a source text containing any
/// number of modules followed by exactly one attribute grammar.
///
/// # Errors
///
/// Returns the first parse/check/lowering error.
pub fn compile_ag_source(src: &str) -> Result<(Grammar, LowerInfo), OlgaError> {
    let (grammar, info, _) = lower(&check_units(parse_units(src)?)?)?;
    Ok((grammar, info))
}

/// Checks parsed units — any number of modules and exactly one attribute
/// grammar — and returns the checked attribute grammar.
///
/// # Errors
///
/// Returns the first check error, or a parse error when the units hold no
/// attribute grammar or more than one.
pub fn check_units(units: Vec<Unit>) -> Result<CheckedAg, OlgaError> {
    let mut compiler = Compiler::new();
    let mut ag = None;
    for unit in units {
        match unit {
            Unit::Module(m) => compiler.add_module(m)?,
            Unit::Ag(a) => {
                if ag.is_some() {
                    return Err(OlgaError::Parse(ParseError {
                        message: "source contains more than one attribute grammar".into(),
                        pos: Pos { line: 1, col: 1 },
                    }));
                }
                ag = Some(a);
            }
        }
    }
    let Some(ag) = ag else {
        return Err(OlgaError::Parse(ParseError {
            message: "source contains no attribute grammar".into(),
            pos: Pos { line: 1, col: 1 },
        }));
    };
    Ok(compiler.check_ag(ag)?)
}

/// Parses and checks a source of modules only, returning the compiler
/// holding them (for multi-file applications à la `mkfnc2`).
///
/// # Errors
///
/// Returns the first parse/check error.
pub fn compile_modules(src: &str) -> Result<Compiler, OlgaError> {
    let units = parse_units(src)?;
    let mut compiler = Compiler::new();
    for unit in units {
        match unit {
            Unit::Module(m) => compiler.add_module(m)?,
            Unit::Ag(a) => {
                return Err(OlgaError::Check(CheckError {
                    message: format!(
                        "expected modules only, found attribute grammar `{}`",
                        a.name
                    ),
                    pos: Pos { line: 1, col: 1 },
                }))
            }
        }
    }
    Ok(compiler)
}
