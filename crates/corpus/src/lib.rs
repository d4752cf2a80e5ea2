//! # fnc2-corpus — the attribute-grammar corpus of the reproduction
//!
//! Real and synthetic AGs standing in for the paper's evaluation inputs
//! (which were FNC-2's own OLGA sources): the classics (Knuth's binary
//! numbers, a desk calculator, a two-visit block scope checker), the
//! mini-Pascal → P-code compiler written in OLGA, the class-ladder witness
//! grammars, and a seeded synthetic generator matched to Table 1's size
//! profiles.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod blocks_olga;
mod classic;
mod desk_olga;
mod minipascal;
mod olga_sources;
mod pathological;
pub mod rng;
mod shapes;
mod synthetic;

pub use blocks_olga::{blocks_olga, BLOCKS_OLGA_LIST};
pub use classic::{binary, binary_tree, blocks, blocks_tree, blocks_tree_generic, desk};
pub use desk_olga::{desk_olga, DESK_OLGA};
pub use minipascal::{
    minipascal, minipascal_scanner, minipascal_syntax, parse_minipascal, sample_program,
    MINIPASCAL_OLGA,
};
pub use olga_sources::{module_source, sized_ag_source, TABLE3_MODULES};
pub use pathological::{
    circular, dnc_not_oag, nc_not_snc, oag1_not_oag0, partition_blowup, snc_only,
};
pub use shapes::{
    balloon, balloon_expected, balloon_tree, chain, chain_expected, chain_tree, flat,
    flat_expected, flat_tree,
};
pub use synthetic::{synthetic, synthetic_tree, SynthProfile, TargetClass, TABLE1_PROFILES};
