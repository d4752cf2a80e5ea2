//! Front-end fuzzing: mutated and truncated OLGA sources through the full
//! lexer → parser → checker → lowering pipeline, asserting the pipeline
//! returns `Err` (or `Ok`, for harmless mutations) and never panics. Each
//! outcome is also summed up as text, which [`run`](crate::run) folds into
//! one digest, so a change to any diagnostic (message or line:col) or to
//! what an accepted mutant lowers to shows as a different digest.

use std::panic::{catch_unwind, AssertUnwindSafe};

use fnc2_corpus::rng::Rng;
use fnc2_corpus::{module_source, sized_ag_source, BLOCKS_OLGA_LIST, MINIPASCAL_OLGA};
use fnc2_olga::{compile_ag_source, compile_modules};

use crate::oracle::panic_message;

/// A front-end case that panicked instead of returning a result.
#[derive(Clone, Debug)]
pub struct FrontFailure {
    /// Index of the case within the run.
    pub case: u64,
    /// Name of the base source the mutation started from.
    pub base: &'static str,
    /// Human-readable description of the applied mutations.
    pub mutations: String,
    /// The panic payload's message.
    pub panic: String,
    /// The mutated source, verbatim, for replay.
    pub source: String,
}

/// Outcome counters of a front-end fuzzing run.
#[derive(Clone, Copy, Debug, Default)]
pub struct FrontStats {
    /// Mutants the pipeline still accepted.
    pub accepted: u64,
    /// Mutants the pipeline rejected with a proper error.
    pub rejected: u64,
}

/// Whether a base source is a whole-grammar AG or a bare module, which
/// decides the entry point it is fed to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Entry {
    Ag,
    Modules,
}

fn bases() -> Vec<(&'static str, Entry, String)> {
    vec![
        ("minipascal", Entry::Ag, MINIPASCAL_OLGA.to_string()),
        ("blocks", Entry::Ag, BLOCKS_OLGA_LIST.to_string()),
        ("sized-ag", Entry::Ag, sized_ag_source("fz", 140)),
        ("module-c", Entry::Modules, module_source("C1", 90)),
        ("module-f", Entry::Modules, module_source("F1", 160)),
    ]
}

/// Runs one mutated front-end case. `Ok(Ok(summary))` means the mutant
/// still compiled: for an attribute grammar, the summary is the lowering's
/// [`LowerInfo`](fnc2_olga::LowerInfo) and the grammar's production and
/// rule counts. `Ok(Err(diagnostic))` means it was rejected, with the
/// error's `Display`. `Err` means the pipeline panicked.
pub fn run_front_case(master_seed: u64, case: u64) -> Result<Result<String, String>, FrontFailure> {
    let mut rng = Rng::seed_from_u64(
        master_seed ^ 0xf0f0_f0f0_0000_0000 ^ 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(case + 1),
    );
    let bases = bases();
    let (name, entry, base) = &bases[rng.gen_usize(0, bases.len() - 1)];
    let mut chars: Vec<char> = base.chars().collect();
    let n_mut = rng.gen_usize(1, 3);
    let mut descr = Vec::new();
    for _ in 0..n_mut {
        descr.push(mutate(&mut rng, &mut chars));
    }
    let source: String = chars.into_iter().collect();
    let mutations = descr.join("; ");

    let src = source.clone();
    let entry = *entry;
    let outcome = catch_unwind(AssertUnwindSafe(move || match entry {
        Entry::Ag => compile_ag_source(&src)
            .map(|(g, info)| format!("{info:?} {} {}", g.production_count(), g.rule_count()))
            .map_err(|e| e.to_string()),
        Entry::Modules => compile_modules(&src)
            .map(|_| "modules".to_string())
            .map_err(|e| e.to_string()),
    }));
    outcome.map_err(|payload| FrontFailure {
        case,
        base: name,
        mutations,
        panic: panic_message(&payload),
        source,
    })
}

const NASTY: &[char] = &[
    '\0',
    '\u{7f}',
    '"',
    '\'',
    '\\',
    '\n',
    '\t',
    'é',
    '∀',
    '\u{1F980}',
];

const TOKENS: &[&str] = &[
    "attribute grammar",
    "module",
    "synthesized",
    "inherited",
    "::=",
    ":=",
    "with",
    "where",
    "(",
    ")",
    ";;",
    "end",
    "-- ",
    "if",
];

/// Applies one random mutation in place and describes it. All index
/// arithmetic is over `char`s, so mutants stay valid UTF-8 by
/// construction.
fn mutate(rng: &mut Rng, chars: &mut Vec<char>) -> String {
    if chars.is_empty() {
        chars.push('x');
        return "seed empty source with 'x'".to_string();
    }
    match rng.gen_usize(0, 5) {
        0 => {
            let at = rng.gen_usize(0, chars.len() - 1);
            chars.truncate(at);
            format!("truncate to {at} chars")
        }
        1 => {
            // Delete one line.
            let lines: Vec<usize> = std::iter::once(0)
                .chain(
                    chars
                        .iter()
                        .enumerate()
                        .filter(|(_, c)| **c == '\n')
                        .map(|(i, _)| i + 1),
                )
                .collect();
            let li = rng.gen_usize(0, lines.len() - 1);
            let start = lines[li];
            let end = lines.get(li + 1).copied().unwrap_or(chars.len());
            chars.drain(start..end);
            format!("delete line {li}")
        }
        2 => {
            // Duplicate one line.
            let lines: Vec<usize> = std::iter::once(0)
                .chain(
                    chars
                        .iter()
                        .enumerate()
                        .filter(|(_, c)| **c == '\n')
                        .map(|(i, _)| i + 1),
                )
                .collect();
            let li = rng.gen_usize(0, lines.len() - 1);
            let start = lines[li];
            let end = lines.get(li + 1).copied().unwrap_or(chars.len());
            let line: Vec<char> = chars[start..end].to_vec();
            chars.splice(start..start, line);
            format!("duplicate line {li}")
        }
        3 => {
            let a = rng.gen_usize(0, chars.len() - 1);
            let b = rng.gen_usize(0, chars.len() - 1);
            chars.swap(a, b);
            format!("swap chars {a} and {b}")
        }
        4 => {
            let at = rng.gen_usize(0, chars.len() - 1);
            let c = *rng.choose(NASTY);
            chars[at] = c;
            format!("replace char {at} with {c:?}")
        }
        _ => {
            let at = rng.gen_usize(0, chars.len());
            let tok = *rng.choose(TOKENS);
            chars.splice(at..at, tok.chars());
            format!("insert {tok:?} at char {at}")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn front_fuzz_never_panics_small() {
        let mut stats = FrontStats::default();
        for case in 0..200 {
            match run_front_case(0, case) {
                Ok(Ok(_)) => stats.accepted += 1,
                Ok(Err(_)) => stats.rejected += 1,
                Err(f) => panic!(
                    "case {case} panicked on base {} ({}): {}\n--- source ---\n{}",
                    f.base, f.mutations, f.panic, f.source
                ),
            }
        }
        // Mutations are aggressive; most mutants must be rejected, and
        // both outcomes must occur (the harness really is exercising the
        // pipeline, not short-circuiting).
        assert!(stats.rejected > 0, "no mutant was rejected: {stats:?}");
    }

    #[test]
    fn mutations_are_deterministic() {
        let a = run_front_case(7, 3);
        let b = run_front_case(7, 3);
        match (a, b) {
            (Ok(x), Ok(y)) => assert_eq!(x, y),
            (Err(x), Err(y)) => assert_eq!(x.source, y.source),
            _ => panic!("nondeterministic outcome"),
        }
    }
}
