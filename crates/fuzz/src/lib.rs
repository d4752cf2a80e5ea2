//! # fnc2-fuzz — differential fuzzing oracle over the evaluator cascade
//!
//! The FNC-2 reproduction evaluates the same attribute grammars four
//! ways — the visit-sequence interpreter with node storage (the trivial
//! plan) and with the space plan, the demand-driven dynamic evaluator,
//! and the incremental evaluator — plus a static space plan with a
//! symbolic stack simulation. Any two of them disagreeing on any attribute
//! of any tree is a bug by definition. This crate turns that redundancy
//! into an oracle:
//!
//! * [`gen`] draws random **SNC-by-construction** attribute grammars
//!   (mixed synthesized/inherited attributes, production-locals,
//!   well-typed random semantic rules), random trees, and random edit
//!   scripts — all as pure functions of a [`gen::CaseParams`] value, so a
//!   one-line params string *is* the reproducer.
//! * [`oracle`] runs each case through the whole cascade, re-validates
//!   the space plan from first principles ([`fnc2_space::validate_plan`]),
//!   reports the first divergence, and shrinks it by deterministic
//!   parameter reduction.
//! * [`front`] feeds mutated and truncated OLGA sources through the
//!   lexer → parser → checker → lowering pipeline and asserts it returns
//!   `Err` instead of panicking.
//!
//! The `fnc2c fuzz` subcommand drives [`run`] with a seed and budgets.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod crash;
pub mod fault;
pub mod front;
pub mod gen;
pub mod lints;
pub mod oracle;

pub use crash::{run_crash_case, CrashFailure, CrashStats};
pub use fault::{run_fault_case, FaultFailure, FaultStats};
pub use front::{FrontFailure, FrontStats};
pub use gen::{build_grammar_pair, build_tree, CaseParams, GenGrammar, MUTANT_CONSTANT};
pub use lints::{run_lint_case, LintFailure, LintStats};
pub use oracle::{render_reproducer, run_case, shrink, CaseStats, Divergence};

use fnc2_obs::Obs;

/// Budgets and switches for one fuzzing run.
#[derive(Clone, Copy, Debug)]
pub struct FuzzConfig {
    /// Master seed; every case derives its own stream from it.
    pub seed: u64,
    /// Number of differential grammar cases.
    pub grammar_cases: u64,
    /// Number of front-end mutation cases.
    pub front_cases: u64,
    /// Number of fault-injection cases (guarded batch + [`fault`] stage).
    pub fault_cases: u64,
    /// Number of crash-recovery cases (storage faults + [`crash`] stage).
    pub crash_cases: u64,
    /// Number of lint-soundness cases ([`lints`] stage).
    pub lint_cases: u64,
    /// Whether to shrink the first divergence before reporting it.
    pub shrink: bool,
}

impl Default for FuzzConfig {
    fn default() -> FuzzConfig {
        FuzzConfig {
            seed: 0,
            grammar_cases: 256,
            front_cases: 512,
            fault_cases: 128,
            crash_cases: 64,
            lint_cases: 256,
            shrink: true,
        }
    }
}

/// What a fuzzing run found, if anything.
#[derive(Clone, Debug)]
pub enum FuzzFailure {
    /// Two cascade stages disagreed on a generated case.
    Divergence(Divergence),
    /// The OLGA front end panicked on a mutated source.
    FrontPanic(FrontFailure),
    /// An injected fault escaped classification or corrupted a survivor.
    Fault(FaultFailure),
    /// A storage fault violated the crash-consistency contract.
    Crash(CrashFailure),
    /// A static lint verdict was refuted by a dynamic evaluator.
    Lint(LintFailure),
}

/// The outcome of a fuzzing run: counters plus the first failure.
#[derive(Clone, Debug, Default)]
pub struct FuzzReport {
    /// Grammar cases run to completion (clean or diverged).
    pub grammar_cases: u64,
    /// Total tree nodes evaluated across clean cases.
    pub nodes: u64,
    /// Incremental edits applied across clean cases.
    pub edits: u64,
    /// Front-end cases run.
    pub front_cases: u64,
    /// Front-end mutants the pipeline still accepted.
    pub front_accepted: u64,
    /// Front-end mutants rejected with a proper error.
    pub front_rejected: u64,
    /// FNV-1a digest of every front-end case's outcome in order: the
    /// error's `Display` for a rejected mutant, the lowering statistics and
    /// grammar sizes for an accepted one.
    pub front_digest: u64,
    /// Fault-injection cases run.
    pub fault_cases: u64,
    /// Faults injected across clean fault cases.
    pub faults_injected: u64,
    /// Panics caught and classified across clean fault cases.
    pub panics_caught: u64,
    /// Crash-recovery cases run.
    pub crash_cases: u64,
    /// Storage faults injected across clean crash cases.
    pub io_faults: u64,
    /// Journal records recovered by post-crash resumes.
    pub crash_resumed: u64,
    /// Lint-soundness cases run.
    pub lint_cases: u64,
    /// `L001` verdicts checked against the exhaustive read trace.
    pub lint_unused_checked: u64,
    /// `L002` verdicts checked against demand evaluation.
    pub lint_dead_checked: u64,
    /// Attributes flipped to `L001` by injected mutations, as required.
    pub lint_flips: u64,
    /// Circularity witnesses verified and replayed.
    pub lint_witnesses: u64,
    /// First failure found, already shrunk when shrinking is on.
    pub failure: Option<FuzzFailure>,
}

impl FuzzReport {
    /// `true` when the run finished with no divergence and no panic.
    pub fn is_clean(&self) -> bool {
        self.failure.is_none()
    }
}

/// Runs the full oracle: `grammar_cases` differential cases, then
/// `front_cases` front-end mutations, stopping at the first failure.
/// Counters are recorded through `obs` under the `fuzz.` prefix.
pub fn run(cfg: &FuzzConfig, obs: &mut Obs) -> FuzzReport {
    obs.tracer.begin("phase", "fuzz");
    let report = run_inner(cfg, obs);
    obs.tracer.end();
    report
}

fn run_inner(cfg: &FuzzConfig, obs: &mut Obs) -> FuzzReport {
    let mut report = FuzzReport::default();

    for case in 0..cfg.grammar_cases {
        let params = CaseParams::for_case(cfg.seed, case);
        report.grammar_cases += 1;
        obs.metrics.count("fuzz.grammar_cases", 1);
        match run_case(&params) {
            Ok(stats) => {
                report.nodes += stats.nodes as u64;
                report.edits += stats.edits as u64;
                obs.metrics.count("fuzz.tree_nodes", stats.nodes as u64);
                obs.metrics.count("fuzz.edits", stats.edits as u64);
            }
            Err(d) => {
                obs.metrics.count("fuzz.divergences", 1);
                let d = if cfg.shrink { shrink(d) } else { d };
                report.failure = Some(FuzzFailure::Divergence(d));
                return report;
            }
        }
    }

    for case in 0..cfg.front_cases {
        report.front_cases += 1;
        obs.metrics.count("fuzz.front_cases", 1);
        match front::run_front_case(cfg.seed, case) {
            Ok(outcome) => {
                let (Ok(text) | Err(text)) = &outcome;
                let digest = report.front_digest.to_le_bytes();
                report.front_digest = fnc2_vfs::fnv1a(&[&digest, text.as_bytes()]);
                if outcome.is_ok() {
                    report.front_accepted += 1;
                    obs.metrics.count("fuzz.front_accepted", 1);
                } else {
                    report.front_rejected += 1;
                    obs.metrics.count("fuzz.front_rejected", 1);
                }
            }
            Err(f) => {
                obs.metrics.count("fuzz.front_panics", 1);
                report.failure = Some(FuzzFailure::FrontPanic(f));
                return report;
            }
        }
    }

    for case in 0..cfg.fault_cases {
        report.fault_cases += 1;
        obs.metrics.count("fuzz.fault_cases", 1);
        match fault::run_fault_case(cfg.seed, case) {
            Ok(stats) => {
                report.faults_injected += stats.faults;
                report.panics_caught += stats.panics_caught;
                obs.metrics.count("fuzz.faults_injected", stats.faults);
                obs.metrics
                    .count("fuzz.fault_panics_caught", stats.panics_caught);
            }
            Err(f) => {
                obs.metrics.count("fuzz.fault_failures", 1);
                report.failure = Some(FuzzFailure::Fault(f));
                return report;
            }
        }
    }

    for case in 0..cfg.crash_cases {
        report.crash_cases += 1;
        obs.metrics.count("fuzz.crash_cases", 1);
        match crash::run_crash_case(cfg.seed, case) {
            Ok(stats) => {
                report.io_faults += stats.io_faults;
                report.crash_resumed += stats.resumed;
                obs.metrics.count("fuzz.crash_io_faults", stats.io_faults);
                obs.metrics.count("fuzz.crash_resumed", stats.resumed);
            }
            Err(f) => {
                obs.metrics.count("fuzz.crash_failures", 1);
                report.failure = Some(FuzzFailure::Crash(f));
                return report;
            }
        }
    }

    for case in 0..cfg.lint_cases {
        report.lint_cases += 1;
        obs.metrics.count("fuzz.lint_cases", 1);
        match lints::run_lint_case(cfg.seed, case) {
            Ok(stats) => {
                report.lint_unused_checked += stats.unused_checked;
                report.lint_dead_checked += stats.dead_checked;
                report.lint_flips += stats.flips;
                report.lint_witnesses += stats.witnesses;
                obs.metrics
                    .count("fuzz.lint_unused_checked", stats.unused_checked);
                obs.metrics
                    .count("fuzz.lint_dead_checked", stats.dead_checked);
                obs.metrics.count("fuzz.lint_flips", stats.flips);
                obs.metrics.count("fuzz.lint_witnesses", stats.witnesses);
            }
            Err(f) => {
                obs.metrics.count("fuzz.lint_failures", 1);
                report.failure = Some(FuzzFailure::Lint(f));
                return report;
            }
        }
    }

    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_run_is_clean_and_counts() {
        let cfg = FuzzConfig {
            seed: 0,
            grammar_cases: 12,
            front_cases: 24,
            fault_cases: 8,
            crash_cases: 6,
            lint_cases: 10,
            shrink: true,
        };
        let mut obs = Obs::new();
        let report = run(&cfg, &mut obs);
        if let Some(f) = &report.failure {
            match f {
                FuzzFailure::Divergence(d) => {
                    panic!("divergence: {}", render_reproducer(d))
                }
                FuzzFailure::FrontPanic(p) => panic!("front panic: {p:?}"),
                FuzzFailure::Fault(p) => panic!("fault contract violation: {p}"),
                FuzzFailure::Crash(p) => panic!("crash contract violation: {p}"),
                FuzzFailure::Lint(p) => panic!("lint soundness violation: {p}"),
            }
        }
        assert_eq!(report.grammar_cases, 12);
        assert_eq!(report.front_cases, 24);
        assert_eq!(report.fault_cases, 8);
        assert_eq!(report.crash_cases, 6);
        assert_eq!(report.lint_cases, 10);
        assert_eq!(obs.metrics.counter("fuzz.lint_cases"), 10);
        assert_eq!(report.lint_witnesses, 10);
        assert_eq!(obs.metrics.counter("fuzz.fault_cases"), 8);
        assert_eq!(obs.metrics.counter("fuzz.crash_cases"), 6);
        assert!(report.nodes > 0);
        assert_eq!(obs.metrics.counter("fuzz.grammar_cases"), 12);
        assert_eq!(obs.metrics.counter("fuzz.front_cases"), 24);
        assert_eq!(
            obs.metrics.counter("fuzz.front_accepted") + obs.metrics.counter("fuzz.front_rejected"),
            24
        );
    }

    #[test]
    fn front_end_diagnostics_are_pinned() {
        // Every rejected mutant's message and line:col and every accepted
        // mutant's lowering, folded in case order. The mutants replace
        // characters with `é`, `∀`, `🦀`, tab and NUL, so the digest also
        // covers columns counted in characters.
        let cfg = FuzzConfig {
            grammar_cases: 0,
            front_cases: 512,
            fault_cases: 0,
            crash_cases: 0,
            lint_cases: 0,
            ..FuzzConfig::default()
        };
        let report = run(&cfg, &mut Obs::new());
        assert!(report.is_clean(), "{:?}", report.failure);
        assert_eq!((report.front_accepted, report.front_rejected), (26, 486));
        assert_eq!(report.front_digest, 0xcdab_6f7f_76fa_aec9);
    }
}
