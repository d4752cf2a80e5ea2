//! The fault-injection oracle stage: deterministic seed-driven faults over
//! guarded batch evaluation.
//!
//! Each case derives an SNC grammar and a small batch of trees from its
//! seed, poisons some of them with a [`FaultPlan`] (failed rules, panics
//! mid-evaluation or on worker entry, semantic failures on entry,
//! spurious deadline expiry — each transient or permanent), runs the
//! batch through [`fnc2_par::batch_evaluate_guarded`] with retries, and
//! asserts the guard contract:
//!
//! 1. every injected fault surfaces as a *classified* outcome
//!    ([`TreeOutcome::Failed`] with a budget-kind error or the injected
//!    semantic-failure marker, or [`TreeOutcome::Panicked`] carrying the
//!    injected marker message) — never a process abort and never a
//!    silent wrong answer;
//! 2. trees whose faults are transient converge, after retry, to results
//!    **bit-identical** to a sequential unfaulted exhaustive run;
//! 3. unfaulted trees in the same batch are never disturbed.

use std::panic::{catch_unwind, AssertUnwindSafe};

use fnc2_analysis::{classify, Inclusion};
use fnc2_guard::{EvalBudget, FaultPlan, INJECTED_FAILURE_MSG, INJECTED_PANIC_MSG};
use fnc2_par::{batch_evaluate_guarded, TreeOutcome};
use fnc2_visit::{build_visit_seqs, Evaluator, RootInputs};

use crate::gen::{build_grammar_pair, build_tree, CaseParams};
use crate::oracle::panic_message;

/// How many trees each fault case batches.
const BATCH: usize = 5;
/// Retries granted to the guarded batch (enough to clear any transient
/// fault, which fires on attempt 0 only).
const RETRIES: u32 = 2;

/// A violation of the fault-isolation contract on one case.
#[derive(Clone, Debug)]
pub struct FaultFailure {
    /// The grammar/tree case (its params line reproduces the batch).
    pub params: CaseParams,
    /// The fault-plan seed (`FaultPlan::from_seed(fault_seed, BATCH)`).
    pub fault_seed: u64,
    /// What went wrong, with tree index and outcome detail.
    pub detail: String,
}

impl std::fmt::Display for FaultFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "fault case (params: {}, fault seed {:#x}): {}",
            self.params, self.fault_seed, self.detail
        )
    }
}

/// Size counters of one passing fault case.
#[derive(Clone, Copy, Debug, Default)]
pub struct FaultStats {
    /// Trees in the batch.
    pub trees: u64,
    /// Faults the plan injected.
    pub faults: u64,
    /// Panics the batch driver caught and classified.
    pub panics_caught: u64,
    /// Retries the batch driver spent.
    pub retries: u64,
}

/// Runs one fault-injection case. The whole case runs under
/// `catch_unwind`, so "an injected fault escaped as a panic" is reported
/// as a [`FaultFailure`], never as a test-harness abort.
pub fn run_fault_case(seed: u64, case: u64) -> Result<FaultStats, FaultFailure> {
    let params = CaseParams {
        inject: 0,
        edits: 0,
        ..CaseParams::for_case(seed ^ 0xfa01_7000, case)
    };
    let fault_seed = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ case;
    let fail = |detail: String| FaultFailure {
        params,
        fault_seed,
        detail,
    };
    match catch_unwind(AssertUnwindSafe(|| {
        run_fault_case_inner(&params, fault_seed)
    })) {
        Ok(r) => r,
        Err(payload) => Err(fail(format!(
            "case escaped the guard as a panic: {}",
            panic_message(&payload)
        ))),
    }
}

fn run_fault_case_inner(params: &CaseParams, fault_seed: u64) -> Result<FaultStats, FaultFailure> {
    let fail = |detail: String| FaultFailure {
        params: *params,
        fault_seed,
        detail,
    };

    let (gg, _) = build_grammar_pair(params);
    let g = &gg.grammar;
    let cls =
        classify(g, 2, Inclusion::Long).map_err(|e| fail(format!("transformation failed: {e}")))?;
    let lo = cls
        .l_ordered
        .as_ref()
        .ok_or_else(|| fail("generated grammar rejected as non-SNC".to_string()))?;
    let seqs = build_visit_seqs(g, lo);
    let ev = Evaluator::new(g, &seqs);
    let inputs = RootInputs::new();

    // A batch of distinct trees: same grammar, stepped node budgets.
    let trees: Vec<_> = (0..BATCH)
        .map(|i| {
            build_tree(
                &gg,
                &CaseParams {
                    tree_budget: params.tree_budget + 3 * i,
                    ..*params
                },
            )
        })
        .collect();

    // The unfaulted sequential reference every survivor must match.
    let mut reference = Vec::with_capacity(trees.len());
    for (i, t) in trees.iter().enumerate() {
        let (vals, _) = ev
            .evaluate(t, &inputs)
            .map_err(|e| fail(format!("reference evaluation of tree {i} failed: {e}")))?;
        reference.push(vals);
    }

    let plan = FaultPlan::from_seed(fault_seed, trees.len());
    let threads = 1 + (fault_seed % 4) as usize;
    let report = batch_evaluate_guarded(
        &ev,
        &trees,
        &inputs,
        threads,
        &EvalBudget::default(),
        RETRIES,
        Some(&plan),
    );
    if report.outcomes.len() != trees.len() {
        return Err(fail(format!(
            "batch lost trees: {} outcomes for {} trees",
            report.outcomes.len(),
            trees.len()
        )));
    }

    let permanent = plan.permanent_trees();
    for (i, outcome) in report.outcomes.iter().enumerate() {
        match outcome {
            TreeOutcome::Ok(vals, _) => {
                // Survivors — unfaulted, transient-faulted-then-retried, or
                // trees whose planned fault never fired — must be
                // bit-identical to the sequential reference.
                let differs = |&(n, a): &_| vals.get(g, n, a) != reference[i].get(g, n, a);
                if let Some((n, attr)) = trees[i].attr_instances(g).find(differs) {
                    return Err(fail(format!(
                        "tree {i}: node {n:?} attr {} diverged from the \
                         unfaulted reference after fault/retry",
                        g.attr(attr).name()
                    )));
                }
            }
            TreeOutcome::Failed(e) => {
                if plan.fault_for(i, RETRIES).is_none() {
                    return Err(fail(format!(
                        "tree {i} failed ({e}) without a surviving planned fault"
                    )));
                }
                if !e.is_budget() && !e.to_string().contains(INJECTED_FAILURE_MSG) {
                    return Err(fail(format!(
                        "tree {i}: injected fault surfaced as an unclassified error: {e}"
                    )));
                }
            }
            TreeOutcome::Panicked(msg) => {
                if !msg.contains(INJECTED_PANIC_MSG) {
                    return Err(fail(format!(
                        "tree {i} panicked with a non-injected message: {msg}"
                    )));
                }
                if !permanent.contains(&i) {
                    return Err(fail(format!(
                        "tree {i}: transient injected panic survived {RETRIES} retries"
                    )));
                }
            }
        }
    }

    Ok(FaultStats {
        trees: trees.len() as u64,
        faults: plan.faults().len() as u64,
        panics_caught: report.panics_caught,
        retries: report.retries,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_fault_cases_hold_the_contract() {
        let mut faults = 0;
        let mut panics = 0;
        for case in 0..24 {
            match run_fault_case(0, case) {
                Ok(stats) => {
                    faults += stats.faults;
                    panics += stats.panics_caught;
                }
                Err(f) => panic!("{f}"),
            }
        }
        assert!(faults > 0, "the plans must inject something");
        assert!(panics > 0, "some injected faults must be panics");
    }

    #[test]
    fn fault_cases_are_deterministic() {
        for case in 0..4 {
            let a = run_fault_case(7, case).expect("clean");
            let b = run_fault_case(7, case).expect("clean");
            assert_eq!(a.faults, b.faults);
            assert_eq!(a.trees, b.trees);
        }
    }
}
