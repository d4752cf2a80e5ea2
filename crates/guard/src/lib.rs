//! # fnc2-guard — resource-governed, fault-isolated evaluation
//!
//! FNC-2's static guarantees (SNC termination, lifetime-analyzed storage)
//! say nothing about *how much* work a hostile or pathological input tree
//! can demand: a 100k-deep chain used to overflow the recursive visit
//! drivers, and nothing bounded rule-eval steps, aggregate value size or
//! wall-clock time. This crate supplies the dynamic safety net:
//!
//! - [`EvalBudget`] — declarative limits (steps, visit depth, aggregate
//!   value cells, optional [`Deadline`], optional [`InjectedFault`])
//!   shared by every evaluator;
//! - [`BudgetMeter`] — the cheap per-evaluation counter that enforces a
//!   budget on the hot path (integer decrements; the deadline is polled
//!   every [`DEADLINE_POLL_MASK`]` + 1` steps so `Instant::now` stays off
//!   the common path);
//! - [`FaultPlan`] / [`InjectedFault`] — deterministic, seed-driven fault
//!   injection used by the fuzz oracle and the batch-determinism tests to
//!   prove that every fault surfaces as a *classified* error, never a
//!   process abort.
//!
//! The crate is dependency-free on purpose: `fnc2-visit`, `fnc2-space`,
//! `fnc2-incremental` and `fnc2-par` all sit on top of it.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::fmt;
use std::time::{Duration, Instant};

/// Which budget dimension was exhausted.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BudgetKind {
    /// Rule-evaluation step budget ([`EvalBudget::max_steps`]).
    Steps,
    /// Visit/demand depth budget ([`EvalBudget::max_depth`]).
    Depth,
    /// Aggregate produced-value size budget ([`EvalBudget::max_value_cells`]).
    ValueCells,
    /// The wall-clock [`Deadline`] expired.
    Deadline,
    /// A deterministic fault injected by a [`FaultPlan`] (tests/fuzzing).
    Fault,
}

impl BudgetKind {
    /// Stable lowercase name, used in diagnostics and metrics.
    pub fn name(self) -> &'static str {
        match self {
            BudgetKind::Steps => "steps",
            BudgetKind::Depth => "depth",
            BudgetKind::ValueCells => "value-cells",
            BudgetKind::Deadline => "deadline",
            BudgetKind::Fault => "injected-fault",
        }
    }
}

impl fmt::Display for BudgetKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A cheap polled wall-clock deadline token.
///
/// Carries the absolute expiry instant; [`BudgetMeter`] polls it only once
/// every few hundred steps, so creating one costs a single `Instant::now`
/// and enforcing it costs (amortized) nearly nothing.
#[derive(Clone, Copy, Debug)]
pub struct Deadline {
    at: Instant,
}

impl Deadline {
    /// A deadline `d` from now.
    pub fn after(d: Duration) -> Self {
        Deadline {
            at: Instant::now() + d,
        }
    }

    /// A deadline `ms` milliseconds from now.
    pub fn after_ms(ms: u64) -> Self {
        Self::after(Duration::from_millis(ms))
    }

    /// Has the deadline passed?
    pub fn expired(&self) -> bool {
        Instant::now() >= self.at
    }
}

/// Default step budget: effectively unlimited for legitimate grammars but
/// finite, so a run away interpreter loop still terminates with a
/// diagnostic.
pub const DEFAULT_MAX_STEPS: u64 = 1 << 40;
/// Default visit-depth budget. Far above the 100k-deep pathological corpus
/// (the explicit work-stacks heap-allocate frames, so this bounds memory,
/// not the thread stack).
pub const DEFAULT_MAX_DEPTH: usize = 1 << 21;
/// Default aggregate value-cell budget (~4G cells).
pub const DEFAULT_MAX_VALUE_CELLS: u64 = 1 << 32;
/// The deadline is polled when `steps & DEADLINE_POLL_MASK == 0`.
pub const DEADLINE_POLL_MASK: u64 = 0xff;

/// Declarative evaluation limits, threaded through every evaluator.
///
/// `Default` gives generous-but-finite limits (pathological corpus trees
/// pass; unbounded loops and value balloons do not). Use
/// [`EvalBudget::unlimited`] to switch every check off.
#[derive(Clone, Copy, Debug)]
pub struct EvalBudget {
    /// Maximum rule evaluations (including copy rules) per evaluation.
    pub max_steps: u64,
    /// Maximum visit/demand nesting depth.
    pub max_depth: usize,
    /// Maximum aggregate cells of produced values, counted the way
    /// `fnc2_ag::Value::cell_count` counts them: logically (a shared part
    /// counts at every occurrence), from counts cached in lists and maps,
    /// so each rule's charge is O(1) however large its result.
    pub max_value_cells: u64,
    /// Optional wall-clock deadline.
    pub deadline: Option<Deadline>,
    /// Optional deterministic fault armed for each evaluation under this
    /// budget (tests/fuzzing); `None` outside them.
    pub fault: Option<InjectedFault>,
}

impl Default for EvalBudget {
    fn default() -> Self {
        EvalBudget {
            max_steps: DEFAULT_MAX_STEPS,
            max_depth: DEFAULT_MAX_DEPTH,
            max_value_cells: DEFAULT_MAX_VALUE_CELLS,
            deadline: None,
            fault: None,
        }
    }
}

impl EvalBudget {
    /// A budget with every check effectively disabled.
    pub fn unlimited() -> Self {
        EvalBudget {
            max_steps: u64::MAX,
            max_depth: usize::MAX,
            max_value_cells: u64::MAX,
            deadline: None,
            fault: None,
        }
    }

    /// Sets the step budget.
    pub fn with_max_steps(mut self, n: u64) -> Self {
        self.max_steps = n;
        self
    }

    /// Sets the depth budget.
    pub fn with_max_depth(mut self, n: usize) -> Self {
        self.max_depth = n;
        self
    }

    /// Sets the value-cell budget.
    pub fn with_max_value_cells(mut self, n: u64) -> Self {
        self.max_value_cells = n;
        self
    }

    /// Sets the wall-clock deadline.
    pub fn with_deadline(mut self, d: Deadline) -> Self {
        self.deadline = Some(d);
        self
    }
}

/// What an armed injected fault does when it triggers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum FaultAction {
    Fail,
    Panic,
    ExpireDeadline,
}

/// A deterministic fault to inject into one evaluation (tests/fuzzing).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InjectedFault {
    /// The rule evaluated at step `step` fails with a classified error
    /// ([`BudgetKind::Fault`]).
    FailRule {
        /// 1-based step at which the failure fires.
        step: u64,
    },
    /// The evaluation panics at step `step` (caught by the batch driver).
    PanicAtStep {
        /// 1-based step at which the panic fires.
        step: u64,
    },
    /// The worker panics before the evaluation even starts.
    PanicOnEntry,
    /// The worker reports a *semantic* failure (a non-budget classified
    /// error carrying [`INJECTED_FAILURE_MSG`]) before the evaluation
    /// starts — the only injected fault that exercises the plain
    /// `Failed` classification rather than a budget trip or a panic.
    FailOnEntry,
    /// The deadline "expires" at step `step` ([`BudgetKind::Deadline`]).
    ExpireDeadline {
        /// 1-based step at which the deadline reports expiry.
        step: u64,
    },
}

impl fmt::Display for InjectedFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InjectedFault::FailRule { step } => write!(f, "fail-rule@{step}"),
            InjectedFault::PanicAtStep { step } => write!(f, "panic@{step}"),
            InjectedFault::PanicOnEntry => write!(f, "panic-on-entry"),
            InjectedFault::FailOnEntry => write!(f, "fail-on-entry"),
            InjectedFault::ExpireDeadline { step } => write!(f, "deadline@{step}"),
        }
    }
}

/// The message used by injected panics, so tests can tell an injected
/// panic apart from a real defect.
pub const INJECTED_PANIC_MSG: &str = "fnc2-guard injected fault: panic";

/// The message carried by [`InjectedFault::FailOnEntry`] errors, so tests
/// can tell an injected semantic failure apart from a real defect.
pub const INJECTED_FAILURE_MSG: &str = "fnc2-guard injected fault: semantic failure";

/// Per-evaluation enforcement state for an [`EvalBudget`].
///
/// All checks are `#[inline]` integer compares; the meter is created once
/// per evaluation and dropped with it.
#[derive(Debug)]
pub struct BudgetMeter {
    steps: u64,
    max_steps: u64,
    max_depth: usize,
    cells: u64,
    max_cells: u64,
    deadline: Option<Deadline>,
    bomb: Option<(u64, FaultAction)>,
}

impl BudgetMeter {
    /// A meter enforcing `budget`, with its injected fault (if any) armed.
    pub fn new(budget: &EvalBudget) -> Self {
        let bomb = match budget.fault {
            Some(InjectedFault::FailRule { step }) => Some((step, FaultAction::Fail)),
            Some(InjectedFault::PanicAtStep { step }) => Some((step, FaultAction::Panic)),
            Some(InjectedFault::ExpireDeadline { step }) => {
                Some((step, FaultAction::ExpireDeadline))
            }
            // Entry faults are the batch driver's job, not the meter's.
            Some(InjectedFault::PanicOnEntry) | Some(InjectedFault::FailOnEntry) | None => None,
        };
        BudgetMeter {
            steps: 0,
            max_steps: budget.max_steps,
            max_depth: budget.max_depth,
            cells: 0,
            max_cells: budget.max_value_cells,
            deadline: budget.deadline,
            bomb,
        }
    }

    /// Counts one rule-evaluation step; errs when the step budget or the
    /// (sparsely polled) deadline is exhausted, or an armed fault fires.
    #[inline]
    pub fn step(&mut self) -> Result<(), BudgetKind> {
        self.steps += 1;
        if self.steps > self.max_steps {
            return Err(BudgetKind::Steps);
        }
        if let Some((at, action)) = self.bomb {
            if self.steps >= at {
                self.bomb = None;
                match action {
                    FaultAction::Fail => return Err(BudgetKind::Fault),
                    FaultAction::ExpireDeadline => return Err(BudgetKind::Deadline),
                    FaultAction::Panic => panic!("{INJECTED_PANIC_MSG}"),
                }
            }
        }
        if self.steps & DEADLINE_POLL_MASK == 0 {
            if let Some(d) = self.deadline {
                if d.expired() {
                    return Err(BudgetKind::Deadline);
                }
            }
        }
        Ok(())
    }

    /// Checks a visit/demand nesting depth against the budget.
    #[inline]
    pub fn check_depth(&self, depth: usize) -> Result<(), BudgetKind> {
        if depth > self.max_depth {
            Err(BudgetKind::Depth)
        } else {
            Ok(())
        }
    }

    /// Accounts `cells` more cells of produced value storage. The total
    /// saturates, so no charge, however large, wraps under the limit.
    #[inline]
    pub fn grow_cells(&mut self, cells: u64) -> Result<(), BudgetKind> {
        self.cells = self.cells.saturating_add(cells);
        if self.cells > self.max_cells {
            Err(BudgetKind::ValueCells)
        } else {
            Ok(())
        }
    }

    /// Steps consumed so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Value cells accounted so far.
    pub fn cells(&self) -> u64 {
        self.cells
    }
}

/// One planned fault: which tree it hits, what it does, and whether it is
/// transient (fires only on the first attempt, so a retry succeeds).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PlannedFault {
    /// Batch index of the poisoned tree.
    pub tree: usize,
    /// The fault to inject.
    pub fault: InjectedFault,
    /// Transient faults fire on attempt 0 only; permanent ones always.
    pub transient: bool,
}

/// A deterministic, seed-driven set of faults over a batch of trees.
///
/// The plan is a pure function of `(seed, trees)`: the same seed always
/// poisons the same trees the same way, which is what lets the fuzz oracle
/// assert bit-identical convergence after retries.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    faults: Vec<PlannedFault>,
}

/// SplitMix64 — same generator family as `fnc2_corpus::rng`, inlined here
/// so the guard crate stays dependency-free.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl FaultPlan {
    /// An empty plan (no faults).
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// A plan with exactly the given faults.
    pub fn with_faults(faults: Vec<PlannedFault>) -> Self {
        FaultPlan { faults }
    }

    /// Derives a plan for a batch of `trees` trees from `seed`: poisons
    /// 1..=min(3, trees) distinct trees with a seed-chosen fault kind, each
    /// independently transient or permanent.
    pub fn from_seed(seed: u64, trees: usize) -> Self {
        let mut faults = Vec::new();
        if trees == 0 {
            return FaultPlan { faults };
        }
        let mut st = seed ^ 0x6a09_e667_f3bc_c909;
        let n = 1 + (splitmix(&mut st) as usize) % trees.min(3);
        for _ in 0..n {
            let tree = (splitmix(&mut st) as usize) % trees;
            if faults.iter().any(|p: &PlannedFault| p.tree == tree) {
                continue;
            }
            let step = 1 + splitmix(&mut st) % 16;
            let fault = match splitmix(&mut st) % 5 {
                0 => InjectedFault::FailRule { step },
                1 => InjectedFault::PanicAtStep { step },
                2 => InjectedFault::PanicOnEntry,
                3 => InjectedFault::FailOnEntry,
                _ => InjectedFault::ExpireDeadline { step },
            };
            let transient = splitmix(&mut st) & 1 == 0;
            faults.push(PlannedFault {
                tree,
                fault,
                transient,
            });
        }
        FaultPlan { faults }
    }

    /// The fault (if any) to apply to `tree` on retry attempt `attempt`
    /// (attempt 0 is the first try).
    pub fn fault_for(&self, tree: usize, attempt: u32) -> Option<InjectedFault> {
        self.faults
            .iter()
            .find(|p| p.tree == tree && (!p.transient || attempt == 0))
            .map(|p| p.fault)
    }

    /// All planned faults.
    pub fn faults(&self) -> &[PlannedFault] {
        &self.faults
    }

    /// True when the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Trees poisoned by a *permanent* fault (these can never succeed, no
    /// matter how many retries).
    pub fn permanent_trees(&self) -> Vec<usize> {
        self.faults
            .iter()
            .filter(|p| !p.transient)
            .map(|p| p.tree)
            .collect()
    }
}

/// Hard ceiling for [`backoff_delay`], whatever the caller passes.
pub const MAX_BACKOFF_MS: u64 = 1_000;

/// Bounded exponential backoff before retry `attempt` (1-based: the delay
/// *preceding* that attempt; attempt 0 — the first try — never waits).
///
/// The delay doubles per attempt starting from `base_ms` and is clamped to
/// `min(cap_ms, `[`MAX_BACKOFF_MS`]`)`, so a retry loop over transient
/// faults (EINTR, a briefly-full disk) is polite but can never stall a
/// batch for more than a bounded, configuration-independent time.
pub fn backoff_delay(attempt: u32, base_ms: u64, cap_ms: u64) -> Duration {
    if attempt == 0 || base_ms == 0 {
        return Duration::ZERO;
    }
    let cap = cap_ms.min(MAX_BACKOFF_MS);
    let ms = base_ms
        .checked_shl(attempt.saturating_sub(1).min(20))
        .unwrap_or(cap)
        .min(cap);
    Duration::from_millis(ms)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_zero_then_doubles_then_caps() {
        assert_eq!(backoff_delay(0, 10, 500), Duration::ZERO);
        assert_eq!(backoff_delay(1, 10, 500), Duration::from_millis(10));
        assert_eq!(backoff_delay(2, 10, 500), Duration::from_millis(20));
        assert_eq!(backoff_delay(3, 10, 500), Duration::from_millis(40));
        assert_eq!(backoff_delay(9, 10, 500), Duration::from_millis(500));
        // The hard ceiling binds even a generous cap.
        assert_eq!(
            backoff_delay(30, 10, u64::MAX),
            Duration::from_millis(MAX_BACKOFF_MS)
        );
        assert_eq!(backoff_delay(5, 0, 500), Duration::ZERO);
    }

    #[test]
    fn default_budget_is_generous_but_finite() {
        let b = EvalBudget::default();
        assert!(b.max_steps >= 1 << 30);
        assert!(b.max_depth >= 1 << 20, "100k chains must fit with slack");
        assert!(b.max_value_cells >= 1 << 30);
        assert!(b.deadline.is_none());
    }

    #[test]
    fn meter_trips_each_dimension() {
        let mut m = BudgetMeter::new(&EvalBudget::default().with_max_steps(2));
        assert_eq!(m.step(), Ok(()));
        assert_eq!(m.step(), Ok(()));
        assert_eq!(m.step(), Err(BudgetKind::Steps));

        let m = BudgetMeter::new(&EvalBudget::default().with_max_depth(5));
        assert_eq!(m.check_depth(5), Ok(()));
        assert_eq!(m.check_depth(6), Err(BudgetKind::Depth));

        let mut m = BudgetMeter::new(&EvalBudget::default().with_max_value_cells(10));
        assert_eq!(m.grow_cells(10), Ok(()));
        assert_eq!(m.grow_cells(1), Err(BudgetKind::ValueCells));
    }

    #[test]
    fn expired_deadline_is_seen_at_poll_boundary() {
        let budget =
            EvalBudget::unlimited().with_deadline(Deadline::after(Duration::from_millis(0)));
        let mut m = BudgetMeter::new(&budget);
        let mut tripped = None;
        for i in 1..=2 * (DEADLINE_POLL_MASK + 1) {
            if let Err(k) = m.step() {
                tripped = Some((i, k));
                break;
            }
        }
        let (at, kind) = tripped.expect("deadline must trip within one poll window");
        assert_eq!(kind, BudgetKind::Deadline);
        assert_eq!(at & DEADLINE_POLL_MASK, 0, "polled sparsely");
    }

    #[test]
    fn injected_fail_and_deadline_fire_once_at_step() {
        let armed = |fault| EvalBudget {
            fault: Some(fault),
            ..EvalBudget::unlimited()
        };
        let mut m = BudgetMeter::new(&armed(InjectedFault::FailRule { step: 3 }));
        assert_eq!(m.step(), Ok(()));
        assert_eq!(m.step(), Ok(()));
        assert_eq!(m.step(), Err(BudgetKind::Fault));
        assert_eq!(m.step(), Ok(()), "a fault fires once, then disarms");

        let mut m = BudgetMeter::new(&armed(InjectedFault::ExpireDeadline { step: 1 }));
        assert_eq!(m.step(), Err(BudgetKind::Deadline));
    }

    #[test]
    fn injected_panic_panics_with_marker_message() {
        let budget = EvalBudget {
            fault: Some(InjectedFault::PanicAtStep { step: 1 }),
            ..EvalBudget::unlimited()
        };
        let caught = std::panic::catch_unwind(move || {
            let mut m = BudgetMeter::new(&budget);
            let _ = m.step();
        })
        .unwrap_err();
        let msg = caught.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("injected fault"), "{msg}");
    }

    #[test]
    fn fault_plan_is_deterministic_and_respects_transience() {
        for seed in 0..64u64 {
            let a = FaultPlan::from_seed(seed, 7);
            let b = FaultPlan::from_seed(seed, 7);
            assert_eq!(a, b, "pure function of the seed");
            assert!(!a.is_empty());
            for p in a.faults() {
                assert!(p.tree < 7);
                assert_eq!(a.fault_for(p.tree, 0), Some(p.fault));
                if p.transient {
                    assert_eq!(a.fault_for(p.tree, 1), None, "transient clears on retry");
                } else {
                    assert_eq!(a.fault_for(p.tree, 1), Some(p.fault));
                }
            }
        }
    }

    #[test]
    fn fault_plan_empty_batch() {
        assert!(FaultPlan::from_seed(0, 0).is_empty());
    }
}
