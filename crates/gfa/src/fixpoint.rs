//! The worklist fixpoint engine of Grammar Flow Analysis.
//!
//! Every global AG analysis in the paper — SNC's `IO` relations, DNC's `OI`
//! relations, Kastens' `DS`, the may-evaluate sets of the space optimizer —
//! is a least fixed point of a monotone transfer function attached to
//! productions (Möncke's *Grammar Flow Analysis*, which FNC-2 improved
//! [26]). This module provides the shared engine: a deduplicating worklist
//! with explicit dependents, so a production is re-examined only when
//! information it reads has changed.

use std::collections::VecDeque;

use fnc2_obs::{Key, NoopRecorder, Recorder};

/// A deduplicating FIFO worklist over dense item indices.
#[derive(Clone, Debug)]
pub struct Worklist {
    queue: VecDeque<usize>,
    queued: Vec<bool>,
}

impl Worklist {
    /// A worklist for items `0..n`, initially containing all of them in
    /// order.
    pub fn full(n: usize) -> Self {
        Worklist {
            queue: (0..n).collect(),
            queued: vec![true; n],
        }
    }

    /// An empty worklist for items `0..n`.
    pub fn empty(n: usize) -> Self {
        Worklist {
            queue: VecDeque::new(),
            queued: vec![false; n],
        }
    }

    /// Enqueues `i` unless already pending.
    pub fn push(&mut self, i: usize) {
        if !self.queued[i] {
            self.queued[i] = true;
            self.queue.push_back(i);
        }
    }

    /// Dequeues the next pending item.
    pub fn pop(&mut self) -> Option<usize> {
        let i = self.queue.pop_front()?;
        self.queued[i] = false;
        Some(i)
    }

    /// True if nothing is pending.
    pub fn is_done(&self) -> bool {
        self.queue.is_empty()
    }
}

/// Statistics of one fixpoint run, for the generator benchmarks.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FixpointStats {
    /// Number of transfer-function applications.
    pub steps: usize,
    /// Number of applications that changed the solution.
    pub changes: usize,
}

/// Runs `step` to fixpoint over items `0..n`.
///
/// `dependents[i]` lists the items to re-examine whenever `step(i)` reports
/// a change (returns `true`). For a bottom-up grammar flow (e.g. `IO`),
/// items are productions and the dependents of `p` are the productions
/// having `lhs(p)` on their right-hand side; for a top-down flow (e.g.
/// `OI`), the productions of the phyla on `p`'s right-hand side.
///
/// `step` must be monotone w.r.t. some finite-height lattice, otherwise the
/// loop may diverge.
pub fn fixpoint(
    n: usize,
    dependents: &[Vec<usize>],
    step: impl FnMut(usize) -> bool,
) -> FixpointStats {
    fixpoint_recorded(n, dependents, step, &mut NoopRecorder)
}

/// [`fixpoint`], instrumented: the run's step and change counts are added
/// to `rec` under `gfa.fixpoint.steps` / `gfa.fixpoint.changes` (several
/// fixpoints in one cascade accumulate).
pub fn fixpoint_recorded<R: Recorder>(
    n: usize,
    dependents: &[Vec<usize>],
    mut step: impl FnMut(usize) -> bool,
    rec: &mut R,
) -> FixpointStats {
    assert_eq!(dependents.len(), n, "one dependents list per item");
    let mut wl = Worklist::full(n);
    let mut stats = FixpointStats::default();
    while let Some(i) = wl.pop() {
        stats.steps += 1;
        if step(i) {
            stats.changes += 1;
            for &d in &dependents[i] {
                wl.push(d);
            }
        }
    }
    rec.count(Key::GfaFixpointSteps, stats.steps as u64);
    rec.count(Key::GfaFixpointChanges, stats.changes as u64);
    stats
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worklist_deduplicates() {
        let mut wl = Worklist::empty(3);
        wl.push(1);
        wl.push(1);
        wl.push(2);
        assert_eq!(wl.pop(), Some(1));
        assert_eq!(wl.pop(), Some(2));
        assert_eq!(wl.pop(), None);
        assert!(wl.is_done());
    }

    #[test]
    fn fixpoint_longest_path() {
        // Items 0..4 in a chain: value[i] = value[i-1] + 1, seeded at 0.
        // dependents[i] = [i+1].
        let n = 5;
        let dependents: Vec<Vec<usize>> = (0..n)
            .map(|i| if i + 1 < n { vec![i + 1] } else { vec![] })
            .collect();
        let mut value = vec![0u32; n];
        let stats = fixpoint(n, &dependents, |i| {
            let next = if i == 0 { 0 } else { value[i - 1] + 1 };
            if next > value[i] {
                value[i] = next;
                true
            } else {
                false
            }
        });
        assert_eq!(value, vec![0, 1, 2, 3, 4]);
        assert!(stats.steps >= n);
        assert_eq!(stats.changes, 4);
    }

    #[test]
    fn fixpoint_runs_each_item_at_least_once() {
        let n = 4;
        let deps = vec![vec![]; n];
        let mut seen = vec![false; n];
        fixpoint(n, &deps, |i| {
            seen[i] = true;
            false
        });
        assert!(seen.iter().all(|&b| b));
    }
}
