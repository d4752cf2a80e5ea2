//! The worklist fixpoint engine of Grammar Flow Analysis.
//!
//! Every global grammar flow of the system is a least fixed point of a
//! monotone transfer function attached to items, usually productions
//! (Möncke's *Grammar Flow Analysis*, which FNC-2 improved [26]), and each
//! runs on this one engine:
//!
//! * SNC's `IO` and DNC's `OI` relations, Kastens' `DS` and the NC test's
//!   sets of `IO` graphs (`fnc2-analysis`);
//! * the space optimizer's may-evaluate sets (`fnc2-space`);
//! * least derivation heights and backward liveness (`fnc2-lint`; the
//!   pipeline's smoke trees read the same heights);
//! * the LL(1) NULLABLE, FIRST and FOLLOW sets (`fnc2-syntax`).
//!
//! A flow states which facts each item writes and reads; [`dependents`]
//! turns that into the items to re-examine after a change, and [`fixpoint`]
//! runs a deduplicating worklist over them, so an item is re-examined only
//! when information it reads has changed.

use std::collections::VecDeque;

use fnc2_obs::{Key, Recorder};

/// The dependents lists of a flow over items `0..n` and facts `0..facts`:
/// for each item, the items that read a fact it writes. `writes(i)` and
/// `reads(i)` list the facts item `i` writes and reads.
///
/// Each dependent appears once per list, in the order of the item's
/// written facts and, per fact, by increasing index. For a bottom-up flow
/// over productions (e.g. `IO`), an item writes its LHS phylum and reads
/// its RHS phyla; for a top-down flow (e.g. `OI`), the other way round.
pub fn dependents<W, R>(
    n: usize,
    facts: usize,
    mut writes: impl FnMut(usize) -> W,
    mut reads: impl FnMut(usize) -> R,
) -> Vec<Vec<usize>>
where
    W: IntoIterator<Item = usize>,
    R: IntoIterator<Item = usize>,
{
    let mut readers: Vec<Vec<usize>> = vec![Vec::new(); facts];
    for i in 0..n {
        for f in reads(i) {
            if readers[f].last() != Some(&i) {
                readers[f].push(i);
            }
        }
    }
    // `listed[r] == i` once `r` is on item `i`'s list.
    let mut listed = vec![usize::MAX; n];
    (0..n)
        .map(|i| {
            let mut out = Vec::new();
            for f in writes(i) {
                for &r in &readers[f] {
                    if listed[r] != i {
                        listed[r] = i;
                        out.push(r);
                    }
                }
            }
            out
        })
        .collect()
}

/// Runs `step` to fixpoint over items `0..n`.
///
/// `dependents[i]` lists the items to re-examine whenever `step(i)` reports
/// a change (returns `true`); build it with [`dependents`]. The run's step
/// and change counts are added to `rec` under `gfa.fixpoint.steps` /
/// `gfa.fixpoint.changes` (several fixpoints in one cascade accumulate;
/// pass a `NoopRecorder` to count nothing).
///
/// `step` must be monotone w.r.t. some finite-height lattice, otherwise the
/// loop may diverge. In debug builds, once the worklist drains, every step
/// is applied once more, uncounted, and must report no change: a
/// dependents list that misses a reader would otherwise yield a fixpoint
/// that is silently too small.
pub fn fixpoint<R: Recorder>(
    n: usize,
    dependents: &[Vec<usize>],
    mut step: impl FnMut(usize) -> bool,
    rec: &mut R,
) {
    assert_eq!(dependents.len(), n, "one dependents list per item");
    // A deduplicating FIFO worklist, initially holding every item in order.
    let mut queue: VecDeque<usize> = (0..n).collect();
    let mut queued = vec![true; n];
    let (mut steps, mut changes) = (0u64, 0u64);
    while let Some(i) = queue.pop_front() {
        queued[i] = false;
        steps += 1;
        if step(i) {
            changes += 1;
            for &d in &dependents[i] {
                if !std::mem::replace(&mut queued[d], true) {
                    queue.push_back(d);
                }
            }
        }
    }
    #[cfg(debug_assertions)]
    for i in 0..n {
        assert!(
            !step(i),
            "item {i} changes after the fixpoint: a dependents list misses a reader"
        );
    }
    rec.count(Key::GfaFixpointSteps, steps);
    rec.count(Key::GfaFixpointChanges, changes);
}

#[cfg(test)]
mod tests {
    use fnc2_obs::{Counters, NoopRecorder};

    use super::*;

    #[test]
    fn worklist_deduplicates() {
        // Items 0 and 1 both change once and both list item 2, which is
        // still pending; item 2 then changes once and lists item 0 twice.
        let deps = vec![vec![2], vec![2], vec![0, 0]];
        let mut changed = [false; 3];
        let mut order = Vec::new();
        let mut counts = Counters::new();
        let step = |i: usize| {
            order.push(i);
            !std::mem::replace(&mut changed[i], true)
        };
        fixpoint(3, &deps, step, &mut counts);
        // (Debug builds then apply every step once more, uncounted.)
        assert_eq!(order[..4], [0, 1, 2, 0]);
        assert_eq!(counts.get(Key::GfaFixpointSteps), 4);
        assert_eq!(counts.get(Key::GfaFixpointChanges), 3);
    }

    #[test]
    fn dependents_list_each_reader_once_in_write_order() {
        // Item 0 writes facts 1 then 0; items 2, 1 and 0 read them.
        let writes = [vec![1, 0], vec![], vec![0]];
        let reads = [vec![0], vec![1, 0, 1], vec![1]];
        let deps = dependents(
            3,
            2,
            |i| writes[i].iter().copied(),
            |i| reads[i].iter().copied(),
        );
        assert_eq!(deps, vec![vec![1, 2, 0], vec![], vec![0, 1]]);
    }

    #[test]
    fn fixpoint_longest_path() {
        // Items 0..4 in a chain: value[i] = value[i-1] + 1, seeded at 0.
        // Item i writes fact i and reads fact i - 1.
        let n = 5;
        let deps = dependents(n, n, |i| [i], |i| i.checked_sub(1));
        assert_eq!(deps[0], vec![1]);
        let mut value = vec![0u32; n];
        let mut counts = Counters::new();
        let step = |i: usize| {
            let next = if i == 0 { 0 } else { value[i - 1] + 1 };
            if next > value[i] {
                value[i] = next;
                true
            } else {
                false
            }
        };
        fixpoint(n, &deps, step, &mut counts);
        assert_eq!(value, vec![0, 1, 2, 3, 4]);
        assert!(counts.get(Key::GfaFixpointSteps) >= n as u64);
        assert_eq!(counts.get(Key::GfaFixpointChanges), 4);
    }

    #[test]
    fn fixpoint_runs_each_item_at_least_once() {
        let n = 4;
        let deps = vec![vec![]; n];
        let mut seen = vec![false; n];
        let step = |i: usize| {
            seen[i] = true;
            false
        };
        fixpoint(n, &deps, step, &mut NoopRecorder);
        assert!(seen.iter().all(|&b| b));
    }

    /// Item 0 copies item 1's value, but item 1 does not list it as a
    /// dependent, so the worklist drains before item 0 sees the change.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "item 0 changes after the fixpoint")]
    fn an_incomplete_dependents_list_panics_in_debug_builds() {
        let mut value = [0u32, 0];
        let step = |i: usize| {
            let next = if i == 0 { value[1] } else { 5 };
            let changed = next != value[i];
            value[i] = next;
            changed
        };
        fixpoint(2, &[vec![], vec![]], step, &mut NoopRecorder);
    }
}
