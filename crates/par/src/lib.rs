//! # fnc2-par — work-stealing, fault-isolated parallel batch evaluation
//!
//! The exhaustive [`Evaluator`] is read-only once constructed: evaluation
//! writes only into the per-tree [`AttrValues`]/local frames it allocates.
//! A batch of independent trees can therefore be decorated concurrently
//! against **one shared `&Evaluator`** — the parallel analogue of FNC-2
//! generating one evaluator and running it over a whole test suite.
//!
//! [`batch_evaluate_guarded`] does exactly that with a hand-rolled
//! work-stealing pool over [`std::thread::scope`] (no external
//! dependencies, matching the in-repo SplitMix64 precedent for `rand`):
//!
//! * tree indices are dealt round-robin into one deque per worker;
//! * a worker pops its own deque from the **front** and, when empty,
//!   steals from a victim's **back** (classic Chase–Lev discipline over a
//!   `Mutex<VecDeque>` — contention is per-steal, not per-tree);
//! * results carry their batch index and are merged by index, so output
//!   order — and every value in it — is **bit-identical** to a sequential
//!   run regardless of thread count or steal interleaving.
//!
//! ## Fault isolation
//!
//! Each tree is evaluated under [`std::panic::catch_unwind`] against an
//! [`EvalBudget`], and its outcome is *classified* as a [`TreeOutcome`] —
//! `Ok`, `Failed` (a well-formed [`EvalError`], including budget trips) or
//! `Panicked` (the captured panic message). One poisoned tree never loses
//! the other N−1 results, and the worker pool stays alive: a failed tree
//! is re-enqueued at the **back** of its worker's deque (per-tree backoff
//! — retries run behind remaining fresh work) up to `retries` times.
//! Deterministic [`FaultPlan`]s inject faults per `(tree, attempt)`, which
//! is how the fuzz oracle proves that transient faults converge to
//! bit-identical results after retry.
//!
//! Counters flow through the shared `fnc2-obs` vocabulary:
//! [`Key::ParTrees`], [`Key::ParSteals`], [`Key::ParRetries`],
//! [`Key::GuardPanicsCaught`] and [`Key::GuardBudgetExceeded`] — plus the
//! per-tree evaluation counters (`eval.*`), which each worker accumulates
//! in a thread-local [`Counters`] shard merged in worker-index order on
//! join, so recorded totals are deterministic whatever the steal
//! interleaving. When the caller's recorder hands out a span tracer
//! ([`Recorder::spans`], e.g. an [`Obs`](fnc2_obs::Obs) after
//! [`enable_spans`](fnc2_obs::Obs::enable_spans)), every worker gets a
//! [`SpanTracer`] shard on that tracer's epoch and each `(tree, attempt)`
//! work item becomes a span on that worker's timeline.
//!
//! ```
//! use fnc2_ag::{GrammarBuilder, Occ, TreeBuilder, Value};
//! use fnc2_analysis::{snc_test, snc_to_l_ordered, Inclusion};
//! use fnc2_guard::EvalBudget;
//! use fnc2_visit::{build_visit_seqs, Evaluator, RootInputs};
//! use fnc2_par::batch_evaluate_guarded;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut g = GrammarBuilder::new("count");
//! let s = g.phylum("S");
//! let n = g.syn(s, "n");
//! let leaf = g.production("leaf", s, &[]);
//! g.constant(leaf, Occ::lhs(n), Value::Int(0));
//! let node = g.production("node", s, &[s]);
//! g.func("succ", 1, |a| Value::Int(a[0].as_int() + 1));
//! g.call(node, Occ::lhs(n), "succ", [Occ::new(1, n).into()]);
//! let grammar = g.finish()?;
//! let snc = snc_test(&grammar);
//! let lo = snc_to_l_ordered(&grammar, &snc, Inclusion::Long)?;
//! let seqs = build_visit_seqs(&grammar, &lo);
//! let ev = Evaluator::new(&grammar, &seqs);
//!
//! let trees: Vec<_> = (0..8)
//!     .map(|depth| {
//!         let mut tb = TreeBuilder::new(&grammar);
//!         let mut cur = tb.op("leaf", &[]).unwrap();
//!         for _ in 0..depth {
//!             cur = tb.op("node", &[cur]).unwrap();
//!         }
//!         tb.finish_root(cur).unwrap()
//!     })
//!     .collect();
//! let budget = EvalBudget::default();
//! let report = batch_evaluate_guarded(&ev, &trees, &RootInputs::new(), 4, &budget, 0, None);
//! assert_eq!(report.stats.trees, 8);
//! for (depth, o) in report.outcomes.iter().enumerate() {
//!     let values = o.values().expect("decorated");
//!     let root = trees[depth].root();
//!     assert_eq!(values.get(&grammar, root, n), Some(&Value::Int(depth as i64)));
//! }
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, Once};

use fnc2_ag::{AttrValues, Tree};
use fnc2_guard::{
    backoff_delay, EvalBudget, FaultPlan, InjectedFault, INJECTED_FAILURE_MSG, INJECTED_PANIC_MSG,
};
use fnc2_obs::{Counters, Key, NoopRecorder, Recorder, SpanTracer};
use fnc2_visit::{EvalError, EvalStats, Evaluator, RootInputs};

pub mod checkpoint;

use checkpoint::Journal;
pub use checkpoint::{
    batch_evaluate_checkpointed_recorded, outcome_digest, Checkpoint, CkptBatchReport, CkptError,
    CkptOutcome, CkptRecord, ResumeInfo,
};

/// What one batch run did: fed into [`Key::ParTrees`] / [`Key::ParSteals`]
/// by the recorded entry points, and returned for callers that aggregate
/// their own reports.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Trees evaluated (successful or not).
    pub trees: u64,
    /// Successful steals: tasks a worker took from another worker's deque.
    pub steals: u64,
    /// Workers that ran, after clamping to the batch's size. The caller's
    /// thread is worker 0, so a batch of `threads` workers spawns
    /// `threads - 1` threads.
    pub threads: u64,
}

/// The classified outcome of one tree in a guarded batch.
#[derive(Debug)]
pub enum TreeOutcome {
    /// The tree decorated successfully.
    Ok(AttrValues, EvalStats),
    /// Evaluation returned a well-formed error (diagnostics, budget trips,
    /// injected failures) — the tree is poisoned, the batch is not.
    Failed(EvalError),
    /// Evaluation panicked; the panic was caught at the tree boundary and
    /// its message captured. The worker — and the batch — survived.
    Panicked(String),
}

impl TreeOutcome {
    /// True for [`TreeOutcome::Ok`].
    pub fn is_ok(&self) -> bool {
        matches!(self, TreeOutcome::Ok(..))
    }

    /// The decorated attribute values, when evaluation succeeded.
    pub fn values(&self) -> Option<&AttrValues> {
        match self {
            TreeOutcome::Ok(v, _) => Some(v),
            _ => None,
        }
    }

    /// The classified error, when evaluation failed without panicking.
    pub fn error(&self) -> Option<&EvalError> {
        match self {
            TreeOutcome::Failed(e) => Some(e),
            _ => None,
        }
    }

    /// The captured panic message, when evaluation panicked.
    pub fn panic_message(&self) -> Option<&str> {
        match self {
            TreeOutcome::Panicked(m) => Some(m),
            _ => None,
        }
    }

    /// Stable lowercase label for reports: `ok`, `failed` or `panicked`.
    pub fn label(&self) -> &'static str {
        match self {
            TreeOutcome::Ok(..) => "ok",
            TreeOutcome::Failed(_) => "failed",
            TreeOutcome::Panicked(_) => "panicked",
        }
    }
}

/// Everything a guarded batch run produced: per-tree classified outcomes
/// plus the aggregate fault/retry counters.
#[derive(Debug)]
pub struct BatchReport {
    /// `outcomes[i]` is tree `i`'s final (post-retry) outcome.
    pub outcomes: Vec<TreeOutcome>,
    /// Pool statistics (trees, steals, threads).
    pub stats: BatchStats,
    /// Tree re-enqueues: one per failed attempt that was retried.
    pub retries: u64,
    /// Panics caught at the tree boundary (over all attempts).
    pub panics_caught: u64,
    /// Budget/fault trips observed (over all attempts).
    pub budget_exceeded: u64,
}

impl BatchReport {
    /// `(ok, failed, panicked)` final-outcome counts.
    pub fn counts(&self) -> (usize, usize, usize) {
        let mut c = (0, 0, 0);
        for o in &self.outcomes {
            match o {
                TreeOutcome::Ok(..) => c.0 += 1,
                TreeOutcome::Failed(_) => c.1 += 1,
                TreeOutcome::Panicked(_) => c.2 += 1,
            }
        }
        c
    }

    /// True when every tree succeeded.
    pub fn all_ok(&self) -> bool {
        self.outcomes.iter().all(|o| o.is_ok())
    }
}

/// A work item: batch index plus the retry attempt it is on (0 = first).
type Task = (usize, u32);

/// The per-worker deques plus the shared steal/pending counters.
struct Pool {
    deques: Vec<Mutex<VecDeque<Task>>>,
    steals: AtomicU64,
    /// Trees without a terminal outcome yet. Re-enqueues keep it constant;
    /// it drops only when an outcome is recorded, so `pending == 0` is the
    /// authoritative "batch drained" signal even with tasks in flight.
    pending: AtomicU64,
}

impl Pool {
    /// A pool over the batch indices in `todo` — all of them, or for the
    /// checkpointed driver only the trees the journal does not have yet.
    fn new(todo: &[usize], workers: usize) -> Pool {
        let mut deques: Vec<VecDeque<Task>> = (0..workers).map(|_| VecDeque::new()).collect();
        // Round-robin deal: contiguous runs land on the same worker only
        // when the batch is much larger than the pool, keeping the common
        // case steal-free.
        for (k, &i) in todo.iter().enumerate() {
            deques[k % workers].push_back((i, 0));
        }
        Pool {
            deques: deques.into_iter().map(Mutex::new).collect(),
            steals: AtomicU64::new(0),
            pending: AtomicU64::new(todo.len() as u64),
        }
    }

    /// Next task for worker `w`: own deque front first, then steal from
    /// the other deques' backs.
    fn next_task(&self, w: usize) -> Option<Task> {
        if let Some(t) = self.deques[w].lock().unwrap().pop_front() {
            return Some(t);
        }
        let n = self.deques.len();
        for off in 1..n {
            let victim = (w + off) % n;
            if let Some(t) = self.deques[victim].lock().unwrap().pop_back() {
                self.steals.fetch_add(1, Ordering::Relaxed);
                return Some(t);
            }
        }
        None
    }

    /// Re-enqueues a failed tree at the **back** of worker `w`'s deque:
    /// the retry runs after the worker's remaining fresh work (per-tree
    /// backoff ordering), and `pending` is untouched so the pool stays
    /// alive until the retry resolves.
    fn requeue(&self, w: usize, i: usize, attempt: u32) {
        self.deques[w].lock().unwrap().push_back((i, attempt));
    }
}

/// Extracts a printable message from a caught panic payload.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

/// Injected panics are expected, caught and classified; keep their default
/// panic-hook stack traces out of stderr. The replacement hook delegates
/// to the previous hook for every *real* panic.
fn silence_injected_panics() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .map(|s| s.contains(INJECTED_PANIC_MSG))
                .unwrap_or(false);
            if !injected {
                prev(info);
            }
        }));
    });
}

/// Evaluates one tree with the panic boundary and classifies the result;
/// `budget.fault` carries the attempt's injected fault, if any.
/// Evaluation counters land in the worker's `shard` ([`Counters`] is
/// itself a [`Recorder`]) so they survive the join and merge
/// deterministically.
fn run_one(
    evaluator: &Evaluator<'_>,
    tree: &Tree,
    inputs: &RootInputs,
    budget: &EvalBudget,
    shard: &mut Counters,
) -> TreeOutcome {
    if budget.fault == Some(InjectedFault::FailOnEntry) {
        return TreeOutcome::Failed(EvalError::SemanticFailure {
            node: tree.root(),
            message: format!("{INJECTED_FAILURE_MSG} (on entry)"),
        });
    }
    let r = catch_unwind(AssertUnwindSafe(|| {
        if budget.fault == Some(InjectedFault::PanicOnEntry) {
            panic!("{INJECTED_PANIC_MSG} (on entry)");
        }
        evaluator.evaluate_with(tree, inputs, budget, shard)
    }));
    match r {
        Ok(Ok((values, stats))) => TreeOutcome::Ok(values, stats),
        Ok(Err(e)) => TreeOutcome::Failed(e),
        Err(payload) => TreeOutcome::Panicked(panic_message(payload)),
    }
}

/// Opens a span for one `(tree, attempt)` work item in a worker's shard.
fn span_tree_begin(sp: &mut Option<SpanTracer>, i: usize, attempt: u32) {
    if let Some(sp) = sp.as_mut() {
        sp.begin("par", format!("tree {i} attempt {attempt}"));
    }
}

/// Closes the work-item span, tagging failures as instant events.
fn span_tree_end(sp: &mut Option<SpanTracer>, i: usize, o: &TreeOutcome) {
    let Some(sp) = sp.as_mut() else { return };
    sp.end();
    match o {
        TreeOutcome::Failed(e) if e.is_budget() => {
            sp.instant("guard", format!("tree {i}: budget trip: {e}"));
        }
        TreeOutcome::Panicked(m) => {
            sp.instant("guard", format!("tree {i}: panic caught: {m}"));
        }
        _ => {}
    }
}

/// Ceiling for the per-retry backoff a batch ever sleeps.
const RETRY_BACKOFF_CAP_MS: u64 = 100;

/// One worker's recorder shards: counters (evaluation counters plus the
/// worker's retry/panic/budget-trip tallies) and, when span tracing is
/// on, a span tracer on the caller's epoch.
type Shard = (Counters, Option<SpanTracer>);

/// What a batch's drivers share: the trees and how to evaluate them.
struct Batch<'a, 'g> {
    evaluator: &'a Evaluator<'g>,
    trees: &'a [Tree],
    inputs: &'a RootInputs,
    threads: usize,
    budget: &'a EvalBudget,
    retries: u32,
    plan: Option<&'a FaultPlan>,
    /// Base of the exponential backoff before each retry (0: none).
    backoff_ms: u64,
}

/// A finished batch run.
struct BatchRun {
    /// `outcomes[i]` is tree `i`'s terminal outcome, `None` if it was not
    /// dealt (or the run aborted before it resolved).
    outcomes: Vec<Option<TreeOutcome>>,
    stats: BatchStats,
    /// The merged worker shards plus the pool's `par.*` totals, ready to
    /// replay.
    counters: Counters,
}

impl Batch<'_, '_> {
    /// Evaluates the trees in `todo` on the work-stealing pool, handing
    /// each terminal outcome to `journal` (if any) before it counts as
    /// done. Worker 0 runs on the caller's thread, the others on scoped
    /// threads, so a one-worker batch spawns nothing.
    fn run<R: Recorder>(&self, todo: &[usize], journal: Option<&Journal>, rec: &mut R) -> BatchRun {
        if self.plan.is_some_and(|p| !p.is_empty()) {
            silence_injected_panics();
        }
        let workers = self.threads.clamp(1, todo.len().max(1));
        let pool = Pool::new(todo, workers);
        // One recorder shard per worker: counters accumulate thread-locally
        // and merge in worker-index order after the join, so recorded
        // totals are deterministic whatever the steal interleaving. Span
        // shards carry the session epoch, so per-tree spans from every
        // worker line up on one timeline.
        let mut shards =
            (0..workers).map(|w| (Counters::new(), rec.spans().map(|t| t.shard(w as u32 + 1))));
        let first = shards.next().expect("at least one worker");
        let done: Vec<(Vec<(usize, TreeOutcome)>, Shard)> = std::thread::scope(|scope| {
            let pool = &pool;
            let spawned: Vec<_> = shards
                .enumerate()
                .map(|(k, shard)| scope.spawn(move || self.work(pool, k + 1, shard, journal)))
                .collect();
            let mut done = vec![self.work(pool, 0, first, journal)];
            done.extend(spawned.into_iter().map(|h| h.join().unwrap()));
            done
        });
        // Index merge makes the output independent of scheduling.
        let mut outcomes: Vec<Option<TreeOutcome>> = Vec::new();
        outcomes.resize_with(self.trees.len(), || None);
        let mut counters = Counters::new();
        for (per_worker, (shard, spans)) in done {
            for (i, o) in per_worker {
                debug_assert!(outcomes[i].is_none(), "tree {i} resolved twice");
                outcomes[i] = Some(o);
            }
            counters.merge(&shard);
            if let (Some(sp), Some(tracer)) = (spans, rec.spans()) {
                tracer.absorb(sp);
            }
        }
        let stats = BatchStats {
            trees: todo.len() as u64,
            steals: pool.steals.load(Ordering::Relaxed),
            threads: workers as u64,
        };
        counters.add(Key::ParTrees, stats.trees);
        counters.add(Key::ParSteals, stats.steals);
        BatchRun {
            outcomes,
            stats,
            counters,
        }
    }

    /// Worker `w`'s loop: take a task, evaluate it, then retry it or
    /// resolve it, until the pool drains or the journal aborts the batch.
    fn work(
        &self,
        pool: &Pool,
        w: usize,
        (mut counters, mut spans): Shard,
        journal: Option<&Journal>,
    ) -> (Vec<(usize, TreeOutcome)>, Shard) {
        let mut out = Vec::new();
        while !journal.is_some_and(Journal::aborted) {
            let Some((i, attempt)) = pool.next_task(w) else {
                // Tasks may still be in flight on other workers and about
                // to be re-enqueued; only `pending == 0` ends the batch.
                if pool.pending.load(Ordering::Acquire) == 0 {
                    break;
                }
                std::thread::yield_now();
                continue;
            };
            std::thread::sleep(backoff_delay(
                attempt,
                self.backoff_ms,
                RETRY_BACKOFF_CAP_MS,
            ));
            let budget = EvalBudget {
                fault: self.plan.and_then(|p| p.fault_for(i, attempt)),
                ..*self.budget
            };
            span_tree_begin(&mut spans, i, attempt);
            let o = run_one(
                self.evaluator,
                &self.trees[i],
                self.inputs,
                &budget,
                &mut counters,
            );
            span_tree_end(&mut spans, i, &o);
            match &o {
                TreeOutcome::Panicked(_) => counters.add(Key::GuardPanicsCaught, 1),
                TreeOutcome::Failed(e) if e.is_budget() => {
                    counters.add(Key::GuardBudgetExceeded, 1)
                }
                _ => {}
            }
            if !o.is_ok() && attempt < self.retries {
                counters.add(Key::ParRetries, 1);
                pool.requeue(w, i, attempt + 1);
                continue;
            }
            if let Some(journal) = journal {
                journal.append(i, &o);
            }
            out.push((i, o));
            pool.pending.fetch_sub(1, Ordering::Release);
        }
        (out, (counters, spans))
    }
}

/// The batch entry point: evaluates every tree in `trees` against
/// `evaluator` (all roots must derive the axiom; `inputs` supplies root
/// inherited attributes, shared by all trees) on `threads` worker threads
/// under `budget` with a per-tree panic boundary, retries failed trees up
/// to `retries` times (re-enqueued behind the worker's remaining work),
/// and returns every tree's classified [`TreeOutcome`] — one poisoned tree
/// never loses the other N−1 results.
///
/// `outcomes[i]` is always tree `i`'s outcome; order and contents are
/// identical to calling [`Evaluator::evaluate`] in a sequential loop,
/// whatever `threads` is. `threads` is clamped to `1..=trees.len()` (a
/// worker with no possible work is never spawned).
///
/// `plan` optionally injects deterministic faults per `(tree, attempt)`;
/// see [`FaultPlan`]. It decides each attempt's fault, replacing
/// `budget.fault`. Surviving trees are bit-identical to an unfaulted
/// sequential run regardless of `threads`.
#[allow(clippy::too_many_arguments)]
pub fn batch_evaluate_guarded(
    evaluator: &Evaluator<'_>,
    trees: &[Tree],
    inputs: &RootInputs,
    threads: usize,
    budget: &EvalBudget,
    retries: u32,
    plan: Option<&FaultPlan>,
) -> BatchReport {
    batch_evaluate_guarded_recorded(
        evaluator,
        trees,
        inputs,
        threads,
        budget,
        retries,
        plan,
        &mut NoopRecorder,
    )
}

/// [`batch_evaluate_guarded`], instrumented: replays [`Key::ParTrees`],
/// [`Key::ParSteals`], [`Key::ParRetries`], [`Key::GuardPanicsCaught`],
/// [`Key::GuardBudgetExceeded`] and the per-tree `eval.*` counters into
/// `rec` when the batch finishes; with spans enabled, each `(tree,
/// attempt)` work item is a `par` span on its worker's timeline.
#[allow(clippy::too_many_arguments)]
pub fn batch_evaluate_guarded_recorded<R: Recorder>(
    evaluator: &Evaluator<'_>,
    trees: &[Tree],
    inputs: &RootInputs,
    threads: usize,
    budget: &EvalBudget,
    retries: u32,
    plan: Option<&FaultPlan>,
    rec: &mut R,
) -> BatchReport {
    let batch = Batch {
        evaluator,
        trees,
        inputs,
        threads,
        budget,
        retries,
        plan,
        backoff_ms: 0,
    };
    let all: Vec<usize> = (0..trees.len()).collect();
    let run = batch.run(&all, None, rec);
    run.counters.replay(rec);
    BatchReport {
        outcomes: run
            .outcomes
            .into_iter()
            .map(|o| o.expect("every dealt index resolves exactly once"))
            .collect(),
        stats: run.stats,
        retries: run.counters.get(Key::ParRetries),
        panics_caught: run.counters.get(Key::GuardPanicsCaught),
        budget_exceeded: run.counters.get(Key::GuardBudgetExceeded),
    }
}

#[cfg(test)]
mod tests {
    use fnc2_ag::{Grammar, GrammarBuilder, Occ, TreeBuilder, Value};
    use fnc2_analysis::{snc_test, snc_to_l_ordered, Inclusion};
    use fnc2_guard::PlannedFault;
    use fnc2_obs::Obs;
    use fnc2_visit::{build_visit_seqs, VisitSeqs};

    use super::*;

    fn count_grammar() -> Grammar {
        let mut g = GrammarBuilder::new("count");
        let s = g.phylum("S");
        let n = g.syn(s, "n");
        let leaf = g.production("leaf", s, &[]);
        g.constant(leaf, Occ::lhs(n), Value::Int(0));
        let node = g.production("node", s, &[s]);
        g.func("succ", 1, |a| Value::Int(a[0].as_int() + 1));
        g.call(node, Occ::lhs(n), "succ", [Occ::new(1, n).into()]);
        g.finish().unwrap()
    }

    fn seqs_for(g: &Grammar) -> VisitSeqs {
        let snc = snc_test(g);
        let lo = snc_to_l_ordered(g, &snc, Inclusion::Long).unwrap();
        build_visit_seqs(g, &lo)
    }

    /// An unbudgeted, unfaulted batch without retries.
    fn plain_batch(ev: &Evaluator<'_>, trees: &[Tree], threads: usize) -> BatchReport {
        let budget = EvalBudget::default();
        batch_evaluate_guarded(ev, trees, &RootInputs::new(), threads, &budget, 0, None)
    }

    /// The values and stats of a tree that must have decorated.
    fn decorated(o: &TreeOutcome) -> (&AttrValues, &EvalStats) {
        match o {
            TreeOutcome::Ok(v, s) => (v, s),
            other => panic!("tree not decorated: {}", other.label()),
        }
    }

    fn chains(g: &Grammar, count: usize) -> Vec<Tree> {
        (0..count)
            .map(|depth| {
                let mut tb = TreeBuilder::new(g);
                let mut cur = tb.op("leaf", &[]).unwrap();
                for _ in 0..depth {
                    cur = tb.op("node", &[cur]).unwrap();
                }
                tb.finish_root(cur).unwrap()
            })
            .collect()
    }

    #[test]
    fn parallel_matches_sequential() {
        let g = count_grammar();
        let seqs = seqs_for(&g);
        let ev = Evaluator::new(&g, &seqs);
        let trees = chains(&g, 37);
        let seq = plain_batch(&ev, &trees, 1);
        for threads in [2, 3, 4, 8] {
            let par = plain_batch(&ev, &trees, threads);
            assert_eq!(par.stats.trees, 37);
            assert_eq!(par.stats.threads, threads as u64);
            for (i, (a, b)) in seq.outcomes.iter().zip(&par.outcomes).enumerate() {
                let (va, sa) = decorated(a);
                let (vb, sb) = decorated(b);
                assert_eq!(sa, sb, "stats diverge on tree {i} at {threads} threads");
                let n = g.attr_by_name(g.phylum_by_name("S").unwrap(), "n").unwrap();
                assert_eq!(
                    va.get(&g, trees[i].root(), n),
                    vb.get(&g, trees[i].root(), n),
                    "values diverge on tree {i} at {threads} threads"
                );
            }
        }
    }

    #[test]
    fn more_threads_than_trees_is_clamped() {
        let g = count_grammar();
        let seqs = seqs_for(&g);
        let ev = Evaluator::new(&g, &seqs);
        let trees = chains(&g, 2);
        let report = plain_batch(&ev, &trees, 16);
        assert_eq!(report.outcomes.len(), 2);
        assert_eq!(report.stats.threads, 2);
        // Empty batch, zero threads: no panic, no work.
        let report = plain_batch(&ev, &[], 0);
        assert!(report.outcomes.is_empty());
        assert_eq!(report.stats.trees, 0);
        assert_eq!(report.stats.threads, 1);
    }

    #[test]
    fn counters_flow_through_recorder() {
        let g = count_grammar();
        let seqs = seqs_for(&g);
        let ev = Evaluator::new(&g, &seqs);
        let trees = chains(&g, 5);
        let mut obs = Obs::new();
        let budget = EvalBudget::default();
        let report = batch_evaluate_guarded_recorded(
            &ev,
            &trees,
            &RootInputs::new(),
            2,
            &budget,
            0,
            None,
            &mut obs,
        );
        assert_eq!(obs.metrics.counter("par.trees"), 5);
        assert_eq!(obs.metrics.counter("par.steals"), report.stats.steals);
    }

    #[test]
    fn worker_shards_preserve_eval_counters() {
        let g = count_grammar();
        let seqs = seqs_for(&g);
        let ev = Evaluator::new(&g, &seqs);
        let trees = chains(&g, 9);
        let inputs = RootInputs::new();
        let budget = EvalBudget::default();
        // Ground truth: per-tree eval counters from sequential recorded runs.
        let mut expect = Counters::new();
        for t in &trees {
            ev.evaluate_with(t, &inputs, &budget, &mut expect).unwrap();
        }
        for threads in [1, 2, 4] {
            let mut obs = Obs::new();
            batch_evaluate_guarded_recorded(
                &ev, &trees, &inputs, threads, &budget, 0, None, &mut obs,
            );
            for key in ["eval.visits", "eval.evals", "eval.copies"] {
                assert_eq!(
                    obs.metrics.counter(key),
                    expect.get(match key {
                        "eval.visits" => Key::EvalVisits,
                        "eval.evals" => Key::EvalEvals,
                        _ => Key::EvalCopies,
                    }),
                    "{key} diverges at {threads} threads"
                );
            }
            assert!(
                obs.metrics.counter("eval.evals") > 0,
                "counters were dropped"
            );
        }
    }

    #[test]
    fn worker_spans_merge_onto_one_timeline() {
        let g = count_grammar();
        let seqs = seqs_for(&g);
        let ev = Evaluator::new(&g, &seqs);
        let trees = chains(&g, 7);
        let mut obs = Obs::new();
        obs.enable_spans();
        batch_evaluate_guarded_recorded(
            &ev,
            &trees,
            &RootInputs::new(),
            3,
            &EvalBudget::default(),
            0,
            None,
            &mut obs,
        );
        // One "tree i attempt 0" span per tree, spread across worker tids.
        let begins: Vec<_> = obs
            .tracer
            .events()
            .iter()
            .filter(|e| matches!(e, fnc2_obs::SpanEvent::Begin { cat: "par", .. }))
            .collect();
        assert_eq!(begins.len(), 7);
        let doc = obs.chrome_trace();
        fnc2_obs::validate_chrome_trace(&doc).unwrap();
    }

    #[test]
    fn interned_batch_is_bit_identical_across_thread_counts() {
        let g = count_grammar();
        let seqs = seqs_for(&g);
        let trees = chains(&g, 24);
        let n = g.attr_by_name(g.phylum_by_name("S").unwrap(), "n").unwrap();

        // Ground truth: the plain uninterned sequential evaluator.
        let plain = Evaluator::new(&g, &seqs);
        let want = plain_batch(&plain, &trees, 1);

        // A private per-evaluation interner, at every thread count, must
        // reproduce it bit for bit.
        let local = Evaluator::new(&g, &seqs).with_interning(true);
        for threads in [1, 2, 4, 8] {
            let got = plain_batch(&local, &trees, threads);
            for (i, (a, b)) in want.outcomes.iter().zip(&got.outcomes).enumerate() {
                let (va, sa) = decorated(a);
                let (vb, sb) = decorated(b);
                assert_eq!(sa, sb, "stats diverge on tree {i} at {threads} threads");
                assert_eq!(
                    va.get(&g, trees[i].root(), n),
                    vb.get(&g, trees[i].root(), n),
                    "values diverge on tree {i} at {threads} threads"
                );
            }
        }
    }

    #[test]
    fn one_poisoned_tree_never_loses_the_others() {
        let g = count_grammar();
        let seqs = seqs_for(&g);
        let ev = Evaluator::new(&g, &seqs);
        let trees = chains(&g, 12);
        let inputs = RootInputs::new();
        let clean = plain_batch(&ev, &trees, 1);
        assert!(clean.all_ok());

        for fault in [
            InjectedFault::PanicOnEntry,
            InjectedFault::PanicAtStep { step: 2 },
            InjectedFault::FailRule { step: 1 },
        ] {
            let plan = FaultPlan::with_faults(vec![PlannedFault {
                tree: 5,
                fault,
                transient: false,
            }]);
            for threads in [1, 2, 4, 8] {
                let report = batch_evaluate_guarded(
                    &ev,
                    &trees,
                    &inputs,
                    threads,
                    &EvalBudget::default(),
                    0,
                    Some(&plan),
                );
                assert_eq!(report.outcomes.len(), 12);
                for (i, o) in report.outcomes.iter().enumerate() {
                    if i == 5 {
                        assert!(!o.is_ok(), "poisoned tree must not succeed ({fault})");
                        continue;
                    }
                    // Survivors are bit-identical to the clean run.
                    let a = o.values().expect("survivor decorated");
                    let b = clean.outcomes[i].values().unwrap();
                    let n = g.attr_by_name(g.phylum_by_name("S").unwrap(), "n").unwrap();
                    assert_eq!(a.get(&g, trees[i].root(), n), b.get(&g, trees[i].root(), n));
                }
                match fault {
                    InjectedFault::FailRule { .. } => {
                        assert_eq!(report.panics_caught, 0);
                        assert_eq!(report.budget_exceeded, 1);
                    }
                    _ => assert_eq!(report.panics_caught, 1, "{fault} at {threads} threads"),
                }
            }
        }
    }

    #[test]
    fn transient_fault_retry_converges() {
        let g = count_grammar();
        let seqs = seqs_for(&g);
        let ev = Evaluator::new(&g, &seqs);
        let trees = chains(&g, 6);
        let inputs = RootInputs::new();
        let plan = FaultPlan::with_faults(vec![PlannedFault {
            tree: 3,
            fault: InjectedFault::PanicAtStep { step: 1 },
            transient: true,
        }]);
        // Without retries the poisoned tree is lost...
        let report = batch_evaluate_guarded(
            &ev,
            &trees,
            &inputs,
            2,
            &EvalBudget::default(),
            0,
            Some(&plan),
        );
        assert!(report.outcomes[3].panic_message().is_some());
        // ...with one retry the transient fault clears and the tree's
        // result is bit-identical to an unfaulted run.
        let report = batch_evaluate_guarded(
            &ev,
            &trees,
            &inputs,
            2,
            &EvalBudget::default(),
            1,
            Some(&plan),
        );
        assert!(report.all_ok());
        assert_eq!(report.retries, 1);
        assert_eq!(report.panics_caught, 1);
        let (plain, _) = ev.evaluate(&trees[3], &inputs).unwrap();
        let n = g.attr_by_name(g.phylum_by_name("S").unwrap(), "n").unwrap();
        assert_eq!(
            report.outcomes[3]
                .values()
                .unwrap()
                .get(&g, trees[3].root(), n),
            plain.get(&g, trees[3].root(), n)
        );
    }

    #[test]
    fn permanent_fault_exhausts_retries() {
        let g = count_grammar();
        let seqs = seqs_for(&g);
        let ev = Evaluator::new(&g, &seqs);
        let trees = chains(&g, 4);
        let plan = FaultPlan::with_faults(vec![PlannedFault {
            tree: 0,
            fault: InjectedFault::FailRule { step: 1 },
            transient: false,
        }]);
        let report = batch_evaluate_guarded(
            &ev,
            &trees,
            &RootInputs::new(),
            2,
            &EvalBudget::default(),
            3,
            Some(&plan),
        );
        assert!(report.outcomes[0].error().is_some_and(|e| e.is_budget()));
        assert_eq!(report.retries, 3, "every retry was spent");
        assert_eq!(report.budget_exceeded, 4, "initial attempt + 3 retries");
    }

    #[test]
    fn budget_trips_are_classified_per_tree() {
        let g = count_grammar();
        let seqs = seqs_for(&g);
        let ev = Evaluator::new(&g, &seqs);
        // Tree depths 0..8: deep trees trip a 5-step budget, shallow ones fit.
        let trees = chains(&g, 8);
        let budget = EvalBudget::default().with_max_steps(5);
        let mut obs = Obs::new();
        let report = batch_evaluate_guarded_recorded(
            &ev,
            &trees,
            &RootInputs::new(),
            3,
            &budget,
            0,
            None,
            &mut obs,
        );
        let (ok, failed, panicked) = report.counts();
        assert!(ok >= 1 && failed >= 1, "mixed outcomes expected");
        assert_eq!(panicked, 0);
        assert_eq!(report.budget_exceeded, failed as u64);
        assert_eq!(obs.metrics.counter("guard.budget_exceeded"), failed as u64);
        assert_eq!(obs.metrics.counter("par.trees"), 8);
    }
}
