//! The `Recorder` trait, the shared counter vocabulary, and the
//! all-in-one [`Obs`] session.
//!
//! The evaluators and analysis fixpoints are generic over `R: Recorder`.
//! [`NoopRecorder`]'s methods are empty, `trace()` is `false` and it hands
//! out no profiler or span tracer, so the uninstrumented instantiation
//! monomorphizes to the exact code that ran before this layer existed —
//! hot paths pay nothing. [`Obs`] is the live implementation bundling a
//! span tracer (which also times the cascade phases), a metrics registry,
//! an optional trace buffer and an optional rule profiler.

use crate::event::{Event, Resolver, TraceBuffer};
use crate::json::Json;
use crate::metrics::MetricsRegistry;
use crate::profile::RuleProfiler;
use crate::span::{chrome_trace, SpanEvent, SpanTracer};

/// The shared counter vocabulary.
///
/// Every counter that used to live in one of the ad-hoc stats
/// structs (`EvalStats`, `IncrementalStats`) plus the
/// cascade-side tallies is a `Key`. Dense numbering lets instrumented
/// code count into a fixed array ([`Counters`]) without string hashing.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Key {
    /// Visits performed by the exhaustive evaluator.
    EvalVisits,
    /// Semantic rules fired by the exhaustive evaluator.
    EvalEvals,
    /// Copy rules executed by the exhaustive evaluator.
    EvalCopies,
    /// Visits performed by the space-optimized evaluator.
    SpaceVisits,
    /// Semantic rules fired by the space-optimized evaluator.
    SpaceEvals,
    /// Copy rules skipped (storage-shared) by the space-optimized evaluator.
    SpaceCopiesSkipped,
    /// High-water mark of live attribute cells (max semantics).
    SpaceMaxLiveCells,
    /// Attribute cells still resident in the tree after a run.
    SpaceFinalNodeCells,
    /// Attribute instances recomputed by the incremental evaluator.
    IncReevaluated,
    /// Recomputed instances whose value changed.
    IncChanged,
    /// Recomputed instances whose value was unchanged (propagation cut).
    IncUnchanged,
    /// Fresh instances with no previous value to compare against.
    IncUnknown,
    /// Worklist pops across all GFA fixpoints.
    GfaFixpointSteps,
    /// Worklist pops that changed their node's value.
    GfaFixpointChanges,
    /// Total partitions over all phyla after the transformation.
    TransformPartitions,
    /// Visit plans computed by the transformation.
    TransformPlans,
    /// Plans served from the memo table.
    TransformReuses,
    /// Plans computed fresh.
    TransformFresh,
    /// Attribute occurrences assigned to global variables.
    SpacePlanVariables,
    /// Attribute occurrences assigned to global stacks.
    SpacePlanStacks,
    /// Attribute occurrences left in tree nodes.
    SpacePlanNode,
    /// Copy rules eliminated by storage grouping.
    SpacePlanCopiesEliminated,
    /// Constant fetches served from the evaluator's interned pool
    /// (proof that per-execution deep clones of `Arg::Const` are gone).
    EvalConstHits,
    /// Trees evaluated by the parallel batch driver.
    ParTrees,
    /// Successful steals performed by the work-stealing pool.
    ParSteals,
    /// Evaluations cut short by an exhausted `fnc2-guard` budget.
    GuardBudgetExceeded,
    /// Worker panics caught and classified by the batch driver.
    GuardPanicsCaught,
    /// Space-plan → exhaustive degradations taken by the pipeline.
    GuardDegraded,
    /// Per-tree retry attempts performed by the batch driver.
    ParRetries,
    /// Compiled-table artifacts loaded from the cache (or `--tables`).
    TablesCacheHit,
    /// Cache lookups that found no artifact for the fingerprint.
    TablesCacheMiss,
    /// Artifacts rejected (stale fingerprint, version skew, corruption)
    /// and recovered from by full recompilation.
    TablesCacheRejected,
    /// Values found already canonical in the hash-cons intern table.
    EvalInternHits,
    /// Fresh values canonicalized into the hash-cons intern table.
    EvalInternMisses,
    /// Semantic-function applications served from the memo cache.
    EvalMemoHits,
    /// High-water occupancy of the hash-cons intern table.
    EvalInternSize,
    /// Corrupt/mismatched artifacts moved to the cache's `quarantine/`
    /// subdirectory instead of being silently overwritten.
    TablesQuarantined,
    /// Orphaned cache temp files removed by startup sweeps or `cache-gc`.
    TablesTempsSwept,
    /// Records appended to a batch checkpoint journal.
    ParCkptAppended,
    /// Trees skipped on `--resume` because the journal already had them.
    ParCkptResumed,
    /// Diagnostics produced by the grammar lint pass.
    LintDiags,
    /// Error-severity lint diagnostics.
    LintErrors,
    /// Warning-severity lint diagnostics.
    LintWarnings,
    /// Circularity witnesses extracted and verified by the lint pass.
    LintWitnesses,
}

impl Key {
    /// Number of keys; the length of a [`Counters`] block.
    pub const COUNT: usize = Key::ALL.len();

    /// Every key, in numbering order.
    pub const ALL: [Key; 44] = [
        Key::EvalVisits,
        Key::EvalEvals,
        Key::EvalCopies,
        Key::SpaceVisits,
        Key::SpaceEvals,
        Key::SpaceCopiesSkipped,
        Key::SpaceMaxLiveCells,
        Key::SpaceFinalNodeCells,
        Key::IncReevaluated,
        Key::IncChanged,
        Key::IncUnchanged,
        Key::IncUnknown,
        Key::GfaFixpointSteps,
        Key::GfaFixpointChanges,
        Key::TransformPartitions,
        Key::TransformPlans,
        Key::TransformReuses,
        Key::TransformFresh,
        Key::SpacePlanVariables,
        Key::SpacePlanStacks,
        Key::SpacePlanNode,
        Key::SpacePlanCopiesEliminated,
        Key::EvalConstHits,
        Key::ParTrees,
        Key::ParSteals,
        Key::GuardBudgetExceeded,
        Key::GuardPanicsCaught,
        Key::GuardDegraded,
        Key::ParRetries,
        Key::TablesCacheHit,
        Key::TablesCacheMiss,
        Key::TablesCacheRejected,
        Key::EvalInternHits,
        Key::EvalInternMisses,
        Key::EvalMemoHits,
        Key::EvalInternSize,
        Key::TablesQuarantined,
        Key::TablesTempsSwept,
        Key::ParCkptAppended,
        Key::ParCkptResumed,
        Key::LintDiags,
        Key::LintErrors,
        Key::LintWarnings,
        Key::LintWitnesses,
    ];

    /// The canonical dotted metric name.
    pub fn name(self) -> &'static str {
        match self {
            Key::EvalVisits => "eval.visits",
            Key::EvalEvals => "eval.evals",
            Key::EvalCopies => "eval.copies",
            Key::SpaceVisits => "space.visits",
            Key::SpaceEvals => "space.evals",
            Key::SpaceCopiesSkipped => "space.copies_skipped",
            Key::SpaceMaxLiveCells => "space.max_live_cells",
            Key::SpaceFinalNodeCells => "space.final_node_cells",
            Key::IncReevaluated => "inc.reevaluated",
            Key::IncChanged => "inc.changed",
            Key::IncUnchanged => "inc.unchanged",
            Key::IncUnknown => "inc.unknown",
            Key::GfaFixpointSteps => "gfa.fixpoint.steps",
            Key::GfaFixpointChanges => "gfa.fixpoint.changes",
            Key::TransformPartitions => "transform.partitions",
            Key::TransformPlans => "transform.plans",
            Key::TransformReuses => "transform.reuses",
            Key::TransformFresh => "transform.fresh",
            Key::SpacePlanVariables => "space.plan.variables",
            Key::SpacePlanStacks => "space.plan.stacks",
            Key::SpacePlanNode => "space.plan.node",
            Key::SpacePlanCopiesEliminated => "space.plan.copies_eliminated",
            Key::EvalConstHits => "eval.const_hits",
            Key::ParTrees => "par.trees",
            Key::ParSteals => "par.steals",
            Key::GuardBudgetExceeded => "guard.budget_exceeded",
            Key::GuardPanicsCaught => "guard.panics_caught",
            Key::GuardDegraded => "guard.degraded",
            Key::ParRetries => "par.retries",
            Key::TablesCacheHit => "tables.cache_hit",
            Key::TablesCacheMiss => "tables.cache_miss",
            Key::TablesCacheRejected => "tables.cache_rejected",
            Key::EvalInternHits => "eval.intern_hits",
            Key::EvalInternMisses => "eval.intern_misses",
            Key::EvalMemoHits => "eval.memo_hits",
            Key::EvalInternSize => "eval.intern_size",
            Key::TablesQuarantined => "tables.quarantined",
            Key::TablesTempsSwept => "tables.temps_swept",
            Key::ParCkptAppended => "par.ckpt_appended",
            Key::ParCkptResumed => "par.ckpt_resumed",
            Key::LintDiags => "lint.diagnostics",
            Key::LintErrors => "lint.errors",
            Key::LintWarnings => "lint.warnings",
            Key::LintWitnesses => "lint.witnesses",
        }
    }

    /// True for keys with high-water-mark (max) semantics rather than
    /// additive semantics.
    pub fn is_high_water(self) -> bool {
        matches!(self, Key::SpaceMaxLiveCells | Key::EvalInternSize)
    }
}

/// A dense block of counters indexed by [`Key`].
///
/// This is what the evaluators count into internally; the legacy stats
/// structs are thin views over one of these.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Counters {
    values: [u64; Key::COUNT],
}

impl Default for Counters {
    fn default() -> Counters {
        Counters {
            values: [0; Key::COUNT],
        }
    }
}

impl Counters {
    /// An all-zero block.
    pub fn new() -> Counters {
        Counters::default()
    }

    /// Adds `delta` to `key`.
    #[inline]
    pub fn add(&mut self, key: Key, delta: u64) {
        self.values[key as usize] += delta;
    }

    /// Raises `key` to at least `value` (high-water mark).
    #[inline]
    pub fn raise(&mut self, key: Key, value: u64) {
        let slot = &mut self.values[key as usize];
        *slot = (*slot).max(value);
    }

    /// Reads `key`.
    #[inline]
    pub fn get(&self, key: Key) -> u64 {
        self.values[key as usize]
    }

    /// Sets `key` to `value`.
    #[inline]
    pub fn set(&mut self, key: Key, value: u64) {
        self.values[key as usize] = value;
    }

    /// Replays this block into a recorder, respecting each key's
    /// additive or high-water semantics. Zero values are skipped.
    pub fn replay<R: Recorder + ?Sized>(&self, rec: &mut R) {
        for key in Key::ALL {
            let v = self.get(key);
            if v == 0 {
                continue;
            }
            if key.is_high_water() {
                rec.count_max(key, v);
            } else {
                rec.count(key, v);
            }
        }
    }

    /// Merges another block into this one, respecting each key's
    /// additive or high-water semantics. Used by the batch driver to
    /// combine worker-local shards deterministically.
    pub fn merge(&mut self, other: &Counters) {
        for key in Key::ALL {
            let v = other.get(key);
            if key.is_high_water() {
                self.raise(key, v);
            } else {
                self.add(key, v);
            }
        }
    }
}

/// Worker shards count directly into a dense block; the batch driver
/// merges the shards and replays the sum into the real recorder.
impl Recorder for Counters {
    #[inline]
    fn count(&mut self, key: Key, delta: u64) {
        self.add(key, delta);
    }

    #[inline]
    fn count_max(&mut self, key: Key, value: u64) {
        self.raise(key, value);
    }
}

/// The instrumentation sink the cascade and the evaluators are generic
/// over.
///
/// Counters and the event stream are methods; the rule profiler and the
/// span tracer are handed out whole, so call sites drive them directly.
/// Every method defaults to a no-op: `trace()` is `false` and
/// [`profiler`](Self::profiler)/[`spans`](Self::spans) are `None`, so
/// event construction, rule timing and span-name formatting are skipped
/// entirely at gated call sites (`if rec.trace() { rec.emit(...) }`,
/// `if let Some(t) = rec.spans() { ... }`).
pub trait Recorder {
    /// Adds `delta` to the counter `key`.
    #[inline]
    fn count(&mut self, key: Key, delta: u64) {
        let _ = (key, delta);
    }

    /// Raises the counter `key` to at least `value`.
    #[inline]
    fn count_max(&mut self, key: Key, value: u64) {
        let _ = (key, value);
    }

    /// Whether event tracing is active. Call sites must gate `emit` on
    /// this so uninstrumented runs never build an [`Event`].
    #[inline]
    fn trace(&self) -> bool {
        false
    }

    /// Captures an event. Only called when `trace()` is true. Every
    /// event reaches the recorder, in order: consumers that check a
    /// property per event rely on seeing the whole stream.
    #[inline]
    fn emit(&mut self, event: Event) {
        let _ = event;
    }

    /// The per-rule cost profiler, when profiling is active. Evaluators
    /// ask it whether to time a firing and record the firing into it.
    #[inline]
    fn profiler(&mut self) -> Option<&mut RuleProfiler> {
        None
    }

    /// The span tracer evaluators and batch workers record into, when
    /// span tracing is active. The batch driver takes worker shards from
    /// it and absorbs them back.
    #[inline]
    fn spans(&mut self) -> Option<&mut SpanTracer> {
        None
    }
}

/// The zero-cost recorder: every method is a no-op and `trace()` is
/// `false`, so instrumented code monomorphizes back to the bare loop.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {}

/// A borrowed recorder records into the recorder it borrows, so callers
/// can pass `&mut rec` where a recorder is taken by value.
impl<R: Recorder + ?Sized> Recorder for &mut R {
    #[inline]
    fn count(&mut self, key: Key, delta: u64) {
        (**self).count(key, delta);
    }

    #[inline]
    fn count_max(&mut self, key: Key, value: u64) {
        (**self).count_max(key, value);
    }

    #[inline]
    fn trace(&self) -> bool {
        (**self).trace()
    }

    #[inline]
    fn emit(&mut self, event: Event) {
        (**self).emit(event);
    }

    #[inline]
    fn profiler(&mut self) -> Option<&mut RuleProfiler> {
        (**self).profiler()
    }

    #[inline]
    fn spans(&mut self) -> Option<&mut SpanTracer> {
        (**self).spans()
    }
}

/// A live instrumentation session: span tracer + metrics registry +
/// optional bounded event trace + optional rule profiler.
#[derive(Debug, Default)]
pub struct Obs {
    /// The session timeline. Cascade phases always land on it as
    /// `"phase"` spans; evaluator and batch-worker spans join them once
    /// [`enable_spans`](Self::enable_spans) is called.
    pub tracer: SpanTracer,
    /// Whether [`Recorder::spans`] hands the tracer out.
    spans_enabled: bool,
    /// Named counters.
    pub metrics: MetricsRegistry,
    /// The event ring, when tracing is enabled.
    pub events: Option<TraceBuffer>,
    /// The per-rule cost profiler, when profiling is enabled.
    pub profile: Option<RuleProfiler>,
}

impl Obs {
    /// A session with metrics and phase timing but no event tracing.
    pub fn new() -> Obs {
        Obs::default()
    }

    /// A session that additionally traces events into a ring of
    /// `capacity` entries.
    pub fn with_trace(capacity: usize) -> Obs {
        Obs {
            events: Some(TraceBuffer::new(capacity)),
            ..Obs::default()
        }
    }

    /// Hands the session's tracer to evaluators and batch workers too,
    /// so root visits, budget trips and per-tree work share the cascade
    /// phases' timeline.
    pub fn enable_spans(&mut self) {
        self.spans_enabled = true;
    }

    /// Enables per-rule cost profiling with sampling period
    /// `sample_every` (see [`RuleProfiler::with_sample_every`]).
    pub fn enable_profile(&mut self, sample_every: u32) {
        if self.profile.is_none() {
            self.profile = Some(RuleProfiler::with_sample_every(sample_every));
        }
    }

    /// The session's timeline as a Chrome trace-event document, loadable
    /// in Perfetto: cascade phases and spans on tid 0, batch workers on
    /// their own tids.
    pub fn chrome_trace(&self) -> Json {
        let mut tids: Vec<u32> = self.tracer.events().iter().map(SpanEvent::tid).collect();
        tids.sort_unstable();
        tids.dedup();
        let names: Vec<(u32, String)> = tids
            .into_iter()
            .map(|tid| match tid {
                0 => (tid, "cascade".to_string()),
                _ => (tid, format!("worker {tid}")),
            })
            .collect();
        chrome_trace(self.tracer.events(), &names)
    }

    /// The full report — `{phases, counters, profile?, trace?}` — as a
    /// single JSON document.
    pub fn to_json(&self) -> Json {
        let metrics = self.metrics.to_json();
        let phases = self
            .tracer
            .phases()
            .iter()
            .map(|s| {
                Json::obj([
                    ("name", Json::str(s.name)),
                    ("depth", Json::Int(s.depth as i64)),
                    ("nanos", Json::Int(s.nanos.min(i64::MAX as u64) as i64)),
                    (
                        "start_nanos",
                        Json::Int(s.start_nanos.min(i64::MAX as u64) as i64),
                    ),
                ])
            })
            .collect();
        let mut pairs = vec![
            ("phases".to_string(), Json::Arr(phases)),
            (
                "counters".to_string(),
                metrics.get("counters").cloned().unwrap_or(Json::Null),
            ),
        ];
        if let Some(p) = &self.profile {
            if !p.is_empty() {
                pairs.push(("profile".to_string(), p.to_json(&crate::event::RawResolver)));
            }
        }
        if let Some(buf) = &self.events {
            let mut trace_pairs = vec![
                ("total", Json::Int(buf.total() as i64)),
                ("dropped", Json::Int(buf.dropped() as i64)),
            ];
            if let Some((from, to)) = buf.dropped_span() {
                trace_pairs.push((
                    "dropped_span",
                    Json::obj([
                        ("from", Json::Int(from as i64)),
                        ("to", Json::Int(to as i64)),
                    ]),
                ));
            }
            pairs.push((
                "trace".to_string(),
                Json::obj(
                    trace_pairs.into_iter().chain([(
                        "events",
                        Json::Arr(
                            buf.iter()
                                .map(|(seq, e)| {
                                    let mut obj = match e.to_json() {
                                        Json::Obj(p) => p,
                                        _ => unreachable!(),
                                    };
                                    obj.insert(0, ("seq".to_string(), Json::Int(seq as i64)));
                                    Json::Obj(obj)
                                })
                                .collect(),
                        ),
                    )]),
                ),
            ));
        }
        Json::Obj(pairs)
    }

    /// Renders the report for a human: phases, then metrics, then (if
    /// traced) the event log via `resolver`.
    pub fn render(&self, resolver: &dyn Resolver) -> String {
        let mut out = String::new();
        let phases = self.tracer.phases();
        if !phases.is_empty() {
            out.push_str("phases:\n");
        }
        for s in phases {
            out.push_str(&format!(
                "{:indent$}{:<24} {:>10.3} ms\n",
                "",
                s.name,
                s.nanos as f64 / 1e6,
                indent = s.depth * 2
            ));
        }
        if !self.metrics.is_empty() {
            out.push_str("metrics:\n");
            out.push_str(&self.metrics.render());
        }
        if let Some(p) = &self.profile {
            if !p.is_empty() {
                out.push_str(&p.render(resolver, 20));
            }
        }
        if let Some(buf) = &self.events {
            out.push_str(&format!(
                "trace ({} events, {} dropped):\n",
                buf.total(),
                buf.dropped()
            ));
            out.push_str(&buf.render(resolver));
        }
        out
    }
}

impl Recorder for Obs {
    #[inline]
    fn count(&mut self, key: Key, delta: u64) {
        self.metrics.count(key.name(), delta);
    }

    #[inline]
    fn count_max(&mut self, key: Key, value: u64) {
        self.metrics.count_max(key.name(), value);
    }

    #[inline]
    fn trace(&self) -> bool {
        self.events.is_some()
    }

    #[inline]
    fn emit(&mut self, event: Event) {
        if let Some(buf) = &mut self.events {
            buf.push(event);
        }
    }

    #[inline]
    fn profiler(&mut self) -> Option<&mut RuleProfiler> {
        self.profile.as_mut()
    }

    #[inline]
    fn spans(&mut self) -> Option<&mut SpanTracer> {
        self.spans_enabled.then_some(&mut self.tracer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_names_are_unique_and_ordered() {
        let mut names: Vec<_> = Key::ALL.iter().map(|k| k.name()).collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
        for (i, k) in Key::ALL.iter().enumerate() {
            assert_eq!(*k as usize, i);
        }
    }

    #[test]
    fn counters_replay_respects_semantics() {
        let mut c = Counters::new();
        c.add(Key::EvalVisits, 3);
        c.raise(Key::SpaceMaxLiveCells, 9);
        c.raise(Key::SpaceMaxLiveCells, 4);
        assert_eq!(c.get(Key::SpaceMaxLiveCells), 9);

        let mut obs = Obs::new();
        obs.count_max(Key::SpaceMaxLiveCells, 20);
        c.replay(&mut obs);
        assert_eq!(obs.metrics.counter("eval.visits"), 3);
        // replay must not lower an existing high-water mark
        assert_eq!(obs.metrics.counter("space.max_live_cells"), 20);
    }

    #[test]
    fn noop_recorder_reports_no_tracing() {
        let mut rec = NoopRecorder;
        assert!(!rec.trace());
        assert!(rec.profiler().is_none() && rec.spans().is_none());
    }

    #[test]
    fn phase_render_and_json_carry_every_phase() {
        let mut obs = Obs::new();
        obs.tracer.begin("phase", "a");
        obs.tracer.begin("phase", "b");
        obs.tracer.end();
        obs.tracer.end();
        let text = obs.render(&crate::event::RawResolver);
        assert!(text.starts_with("phases:\na "), "{text}");
        assert!(text.contains("\n  b "), "{text}");
        let j = obs.to_json();
        let phases = j.get("phases").and_then(Json::as_arr).unwrap();
        let rows: Vec<_> = phases
            .iter()
            .map(|p| {
                let key = |k| p.get(k).and_then(Json::as_int).unwrap();
                let name = p.get("name").and_then(Json::as_str).unwrap();
                assert!(key("start_nanos") >= 0 && key("nanos") >= 0);
                (name, key("depth"))
            })
            .collect();
        assert_eq!(rows, vec![("a", 0), ("b", 1)]);
    }

    #[test]
    fn obs_hands_out_its_tracer_only_once_spans_are_enabled() {
        let mut obs = Obs::new();
        assert!(obs.spans().is_none());
        obs.enable_spans();
        obs.spans().unwrap().instant("guard", "trip");
        assert_eq!(obs.tracer.len(), 1);
    }

    #[test]
    fn obs_collects_counts_and_events() {
        let mut obs = Obs::with_trace(4);
        obs.count(Key::EvalEvals, 2);
        assert!(obs.trace());
        obs.emit(Event::RuleFired {
            node: 0,
            production: 1,
            rule: 2,
        });
        let j = obs.to_json();
        assert_eq!(
            j.get("counters")
                .and_then(|c| c.get("eval.evals"))
                .and_then(Json::as_int),
            Some(2)
        );
        let trace = j.get("trace").unwrap();
        assert_eq!(trace.get("total").and_then(Json::as_int), Some(1));
        assert_eq!(trace.get("events").and_then(Json::as_arr).unwrap().len(), 1);
    }
}
