//! # fnc2-obs — unified instrumentation for the FNC-2 reproduction
//!
//! One dependency-free layer for everything the paper's §4 evaluation
//! measures:
//!
//! * [`SpanTracer`] — one clock for the whole run: hierarchical,
//!   thread-aware spans with Chrome trace-event JSON export
//!   (Perfetto-loadable). Every stage of the Figure 3 cascade (OLGA
//!   parse/check/lower, SNC/DNC/OAG(k) tests, the SNC→l-ordered
//!   transformation, visit-sequence generation, space analysis) is a
//!   `"phase"` span, read back by [`SpanTracer::phases`] as a Table
//!   1-style generation-time breakdown; evaluator root visits, budget
//!   trips and batch workers' per-tree spans share the same timeline.
//! * [`MetricsRegistry`] — named counters fed by the evaluators and
//!   the analysis fixpoints through the shared [`Key`] vocabulary.
//! * [`TraceBuffer`] — a bounded ring of evaluation [`Event`]s
//!   (`VisitEnter`, `RuleFired`, `AttrStored`, `StatusComputed`, …) with
//!   a JSON-lines exporter and a human-readable pretty-printer.
//! * [`RuleProfiler`] — per-`(production, rule)` firing counts and
//!   sampled wall time, ranked into a "hot rules" report.
//!
//! Instrumented code is generic over [`Recorder`]; the default
//! [`NoopRecorder`] compiles to nothing, so runs without `--metrics` or
//! `--trace` pay zero cost. [`Obs`] is the live session combining all
//! four facilities, and [`Json`] is the in-house JSON value used for
//! every machine-readable report.

pub mod event;
pub mod json;
pub mod metrics;
pub mod profile;
pub mod record;
pub mod span;

pub use event::{ChangeStatus, Event, RawResolver, Resolver, StorageClass, TraceBuffer};
pub use json::{Json, JsonError};
pub use metrics::MetricsRegistry;
pub use profile::{RuleCost, RuleProfiler, DEFAULT_SAMPLE_EVERY};
pub use record::{Counters, Key, NoopRecorder, Obs, Recorder};
pub use span::{chrome_trace, validate_chrome_trace, PhaseRow, SpanEvent, SpanTracer};
