//! The four workloads and the closed loop that measures them.
//!
//! Every workload is one client issuing op after op. An op's inputs are
//! generated before its clock starts and its outputs are checked after
//! the clock stops, so only the calls into the system are timed.

use std::cell::RefCell;
use std::hint::black_box;
use std::time::Instant;

use fnc2::ag::{AttrId, Grammar, Value};
use fnc2::artifact::{emit_tables, load_tables};
use fnc2::guard::EvalBudget;
use fnc2::incremental::{Equality, IncrementalEvaluator};
use fnc2::obs::{Counters, Json, Key, Obs};
use fnc2::par::{batch_evaluate_guarded, batch_evaluate_guarded_recorded, outcome_digest};
use fnc2::par::{BatchReport, TreeOutcome};
use fnc2::visit::{DynamicEvaluator, Evaluator, RootInputs};
use fnc2::{Compiled, Pipeline};

use crate::gen::{self, GrammarInput, Ty};
use crate::stats;
use crate::trace::Layers;

/// Workload names, in the order the all-workloads mode runs them.
pub const WORKLOADS: [&str; 4] = [
    "pascal-compile",
    "pascal-edit",
    "batch-decorate",
    "grammar-build",
];

/// The end-to-end metrics (name, unit) every untraced run reports.
pub const END_TO_END: [(&str, &str); 5] = [
    ("latency_p50_ms", "ms"),
    ("latency_p95_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Set-up slots of an untraced run, spread evenly over its ops. The
/// host's speed drifts by tens of percent over seconds, so set-ups made
/// only at the start would see one phase of it; spread out, `setup_s`
/// (their median) sees the same phases as the ops.
const SETUP_SLOTS: usize = 10;
/// Each slot repeats the set-up until this many seconds have been spent
/// (at least once), so a sub-millisecond set-up has many samples.
const SETUP_SLOT_SECONDS: f64 = 0.05;
/// The fewest ops of an untraced run: `latency_p95_ms` needs ten
/// samples beyond it.
const MIN_OPS: usize = 200;
/// Worker threads of `batch-decorate` (the benchmark machine's core
/// count).
const BATCH_THREADS: usize = 2;
/// Edits per `pascal-edit` session. Each session starts from a fresh
/// program, so memory that grows with every wave is bounded per session
/// and `peak_rss_mb` does not depend on how many sessions a run fits.
/// The root `code`/`errs` are checked after the last edit of a session.
pub const EDITS_PER_SESSION: usize = 25;

/// How one run is made.
#[derive(Clone, Debug)]
pub struct Cfg {
    pub seed: u64,
    /// Run length: a run does the workload's ops per second times this
    /// many ops, about this many seconds of work at the seed commit.
    pub seconds: u64,
    /// Per-layer (traced) run instead of the end-to-end run.
    pub trace: bool,
    /// Replaces the op count; `None` in benchmark runs, small in the
    /// smoke test.
    pub ops: Option<usize>,
}

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What a run measured and checked.
#[derive(Debug)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// The traced pass as a Chrome trace (traced runs only).
    pub chrome_trace: Option<Json>,
}

/// Runs workload `name`.
///
/// # Errors
///
/// Fails on an unknown name or when preparation or set-up fails.
pub fn run(name: &str, cfg: &Cfg) -> Result<Outcome, String> {
    match name {
        "pascal-compile" => pascal_compile(cfg),
        "pascal-edit" => pascal_edit(cfg),
        "batch-decorate" => batch_decorate(cfg),
        "grammar-build" => grammar_build(cfg),
        other => Err(format!(
            "unknown workload `{other}` (one of: {})",
            WORKLOADS.join(", ")
        )),
    }
}

// ---------------------------------------------------------------------------
// The measurement loop
// ---------------------------------------------------------------------------

/// The tracer an op reports into; empty in untraced runs.
pub struct Tr<'a>(Option<&'a mut Layers>);

impl Tr<'_> {
    fn on(&self) -> bool {
        self.0.is_some()
    }

    fn begin(&mut self, name: &'static str) {
        if let Some(l) = &mut self.0 {
            l.begin(name);
        }
    }

    fn end(&mut self) {
        if let Some(l) = &mut self.0 {
            l.end();
        }
    }

    fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.begin(name);
        let r = f();
        self.end();
        r
    }

    fn count(&mut self, name: &'static str, n: f64) {
        if let Some(l) = &mut self.0 {
            l.count(name, n);
        }
    }

    /// The counter block `_recorded` calls report into.
    fn counters(&mut self) -> Option<&mut Counters> {
        self.0.as_mut().map(|l| l.counters())
    }
}

/// A workload as the measurement loop sees it: a timed set-up and timed
/// ops. Both return the seconds of their timed section; an op's error is a
/// failed or mismatched op, a set-up's error ends the run.
struct Spec<S, O, M> {
    setup: S,
    op: O,
    /// Ops per second of `--seconds`. The op count is fixed, not the
    /// time, so that two commits do the same work; a faster commit
    /// finishes sooner.
    ops_per_second: usize,
    /// `peak_rss_mb` once the loop has ended.
    peak_rss: M,
    /// Ops per traced pass.
    trace_ops: usize,
    /// Spans whose self times add up to the op's time (the remainder is
    /// reported as `bench.self_ms`).
    partition: &'static [&'static str],
}

fn drive<S, O, M>(cfg: &Cfg, mut spec: Spec<S, O, M>) -> Result<Outcome, String>
where
    S: FnMut() -> Result<f64, String>,
    O: FnMut(usize, &mut Tr) -> Result<f64, String>,
    M: FnMut() -> Option<f64>,
{
    let ops = cfg
        .ops
        .unwrap_or((spec.ops_per_second * cfg.seconds as usize).max(MIN_OPS));
    if cfg.trace {
        return drive_traced(ops, spec);
    }
    let mut setups = Vec::new();
    let slot = ops.div_ceil(SETUP_SLOTS);
    let mut lat = Vec::with_capacity(ops);
    let mut failed = 0u64;
    for i in 0..ops {
        if i % slot == 0 {
            let mut spent = 0.0;
            loop {
                let secs = (spec.setup)()?;
                setups.push(secs);
                spent += secs;
                if spent >= SETUP_SLOT_SECONDS {
                    break;
                }
            }
        }
        match (spec.op)(i, &mut Tr(None)) {
            Ok(secs) => lat.push(secs),
            Err(e) => {
                failed += 1;
                eprintln!("e2e: op {i}: {e}");
            }
        }
    }
    let total: f64 = lat.iter().sum();
    stats::sort(&mut lat);
    let p95 = stats::tail_percentile(&lat, 95.0).ok_or_else(|| {
        format!(
            "only {} ops completed: latency_p95_ms needs at least 200",
            lat.len()
        )
    })?;
    let rss = (spec.peak_rss)().ok_or("cannot read VmHWM from /proc/self/status")?;
    let values = [
        stats::median(&lat) * 1e3,
        p95 * 1e3,
        lat.len() as f64 / total,
        stats::median(&setups),
        rss,
    ];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric { name, value, unit })
        .collect();
    Ok(Outcome {
        attempted: ops as u64,
        failed,
        metrics,
        chrome_trace: None,
    })
}

/// The traced run: alternates an untraced and a traced pass over the
/// first `trace_ops` ops, as many pairs of passes as fit in `ops` ops (at
/// least one). Counts come from the first traced pass, so they repeat
/// exactly; times are averaged over all traced passes. Set-up is measured
/// by untraced runs only.
fn drive_traced<S, O, M>(ops: usize, mut spec: Spec<S, O, M>) -> Result<Outcome, String>
where
    O: FnMut(usize, &mut Tr) -> Result<f64, String>,
{
    let n = spec.trace_ops.min(ops);
    let passes = (ops / (2 * n)).max(1);
    let mut layers = Layers::recording();
    let (mut plain, mut traced) = (0.0, 0.0);
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut frozen = None;
    for _ in 0..passes {
        for (on, total) in [(false, &mut plain), (true, &mut traced)] {
            for i in 0..n {
                attempted += 1;
                let mut tr = Tr(on.then_some(&mut layers));
                match (spec.op)(i, &mut tr) {
                    Ok(secs) => *total += secs,
                    Err(e) => {
                        failed += 1;
                        eprintln!("e2e: op {i}: {e}");
                    }
                }
            }
        }
        if frozen.is_none() {
            frozen = Some(layers.freeze());
        }
    }
    let counts = frozen.expect("one pass ran");
    let ops = n as f64;
    let traced_ops = (n * passes) as f64;
    let ms = |name: &str| layers.self_secs(name) * 1e3 / traced_ops;
    let c = |name: &str| counts.get(name) / ops;
    let key = |k: Key| counts.counters.get(k) as f64;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let op_ms = traced * 1e3 / traced_ops;
    let parts: f64 = spec.partition.iter().map(|p| ms(p)).sum();
    let intern = key(Key::EvalInternHits) + key(Key::EvalInternMisses);

    let per_op = |k: Key| key(k) / ops;
    let metrics = [
        ("syntax.scan_ms", ms("syntax.scan"), "ms"),
        ("syntax.tokens", c("syntax.tokens"), "count"),
        ("parse.tree_ms", ms("parse.tree"), "ms"),
        ("ag.tree_nodes", c("ag.tree_nodes"), "count"),
        ("visit.eval_ms", ms("visit.eval"), "ms"),
        ("visit.visits", per_op(Key::EvalVisits), "count"),
        ("visit.evals", per_op(Key::EvalEvals), "count"),
        ("visit.copies", per_op(Key::EvalCopies), "count"),
        ("visit.const_hits", per_op(Key::EvalConstHits), "count"),
        (
            "visit.vs_handwritten",
            ratio(ms("visit.eval"), ms("handwritten")),
            "ratio",
        ),
        ("intern.hits", per_op(Key::EvalInternHits), "count"),
        ("intern.misses", per_op(Key::EvalInternMisses), "count"),
        ("intern.memo_hits", per_op(Key::EvalMemoHits), "count"),
        (
            "intern.hit_ratio",
            ratio(key(Key::EvalInternHits), intern),
            "ratio",
        ),
        ("intern.table_size", key(Key::EvalInternSize), "count"),
        ("incremental.wave_ms", ms("incremental.wave"), "ms"),
        (
            "incremental.reevaluated",
            per_op(Key::IncReevaluated),
            "count",
        ),
        ("incremental.changed", per_op(Key::IncChanged), "count"),
        (
            "incremental.cut_ratio",
            ratio(key(Key::IncUnchanged), key(Key::IncReevaluated)),
            "ratio",
        ),
        (
            "incremental.vs_exhaustive",
            ratio(ms("incremental.wave"), ms("exhaustive")),
            "ratio",
        ),
        ("par.batch_ms", ms("par.batch"), "ms"),
        ("par.seq_eval_ms", ms("par.seq_eval"), "ms"),
        (
            "par.efficiency",
            ratio(ms("par.seq_eval"), BATCH_THREADS as f64 * ms("par.batch")),
            "ratio",
        ),
        ("par.steals", per_op(Key::ParSteals), "count"),
        (
            "guard.budget_exceeded",
            per_op(Key::GuardBudgetExceeded),
            "count",
        ),
        (
            "guard.panics_caught",
            per_op(Key::GuardPanicsCaught),
            "count",
        ),
        ("olga.front_ms", ms("olga.front"), "ms"),
        ("analysis.classify_ms", ms("analysis.classify"), "ms"),
        ("gfa.fixpoint_steps", c("gfa.fixpoint_steps"), "count"),
        ("lint.pass_ms", ms("lint.pass"), "ms"),
        ("visit.sequences_ms", ms("visit.sequences"), "ms"),
        ("space.analysis_ms", ms("space.analysis"), "ms"),
        (
            "space.copies_eliminated",
            c("space.copies_eliminated"),
            "count",
        ),
        ("tables.emit_ms", ms("tables.emit"), "ms"),
        ("tables.load_ms", ms("tables.load"), "ms"),
        ("tables.artifact_bytes", c("tables.artifact_bytes"), "bytes"),
        ("bench.self_ms", op_ms - parts, "ms"),
        ("op_ms", op_ms, "ms"),
        ("trace_overhead", ratio(traced, plain), "ratio"),
    ];
    let metrics = metrics
        .into_iter()
        .map(|(name, value, unit)| Metric { name, value, unit })
        .collect();
    Ok(Outcome {
        attempted,
        failed,
        metrics,
        chrome_trace: Some(layers.chrome_trace()),
    })
}

/// Seconds taken by `f`, whose result is kept alive past the clock.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let r = black_box(f());
    (r, t0.elapsed().as_secs_f64())
}

fn attr(g: &Grammar, phylum: &str, name: &str) -> AttrId {
    let ph = g.phylum_by_name(phylum).expect("mini-Pascal phylum");
    g.attr_by_name(ph, name).expect("mini-Pascal attribute")
}

fn strings(v: Option<&Value>) -> Vec<String> {
    v.map_or_else(Vec::new, |v| {
        v.as_list().iter().map(|s| s.as_str().to_string()).collect()
    })
}

/// The compiler's output as a user sees it: P-code, then the errors.
fn listing(code: &[String], errs: &[String]) -> String {
    let mut out = code.join("\n");
    out.push_str("\n-- errors\n");
    out.push_str(&errs.join("\n"));
    out
}

/// The mini-Pascal compiler's source, tables and artifact, built the way
/// a user builds them once: compile the AG, then emit its tables.
fn minipascal_artifact(pipeline: &Pipeline) -> Result<Vec<u8>, String> {
    let src = fnc2_corpus::MINIPASCAL_OLGA;
    let compiled = pipeline.compile_olga(src).map_err(|e| e.to_string())?;
    Ok(emit_tables(&compiled, pipeline, src))
}

fn load_minipascal(pipeline: &Pipeline, artifact: &[u8]) -> Result<Compiled, String> {
    load_tables(artifact, fnc2_corpus::MINIPASCAL_OLGA, pipeline).map_err(|e| e.to_string())
}

// ---------------------------------------------------------------------------
// pascal-compile
// ---------------------------------------------------------------------------

fn pascal_compile(cfg: &Cfg) -> Result<Outcome, String> {
    let pipeline = Pipeline::new();
    let artifact = minipascal_artifact(&pipeline)?;
    let compiled = load_minipascal(&pipeline, &artifact)?;
    let g = &compiled.grammar;
    let (code, errs) = (attr(g, "Prog", "code"), attr(g, "Prog", "errs"));
    let inputs = RootInputs::new();
    let scanner = fnc2_corpus::minipascal_scanner();
    let seed = cfg.seed;
    drive(
        cfg,
        Spec {
            setup: || Ok(timed(|| load_minipascal(&pipeline, &artifact)).1),
            op: |i: usize, tr: &mut Tr| {
                let src = gen::compile_program(seed, i);
                if tr.on() {
                    let toks = tr.span("syntax.scan", || fnc2::syntax::scan(&scanner, &src));
                    tr.count("syntax.tokens", toks.map_or(0, |t| t.len()) as f64);
                }
                let t0 = Instant::now();
                tr.begin("op");
                let tree = tr.span("parse.tree", || fnc2_corpus::parse_minipascal(g, &src));
                let tree = tree.inspect_err(|_| tr.end())?;
                tr.begin("visit.eval");
                let evaluated = match tr.counters() {
                    Some(c) => compiled.evaluate_recorded(&tree, &inputs, c),
                    None => compiled.evaluate(&tree, &inputs),
                };
                tr.end();
                let out = evaluated.map(|(vals, _)| {
                    let root = tree.root();
                    listing(
                        &strings(vals.get(g, root, code)),
                        &strings(vals.get(g, root, errs)),
                    )
                });
                tr.end();
                let secs = t0.elapsed().as_secs_f64();
                let out = out.map_err(|e| e.to_string())?;
                let (want_code, want_errs) = tr.span("handwritten", || {
                    fnc2_bench::handwritten_minipascal(g, &tree)
                });
                if tr.on() {
                    tr.count("ag.tree_nodes", tree.size() as f64);
                }
                if out != listing(&want_code, &want_errs) {
                    return Err("P-code differs from the hand-written compiler's".into());
                }
                Ok(secs)
            },
            ops_per_second: 200,
            peak_rss: stats::peak_rss_mb,
            trace_ops: 100,
            partition: &["parse.tree", "visit.eval"],
        },
    )
}

// ---------------------------------------------------------------------------
// pascal-edit
// ---------------------------------------------------------------------------

struct Session<'g> {
    index: usize,
    decls: Vec<(String, Ty)>,
    inc: IncrementalEvaluator<'g>,
}

fn start_session<'g>(g: &'g Grammar, seed: u64, index: usize) -> Result<Session<'g>, String> {
    let program = gen::edit_program(seed, index);
    let tree = fnc2_corpus::parse_minipascal(g, &gen::render(&program))?;
    let inc = IncrementalEvaluator::new(g, tree, Equality::default()).map_err(|e| e.to_string())?;
    Ok(Session {
        index,
        decls: program.decls,
        inc,
    })
}

fn pascal_edit(cfg: &Cfg) -> Result<Outcome, String> {
    let pipeline = Pipeline::new();
    let artifact = minipascal_artifact(&pipeline)?;
    let compiled = load_minipascal(&pipeline, &artifact)?;
    let g = &compiled.grammar;
    let (code, errs, ty) = (
        attr(g, "Prog", "code"),
        attr(g, "Prog", "errs"),
        attr(g, "Expr", "ty"),
    );
    let seed = cfg.seed;
    // Set-up opens the first sessions' evaluators, several programs at once
    // so that one program's size does not set `setup_s`.
    let firsts = (0..8)
        .map(|s| fnc2_corpus::parse_minipascal(g, &gen::render(&gen::edit_program(seed, s))))
        .collect::<Result<Vec<_>, String>>()?;
    let mut session: Option<Session> = None;
    // Peak RSS of each completed session: the HWM is reset when a session
    // starts, so every session is measured on its own.
    let session_peaks = RefCell::new(Vec::new());
    drive(
        cfg,
        Spec {
            setup: || {
                // One evaluator at a time, as sessions are opened.
                let mut secs = 0.0;
                for tree in firsts.iter().cloned() {
                    let (opened, t) =
                        timed(|| IncrementalEvaluator::new(g, tree, Equality::default()));
                    opened.map_err(|e| e.to_string())?;
                    secs += t;
                }
                Ok(secs)
            },
            op: |i: usize, tr: &mut Tr| {
                let (s, j) = (i / EDITS_PER_SESSION, i % EDITS_PER_SESSION);
                if j == 0 || session.as_ref().is_none_or(|cur| cur.index != s) {
                    // A new session: drop the old evaluator first, so two
                    // sessions are never resident at once.
                    session = None;
                    stats::reset_peak_rss();
                    session = Some(start_session(g, seed, s)?);
                }
                let sess = session.as_mut().expect("session started");
                let inc = &sess.inc;
                let (at, sub) = gen::edit(seed, s, j, g, inc.tree(), &sess.decls, |n| {
                    match inc.value(n, ty).map(Value::as_str) {
                        Some("bool") => Ty::Bool,
                        _ => Ty::Int,
                    }
                });
                if tr.on() {
                    tr.count("ag.tree_nodes", sub.size() as f64);
                }
                let inc = &mut sess.inc;
                let t0 = Instant::now();
                tr.begin("op");
                tr.begin("incremental.wave");
                let wave = match tr.counters() {
                    Some(c) => inc.replace_subtrees_recorded(vec![(at, sub)], c),
                    None => inc.replace_subtrees(vec![(at, sub)]),
                };
                tr.end();
                tr.end();
                let secs = t0.elapsed().as_secs_f64();
                wave.map_err(|e| e.to_string())?;
                if tr.on() {
                    tr.span("exhaustive", || {
                        compiled.evaluate(inc.tree(), &RootInputs::new())
                    })
                    .map_err(|e| e.to_string())?;
                }
                if j + 1 == EDITS_PER_SESSION {
                    let root = inc.tree().root();
                    let (want_code, want_errs) = fnc2_bench::handwritten_minipascal(g, inc.tree());
                    let got = listing(
                        &strings(inc.value(root, code)),
                        &strings(inc.value(root, errs)),
                    );
                    if got != listing(&want_code, &want_errs) {
                        return Err(format!(
                            "session {s} edit {j}: root code/errs differ from the hand-written compiler's"
                        ));
                    }
                    if let Some(mb) = stats::peak_rss_mb() {
                        session_peaks.borrow_mut().push(mb);
                    }
                }
                Ok(secs)
            },
            // The mean, not the median: session peaks are skewed (one
            // declaration flip can multiply a session's memory), and their
            // mean varies less from run to run.
            peak_rss: || {
                let peaks = session_peaks.borrow();
                (!peaks.is_empty()).then(|| peaks.iter().sum::<f64>() / peaks.len() as f64)
            },
            ops_per_second: 10 * EDITS_PER_SESSION,
            trace_ops: 4 * EDITS_PER_SESSION,
            partition: &["incremental.wave"],
        },
    )
}

// ---------------------------------------------------------------------------
// batch-decorate
// ---------------------------------------------------------------------------

fn compile_profiles(profiles: &[fnc2_corpus::SynthProfile]) -> Result<Vec<Compiled>, String> {
    profiles
        .iter()
        .map(|p| {
            Pipeline::new()
                .compile(fnc2_corpus::synthetic(p))
                .map_err(|e| e.to_string())
        })
        .collect()
}

fn batch_decorate(cfg: &Cfg) -> Result<Outcome, String> {
    let profiles = fnc2_corpus::TABLE1_PROFILES;
    let compiled = compile_profiles(&profiles)?;
    let evaluators: Vec<Evaluator> = compiled
        .iter()
        .map(|c| Evaluator::new(&c.grammar, &c.seqs).with_interning(c.intern))
        .collect();
    let references: Vec<Evaluator> = compiled
        .iter()
        .map(|c| Evaluator::new(&c.grammar, &c.seqs))
        .collect();
    let inputs = RootInputs::new();
    let budget = EvalBudget::default();
    let seed = cfg.seed;
    drive(
        cfg,
        Spec {
            setup: || {
                let (built, secs) = timed(|| {
                    let cs = compile_profiles(&profiles)?;
                    let evs: Vec<Evaluator> = cs
                        .iter()
                        .map(|c| Evaluator::new(&c.grammar, &c.seqs).with_interning(c.intern))
                        .collect();
                    Ok::<usize, String>(black_box(evs).len())
                });
                built?;
                Ok(secs)
            },
            op: |i: usize, tr: &mut Tr| {
                let k = i % profiles.len();
                let (c, ev) = (&compiled[k], &evaluators[k]);
                let trees = gen::batch_trees(seed, i, &c.grammar, &profiles[k]);
                let t0 = Instant::now();
                tr.begin("op");
                tr.begin("par.batch");
                let report: BatchReport = match tr.counters() {
                    Some(counters) => batch_evaluate_guarded_recorded(
                        ev,
                        &trees,
                        &inputs,
                        BATCH_THREADS,
                        &budget,
                        0,
                        None,
                        counters,
                    ),
                    None => {
                        batch_evaluate_guarded(ev, &trees, &inputs, BATCH_THREADS, &budget, 0, None)
                    }
                };
                tr.end();
                tr.end();
                let secs = t0.elapsed().as_secs_f64();
                if tr.on() {
                    tr.count(
                        "ag.tree_nodes",
                        trees.iter().map(|t| t.size()).sum::<usize>() as f64,
                    );
                    tr.span("par.seq_eval", || {
                        for t in &trees {
                            black_box(ev.evaluate(t, &inputs).is_ok());
                        }
                    });
                }
                check_batch(c, &references[k], &trees, &report, i < profiles.len())?;
                Ok(secs)
            },
            ops_per_second: 10 * profiles.len(),
            peak_rss: stats::peak_rss_mb,
            trace_ops: 2 * profiles.len(),
            partition: &["par.batch"],
        },
    )
}

/// Every tree decorated, with the digest of a sequential, interning-off
/// evaluation; with `dynamic`, also the same cells as the demand-driven
/// evaluator.
fn check_batch(
    c: &Compiled,
    reference: &Evaluator,
    trees: &[fnc2::ag::Tree],
    report: &BatchReport,
    dynamic: bool,
) -> Result<(), String> {
    let inputs = RootInputs::new();
    for (t, (tree, got)) in trees.iter().zip(&report.outcomes).enumerate() {
        let TreeOutcome::Ok(values, _) = got else {
            return Err(format!("tree {t}: {}", got.label()));
        };
        let (want, stats) = reference
            .evaluate(tree, &inputs)
            .map_err(|e| e.to_string())?;
        let want = TreeOutcome::Ok(want, stats);
        if outcome_digest(got) != outcome_digest(&want) {
            return Err(format!(
                "tree {t}: digest differs from the sequential evaluation"
            ));
        }
        if dynamic {
            let (dv, _) = DynamicEvaluator::new(&c.grammar)
                .evaluate(tree, &inputs)
                .map_err(|e| e.to_string())?;
            if !values.cells().eq(dv.cells()) {
                return Err(format!(
                    "tree {t}: cells differ from the dynamic evaluator's"
                ));
            }
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// grammar-build
// ---------------------------------------------------------------------------

fn grammar_build(cfg: &Cfg) -> Result<Outcome, String> {
    let seed = cfg.seed;
    let profiles = gen::profiles(seed);
    let pipeline = Pipeline::new();
    // The cached start: set-up loads the corpus AGs' tables, emitted once.
    let artifacts = gen::CORPUS_OLGA
        .iter()
        .map(|&src| {
            let c = pipeline.compile_olga(src).map_err(|e| e.to_string())?;
            Ok((src, emit_tables(&c, &pipeline, src)))
        })
        .collect::<Result<Vec<_>, String>>()?;
    drive(
        cfg,
        Spec {
            setup: || {
                let (loaded, secs) = timed(|| {
                    artifacts
                        .iter()
                        .map(|(src, bytes)| load_tables(bytes, src, &pipeline))
                        .collect::<Result<Vec<_>, _>>()
                });
                loaded.map_err(|e| e.to_string())?;
                Ok(secs)
            },
            op: |i: usize, tr: &mut Tr| {
                let input = gen::grammar_input(seed, i);
                let grammar = match &input {
                    GrammarInput::Synthetic(k) => Some(fnc2_corpus::synthetic(&profiles[*k])),
                    GrammarInput::Olga { .. } => None,
                };
                let t0 = Instant::now();
                tr.begin("op");
                let built = match (&input, grammar) {
                    (GrammarInput::Olga { source, .. }, _) => {
                        build_olga(&pipeline, source, tr).map(|(c, loaded)| (c, Some(loaded)))
                    }
                    (GrammarInput::Synthetic(_), Some(g)) => tr
                        .span("pipeline.compile", || pipeline.compile(g))
                        .map(|c| (c, None))
                        .map_err(|e| e.to_string()),
                    (GrammarInput::Synthetic(_), None) => unreachable!("grammar drawn above"),
                };
                tr.end();
                let secs = t0.elapsed().as_secs_f64();
                let (c, loaded) = built?;
                let want = match &input {
                    GrammarInput::Olga { class, .. } => *class,
                    GrammarInput::Synthetic(k) => gen::target_class(profiles[*k].class),
                };
                if c.report.class != want {
                    return Err(format!(
                        "class {} where {want} was expected",
                        c.report.class
                    ));
                }
                if let Some(loaded) = &loaded {
                    if report_key(loaded) != report_key(&c) {
                        return Err("loaded report differs from the built one".into());
                    }
                }
                if tr.on() {
                    let front;
                    let g = match &input {
                        GrammarInput::Olga { source, .. } => {
                            let lowered =
                                tr.span("olga.front", || fnc2::olga::compile_ag_source(source));
                            front = lowered.map_err(|e| e.to_string())?.0;
                            &front
                        }
                        GrammarInput::Synthetic(_) => &c.grammar,
                    };
                    replay_cascade(&pipeline, g, &c, tr)?;
                }
                Ok(secs)
            },
            ops_per_second: 48,
            peak_rss: stats::peak_rss_mb,
            trace_ops: 2 * profiles.len(),
            partition: &[
                "olga.front",
                "analysis.classify",
                "lint.pass",
                "visit.sequences",
                "space.analysis",
                "tables.emit",
                "tables.load",
            ],
        },
    )
}

/// Builds OLGA `source`, emits its tables and loads them back: the
/// grammar author's compile and the cached start that follows it.
fn build_olga(
    pipeline: &Pipeline,
    source: &str,
    tr: &mut Tr,
) -> Result<(Compiled, Compiled), String> {
    let c = tr
        .span("pipeline.compile", || pipeline.compile_olga(source))
        .map_err(|e| e.to_string())?;
    let bytes = tr.span("tables.emit", || emit_tables(&c, pipeline, source));
    tr.count("tables.artifact_bytes", bytes.len() as f64);
    let loaded = tr
        .span("tables.load", || load_tables(&bytes, source, pipeline))
        .map_err(|e| e.to_string())?;
    Ok((c, loaded))
}

/// Everything a report says except its timings.
fn report_key(c: &Compiled) -> String {
    let r = &c.report;
    format!(
        "{} {} {} {} {} {:?} {:?} {:?}",
        r.class, r.phyla, r.operators, r.occurrences, r.rules, r.transform, r.space, c.lint.diags
    )
}

/// Repeats each Figure-3 cascade layer on its own, timed, and checks it
/// against what the end-to-end build produced.
fn replay_cascade(
    pipeline: &Pipeline,
    g: &Grammar,
    built: &Compiled,
    tr: &mut Tr,
) -> Result<(), String> {
    let mut obs = Obs::new();
    let cls = tr
        .span("analysis.classify", || {
            fnc2::analysis::classify_recorded(g, pipeline.max_oag_k, pipeline.inclusion, &mut obs)
        })
        .map_err(|e| e.to_string())?;
    tr.count(
        "gfa.fixpoint_steps",
        obs.metrics.counter(Key::GfaFixpointSteps.name()) as f64,
    );
    let lint = tr.span("lint.pass", || fnc2::lint::lint_grammar(g, Some(&cls)));
    let lo = cls
        .l_ordered
        .as_ref()
        .ok_or("replayed classification is not evaluable")?;
    let seqs = tr.span("visit.sequences", || fnc2::visit::build_visit_seqs(g, lo));
    let (_, _, _, plan) = tr.span("space.analysis", || fnc2::space::analyze_space(g, &seqs));
    tr.count(
        "space.copies_eliminated",
        plan.stats.copies_eliminated as f64,
    );
    let same = cls.class == built.report.class
        && format!("{:?}", lint.diags) == format!("{:?}", built.lint.diags)
        && seqs.keys() == built.seqs.keys()
        && format!("{:?}", Some(&plan.stats)) == format!("{:?}", built.report.space.as_ref());
    if same {
        Ok(())
    } else {
        Err("replayed cascade layers disagree with the built report".into())
    }
}
