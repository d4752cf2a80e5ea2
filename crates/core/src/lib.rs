//! # fnc2 — the FNC-2 attribute grammar system, end to end
//!
//! The facade crate mirroring the paper's Figure 2: the OLGA front-end,
//! the evaluator generator (Figure 3's cascade: SNC test → DNC test →
//! OAG(k) test → SNC-to-l-ordered transformation → visit-sequence
//! generation → space optimization), the generated evaluators (plain,
//! space-optimized, demand-driven, incremental), and the translator to C.
//!
//! ```
//! use fnc2::Pipeline;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let compiled = Pipeline::new().compile_olga(r#"
//!     attribute grammar count;
//!       phylum S;
//!       operator leaf : S ::= ;
//!       operator node : S ::= S;
//!       synthesized n : int of S;
//!       for leaf { S.n := 0; }
//!       for node { S$1.n := S$2.n + 1; }
//!     end
//! "#)?;
//! assert_eq!(compiled.report.class.to_string(), "OAG(0)");
//!
//! let mut tb = fnc2::ag::TreeBuilder::new(&compiled.grammar);
//! let a = tb.op("leaf", &[])?;
//! let b = tb.op("node", &[a])?;
//! let tree = tb.finish_root(b)?;
//! let (values, _) = compiled.evaluate(&tree, &Default::default())?;
//! let s = compiled.grammar.phylum_by_name("S").unwrap();
//! let n = compiled.grammar.attr_by_name(s, "n").unwrap();
//! assert_eq!(values.get(&compiled.grammar, tree.root(), n),
//!            Some(&fnc2::ag::Value::Int(1)));
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::borrow::Cow;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use fnc2_ag::{
    AttrId, AttrValues, Grammar, NodeId, PhylumId, ProductionId, Tree, TreeBuilder, Value,
};
use fnc2_analysis::{classify_recorded, AgClass, Inclusion};
use fnc2_guard::EvalBudget;
use fnc2_obs::{Json, Key, Obs, Recorder, Resolver};
use fnc2_space::{analyze_space, FlatProgram, Lifetimes, ObjectIndex, SpacePlan};
use fnc2_visit::{
    build_visit_seqs, EvalError, EvalStats, Evaluator, Lowered, RootInputs, VisitSeqs,
};

pub use fnc2_ag as ag;
pub use fnc2_analysis as analysis;
pub use fnc2_codegen as codegen;
pub use fnc2_fuzz as fuzz;
pub use fnc2_gfa as gfa;
pub use fnc2_guard as guard;
pub use fnc2_incremental as incremental;
pub use fnc2_lint as lint;
pub use fnc2_obs as obs;
pub use fnc2_olga as olga;
pub use fnc2_par as par;
pub use fnc2_space as space;
pub use fnc2_syntax as syntax;
pub use fnc2_tables as tables;
pub use fnc2_tools as tools;
pub use fnc2_vfs as vfs;
pub use fnc2_visit as visit;

pub mod artifact;

/// Pipeline configuration (the knobs of the paper's §3.1).
#[derive(Clone, Debug)]
pub struct Pipeline {
    /// Largest `k` tried by the OAG(k) cascade.
    pub max_oag_k: usize,
    /// Partition-reuse strategy for the transformation.
    pub inclusion: Inclusion,
}

impl Default for Pipeline {
    fn default() -> Self {
        Pipeline {
            max_oag_k: 1,
            inclusion: Inclusion::Long,
        }
    }
}

/// The generator's summary for one AG (one Table 1 row).
#[derive(Clone, Debug)]
pub struct Report {
    /// Smallest class found.
    pub class: AgClass,
    /// Phyla count.
    pub phyla: usize,
    /// Operator (production) count.
    pub operators: usize,
    /// Attribute occurrences (sum over phyla of attached attributes).
    pub occurrences: usize,
    /// Semantic rule count.
    pub rules: usize,
    /// Transformation statistics (partitions per phylum, plans).
    pub transform: Option<fnc2_analysis::TransformStats>,
    /// Space statistics (storage classes, packing, copy elimination).
    pub space: Option<fnc2_space::SpaceStats>,
    /// Wall-clock time of the cascade (the Table 1 "time" column); the
    /// per-phase split is on the session's span tracer.
    pub generator_time: Duration,
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "class {}; {} phyla, {} operators, {} occurrences, {} rules",
            self.class, self.phyla, self.operators, self.occurrences, self.rules
        )?;
        if let Some(t) = &self.transform {
            writeln!(
                f,
                "partitions/phylum avg {:.2} max {}; {} visit-sequences",
                t.avg_partitions(),
                t.max_partitions(),
                t.plans
            )?;
        }
        if let Some(s) = &self.space {
            writeln!(
                f,
                "storage: {:.0}% vars, {:.0}% stacks, {:.0}% nodes; {} vars, {} stacks; copies eliminated {:.0}% (of possible {:.0}%)",
                s.pct_variables(),
                s.pct_stacks(),
                s.pct_node(),
                s.variables_after,
                s.stacks_after,
                s.pct_eliminated_of_copies(),
                s.pct_eliminated_of_possible()
            )?;
        }
        write!(f, "generator time {:?}", self.generator_time)
    }
}

/// Errors of the end-to-end pipeline.
#[derive(Debug)]
pub enum PipelineError {
    /// The OLGA front-end rejected the source.
    Olga(fnc2_olga::OlgaError),
    /// The AG is not strongly non-circular; the payload holds the
    /// circularity trace (paper §3.1's interactive trace, rendered).
    NotSnc(String),
    /// Internal transformation failure (cannot happen for SNC grammars).
    Transform(fnc2_analysis::TransformError),
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Olga(e) => write!(f, "{e}"),
            PipelineError::NotSnc(trace) => {
                write!(f, "grammar is not strongly non-circular:\n{trace}")
            }
            PipelineError::Transform(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for PipelineError {}

impl From<fnc2_olga::OlgaError> for PipelineError {
    fn from(e: fnc2_olga::OlgaError) -> Self {
        PipelineError::Olga(e)
    }
}

/// A fully generated evaluator with all its artifacts.
#[derive(Debug)]
pub struct Compiled {
    /// The (abstract) grammar.
    pub grammar: Grammar,
    /// The visit sequences.
    pub seqs: VisitSeqs,
    /// The space optimizer's results (`None` once
    /// [`degrade_to_exhaustive_recorded`](Self::degrade_to_exhaustive_recorded)
    /// dropped the plan).
    pub space: Option<Space>,
    /// The lint findings (grammar-level static analyses; see
    /// [`fnc2_lint`]). Loaded artifacts replay these from the cache.
    pub lint: fnc2_lint::LintReport,
    /// The generator's summary.
    pub report: Report,
    /// Always `false`: values are never hash-consed. Inert, kept only
    /// because the e2e benchmark still reads it; it goes once the
    /// benchmark's revision drops that read.
    pub intern: bool,
    /// The rules and op streams that [`evaluate`](Self::evaluate) runs,
    /// built from `grammar` and `seqs` once, by the first evaluation.
    lowered: OnceLock<Lowered>,
    /// The space plan's op streams that
    /// [`evaluate_optimized`](Self::evaluate_optimized) runs, over
    /// `lowered`'s rules, built once by the first optimized evaluation.
    planned: OnceLock<Lowered>,
    /// The grammar's [`smoke_tree`], built once by the first call of
    /// [`smoke_tree`](Self::smoke_tree).
    smoke: OnceLock<Option<Tree>>,
}

/// The space optimizer's results for one grammar (paper §2.2).
#[derive(Debug)]
pub struct Space {
    /// The flattened program the plan's access tables index.
    pub flat: FlatProgram,
    /// The lifetimes the plan was made from.
    pub lifetimes: Lifetimes,
    /// The storage plan.
    pub plan: SpacePlan,
}

/// Result of [`Compiled::smoke_evaluate`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SmokeOutcome {
    /// The plain evaluation ran to completion.
    Ok,
    /// No smoke tree exists or evaluation failed for a non-semantic reason
    /// (missing typed token, sandboxed panic); run counters stay empty.
    Skipped,
    /// A semantic function aborted — user-level AG code called the OLGA
    /// `error` builtin (or hit a partial builtin out of domain).
    SemanticFailure(String),
    /// The evaluation tripped an [`EvalBudget`] limit (or an injected
    /// fault); the payload is the classified diagnostic.
    BudgetExceeded(String),
}

impl Compiled {
    /// Evaluates `tree` with the plain (node-storage) evaluator.
    ///
    /// # Errors
    ///
    /// See [`EvalError`].
    pub fn evaluate(
        &self,
        tree: &Tree,
        inputs: &RootInputs,
    ) -> Result<(AttrValues, EvalStats), EvalError> {
        self.evaluator().evaluate(tree, inputs)
    }

    /// The plain evaluator, over the rules and op streams built once.
    fn evaluator(&self) -> Evaluator<'_> {
        Evaluator::with_lowered(&self.grammar, &self.seqs, Cow::Borrowed(self.lowered()))
    }

    /// The node-storage rules and op streams, built by the first call.
    fn lowered(&self) -> &Lowered {
        self.lowered
            .get_or_init(|| Lowered::new(&self.grammar, &self.seqs))
    }

    /// The space plan's evaluator, over op streams built once from the
    /// plain evaluator's rules; `None` when no plan stands.
    fn optimized(&self) -> Option<Evaluator<'_>> {
        let space = self.space.as_ref()?;
        let planned = self.planned.get_or_init(|| {
            let program = Arc::clone(self.lowered().program());
            let (flat, plan) = (&space.flat, &space.plan);
            fnc2_space::plan_lowering(&self.grammar, program, &self.seqs, flat, plan)
        });
        let code = Cow::Borrowed(planned);
        Some(Evaluator::with_lowered(&self.grammar, &self.seqs, code))
    }

    /// Evaluates `tree` under the space plan; only node-stored values return.
    /// When no plan stands
    /// ([`degrade_to_exhaustive_recorded`](Self::degrade_to_exhaustive_recorded)
    /// dropped it), runs the trivial plan, node storage, like
    /// [`evaluate`](Self::evaluate).
    ///
    /// # Errors
    ///
    /// See [`EvalError`].
    pub fn evaluate_optimized(
        &self,
        tree: &Tree,
        inputs: &RootInputs,
    ) -> Result<(AttrValues, EvalStats), EvalError> {
        let ev = self.optimized().unwrap_or_else(|| self.evaluator());
        ev.evaluate(tree, inputs)
    }

    /// [`evaluate`](Self::evaluate), instrumented: run counters are
    /// replayed into `rec` under the `eval.*` keys and, when tracing is
    /// on, visits and rule firings emit events.
    ///
    /// # Errors
    ///
    /// See [`EvalError`].
    pub fn evaluate_recorded<R: Recorder>(
        &self,
        tree: &Tree,
        inputs: &RootInputs,
        rec: &mut R,
    ) -> Result<(AttrValues, EvalStats), EvalError> {
        self.evaluator()
            .evaluate_with(tree, inputs, &EvalBudget::default(), rec)
    }

    /// Runs the generated evaluators once on a minimal derivation of the
    /// grammar so the `eval.*` (and, with space optimization, `space.*`)
    /// run counters are non-zero in a report. Tokens default to `0` and
    /// root inherited attributes to `Int(0)`; evaluation is sandboxed, so
    /// grammars whose minimal tree needs typed tokens simply contribute no
    /// run counters. A semantic failure (user-level AG code calling the
    /// OLGA `error` builtin) is reported distinctly so callers can turn it
    /// into a diagnostic, and a tripped `budget` is reported as
    /// [`SmokeOutcome::BudgetExceeded`] instead of being folded into
    /// `Skipped`, so callers can map it to the budget exit code.
    pub fn smoke_evaluate<R: Recorder>(&self, budget: &EvalBudget, rec: &mut R) -> SmokeOutcome {
        let Some(tree) = self.smoke_tree() else {
            return SmokeOutcome::Skipped;
        };
        let mut inputs = RootInputs::new();
        for attr in self.grammar.inherited(self.grammar.root()) {
            inputs.insert(attr, Value::Int(0));
        }
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            match self.evaluator().evaluate_with(tree, &inputs, budget, rec) {
                Ok(_) => SmokeOutcome::Ok,
                Err(EvalError::SemanticFailure { message, .. }) => {
                    SmokeOutcome::SemanticFailure(message)
                }
                Err(e) if e.is_budget() => SmokeOutcome::BudgetExceeded(e.to_string()),
                Err(_) => SmokeOutcome::Skipped,
            }
        }))
        .unwrap_or(SmokeOutcome::Skipped);
        if matches!(outcome, SmokeOutcome::Ok) {
            let _ = catch_unwind(AssertUnwindSafe(|| {
                if let Some(ev) = self.optimized() {
                    let _ = ev.evaluate_with(tree, &inputs, budget, rec);
                }
            }));
        }
        outcome
    }

    /// The grammar's minimal derivation ([`smoke_tree`]), built by the
    /// first call; `None` when the axiom derives no finite tree.
    pub fn smoke_tree(&self) -> Option<&Tree> {
        self.smoke
            .get_or_init(|| smoke_tree(&self.grammar))
            .as_ref()
    }

    /// Re-validates the space plan from first principles and checks it
    /// against a plan-time budget bound. On failure the plan and its op
    /// streams are dropped — subsequent evaluation (including
    /// [`smoke_evaluate`](Self::smoke_evaluate)) degrades to the
    /// exhaustive node-storage evaluator — the degradation is counted
    /// under [`Key::GuardDegraded`], and the reason is returned for
    /// logging. `None` means the plan stands (or none was built).
    ///
    /// The plan-time budget check: a plan that allocates more global
    /// variable/stack slots than the budget's value-cell allowance cannot
    /// possibly run to completion within it, so it is rejected before any
    /// evaluation starts.
    pub fn degrade_to_exhaustive_recorded<R: Recorder>(
        &mut self,
        budget: &EvalBudget,
        rec: &mut R,
    ) -> Option<String> {
        let Space {
            flat,
            lifetimes,
            plan,
        } = self.space.as_ref()?;
        let ox = ObjectIndex::new(&self.grammar);
        let g = &self.grammar;
        let reason = match fnc2_space::validate_plan(g, &self.seqs, flat, &ox, lifetimes, plan) {
            Err(e) => Some(format!("space plan failed re-validation: {e}")),
            Ok(()) => {
                let slots = (plan.stats.variables_after + plan.stats.stacks_after) as u64;
                if slots > budget.max_value_cells {
                    Some(format!(
                        "space plan needs {slots} storage slots but the budget \
                         allows {} value cells",
                        budget.max_value_cells
                    ))
                } else {
                    None
                }
            }
        };
        let reason = reason?;
        self.space = None;
        self.planned = OnceLock::new();
        let mut counters = fnc2_obs::Counters::new();
        counters.add(Key::GuardDegraded, 1);
        counters.replay(rec);
        Some(reason)
    }

    /// The report and the instrumentation layer's view of the run as one
    /// JSON document: grammar sizes and class, per-phase durations,
    /// counters, and the event trace when one was captured.
    pub fn report_json(&self, obs: &Obs) -> Json {
        let mut pairs: Vec<(String, Json)> = vec![
            ("grammar".into(), Json::str(self.grammar.name())),
            ("class".into(), Json::str(self.report.class.to_string())),
            ("phyla".into(), Json::Int(self.report.phyla as i64)),
            ("operators".into(), Json::Int(self.report.operators as i64)),
            (
                "occurrences".into(),
                Json::Int(self.report.occurrences as i64),
            ),
            ("rules".into(), Json::Int(self.report.rules as i64)),
        ];
        if let Some(t) = &self.report.transform {
            pairs.push((
                "transform".into(),
                Json::obj([
                    ("plans", Json::Int(t.plans as i64)),
                    ("reuses", Json::Int(t.reuses as i64)),
                    ("fresh", Json::Int(t.fresh as i64)),
                    ("max_partitions", Json::Int(t.max_partitions() as i64)),
                ]),
            ));
        }
        if let Some(s) = &self.report.space {
            pairs.push((
                "space".into(),
                Json::obj([
                    ("variables", Json::Int(s.variables_after as i64)),
                    ("stacks", Json::Int(s.stacks_after as i64)),
                    ("node_occurrences", Json::Int(s.occ_node as i64)),
                    ("copies_eliminated", Json::Int(s.copies_eliminated as i64)),
                    ("copies_total", Json::Int(s.copies_total as i64)),
                ]),
            ));
        }
        if let Json::Obj(obs_pairs) = obs.to_json() {
            pairs.extend(obs_pairs);
        }
        Json::Obj(pairs)
    }
}

/// A [`Resolver`] that maps the raw indices carried by trace events back
/// to grammar names, for pretty-printed traces.
#[derive(Clone, Copy, Debug)]
pub struct GrammarResolver<'g>(pub &'g Grammar);

impl Resolver for GrammarResolver<'_> {
    fn production(&self, production: u32) -> String {
        self.0
            .production(ProductionId::from_raw(production))
            .name()
            .to_string()
    }

    fn attribute(&self, attr: u32) -> String {
        self.0.attr(AttrId::from_raw(attr)).name().to_string()
    }

    fn rule(&self, production: u32, rule: u32) -> String {
        let p = ProductionId::from_raw(production);
        let prod = self.0.production(p);
        match prod.rules().get(rule as usize) {
            Some(r) => self.0.occ_name(p, r.target()),
            None => format!("r{rule}"),
        }
    }
}

/// Builds a minimal derivation of the grammar's axiom: for every phylum
/// the production of least derivation height (the heights lint's
/// [`Usefulness`](fnc2_lint::Usefulness) computes), tokens defaulting to
/// `Int(0)`. Returns `None` if the axiom derives no finite tree (useless
/// phyla elsewhere don't matter).
pub fn smoke_tree(grammar: &Grammar) -> Option<Tree> {
    let useful = fnc2_lint::Usefulness::compute(grammar);
    // The height-minimal production of each derivable phylum.
    let mut best: Vec<Option<ProductionId>> = vec![None; grammar.phylum_count()];
    for p in grammar.productions() {
        let lhs = grammar.production(p).lhs().index();
        let h = useful.production_height(grammar, p);
        if best[lhs].is_none() && h.is_some() && h == useful.height[lhs] {
            best[lhs] = Some(p);
        }
    }

    fn build(
        grammar: &Grammar,
        best: &[Option<ProductionId>],
        tb: &mut TreeBuilder<'_>,
        ph: PhylumId,
    ) -> Option<NodeId> {
        let p = best[ph.index()]?;
        let children: Option<Vec<NodeId>> = grammar
            .production(p)
            .rhs()
            .iter()
            .map(|&c| build(grammar, best, tb, c))
            .collect();
        tb.node_with_token(p, &children?, Some(Value::Int(0))).ok()
    }

    let mut tb = TreeBuilder::new(grammar);
    let root = build(grammar, &best, &mut tb, grammar.root())?;
    tb.finish_root(root).ok()
}

impl Pipeline {
    /// A pipeline with the default configuration (OAG(k≤1), long
    /// inclusion).
    pub fn new() -> Pipeline {
        Pipeline::default()
    }

    /// Runs the full generator on an already-built grammar.
    ///
    /// # Errors
    ///
    /// Fails with the circularity trace if the grammar is not SNC.
    pub fn compile(&self, grammar: Grammar) -> Result<Compiled, PipelineError> {
        self.compile_recorded(grammar, &mut Obs::new())
    }

    /// [`compile`](Self::compile), instrumented: every Figure-3 cascade
    /// stage runs inside a phase span (`analysis` with its nested
    /// `analysis.snc`/`analysis.dnc`/`analysis.oag`/`analysis.transform`
    /// children, then `visit.sequences` and `space.analysis`), the GFA
    /// fixpoints feed the `gfa.*` counters, and the storage plan feeds the
    /// `space.plan.*` counters.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`compile`](Self::compile).
    pub fn compile_recorded(
        &self,
        grammar: Grammar,
        obs: &mut Obs,
    ) -> Result<Compiled, PipelineError> {
        let started = Instant::now();
        obs.tracer.begin("phase", "analysis");
        let classified = classify_recorded(&grammar, self.max_oag_k, self.inclusion, obs);
        obs.tracer.end();
        let classification = classified.map_err(PipelineError::Transform)?;
        if !classification.is_evaluable() {
            let w = classification
                .snc
                .witness
                .as_ref()
                .expect("not evaluable implies a witness");
            return Err(PipelineError::NotSnc(fnc2_analysis::explain(&grammar, w)));
        }
        let lo = classification
            .l_ordered
            .as_ref()
            .expect("evaluable grammars have plans");

        obs.tracer.begin("phase", "lint");
        let lint = fnc2_lint::lint_grammar_recorded(&grammar, Some(&classification), obs);
        obs.tracer.end();

        obs.tracer.begin("phase", "visit.sequences");
        let seqs = build_visit_seqs(&grammar, lo);
        obs.tracer.end();

        obs.tracer.begin("phase", "space.analysis");
        let (flat, _, lifetimes, plan) = analyze_space(&grammar, &seqs);
        obs.count(Key::SpacePlanVariables, plan.stats.variables_after as u64);
        obs.count(Key::SpacePlanStacks, plan.stats.stacks_after as u64);
        obs.count(Key::SpacePlanNode, plan.stats.occ_node as u64);
        obs.count(
            Key::SpacePlanCopiesEliminated,
            plan.stats.copies_eliminated as u64,
        );
        obs.tracer.end();

        let report = Report {
            class: classification.class,
            phyla: grammar.phylum_count(),
            operators: grammar.production_count(),
            occurrences: grammar.attr_count(),
            rules: grammar.rule_count(),
            transform: Some(lo.stats.clone()),
            space: Some(plan.stats.clone()),
            generator_time: started.elapsed(),
        };
        Ok(Compiled {
            grammar,
            seqs,
            space: Some(Space {
                flat,
                lifetimes,
                plan,
            }),
            lint,
            report,
            intern: false,
            lowered: OnceLock::new(),
            planned: OnceLock::new(),
            smoke: OnceLock::new(),
        })
    }

    /// Parses, checks and lowers OLGA source, then runs the generator.
    ///
    /// # Errors
    ///
    /// Front-end errors carry positions; non-SNC grammars carry the trace.
    pub fn compile_olga(&self, source: &str) -> Result<Compiled, PipelineError> {
        self.compile_olga_recorded(source, &mut Obs::new())
    }

    /// [`compile_olga`](Self::compile_olga), instrumented: the front-end
    /// runs inside the `olga.parse`/`olga.check`/`olga.lower` phase spans
    /// before the [`compile_recorded`](Self::compile_recorded) cascade.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`compile_olga`](Self::compile_olga).
    pub fn compile_olga_recorded(
        &self,
        source: &str,
        obs: &mut Obs,
    ) -> Result<Compiled, PipelineError> {
        let grammar = olga_front_end_recorded(source, obs)?;
        self.compile_recorded(grammar, obs)
    }

    /// [`lint_olga_recorded`](Self::lint_olga_recorded) without
    /// instrumentation.
    pub fn lint_olga(&self, source: &str) -> fnc2_lint::LintReport {
        self.lint_olga_recorded(source, &mut Obs::new())
    }

    /// Runs the lint pass over OLGA `source` and never fails: front-end
    /// rejections become `L100`–`L102` diagnostics in the report, and a
    /// grammar that lowers gets the full grammar-level lint — including
    /// the circularity lints `L010`–`L012` — even when it is not
    /// evaluable (which is exactly when the witnesses matter most).
    pub fn lint_olga_recorded(&self, source: &str, obs: &mut Obs) -> fnc2_lint::LintReport {
        use fnc2_lint::{Code, Diagnostic, LintReport, Span};

        let grammar = match olga_front_end_recorded(source, obs) {
            Ok(grammar) => grammar,
            Err(e) => {
                let diags = match e {
                    PipelineError::Olga(fnc2_olga::OlgaError::Parse(pe)) => {
                        vec![Diagnostic::new(
                            Code::FrontSyntax,
                            Span::at(pe.pos.line, pe.pos.col, "olga source"),
                            pe.message,
                        )]
                    }
                    PipelineError::Olga(fnc2_olga::OlgaError::Check(ce)) => {
                        vec![Diagnostic::new(
                            Code::FrontCheck,
                            Span::at(ce.pos.line, ce.pos.col, "olga source"),
                            ce.message,
                        )]
                    }
                    PipelineError::Olga(fnc2_olga::OlgaError::Lower(le)) => {
                        let gerrs = le.grammar_errors();
                        if gerrs.is_empty() {
                            vec![Diagnostic::new(
                                Code::FrontCheck,
                                Span::anchor("lowering"),
                                le.to_string(),
                            )]
                        } else {
                            gerrs
                                .iter()
                                .map(|ge| {
                                    Diagnostic::new(
                                        Code::WellFormedness,
                                        Span::anchor("lowered grammar"),
                                        ge.to_string(),
                                    )
                                })
                                .collect()
                        }
                    }
                    other => vec![Diagnostic::new(
                        Code::FrontCheck,
                        Span::anchor("front end"),
                        other.to_string(),
                    )],
                };
                let report = LintReport::new(diags);
                fnc2_lint::record_report(&report, obs);
                return report;
            }
        };
        // Classification feeds the circularity lints; a transform failure
        // (impossible for SNC grammars) just drops them.
        obs.tracer.begin("phase", "analysis");
        let class = classify_recorded(&grammar, self.max_oag_k, self.inclusion, obs).ok();
        obs.tracer.end();
        obs.tracer.begin("phase", "lint");
        let report = fnc2_lint::lint_grammar_recorded(&grammar, class.as_ref(), obs);
        obs.tracer.end();
        report
    }
}

/// Runs the OLGA front end alone (parse, check, lower) inside its phase
/// spans and returns the lowered grammar. This is the cheap, linear part
/// of the pipeline — the artifact loader re-runs it to rebuild semantic
/// closures while the cascade results are deserialized.
pub(crate) fn olga_front_end_recorded(
    source: &str,
    obs: &mut Obs,
) -> Result<Grammar, PipelineError> {
    obs.tracer.begin("phase", "olga.parse");
    let parsed = fnc2_olga::parse_units(source);
    obs.tracer.end();
    let units = parsed.map_err(|e| PipelineError::Olga(e.into()))?;

    obs.tracer.begin("phase", "olga.check");
    let checked = fnc2_olga::check_units(units);
    obs.tracer.end();
    let checked = checked.map_err(PipelineError::Olga)?;

    obs.tracer.begin("phase", "olga.lower");
    let lowered = fnc2_olga::lower(checked);
    obs.tracer.end();
    let (grammar, _, _) = lowered.map_err(|e| PipelineError::Olga(e.into()))?;
    Ok(grammar)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipeline_on_builder_grammar() {
        let g = fnc2_corpus::binary();
        let compiled = Pipeline::new().compile(g).unwrap();
        assert_eq!(compiled.report.class, AgClass::Oag0);
        assert!(compiled.report.space.is_some());
        let tree = fnc2_corpus::binary_tree(&compiled.grammar, "1101");
        let (vals, _) = compiled.evaluate(&tree, &Default::default()).unwrap();
        let number = compiled.grammar.phylum_by_name("Number").unwrap();
        let value = compiled.grammar.attr_by_name(number, "value").unwrap();
        assert_eq!(
            vals.get(&compiled.grammar, tree.root(), value),
            Some(&fnc2_ag::Value::Real(13.0))
        );
        // Optimized evaluator agrees on the root output.
        let (opt, _) = compiled
            .evaluate_optimized(&tree, &Default::default())
            .unwrap();
        assert_eq!(
            opt.get(&compiled.grammar, tree.root(), value),
            Some(&fnc2_ag::Value::Real(13.0))
        );
    }

    #[test]
    fn pipeline_reports_circularity_with_trace() {
        let g = fnc2_corpus::circular();
        match Pipeline::new().compile(g) {
            Err(PipelineError::NotSnc(trace)) => {
                assert!(trace.contains("circular dependency"), "{trace}");
            }
            other => panic!("expected NotSnc, got {other:?}"),
        }
    }

    #[test]
    fn report_renders() {
        let compiled = Pipeline::new().compile(fnc2_corpus::desk()).unwrap();
        let text = compiled.report.to_string();
        assert!(text.contains("class OAG(0)"), "{text}");
        assert!(text.contains("storage:"), "{text}");
    }
}
