//! The differential oracle: one case through all four evaluators plus the
//! space plan's symbolic re-validation, with first-divergence reporting
//! and deterministic parameter shrinking.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};

use fnc2_ag::{AttrId, Grammar, NodeId, Tree};
use fnc2_analysis::{classify, Inclusion};
use fnc2_corpus::rng::Rng;
use fnc2_guard::EvalBudget;
use fnc2_incremental::{Equality, IncrementalEvaluator};
use fnc2_obs::{Event, Obs, Recorder};
use fnc2_par::{batch_evaluate_guarded, TreeOutcome};
use fnc2_space::{analyze_space, plan_evaluator, validate_plan};
use fnc2_tables::{Tables, TablesConfig};
use fnc2_visit::{build_visit_seqs, dependency_slice, DynamicEvaluator, Evaluator, RootInputs};

use crate::gen::{
    build_grammar_pair, build_subtree, build_tree, render_tree, CaseParams, GenGrammar,
};

/// A divergence between two pipeline stages on one case.
#[derive(Clone, Debug)]
pub struct Divergence {
    /// The case that produced it.
    pub params: CaseParams,
    /// Which comparison failed (`exhaustive-vs-dynamic`, `space-plan`, …).
    pub stage: &'static str,
    /// What differed, with node/attribute names.
    pub detail: String,
}

/// Size counters of one passing case.
#[derive(Clone, Copy, Debug, Default)]
pub struct CaseStats {
    /// Nodes in the generated tree.
    pub nodes: usize,
    /// Edits applied to the incremental evaluator.
    pub edits: usize,
}

/// Runs one case through the whole cascade. Panics anywhere inside the
/// pipeline are caught and reported as divergences (the oracle's
/// no-panic guarantee is part of what it checks).
pub fn run_case(params: &CaseParams) -> Result<CaseStats, Divergence> {
    let p = *params;
    match catch_unwind(AssertUnwindSafe(move || run_case_inner(&p))) {
        Ok(r) => r,
        Err(payload) => Err(Divergence {
            params: *params,
            stage: "panic",
            detail: panic_message(&payload),
        }),
    }
}

/// Best-effort extraction of a panic payload's message.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

fn run_case_inner(params: &CaseParams) -> Result<CaseStats, Divergence> {
    let div = |stage: &'static str, detail: String| Divergence {
        params: *params,
        stage,
        detail,
    };

    let (gg, mutant) = build_grammar_pair(params);
    let g = &gg.grammar;

    // ---- Cascade: the generator promises SNC, the cascade must agree. --
    let cls = classify(g, 2, Inclusion::Long)
        .map_err(|e| div("classify", format!("transformation failed: {e}")))?;
    let Some(lo) = cls.l_ordered.as_ref() else {
        return Err(div(
            "classify",
            "generated grammar rejected as non-SNC".to_string(),
        ));
    };
    let seqs = build_visit_seqs(g, lo);
    let tree = build_tree(&gg, params);
    let inputs = RootInputs::new();

    // ---- Exhaustive visit-sequence evaluator (the reference). ----------
    let ev = Evaluator::new(g, &seqs);
    let (reference, ref_stats) = ev
        .evaluate(&tree, &inputs)
        .map_err(|e| div("exhaustive", format!("reference evaluation failed: {e}")))?;

    // ---- Work-stealing batch driver: bit-identical to sequential. ------
    let batch_trees = vec![tree.clone(), tree.clone(), tree.clone()];
    let budget = EvalBudget::default();
    let batch = batch_evaluate_guarded(&ev, &batch_trees, &inputs, 4, &budget, 0, None);
    for (i, o) in batch.outcomes.iter().enumerate() {
        let TreeOutcome::Ok(vals, stats) = o else {
            return Err(div("batch", format!("batch tree {i} {}", o.label())));
        };
        if *stats != ref_stats {
            return Err(div(
                "exhaustive-vs-batch",
                format!("batch tree {i}: stats {stats:?} != sequential {ref_stats:?}"),
            ));
        }
        for (n, _) in tree.preorder() {
            let ph = tree.phylum(g, n);
            for &attr in g.phylum(ph).attrs() {
                if vals.get(g, n, attr) != reference.get(g, n, attr) {
                    return Err(div(
                        "exhaustive-vs-batch",
                        format!(
                            "batch tree {i}: node {n:?} attr {}: batch {:?}, sequential {:?}",
                            g.attr(attr).name(),
                            vals.get(g, n, attr),
                            reference.get(g, n, attr)
                        ),
                    ));
                }
            }
        }
    }

    // ---- Demand-driven dynamic evaluator (gets the mutant, if any). ----
    let dyn_grammar: &Grammar = mutant.as_ref().unwrap_or(g);
    let (demand, _) = DynamicEvaluator::new(dyn_grammar)
        .evaluate(&tree, &inputs)
        .map_err(|e| div("dynamic", format!("dynamic evaluation failed: {e}")))?;
    for (n, _) in tree.preorder() {
        let ph = tree.phylum(g, n);
        for &attr in g.phylum(ph).attrs() {
            let a = reference.get(g, n, attr);
            let b = demand.get(g, n, attr);
            if a != b {
                return Err(div(
                    "exhaustive-vs-dynamic",
                    format!(
                        "node {n:?} ({}) attr {}: exhaustive {a:?}, dynamic {b:?}{}",
                        g.production(tree.node(n).production()).name(),
                        g.attr(attr).name(),
                        divergence_slice(g, &ev, &tree, &inputs, n, attr)
                    ),
                ));
            }
        }
    }

    // ---- Space plan: symbolic re-validation, then the real plan against
    // the trivial one (`reference`) through the same interpreter. --------
    let (fp, objects, lt, plan) = analyze_space(g, &seqs);
    validate_plan(g, &seqs, &fp, &objects, &lt, &plan)
        .map_err(|e| div("space-plan", format!("plan failed re-validation: {e}")))?;
    let (sp, _) = plan_evaluator(g, &seqs, &fp, &plan)
        .evaluate(&tree, &inputs)
        .map_err(|e| div("space", format!("space evaluation failed: {e}")))?;
    for (n, _) in tree.preorder() {
        let ph = tree.phylum(g, n);
        for &attr in g.phylum(ph).attrs() {
            if let Some(v) = sp.get(g, n, attr) {
                if reference.get(g, n, attr) != Some(v) {
                    return Err(div(
                        "exhaustive-vs-space",
                        format!(
                            "node {n:?} attr {}: exhaustive {:?}, space {v:?}",
                            g.attr(attr).name(),
                            reference.get(g, n, attr)
                        ),
                    ));
                }
            }
        }
    }
    // Root attributes are forced to node storage, so the output must be
    // present, not merely equal-when-present.
    for &attr in g.phylum(g.root()).attrs() {
        if reference.get(g, tree.root(), attr).is_some() && sp.get(g, tree.root(), attr).is_none() {
            return Err(div(
                "exhaustive-vs-space",
                format!(
                    "root attr {} missing from space node storage",
                    g.attr(attr).name()
                ),
            ));
        }
    }

    // ---- Tables artifact: serialize, decode, verify, re-evaluate. ------
    // The round trip must be bit-canonical, and evaluators driven by the
    // *deserialized* tables must be bit-identical to the fresh ones.
    {
        let config = TablesConfig {
            max_oag_k: 2,
            inclusion: Inclusion::Long,
        };
        let tables = Tables::build(
            g,
            config,
            None,
            cls.class,
            &lo.stats,
            &seqs,
            &lt,
            &plan,
            &fnc2_lint::lint_grammar(g, Some(&cls)).diags,
        );
        let bytes = tables.to_bytes();
        let (loaded, loaded_fp) = Tables::from_bytes(&bytes)
            .map_err(|e| div("tables-roundtrip", format!("artifact decode failed: {e}")))?;
        if loaded_fp != tables.fingerprint() {
            return Err(div(
                "tables-roundtrip",
                format!(
                    "fingerprint drift: decoded {loaded_fp:016x} != fresh {:016x}",
                    tables.fingerprint()
                ),
            ));
        }
        let dfp = loaded
            .verify_against(g)
            .map_err(|e| div("tables-roundtrip", format!("verification failed: {e}")))?;
        let reencoded = loaded.to_bytes();
        if reencoded != bytes {
            return Err(div(
                "tables-roundtrip",
                format!(
                    "re-encoding is not canonical: {} bytes vs {} bytes",
                    reencoded.len(),
                    bytes.len()
                ),
            ));
        }
        let (vals, stats) = Evaluator::new(g, &loaded.seqs)
            .evaluate(&tree, &inputs)
            .map_err(|e| {
                div(
                    "tables-roundtrip",
                    format!("evaluation over decoded visit sequences failed: {e}"),
                )
            })?;
        if stats != ref_stats {
            return Err(div(
                "tables-vs-exhaustive",
                format!("decoded-seqs stats {stats:?} != reference {ref_stats:?}"),
            ));
        }
        for (n, _) in tree.preorder() {
            let ph = tree.phylum(g, n);
            for &attr in g.phylum(ph).attrs() {
                if vals.get(g, n, attr) != reference.get(g, n, attr) {
                    return Err(div(
                        "tables-vs-exhaustive",
                        format!(
                            "node {n:?} attr {}: decoded tables {:?}, reference {:?}",
                            g.attr(attr).name(),
                            vals.get(g, n, attr),
                            reference.get(g, n, attr)
                        ),
                    ));
                }
            }
        }
        let (sp2, _) = plan_evaluator(g, &loaded.seqs, &dfp, &loaded.space_plan)
            .evaluate(&tree, &inputs)
            .map_err(|e| {
                div(
                    "tables-roundtrip",
                    format!("space evaluation over decoded tables failed: {e}"),
                )
            })?;
        for (n, _) in tree.preorder() {
            let ph = tree.phylum(g, n);
            for &attr in g.phylum(ph).attrs() {
                if sp2.get(g, n, attr) != sp.get(g, n, attr) {
                    return Err(div(
                        "tables-vs-space",
                        format!(
                            "node {n:?} attr {}: decoded tables {:?}, fresh {:?}",
                            g.attr(attr).name(),
                            sp2.get(g, n, attr),
                            sp.get(g, n, attr)
                        ),
                    ));
                }
            }
        }
    }

    // ---- Incremental evaluator under random edit scripts. --------------
    // Every wave fires each instance at most once, and after every edit,
    // every instance must match a from-scratch re-evaluation of the edited
    // tree.
    let mut inc = IncrementalEvaluator::new(g, tree.clone(), Equality::default())
        .map_err(|e| div("incremental", format!("initial evaluation failed: {e}")))?;
    let mut rng = Rng::seed_from_u64(params.seed ^ 0x0ed1_7000);
    for edit in 0..params.edits {
        let (at, sub) = match pick_edit(&gg, &mut rng, inc.tree()) {
            Some(e) => e,
            None => break,
        };
        let mut fired = Firings::default();
        let stats = inc
            .replace_subtrees_recorded(vec![(at, sub)], &mut fired)
            .map_err(|e| div("incremental", format!("edit {edit} failed: {e}")))?;
        let events = fired.0.values().sum::<usize>();
        if let Some((&(node, rule), &k)) = fired.0.iter().filter(|&(_, &k)| k > 1).min() {
            return Err(div(
                "incremental-at-most-once",
                format!("edit {edit}: rule {rule} at node n{node} fired {k} times"),
            ));
        }
        if events != stats.reevaluated {
            return Err(div(
                "incremental-at-most-once",
                format!(
                    "edit {edit}: {events} firings, but the wave counts {} reevaluated",
                    stats.reevaluated
                ),
            ));
        }
        let (want, _) = DynamicEvaluator::new(g)
            .evaluate(inc.tree(), &inputs)
            .map_err(|e| div("incremental", format!("re-evaluation failed: {e}")))?;
        for (n, _) in inc.tree().preorder() {
            let ph = inc.tree().phylum(g, n);
            for &attr in g.phylum(ph).attrs() {
                if inc.value(n, attr) != want.get(g, n, attr) {
                    return Err(div(
                        "incremental-vs-scratch",
                        format!(
                            "after edit {edit}: node {n:?} attr {}: incremental {:?}, scratch {:?}{}",
                            g.attr(attr).name(),
                            inc.value(n, attr),
                            want.get(g, n, attr),
                            divergence_slice(g, &ev, inc.tree(), &inputs, n, attr)
                        ),
                    ));
                }
            }
        }
    }

    Ok(CaseStats {
        nodes: tree.size(),
        edits: params.edits,
    })
}

/// Counts a wave's `RuleFired` events per `(node, rule)`.
#[derive(Default)]
struct Firings(HashMap<(u32, u32), usize>);

impl Recorder for Firings {
    fn trace(&self) -> bool {
        true
    }

    fn emit(&mut self, event: Event) {
        if let Event::RuleFired { node, rule, .. } = event {
            *self.0.entry((node, rule)).or_default() += 1;
        }
    }
}

/// Re-runs the exhaustive evaluator over `tree` with the event trace on
/// and renders the dynamic dependency slice of one instance — turning a
/// raw value mismatch into the chain of firings (and their inputs) that
/// produced the reference value, so a divergence report is actionable.
/// Returns an empty string when the reference run itself fails.
fn divergence_slice(
    g: &Grammar,
    ev: &Evaluator<'_>,
    tree: &Tree,
    inputs: &RootInputs,
    node: NodeId,
    attr: AttrId,
) -> String {
    let mut obs = Obs::with_trace(1 << 16);
    if ev
        .evaluate_with(tree, inputs, &EvalBudget::default(), &mut obs)
        .is_err()
    {
        return String::new();
    }
    let buf = obs.events.as_ref().expect("trace enabled above");
    let slice = dependency_slice(g, tree, buf.iter(), node, attr);
    format!("\nreference {}", slice.render(g, tree))
}

/// Chooses the next edit: a random non-root node and a fresh random
/// subtree of its phylum. Returns `None` if the tree has no editable node.
fn pick_edit(gg: &GenGrammar, rng: &mut Rng, tree: &Tree) -> Option<(fnc2_ag::NodeId, Tree)> {
    let candidates: Vec<fnc2_ag::NodeId> = tree
        .preorder()
        .map(|(n, _)| n)
        .filter(|&n| tree.node(n).parent().is_some())
        .collect();
    if candidates.is_empty() {
        return None;
    }
    let at = candidates[rng.gen_usize(0, candidates.len() - 1)];
    let i = gg.phylum_index(tree.phylum(&gg.grammar, at))?;
    let budget = rng.gen_usize(1, 12);
    Some((at, build_subtree(gg, rng, i, budget)))
}

// ---------------------------------------------------------------------------
// Shrinking
// ---------------------------------------------------------------------------

/// Deterministic parameter shrinking: repeatedly tries the reductions of
/// one parameter each (fewer edits, smaller tree, fewer phyla, fewer
/// passes, narrower productions), keeping any reduction that still
/// diverges, until a fixpoint. Because the generator is a pure function of
/// the params, re-running the oracle *is* re-running the case.
pub fn shrink(d: Divergence) -> Divergence {
    let mut cur = d;
    loop {
        let p = cur.params;
        let candidates = [
            CaseParams {
                edits: p.edits.saturating_sub(1),
                ..p
            },
            CaseParams {
                tree_budget: (p.tree_budget / 2).max(1),
                ..p
            },
            CaseParams {
                tree_budget: p.tree_budget.saturating_sub(1).max(1),
                ..p
            },
            CaseParams {
                phyla: p.phyla.saturating_sub(1).max(1),
                ..p
            },
            CaseParams {
                passes: p.passes.saturating_sub(1).max(1),
                ..p
            },
            CaseParams {
                max_children: p.max_children.saturating_sub(1).max(1),
                ..p
            },
        ];
        let mut improved = false;
        for c in candidates {
            if c == p {
                continue;
            }
            if let Err(smaller) = run_case(&c) {
                cur = smaller;
                improved = true;
                break;
            }
        }
        if !improved {
            return cur;
        }
    }
}

// ---------------------------------------------------------------------------
// Reproducer rendering
// ---------------------------------------------------------------------------

/// Renders a divergence as a self-contained reproducer: the params line
/// (feed it back through [`CaseParams::parse`] to re-run the exact case),
/// the serialized grammar (and mutant, when one was injected), the tree,
/// and the edit script.
pub fn render_reproducer(d: &Divergence) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== fnc2-fuzz reproducer ==");
    let _ = writeln!(out, "params: {}", d.params);
    let _ = writeln!(out, "stage:  {}", d.stage);
    let _ = writeln!(out, "detail: {}", d.detail);
    let (gg, mutant) = build_grammar_pair(&d.params);
    let _ = writeln!(out, "-- grammar --");
    let _ = write!(out, "{}", gg.grammar);
    if let Some(m) = &mutant {
        let _ = writeln!(out, "-- injected mutant grammar --");
        let _ = write!(out, "{m}");
    }
    let tree = build_tree(&gg, &d.params);
    let _ = writeln!(out, "-- tree ({} nodes) --", tree.size());
    let _ = write!(out, "{}", render_tree(&gg.grammar, &tree));
    if d.params.edits > 0 {
        let _ = writeln!(out, "-- edit script --");
        let _ = write!(out, "{}", render_edit_script(&gg, &d.params, tree));
    }
    out
}

/// Replays the case's edit decisions, describing each replacement. The
/// replay needs the evolving tree, so the edits are applied to a plain
/// clone as they are rendered.
fn render_edit_script(gg: &GenGrammar, params: &CaseParams, mut tree: Tree) -> String {
    let g = &gg.grammar;
    let mut out = String::new();
    let mut rng = Rng::seed_from_u64(params.seed ^ 0x0ed1_7000);
    for edit in 0..params.edits {
        let Some((at, sub)) = pick_edit(gg, &mut rng, &tree) else {
            let _ = writeln!(out, "edit {edit}: (no editable node)");
            break;
        };
        let ph = g.phylum(tree.phylum(g, at)).name().to_string();
        let _ = writeln!(
            out,
            "edit {edit}: replace node {at:?} ({ph}) with {} nodes:",
            sub.size()
        );
        for line in render_tree(g, &sub).lines() {
            let _ = writeln!(out, "    {line}");
        }
        if tree.replace_subtree(g, at, &sub).is_err() {
            let _ = writeln!(out, "    (replacement rejected)");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_budget_runs_clean() {
        for case in 0..16 {
            let params = CaseParams::for_case(0xfc2, case);
            if let Err(d) = run_case(&params) {
                panic!(
                    "case {case} diverged: {} — {}\n{}",
                    d.stage,
                    d.detail,
                    render_reproducer(&d)
                );
            }
        }
    }

    #[test]
    fn injected_mutation_is_caught_shrunk_and_reproducible() {
        // Walk injection sites until the oracle catches one (a mutated rule
        // only matters if the tree exercises its production).
        let base = CaseParams {
            seed: 0x5eed_0001,
            phyla: 3,
            passes: 2,
            max_children: 2,
            tree_budget: 32,
            edits: 1,
            inject: 0,
        };
        let mut caught = None;
        for inject in 1..=64 {
            let p = CaseParams { inject, ..base };
            if let Err(d) = run_case(&p) {
                caught = Some(d);
                break;
            }
        }
        let d = caught.expect("some injection site must be caught");
        assert_eq!(d.stage, "exhaustive-vs-dynamic", "{}", d.detail);

        let small = shrink(d.clone());
        assert!(small.params.tree_budget <= d.params.tree_budget);
        assert!(small.params.phyla <= d.params.phyla);

        // The reproducer's params line re-runs to the same failure.
        let repro = render_reproducer(&small);
        assert!(repro.contains("params:"), "{repro}");
        assert!(repro.contains("injected mutant"), "{repro}");
        let line = repro
            .lines()
            .find_map(|l| l.strip_prefix("params: "))
            .expect("reproducer has a params line");
        let parsed = CaseParams::parse(line).expect("params line parses");
        assert_eq!(parsed, small.params);
        assert!(run_case(&parsed).is_err(), "reproducer must still diverge");
    }

    /// Shrunk cases where the stack planner accepted a callee that leaves
    /// its synthesized members on top in evaluation order, while every
    /// caller reads them in canonical order: the space evaluator returned
    /// wrong values (513 instead of 8 at the root of the first).
    #[test]
    fn stack_leave_order_cases_agree() {
        for line in [
            "seed=14598794612339600354 phyla=1 passes=3 max_children=3 tree_budget=1 edits=0 inject=0",
            "seed=15303306990489867254 phyla=4 passes=3 max_children=3 tree_budget=14 edits=0 inject=0",
        ] {
            let params = CaseParams::parse(line).expect("params line parses");
            if let Err(d) = run_case(&params) {
                panic!("{line}: {} — {}", d.stage, d.detail);
            }
        }
    }

    #[test]
    fn edit_scripts_exercise_incremental() {
        // At least one of the first cases must actually apply edits.
        let mut edited = 0;
        for case in 0..8 {
            let params = CaseParams::for_case(0xed17, case);
            let stats = run_case(&params).expect("clean case");
            edited += stats.edits;
        }
        assert!(edited > 0, "no case applied any edit");
    }
}
