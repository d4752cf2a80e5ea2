//! Useless-symbol analysis: unreachable productions (`L003`) and
//! underivable phyla (`L004`).
//!
//! Classic grammar hygiene, transposed to the abstract AG: a phylum is
//! *derivable* when it has a least derivation height, the bottom-up grammar
//! flow that the pipeline's smoke-tree builder reads too, and a phylum is
//! *reachable* when the root derives it. A production is useless when its
//! LHS is unreachable or any RHS phylum is underivable: no derivation tree
//! can ever contain it, so the evaluators can never visit it.

use fnc2_ag::{Grammar, PhylumId, ProductionId};
use fnc2_analysis::bottom_up_dependents;
use fnc2_gfa::fixpoint;
use fnc2_obs::NoopRecorder;

use crate::diag::{Code, Diagnostic, Span};

/// Reachability/derivability facts; the pipeline's smoke-tree builder
/// reads the heights.
#[derive(Clone, Debug)]
pub struct Usefulness {
    /// `height[ph]` — the least height of a finite tree the phylum derives
    /// (a leaf has height 1), or `None` when it derives none.
    pub height: Vec<Option<usize>>,
    /// `reachable[ph]` — the root derives the phylum.
    pub reachable: Vec<bool>,
}

impl Usefulness {
    /// Computes the least derivation heights and reachability of `grammar`.
    pub fn compute(grammar: &Grammar) -> Usefulness {
        let mut useful = Usefulness {
            height: vec![None; grammar.phylum_count()],
            reachable: vec![false; grammar.phylum_count()],
        };
        fixpoint(
            grammar.production_count(),
            &bottom_up_dependents(grammar),
            |p| {
                let p = ProductionId::from_raw(p as u32);
                let h = useful.production_height(grammar, p);
                let lhs = &mut useful.height[grammar.production(p).lhs().index()];
                let lower = h.is_some_and(|h| lhs.is_none_or(|old| h < old));
                if lower {
                    *lhs = h;
                }
                lower
            },
            &mut NoopRecorder,
        );

        let reachable = &mut useful.reachable;
        let mut work = vec![grammar.root()];
        reachable[grammar.root().index()] = true;
        while let Some(ph) = work.pop() {
            for &p in grammar.phylum(ph).productions() {
                for &child in grammar.production(p).rhs() {
                    if !reachable[child.index()] {
                        reachable[child.index()] = true;
                        work.push(child);
                    }
                }
            }
        }
        useful
    }

    /// The least height of a tree rooted at production `p`: one more than
    /// its tallest RHS phylum's height, or `None` when some RHS phylum
    /// derives no finite tree.
    pub fn production_height(&self, grammar: &Grammar, p: ProductionId) -> Option<usize> {
        let mut h = 0;
        for ph in grammar.production(p).rhs() {
            h = h.max(self.height[ph.index()]?);
        }
        Some(h + 1)
    }

    /// True when the production can appear in a derivation tree.
    pub fn production_useful(&self, grammar: &Grammar, p: ProductionId) -> bool {
        self.reachable[grammar.production(p).lhs().index()]
            && self.production_height(grammar, p).is_some()
    }

    /// Phyla that derive no finite tree, in id order.
    pub fn underivable(&self, grammar: &Grammar) -> Vec<PhylumId> {
        let underivable = |ph: &PhylumId| self.height[ph.index()].is_none();
        grammar.phyla().filter(underivable).collect()
    }
}

/// Runs the usefulness lints, appending `L003`/`L004` diagnostics.
pub fn lint_usefulness(grammar: &Grammar, useful: &Usefulness, diags: &mut Vec<Diagnostic>) {
    for ph in useful.underivable(grammar) {
        let name = grammar.phylum(ph).name();
        diags.push(
            Diagnostic::new(
                Code::UnderivablePhylum,
                Span::anchor(name),
                format!("phylum `{name}` derives no finite tree"),
            )
            .with_note("every production of this phylum mentions an underivable phylum"),
        );
    }
    for p in grammar.productions() {
        if useful.production_useful(grammar, p) {
            continue;
        }
        let prod = grammar.production(p);
        let name = prod.name();
        let reason = if !useful.reachable[prod.lhs().index()] {
            format!(
                "its left-hand side `{}` is unreachable from the root `{}`",
                grammar.phylum(prod.lhs()).name(),
                grammar.phylum(grammar.root()).name()
            )
        } else {
            "a right-hand-side phylum derives no finite tree".to_string()
        };
        diags.push(
            Diagnostic::new(
                Code::UnreachableProduction,
                Span::anchor(format!("production {name}")),
                format!("production `{name}` can appear in no derivation tree"),
            )
            .with_note(reason),
        );
    }
}

#[cfg(test)]
mod tests {
    use fnc2_ag::{GrammarBuilder, Occ, Value};

    use super::*;

    #[test]
    fn orphan_phylum_and_bottomless_recursion_are_flagged() {
        let mut g = GrammarBuilder::new("useless");
        let s = g.phylum("S");
        let orphan = g.phylum("Orphan"); // never on any RHS reachable from S
        let pit = g.phylum("Pit"); // only derives itself
        let v = g.syn(s, "v");
        let ov = g.syn(orphan, "v");
        let pv = g.syn(pit, "v");
        let leaf = g.production("leaf", s, &[]);
        g.constant(leaf, Occ::lhs(v), Value::Int(1));
        let oleaf = g.production("oleaf", orphan, &[]);
        g.constant(oleaf, Occ::lhs(ov), Value::Int(2));
        let spin = g.production("spin", pit, &[pit]);
        g.copy(spin, Occ::lhs(pv), Occ::new(1, pv));
        let grammar = g.finish().unwrap();

        let useful = Usefulness::compute(&grammar);
        assert_eq!(useful.height[s.index()], Some(1));
        assert!(useful.height[orphan.index()].is_some());
        assert_eq!(useful.height[pit.index()], None);
        assert!(useful.reachable[s.index()]);
        assert!(!useful.reachable[orphan.index()]);

        let mut diags = Vec::new();
        lint_usefulness(&grammar, &useful, &mut diags);
        assert!(diags
            .iter()
            .any(|d| d.code == Code::UnderivablePhylum && d.message.contains("`Pit`")));
        assert!(diags
            .iter()
            .any(|d| d.code == Code::UnreachableProduction && d.message.contains("`oleaf`")));
        assert!(diags
            .iter()
            .any(|d| d.code == Code::UnreachableProduction && d.message.contains("`spin`")));
    }

    #[test]
    fn clean_grammar_has_no_usefulness_findings() {
        let mut g = GrammarBuilder::new("clean");
        let s = g.phylum("S");
        let v = g.syn(s, "v");
        let leaf = g.production("leaf", s, &[]);
        g.constant(leaf, Occ::lhs(v), Value::Int(0));
        let node = g.production("node", s, &[s]);
        g.copy(node, Occ::lhs(v), Occ::new(1, v));
        let grammar = g.finish().unwrap();
        let useful = Usefulness::compute(&grammar);
        let mut diags = Vec::new();
        lint_usefulness(&grammar, &useful, &mut diags);
        assert!(diags.is_empty(), "{diags:?}");
    }
}
