//! Backward liveness from root outputs: unused attributes (`L001`) and
//! dead semantic rules (`L002`).
//!
//! The two analyses are deliberately different strengths, matched to the
//! dynamic oracles that validate them:
//!
//! * an attribute is **unused** when *no* semantic rule anywhere reads it
//!   and it is not a root output — such an instance is never fetched by
//!   any evaluator, so the exhaustive evaluator's `AttrRead` trace must
//!   never mention it;
//! * a rule is **dead** when its target cannot reach a root output
//!   through the backward-liveness fixpoint — demand-driven evaluation of
//!   the root outputs only ever demands live instances, so a dead rule
//!   must never fire there.
//!
//! Liveness over-approximates dynamic demand (it ignores which trees are
//! actually built), so both verdicts are sound: flagged entities can
//! never be exercised at run time.

use std::collections::HashSet;

use fnc2_ag::{AttrId, AttrKind, Grammar, LocalId, ONode, ProductionId};
use fnc2_gfa::{dependents, fixpoint};
use fnc2_obs::NoopRecorder;

use crate::diag::{Code, Diagnostic, Span};

/// The liveness fixpoint result, exposed for the fuzz oracle.
#[derive(Clone, Debug)]
pub struct Liveness {
    /// `live[attr]` — the attribute (phylum-level) can reach a root output.
    pub live_attrs: Vec<bool>,
    /// Live production-locals.
    pub live_locals: HashSet<(ProductionId, LocalId)>,
    /// `read[attr]` — some rule reads the attribute.
    pub read_attrs: Vec<bool>,
}

impl Liveness {
    /// Computes the backward-liveness fixpoint of `grammar`, seeded from
    /// the root phylum's synthesized attributes.
    pub fn compute(grammar: &Grammar) -> Liveness {
        let mut live_attrs = vec![false; grammar.attr_count()];
        let mut live_locals: HashSet<(ProductionId, LocalId)> = HashSet::new();
        let mut read_attrs = vec![false; grammar.attr_count()];

        for p in grammar.productions() {
            for rule in grammar.production(p).rules() {
                for n in rule.read_nodes() {
                    if let ONode::Attr(o) = n {
                        read_attrs[o.attr.index()] = true;
                    }
                }
            }
        }

        for a in grammar.synthesized(grammar.root()) {
            live_attrs[a.index()] = true;
        }
        // A backward flow over productions: a production writes the facts
        // its rules read and reads the facts its rules define. Its locals
        // are one fact of its own, which makes it its own dependent.
        let n = grammar.production_count();
        let attrs = grammar.attr_count();
        let fact = move |p: usize, node: ONode| match node {
            ONode::Attr(o) => o.attr.index(),
            ONode::Local(_) => attrs + p,
        };
        let rules = |p: usize| grammar.production(ProductionId::from_raw(p as u32)).rules();
        let deps = dependents(
            n,
            attrs + n,
            |p| {
                rules(p)
                    .iter()
                    .flat_map(|r| r.read_nodes())
                    .map(move |x| fact(p, x))
            },
            |p| rules(p).iter().map(move |r| fact(p, r.target())),
        );
        let step = |p: usize| {
            let p = ProductionId::from_raw(p as u32);
            let mut changed = false;
            for rule in grammar.production(p).rules() {
                let target_live = match rule.target() {
                    ONode::Attr(o) => live_attrs[o.attr.index()],
                    ONode::Local(l) => live_locals.contains(&(p, l)),
                };
                if !target_live {
                    continue;
                }
                for n in rule.read_nodes() {
                    changed |= match n {
                        ONode::Attr(o) => !std::mem::replace(&mut live_attrs[o.attr.index()], true),
                        ONode::Local(l) => live_locals.insert((p, l)),
                    };
                }
            }
            changed
        };
        fixpoint(n, &deps, step, &mut NoopRecorder);
        Liveness {
            live_attrs,
            live_locals,
            read_attrs,
        }
    }

    /// Attributes no rule reads and which are not root outputs — the
    /// `L001` set, as attribute ids.
    pub fn unused_attrs(&self, grammar: &Grammar) -> Vec<AttrId> {
        let root_outputs: HashSet<AttrId> =
            grammar.synthesized(grammar.root()).into_iter().collect();
        (0..grammar.attr_count() as u32)
            .map(AttrId::from_raw)
            .filter(|a| !self.read_attrs[a.index()] && !root_outputs.contains(a))
            .collect()
    }

    /// `(production, rule index)` pairs whose target is not live — the
    /// `L002` set.
    pub fn dead_rules(&self, grammar: &Grammar) -> Vec<(ProductionId, u32)> {
        let mut out = Vec::new();
        for p in grammar.productions() {
            for (i, rule) in grammar.production(p).rules().iter().enumerate() {
                let live = match rule.target() {
                    ONode::Attr(o) => self.live_attrs[o.attr.index()],
                    ONode::Local(l) => self.live_locals.contains(&(p, l)),
                };
                if !live {
                    out.push((p, i as u32));
                }
            }
        }
        out
    }
}

/// Full attribute name `Phylum.attr`.
pub(crate) fn attr_name(grammar: &Grammar, a: AttrId) -> String {
    let info = grammar.attr(a);
    format!("{}.{}", grammar.phylum(info.phylum()).name(), info.name())
}

/// Runs the liveness lints, appending `L001`/`L002` diagnostics.
pub fn lint_liveness(grammar: &Grammar, live: &Liveness, diags: &mut Vec<Diagnostic>) {
    for a in live.unused_attrs(grammar) {
        let name = attr_name(grammar, a);
        let kind = match grammar.attr(a).kind() {
            AttrKind::Synthesized => "synthesized",
            AttrKind::Inherited => "inherited",
        };
        diags.push(
            Diagnostic::new(
                Code::UnusedAttribute,
                Span::anchor(name.clone()),
                format!("attribute `{name}` is never read by any semantic rule"),
            )
            .with_note(format!(
                "declared {kind} of `{}`; no evaluator will ever fetch its value",
                grammar.phylum(grammar.attr(a).phylum()).name()
            )),
        );
    }
    for (p, rule_ix) in live.dead_rules(grammar) {
        let prod = grammar.production(p);
        let target = prod.rules()[rule_ix as usize].target();
        let target_name = grammar.occ_name(p, target);
        diags.push(
            Diagnostic::new(
                Code::DeadRule,
                Span::anchor(format!("production {}, rule {}", prod.name(), rule_ix)),
                format!(
                    "rule defining `{target_name}` in production `{}` cannot contribute \
                     to a root output",
                    prod.name()
                ),
            )
            .with_note(
                "demand-driven evaluation of the root outputs never fires this rule".to_string(),
            ),
        );
    }
}

#[cfg(test)]
mod tests {
    use fnc2_ag::{GrammarBuilder, Occ, Value};

    use super::*;

    /// S.out is the root output; S.junk is read by nobody; A.scratch is
    /// read only by the rule defining S.junk (dead chain).
    fn degraded() -> Grammar {
        let mut g = GrammarBuilder::new("degraded");
        let s = g.phylum("S");
        let a = g.phylum("A");
        let out = g.syn(s, "out");
        let junk = g.syn(s, "junk");
        let scratch = g.syn(a, "scratch");
        let v = g.syn(a, "v");
        let mk = g.production("mk", s, &[a]);
        g.copy(mk, Occ::lhs(out), Occ::new(1, v));
        g.copy(mk, Occ::lhs(junk), Occ::new(1, scratch));
        let leaf = g.production("leaf", a, &[]);
        g.constant(leaf, Occ::lhs(scratch), Value::Int(1));
        g.constant(leaf, Occ::lhs(v), Value::Int(2));
        g.finish().unwrap()
    }

    #[test]
    fn unused_and_dead_are_found() {
        let g = degraded();
        let live = Liveness::compute(&g);
        let unused: Vec<String> = live
            .unused_attrs(&g)
            .into_iter()
            .map(|a| attr_name(&g, a))
            .collect();
        // S.junk is never read (it is a root *output*? no — it IS syn of
        // root, so it is exempt). A.scratch IS read (by the junk rule), so
        // the unused set is empty here.
        assert!(unused.is_empty(), "{unused:?}");
        // But the junk/scratch chain is dead: junk is a root output, so it
        // is live; scratch feeds it, so nothing is dead either.
        assert!(live.dead_rules(&g).is_empty());
    }

    /// A non-output junk attribute: S.w is unused, and the rule defining
    /// it is dead. The root is a *different* phylum so w is not exempt.
    #[test]
    fn non_output_junk_is_unused_and_its_rules_dead() {
        let mut gb = GrammarBuilder::new("junk");
        let r = gb.phylum("R");
        let rout = gb.syn(r, "out");
        let s2 = gb.phylum("S");
        let sout = gb.syn(s2, "v");
        let sw = gb.syn(s2, "w");
        let top = gb.production("top", r, &[s2]);
        gb.copy(top, Occ::lhs(rout), Occ::new(1, sout));
        let leaf2 = gb.production("leaf", s2, &[]);
        gb.constant(leaf2, Occ::lhs(sout), Value::Int(1));
        gb.constant(leaf2, Occ::lhs(sw), Value::Int(2));
        let g2 = gb.finish().unwrap();
        let live = Liveness::compute(&g2);
        let unused = live.unused_attrs(&g2);
        assert_eq!(unused.len(), 1);
        assert_eq!(attr_name(&g2, unused[0]), "S.w");
        let dead = live.dead_rules(&g2);
        assert_eq!(dead.len(), 1, "{dead:?}");
        let (p, _) = dead[0];
        assert_eq!(g2.production(p).name(), "leaf");
    }

    #[test]
    fn diagnostics_name_the_entities() {
        let mut gb = GrammarBuilder::new("t");
        let r = gb.phylum("R");
        let rout = gb.syn(r, "out");
        let s2 = gb.phylum("S");
        let sv = gb.syn(s2, "v");
        let sw = gb.syn(s2, "w");
        let top = gb.production("top", r, &[s2]);
        gb.copy(top, Occ::lhs(rout), Occ::new(1, sv));
        let leaf2 = gb.production("leaf", s2, &[]);
        gb.constant(leaf2, Occ::lhs(sv), Value::Int(1));
        gb.constant(leaf2, Occ::lhs(sw), Value::Int(2));
        let g = gb.finish().unwrap();
        let live = Liveness::compute(&g);
        let mut diags = Vec::new();
        lint_liveness(&g, &live, &mut diags);
        assert_eq!(diags.len(), 2, "{diags:?}");
        assert!(diags
            .iter()
            .any(|d| d.code == Code::UnusedAttribute && d.message.contains("`S.w`")));
        assert!(diags
            .iter()
            .any(|d| d.code == Code::DeadRule && d.message.contains("`leaf`")));
    }
}
