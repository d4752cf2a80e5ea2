//! Circularity diagnostics (`L010`/`L011`/`L012`) and the witness
//! verifier.
//!
//! When a class test of the cascade fails, the analysis crate extracts a
//! [`CircWitness`] — a concrete cycle of attribute occurrences inside one
//! production's pasted dependency graph. This module renders witnesses as
//! diagnostics (one note per cycle edge, `explain`-style) and — the
//! soundness half — *re-verifies* them: every edge of a reported cycle
//! must be justified by a semantic rule of the production or by an
//! induced relation (`IO` below, `OI` above, `DS` for the ordered test)
//! the failed test actually computed. A witness that verifies is not a
//! fixpoint artifact; for grammars that are truly circular the dynamic
//! evaluator reproduces the cycle at run time (the fuzz oracle checks
//! this).

use fnc2_ag::{Grammar, ONode};
use fnc2_analysis::{explain, CircWitness, Classification};

use crate::diag::{Code, Diagnostic, Span};

/// How one edge of a verified witness cycle is justified.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EdgeJustification {
    /// A semantic rule of the production defines the edge head from the
    /// edge tail.
    Rule,
    /// The edge is an induced (`IO`/`OI`/`DS`) pair at one occurrence
    /// position.
    Induced,
    /// An ordered-test edge contributed by the candidate total order of
    /// the phylum (only admissible for `L012` witnesses — the failing
    /// order is not recoverable after the test rejects it).
    Order,
}

/// Which failed test produced a witness, selecting the admissible
/// induced relations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WitnessKind {
    /// SNC failure: `D(p)` ∪ pasted `IO` on RHS positions.
    Snc,
    /// DNC failure: additionally `OI` pasted on the LHS.
    Dnc,
    /// OAG failure: `DS` pasted on every position, plus order edges.
    Oag,
}

/// Checks that `witness` is a well-formed, fully justified cycle.
///
/// Returns one justification per cycle edge, or a description of the
/// first unjustifiable edge. A one-node witness is the ordered test's
/// degenerate fallback (the `DS` cycle shows in no single production's
/// pasted graph); it is accepted for [`WitnessKind::Oag`] only.
pub fn verify_witness(
    grammar: &Grammar,
    class: &Classification,
    kind: WitnessKind,
    witness: &CircWitness,
) -> Result<Vec<EdgeJustification>, String> {
    let p = witness.production;
    if p.index() >= grammar.production_count() {
        return Err(format!("witness names unknown production {p}"));
    }
    if witness.cycle.len() == 1 {
        return if kind == WitnessKind::Oag {
            Ok(Vec::new())
        } else {
            Err("one-node witness outside the ordered test".to_string())
        };
    }
    if witness.cycle.len() < 3 {
        return Err(format!(
            "cycle of {} node(s) cannot close",
            witness.cycle.len()
        ));
    }
    if witness.cycle.first() != witness.cycle.last() {
        return Err("cycle does not return to its first node".to_string());
    }
    let prod = grammar.production(p);
    let mut justs = Vec::with_capacity(witness.cycle.len() - 1);
    for pair in witness.cycle.windows(2) {
        let (from, to) = (pair[0], pair[1]);
        // A semantic rule of p justifies any edge shape.
        if let Some(rule) = grammar.rule_for(p, to) {
            if rule.read_nodes().any(|n| n == from) {
                justs.push(EdgeJustification::Rule);
                continue;
            }
        }
        // Induced edges relate two attributes at the same position.
        let (ONode::Attr(fo), ONode::Attr(t)) = (from, to) else {
            return Err(format!(
                "no rule justifies edge {} -> {}",
                grammar.occ_name(p, from),
                grammar.occ_name(p, to)
            ));
        };
        if fo.pos != t.pos || fo.pos as usize > prod.arity() {
            return Err(format!(
                "edge {} -> {} crosses positions without a rule",
                grammar.occ_name(p, from),
                grammar.occ_name(p, to)
            ));
        }
        let ph = prod.phylum_at(fo.pos);
        let (fl, tl) = (
            grammar.attr(fo.attr).offset(),
            grammar.attr(t.attr).offset(),
        );
        let induced = match kind {
            WitnessKind::Snc => fo.pos > 0 && class.snc.io.get(ph).get(fl, tl),
            WitnessKind::Dnc => {
                if fo.pos > 0 {
                    class.snc.io.get(ph).get(fl, tl)
                } else {
                    class.dnc.as_ref().is_some_and(|d| d.oi.get(ph).get(fl, tl))
                }
            }
            WitnessKind::Oag => class.oag.as_ref().is_some_and(|o| o.ds.get(ph).get(fl, tl)),
        };
        if induced {
            justs.push(EdgeJustification::Induced);
        } else if kind == WitnessKind::Oag {
            // The candidate order related every attribute pair of the
            // phylum; the rejected order itself is gone, so same-position
            // edges are admissible as order edges.
            justs.push(EdgeJustification::Order);
        } else {
            return Err(format!(
                "edge {} -> {} is neither a rule nor an induced {} pair",
                grammar.occ_name(p, from),
                grammar.occ_name(p, to),
                match kind {
                    WitnessKind::Snc => "IO",
                    WitnessKind::Dnc => "IO/OI",
                    WitnessKind::Oag => "DS",
                }
            ));
        }
    }
    Ok(justs)
}

/// Pushes a witness diagnostic: headline from the failed class, notes
/// from the rendered explanation (one per line), plus the verifier's
/// verdict.
fn witness_diag(
    grammar: &Grammar,
    class: &Classification,
    kind: WitnessKind,
    witness: &CircWitness,
    code: Code,
    message: String,
) -> Diagnostic {
    let prod = grammar.production(witness.production);
    let mut d = Diagnostic::new(
        code,
        Span::anchor(format!("production {}", prod.name())),
        message,
    );
    for line in explain(grammar, witness).lines() {
        d = d.with_note(line.trim_start());
    }
    match verify_witness(grammar, class, kind, witness) {
        Ok(justs) if !justs.is_empty() => {
            d = d.with_note(format!(
                "witness verified: {} edge(s), {} from semantic rules",
                justs.len(),
                justs
                    .iter()
                    .filter(|j| **j == EdgeJustification::Rule)
                    .count()
            ));
        }
        Ok(_) => {
            d = d.with_note(
                "witness is the ordered test's degenerate phylum-level fallback".to_string(),
            );
        }
        Err(e) => {
            d = d.with_note(format!("witness FAILED verification: {e}"));
        }
    }
    d
}

/// Runs the circularity lints over a classification, appending
/// `L010`/`L011`/`L012` diagnostics.
pub fn lint_circularity(grammar: &Grammar, class: &Classification, diags: &mut Vec<Diagnostic>) {
    if let Some(w) = &class.snc.witness {
        diags.push(witness_diag(
            grammar,
            class,
            WitnessKind::Snc,
            w,
            Code::NotSnc,
            "grammar is not strongly non-circular; no evaluator can be generated".to_string(),
        ));
        return; // the cascade stopped here; nothing further was computed
    }
    if let Some(w) = class.dnc.as_ref().and_then(|d| d.witness.as_ref()) {
        diags.push(
            witness_diag(
                grammar,
                class,
                WitnessKind::Dnc,
                w,
                Code::NotDnc,
                "grammar is SNC but not doubly non-circular".to_string(),
            )
            .with_note("start-anywhere and incremental evaluation are unavailable"),
        );
    }
    if let Some(o) = &class.oag {
        if let Some(w) = &o.witness {
            diags.push(
                witness_diag(
                    grammar,
                    class,
                    WitnessKind::Oag,
                    w,
                    Code::NotOag,
                    format!(
                        "grammar is not ordered after {} repair step(s); \
                         falling back to the SNC transformation",
                        o.repairs_used
                    ),
                )
                .with_note(format!(
                    "evaluation proceeds via the {} plan set",
                    class.class
                )),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use fnc2_ag::{GrammarBuilder, Occ, Value};
    use fnc2_analysis::{classify, AgClass, Inclusion};

    use super::*;

    /// The classic circular AG: A.i := A.s with A.s := A.i below.
    fn circular() -> fnc2_ag::Grammar {
        let mut g = GrammarBuilder::new("circ");
        let s = g.phylum("S");
        let a = g.phylum("A");
        let out = g.syn(s, "out");
        let i = g.inh(a, "i");
        let sy = g.syn(a, "s");
        let root = g.production("root", s, &[a]);
        g.copy(root, Occ::lhs(out), Occ::new(1, sy));
        g.copy(root, Occ::new(1, i), Occ::new(1, sy));
        let leaf = g.production("leaf", a, &[]);
        g.copy(leaf, Occ::lhs(sy), Occ::lhs(i));
        g.finish().unwrap()
    }

    #[test]
    fn not_snc_yields_verified_witness_diag() {
        let g = circular();
        let class = classify(&g, 1, Inclusion::Long).unwrap();
        assert_eq!(class.class, AgClass::NotSnc);
        let w = class.snc.witness.as_ref().unwrap();
        let justs = verify_witness(&g, &class, WitnessKind::Snc, w).unwrap();
        assert_eq!(justs.len(), w.cycle.len() - 1);
        assert!(justs.contains(&EdgeJustification::Rule));

        let mut diags = Vec::new();
        lint_circularity(&g, &class, &mut diags);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, Code::NotSnc);
        assert!(diags[0]
            .notes
            .iter()
            .any(|n| n.contains("circular dependency in production `root`")));
        assert!(diags[0]
            .notes
            .iter()
            .any(|n| n.contains("witness verified")));
    }

    #[test]
    fn fabricated_witnesses_are_rejected() {
        let g = circular();
        let class = classify(&g, 1, Inclusion::Long).unwrap();
        let real = class.snc.witness.clone().unwrap();

        // Not closed.
        let mut open = real.clone();
        open.cycle.pop();
        open.cycle.push(ONode::Attr(Occ::lhs(
            g.attr_by_name(g.phylum_by_name("S").unwrap(), "out")
                .unwrap(),
        )));
        assert!(verify_witness(&g, &class, WitnessKind::Snc, &open).is_err());

        // Reversed edges are unjustified (dependencies are directed).
        let mut rev = real.clone();
        rev.cycle.reverse();
        // A symmetric 2-cycle would survive reversal; the real witness here
        // is not symmetric, so reversal must break at least one edge.
        if rev.cycle != real.cycle {
            assert!(verify_witness(&g, &class, WitnessKind::Snc, &rev).is_err());
        }

        // One-node degenerate form is Oag-only.
        let deg = CircWitness {
            production: real.production,
            cycle: vec![real.cycle[0]],
        };
        assert!(verify_witness(&g, &class, WitnessKind::Snc, &deg).is_err());
        assert!(verify_witness(&g, &class, WitnessKind::Oag, &deg).is_ok());
    }

    #[test]
    fn evaluable_grammar_has_no_circ_diags() {
        let mut g = GrammarBuilder::new("ok");
        let s = g.phylum("S");
        let n = g.syn(s, "n");
        let leaf = g.production("leaf", s, &[]);
        g.constant(leaf, Occ::lhs(n), Value::Int(0));
        let g = g.finish().unwrap();
        let class = classify(&g, 1, Inclusion::Long).unwrap();
        let mut diags = Vec::new();
        lint_circularity(&g, &class, &mut diags);
        assert!(diags.is_empty(), "{diags:?}");
    }
}
