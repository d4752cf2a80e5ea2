//! The AG class ladder and the generator's cascade (paper Figure 3).
//!
//! `classify` reproduces the evaluator generator's front: SNC test first
//! (abort with a trace on failure), then DNC, then OAG(k); if DNC or OAG
//! fails, fall back to the SNC → l-ordered transformation. Cascading is
//! cheap because each test's first phase is the previous test (the IO
//! graphs feed the DNC test, and the DNC information feeds the
//! transformation).

use fnc2_ag::Grammar;
use fnc2_obs::{Key, Obs, Recorder};

use crate::io::{dnc_test_recorded, snc_test_recorded, DncResult, SncResult};
use crate::oag::{oag_test_recorded, OagResult};
use crate::transform::{snc_to_l_ordered, Inclusion, LOrdered, TransformError, TransformStats};

/// The smallest class of the ladder an AG belongs to, as determined by the
/// generator (the "class" row of Table 1).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AgClass {
    /// Ordered with Kastens' test (`OAG(0)`).
    Oag0,
    /// Ordered after `k` repair steps (reported for the tested `k`).
    OagK(usize),
    /// Doubly non-circular but not OAG(k) for the tested `k`.
    Dnc,
    /// Strongly non-circular only.
    Snc,
    /// Not strongly non-circular (possibly plain non-circular or circular).
    NotSnc,
}

impl std::fmt::Display for AgClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AgClass::Oag0 => write!(f, "OAG(0)"),
            AgClass::OagK(k) => write!(f, "OAG({k})"),
            AgClass::Dnc => write!(f, "DNC"),
            AgClass::Snc => write!(f, "SNC"),
            AgClass::NotSnc => write!(f, "not SNC"),
        }
    }
}

/// Everything the generator front-end learned about an AG.
#[derive(Clone, Debug)]
pub struct Classification {
    /// The smallest class found (w.r.t. the tested `max_k`).
    pub class: AgClass,
    /// The SNC test result (always run).
    pub snc: SncResult,
    /// The DNC test result (run when SNC succeeded).
    pub dnc: Option<DncResult>,
    /// The OAG test result (run when DNC succeeded).
    pub oag: Option<OagResult>,
    /// The l-ordered view used for visit-sequence generation: from the OAG
    /// partitions when ordered, otherwise from the transformation.
    pub l_ordered: Option<LOrdered>,
}

impl Classification {
    /// True if visit sequences can be generated (the AG is SNC).
    pub fn is_evaluable(&self) -> bool {
        self.l_ordered.is_some()
    }
}

/// Runs the generator cascade on `grammar`, testing `OAG(k)` for
/// `k = 0 ..= max_k`, and building the l-ordered view with the given
/// inclusion strategy when the transformation is needed.
///
/// # Errors
///
/// Propagates a [`TransformError`] — impossible for grammars that pass the
/// SNC test, hence for every grammar this function transforms.
pub fn classify(
    grammar: &Grammar,
    max_k: usize,
    inclusion: Inclusion,
) -> Result<Classification, TransformError> {
    classify_recorded(grammar, max_k, inclusion, &mut Obs::new())
}

/// Records the partition/plan economy of a transformation run.
fn record_transform<R: Recorder>(stats: &TransformStats, rec: &mut R) {
    let partitions: usize = stats.partitions_per_phylum.iter().sum();
    rec.count(Key::TransformPartitions, partitions as u64);
    rec.count(Key::TransformPlans, stats.plans as u64);
    rec.count(Key::TransformReuses, stats.reuses as u64);
    rec.count(Key::TransformFresh, stats.fresh as u64);
}

/// [`classify`], instrumented: each cascade stage runs inside a nested
/// phase span (`analysis.snc`, `analysis.dnc`, `analysis.oag`,
/// `analysis.transform`), every GFA fixpoint feeds the
/// `gfa.fixpoint.*` counters, and the transformation's partition/plan
/// economy lands in the `transform.*` counters.
pub fn classify_recorded(
    grammar: &Grammar,
    max_k: usize,
    inclusion: Inclusion,
    obs: &mut Obs,
) -> Result<Classification, TransformError> {
    obs.tracer.begin("phase", "analysis.snc");
    let snc = snc_test_recorded(grammar, obs);
    obs.tracer.end();
    if !snc.is_snc() {
        return Ok(Classification {
            class: AgClass::NotSnc,
            snc,
            dnc: None,
            oag: None,
            l_ordered: None,
        });
    }
    obs.tracer.begin("phase", "analysis.dnc");
    let dnc = dnc_test_recorded(grammar, &snc, obs);
    obs.tracer.end();
    if !dnc.is_dnc() {
        // SNC but not DNC: the transformation still applies.
        obs.tracer.begin("phase", "analysis.transform");
        let lo = snc_to_l_ordered(grammar, &snc, inclusion)?;
        record_transform(&lo.stats, obs);
        obs.tracer.end();
        return Ok(Classification {
            class: AgClass::Snc,
            snc,
            dnc: Some(dnc),
            oag: None,
            l_ordered: Some(lo),
        });
    }
    // OAG(0), then larger k on demand.
    let mut best: Option<(usize, OagResult)> = None;
    obs.tracer.begin("phase", "analysis.oag");
    for k in 0..=max_k {
        let r = oag_test_recorded(grammar, k, obs);
        if r.is_oag() {
            best = Some((k, r));
            break;
        }
        if k == max_k {
            best = Some((k, r));
        }
    }
    obs.tracer.end();
    let (k, oag) = best.expect("loop ran at least once");
    if oag.is_oag() {
        let parts = oag.partitions.clone().expect("ordered");
        obs.tracer.begin("phase", "analysis.transform");
        let lo = crate::transform::l_ordered_from_partitions(grammar, parts)?;
        record_transform(&lo.stats, obs);
        obs.tracer.end();
        return Ok(Classification {
            class: if k == 0 {
                AgClass::Oag0
            } else {
                AgClass::OagK(k)
            },
            snc,
            dnc: Some(dnc),
            oag: Some(oag),
            l_ordered: Some(lo),
        });
    }
    // DNC but not OAG(max_k): transformation.
    obs.tracer.begin("phase", "analysis.transform");
    let lo = snc_to_l_ordered(grammar, &snc, inclusion)?;
    record_transform(&lo.stats, obs);
    obs.tracer.end();
    Ok(Classification {
        class: AgClass::Dnc,
        snc,
        dnc: Some(dnc),
        oag: Some(oag),
        l_ordered: Some(lo),
    })
}

#[cfg(test)]
mod tests {
    use fnc2_ag::{GrammarBuilder, Occ, Value};

    use super::*;

    #[test]
    fn classify_two_pass_as_oag0() {
        let mut g = GrammarBuilder::new("two_pass");
        let s = g.phylum("S");
        let a = g.phylum("A");
        let out = g.syn(s, "out");
        let down = g.inh(a, "down");
        let up = g.syn(a, "up");
        let root = g.production("root", s, &[a]);
        g.copy(root, Occ::lhs(out), Occ::new(1, up));
        g.constant(root, Occ::new(1, down), Value::Int(0));
        let leaf = g.production("leaf", a, &[]);
        g.copy(leaf, Occ::lhs(up), Occ::lhs(down));
        let g = g.finish().unwrap();
        let c = classify(&g, 1, Inclusion::Long).unwrap();
        assert_eq!(c.class, AgClass::Oag0);
        assert!(c.is_evaluable());
        assert_eq!(c.l_ordered.unwrap().stats.plans, 2);
    }

    #[test]
    fn classify_circular_as_not_snc() {
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
        let g = g.finish().unwrap();
        let c = classify(&g, 1, Inclusion::Long).unwrap();
        assert_eq!(c.class, AgClass::NotSnc);
        assert!(!c.is_evaluable());
        assert!(c.snc.witness.is_some());
    }

    #[test]
    fn class_display() {
        assert_eq!(AgClass::Oag0.to_string(), "OAG(0)");
        assert_eq!(AgClass::OagK(1).to_string(), "OAG(1)");
        assert_eq!(AgClass::Dnc.to_string(), "DNC");
        assert_eq!(AgClass::NotSnc.to_string(), "not SNC");
    }
}
