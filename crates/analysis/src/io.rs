//! The strong (SNC) and double (DNC) non-circularity tests.
//!
//! * `IO(X) ⊆ I(X) × S(X)` — induced dependencies *through the subtree*
//!   below an `X` node, closed "from below" (Courcelle & Franchi-Zannettacci
//!   [6]). An AG is **strongly non-circular** iff every production graph
//!   `D(p)` pasted with the `IO` graphs of its RHS occurrences is acyclic.
//! * `OI(X) ⊆ S(X) × I(X)` — induced dependencies *through the context*
//!   above an `X` node, closed "from above". An AG is **doubly
//!   non-circular** (DNC) iff every `D(p) ∪ OI(lhs) ∪ ⋃ IO(rhs)` is acyclic
//!   — exactly the property that lets an evaluator start at any tree node,
//!   the basis of FNC-2's incremental evaluation (paper §2.1.2).
//!
//! Both are least fixed points computed with the [`fnc2_gfa`] worklist
//! engine; the DNC test reuses the SNC result, mirroring the cascade of the
//! paper's Figure 3.

use fnc2_ag::{AttrKind, Grammar, ONode, PhylumId, ProductionId};
use fnc2_gfa::{dependents, fixpoint, BitMatrix};
use fnc2_obs::{NoopRecorder, Recorder};

use crate::attrs::AttrIndex;
use crate::paste::{Deps, Pasted};

/// A dependency cycle witnessing the failure of a class test.
#[derive(Clone, Debug)]
pub struct CircWitness {
    /// The production whose pasted graph is cyclic.
    pub production: ProductionId,
    /// The cycle, as occurrence nodes (first node repeated last).
    pub cycle: Vec<ONode>,
}

/// Per-phylum relations over local attribute indices.
#[derive(Clone, Debug)]
pub struct PhylumRels {
    rels: Vec<BitMatrix>,
}

impl PhylumRels {
    /// Empty relations shaped for `grammar`.
    pub fn empty(grammar: &Grammar, ix: &AttrIndex) -> Self {
        PhylumRels {
            rels: grammar
                .phyla()
                .map(|ph| BitMatrix::new(ix.len(ph)))
                .collect(),
        }
    }

    /// The relation of `phylum`.
    pub fn get(&self, phylum: PhylumId) -> &BitMatrix {
        &self.rels[phylum.index()]
    }

    /// ORs `rel` into the relation of `phylum`; true if it grew.
    pub fn absorb(&mut self, phylum: PhylumId, rel: &BitMatrix) -> bool {
        self.rels[phylum.index()].union_in_place(rel)
    }
}

/// Result of the SNC test.
#[derive(Clone, Debug)]
pub struct SncResult {
    /// The `IO` graphs (argument selectors), valid whether or not the test
    /// passed.
    pub io: PhylumRels,
    /// A cycle witness if the AG is *not* strongly non-circular.
    pub witness: Option<CircWitness>,
}

impl SncResult {
    /// True if the AG is strongly non-circular.
    pub fn is_snc(&self) -> bool {
        self.witness.is_none()
    }
}

/// The dependents of a bottom-up grammar flow over productions (e.g.
/// `IO`): a production writes its LHS phylum and reads its RHS phyla.
pub fn bottom_up_dependents(grammar: &Grammar) -> Vec<Vec<usize>> {
    let (n, phyla) = (grammar.production_count(), grammar.phylum_count());
    dependents(n, phyla, |p| lhs_of(grammar, p), |p| rhs_of(grammar, p))
}

/// The LHS phylum of production `p`, as a fact index.
pub(crate) fn lhs_of(grammar: &Grammar, p: usize) -> [usize; 1] {
    let prod = grammar.production(ProductionId::from_raw(p as u32));
    [prod.lhs().index()]
}

/// The RHS phyla of production `p`, as fact indices.
pub(crate) fn rhs_of(grammar: &Grammar, p: usize) -> impl Iterator<Item = usize> + '_ {
    let prod = grammar.production(ProductionId::from_raw(p as u32));
    prod.rhs().iter().map(|ph| ph.index())
}

/// Runs the SNC test on `grammar`.
pub fn snc_test(grammar: &Grammar) -> SncResult {
    snc_test_recorded(grammar, &mut NoopRecorder)
}

/// [`snc_test`], with the underlying fixpoint run recorded into `rec`.
pub fn snc_test_recorded<R: Recorder>(grammar: &Grammar, rec: &mut R) -> SncResult {
    snc(&Deps::new(grammar), rec)
}

/// The SNC test on a cascade run's `D(p)`s.
pub(crate) fn snc<R: Recorder>(deps: &Deps, rec: &mut R) -> SncResult {
    let (grammar, ix) = (deps.grammar, &deps.ix);
    let mut io = PhylumRels::empty(grammar, ix);
    let mut pasted = Pasted::new(deps);
    fixpoint(
        grammar.production_count(),
        &bottom_up_dependents(grammar),
        |pi| {
            let p = ProductionId::from_raw(pi as u32);
            let lhs = grammar.production(p).lhs();
            let proj = paste_io(&mut pasted, grammar, p, &io).project_reach(0, |i, j| {
                grammar.attr(ix.attr_at(lhs, i)).kind() == AttrKind::Inherited
                    && grammar.attr(ix.attr_at(lhs, j)).kind() == AttrKind::Synthesized
            });
            io.absorb(lhs, proj)
        },
        rec,
    );

    // Final acyclicity check per production.
    let witness = grammar.productions().find_map(|p| {
        let cycle = paste_io(&mut pasted, grammar, p, &io).find_cycle()?;
        Some(CircWitness {
            production: p,
            cycle,
        })
    });
    SncResult { io, witness }
}

/// Resets `pasted` to `D(p)` + `IO` pasted on every RHS position.
fn paste_io<'a, 'd, 'g>(
    pasted: &'a mut Pasted<'d, 'g>,
    grammar: &Grammar,
    p: ProductionId,
    io: &PhylumRels,
) -> &'a mut Pasted<'d, 'g> {
    let prod = grammar.production(p);
    pasted.reset(p);
    for pos in 1..=prod.arity() as u16 {
        pasted.paste(pos, io.get(prod.phylum_at(pos)));
    }
    pasted
}

/// Result of the DNC test.
#[derive(Clone, Debug)]
pub struct DncResult {
    /// The `OI` graphs (context selectors).
    pub oi: PhylumRels,
    /// A cycle witness if the AG is *not* doubly non-circular.
    pub witness: Option<CircWitness>,
}

impl DncResult {
    /// True if the AG is doubly non-circular.
    pub fn is_dnc(&self) -> bool {
        self.witness.is_none()
    }
}

/// Runs the DNC test, reusing the `IO` graphs of a prior SNC test (the
/// cascade of the paper's Figure 3: "the first phase of the [DNC test] is
/// the SNC test").
pub fn dnc_test(grammar: &Grammar, snc: &SncResult) -> DncResult {
    dnc_test_recorded(grammar, snc, &mut NoopRecorder)
}

/// [`dnc_test`], with the underlying fixpoint run recorded into `rec`.
pub fn dnc_test_recorded<R: Recorder>(
    grammar: &Grammar,
    snc: &SncResult,
    rec: &mut R,
) -> DncResult {
    dnc(&Deps::new(grammar), snc, rec)
}

/// The DNC test on a cascade run's `D(p)`s.
pub(crate) fn dnc<R: Recorder>(deps: &Deps, snc: &SncResult, rec: &mut R) -> DncResult {
    let (grammar, ix) = (deps.grammar, &deps.ix);
    let mut oi = PhylumRels::empty(grammar, ix);
    let mut pasted = Pasted::new(deps);
    // Top-down flow: production p reads oi[lhs(p)] and writes oi of its RHS
    // phyla.
    let (n, phyla) = (grammar.production_count(), grammar.phylum_count());
    let top_down = dependents(n, phyla, |p| rhs_of(grammar, p), |p| lhs_of(grammar, p));
    fixpoint(
        n,
        &top_down,
        |pi| {
            let p = ProductionId::from_raw(pi as u32);
            let prod = grammar.production(p);
            // Paste everything once — D(p), the LHS context (OI), and every
            // child's IO — then give each child its context view by
            // *traversing around* its own IO instead of rebuilding the
            // graph per position. Positions with identical signatures share
            // one projection.
            paste_io(&mut pasted, grammar, p, &snc.io).paste(0, oi.get(prod.lhs()));
            let mut changed = false;
            for group in deps.rhs_position_groups(p) {
                let ph = prod.phylum_at(group[0]);
                let proj =
                    pasted.project_reach_excluding(group[0], Some(snc.io.get(ph)), |i, j| {
                        grammar.attr(ix.attr_at(ph, i)).kind() == AttrKind::Synthesized
                            && grammar.attr(ix.attr_at(ph, j)).kind() == AttrKind::Inherited
                    });
                changed |= oi.absorb(ph, proj);
            }
            changed
        },
        rec,
    );

    // DNC check: D(p) + OI(lhs) + all IO(rhs) acyclic.
    let witness = grammar.productions().find_map(|p| {
        let lhs = grammar.production(p).lhs();
        let cycle = paste_io(&mut pasted, grammar, p, &snc.io)
            .paste(0, oi.get(lhs))
            .find_cycle()?;
        Some(CircWitness {
            production: p,
            cycle,
        })
    });
    DncResult { oi, witness }
}

#[cfg(test)]
mod tests {
    use fnc2_ag::{Grammar, GrammarBuilder, Occ, Value};

    use super::*;

    /// Knuth-style two-pass grammar: SNC (and in fact l-ordered).
    fn two_pass() -> Grammar {
        // S ::= A ; A ::= a(A) | leaf
        // A.down (inh), A.up (syn): up depends on down at the leaf.
        let mut g = GrammarBuilder::new("two_pass");
        let s = g.phylum("S");
        let a = g.phylum("A");
        let out = g.syn(s, "out");
        let down = g.inh(a, "down");
        let up = g.syn(a, "up");
        let root = g.production("root", s, &[a]);
        g.copy(root, Occ::lhs(out), Occ::new(1, up));
        g.constant(root, Occ::new(1, down), Value::Int(0));
        let mid = g.production("mid", a, &[a]);
        g.copy(mid, Occ::new(1, down), Occ::lhs(down));
        g.copy(mid, Occ::lhs(up), Occ::new(1, up));
        let leaf = g.production("leaf", a, &[]);
        g.copy(leaf, Occ::lhs(up), Occ::lhs(down));
        g.finish().unwrap()
    }

    /// The classic circular AG: A.i := A.s, A.s := A.i through the subtree.
    fn circular() -> Grammar {
        let mut g = GrammarBuilder::new("circ");
        let s = g.phylum("S");
        let a = g.phylum("A");
        let out = g.syn(s, "out");
        let i = g.inh(a, "i");
        let sy = g.syn(a, "s");
        let root = g.production("root", s, &[a]);
        g.copy(root, Occ::lhs(out), Occ::new(1, sy));
        // circular: the child's inherited depends on its own synthesized
        g.copy(root, Occ::new(1, i), Occ::new(1, sy));
        let leaf = g.production("leaf", a, &[]);
        g.copy(leaf, Occ::lhs(sy), Occ::lhs(i));
        g.finish().unwrap()
    }

    #[test]
    fn two_pass_is_snc_and_dnc() {
        let g = two_pass();
        let snc = snc_test(&g);
        assert!(snc.is_snc());
        let a = g.phylum_by_name("A").unwrap();
        // IO(A): down -> up.
        assert!(snc.io.get(a).get(0, 1));
        assert_eq!(snc.io.get(a).count(), 1);
        let dnc = dnc_test(&g, &snc);
        assert!(dnc.is_dnc());
        // OI(A) is empty: the context never feeds `up` back into `down`.
        assert_eq!(dnc.oi.get(a).count(), 0);
    }

    #[test]
    fn circular_fails_snc() {
        let g = circular();
        let snc = snc_test(&g);
        assert!(!snc.is_snc());
        let w = snc.witness.unwrap();
        assert_eq!(g.production(w.production).name(), "root");
        assert!(w.cycle.len() >= 3);
    }

    /// SNC but not DNC: the *context* creates an S→I dependency that,
    /// combined with the subtree's I→S, is only exploited if evaluation may
    /// start anywhere. Build: root uses A.s to define A.i of a *sibling*
    /// whose IO feeds back — here a two-child production crossing deps.
    #[test]
    fn oi_captures_context_dependencies() {
        // root : S ::= A A with A$2.i := A$1.s ; A$1.i := 0 ;
        // leaf : A.s := A.i.
        let mut g = GrammarBuilder::new("ctx");
        let s = g.phylum("S");
        let a = g.phylum("A");
        let out = g.syn(s, "out");
        let i = g.inh(a, "i");
        let sy = g.syn(a, "s");
        let root = g.production("root", s, &[a, a]);
        g.copy(root, Occ::lhs(out), Occ::new(2, sy));
        g.constant(root, Occ::new(1, i), Value::Int(0));
        g.copy(root, Occ::new(2, i), Occ::new(1, sy));
        let leaf = g.production("leaf", a, &[]);
        g.copy(leaf, Occ::lhs(sy), Occ::lhs(i));
        let g = g.finish().unwrap();

        let snc = snc_test(&g);
        assert!(snc.is_snc());
        let dnc = dnc_test(&g, &snc);
        assert!(dnc.is_dnc());
        // OI(A): s -> i (via the sibling at position 2... seen from pos 1's
        // context? No: seen from position 2, `i` depends on the sibling's
        // `s`, which is S->I only for pos-2's *own* attributes if a path
        // s(2) -> i(2) exists through the context — it does not. But for
        // position 1, the context maps s(1) -> nothing of pos 1. OI(A) must
        // stay empty here.
        assert_eq!(dnc.oi.get(a).count(), 0);

        // Now thread it back: root2 : S ::= A with A.i := A.s would be
        // directly circular; instead check a genuine OI pair:
        // mid : A ::= A with A$2... — chain where parent's inh of child
        // comes from child's own syn through the parent's *other* rules is
        // the only source of OI pairs; verified in the grammar below.
        let mut g = GrammarBuilder::new("ctx2");
        let s = g.phylum("S");
        let a = g.phylum("A");
        let b = g.phylum("B");
        let out = g.syn(s, "out");
        let ai = g.inh(a, "i");
        let asy = g.syn(a, "s");
        let bi = g.inh(b, "i");
        let bs = g.syn(b, "s");
        // root : S ::= B ; B.i := 0
        let root = g.production("root", s, &[b]);
        g.copy(root, Occ::lhs(out), Occ::new(1, bs));
        g.constant(root, Occ::new(1, bi), Value::Int(0));
        // wrap : B ::= A ; A.i := A.s is circular. Use: B.s := A.s;
        // A.i := B.i — no OI. To get OI non-empty we need the child's syn
        // to influence the child's *other* inherited via the parent:
        let aj = g.inh(a, "j");
        let wrap = g.production("wrap", b, &[a]);
        g.copy(wrap, Occ::lhs(bs), Occ::new(1, asy));
        g.copy(wrap, Occ::new(1, ai), Occ::lhs(bi));
        // j of the child depends on s of the child: a genuine S→I context
        // dependency (legal: j is not used to compute s).
        g.copy(wrap, Occ::new(1, aj), Occ::new(1, asy));
        // leaf : A.s := A.i ; uses j only via a second syn to keep it live.
        let at = g.syn(a, "t");
        let leafa = g.production("leafa", a, &[]);
        g.copy(leafa, Occ::lhs(asy), Occ::lhs(ai));
        g.copy(leafa, Occ::lhs(at), Occ::lhs(aj));
        let g = g.finish().unwrap();
        let snc = snc_test(&g);
        assert!(snc.is_snc());
        let dnc = dnc_test(&g, &snc);
        assert!(dnc.is_dnc());
        let a = g.phylum_by_name("A").unwrap();
        // OI(A) contains s -> j.
        let ix = AttrIndex::new(&g);
        let s_local = ix.local(&g, asy);
        let j_local = ix.local(&g, aj);
        assert!(dnc.oi.get(a).get(s_local, j_local));
    }
}
