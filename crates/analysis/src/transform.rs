//! The SNC → l-ordered transformation (paper §2.1.1).
//!
//! For every strongly non-circular AG, this construction manufactures, for
//! each phylum, a *set* of totally-ordered partitions, and for each
//! production and each partition of its LHS a consistent choice of RHS
//! partitions plus a total evaluation order — everything a visit-sequence
//! generator needs. The classical construction ([11,18,45]) registers every
//! newly derived partition unless an *identical* one exists, which blows up
//! exponentially; FNC-2's contribution (Parigot [40]) is a coarser
//! correctness-preserving reuse test, **long inclusion**: an existing
//! partition may *replace* a fresh one whenever the production graph stays
//! acyclic with the existing partition's order pasted in — i.e. whenever
//! the topological order can be rearranged to fit it, the local
//! dependencies, and the partitions already chosen for sibling occurrences.
//! On practical AGs this collapses the partition count to ≈1 per phylum
//! (Table 1 / Figure 1).

use std::collections::VecDeque;
use std::fmt;

use fnc2_ag::{Grammar, ONode, Occ, PhylumId, ProductionId};
use fnc2_gfa::{BitMatrix, Digraph};

use crate::io::{CircWitness, SncResult};
use crate::partition::TotalOrder;
use crate::paste::{Deps, Pasted};

/// Partition-reuse strategy of the transformation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Inclusion {
    /// Classical: reuse only identical partitions (exponential-prone).
    Equality,
    /// FNC-2's long inclusion: reuse any registered partition that keeps
    /// the production graph acyclic.
    Long,
}

/// The evaluation plan of one (production, LHS-partition) pair.
#[derive(Clone, Debug)]
pub struct Plan {
    /// For each RHS position (0-based `pos-1`), the index of the partition
    /// chosen for that occurrence in its phylum's partition list.
    pub rhs_partitions: Vec<usize>,
    /// A total evaluation order over all of the production's occurrence
    /// nodes, compatible with every pasted partition.
    pub linear: Vec<ONode>,
}

/// Statistics of a transformation run (the Figure-1/Table-1 numbers).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TransformStats {
    /// Partitions registered, per phylum.
    pub partitions_per_phylum: Vec<usize>,
    /// Number of (production, LHS partition) pairs planned — the number of
    /// visit-sequences the evaluator will carry.
    pub plans: usize,
    /// How many RHS occurrences reused an existing partition.
    pub reuses: usize,
    /// How many fresh partitions were registered.
    pub fresh: usize,
}

impl TransformStats {
    /// Average number of partitions per phylum.
    pub fn avg_partitions(&self) -> f64 {
        if self.partitions_per_phylum.is_empty() {
            return 0.0;
        }
        self.partitions_per_phylum.iter().sum::<usize>() as f64
            / self.partitions_per_phylum.len() as f64
    }

    /// Maximum number of partitions on any phylum.
    pub fn max_partitions(&self) -> usize {
        self.partitions_per_phylum
            .iter()
            .copied()
            .max()
            .unwrap_or(0)
    }
}

/// The transformation's output: an l-ordered view of the grammar.
#[derive(Clone, Debug)]
pub struct LOrdered {
    /// Registered partitions, per phylum. Index 0 of the root phylum is the
    /// partition the driver starts evaluation with.
    pub partitions: Vec<Vec<TotalOrder>>,
    /// Plans, `plans[production][lhs_partition]`: in this order, the
    /// sequences the plans become are numbered.
    pub plans: Vec<Vec<Plan>>,
    /// Run statistics.
    pub stats: TransformStats,
}

impl LOrdered {
    /// The partition list of `phylum`.
    pub fn partitions_of(&self, phylum: PhylumId) -> &[TotalOrder] {
        &self.partitions[phylum.index()]
    }

    /// Every plan with its (production, LHS partition), in that order.
    pub fn iter(&self) -> impl Iterator<Item = ((ProductionId, usize), &Plan)> {
        self.plans.iter().enumerate().flat_map(|(p, plans)| {
            let p = ProductionId::from_raw(p as u32);
            plans
                .iter()
                .enumerate()
                .map(move |(pi, plan)| ((p, pi), plan))
        })
    }
}

/// Internal invariant violation: a pasted production graph turned cyclic.
/// For a strongly non-circular grammar this cannot happen; it indicates the
/// input was not SNC (or partitions from an external source are bogus).
#[derive(Clone, Debug)]
pub struct TransformError {
    /// The offending production.
    pub production: ProductionId,
    /// The cycle found.
    pub witness: CircWitness,
}

impl fmt::Display for TransformError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "pasted graph of production {} is cyclic (grammar not SNC, or incompatible partitions)",
            self.production
        )
    }
}

impl std::error::Error for TransformError {}

/// Priority used for the deterministic topological order: evaluate child
/// inherited attributes eagerly and child synthesized attributes as lazily
/// as possible, so derived child partitions stay coarse (few visits).
fn topo_key(grammar: &Grammar, node: ONode) -> u8 {
    match node {
        ONode::Attr(Occ { pos: 0, attr }) => match grammar.attr(attr).kind() {
            fnc2_ag::AttrKind::Inherited => 0,
            fnc2_ag::AttrKind::Synthesized => 3,
        },
        ONode::Attr(Occ { attr, .. }) => match grammar.attr(attr).kind() {
            fnc2_ag::AttrKind::Inherited => 1,
            fnc2_ag::AttrKind::Synthesized => 4,
        },
        ONode::Local(_) => 2,
    }
}

fn topo_order(pasted: &Pasted) -> Option<Vec<ONode>> {
    let (grammar, dep) = (pasted.deps().grammar, pasted.dep());
    let order = pasted
        .graph()
        .topo_order_by(|u| topo_key(grammar, dep.node(u)))?;
    Some(order.into_iter().map(|u| dep.node(u)).collect())
}

/// The error for production `p`, whose pasted graph has `cycle`.
fn cyclic(p: ProductionId, cycle: Vec<ONode>) -> TransformError {
    TransformError {
        production: p,
        witness: CircWitness {
            production: p,
            cycle,
        },
    }
}

/// Runs the SNC → l-ordered transformation.
///
/// `snc` must come from a successful [`crate::snc_test`] on the same
/// grammar (its `IO` graphs are the argument selectors pasted on
/// not-yet-partitioned occurrences).
///
/// # Errors
///
/// Returns [`TransformError`] if a pasted graph turns cyclic, which cannot
/// happen for a grammar that passed the SNC test.
pub fn snc_to_l_ordered(
    grammar: &Grammar,
    snc: &SncResult,
    inclusion: Inclusion,
) -> Result<LOrdered, TransformError> {
    transform(&Deps::new(grammar), snc, inclusion)
}

/// The transformation on a cascade run's `D(p)`s.
pub(crate) fn transform(
    deps: &Deps,
    snc: &SncResult,
    inclusion: Inclusion,
) -> Result<LOrdered, TransformError> {
    let grammar = deps.grammar;
    let mut partitions: Vec<Vec<TotalOrder>> = vec![Vec::new(); grammar.phylum_count()];
    // `orders[phylum][i]`: partition i's order as a relation, for pasting.
    let mut orders: Vec<Vec<BitMatrix>> = vec![Vec::new(); grammar.phylum_count()];
    let mut plans: Vec<Vec<Plan>> = vec![Vec::new(); grammar.production_count()];
    let mut stats = TransformStats::default();
    let mut pasted = Pasted::new(deps);

    // Seed: the root is evaluated in a single visit (its context supplies
    // every inherited attribute up front).
    let root = grammar.root();
    let single = TotalOrder::single_visit(grammar, root);
    orders[root.index()].push(single.as_matrix(grammar));
    partitions[root.index()].push(single);
    stats.fresh += 1;

    // Each (production, partition) enters the worklist once, when the
    // partition is registered, and partitions are registered in index
    // order: each production's plans are made for partitions 0, 1, 2, ….
    let mut worklist: VecDeque<(ProductionId, usize)> = grammar
        .phylum(root)
        .productions()
        .iter()
        .map(|&p| (p, 0))
        .collect();

    while let Some((p, pi)) = worklist.pop_front() {
        assert_eq!(plans[p.index()].len(), pi, "plans in partition order");
        let prod = grammar.production(p);
        let lhs = prod.lhs();
        let arity = prod.arity() as u16;

        // Base graph: D(p) + π₀ at the LHS + IO argument selectors on every
        // RHS occurrence.
        pasted.reset(p).paste(0, &orders[lhs.index()][pi]);
        for pos in 1..=arity {
            pasted.paste(pos, snc.io.get(prod.phylum_at(pos)));
        }
        if let Some(cycle) = pasted.find_cycle() {
            return Err(cyclic(p, cycle));
        }

        // Choose a partition for each RHS occurrence, left to right.
        let mut chosen: Vec<usize> = Vec::with_capacity(arity as usize);
        for pos in 1..=arity {
            let ph = prod.phylum_at(pos);
            // Long inclusion: reuse the first registered partition that
            // keeps the graph acyclic together with the local dependencies
            // and the siblings chosen so far.
            let pick = match inclusion {
                Inclusion::Long => orders[ph.index()].iter().position(|m| pasted.fits(pos, m)),
                Inclusion::Equality => None,
            };
            let idx = match pick {
                Some(idx) => {
                    stats.reuses += 1;
                    idx
                }
                None => {
                    // Derive a fresh partition from a topological order of
                    // the current graph.
                    let linear = topo_order(&pasted).expect("acyclic by invariant");
                    let of_pos: Vec<_> = linear
                        .iter()
                        .filter_map(|n| match n {
                            ONode::Attr(o) if o.pos == pos => Some(o.attr),
                            _ => None,
                        })
                        .collect();
                    let fresh = TotalOrder::from_linear(grammar, ph, &of_pos);
                    // Equality strategy (and dedup in general): reuse only
                    // an identical partition.
                    match partitions[ph.index()].iter().position(|t| *t == fresh) {
                        Some(idx) => {
                            stats.reuses += 1;
                            idx
                        }
                        None => {
                            orders[ph.index()].push(fresh.as_matrix(grammar));
                            partitions[ph.index()].push(fresh);
                            stats.fresh += 1;
                            let idx = partitions[ph.index()].len() - 1;
                            for &q in grammar.phylum(ph).productions() {
                                worklist.push_back((q, idx));
                            }
                            idx
                        }
                    }
                }
            };
            // Paste the choice and continue with the next position.
            if let Some(cycle) = pasted.paste(pos, &orders[ph.index()][idx]).find_cycle() {
                return Err(cyclic(p, cycle));
            }
            chosen.push(idx);
        }

        let linear = topo_order(&pasted).expect("acyclic by invariant");
        plans[p.index()].push(Plan {
            rhs_partitions: chosen,
            linear,
        });
    }

    stats.plans = plans.iter().map(Vec::len).sum();
    stats.partitions_per_phylum = partitions.iter().map(Vec::len).collect();
    Ok(LOrdered {
        partitions,
        plans,
        stats,
    })
}

/// Builds an [`LOrdered`] directly from one partition per phylum (the OAG
/// path of the generator: Figure 3's "visit sequences generation" consumes
/// either source uniformly).
///
/// # Errors
///
/// Returns [`TransformError`] if some production graph is cyclic under the
/// given partitions (the grammar is then not ordered by them).
pub fn l_ordered_from_partitions(
    grammar: &Grammar,
    parts: Vec<TotalOrder>,
) -> Result<LOrdered, TransformError> {
    from_partitions(&Deps::new(grammar), parts)
}

/// [`l_ordered_from_partitions`] on a cascade run's `D(p)`s.
pub(crate) fn from_partitions(
    deps: &Deps,
    parts: Vec<TotalOrder>,
) -> Result<LOrdered, TransformError> {
    let grammar = deps.grammar;
    assert_eq!(
        parts.len(),
        grammar.phylum_count(),
        "one partition per phylum"
    );
    let orders: Vec<BitMatrix> = parts.iter().map(|t| t.as_matrix(grammar)).collect();
    let mut pasted = Pasted::new(deps);
    let mut plans = Vec::with_capacity(grammar.production_count());
    for p in grammar.productions() {
        let prod = grammar.production(p);
        pasted.reset(p);
        for pos in 0..=prod.arity() as u16 {
            pasted.paste(pos, &orders[prod.phylum_at(pos).index()]);
        }
        let Some(linear) = topo_order(&pasted) else {
            return Err(cyclic(p, pasted.find_cycle().expect("cyclic")));
        };
        plans.push(vec![Plan {
            rhs_partitions: vec![0; prod.arity()],
            linear,
        }]);
    }
    let stats = TransformStats {
        partitions_per_phylum: vec![1; grammar.phylum_count()],
        plans: plans.len(),
        reuses: 0,
        fresh: grammar.phylum_count(),
    };
    Ok(LOrdered {
        partitions: parts.into_iter().map(|t| vec![t]).collect(),
        plans,
        stats,
    })
}

/// Checks that a plan's linear order respects a digraph's edges — test
/// support, exposed for the property tests.
pub fn linear_respects(pasted_edges: &Digraph, order: &[usize]) -> bool {
    let mut rank = vec![usize::MAX; pasted_edges.len()];
    for (r, &u) in order.iter().enumerate() {
        rank[u] = r;
    }
    pasted_edges.edges().all(|(u, v)| rank[u] < rank[v])
}

#[cfg(test)]
mod tests {
    use fnc2_ag::{Grammar, GrammarBuilder, Occ, Value};
    use fnc2_corpus::two_pass;

    use crate::io::snc_test;

    use super::*;

    #[test]
    fn two_pass_transforms_to_one_partition() {
        let g = two_pass();
        let snc = snc_test(&g);
        assert!(snc.is_snc());
        for inc in [Inclusion::Equality, Inclusion::Long] {
            let lo = snc_to_l_ordered(&g, &snc, inc).unwrap();
            let a = g.phylum_by_name("A").unwrap();
            assert_eq!(lo.partitions_of(a).len(), 1, "{inc:?}");
            assert_eq!(lo.partitions_of(a)[0].visit_count(), 1);
            // 3 productions × 1 partition each.
            assert_eq!(lo.stats.plans, 3);
            // Every plan's linear order covers all occurrences.
            for ((p, _), plan) in lo.iter() {
                let want = fnc2_ag::DepGraph::of(&g, p).len();
                assert_eq!(plan.linear.len(), want);
            }
        }
    }

    /// The Figure-1 shape: one phylum used in two contexts that impose
    /// *different but compatible* orders. Classical equality registers two
    /// partitions; long inclusion reuses one.
    fn fig1() -> Grammar {
        let mut g = GrammarBuilder::new("fig1");
        let s = g.phylum("S");
        let x = g.phylum("X");
        let out = g.syn(s, "out");
        // X has i1, i2 inherited and s1, s2 synthesized with subtree deps
        // i1→s1, i2→s2 only.
        let i1 = g.inh(x, "i1");
        let i2 = g.inh(x, "i2");
        let s1 = g.syn(x, "s1");
        let s2 = g.syn(x, "s2");
        g.func("pair2", 2, |a| Value::tuple([a[0].clone(), a[1].clone()]));
        // Context A: s1 feeds i2 (forces i1 s1 i2 s2).
        let ctx_a = g.production("ctx_a", s, &[x]);
        g.constant(ctx_a, Occ::new(1, i1), Value::Int(0));
        g.copy(ctx_a, Occ::new(1, i2), Occ::new(1, s1));
        g.call(
            ctx_a,
            Occ::lhs(out),
            "pair2",
            [Occ::new(1, s1).into(), Occ::new(1, s2).into()],
        );
        // Context B: both inherited available immediately (compatible with
        // the A order, but the classical derivation yields the coarser
        // [i1 i2 | s1 s2]).
        let ctx_b = g.production("ctx_b", s, &[x]);
        g.constant(ctx_b, Occ::new(1, i1), Value::Int(1));
        g.constant(ctx_b, Occ::new(1, i2), Value::Int(2));
        g.call(
            ctx_b,
            Occ::lhs(out),
            "pair2",
            [Occ::new(1, s1).into(), Occ::new(1, s2).into()],
        );
        // X leaf: s1 := i1, s2 := i2.
        let leaf = g.production("leafx", x, &[]);
        g.copy(leaf, Occ::lhs(s1), Occ::lhs(i1));
        g.copy(leaf, Occ::lhs(s2), Occ::lhs(i2));
        g.finish().unwrap()
    }

    #[test]
    fn long_inclusion_reuses_where_equality_multiplies() {
        let g = fig1();
        let snc = snc_test(&g);
        assert!(snc.is_snc());
        let x = g.phylum_by_name("X").unwrap();

        let eq = snc_to_l_ordered(&g, &snc, Inclusion::Equality).unwrap();
        let long = snc_to_l_ordered(&g, &snc, Inclusion::Long).unwrap();
        assert!(
            long.partitions_of(x).len() < eq.partitions_of(x).len(),
            "long inclusion must register fewer partitions: {} vs {}",
            long.partitions_of(x).len(),
            eq.partitions_of(x).len()
        );
        assert_eq!(long.partitions_of(x).len(), 1);
        assert_eq!(eq.partitions_of(x).len(), 2);
        assert!(long.stats.reuses > eq.stats.reuses);
        // Equality: leafx needs a plan per partition => more plans.
        assert!(long.stats.plans < eq.stats.plans);
    }

    #[test]
    fn plans_linear_orders_respect_dependencies() {
        let g = fig1();
        let snc = snc_test(&g);
        for inc in [Inclusion::Equality, Inclusion::Long] {
            let lo = snc_to_l_ordered(&g, &snc, inc).unwrap();
            let deps = Deps::new(&g);
            let mut pasted = Pasted::new(&deps);
            for ((p, pi), plan) in lo.iter() {
                // Rebuild the pasted graph and verify the order.
                let prod = g.production(p);
                let lhs_part = &lo.partitions_of(prod.lhs())[pi];
                pasted.reset(p).paste(0, &lhs_part.as_matrix(&g));
                for (i, &idx) in plan.rhs_partitions.iter().enumerate() {
                    let pos = (i + 1) as u16;
                    let ph = prod.phylum_at(pos);
                    pasted.paste(pos, &lo.partitions_of(ph)[idx].as_matrix(&g));
                }
                let order: Vec<usize> = plan
                    .linear
                    .iter()
                    .map(|&n| pasted.dep().index_of(n).unwrap())
                    .collect();
                assert!(linear_respects(pasted.graph(), &order));
            }
        }
    }

    #[test]
    fn oag_partitions_to_plans() {
        let g = two_pass();
        let oag = crate::oag::oag_test(&g, 0);
        let lo = l_ordered_from_partitions(&g, oag.partitions.unwrap()).unwrap();
        assert_eq!(lo.stats.plans, g.production_count());
        assert!(lo.plans.iter().all(|plans| plans.len() == 1));
    }
}
