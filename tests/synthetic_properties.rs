//! Whole-system property test: random synthetic grammars (random sizes,
//! attribute profiles, seeds and class gadgets) must classify, generate,
//! and evaluate identically under the deterministic, demand-driven, and
//! space-optimized evaluators — on random trees. Cases are drawn with the
//! in-repo seeded generator, so every run covers the same inputs.

use fnc2::visit::{DynamicEvaluator, RootInputs};
use fnc2::Pipeline;
use fnc2_corpus::rng::Rng;
use fnc2_corpus::{synthetic, synthetic_tree, SynthProfile, TargetClass};

fn random_profile(rng: &mut Rng) -> SynthProfile {
    SynthProfile {
        name: "prop",
        phyla: rng.gen_usize(3, 17),
        attr_pairs: rng.gen_usize(0, 2),
        class: match rng.gen_usize(0, 3) {
            0 => TargetClass::Oag0,
            1 => TargetClass::Oag1,
            2 => TargetClass::Dnc,
            _ => TargetClass::SncOnly,
        },
        seed: rng.gen_range(0, 9_999) as u64,
    }
}

#[test]
fn evaluators_agree_on_random_grammars() {
    let mut rng = Rng::seed_from_u64(0x5e_ed);
    for _ in 0..24 {
        let profile = random_profile(&mut rng);
        let tree_target = rng.gen_usize(30, 239);
        let tree_seed = rng.gen_range(0, 999) as u64;

        let grammar = synthetic(&profile);
        let compiled = Pipeline::new()
            .compile(grammar)
            .expect("synthetic grammars are SNC");
        let tree = synthetic_tree(&compiled.grammar, &profile, tree_target, tree_seed);
        let g = &compiled.grammar;

        let (plain, stats) = compiled.evaluate(&tree, &RootInputs::new()).expect("plain");
        assert!(stats.evals > 0);
        let (demand, _) = DynamicEvaluator::new(g)
            .evaluate(&tree, &RootInputs::new())
            .expect("demand");
        let (opt, opt_stats) = compiled
            .evaluate_optimized(&tree, &RootInputs::new())
            .expect("optimized");

        // Every instance agrees between plain and demand-driven.
        let differs = |&(n, a): &_| plain.get(g, n, a) != demand.get(g, n, a);
        if let Some((n, attr)) = tree.attr_instances(g).find(differs) {
            panic!(
                "node {n:?} attr {} (profile {profile:?})",
                g.attr(attr).name()
            );
        }
        // The optimized evaluator agrees on everything it keeps at nodes —
        // including the root outputs (always node-resident).
        let root_ph = g.root();
        for attr in g.synthesized(root_ph) {
            assert_eq!(
                plain.get(g, tree.root(), attr),
                opt.get(g, tree.root(), attr),
                "root attr {} (profile {:?})",
                g.attr(attr).name(),
                profile
            );
        }
        // Storage accounting: final node-resident cells never exceed tree
        // storage; the high-water mark never exceeds total instances.
        assert!(opt_stats.final_node_cells <= plain.live_count());
        assert!(opt_stats.max_live_cells <= plain.live_count());
    }
}

#[test]
fn long_inclusion_dominates_equality_on_random_grammars() {
    use fnc2::analysis::{snc_test, snc_to_l_ordered, Inclusion};
    let mut rng = Rng::seed_from_u64(0x10_c4);
    for _ in 0..24 {
        let profile = random_profile(&mut rng);
        let grammar = synthetic(&profile);
        let snc = snc_test(&grammar);
        assert!(snc.is_snc());
        let long = snc_to_l_ordered(&grammar, &snc, Inclusion::Long).expect("transforms");
        let eq = snc_to_l_ordered(&grammar, &snc, Inclusion::Equality).expect("transforms");
        assert!(
            long.stats.partitions_per_phylum.iter().sum::<usize>()
                <= eq.stats.partitions_per_phylum.iter().sum::<usize>()
        );
        assert!(long.stats.plans <= eq.stats.plans);
        // Both views produce complete partitions on every phylum.
        for ph in grammar.phyla() {
            for t in long.partitions_of(ph) {
                assert!(t.is_complete(&grammar));
            }
        }
    }
}
