//! Space-optimizer integration tests: non-temporary node storage,
//! strict-stack candidates, equivalence on two-visit grammars, the
//! static/dynamic accounting contracts, and pinned cascade decisions, plans
//! and run counters.

use fnc2_ag::{Grammar, GrammarBuilder, Occ, ProductionId, Tree, TreeBuilder, Value};
use fnc2_analysis::{classify, classify_recorded, nc_test, snc_to_l_ordered, Inclusion, LOrdered};
use fnc2_corpus::{synthetic, synthetic_tree, TABLE1_PROFILES};
use fnc2_guard::EvalBudget;
use fnc2_obs::Obs;
use fnc2_space::{
    analyze_space, plan_evaluator, strict_stack_candidates, Object, SpacePlan, Storage,
};
use fnc2_visit::{build_visit_seqs, Evaluator, RootInputs};

/// A two-visit grammar where `i1` is read again during visit 2: `i1` is
/// non-temporary and must stay at the node — and the optimized evaluator
/// must still agree with the plain one.
fn two_visit_nontemp() -> Grammar {
    let mut g = GrammarBuilder::new("nontemp");
    let s = g.phylum("S");
    let a = g.phylum("A");
    let out = g.syn(s, "out");
    let i1 = g.inh(a, "i1");
    let s1 = g.syn(a, "s1");
    let i2 = g.inh(a, "i2");
    let s2 = g.syn(a, "s2");
    g.func("add", 2, |v| Value::Int(v[0].as_int() + v[1].as_int()));
    let root = g.production("root", s, &[a]);
    g.constant(root, Occ::new(1, i1), Value::Int(5));
    g.copy(root, Occ::new(1, i2), Occ::new(1, s1));
    g.copy(root, Occ::lhs(out), Occ::new(1, s2));
    // chain : A ::= A keeps it recursive so stacks matter too.
    let chain = g.production("chain", a, &[a]);
    g.call(
        chain,
        Occ::new(1, i1),
        "add",
        [Occ::lhs(i1).into(), Occ::lhs(i1).into()],
    );
    g.copy(chain, Occ::lhs(s1), Occ::new(1, s1));
    g.copy(chain, Occ::new(1, i2), Occ::lhs(i2));
    g.copy(chain, Occ::lhs(s2), Occ::new(1, s2));
    let leaf = g.production("leafa", a, &[]);
    g.copy(leaf, Occ::lhs(s1), Occ::lhs(i1));
    // s2 (visit 2) re-reads i1 (made available in visit 1): non-temporary.
    g.call(
        leaf,
        Occ::lhs(s2),
        "add",
        [Occ::lhs(i1).into(), Occ::lhs(i2).into()],
    );
    g.finish().unwrap()
}

#[test]
fn non_temporary_goes_to_node_and_still_evaluates() {
    let g = two_visit_nontemp();
    let c = classify(&g, 1, Inclusion::Long).unwrap();
    let lo = c.l_ordered.unwrap();
    let seqs = build_visit_seqs(&g, &lo);
    let (fp, objects, lt, plan) = analyze_space(&g, &seqs);
    let a = g.phylum_by_name("A").unwrap();
    let i1 = g.attr_by_name(a, "i1").unwrap();
    assert!(
        !lt.is_temporary(&objects, Object::Attr(i1)),
        "i1 crosses visits"
    );
    assert_eq!(plan.storage_of(&objects, Object::Attr(i1)), Storage::Node);

    // Equivalence on a chain.
    let mut tb = TreeBuilder::new(&g);
    let mut cur = tb.op("leafa", &[]).unwrap();
    for _ in 0..6 {
        cur = tb.op("chain", &[cur]).unwrap();
    }
    let root = tb.op("root", &[cur]).unwrap();
    let tree = tb.finish_root(root).unwrap();
    let plain = Evaluator::new(&g, &seqs);
    let (want, _) = plain.evaluate(&tree, &RootInputs::new()).unwrap();
    let (got, stats) = plan_evaluator(&g, &seqs, &fp, &plan)
        .evaluate(&tree, &RootInputs::new())
        .unwrap();
    let s = g.phylum_by_name("S").unwrap();
    let out = g.attr_by_name(s, "out").unwrap();
    assert_eq!(
        got.get(&g, tree.root(), out),
        want.get(&g, tree.root(), out)
    );
    // Node-resident cells remain at the end (i1 instances), far fewer than
    // the full decoration.
    assert!(stats.final_node_cells > 0);
    assert!(stats.final_node_cells < want.live_count());
}

#[test]
fn strict_stack_analysis_finds_the_clean_nontemporaries() {
    // In `two_visit_nontemp`, i1 is non-temporary but its only lifetime
    // extension is at its own node (re-read in visit 2): a strict-stack
    // candidate per the §2.2 extension.
    let g = two_visit_nontemp();
    let c = classify(&g, 1, Inclusion::Long).unwrap();
    let seqs = build_visit_seqs(&g, &c.l_ordered.unwrap());
    let (fp, objects, lt, _) = analyze_space(&g, &seqs);
    let cands = strict_stack_candidates(&g, &fp, &lt, &objects);
    let a = g.phylum_by_name("A").unwrap();
    let i1 = g.attr_by_name(a, "i1").unwrap();
    assert!(
        cands.contains(&objects.index(Object::Attr(i1))),
        "i1 is a strict-stack candidate"
    );
}

#[test]
fn storage_proportions_account_for_every_occurrence() {
    for g in [
        fnc2_corpus::binary(),
        fnc2_corpus::desk(),
        fnc2_corpus::blocks(),
        fnc2_corpus::minipascal().0,
        two_visit_nontemp(),
    ] {
        let c = classify(&g, 1, Inclusion::Long).unwrap();
        let seqs = build_visit_seqs(&g, &c.l_ordered.unwrap());
        let (_, _, lt, plan) = analyze_space(&g, &seqs);
        let total: usize = g.productions().map(|p| g.occurrences(p).len()).sum();
        assert_eq!(plan.stats.occ_total(), total, "{}", g.name());
        assert!(plan.stats.copies_eliminated <= plan.stats.copies_eliminable);
        assert!(lt.temporary_ratio() >= 0.0 && lt.temporary_ratio() <= 1.0);
        // Packing never yields more groups than objects.
        assert!(plan.stats.variables_after <= plan.stats.variables_before.max(1));
        assert!(plan.stats.stacks_after <= plan.stats.stacks_before.max(1));
        let _ = total;
    }
}

#[test]
fn optimized_runtime_drains_stacks_on_every_corpus_grammar() {
    // After a full evaluation the stacks must be empty: every scheduled
    // pop fired (the delayed-pop schedule is complete).
    for (g, tree) in [
        {
            let g = fnc2_corpus::binary();
            let t = fnc2_corpus::binary_tree(&g, "110101");
            (g, t)
        },
        {
            let g = fnc2_corpus::blocks();
            let t = fnc2_corpus::blocks_tree(&g, "d:a u:a [ d:b u:b u:a ]");
            (g, t)
        },
    ] {
        let c = classify(&g, 1, Inclusion::Long).unwrap();
        let seqs = build_visit_seqs(&g, &c.l_ordered.unwrap());
        let (fp, _, _, plan) = analyze_space(&g, &seqs);
        let (_, stats) = plan_evaluator(&g, &seqs, &fp, &plan)
            .evaluate(&tree, &RootInputs::new())
            .unwrap();
        // max live is at least the final node-resident count.
        assert!(stats.max_live_cells >= stats.final_node_cells);
    }
}

/// Classifies `g` as the pipeline does and plans its storage; with the
/// keys of the sequences, which the plan's access tables follow.
fn plan_of(g: &Grammar) -> (Vec<(ProductionId, usize)>, SpacePlan) {
    let c = classify(g, 1, Inclusion::Long).unwrap();
    let seqs = build_visit_seqs(g, &c.l_ordered.unwrap());
    (seqs.keys(), analyze_space(g, &seqs).3)
}

#[test]
fn space_plan_is_deterministic() {
    let g = fnc2_corpus::minipascal().0;
    let (keys, p1) = plan_of(&g);
    // Several runs, so a hash-ordered choice shows up as a mismatch.
    for (_, p2) in (0..4).map(|_| plan_of(&g)) {
        assert_eq!(p1.storage, p2.storage);
        assert_eq!(p1.n_variables, p2.n_variables);
        assert_eq!(p1.n_stacks, p2.n_stacks);
        assert_eq!(p1.eliminated, p2.eliminated);
        assert_eq!(format!("{:?}", p1.stats), format!("{:?}", p2.stats));
        assert_eq!(p1.access.len(), p2.access.len());
        for ((key, a1), a2) in keys.iter().zip(&p1.access).zip(&p2.access) {
            assert_eq!(a1.steps.len(), a2.steps.len(), "{key:?}");
            for (pos, (s1, s2)) in a1.steps.iter().zip(&a2.steps).enumerate() {
                assert_eq!(format!("{s1:?}"), format!("{s2:?}"), "{key:?} @ {pos}");
            }
        }
    }
}

/// FNV-1a over everything a plan decides: storage, variable and stack
/// counts, the sorted eliminated list, the access tables with their
/// sequences' keys, in key order, and the statistics.
fn plan_digest((keys, plan): &(Vec<(ProductionId, usize)>, SpacePlan)) -> u64 {
    let access: Vec<_> = keys.iter().zip(&plan.access).collect();
    let text = format!(
        "{:?} {} {} {:?} {access:?} {:?}",
        plan.storage, plan.n_variables, plan.n_stacks, plan.eliminated, plan.stats
    );
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Pins the plan of each corpus grammar, each Table 1 profile and one
/// partition blow-up grammar (several partitions per phylum, so many
/// sequences per production), so a faster planner can be shown to decide
/// exactly what the old one did.
#[test]
fn space_plans_match_their_pinned_digests() {
    let mut grammars = vec![
        fnc2_corpus::minipascal().0,
        fnc2_corpus::blocks(),
        fnc2_corpus::desk(),
    ];
    grammars.extend(TABLE1_PROFILES.iter().map(synthetic));
    grammars.push(fnc2_corpus::partition_blowup(4, 3));
    let want: [u64; 11] = [
        0x04fc_aba5_9c44_dc0f, // minipascal
        0x5fef_409d_a18a_8ccf, // blocks
        0x893a_3234_1c24_802c, // desk
        0xadec_6476_60a4_0944, // AG1
        0x3c9a_ad51_0857_a984, // AG2
        0x502c_36d0_e033_fcec, // AG3
        0x76b8_6561_9c4a_1480, // AG4
        0xb845_5194_f940_83f2, // AG5
        0x208b_7389_ed6f_e9b3, // AG6
        0x681f_a2d8_19fd_f52c, // AG7
        0x8451_662c_e475_16f7, // partition_blowup(4, 3): 8 partitions on X3
    ];
    for (g, want) in grammars.iter().zip(want) {
        let got = plan_digest(&plan_of(g));
        assert_eq!(got, want, "{}: plan digest {got:#018x}", g.name());
    }
}

/// FNV-1a over everything the class cascade decides for `g`: the `IO`,
/// `OI` and `DS` relations, the OAG partitions and repairs, the witnesses,
/// both inclusions' l-ordered plans in key order with their statistics, the
/// exact NC test's sorted graph sets and outcome, and the cascade's
/// fixpoint counts.
fn cascade_digest(g: &Grammar) -> u64 {
    let mut obs = Obs::new();
    let c = classify_recorded(g, 1, Inclusion::Long, &mut obs).unwrap();
    let lo_text = |lo: &LOrdered| {
        let plans: Vec<_> = lo.iter().collect();
        format!("{:?} {plans:?} {:?}", lo.partitions, lo.stats)
    };
    let equality = c
        .snc
        .is_snc()
        .then(|| lo_text(&snc_to_l_ordered(g, &c.snc, Inclusion::Equality).unwrap()));
    let nc = nc_test(g, 16);
    let nc_sets: Vec<Vec<String>> = nc
        .io_sets
        .iter()
        .map(|set| {
            let mut graphs: Vec<String> = set.iter().map(|m| format!("{m:?}")).collect();
            graphs.sort();
            graphs
        })
        .collect();
    let text = format!(
        "{} {:?} {:?} {:?} {:?} {equality:?} {nc_sets:?} {:?} {} {} {}",
        c.class,
        c.snc,
        c.dnc,
        c.oag,
        c.l_ordered.as_ref().map(lo_text),
        nc.witness,
        nc.aborted,
        obs.metrics.counter("gfa.fixpoint.steps"),
        obs.metrics.counter("gfa.fixpoint.changes"),
    );
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Pins the class cascade's decisions on the corpus grammars, the Table 1
/// profiles, one partition blow-up grammar and the pathological grammars
/// of the class ladder, so a leaner generator can be shown to decide
/// exactly what the old one did, fixpoint step counts and cycle
/// witnesses included.
#[test]
fn cascade_decisions_match_their_pinned_digests() {
    let mut grammars = vec![
        fnc2_corpus::minipascal().0,
        fnc2_corpus::blocks(),
        fnc2_corpus::desk(),
    ];
    grammars.extend(TABLE1_PROFILES.iter().map(synthetic));
    grammars.extend([
        fnc2_corpus::partition_blowup(4, 3),
        fnc2_corpus::circular(),
        fnc2_corpus::nc_not_snc(),
        fnc2_corpus::snc_only(),
        fnc2_corpus::oag1_not_oag0(),
        fnc2_corpus::dnc_not_oag(3),
    ]);
    let want: [u64; 16] = [
        0xffdc_2254_387b_dc72, // minipascal
        0x9eff_9ccb_7a6d_38bc, // blocks
        0xd23c_656f_0847_e5b2, // desk
        0x1921_0839_4f86_b0c7, // AG1
        0xb690_4359_baea_6da0, // AG2
        0xdca4_8ac0_d62c_22b2, // AG3
        0x0a97_f094_b22e_eaa4, // AG4
        0x07b2_0627_73bb_7f5c, // AG5
        0xbf87_f1e6_76b8_d3b8, // AG6
        0xd301_7289_2b52_8193, // AG7
        0xa3a4_9dbf_10cc_b64e, // partition_blowup(4, 3)
        0x1675_85c7_51eb_7976, // circular
        0x363c_77e7_e4a6_5a09, // nc_not_snc
        0xb741_7f67_665c_5e77, // snc_only
        0x817b_5af5_63b0_9309, // oag1_not_oag0
        0x5fe6_9d4c_0cb8_ca81, // dnc_not_oag(3)
    ];
    for (g, want) in grammars.iter().zip(want) {
        let got = cascade_digest(g);
        assert_eq!(got, want, "{}: cascade digest {got:#018x}", g.name());
    }
}

/// `let x = 2 in let y = x * 3 in (x + y) * y` for the desk grammar.
fn desk_tree(g: &Grammar) -> Tree {
    let mut tb = TreeBuilder::new(g);
    let lit = g.production_by_name("lit").unwrap();
    let var = g.production_by_name("var").unwrap();
    let letx = g.production_by_name("letx").unwrap();
    let name =
        |tb: &mut TreeBuilder, x: &str| tb.node_with_token(var, &[], Some(Value::str(x))).unwrap();
    let two = tb.node_with_token(lit, &[], Some(Value::Int(2))).unwrap();
    let x1 = name(&mut tb, "x");
    let three = tb.node_with_token(lit, &[], Some(Value::Int(3))).unwrap();
    let bound = tb.op("mul", &[x1, three]).unwrap();
    let (x2, y1) = (name(&mut tb, "x"), name(&mut tb, "y"));
    let sum = tb.op("add", &[x2, y1]).unwrap();
    let y2 = name(&mut tb, "y");
    let body = tb.op("mul", &[sum, y2]).unwrap();
    let inner = tb
        .node_with_token(letx, &[bound, body], Some(Value::str("y")))
        .unwrap();
    let outer = tb
        .node_with_token(letx, &[two, inner], Some(Value::str("x")))
        .unwrap();
    let root = tb.op("prog", &[outer]).unwrap();
    tb.finish_root(root).unwrap()
}

/// Pins what each run executes, so merging the node-storage and the plan
/// interpreters can be shown to change none of it: for the node-storage
/// run `[visits, evals, copies, eval.const_hits]`, for the plan run
/// `[visits, evals, copies_skipped, max_live_cells, final_node_cells]`.
#[test]
fn run_stats_match_their_pinned_values() {
    type Case = (Grammar, Box<dyn Fn(&Grammar) -> Tree>, [u64; 4], [usize; 5]);
    let mut cases: Vec<Case> = vec![
        (
            fnc2_corpus::desk(),
            Box::new(desk_tree),
            [12, 23, 11, 1],
            [12, 21, 2, 7, 1],
        ),
        (
            fnc2_corpus::blocks(),
            Box::new(|g| fnc2_corpus::blocks_tree(g, "d:a u:b [ d:b u:a u:b [ u:c d:c ] ] u:c")),
            [47, 70, 24, 16],
            [47, 70, 0, 20, 1],
        ),
        (
            fnc2_corpus::binary(),
            Box::new(|g| fnc2_corpus::binary_tree(g, "1101.011")),
            [22, 36, 9, 5],
            [22, 36, 0, 8, 1],
        ),
        (
            fnc2_corpus::minipascal().0,
            Box::new(|g| {
                fnc2_corpus::parse_minipascal(g, &fnc2_corpus::sample_program(8)).unwrap()
            }),
            [389, 1646, 675, 121],
            [389, 1455, 191, 123, 2],
        ),
    ];
    let profiles: [([u64; 4], [usize; 5]); 7] = [
        ([511, 1029, 32, 2], [511, 1009, 20, 504, 1]),
        ([1000, 2009, 1019, 1], [1000, 1005, 1004, 502, 1]),
        ([1020, 2051, 1040, 1], [1020, 1024, 1027, 513, 1]),
        ([514, 1047, 40, 2], [514, 1023, 24, 513, 1]),
        ([509, 1049, 55, 4], [509, 1017, 32, 514, 8]),
        ([510, 1025, 25, 1], [510, 1012, 13, 507, 1]),
        ([991, 2983, 2003, 3], [991, 1001, 1982, 501, 1]),
    ];
    for (profile, (node, plan)) in TABLE1_PROFILES.iter().zip(profiles) {
        let tree_of = move |g: &Grammar| synthetic_tree(g, profile, 600, profile.seed ^ 0x5eed);
        cases.push((synthetic(profile), Box::new(tree_of), node, plan));
    }
    for (g, tree_of, want_node, want_plan) in &cases {
        let c = classify(g, 1, Inclusion::Long).unwrap();
        let seqs = build_visit_seqs(g, &c.l_ordered.unwrap());
        let (fp, _, _, plan) = analyze_space(g, &seqs);
        let tree = tree_of(g);
        let mut obs = Obs::new();
        let (_, s) = Evaluator::new(g, &seqs)
            .evaluate_with(&tree, &RootInputs::new(), &EvalBudget::default(), &mut obs)
            .unwrap();
        let node = [s.visits, s.evals, s.copies].map(|n| n as u64);
        let node = [
            node[0],
            node[1],
            node[2],
            obs.metrics.counter("eval.const_hits"),
        ];
        assert_eq!(&node, want_node, "{} node run", g.name());
        let (_, s) = plan_evaluator(g, &seqs, &fp, &plan)
            .evaluate(&tree, &RootInputs::new())
            .unwrap();
        let got = [
            s.visits,
            s.evals,
            s.copies_skipped,
            s.max_live_cells,
            s.final_node_cells,
        ];
        assert_eq!(&got, want_plan, "{} plan run", g.name());
    }
}

/// §2.2: "since with that scheme the only purpose of the tree is to
/// conduct the evaluator, it needs not be a physical object any more…
/// attributes evaluation on DAGs (i.e., trees with shared subtrees) comes
/// for free." With node storage the two instances of a shared subtree
/// collide; with global variables/stacks they do not.
#[test]
fn dag_evaluation_works_with_global_storage_only() {
    let mut g = GrammarBuilder::new("dag");
    let s = g.phylum("S");
    let a = g.phylum("A");
    let out = g.syn(s, "out");
    let d = g.inh(a, "d");
    let u = g.syn(a, "u");
    g.func("double", 1, |v| Value::Int(v[0].as_int() * 2));
    g.func("add", 2, |v| Value::Int(v[0].as_int() + v[1].as_int()));
    let fork = g.production("fork", s, &[a, a]);
    g.constant(fork, Occ::new(1, d), Value::Int(1));
    g.constant(fork, Occ::new(2, d), Value::Int(5));
    g.call(
        fork,
        Occ::lhs(out),
        "add",
        [Occ::new(1, u).into(), Occ::new(2, u).into()],
    );
    let leaf = g.production("leafa", a, &[]);
    g.call(leaf, Occ::lhs(u), "double", [Occ::lhs(d).into()]);
    let g = g.finish().unwrap();

    let c = classify(&g, 1, Inclusion::Long).unwrap();
    let seqs = build_visit_seqs(&g, &c.l_ordered.unwrap());
    let (fp, objects, _, plan) = analyze_space(&g, &seqs);
    // Both A attributes live out of the tree.
    let d_st = plan.storage_of(&objects, Object::Attr(d));
    let u_st = plan.storage_of(&objects, Object::Attr(u));
    assert_ne!(d_st, Storage::Node, "d: {d_st:?}");
    assert_ne!(u_st, Storage::Node, "u: {u_st:?}");

    // Build a DAG: ONE leaf node used as both children.
    let mut tb = TreeBuilder::new(&g);
    let shared = tb
        .node(g.production_by_name("leafa").unwrap(), &[])
        .unwrap();
    let root = tb
        .node(g.production_by_name("fork").unwrap(), &[shared, shared])
        .unwrap();
    let tree = tb.finish(root);

    // The optimized evaluator is correct: 1*2 + 5*2 = 12.
    let (got, _) = plan_evaluator(&g, &seqs, &fp, &plan)
        .evaluate(&tree, &RootInputs::new())
        .unwrap();
    let sroot = tree.root();
    assert_eq!(
        got.get(&g, sroot, g.attr_by_name(s, "out").unwrap()),
        Some(&Value::Int(12))
    );

    // The tree-storing evaluator collides on the shared node: the second
    // visit overwrites the first instance's cells — both reads then see
    // the *last* value (5*2), yielding 20. This is precisely why storing
    // attributes out of the tree makes DAGs free.
    let plain = Evaluator::new(&g, &seqs);
    let (vals, _) = plain.evaluate(&tree, &RootInputs::new()).unwrap();
    assert_eq!(
        vals.get(&g, sroot, g.attr_by_name(s, "out").unwrap()),
        Some(&Value::Int(20)),
        "node storage cannot tell the two instances apart"
    );
}
