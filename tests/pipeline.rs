//! End-to-end pipeline tests across the whole corpus: classification,
//! visit-sequence generation, space planning, evaluation, translators, and
//! the companion processors — the full Figure 2 wiring.

use fnc2::analysis::{AgClass, Inclusion};
use fnc2::visit::RootInputs;
use fnc2::Pipeline;
use fnc2_corpus as corpus;

#[test]
fn every_evaluable_corpus_grammar_compiles_and_runs() {
    let grammars = vec![
        corpus::binary(),
        corpus::desk(),
        corpus::blocks(),
        corpus::minipascal().0,
        corpus::snc_only(),
        corpus::oag1_not_oag0(),
        corpus::dnc_not_oag(3),
    ];
    for g in grammars {
        let name = g.name().to_string();
        let compiled = Pipeline::new()
            .compile(g)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(
            compiled.report.transform.is_some(),
            "{name}: transform stats"
        );
        let space = compiled.report.space.as_ref().expect("space stats");
        assert_eq!(
            space.occ_total(),
            compiled
                .grammar
                .productions()
                .map(|p| compiled.grammar.occurrences(p).len())
                .sum::<usize>(),
            "{name}: occurrence accounting"
        );
    }
}

#[test]
fn synthetic_profiles_compile_and_evaluate() {
    for p in &corpus::TABLE1_PROFILES {
        let g = corpus::synthetic(p);
        let compiled = Pipeline::new()
            .compile(g)
            .unwrap_or_else(|e| panic!("{}: {e}", p.name));
        let tree = corpus::synthetic_tree(&compiled.grammar, p, 300, 42);
        let (plain, stats) = compiled.evaluate(&tree, &RootInputs::new()).unwrap();
        assert!(stats.evals > 0, "{}", p.name);
        let (opt, _) = compiled
            .evaluate_optimized(&tree, &RootInputs::new())
            .unwrap();
        // Root outputs agree between plain and optimized.
        let root_ph = compiled.grammar.root();
        for attr in compiled.grammar.synthesized(root_ph) {
            assert_eq!(
                plain.get(&compiled.grammar, tree.root(), attr),
                opt.get(&compiled.grammar, tree.root(), attr),
                "{}: root attr {}",
                p.name,
                compiled.grammar.attr(attr).name()
            );
        }
        // The optimizer stores a solid majority of occurrences out of the
        // tree (the paper's §4.1 shape).
        let space = compiled.report.space.as_ref().unwrap();
        assert!(
            space.pct_node() < 50.0,
            "{}: {:.0}% left at nodes",
            p.name,
            space.pct_node()
        );
    }
}

#[test]
fn instrumented_pipeline_reports_phases_and_rule_firings() {
    use fnc2::obs::{Event, Obs};

    // The doc-comment `count` grammar from the fnc2 crate root.
    let source = r#"
        attribute grammar count;
          phylum S;
          operator leaf : S ::= ;
          operator node : S ::= S;
          synthesized n : int of S;
          for leaf { S.n := 0; }
          for node { S$1.n := S$2.n + 1; }
        end
    "#;
    let mut obs = Obs::with_trace(256);
    let compiled = Pipeline::new()
        .compile_olga_recorded(source, &mut obs)
        .unwrap();

    // Every Figure-3 cascade stage shows up, in order, with the analysis
    // sub-phases nested one level deep.
    let phases: Vec<(&str, usize)> = obs
        .tracer
        .phases()
        .iter()
        .map(|s| (s.name, s.depth))
        .collect();
    assert_eq!(
        phases,
        vec![
            ("olga.parse", 0),
            ("olga.check", 0),
            ("olga.lower", 0),
            ("analysis", 0),
            ("analysis.snc", 1),
            ("analysis.dnc", 1),
            ("analysis.oag", 1),
            ("analysis.transform", 1),
            ("lint", 0),
            ("visit.sequences", 0),
            ("space.analysis", 0),
        ]
    );

    // Evaluating a small tree under the tracer fires semantic rules.
    let mut tb = fnc2::ag::TreeBuilder::new(&compiled.grammar);
    let a = tb.op("leaf", &[]).unwrap();
    let b = tb.op("node", &[a]).unwrap();
    let tree = tb.finish_root(b).unwrap();
    let (_, stats) = compiled
        .evaluate_recorded(&tree, &RootInputs::new(), &mut obs)
        .unwrap();
    let fired = obs
        .events
        .as_ref()
        .unwrap()
        .count_matching(|e| matches!(e, Event::RuleFired { .. }));
    assert!(fired > 0, "no RuleFired events captured");
    assert_eq!(fired as u64, obs.metrics.counter("eval.evals"));
    assert_eq!(stats.evals as u64, obs.metrics.counter("eval.evals"));
}

#[test]
fn classes_match_the_table1_ladder() {
    use corpus::TargetClass;
    for p in &corpus::TABLE1_PROFILES {
        let g = corpus::synthetic(p);
        let c = fnc2::analysis::classify(&g, 1, Inclusion::Long).unwrap();
        let want = match p.class {
            TargetClass::Oag0 => AgClass::Oag0,
            TargetClass::Oag1 => AgClass::OagK(1),
            TargetClass::Dnc => AgClass::Dnc,
            TargetClass::SncOnly => AgClass::Snc,
        };
        assert_eq!(c.class, want, "{}", p.name);
    }
}

#[test]
fn translators_cover_the_corpus_olga_ags() {
    // Generate C for the mini-Pascal AG; the text is structurally
    // complete, and the system C compiler, when present, accepts it.
    let units = fnc2::olga::parse_units(corpus::MINIPASCAL_OLGA).unwrap();
    let checked = fnc2::olga::check_units(units).unwrap();
    let env = checked.env.clone();
    let (grammar, _, rules) = fnc2::olga::lower(checked).unwrap();
    let compiled = Pipeline::new().compile(grammar).unwrap();
    let c = fnc2::codegen::to_c(&env, &rules, &compiled.grammar, &compiled.seqs);
    assert!(c.contains("evaluate_root"));
    assert_eq!(c.matches('{').count(), c.matches('}').count());
    // Every function reads its parameters, not constants of their names.
    let prog = &env.program;
    for f in env.reach().0 {
        let fun = &prog.funcs[f];
        let start = c.rfind(&format!("static V f{f}_{}(", fun.name)).unwrap();
        let def = &c[start..start + c[start..].find("\n}\n").unwrap()];
        for param in &fun.params {
            assert!(def.contains(&format!("u_{param}")), "{def}");
            for (k, _) in prog
                .consts
                .iter()
                .enumerate()
                .filter(|(_, c)| c.0 == *param)
            {
                assert!(!def.contains(&format!("c{k}_{param}")), "{def}");
            }
        }
    }
    let cc = || std::process::Command::new("cc");
    if cc().arg("--version").output().is_ok() {
        let dir = std::env::temp_dir().join("fnc2_pipeline_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("minipascal.c");
        std::fs::write(&path, &c).unwrap();
        let out = cc()
            .args(["-std=c99", "-fsyntax-only", "-Wno-unused-function"])
            .arg(&path)
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "cc rejected the mini-Pascal C:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}

#[test]
fn long_inclusion_never_worse_than_equality() {
    // On every corpus grammar the long-inclusion transformation registers
    // at most as many partitions (and plans) as the classical one.
    let grammars = vec![
        corpus::binary(),
        corpus::desk(),
        corpus::blocks(),
        corpus::minipascal().0,
        corpus::snc_only(),
        corpus::synthetic(&corpus::TABLE1_PROFILES[4]),
    ];
    for g in grammars {
        let snc = fnc2::analysis::snc_test(&g);
        assert!(snc.is_snc(), "{}", g.name());
        let long = fnc2::analysis::snc_to_l_ordered(&g, &snc, Inclusion::Long).unwrap();
        let eq = fnc2::analysis::snc_to_l_ordered(&g, &snc, Inclusion::Equality).unwrap();
        assert!(
            long.stats.partitions_per_phylum.iter().sum::<usize>()
                <= eq.stats.partitions_per_phylum.iter().sum::<usize>(),
            "{}: {:?} vs {:?}",
            g.name(),
            long.stats.partitions_per_phylum,
            eq.stats.partitions_per_phylum
        );
        assert!(long.stats.plans <= eq.stats.plans, "{}", g.name());
    }
}

#[test]
fn real_grammars_have_no_unused_or_useless_symbols() {
    use fnc2::lint::Code;
    let useless = [
        Code::UnusedAttribute,
        Code::UnreachableProduction,
        Code::UnderivablePhylum,
    ];
    for g in [corpus::binary(), corpus::desk(), corpus::minipascal().0] {
        let report = fnc2::lint::lint_grammar(&g, None);
        let found: Vec<_> = report
            .diags
            .iter()
            .filter(|d| useless.contains(&d.code))
            .collect();
        assert!(found.is_empty(), "{}: {found:?}", g.name());
    }
}

/// A 64-deep chain declared against each grammar flow's direction: the
/// productions come root first, so the bottom-up flows (derivation heights,
/// the NC test's graph sets, FIRST) meet the leaf last, and the inherited
/// attribute that carries the value down makes liveness climb back up
/// against the declaration order. Every flow must still reach its
/// fixpoint.
#[test]
fn a_chain_declared_against_every_flow_reaches_each_fixpoint() {
    use fnc2::ag::{GrammarBuilder, Occ, Value};
    use fnc2::lint::Code;
    use fnc2::syntax::{n, t, Action, Cfg, CfgRule, Ll1Parser};
    const DEPTH: usize = 64;
    let mut g = GrammarBuilder::new("chain");
    let r = g.phylum("R");
    let out = g.syn(r, "out");
    let xs: Vec<_> = (0..DEPTH).map(|k| g.phylum(format!("X{k}"))).collect();
    let s: Vec<_> = xs.iter().map(|&x| g.syn(x, "s")).collect();
    let i: Vec<_> = xs.iter().map(|&x| g.inh(x, "i")).collect();
    let top = g.production("top", r, &[xs[0]]);
    g.copy(top, Occ::lhs(out), Occ::new(1, s[0]));
    g.constant(top, Occ::new(1, i[0]), Value::Int(0));
    for k in 0..DEPTH - 1 {
        let step = g.production(format!("step{k}"), xs[k], &[xs[k + 1]]);
        g.copy(step, Occ::lhs(s[k]), Occ::new(1, s[k + 1]));
        g.copy(step, Occ::new(1, i[k + 1]), Occ::lhs(i[k]));
    }
    let leaf = g.production("leaf", xs[DEPTH - 1], &[]);
    g.copy(leaf, Occ::lhs(s[DEPTH - 1]), Occ::lhs(i[DEPTH - 1]));
    let g = g.finish().unwrap();

    let tree = fnc2::smoke_tree(&g).expect("the chain derives a tree");
    let deepest = tree.preorder().map(|(_, depth)| depth).max();
    assert_eq!(deepest, Some(DEPTH));

    let report = fnc2::lint::lint_grammar(&g, None);
    let useless = [
        Code::UnusedAttribute,
        Code::DeadRule,
        Code::UnreachableProduction,
        Code::UnderivablePhylum,
    ];
    let found: Vec<_> = report
        .diags
        .iter()
        .filter(|d| useless.contains(&d.code))
        .collect();
    assert!(found.is_empty(), "{found:?}");

    assert!(fnc2::analysis::nc_test(&g, 4).is_nc());

    let rule = |lhs: String, rhs, operator: String| CfgRule {
        lhs,
        rhs,
        action: Action::Node {
            operator,
            token_from: None,
        },
    };
    let mut rules = vec![rule("R".into(), vec![n("X0")], "top".into())];
    for k in 0..DEPTH - 1 {
        let next = format!("X{}", k + 1);
        rules.push(rule(format!("X{k}"), vec![n(&next)], format!("step{k}")));
    }
    rules.push(rule(format!("X{}", DEPTH - 1), vec![t("x")], "leaf".into()));
    let cfg = Cfg {
        start: "R".into(),
        rules,
    };
    let parser = Ll1Parser::new(cfg).unwrap();
    assert!(parser.first_of("R").unwrap().contains("x"));
    let spec = fnc2::syntax::ScannerSpec::new(&["x"], &[] as &[&str]);
    let tokens = fnc2::syntax::scan(&spec, "x").unwrap();
    assert_eq!(parser.parse(&g, &tokens).unwrap().size(), DEPTH + 1);
}

#[test]
fn visit_overhead_of_long_inclusion_is_small() {
    // §2.1.1: partition replacement "tends to increase the number of
    // visits", but "on all the practical AGs we have used, this increase
    // is less than 2% in average". Measure dynamically on the corpus.
    for g in [
        corpus::binary(),
        corpus::desk(),
        corpus::blocks(),
        corpus::minipascal().0,
    ] {
        let name = g.name().to_string();
        let snc = fnc2::analysis::snc_test(&g);
        let long = fnc2::analysis::snc_to_l_ordered(&g, &snc, Inclusion::Long).unwrap();
        let eq = fnc2::analysis::snc_to_l_ordered(&g, &snc, Inclusion::Equality).unwrap();
        let seqs_long = fnc2::visit::build_visit_seqs(&g, &long);
        let seqs_eq = fnc2::visit::build_visit_seqs(&g, &eq);
        let tree = match name.as_str() {
            "binary" => corpus::binary_tree(&g, "110101101.0101"),
            "desk" => {
                // reuse the static evaluator corpus path via a quick tree
                corpus::binary_tree(&corpus::binary(), "1");
                // build a small desk tree inline
                let mut tb = fnc2::ag::TreeBuilder::new(&g);
                let l = tb
                    .node_with_token(
                        g.production_by_name("lit").unwrap(),
                        &[],
                        Some(fnc2::ag::Value::Int(4)),
                    )
                    .unwrap();
                let r = tb.op("prog", &[l]).unwrap();
                tb.finish_root(r).unwrap()
            }
            "blocks" => corpus::blocks_tree(&g, "d:a u:a [ d:b u:b u:a ]"),
            _ => corpus::parse_minipascal(&g, &corpus::sample_program(4)).unwrap(),
        };
        let (_, s1) = fnc2::visit::Evaluator::new(&g, &seqs_long)
            .evaluate(&tree, &RootInputs::new())
            .unwrap();
        let (_, s2) = fnc2::visit::Evaluator::new(&g, &seqs_eq)
            .evaluate(&tree, &RootInputs::new())
            .unwrap();
        let overhead = s1.visits as f64 / s2.visits as f64;
        assert!(
            overhead <= 1.02,
            "{name}: visit overhead {overhead:.3} ({} vs {})",
            s1.visits,
            s2.visits
        );
    }
}

/// On these generated grammars a stack's final simulation rejects a
/// rename while several are tentative, so the plan depends on which one
/// the planner drops (the smallest). Pinned with the FNV-1a plan digest of
/// `crates/space/tests/storage.rs`, which no corpus grammar or Table 1
/// profile exercises this way.
#[test]
fn rename_retries_keep_their_pinned_plans() {
    for (case, want) in [
        (13, 0xb4a0_258e_b91c_26c5_u64),
        (56, 0xc245_2b68_4627_b709),
        (118, 0x496b_9dc5_908b_9dc5),
    ] {
        let g = fnc2::fuzz::gen::build_grammar(&fnc2::fuzz::CaseParams::for_case(0, case)).grammar;
        let c = fnc2::analysis::classify(&g, 1, Inclusion::Long).unwrap();
        let seqs = fnc2::visit::build_visit_seqs(&g, &c.l_ordered.unwrap());
        let plan = fnc2::space::analyze_space(&g, &seqs).3;
        let keys = seqs.keys();
        let access: Vec<_> = keys.iter().zip(&plan.access).collect();
        let text = format!(
            "{:?} {} {} {:?} {access:?} {:?}",
            plan.storage, plan.n_variables, plan.n_stacks, plan.eliminated, plan.stats
        );
        let got = text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        });
        assert_eq!(got, want, "fuzz case {case}: plan digest {got:#018x}");
    }
}
