//! OLGA language-level integration tests: phases, nested constructs,
//! diagnostics quality, and end-to-end compilation corners.

use fnc2_olga::ast::Unit;
use fnc2_olga::{compile_ag_source, parse_unit, Compiler, OlgaError};

#[test]
fn rules_merge_across_phases() {
    // One operator's rules split over two phases (paper §2.4: "a given
    // production may appear in several phases or not at all").
    let (g, _) = compile_ag_source(
        r#"
        attribute grammar phased;
          phylum S, A;
          operator mk : S ::= A;
          operator leaf : A ::= ;
          synthesized v : int of S;
          synthesized w : int of A;
          inherited seed : int of A;
          phase down {
            for mk { A.seed := 10; }
          }
          phase up {
            for mk { S.v := A.w; }
            for leaf { A.w := A.seed * 2; }
          }
        end
        "#,
    )
    .unwrap();
    let mk = g.production_by_name("mk").unwrap();
    assert_eq!(g.production(mk).rules().len(), 2);
    // Evaluate: v = 20.
    let c = fnc2_analysis::classify(&g, 1, fnc2_analysis::Inclusion::Long).unwrap();
    let seqs = fnc2_visit::build_visit_seqs(&g, &c.l_ordered.unwrap());
    let ev = fnc2_visit::Evaluator::new(&g, &seqs);
    let mut tb = fnc2_ag::TreeBuilder::new(&g);
    let leaf = tb.op("leaf", &[]).unwrap();
    let root = tb.op("mk", &[leaf]).unwrap();
    let tree = tb.finish_root(root).unwrap();
    let (vals, _) = ev.evaluate(&tree, &Default::default()).unwrap();
    let s = g.phylum_by_name("S").unwrap();
    let v = g.attr_by_name(s, "v").unwrap();
    assert_eq!(vals.get(&g, tree.root(), v), Some(&fnc2_ag::Value::Int(20)));
}

#[test]
fn duplicate_rule_across_phases_is_rejected() {
    let err = compile_ag_source(
        r#"
        attribute grammar dup;
          phylum S;
          operator leaf : S ::= ;
          synthesized v : int of S;
          phase one { for leaf { S.v := 1; } }
          phase two { for leaf { S.v := 2; } }
        end
        "#,
    )
    .unwrap_err();
    assert!(err.to_string().contains("defined twice"), "{err}");
}

#[test]
fn nested_control_flow_parses_and_types() {
    let (g, _) = compile_ag_source(
        r#"
        attribute grammar nested;
          phylum S;
          operator leaf : S ::= ;
          synthesized v : int of S;
          function collatz(n : int, fuel : int) : int =
            if fuel = 0 then n
            else if n % 2 = 0 then collatz(n / 2, fuel - 1)
            else collatz(3 * n + 1, fuel - 1) end end;
          function classify(l : list of tuple(int, string)) : string =
            case l of
              [] => "none"
            | (k, name) :: rest =>
                if k > 0 then name else classify(rest) end
            end;
          for leaf {
            local pairs : list of tuple(int, string) :=
              [(0, "zero"), (collatz(7, 100), "seven")];
            S.v := strlen(classify(pairs));
          }
        end
        "#,
    )
    .unwrap();
    let c = fnc2_analysis::classify(&g, 1, fnc2_analysis::Inclusion::Long).unwrap();
    let seqs = fnc2_visit::build_visit_seqs(&g, &c.l_ordered.unwrap());
    let ev = fnc2_visit::Evaluator::new(&g, &seqs);
    let mut tb = fnc2_ag::TreeBuilder::new(&g);
    let n = tb.op("leaf", &[]).unwrap();
    let tree = tb.finish_root(n).unwrap();
    let (vals, _) = ev.evaluate(&tree, &Default::default()).unwrap();
    let s = g.phylum_by_name("S").unwrap();
    let v = g.attr_by_name(s, "v").unwrap();
    // collatz(7) reaches 1 within fuel → classify yields "seven" → 5.
    assert_eq!(vals.get(&g, tree.root(), v), Some(&fnc2_ag::Value::Int(5)));
}

#[test]
fn error_positions_are_precise() {
    // Line/column of the offending token, not just "error".
    let err = compile_ag_source(
        "attribute grammar g;\n  phylum S;\n  operator leaf : S ::= ;\n  synthesized v : int of S;\n  for leaf { S.v := \"x\" + 1; }\nend",
    )
    .unwrap_err();
    let msg = err.to_string();
    assert!(msg.starts_with("5:"), "{msg}");
    assert!(msg.contains("`+`"), "{msg}");
}

#[test]
fn case_arms_must_agree() {
    let err = compile_ag_source(
        r#"
        attribute grammar g;
          phylum S;
          operator leaf : S ::= ;
          synthesized v : int of S;
          function f(x : int) : int =
            case x of 0 => 1 | _ => "no" end;
          for leaf { S.v := f(0); }
        end
        "#,
    )
    .unwrap_err();
    assert!(err.to_string().contains("arms disagree"), "{err}");
}

#[test]
fn tuple_pattern_arity_checked() {
    let err = compile_ag_source(
        r#"
        attribute grammar g;
          phylum S;
          operator leaf : S ::= ;
          synthesized v : int of S;
          function f(p : tuple(int, int)) : int =
            case p of (a, b, c) => a end;
          for leaf { S.v := f((1, 2)); }
        end
        "#,
    )
    .unwrap_err();
    assert!(err.to_string().contains("tuple pattern"), "{err}");
}

#[test]
fn module_chains_resolve_transitively() {
    let src = r#"
        module base;
          export one;
          const one : int = 1;
        end
        module mid;
          import one from base;
          export two;
          const two : int = one + one;
        end
        attribute grammar top;
          import two from mid;
          phylum S;
          operator leaf : S ::= ;
          synthesized v : int of S;
          for leaf { S.v := two * 21; }
        end
    "#;
    let (g, _) = compile_ag_source(src).unwrap();
    let ev = fnc2_visit::DynamicEvaluator::new(&g);
    let mut tb = fnc2_ag::TreeBuilder::new(&g);
    let n = tb.op("leaf", &[]).unwrap();
    let tree = tb.finish_root(n).unwrap();
    let (vals, _) = ev.evaluate(&tree, &Default::default()).unwrap();
    let s = g.phylum_by_name("S").unwrap();
    let v = g.attr_by_name(s, "v").unwrap();
    assert_eq!(vals.get(&g, tree.root(), v), Some(&fnc2_ag::Value::Int(42)));
}

#[test]
fn import_of_missing_entity_reported_with_module_name() {
    let mut c = Compiler::new();
    let Unit::Module(m) = parse_unit("module m; export a; const a : int = 1; end").unwrap() else {
        panic!()
    };
    c.add_module(m).unwrap();
    let Unit::Module(bad) = parse_unit("module bad; import nope from m; end").unwrap() else {
        panic!()
    };
    let err = c.add_module(bad).unwrap_err();
    assert!(err.to_string().contains("does not export `nope`"), "{err}");
}

#[test]
fn ag_without_root_defaults_to_first_phylum() {
    let (g, _) = compile_ag_source(
        r#"
        attribute grammar g;
          phylum First, Second;
          operator fleaf : First ::= Second;
          operator sleaf : Second ::= ;
          synthesized v : int of First;
          synthesized w : int of Second;
          for fleaf { First.v := Second.w; }
          for sleaf { Second.w := 9; }
        end
        "#,
    )
    .unwrap();
    assert_eq!(g.phylum(g.root()).name(), "First");
}

#[test]
fn multiple_ags_in_one_source_rejected() {
    let err = compile_ag_source(
        "attribute grammar a; phylum S; operator l : S ::= ; synthesized v : int of S; for l { S.v := 1; } end\nattribute grammar b; phylum T; operator m : T ::= ; synthesized w : int of T; for m { T.w := 2; } end",
    )
    .unwrap_err();
    assert!(matches!(err, OlgaError::Parse(_)), "{err}");
}

/// Checks the source's attribute grammar and applies each named function
/// of its environment to 5.
fn apply_to_five(src: &str, want: &[(&str, i64)]) {
    let checked = fnc2_olga::check_units(fnc2_olga::parse_units(src).unwrap()).unwrap();
    let ctx = fnc2_olga::EvalCtx::new(&checked.env).unwrap();
    for &(f, v) in want {
        let got = ctx.apply(checked.env.funcs[f].id, vec![fnc2_ag::Value::Int(5)]);
        assert_eq!(got, Ok(fnc2_ag::Value::Int(v)), "{f}(5)");
    }
}

const HELPER_M1: &str = "module m1; export f1;
  function helper(x : int) : int = x + 1;
  function f1(x : int) : int = helper(x);
end";

#[test]
fn imported_functions_call_their_own_modules_private_helpers() {
    let src = format!(
        "{HELPER_M1}
        module m2; export f2;
          function helper(x : int) : int = x * 100;
          function f2(x : int) : int = helper(x);
        end
        attribute grammar both;
          import f1 from m1;
          import f2 from m2;
          phylum S; operator leaf : S ::= ; synthesized v : int of S;
          for leaf {{ S.v := f1(5) + f2(5); }}
        end"
    );
    apply_to_five(&src, &[("f1", 6), ("f2", 500)]);
}

#[test]
fn imported_functions_read_their_own_modules_private_constants() {
    apply_to_five(
        "module m1; export f1; const k : int = 1; function f1(x : int) : int = x + k; end
        module m2; export f2; const k : int = 100; function f2(x : int) : int = x + k; end
        attribute grammar both;
          import f1 from m1;
          import f2 from m2;
          phylum S; operator leaf : S ::= ; synthesized v : int of S;
          for leaf { S.v := f1(5) + f2(5); }
        end",
        &[("f1", 6), ("f2", 105)],
    );
}

#[test]
fn an_importer_may_name_its_own_function_like_a_private_helper() {
    let src = format!(
        "{HELPER_M1}
        attribute grammar own;
          import f1 from m1;
          phylum S; operator leaf : S ::= ; synthesized v : int of S;
          function helper(x : int) : int = x * 2;
          for leaf {{ S.v := f1(5) + helper(5); }}
        end"
    );
    apply_to_five(&src, &[("f1", 6), ("helper", 10)]);
}
