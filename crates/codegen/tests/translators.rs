//! Integration tests: generate C for real AGs; the C text is syntax-checked
//! with the system compiler when one is available.

use std::process::Command;

use fnc2_analysis::{snc_test, snc_to_l_ordered, Inclusion};
use fnc2_codegen::to_c;
use fnc2_olga::{check_units, lower, parse_units};
use fnc2_visit::build_visit_seqs;

const DESK: &str = r#"
attribute grammar desk;
  phylum Prog, Expr;
  root Prog;
  operator prog : Prog ::= Expr;
  operator add  : Expr ::= Expr Expr;
  operator lit  : Expr ::= ;
  operator var  : Expr ::= ;
  synthesized value : int of Prog, Expr;
  inherited env : map of int of Expr;
  function get(e : map of int, k : string) : int =
    if bound(e, k) then lookup(e, k) else error("unbound " ++ k) end;
  function classify(l : list of int) : string =
    case l of [] => "none" | x :: [] => itoa(x) | _ :: _ => "many" end;
  for prog {
    Expr.env := insert(empty_map(), "x", 10);
    local banner : string := classify([1]);
    Prog.value := Expr.value + strlen(banner) - 1;
  }
  for add { Expr$1.value := Expr$2.value + Expr$3.value; }
  for lit { Expr.value := token(); }
  for var { Expr.value := get(Expr.env, token()); }
end
"#;

/// Lowers `src` and translates it to C.
fn translate(src: &str) -> String {
    let checked = check_units(parse_units(src).unwrap()).unwrap();
    let env = checked.env.clone();
    let (grammar, _, rules) = lower(checked).unwrap();
    let snc = snc_test(&grammar);
    assert!(snc.is_snc());
    let lo = snc_to_l_ordered(&grammar, &snc, Inclusion::Long).unwrap();
    let seqs = build_visit_seqs(&grammar, &lo);
    to_c(&env, &rules, &grammar, &seqs)
}

/// Syntax-checks `c` with the system C compiler when one is present.
fn assert_cc_accepts(name: &str, c: &str) {
    if Command::new("cc").arg("--version").output().is_err() {
        return;
    }
    let dir = std::env::temp_dir().join("fnc2_codegen_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{name}.c"));
    std::fs::write(&path, c).unwrap();
    let out = Command::new("cc")
        .args(["-std=c99", "-fsyntax-only", "-Wno-unused-function"])
        .arg(&path)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "cc rejected the generated C:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// Compiles `c` with a `main` that prints the integer `call` returns,
/// runs it and returns its output; `None` without a C compiler.
fn run_c(name: &str, c: &str, call: &str) -> Option<String> {
    if Command::new("cc").arg("--version").output().is_err() {
        return None;
    }
    let dir = std::env::temp_dir().join("fnc2_codegen_test");
    std::fs::create_dir_all(&dir).unwrap();
    let (path, exe) = (dir.join(format!("{name}.c")), dir.join(name));
    let main = format!(
        "#undef main\nint main(void) {{ init_consts(); printf(\"%ld\", {call}.u.i); return 0; }}\n"
    );
    std::fs::write(&path, format!("{c}{main}")).unwrap();
    let out = Command::new("cc")
        .args(["-std=c99", "-Dmain=generated_main", "-o"])
        .args([&exe, &path])
        .output()
        .unwrap();
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "cc rejected the C:\n{err}");
    let out = Command::new(&exe).output().unwrap();
    Some(String::from_utf8(out.stdout).unwrap())
}

#[test]
fn c_translation_is_complete_and_compiles() {
    let c = translate(DESK);
    // Structural checks.
    assert!(c.contains("static V f0_get(V u_e, V u_k)"));
    assert!(c.contains("evaluate_root"));
    assert!(c.contains("visit_prog_pi0_v1"));
    assert!(c.contains("n->kids[0]"));
    assert!(c.contains("no garbage collector"));
    // Balanced braces.
    let open = c.matches('{').count();
    let close = c.matches('}').count();
    assert_eq!(open, close, "unbalanced braces");
    assert_cc_accepts("desk", &c);
}

/// Two phases, each with its own local for `leaf`.
const TWO_PHASES: &str = r#"
attribute grammar two;
  phylum S;
  root S;
  operator leaf : S ::= ;
  synthesized a : int of S;
  synthesized b : int of S;
  phase one { for leaf { local x : int := token() + 20; S.a := x + 1; } }
  phase two { for leaf { local y : int := token() * 30; S.b := y + 2; } }
end
"#;

#[test]
fn c_computes_the_locals_of_every_phase() {
    let c = translate(TWO_PHASES);
    assert!(!c.contains("unreachable"), "{c}");
    for line in [
        "n->locals[0] = rule0_leaf_local_x(n->token);",
        "n->attrs[0] = rule0_leaf_p0_a(n->locals[0]);",
        "n->locals[1] = rule0_leaf_local_y(n->token);",
        "n->attrs[1] = rule0_leaf_p0_b(n->locals[1]);",
    ] {
        assert!(c.contains(line), "missing `{line}` in:\n{c}");
    }
    assert_cc_accepts("two", &c);
}

#[test]
fn same_named_locals_of_two_phases_get_their_own_functions() {
    let c = translate(
        "attribute grammar dup;
           phylum S;
           operator leaf : S ::= ;
           synthesized a : int of S;
           synthesized b : int of S;
           phase one { for leaf { local x : int := 20; S.a := x + 1; } }
           phase two { for leaf { local x : int := 30; S.b := x + 2; } }
         end",
    );
    for line in [
        "n->locals[0] = rule0_leaf_local0_x();",
        "n->attrs[0] = rule0_leaf_p0_a(n->locals[0]);",
        "n->locals[1] = rule0_leaf_local1_x();",
        "n->attrs[1] = rule0_leaf_p0_b(n->locals[1]);",
    ] {
        assert!(c.contains(line), "missing `{line}` in:\n{c}");
    }
    assert_cc_accepts("dup", &c);
}

#[test]
fn tail_recursive_function_becomes_a_loop_in_c() {
    let c = translate(
        r#"
attribute grammar t;
  phylum S;
  operator leaf : S ::= ;
  synthesized v : int of S;
  function count(l : list of int, acc : int) : int =
    case l of [] => acc | _ :: r => count(r, acc + 1) end;
  for leaf { S.v := count([1, 2, 3], 0); }
end
"#,
    );
    assert!(
        c.contains("tail-recursion eliminated"),
        "expected TCO marker in:\n{c}"
    );
}

#[test]
fn model_rules_translate_to_c() {
    let c = translate(
        r#"
attribute grammar modeled;
  phylum Prog, Stmts, Stmt;
  root Prog;
  operator prog : Prog ::= Stmts;
  operator cons : Stmts ::= Stmt Stmts;
  operator nil  : Stmts ::= ;
  operator one  : Stmt ::= ;
  synthesized count : int of Prog, Stmts, Stmt with sum;
  synthesized names : list of string of Prog, Stmts, Stmt with concat;
  threaded lab : int of Stmts, Stmt;
  for prog { Stmts.lab_in := 0; }
  for nil { Stmts.count := 0; Stmts.names := []; }
  for one { Stmt.count := 1; Stmt.names := ["x"]; Stmt.lab_out := Stmt.lab_in + 1; }
end
"#,
    );
    assert!(
        c.contains("v_add") || c.contains("v_append"),
        "model folds inlined"
    );
    assert!(
        !c.contains("unreachable: computed rules"),
        "all rules emitted"
    );
    assert_cc_accepts("modeled", &c);
}

/// User names print as `u_<name>`, apart from the temporaries, the prelude
/// and the constants: parameters and binders named like temporaries, like
/// C keywords and prelude names, and like a constant's C name.
#[test]
fn user_names_have_their_own_c_namespace() {
    let ag = |name: &str, decls: &str, value: &str| {
        translate(&format!(
            "attribute grammar {name};
               phylum S;
               operator leaf : S ::= ;
               synthesized v : int of S;
               {decls}
               for leaf {{ S.v := {value}; }}
             end"
        ))
    };
    let temps = ag(
        "temps",
        "function f(t1 : int) : int = let t2 = t1 + 1 in t2 * 2 end;",
        "f(1)",
    );
    assert!(temps.contains("static V f0_f(V u_t1) {"), "{temps}");
    assert_cc_accepts("temps", &temps);
    let reserved = ag(
        "reserved",
        "function h(static : int, V : int, mk_int : int) : int = static + V + mk_int;",
        "h(1, 2, 3)",
    );
    assert_cc_accepts("reserved", &reserved);
    let consts = ag(
        "consts",
        "const y : int = 5; function g(c0_y : int) : int = c0_y + y;",
        "g(100)",
    );
    assert!(consts.contains("return v_add(u_c0_y, c0_y);"), "{consts}");
    if let Some(out) = run_c("consts", &consts, "f0_g(mk_int(100))") {
        assert_eq!(out, "105");
    }
}

/// Two modules each keep a private `helper` that their export calls; the C
/// names functions by id, so each export calls its own.
#[test]
fn same_named_private_functions_of_two_modules_keep_apart() {
    let c = translate(
        "module m1; export f1;
           function helper(x : int) : int = x + 1;
           function f1(x : int) : int = helper(x);
         end
         module m2; export f2;
           function helper(x : int) : int = x * 100;
           function f2(x : int) : int = helper(x);
         end
         attribute grammar both;
           import f1 from m1;
           import f2 from m2;
           phylum S;
           operator leaf : S ::= ;
           synthesized v : int of S;
           for leaf { S.v := f1(5) + f2(5); }
         end",
    );
    assert!(c.contains("return f0_helper(u_x);"), "{c}");
    assert!(c.contains("return f2_helper(u_x);"), "{c}");
    if let Some(out) = run_c("helpers", &c, "f3_f2(mk_int(5))") {
        assert_eq!(out, "500");
    }
}

/// Rule functions of two operators whose names, joined with `_`, read
/// alike: `a`'s `S.p0_x` and `a_p0`'s `S.x`.
#[test]
fn rule_function_names_are_injective() {
    let c = translate(
        "attribute grammar clash;
           phylum S;
           operator a : S ::= ;
           operator a_p0 : S ::= ;
           synthesized x : int of S;
           synthesized p0_x : int of S;
           for a { S.x := token() + 1; S.p0_x := token() + 2; }
           for a_p0 { S.x := token() + 3; S.p0_x := token() + 4; }
         end",
    );
    let defs: Vec<&str> = c
        .lines()
        .filter(|l| l.starts_with("static V rule"))
        .collect();
    assert_eq!(defs.len(), 4, "{c}");
    for (i, d) in defs.iter().enumerate() {
        assert!(!defs[..i].contains(d), "`{d}` twice in:\n{c}");
    }
    assert_cc_accepts("clash", &c);
}
