//! Integration tests: generate C and Lisp for a real AG; the C text is
//! syntax-checked with the system compiler when one is available.

use std::process::Command;

use fnc2_analysis::{snc_test, snc_to_l_ordered, Inclusion};
use fnc2_codegen::{to_c, to_lisp};
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

/// Lowers `src` and translates it to C and to Lisp.
fn translate(src: &str) -> (String, String) {
    let checked = check_units(parse_units(src).unwrap()).unwrap();
    let (grammar, _, rules) = lower(&checked).unwrap();
    let snc = snc_test(&grammar);
    assert!(snc.is_snc());
    let lo = snc_to_l_ordered(&grammar, &snc, Inclusion::Long).unwrap();
    let seqs = build_visit_seqs(&grammar, &lo);
    let c = to_c(&checked.env, &rules, &grammar, &seqs);
    let l = to_lisp(&checked.env, &rules, &grammar, &seqs);
    (c, l)
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

#[test]
fn c_translation_is_complete_and_compiles() {
    let (c, _) = translate(DESK);
    // Structural checks.
    assert!(c.contains("static V f_get(V e, V k)"));
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

#[test]
fn lisp_translation_is_balanced() {
    let (_, l) = translate(DESK);
    assert!(l.contains("(defun f-get ("));
    assert!(l.contains("(defun visit "));
    assert!(l.contains("evaluate-root"));
    // Balanced parentheses outside strings.
    let mut depth: i64 = 0;
    let mut in_str = false;
    let mut prev = ' ';
    for ch in l.chars() {
        match ch {
            '"' if prev != '\\' => in_str = !in_str,
            '(' if !in_str => depth += 1,
            ')' if !in_str => depth -= 1,
            _ => {}
        }
        assert!(depth >= 0, "unbalanced parens");
        prev = ch;
    }
    assert_eq!(depth, 0, "unbalanced parens at end");
}

#[test]
fn lisp_reads_locals_from_the_node() {
    let (_, l) = translate(DESK);
    assert!(
        l.contains("(length (aref (node-locals node) 0))"),
        "`banner` is read from the node:\n{l}"
    );
    assert!(!l.contains("c-banner"), "`banner` is no constant:\n{l}");
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
    let (c, _) = translate(TWO_PHASES);
    assert!(!c.contains("unreachable"), "{c}");
    for line in [
        "n->locals[0] = rule_leaf_local_x(n->token);",
        "n->attrs[0] = rule_leaf_p0_a(n->locals[0]);",
        "n->locals[1] = rule_leaf_local_y(n->token);",
        "n->attrs[1] = rule_leaf_p0_b(n->locals[1]);",
    ] {
        assert!(c.contains(line), "missing `{line}` in:\n{c}");
    }
    assert_cc_accepts("two", &c);
}

#[test]
fn same_named_locals_of_two_phases_get_their_own_functions() {
    let (c, l) = translate(
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
        "n->locals[0] = rule_leaf_local0_x();",
        "n->attrs[0] = rule_leaf_p0_a(n->locals[0]);",
        "n->locals[1] = rule_leaf_local1_x();",
        "n->attrs[1] = rule_leaf_p0_b(n->locals[1]);",
    ] {
        assert!(c.contains(line), "missing `{line}` in:\n{c}");
    }
    assert_cc_accepts("dup", &c);
    assert!(l.contains("(defun rule-leaf-local0-x (node)\n  20)"), "{l}");
    assert!(l.contains("(defun rule-leaf-local1-x (node)\n  30)"), "{l}");
}

#[test]
fn lisp_prints_control_characters_as_string_contents() {
    // A leading U+0001 is string content, never code to splice.
    let (_, l) = translate(
        "attribute grammar inject;
           phylum S;
           operator leaf : S ::= ;
           synthesized s : string of S;
           for leaf {
             S.s := case \"\u{1}(f)\" of \"\u{1}(g)\" => \"\" | _ => \"\u{1}(delete-file \\\"x\\\")\" ++ \"!\" end;
           }
         end",
    );
    assert!(
        l.contains("(v-append \"\u{1}(delete-file \\\"x\\\")\" \"!\")"),
        "{l}"
    );
    assert!(l.contains("(equal scrutinee \"\u{1}(g)\")"), "{l}");
    assert!(!l.contains("(delete-file \"x\")"), "{l}");
}

#[test]
fn lisp_remainder_truncates_like_olga_and_c() {
    // OLGA's `%` is Rust's `wrapping_rem` and C's `v_mod` is `%`: both
    // give -1 for -7 % 2, which is Lisp's `rem`, not `mod`.
    let (c, l) = translate(
        "attribute grammar r;
           phylum S;
           operator leaf : S ::= ;
           synthesized v : int of S;
           for leaf { S.v := token() % 2; }
         end",
    );
    assert!(c.contains("v_mod(o0, mk_int(2))"), "{c}");
    assert!(l.contains("(rem (node-token node) 2)"), "{l}");
}

#[test]
fn tail_recursive_function_becomes_a_loop_in_c() {
    let (c, _) = translate(
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
    let (c, l) = translate(
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
    assert!(l.contains("v-append") || l.contains("(+ "));
}
