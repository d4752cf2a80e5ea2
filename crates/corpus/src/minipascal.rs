//! Mini-Pascal → P-code: the corpus flagship, mirroring the paper's
//! "compiler from full ISO Pascal to P-code" at reproduction scale.
//!
//! The attribute grammar is written in **OLGA** (exercising the whole
//! front-end), the concrete parser is generated by the `fnc2-syntax`
//! LL(1) substrate (the `aic`/SYNTAX path), and the generated evaluator
//! type-checks the program and emits stack code — including label
//! allocation threaded through the statement list as an inherited/
//! synthesized counter pair, the shape that exercises visit-sequence
//! scheduling and the space optimizer's stacks.

use std::sync::OnceLock;

use fnc2_ag::{Grammar, Tree};
use fnc2_olga::{compile_ag_source, LowerInfo};
use fnc2_syntax::{scan, Action, Cfg, Ll1Parser, ScannerSpec};

/// The OLGA source of the mini-Pascal compiler AG.
pub const MINIPASCAL_OLGA: &str = r#"
-- Mini-Pascal to P-code, after the paper's Pascal-to-P-code compiler.
module pcode;
  export emit1, emit2, lab;
  function emit1(op : string) : list of string = [op];
  function emit2(op : string, arg : string) : list of string = [op ++ " " ++ arg];
  function lab(n : int) : string = "L" ++ itoa(n);
end

attribute grammar minipascal;
  import emit1, emit2, lab from pcode;

  phylum Prog, Decls, Decl, Type, Stmts, Stmt, Expr;
  root Prog;

  operator program    : Prog ::= Decls Stmts;
  operator decls_cons : Decls ::= Decl Decls;
  operator decls_nil  : Decls ::= ;
  operator decl       : Decl ::= Type;
  operator tint       : Type ::= ;
  operator tbool      : Type ::= ;
  operator stmts_cons : Stmts ::= Stmt Stmts;
  operator stmts_nil  : Stmts ::= ;
  operator assign     : Stmt ::= Expr;
  operator sif        : Stmt ::= Expr Stmts Stmts;
  operator swhile     : Stmt ::= Expr Stmts;
  operator swrite     : Stmt ::= Expr;
  operator eadd       : Expr ::= Expr Expr;
  operator esub       : Expr ::= Expr Expr;
  operator emul       : Expr ::= Expr Expr;
  operator elt        : Expr ::= Expr Expr;
  operator eeq        : Expr ::= Expr Expr;
  operator enot       : Expr ::= Expr;
  operator elit       : Expr ::= ;
  operator etrue      : Expr ::= ;
  operator efalse     : Expr ::= ;
  operator evar       : Expr ::= ;

  type entry = tuple(int, string);
  type env = map of entry;

  synthesized defs : env of Decls;
  inherited  base : int of Decls;
  synthesized count : int of Decls;
  synthesized dname : string of Decl;
  synthesized dty : string of Decl;
  synthesized tname : string of Type;

  inherited  env : env of Stmts, Stmt, Expr;
  synthesized code : list of string of Prog, Stmts, Stmt, Expr;
  synthesized errs : list of string of Prog, Stmts, Stmt, Expr;
  synthesized ty : string of Expr;
  inherited  labin : int of Stmts, Stmt;
  synthesized labout : int of Stmts, Stmt;

  function addr(e : env, k : string) : int =
    if bound(e, k) then case lookup(e, k) of (a, _) => a end else 0 end;
  function tyof(e : env, k : string) : string =
    if bound(e, k) then case lookup(e, k) of (_, ty) => ty end else "?" end;
  function expect(got : string, want : string, what : string) : list of string =
    if got = want or got = "?" or want = "?" then []
    else [what ++ ": expected " ++ want ++ ", got " ++ got] end;

  for program {
    Decls.base := 0;
    Stmts.env := Decls.defs;
    Stmts.labin := 0;
    Prog.code := ["ENT " ++ itoa(Decls.count)] ++ Stmts.code ++ ["HLT"];
    Prog.errs := Stmts.errs;
  }
  for decls_cons {
    Decls$2.base := Decls$1.base + 1;
    Decls$1.defs := insert(Decls$2.defs, Decl.dname, (Decls$1.base, Decl.dty));
    Decls$1.count := Decls$2.count + 1;
  }
  for decls_nil {
    Decls.defs := empty_map();
    Decls.count := 0;
  }
  for decl { Decl.dname := token(); Decl.dty := Type.tname; }
  for tint { Type.tname := "int"; }
  for tbool { Type.tname := "bool"; }

  for stmts_cons {
    Stmt.labin := Stmts$1.labin;
    Stmts$2.labin := Stmt.labout;
    Stmts$1.labout := Stmts$2.labout;
    Stmts$1.code := Stmt.code ++ Stmts$2.code;
    Stmts$1.errs := Stmt.errs ++ Stmts$2.errs;
  }
  for stmts_nil {
    Stmts.code := [];
    Stmts.errs := [];
    Stmts.labout := Stmts.labin;
  }
  for assign {
    Stmt.code := Expr.code ++ emit2("STO", itoa(addr(Stmt.env, token())));
    Stmt.errs :=
      (if bound(Stmt.env, token()) then [] else ["undeclared " ++ token()] end)
      ++ expect(Expr.ty, tyof(Stmt.env, token()), "assignment to " ++ token())
      ++ Expr.errs;
    Stmt.labout := Stmt.labin;
  }
  for sif {
    Stmts$1.labin := Stmt.labin + 2;
    Stmts$2.labin := Stmts$1.labout;
    Stmt.labout := Stmts$2.labout;
    Stmt.code := Expr.code
      ++ emit2("JPC", lab(Stmt.labin))
      ++ Stmts$1.code
      ++ emit2("JMP", lab(Stmt.labin + 1))
      ++ emit2("LAB", lab(Stmt.labin))
      ++ Stmts$2.code
      ++ emit2("LAB", lab(Stmt.labin + 1));
    Stmt.errs := expect(Expr.ty, "bool", "if condition") ++ Expr.errs
      ++ Stmts$1.errs ++ Stmts$2.errs;
  }
  for swhile {
    Stmts.labin := Stmt.labin + 2;
    Stmt.labout := Stmts.labout;
    Stmt.code := emit2("LAB", lab(Stmt.labin))
      ++ Expr.code
      ++ emit2("JPC", lab(Stmt.labin + 1))
      ++ Stmts.code
      ++ emit2("JMP", lab(Stmt.labin))
      ++ emit2("LAB", lab(Stmt.labin + 1));
    Stmt.errs := expect(Expr.ty, "bool", "while condition") ++ Expr.errs ++ Stmts.errs;
  }
  for swrite {
    Stmt.code := Expr.code ++ emit1("WRI");
    Stmt.errs := Expr.errs;
    Stmt.labout := Stmt.labin;
  }

  for eadd {
    Expr$1.code := Expr$2.code ++ Expr$3.code ++ emit1("ADD");
    Expr$1.ty := "int";
    Expr$1.errs := expect(Expr$2.ty, "int", "+") ++ expect(Expr$3.ty, "int", "+")
      ++ Expr$2.errs ++ Expr$3.errs;
  }
  for esub {
    Expr$1.code := Expr$2.code ++ Expr$3.code ++ emit1("SUB");
    Expr$1.ty := "int";
    Expr$1.errs := expect(Expr$2.ty, "int", "-") ++ expect(Expr$3.ty, "int", "-")
      ++ Expr$2.errs ++ Expr$3.errs;
  }
  for emul {
    Expr$1.code := Expr$2.code ++ Expr$3.code ++ emit1("MUL");
    Expr$1.ty := "int";
    Expr$1.errs := expect(Expr$2.ty, "int", "*") ++ expect(Expr$3.ty, "int", "*")
      ++ Expr$2.errs ++ Expr$3.errs;
  }
  for elt {
    Expr$1.code := Expr$2.code ++ Expr$3.code ++ emit1("LT");
    Expr$1.ty := "bool";
    Expr$1.errs := expect(Expr$2.ty, "int", "<") ++ expect(Expr$3.ty, "int", "<")
      ++ Expr$2.errs ++ Expr$3.errs;
  }
  for eeq {
    Expr$1.code := Expr$2.code ++ Expr$3.code ++ emit1("EQ");
    Expr$1.ty := "bool";
    Expr$1.errs :=
      (if Expr$2.ty = Expr$3.ty or Expr$2.ty = "?" or Expr$3.ty = "?"
       then [] else ["= applied to " ++ Expr$2.ty ++ " and " ++ Expr$3.ty] end)
      ++ Expr$2.errs ++ Expr$3.errs;
  }
  for enot {
    Expr$1.code := Expr$2.code ++ emit1("NOT");
    Expr$1.ty := "bool";
    Expr$1.errs := expect(Expr$2.ty, "bool", "not") ++ Expr$2.errs;
  }
  for elit {
    Expr.code := emit2("LDC", itoa(token()));
    Expr.ty := "int";
    Expr.errs := [];
  }
  for etrue { Expr.code := emit2("LDC", "1"); Expr.ty := "bool"; Expr.errs := []; }
  for efalse { Expr.code := emit2("LDC", "0"); Expr.ty := "bool"; Expr.errs := []; }
  for evar {
    Expr.code := emit2("LOD", itoa(addr(Expr.env, token())));
    Expr.ty := tyof(Expr.env, token());
    Expr.errs := if bound(Expr.env, token()) then [] else ["undeclared " ++ token()] end;
  }
end
"#;

/// Compiles the OLGA source to the abstract grammar.
///
/// # Panics
///
/// Panics if the embedded source fails to compile (a corpus bug).
pub fn minipascal() -> (Grammar, LowerInfo) {
    compile_ag_source(MINIPASCAL_OLGA).expect("embedded mini-Pascal AG compiles")
}

/// The scanner spec of the concrete mini-Pascal syntax.
pub fn minipascal_scanner() -> ScannerSpec {
    ScannerSpec::new(
        &[
            "program", "var", "integer", "boolean", "begin", "end", "if", "then", "else", "while",
            "do", "write", "true", "false", "not",
        ],
        &[":=", ";", ":", ".", "(", ")", "+", "-", "*", "<", "="],
    )
}

/// The concrete mini-Pascal syntax: an LL(1) grammar whose rules build the
/// abstract tree. Each binary level ends in a tail that folds its operands
/// to the left (`Rel`, `Adds`, `Muls`), so `a - b - c` builds
/// `esub(esub(a, b), c)`; `<` and `=` do not chain.
pub fn minipascal_syntax() -> Cfg {
    use Action::Forward;
    let node = |op: &str, token_from| Action::Node {
        operator: op.into(),
        token_from,
    };
    let fold = |op: &str| Action::Fold(op.into());
    Cfg::from_rules([
        (
            "Program",
            "program IDENT ; Decls begin Stmts end .",
            node("program", None),
        ),
        ("Decls", "Decl Decls", node("decls_cons", None)),
        ("Decls", "", node("decls_nil", None)),
        ("Decl", "var IDENT : Type ;", node("decl", Some(1))),
        ("Type", "integer", node("tint", None)),
        ("Type", "boolean", node("tbool", None)),
        ("Stmts", "Stmt More", node("stmts_cons", None)),
        ("Stmts", "", node("stmts_nil", None)),
        ("More", "; Stmts", Forward),
        ("More", "", node("stmts_nil", None)),
        ("Stmt", "IDENT := Expr", node("assign", Some(0))),
        (
            "Stmt",
            "if Expr then Stmts else Stmts end",
            node("sif", None),
        ),
        ("Stmt", "while Expr do Stmts end", node("swhile", None)),
        ("Stmt", "write Expr", node("swrite", None)),
        ("Expr", "Simple Rel", Forward),
        ("Rel", "< Simple", fold("elt")),
        ("Rel", "= Simple", fold("eeq")),
        ("Rel", "", Forward),
        ("Simple", "Term Adds", Forward),
        ("Adds", "+ Term Adds", fold("eadd")),
        ("Adds", "- Term Adds", fold("esub")),
        ("Adds", "", Forward),
        ("Term", "Factor Muls", Forward),
        ("Muls", "* Factor Muls", fold("emul")),
        ("Muls", "", Forward),
        ("Factor", "INT", node("elit", Some(0))),
        ("Factor", "IDENT", node("evar", Some(0))),
        ("Factor", "true", node("etrue", None)),
        ("Factor", "false", node("efalse", None)),
        ("Factor", "not Factor", node("enot", None)),
        ("Factor", "( Expr )", Forward),
    ])
}

/// Parses a concrete mini-Pascal program into an abstract tree of
/// `grammar`, mini-Pascal's AG or any grammar with its operators.
///
/// [`minipascal_syntax`] runs through the generated `fnc2-syntax` LL(1)
/// driver. The scanner spec and the parse tables are built once per
/// process, and the operators are resolved in `grammar` once per call.
///
/// # Errors
///
/// Returns a message with the position of the first syntax error.
pub fn parse_minipascal(grammar: &Grammar, src: &str) -> Result<Tree, String> {
    static SPEC: OnceLock<ScannerSpec> = OnceLock::new();
    static PARSER: OnceLock<Ll1Parser> = OnceLock::new();
    let parser = PARSER.get_or_init(|| {
        Ll1Parser::new(minipascal_syntax()).expect("the mini-Pascal syntax is LL(1)")
    });
    let toks = scan(SPEC.get_or_init(minipascal_scanner), src).map_err(|e| e.to_string())?;
    parser.parse(grammar, &toks).map_err(|e| e.to_string())
}

/// Generates a well-formed mini-Pascal program of roughly `stmt_blocks`
/// top-level statement groups — the sized workloads of Tables 2/3.
pub fn sample_program(stmt_blocks: usize) -> String {
    let mut out = String::from("program bench;\n");
    out.push_str("var n : integer;\nvar acc : integer;\nvar flag : boolean;\n");
    for i in 0..stmt_blocks {
        out.push_str(&format!("var x{i} : integer;\n"));
    }
    out.push_str("begin\n  n := 100;\n  acc := 0;\n  flag := true");
    for i in 0..stmt_blocks {
        out.push_str(&format!(
            ";\n  x{i} := n * {i} + acc;\n  if x{i} < n then acc := acc + x{i} else acc := acc - 1 end;\n  while 0 < n do n := n - 1; acc := acc + 1 end;\n  write acc"
        ));
    }
    out.push_str("\nend.\n");
    out
}

#[cfg(test)]
mod tests {
    use fnc2_analysis::{classify, AgClass, Inclusion};
    use fnc2_syntax::Sym;
    use fnc2_visit::{build_visit_seqs, Evaluator, RootInputs};

    use super::*;

    #[test]
    fn compiles_and_classifies() {
        let (g, info) = minipascal();
        assert!(g.production_count() >= 20);
        assert!(info.auto_copies > 0, "env copies are auto-generated");
        let c = classify(&g, 1, Inclusion::Long).unwrap();
        assert_eq!(c.class, AgClass::Oag0, "mini-Pascal is ordered");
    }

    #[test]
    fn compiles_a_program_to_pcode() {
        let (g, _) = minipascal();
        let src = "program p;\nvar a : integer;\nbegin\n  a := 2 + 3 * 4;\n  write a;\n  \
                   a := 10 - 3 - 2\nend.\n";
        let tree = parse_minipascal(&g, src).unwrap();
        let c = classify(&g, 1, Inclusion::Long).unwrap();
        let seqs = build_visit_seqs(&g, &c.l_ordered.unwrap());
        let ev = Evaluator::new(&g, &seqs);
        let (vals, _) = ev.evaluate(&tree, &RootInputs::new()).unwrap();
        let prog = g.phylum_by_name("Prog").unwrap();
        let code = g.attr_by_name(prog, "code").unwrap();
        let errs = g.attr_by_name(prog, "errs").unwrap();
        let code_list: Vec<String> = vals
            .get(&g, tree.root(), code)
            .unwrap()
            .as_list()
            .iter()
            .map(|v| v.as_str().to_string())
            .collect();
        // `10 - 3 - 2` associates to the left: (10 - 3) - 2.
        assert_eq!(
            code_list,
            [
                "ENT 1", "LDC 2", "LDC 3", "LDC 4", "MUL", "ADD", "STO 0", "LOD 0", "WRI",
                "LDC 10", "LDC 3", "SUB", "LDC 2", "SUB", "STO 0", "HLT"
            ]
        );
        assert!(vals
            .get(&g, tree.root(), errs)
            .unwrap()
            .as_list()
            .is_empty());
    }

    #[test]
    fn type_errors_are_collected() {
        let (g, _) = minipascal();
        let src = "program p;\nvar a : integer;\nbegin\n  a := true;\n  b := 1;\n  if 1 then a := 2 else a := 3 end\nend.\n";
        let tree = parse_minipascal(&g, src).unwrap();
        let c = classify(&g, 1, Inclusion::Long).unwrap();
        let seqs = build_visit_seqs(&g, &c.l_ordered.unwrap());
        let ev = Evaluator::new(&g, &seqs);
        let (vals, _) = ev.evaluate(&tree, &RootInputs::new()).unwrap();
        let prog = g.phylum_by_name("Prog").unwrap();
        let errs = g.attr_by_name(prog, "errs").unwrap();
        let msgs: Vec<String> = vals
            .get(&g, tree.root(), errs)
            .unwrap()
            .as_list()
            .iter()
            .map(|v| v.as_str().to_string())
            .collect();
        assert!(
            msgs.iter().any(|m| m.contains("assignment to a")),
            "{msgs:?}"
        );
        assert!(msgs.iter().any(|m| m.contains("undeclared b")), "{msgs:?}");
        assert!(msgs.iter().any(|m| m.contains("if condition")), "{msgs:?}");
    }

    #[test]
    fn labels_are_threaded_uniquely() {
        let (g, _) = minipascal();
        let src = sample_program(3);
        let tree = parse_minipascal(&g, &src).unwrap();
        let c = classify(&g, 1, Inclusion::Long).unwrap();
        let seqs = build_visit_seqs(&g, &c.l_ordered.unwrap());
        let ev = Evaluator::new(&g, &seqs);
        let (vals, _) = ev.evaluate(&tree, &RootInputs::new()).unwrap();
        let prog = g.phylum_by_name("Prog").unwrap();
        let code = g.attr_by_name(prog, "code").unwrap();
        // Every "LAB Lk" is defined exactly once.
        let mut labs = std::collections::HashMap::new();
        for v in vals.get(&g, tree.root(), code).unwrap().as_list() {
            let s = v.as_str();
            if let Some(l) = s.strip_prefix("LAB ") {
                *labs.entry(l.to_string()).or_insert(0) += 1;
            }
        }
        assert!(!labs.is_empty());
        assert!(labs.values().all(|&c| c == 1), "{labs:?}");
    }

    /// A right-hand side's symbol that heads no rule reads as a terminal,
    /// so a misspelt nonterminal would still make an LL(1) parser. Every
    /// terminal must be a keyword or operator of the scanner, or a lexeme
    /// class.
    #[test]
    fn the_syntax_uses_only_terminals_the_scanner_produces() {
        let spec = minipascal_scanner();
        let known: std::collections::HashSet<&str> = (spec.keywords.iter())
            .chain(&spec.operators)
            .map(|k| &**k)
            .chain(["IDENT", "INT", "REAL", "STRING", "EOF"])
            .collect();
        for rule in minipascal_syntax().rules {
            for sym in &rule.rhs {
                if let Sym::T(t) = sym {
                    assert!(known.contains(t.as_str()), "`{t}` in {}", rule.lhs);
                }
            }
        }
    }

    /// The positions were pinned with the hand-written recursive-descent
    /// parser this repository had before its LL(1) driver took over. The
    /// messages name the terminal or the nonterminal the driver expected.
    #[test]
    fn syntax_errors_have_positions() {
        let (g, _) = minipascal();
        let cases = [
            (
                "program p;\nbegin\n  a := ;\nend.\n",
                "3:8: syntax error: expected Expr, found `;`",
            ),
            (
                "program p;\nbegin\n  f := a < b < c\nend.\n",
                "3:14: syntax error: expected `end`, found `<`",
            ),
            (
                "program p;\nbegin\n  a := 1\n",
                "4:1: syntax error: expected `end`, found end of input",
            ),
            (
                "program p;\nbegin\n  while f do a := 1\nend.\n",
                "4:4: syntax error: expected `end`, found `.`",
            ),
            (
                "program p;\nbegin\nend.\nx\n",
                "4:1: syntax error: unexpected identifier `x` after the program",
            ),
            (
                "program p;\nvar x : real;\nbegin\nend.\n",
                "2:9: syntax error: expected Type, found identifier `real`",
            ),
            (
                "program p;\nbegin\n  a := (1 + 2;\nend.\n",
                "3:14: syntax error: expected `)`, found `;`",
            ),
            (
                "",
                "1:1: syntax error: expected Program, found end of input",
            ),
            (
                "program p;\nbegin\n  a := 1;;\nend.\n",
                "3:10: syntax error: expected `end`, found `;`",
            ),
            (
                "program p;\nbegin\n  if f then a := 1 end\nend.\n",
                "3:20: syntax error: expected `else`, found `end`",
            ),
            (
                "program p;\nvar x;\nbegin\nend.\n",
                "2:6: syntax error: expected `:`, found `;`",
            ),
            (
                "program p;\nbegin\n  write\nend.\n",
                "4:1: syntax error: expected Expr, found `end`",
            ),
            (
                "program p;\nbegin\n  a := 1.5\nend.\n",
                "3:8: syntax error: expected Expr, found real `1.5`",
            ),
        ];
        for (src, message) in cases {
            assert_eq!(parse_minipascal(&g, src).unwrap_err(), message, "{src:?}");
        }
    }
}
