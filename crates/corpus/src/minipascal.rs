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

use std::sync::{Arc, OnceLock};

use fnc2_ag::{Grammar, ProductionId, Tree, Value};
use fnc2_olga::{compile_ag_source, LowerInfo};
use fnc2_syntax::{scan, Lexeme, ScannerSpec};

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

/// The operators the parser builds, as [`Px::prods`] indexes them.
#[derive(Clone, Copy)]
enum Op {
    Program,
    DeclsCons,
    DeclsNil,
    Decl,
    Tint,
    Tbool,
    StmtsCons,
    StmtsNil,
    Assign,
    Sif,
    Swhile,
    Swrite,
    Eadd,
    Esub,
    Emul,
    Elt,
    Eeq,
    Enot,
    Elit,
    Etrue,
    Efalse,
    Evar,
}

/// The names of [`Op`]'s operators, in its order.
const OPS: [&str; 22] = [
    "program",
    "decls_cons",
    "decls_nil",
    "decl",
    "tint",
    "tbool",
    "stmts_cons",
    "stmts_nil",
    "assign",
    "sif",
    "swhile",
    "swrite",
    "eadd",
    "esub",
    "emul",
    "elt",
    "eeq",
    "enot",
    "elit",
    "etrue",
    "efalse",
    "evar",
];

/// Parses a concrete mini-Pascal program into an abstract tree.
///
/// A hand-written predictive parser over the `fnc2-syntax` scanner — the
/// expression levels fold left-associatively into the binary abstract
/// operators, which a table-driven LL(1) constructor cannot do directly.
/// The scanner spec is built once per process, and the production ids once
/// per call; lookahead compares the tokens' terminal names in place.
///
/// # Errors
///
/// Returns a message with the position of the first syntax error.
pub fn parse_minipascal(grammar: &Grammar, src: &str) -> Result<Tree, String> {
    static SPEC: OnceLock<ScannerSpec> = OnceLock::new();
    let toks = scan(SPEC.get_or_init(minipascal_scanner), src).map_err(|e| e.to_string())?;
    let mut prods = [ProductionId::from_raw(0); OPS.len()];
    for (id, name) in prods.iter_mut().zip(OPS) {
        *id = grammar
            .production_by_name(name)
            .ok_or_else(|| format!("unknown operator {name}"))?;
    }
    let mut p = Px {
        tb: fnc2_ag::TreeBuilder::new(grammar),
        prods,
        toks,
        at: 0,
    };
    let root = p.program()?;
    p.tb.finish_root(root).map_err(|e| e.to_string())
}

struct Px<'g> {
    tb: fnc2_ag::TreeBuilder<'g>,
    prods: [ProductionId; OPS.len()],
    toks: Vec<fnc2_syntax::Scanned>,
    at: usize,
}

impl Px<'_> {
    fn look(&self) -> &str {
        self.toks[self.at].lexeme.terminal()
    }

    fn err<T>(&self, msg: &str) -> Result<T, String> {
        let t = &self.toks[self.at];
        Err(format!("{}:{}: {msg}, found {}", t.line, t.col, t.lexeme))
    }

    fn eat(&mut self, term: &str) -> Result<(), String> {
        if self.eat_if(term) {
            Ok(())
        } else {
            self.err(&format!("expected `{term}`"))
        }
    }

    fn eat_if(&mut self, term: &str) -> bool {
        let hit = self.look() == term;
        self.at += usize::from(hit);
        hit
    }

    /// Eats an identifier, returning its name as a token value.
    fn ident(&mut self) -> Result<Value, String> {
        match &self.toks[self.at].lexeme {
            Lexeme::Ident(s) => {
                let name = Value::Str(Arc::clone(s));
                self.at += 1;
                Ok(name)
            }
            _ => self.err("expected `IDENT`"),
        }
    }

    fn node(&mut self, op: Op, kids: &[fnc2_ag::NodeId]) -> Result<fnc2_ag::NodeId, String> {
        self.node_tok(op, kids, None)
    }

    fn node_tok(
        &mut self,
        op: Op,
        kids: &[fnc2_ag::NodeId],
        token: Option<Value>,
    ) -> Result<fnc2_ag::NodeId, String> {
        self.tb
            .node_with_token(self.prods[op as usize], kids, token)
            .map_err(|e| e.to_string())
    }

    fn program(&mut self) -> Result<fnc2_ag::NodeId, String> {
        self.eat("program")?;
        self.eat("IDENT")?;
        self.eat(";")?;
        let decls = self.decls()?;
        self.eat("begin")?;
        let stmts = self.stmts()?;
        self.eat("end")?;
        self.eat(".")?;
        if self.look() != "EOF" {
            return self.err("expected end of input");
        }
        self.node(Op::Program, &[decls, stmts])
    }

    fn decls(&mut self) -> Result<fnc2_ag::NodeId, String> {
        if self.eat_if("var") {
            let name = self.ident()?;
            self.eat(":")?;
            let ty = if self.eat_if("integer") {
                self.node(Op::Tint, &[])?
            } else {
                self.eat("boolean")?;
                self.node(Op::Tbool, &[])?
            };
            self.eat(";")?;
            let d = self.node_tok(Op::Decl, &[ty], Some(name))?;
            let rest = self.decls()?;
            self.node(Op::DeclsCons, &[d, rest])
        } else {
            self.node(Op::DeclsNil, &[])
        }
    }

    fn stmts(&mut self) -> Result<fnc2_ag::NodeId, String> {
        if matches!(self.look(), "IDENT" | "if" | "while" | "write") {
            let s = self.stmt()?;
            let rest = if self.eat_if(";") {
                self.stmts()?
            } else {
                self.node(Op::StmtsNil, &[])?
            };
            self.node(Op::StmtsCons, &[s, rest])
        } else {
            self.node(Op::StmtsNil, &[])
        }
    }

    fn stmt(&mut self) -> Result<fnc2_ag::NodeId, String> {
        match self.look() {
            "IDENT" => {
                let name = self.ident()?;
                self.eat(":=")?;
                let e = self.expr()?;
                self.node_tok(Op::Assign, &[e], Some(name))
            }
            "if" => {
                self.at += 1;
                let c = self.expr()?;
                self.eat("then")?;
                let a = self.stmts()?;
                self.eat("else")?;
                let b = self.stmts()?;
                self.eat("end")?;
                self.node(Op::Sif, &[c, a, b])
            }
            "while" => {
                self.at += 1;
                let c = self.expr()?;
                self.eat("do")?;
                let body = self.stmts()?;
                self.eat("end")?;
                self.node(Op::Swhile, &[c, body])
            }
            "write" => {
                self.at += 1;
                let e = self.expr()?;
                self.node(Op::Swrite, &[e])
            }
            _ => self.err("expected a statement"),
        }
    }

    fn expr(&mut self) -> Result<fnc2_ag::NodeId, String> {
        let lhs = self.simple()?;
        if self.eat_if("<") {
            let rhs = self.simple()?;
            self.node(Op::Elt, &[lhs, rhs])
        } else if self.eat_if("=") {
            let rhs = self.simple()?;
            self.node(Op::Eeq, &[lhs, rhs])
        } else {
            Ok(lhs)
        }
    }

    fn simple(&mut self) -> Result<fnc2_ag::NodeId, String> {
        let mut acc = self.term()?;
        loop {
            if self.eat_if("+") {
                let rhs = self.term()?;
                acc = self.node(Op::Eadd, &[acc, rhs])?;
            } else if self.eat_if("-") {
                let rhs = self.term()?;
                acc = self.node(Op::Esub, &[acc, rhs])?;
            } else {
                return Ok(acc);
            }
        }
    }

    fn term(&mut self) -> Result<fnc2_ag::NodeId, String> {
        let mut acc = self.factor()?;
        while self.eat_if("*") {
            let rhs = self.factor()?;
            acc = self.node(Op::Emul, &[acc, rhs])?;
        }
        Ok(acc)
    }

    fn factor(&mut self) -> Result<fnc2_ag::NodeId, String> {
        let (op, token) = match &self.toks[self.at].lexeme {
            Lexeme::Int(i) => (Op::Elit, Some(Value::Int(*i))),
            Lexeme::Ident(name) => (Op::Evar, Some(Value::Str(Arc::clone(name)))),
            l => match l.terminal() {
                "true" => (Op::Etrue, None),
                "false" => (Op::Efalse, None),
                "not" => {
                    self.at += 1;
                    let e = self.factor()?;
                    return self.node(Op::Enot, &[e]);
                }
                "(" => {
                    self.at += 1;
                    let e = self.expr()?;
                    self.eat(")")?;
                    return Ok(e);
                }
                _ => return self.err("expected a factor"),
            },
        };
        self.at += 1;
        self.node_tok(op, &[], token)
    }
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
        let src = "program p;\nvar a : integer;\nbegin\n  a := 2 + 3 * 4;\n  write a\nend.\n";
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
        assert_eq!(
            code_list,
            vec!["ENT 1", "LDC 2", "LDC 3", "LDC 4", "MUL", "ADD", "STO 0", "LOD 0", "WRI", "HLT"]
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

    #[test]
    fn syntax_errors_have_positions() {
        let (g, _) = minipascal();
        let err = parse_minipascal(&g, "program p;\nbegin\n  a := ;\nend.\n").unwrap_err();
        assert!(err.starts_with("3:"), "{err}");
    }
}
