//! LL(1) analysis, table construction and the predictive parse driver that
//! builds abstract trees — the parsing half of the `aic`/SYNTAX substrate
//! (paper §3.3): "abstract tree constructors which run in parallel with,
//! and are driven by, parsers".
//!
//! A [`Cfg`] maps each concrete rule to a tree-construction [`Action`]:
//! build an abstract operator node (optionally attaching one terminal's
//! lexeme as the node token) or forward the single sub-tree. The generator
//! computes NULLABLE/FIRST/FOLLOW, builds the predictive table, and reports
//! conflicts; the driver parses token streams into [`fnc2_ag::Tree`]s.

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::Arc;

use fnc2_ag::{Grammar, NodeId, ProductionId, Tree, TreeBuilder, Value};
use fnc2_gfa::{dependents, fixpoint};
use fnc2_obs::NoopRecorder;

use crate::scanner::{Lexeme, Scanned};

/// A grammar symbol.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Sym {
    /// A terminal, named by its lexeme text (`"begin"`, `"+"`) or class
    /// (`IDENT`, `INT`, `REAL`, `STRING`).
    T(String),
    /// A nonterminal.
    N(String),
}

/// Tree-construction action of one rule.
#[derive(Clone, Debug, PartialEq)]
pub enum Action {
    /// Build `operator(children…)`; children are the RHS nonterminals'
    /// trees in order. `token_from` optionally indexes the RHS *terminals*
    /// (0-based) whose lexeme becomes the node's token.
    Node {
        /// Abstract operator (production) name.
        operator: String,
        /// Index into the rule's terminals for the token, if any.
        token_from: Option<usize>,
    },
    /// Forward the single RHS nonterminal's tree (brackets, chaining).
    Forward,
}

/// One concrete rule.
#[derive(Clone, Debug)]
pub struct CfgRule {
    /// LHS nonterminal.
    pub lhs: String,
    /// RHS symbols (empty = ε).
    pub rhs: Vec<Sym>,
    /// Construction action.
    pub action: Action,
}

/// A concrete grammar specification.
#[derive(Clone, Debug)]
pub struct Cfg {
    /// Start nonterminal.
    pub start: String,
    /// Rules.
    pub rules: Vec<CfgRule>,
}

/// Errors in the specification (including LL(1) conflicts).
#[derive(Clone, Debug, PartialEq)]
pub enum CfgError {
    /// A rule references an undefined nonterminal.
    UnknownNonterminal(String),
    /// An action references an unknown abstract operator.
    UnknownOperator(String),
    /// The number of RHS nonterminals does not match the abstract
    /// production's arity.
    ArityMismatch {
        /// Operator name.
        operator: String,
        /// Abstract arity.
        expected: usize,
        /// Concrete nonterminal count.
        found: usize,
    },
    /// `Forward` on a rule without exactly one nonterminal.
    BadForward(String),
    /// A `token_from` index with no such terminal.
    BadTokenIndex(String),
    /// Two rules of one nonterminal compete for the same lookahead.
    Ll1Conflict {
        /// The nonterminal.
        nonterminal: String,
        /// The lookahead terminal.
        terminal: String,
    },
}

impl fmt::Display for CfgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CfgError::UnknownNonterminal(n) => write!(f, "unknown nonterminal `{n}`"),
            CfgError::UnknownOperator(o) => write!(f, "unknown abstract operator `{o}`"),
            CfgError::ArityMismatch {
                operator,
                expected,
                found,
            } => write!(
                f,
                "operator `{operator}` has arity {expected}, rule provides {found} subtree(s)"
            ),
            CfgError::BadForward(n) => {
                write!(f, "forward rule of `{n}` must have exactly one nonterminal")
            }
            CfgError::BadTokenIndex(n) => write!(f, "token index out of range in a rule of `{n}`"),
            CfgError::Ll1Conflict {
                nonterminal,
                terminal,
            } => write!(
                f,
                "LL(1) conflict: two rules of `{nonterminal}` apply on lookahead `{terminal}`"
            ),
        }
    }
}

impl std::error::Error for CfgError {}

/// A parse failure.
#[derive(Clone, Debug, PartialEq)]
pub struct DriveError {
    /// Description.
    pub message: String,
    /// Line of the offending token.
    pub line: u32,
    /// Column.
    pub col: u32,
}

impl fmt::Display for DriveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: syntax error: {}",
            self.line, self.col, self.message
        )
    }
}

impl std::error::Error for DriveError {}

/// A generated LL(1) parser with tree-construction actions.
#[derive(Clone, Debug)]
pub struct Ll1Parser {
    cfg: Cfg,
    /// Nonterminal → dense index.
    nts: HashMap<String, usize>,
    /// Predictive table: `(nt index, terminal) → rule index`.
    table: HashMap<(usize, String), usize>,
    /// Abstract production per Node action, resolved once.
    productions: Vec<Option<ProductionId>>,
    first: Vec<HashSet<String>>,
    follow: Vec<HashSet<String>>,
    nullable: Vec<bool>,
}

impl Ll1Parser {
    /// Builds the parser, validating actions against the abstract grammar
    /// and checking the LL(1) property.
    ///
    /// # Errors
    ///
    /// Reports specification errors and LL(1) conflicts.
    pub fn new(cfg: Cfg, grammar: &Grammar) -> Result<Ll1Parser, CfgError> {
        let mut nts: HashMap<String, usize> = HashMap::new();
        for r in &cfg.rules {
            let next = nts.len();
            nts.entry(r.lhs.clone()).or_insert(next);
        }
        if !nts.contains_key(&cfg.start) {
            return Err(CfgError::UnknownNonterminal(cfg.start.clone()));
        }
        // Validate symbols and actions.
        let mut productions = Vec::with_capacity(cfg.rules.len());
        for r in &cfg.rules {
            for s in &r.rhs {
                if let Sym::N(n) = s {
                    if !nts.contains_key(n) {
                        return Err(CfgError::UnknownNonterminal(n.clone()));
                    }
                }
            }
            let n_children = r.rhs.iter().filter(|s| matches!(s, Sym::N(_))).count();
            let n_terminals = r.rhs.iter().filter(|s| matches!(s, Sym::T(_))).count();
            match &r.action {
                Action::Forward => {
                    if n_children != 1 {
                        return Err(CfgError::BadForward(r.lhs.clone()));
                    }
                    productions.push(None);
                }
                Action::Node {
                    operator,
                    token_from,
                } => {
                    let Some(p) = grammar.production_by_name(operator) else {
                        return Err(CfgError::UnknownOperator(operator.clone()));
                    };
                    let arity = grammar.production(p).arity();
                    if arity != n_children {
                        return Err(CfgError::ArityMismatch {
                            operator: operator.clone(),
                            expected: arity,
                            found: n_children,
                        });
                    }
                    if let Some(i) = token_from {
                        if *i >= n_terminals {
                            return Err(CfgError::BadTokenIndex(r.lhs.clone()));
                        }
                    }
                    productions.push(Some(p));
                }
            }
        }

        // NULLABLE / FIRST / FOLLOW: grammar flows over the rules, whose
        // facts are the nonterminals. NULLABLE and FIRST flow bottom-up (a
        // rule writes its LHS and reads its RHS nonterminals), FOLLOW
        // top-down.
        let n = nts.len();
        let m = cfg.rules.len();
        let lhs = |r: usize| [nts[&cfg.rules[r].lhs]];
        let rhs = |r: usize| {
            cfg.rules[r].rhs.iter().filter_map(|s| match s {
                Sym::N(x) => Some(nts[x]),
                Sym::T(_) => None,
            })
        };
        let mut nullable = vec![false; n];
        let mut first: Vec<HashSet<String>> = vec![HashSet::new(); n];
        let step = |ri: usize| {
            let r = &cfg.rules[ri];
            let a = nts[&r.lhs];
            let mut changed = false;
            let mut all_nullable = true;
            for s in &r.rhs {
                match s {
                    Sym::T(t) => {
                        changed |= first[a].insert(t.clone());
                        all_nullable = false;
                        break;
                    }
                    Sym::N(x) => {
                        let x = nts[x];
                        let add: Vec<String> = first[x].iter().cloned().collect();
                        for t in add {
                            changed |= first[a].insert(t);
                        }
                        if !nullable[x] {
                            all_nullable = false;
                            break;
                        }
                    }
                }
            }
            if all_nullable && !nullable[a] {
                nullable[a] = true;
                changed = true;
            }
            changed
        };
        fixpoint(m, &dependents(m, n, lhs, rhs), step, &mut NoopRecorder);
        let mut follow: Vec<HashSet<String>> = vec![HashSet::new(); n];
        follow[nts[&cfg.start]].insert("EOF".to_string());
        let step = |ri: usize| {
            let r = &cfg.rules[ri];
            let a = nts[&r.lhs];
            let mut changed = false;
            for (i, s) in r.rhs.iter().enumerate() {
                let Sym::N(x) = s else { continue };
                let xi = nts[x];
                let mut rest_nullable = true;
                for t in &r.rhs[i + 1..] {
                    match t {
                        Sym::T(t) => {
                            changed |= follow[xi].insert(t.clone());
                            rest_nullable = false;
                            break;
                        }
                        Sym::N(y) => {
                            for t in &first[nts[y]] {
                                changed |= follow[xi].insert(t.clone());
                            }
                            if !nullable[nts[y]] {
                                rest_nullable = false;
                                break;
                            }
                        }
                    }
                }
                if rest_nullable {
                    let add: Vec<String> = follow[a].iter().cloned().collect();
                    for t in add {
                        changed |= follow[xi].insert(t);
                    }
                }
            }
            changed
        };
        fixpoint(m, &dependents(m, n, rhs, lhs), step, &mut NoopRecorder);

        // Predictive table.
        let mut table: HashMap<(usize, String), usize> = HashMap::new();
        for (ri, r) in cfg.rules.iter().enumerate() {
            let a = nts[&r.lhs];
            let mut lookaheads: HashSet<String> = HashSet::new();
            let mut all_nullable = true;
            for s in &r.rhs {
                match s {
                    Sym::T(t) => {
                        lookaheads.insert(t.clone());
                        all_nullable = false;
                        break;
                    }
                    Sym::N(x) => {
                        lookaheads.extend(first[nts[x]].iter().cloned());
                        if !nullable[nts[x]] {
                            all_nullable = false;
                            break;
                        }
                    }
                }
            }
            if all_nullable {
                lookaheads.extend(follow[a].iter().cloned());
            }
            for t in lookaheads {
                if table.insert((a, t.clone()), ri).is_some() {
                    return Err(CfgError::Ll1Conflict {
                        nonterminal: r.lhs.clone(),
                        terminal: t,
                    });
                }
            }
        }

        Ok(Ll1Parser {
            cfg,
            nts,
            table,
            productions,
            first,
            follow,
            nullable,
        })
    }

    /// FIRST set of a nonterminal (diagnostics, tests).
    pub fn first_of(&self, nt: &str) -> Option<&HashSet<String>> {
        self.nts.get(nt).map(|&i| &self.first[i])
    }

    /// FOLLOW set of a nonterminal.
    pub fn follow_of(&self, nt: &str) -> Option<&HashSet<String>> {
        self.nts.get(nt).map(|&i| &self.follow[i])
    }

    /// True if the nonterminal derives ε.
    pub fn is_nullable(&self, nt: &str) -> Option<bool> {
        self.nts.get(nt).map(|&i| self.nullable[i])
    }

    /// Parses a token stream into an abstract tree of `grammar` (the same
    /// grammar the parser was built against).
    ///
    /// # Errors
    ///
    /// Reports the first syntax error with its position.
    pub fn parse(&self, grammar: &Grammar, tokens: &[Scanned]) -> Result<Tree, DriveError> {
        let mut tb = TreeBuilder::new(grammar);
        let mut at = 0usize;
        let root = self.parse_nt(grammar, &mut tb, self.nts[&self.cfg.start], tokens, &mut at)?;
        // All input must be consumed.
        if tokens[at].lexeme != Lexeme::Eof {
            return Err(DriveError {
                message: format!("unexpected {} after the program", tokens[at].lexeme),
                line: tokens[at].line,
                col: tokens[at].col,
            });
        }
        tb.finish_root(root).map_err(|e| DriveError {
            message: e.to_string(),
            line: 1,
            col: 1,
        })
    }

    #[allow(clippy::only_used_in_recursion)]
    fn parse_nt(
        &self,
        grammar: &Grammar,
        tb: &mut TreeBuilder,
        nt: usize,
        tokens: &[Scanned],
        at: &mut usize,
    ) -> Result<NodeId, DriveError> {
        let look = tokens[*at].lexeme.terminal();
        let Some(&ri) = self.table.get(&(nt, look.to_string())) else {
            let name = self
                .nts
                .iter()
                .find(|(_, &i)| i == nt)
                .map(|(n, _)| n.as_str())
                .unwrap_or("?");
            return Err(DriveError {
                message: format!("unexpected {} while parsing {name}", tokens[*at].lexeme),
                line: tokens[*at].line,
                col: tokens[*at].col,
            });
        };
        let rule = &self.cfg.rules[ri];
        let mut children: Vec<NodeId> = Vec::new();
        let mut terminals: Vec<Lexeme> = Vec::new();
        for s in &rule.rhs {
            match s {
                Sym::T(t) => {
                    let tok = &tokens[*at];
                    if tok.lexeme.terminal() != t.as_str() {
                        return Err(DriveError {
                            message: format!("expected `{t}`, found {}", tok.lexeme),
                            line: tok.line,
                            col: tok.col,
                        });
                    }
                    terminals.push(tok.lexeme.clone());
                    *at += 1;
                }
                Sym::N(x) => {
                    let c = self.parse_nt(grammar, tb, self.nts[x], tokens, at)?;
                    children.push(c);
                }
            }
        }
        match (&rule.action, self.productions[ri]) {
            (Action::Forward, _) => Ok(children[0]),
            (Action::Node { token_from, .. }, Some(p)) => {
                let token = token_from.map(|i| lexeme_value(&terminals[i]));
                let here = (*at).min(tokens.len() - 1);
                tb.node_with_token(p, &children, token)
                    .map_err(|e| DriveError {
                        message: e.to_string(),
                        line: tokens[here].line,
                        col: tokens[here].col,
                    })
            }
            (Action::Node { .. }, None) => unreachable!("validated at construction"),
        }
    }
}

/// Converts a lexeme to the token [`Value`] attached to tree nodes.
fn lexeme_value(l: &Lexeme) -> Value {
    match l {
        Lexeme::Ident(s) | Lexeme::Keyword(s) | Lexeme::Op(s) => Value::Str(Arc::clone(s)),
        Lexeme::Str(s) => Value::str(s),
        Lexeme::Int(i) => Value::Int(*i),
        Lexeme::Real(r) => Value::Real(*r),
        Lexeme::Eof => Value::Unit,
    }
}

/// Shorthand for building [`Sym::T`].
pub fn t(s: &str) -> Sym {
    Sym::T(s.to_string())
}

/// Shorthand for building [`Sym::N`].
pub fn n(s: &str) -> Sym {
    Sym::N(s.to_string())
}

#[cfg(test)]
mod tests {
    use fnc2_ag::{GrammarBuilder, Occ};

    use crate::scanner::{scan, ScannerSpec};

    use super::*;

    /// Abstract grammar: E ::= add(E,E) | lit.
    fn expr_grammar() -> Grammar {
        let mut g = GrammarBuilder::new("expr");
        let e = g.phylum("E");
        let v = g.syn(e, "v");
        g.func("add", 2, |a| Value::Int(a[0].as_int() + a[1].as_int()));
        let add = g.production("add", e, &[e, e]);
        g.call(
            add,
            Occ::lhs(v),
            "add",
            [Occ::new(1, v).into(), Occ::new(2, v).into()],
        );
        let lit = g.production("lit", e, &[]);
        g.copy(lit, Occ::lhs(v), fnc2_ag::Arg::Token);
        g.finish().unwrap()
    }

    /// Concrete grammar:
    ///   E  -> T E'
    ///   E' -> + T E' | ε      (left-assoc folded right here; fine for tests)
    ///   T  -> INT | ( E )
    fn expr_cfg() -> Cfg {
        Cfg {
            start: "E".into(),
            rules: vec![
                CfgRule {
                    lhs: "E".into(),
                    rhs: vec![n("T"), n("E'")],
                    action: Action::Node {
                        operator: "fold".into(),
                        token_from: None,
                    },
                },
                CfgRule {
                    lhs: "E'".into(),
                    rhs: vec![t("+"), n("T"), n("E'")],
                    action: Action::Node {
                        operator: "fold".into(),
                        token_from: None,
                    },
                },
                CfgRule {
                    lhs: "E'".into(),
                    rhs: vec![],
                    action: Action::Node {
                        operator: "nil".into(),
                        token_from: None,
                    },
                },
                CfgRule {
                    lhs: "T".into(),
                    rhs: vec![t("INT")],
                    action: Action::Node {
                        operator: "lit".into(),
                        token_from: Some(0),
                    },
                },
                CfgRule {
                    lhs: "T".into(),
                    rhs: vec![t("("), n("E"), t(")")],
                    action: Action::Forward,
                },
            ],
        }
    }

    #[test]
    fn ll1_sets_are_correct() {
        // The E-level "fold" has children (T:E, E':R) — but E' derives
        // fold(+TE')|nil at the R level. Adjust the cfg: E' rules build
        // R-phylum nodes. The first cfg rule's "fold" takes (E, R).
        let mut cfg = expr_cfg();
        // E' -> + T E' builds R ::= fold2(E, R).
        cfg.rules[1].action = Action::Node {
            operator: "fold2".into(),
            token_from: None,
        };
        let mut g = GrammarBuilder::new("fold");
        let e = g.phylum("E");
        let v = g.syn(e, "v");
        let r = g.phylum("R");
        let acc = g.inh(r, "acc");
        let rv = g.syn(r, "rv");
        g.func("add", 2, |a| Value::Int(a[0].as_int() + a[1].as_int()));
        let fold = g.production("fold", e, &[e, r]);
        g.copy(fold, Occ::new(2, acc), Occ::new(1, v));
        g.copy(fold, Occ::lhs(v), Occ::new(2, rv));
        let fold2 = g.production("fold2", r, &[e, r]);
        g.call(
            fold2,
            Occ::new(2, acc),
            "add",
            [Occ::lhs(acc).into(), Occ::new(1, v).into()],
        );
        g.copy(fold2, Occ::lhs(rv), Occ::new(2, rv));
        let nil = g.production("nil", r, &[]);
        g.copy(nil, Occ::lhs(rv), Occ::lhs(acc));
        let lit = g.production("lit", e, &[]);
        g.copy(lit, Occ::lhs(v), fnc2_ag::Arg::Token);
        let g = g.finish().unwrap();

        let p = Ll1Parser::new(cfg, &g).unwrap();
        assert_eq!(p.is_nullable("E'"), Some(true));
        assert_eq!(p.is_nullable("T"), Some(false));
        assert!(p.first_of("T").unwrap().contains("INT"));
        assert!(p.first_of("T").unwrap().contains("("));
        assert!(p.first_of("E").unwrap().contains("INT"));
        assert!(p.follow_of("E'").unwrap().contains("EOF"));
        assert!(p.follow_of("E").unwrap().contains(")"));

        // Parse and evaluate 1 + 2 + 3 (+ (4)).
        let spec = ScannerSpec::new::<&str, &str>(&[], &["+", "(", ")"]);
        let toks = scan(&spec, "1 + 2 + (3 + 4)").unwrap();
        let tree = p.parse(&g, &toks).unwrap();
        assert!(tree.size() >= 7);
        let dynev = fnc2_visit::DynamicEvaluator::new(&g);
        let (vals, _) = dynev
            .evaluate(&tree, &fnc2_visit::RootInputs::new())
            .unwrap();
        assert_eq!(vals.get(&g, tree.root(), v), Some(&Value::Int(10)));
    }

    #[test]
    fn conflicts_are_reported() {
        let g = expr_grammar();
        let cfg = Cfg {
            start: "E".into(),
            rules: vec![
                CfgRule {
                    lhs: "E".into(),
                    rhs: vec![t("INT")],
                    action: Action::Node {
                        operator: "lit".into(),
                        token_from: Some(0),
                    },
                },
                CfgRule {
                    lhs: "E".into(),
                    rhs: vec![t("INT"), t("+")],
                    action: Action::Node {
                        operator: "lit".into(),
                        token_from: Some(0),
                    },
                },
            ],
        };
        let e = Ll1Parser::new(cfg, &g).unwrap_err();
        assert!(matches!(e, CfgError::Ll1Conflict { .. }), "{e}");
    }

    #[test]
    fn arity_validated_against_abstract_grammar() {
        let g = expr_grammar();
        let cfg = Cfg {
            start: "E".into(),
            rules: vec![CfgRule {
                lhs: "E".into(),
                rhs: vec![t("INT")],
                action: Action::Node {
                    operator: "add".into(), // needs 2 children
                    token_from: None,
                },
            }],
        };
        assert!(matches!(
            Ll1Parser::new(cfg, &g),
            Err(CfgError::ArityMismatch {
                expected: 2,
                found: 0,
                ..
            })
        ));
    }

    #[test]
    fn syntax_errors_carry_positions() {
        let g = expr_grammar();
        let cfg = Cfg {
            start: "E".into(),
            rules: vec![CfgRule {
                lhs: "E".into(),
                rhs: vec![t("INT")],
                action: Action::Node {
                    operator: "lit".into(),
                    token_from: Some(0),
                },
            }],
        };
        let p = Ll1Parser::new(cfg, &g).unwrap();
        let spec = ScannerSpec::new::<&str, &str>(&[], &["+"]);
        let toks = scan(&spec, "\n +").unwrap();
        let e = p.parse(&g, &toks).unwrap_err();
        assert_eq!(e.line, 2);
        // Trailing garbage detected.
        let toks = scan(&spec, "1 1").unwrap();
        let e = p.parse(&g, &toks).unwrap_err();
        assert!(e.message.contains("after the program"), "{e}");
    }
}
