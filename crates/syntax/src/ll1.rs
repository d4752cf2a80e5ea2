//! LL(1) analysis, table construction and the predictive parse driver that
//! builds abstract trees — the parsing half of the `aic`/SYNTAX substrate
//! (paper §3.3): "abstract tree constructors which run in parallel with,
//! and are driven by, parsers".
//!
//! A [`Cfg`] maps each concrete rule to a tree-construction [`Action`]:
//! build an abstract operator node (optionally attaching one terminal's
//! lexeme as the node token), forward the single sub-tree, or fold to the
//! left. The generator computes NULLABLE/FIRST/FOLLOW, builds the
//! predictive table over dense terminal and nonterminal numbers, and
//! reports conflicts. The driver parses token streams into
//! [`fnc2_ag::Tree`]s on explicit stacks, so neither nesting nor a long
//! operand list deepens the machine stack.
//!
//! A nonterminal with a [`Action::Fold`] rule is a *tail*: it inherits the
//! tree to its left, which is the first child of each of its rules, and it
//! ends every rule that uses it. Such a rule's action applies to the
//! symbols before the tail, and the tail inherits the result. With
//! `Simple -> Term Adds`, `Adds -> + Term Adds` folding `eadd` and
//! `Adds -> ε` forwarding, `a + b + c` builds `eadd(eadd(a, b), c)`: each
//! `+` rule builds `eadd(left, Term)` and hands it on, and the ε rule
//! yields what it inherited.

use std::collections::{BTreeSet, HashMap, HashSet};
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
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
    /// Forward the single RHS nonterminal's tree (brackets, chaining), or
    /// in a tail's rule without one, the tree the tail inherited.
    Forward,
    /// Fold left: a rule of a tail, building the named operator's node
    /// `operator(left, children…)` from the inherited tree and the RHS
    /// nonterminals' trees.
    Fold(String),
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

impl Cfg {
    /// A grammar from `(lhs, rhs, action)` rules whose first LHS is the
    /// start symbol. A right-hand side lists its symbols separated by
    /// spaces: a symbol that heads some rule is a nonterminal, any other a
    /// terminal.
    pub fn from_rules<'a>(rules: impl IntoIterator<Item = (&'a str, &'a str, Action)>) -> Cfg {
        let rules: Vec<_> = rules.into_iter().collect();
        let heads: HashSet<&str> = rules.iter().map(|r| r.0).collect();
        let sym = |s: &str| if heads.contains(s) { n(s) } else { t(s) };
        let rules: Vec<CfgRule> = (rules.into_iter())
            .map(|(lhs, rhs, action)| CfgRule {
                lhs: lhs.to_string(),
                rhs: rhs.split_whitespace().map(sym).collect(),
                action,
            })
            .collect();
        let start = rules.first().map_or_else(String::new, |r| r.lhs.clone());
        Cfg { start, rules }
    }
}

/// Errors in the specification (including LL(1) conflicts).
#[derive(Clone, Debug, PartialEq)]
pub enum CfgError {
    /// A rule references an undefined nonterminal.
    UnknownNonterminal(String),
    /// An action references an operator the abstract grammar lacks.
    UnknownOperator(String),
    /// The number of subtrees a rule provides (the RHS nonterminals', and
    /// a tail's inherited tree) does not match the abstract production's
    /// arity.
    ArityMismatch {
        /// Operator name.
        operator: String,
        /// Abstract arity.
        expected: usize,
        /// Concrete subtree count.
        found: usize,
    },
    /// `Forward` on a rule without exactly one subtree.
    BadForward(String),
    /// A `token_from` index with no such terminal.
    BadTokenIndex(String),
    /// A tail that starts the grammar, does not end a rule using it, or
    /// has a `Node` rule.
    BadTail(String),
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
                write!(f, "forward rule of `{n}` must have exactly one subtree")
            }
            CfgError::BadTokenIndex(n) => write!(f, "token index out of range in a rule of `{n}`"),
            CfgError::BadTail(n) => write!(
                f,
                "tail `{n}` must end every rule using it, not start the grammar, \
                 and fold or forward in its own rules"
            ),
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

/// A symbol by dense number.
#[derive(Clone, Copy)]
enum Dense {
    T(usize),
    N(usize),
}

/// One step of the driver.
#[derive(Clone, Copy, Debug)]
enum Item {
    /// Match a terminal; `token` keeps its position for the rule's node.
    T { terminal: usize, token: bool },
    /// Expand a nonterminal.
    N(usize),
    /// Replace the top children by operator `op`'s node over them, with
    /// the last kept token if `token`.
    Build { op: usize, token: bool },
}

/// A generated LL(1) parser with tree-construction actions. The tables
/// are independent of the abstract grammar; [`parse`](Self::parse)
/// resolves the operators in the grammar it builds trees of.
#[derive(Clone, Debug)]
pub struct Ll1Parser {
    /// Nonterminal names by dense number, in order of first definition.
    nonterminals: Vec<String>,
    /// Terminal names by dense number, sorted.
    terminals: Vec<String>,
    /// Terminal numbers by name, looked up once per token.
    numbers: HashMap<String, usize, BuildHasherDefault<Fnv>>,
    /// Each `Build`'s abstract operator and the number of its children.
    operators: Vec<(String, usize)>,
    nullable: Vec<bool>,
    /// FIRST and FOLLOW: per nonterminal, one flag per terminal.
    first: Vec<Vec<bool>>,
    follow: Vec<Vec<bool>>,
    /// `table[nt * width + terminal]`: the rule to expand, if any. The
    /// last column stands for terminals the grammar does not use.
    table: Vec<Option<usize>>,
    width: usize,
    /// The items of rule `r`, last first, are `code[spans[r].0..spans[r].1]`.
    code: Vec<Item>,
    spans: Vec<(usize, usize)>,
    start: usize,
    eof: usize,
}

impl Ll1Parser {
    /// Builds the parser, checking the rules' actions and the LL(1)
    /// property.
    ///
    /// # Errors
    ///
    /// Reports specification errors and LL(1) conflicts.
    pub fn new(cfg: Cfg) -> Result<Ll1Parser, CfgError> {
        let mut number: HashMap<&str, usize> = HashMap::new();
        let mut nonterminals = Vec::new();
        for r in &cfg.rules {
            number.entry(r.lhs.as_str()).or_insert_with(|| {
                nonterminals.push(r.lhs.clone());
                nonterminals.len() - 1
            });
        }
        let nt = |name: &str| {
            number
                .get(name)
                .copied()
                .ok_or_else(|| CfgError::UnknownNonterminal(name.to_string()))
        };
        let start = nt(&cfg.start)?;
        let names: BTreeSet<&str> = cfg
            .rules
            .iter()
            .flat_map(|r| &r.rhs)
            .filter_map(|s| match s {
                Sym::T(t) => Some(t.as_str()),
                Sym::N(_) => None,
            })
            .chain(["EOF"])
            .collect();
        let terminals: Vec<String> = names.iter().map(|t| t.to_string()).collect();
        let numbers: HashMap<String, usize, _> = (terminals.iter().cloned()).zip(0..).collect();
        let rhs = cfg
            .rules
            .iter()
            .map(|r| {
                r.rhs
                    .iter()
                    .map(|s| match s {
                        Sym::T(t) => Ok(Dense::T(numbers[t])),
                        Sym::N(x) => nt(x).map(Dense::N),
                    })
                    .collect()
            })
            .collect::<Result<Vec<Vec<Dense>>, CfgError>>()?;
        let lhs_of: Vec<usize> = cfg.rules.iter().map(|r| number[r.lhs.as_str()]).collect();
        let mut tail = vec![false; nonterminals.len()];
        for (r, rule) in cfg.rules.iter().enumerate() {
            tail[lhs_of[r]] |= matches!(rule.action, Action::Fold(_));
        }
        if tail[start] {
            return Err(CfgError::BadTail(cfg.start.clone()));
        }

        // Each rule's items, pushed last first: its symbols up to a
        // trailing tail, the node its action builds, then the tail.
        let (mut operators, mut code, mut spans) = (Vec::new(), Vec::new(), Vec::new());
        for (r, rule) in cfg.rules.iter().enumerate() {
            let (lead, trailing) = match rhs[r].split_last() {
                Some((&Dense::N(x), lead)) if tail[x] => (lead, Some(x)),
                _ => (&rhs[r][..], None),
            };
            if let Some(&Dense::N(x)) = lead.iter().find(|s| matches!(s, Dense::N(x) if tail[*x])) {
                return Err(CfgError::BadTail(nonterminals[x].clone()));
            }
            let nts = lead.iter().filter(|s| matches!(s, Dense::N(_))).count();
            let children = usize::from(tail[lhs_of[r]]) + nts;
            let mut k = lead.len() - nts;
            let (operator, kept) = match &rule.action {
                Action::Forward => (None, None),
                Action::Node {
                    operator: o,
                    token_from: i,
                } => (Some(o), *i),
                Action::Fold(o) => (Some(o), None),
            };
            let bad: Option<fn(String) -> CfgError> = if operator.is_none() && children != 1 {
                Some(CfgError::BadForward)
            } else if tail[lhs_of[r]] && matches!(rule.action, Action::Node { .. }) {
                Some(CfgError::BadTail)
            } else if kept.is_some_and(|i| i >= k) {
                Some(CfgError::BadTokenIndex)
            } else {
                None
            };
            if let Some(bad) = bad {
                return Err(bad(rule.lhs.clone()));
            }
            let begin = code.len();
            code.extend(trailing.map(Item::N));
            if let Some(operator) = operator {
                operators.push((operator.clone(), children));
                let (op, token) = (operators.len() - 1, kept.is_some());
                code.push(Item::Build { op, token });
            }
            for s in lead.iter().rev() {
                code.push(match *s {
                    Dense::T(terminal) => {
                        k -= 1;
                        let token = kept == Some(k);
                        Item::T { terminal, token }
                    }
                    Dense::N(x) => Item::N(x),
                });
            }
            spans.push((begin, code.len()));
        }

        // NULLABLE / FIRST / FOLLOW: grammar flows over the rules, whose
        // facts are the nonterminals. NULLABLE and FIRST flow bottom-up (a
        // rule writes its LHS and reads its RHS nonterminals), FOLLOW
        // top-down.
        let (n, m, w) = (nonterminals.len(), cfg.rules.len(), terminals.len());
        let lhs = |r: usize| [lhs_of[r]];
        let rhs_nts = |r: usize| {
            rhs[r].iter().filter_map(|s| match *s {
                Dense::N(x) => Some(x),
                Dense::T(_) => None,
            })
        };
        let mut nullable = vec![false; n];
        let mut first = vec![vec![false; w]; n];
        let step = |r: usize| {
            let a = lhs_of[r];
            let mut row = first[a].clone();
            let (grew, eps) = first_of_seq(&rhs[r], &first, &nullable, &mut row);
            first[a] = row;
            let newly = eps && !nullable[a];
            nullable[a] |= eps;
            grew || newly
        };
        fixpoint(m, &dependents(m, n, lhs, rhs_nts), step, &mut NoopRecorder);
        let eof = numbers["EOF"];
        let mut follow = vec![vec![false; w]; n];
        follow[start][eof] = true;
        let step = |r: usize| {
            let a = lhs_of[r];
            let mut changed = false;
            for (i, s) in rhs[r].iter().enumerate() {
                let Dense::N(x) = *s else { continue };
                let (grew, eps) = first_of_seq(&rhs[r][i + 1..], &first, &nullable, &mut follow[x]);
                changed |= grew;
                if eps && x != a {
                    let from = follow[a].clone();
                    changed |= add(&mut follow[x], &from);
                }
            }
            changed
        };
        fixpoint(m, &dependents(m, n, rhs_nts, lhs), step, &mut NoopRecorder);

        // Predictive table.
        let width = w + 1;
        let mut table = vec![None; n * width];
        for (r, body) in rhs.iter().enumerate() {
            let a = lhs_of[r];
            let mut look = vec![false; w];
            if first_of_seq(body, &first, &nullable, &mut look).1 {
                add(&mut look, &follow[a]);
            }
            for t in (0..w).filter(|&t| look[t]) {
                if table[a * width + t].replace(r).is_some() {
                    return Err(CfgError::Ll1Conflict {
                        nonterminal: nonterminals[a].clone(),
                        terminal: terminals[t].clone(),
                    });
                }
            }
        }
        // On any other lookahead, a nullable nonterminal expands the rule
        // it expands on what follows it, which derives ε. That consumes no
        // token, so a syntax error shows at the same token, but at the
        // next terminal or non-nullable nonterminal ("expected `end`"),
        // not at a tail's missing entry.
        for a in (0..n).filter(|&a| nullable[a]) {
            let row = &mut table[a * width..][..width];
            if let Some(r) = (0..w).find(|&t| follow[a][t]).and_then(|t| row[t]) {
                for e in row {
                    *e = e.or(Some(r));
                }
            }
        }

        Ok(Ll1Parser {
            nonterminals,
            terminals,
            numbers,
            operators,
            nullable,
            first,
            follow,
            table,
            width,
            code,
            spans,
            start,
            eof,
        })
    }

    /// FIRST set of a nonterminal (diagnostics, tests).
    pub fn first_of(&self, nt: &str) -> Option<BTreeSet<&str>> {
        self.terminal_set(&self.first, nt)
    }

    /// FOLLOW set of a nonterminal.
    pub fn follow_of(&self, nt: &str) -> Option<BTreeSet<&str>> {
        self.terminal_set(&self.follow, nt)
    }

    /// True if the nonterminal derives ε.
    pub fn is_nullable(&self, nt: &str) -> Option<bool> {
        let i = self.nonterminals.iter().position(|n| n == nt)?;
        Some(self.nullable[i])
    }

    fn terminal_set<'a>(&'a self, sets: &[Vec<bool>], nt: &str) -> Option<BTreeSet<&'a str>> {
        let i = self.nonterminals.iter().position(|n| n == nt)?;
        let on = self.terminals.iter().zip(&sets[i]).filter(|(_, &on)| on);
        Some(on.map(|(t, _)| t.as_str()).collect())
    }

    /// Parses a token stream into an abstract tree of `grammar`, whose
    /// productions the rules' operators name. The end of `tokens` reads
    /// as `EOF`, whether or not [`scan`](crate::scan)'s `Eof` ends it.
    ///
    /// # Errors
    ///
    /// Reports the first syntax error with its position, or, at the first
    /// token, an operator `grammar` lacks or whose arity differs.
    pub fn parse(&self, grammar: &Grammar, tokens: &[Scanned]) -> Result<Tree, DriveError> {
        let prods = self
            .bind(grammar)
            .map_err(|e| drive_error(tokens, 0, e.to_string()))?;
        let mut tb = TreeBuilder::new(grammar);
        let mut stack = Vec::with_capacity(64);
        stack.push(Item::N(self.start));
        let mut children: Vec<NodeId> = Vec::with_capacity(64);
        let mut kept: Vec<usize> = Vec::new();
        let mut at = 0;
        let mut look = self.terminal(tokens, at);
        while let Some(item) = stack.pop() {
            match item {
                Item::T { terminal, token } => {
                    if terminal != look {
                        let what = format!(
                            "expected `{}`, found {}",
                            self.terminals[terminal],
                            lexeme(tokens, at)
                        );
                        return Err(drive_error(tokens, at, what));
                    }
                    if token {
                        kept.push(at);
                    }
                    at += 1;
                    look = self.terminal(tokens, at);
                }
                Item::N(nt) => {
                    let Some(r) = self.table[nt * self.width + look] else {
                        let what = format!(
                            "expected {}, found {}",
                            self.nonterminals[nt],
                            lexeme(tokens, at)
                        );
                        return Err(drive_error(tokens, at, what));
                    };
                    let (begin, end) = self.spans[r];
                    stack.extend_from_slice(&self.code[begin..end]);
                }
                Item::Build { op, token } => {
                    let base = children.len() - self.operators[op].1;
                    let token = match token {
                        true => kept.pop().map(|i| lexeme_value(&tokens[i].lexeme)),
                        false => None,
                    };
                    let node = tb
                        .node_with_token(prods[op], &children[base..], token)
                        .map_err(|e| drive_error(tokens, at, e.to_string()))?;
                    children.truncate(base);
                    children.push(node);
                }
            }
        }
        if look != self.eof {
            let what = format!("unexpected {} after the program", lexeme(tokens, at));
            return Err(drive_error(tokens, at, what));
        }
        tb.finish_root(children[0])
            .map_err(|e| drive_error(tokens, at, e.to_string()))
    }

    /// Resolves each operator in `grammar`, checking its arity.
    fn bind(&self, grammar: &Grammar) -> Result<Vec<ProductionId>, CfgError> {
        let bind = |(name, found): &(String, usize)| {
            let p = grammar.production_by_name(name);
            let p = p.ok_or_else(|| CfgError::UnknownOperator(name.clone()))?;
            match grammar.production(p).arity() {
                expected if expected != *found => Err(CfgError::ArityMismatch {
                    operator: name.clone(),
                    expected,
                    found: *found,
                }),
                _ => Ok(p),
            }
        };
        self.operators.iter().map(bind).collect()
    }

    /// The number of the terminal at `at`; past the end, `EOF`'s.
    fn terminal(&self, tokens: &[Scanned], at: usize) -> usize {
        let name = tokens.get(at).map_or("EOF", |t| t.lexeme.terminal());
        self.numbers.get(name).copied().unwrap_or(self.width - 1)
    }
}

/// FNV-1a, which hashes a short terminal name several times faster than
/// the standard hasher. Its keys are the grammar's terminal names, and a
/// lookup is a spec literal or a class name, never an input identifier.
#[derive(Default)]
struct Fnv(u64);

impl Hasher for Fnv {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Adds FIRST(`seq`) to `into`; returns whether that added a terminal and
/// whether `seq` derives ε.
fn first_of_seq(
    seq: &[Dense],
    first: &[Vec<bool>],
    nullable: &[bool],
    into: &mut [bool],
) -> (bool, bool) {
    let mut grew = false;
    for s in seq {
        match *s {
            Dense::T(t) => {
                grew |= !into[t];
                into[t] = true;
                return (grew, false);
            }
            Dense::N(x) => {
                grew |= add(into, &first[x]);
                if !nullable[x] {
                    return (grew, false);
                }
            }
        }
    }
    (grew, true)
}

/// Adds the flags of `from` to `into`; returns whether any was new.
fn add(into: &mut [bool], from: &[bool]) -> bool {
    let mut grew = false;
    for (i, &f) in into.iter_mut().zip(from) {
        grew |= f && !*i;
        *i |= f;
    }
    grew
}

/// The lexeme at `at`; past the end, `Eof`.
fn lexeme(tokens: &[Scanned], at: usize) -> &Lexeme {
    tokens.get(at).map_or(&Lexeme::Eof, |t| &t.lexeme)
}

/// An error at the token at `at`, or past the end, at the last token.
fn drive_error(tokens: &[Scanned], at: usize, message: String) -> DriveError {
    let (line, col) = tokens
        .get(at)
        .or(tokens.last())
        .map_or((1, 1), |t| (t.line, t.col));
    DriveError { message, line, col }
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

    fn node(operator: &str, token_from: Option<usize>) -> Action {
        Action::Node {
            operator: operator.into(),
            token_from,
        }
    }

    /// Concrete grammar:
    ///   E  -> T E'
    ///   E' -> + T E' | ε      (the AG folds the sum through `acc`)
    ///   T  -> INT | ( E )
    fn expr_cfg() -> Cfg {
        Cfg::from_rules([
            ("E", "T E'", node("fold", None)),
            ("E'", "+ T E'", node("fold2", None)),
            ("E'", "", node("nil", None)),
            ("T", "INT", node("lit", Some(0))),
            ("T", "( E )", Action::Forward),
        ])
    }

    /// The scanner spec of the expression tests.
    fn spec() -> ScannerSpec {
        ScannerSpec::new::<&str, &str>(&[], &["+", "(", ")"])
    }

    #[test]
    fn ll1_sets_are_correct() {
        // E ::= fold(E, R) hands the left operand to R's `acc`; R ::=
        // fold2(E, R) | nil adds up the rest.
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

        let p = Ll1Parser::new(expr_cfg()).unwrap();
        assert_eq!(p.is_nullable("E'"), Some(true));
        assert_eq!(p.is_nullable("T"), Some(false));
        assert!(p.first_of("T").unwrap().contains("INT"));
        assert!(p.first_of("T").unwrap().contains("("));
        assert!(p.first_of("E").unwrap().contains("INT"));
        assert!(p.follow_of("E'").unwrap().contains("EOF"));
        assert!(p.follow_of("E").unwrap().contains(")"));

        // Parse and evaluate 1 + 2 + (3 + 4).
        let toks = scan(&spec(), "1 + 2 + (3 + 4)").unwrap();
        let tree = p.parse(&g, &toks).unwrap();
        assert!(tree.size() >= 7);
        let dynev = fnc2_visit::DynamicEvaluator::new(&g);
        let (vals, _) = dynev
            .evaluate(&tree, &fnc2_visit::RootInputs::new())
            .unwrap();
        assert_eq!(vals.get(&g, tree.root(), v), Some(&Value::Int(10)));
    }

    /// E -> T Es; Es -> + T Es (folding `add`) | ε; T -> INT | ( E ).
    fn fold_cfg() -> Cfg {
        Cfg::from_rules([
            ("E", "T Es", Action::Forward),
            ("Es", "+ T Es", Action::Fold("add".into())),
            ("Es", "", Action::Forward),
            ("T", "INT", node("lit", Some(0))),
            ("T", "( E )", Action::Forward),
        ])
    }

    #[test]
    fn folds_build_left_associated_trees() {
        let g = expr_grammar();
        let p = Ll1Parser::new(fold_cfg()).unwrap();
        let toks = scan(&spec(), "1 + 2 + (3 + 4)").unwrap();
        let tree = p.parse(&g, &toks).unwrap();
        // add(add(1, 2), add(3, 4)), each node built after its children.
        let shape: Vec<String> = (0..tree.size())
            .map(|i| {
                let node = tree.node(NodeId::from_raw(i as u32));
                let kids: Vec<usize> = node.children().iter().map(|c| c.index()).collect();
                match node.token() {
                    Some(v) => format!("{v}"),
                    None => format!("{kids:?}"),
                }
            })
            .collect();
        assert_eq!(shape, ["1", "2", "[0, 1]", "3", "4", "[3, 4]", "[2, 5]"]);
        assert_eq!(tree.root().index(), 6);
    }

    #[test]
    fn conflicts_are_reported() {
        let cfg = Cfg::from_rules([
            ("E", "INT", node("lit", Some(0))),
            ("E", "INT +", node("lit", Some(0))),
        ]);
        let e = Ll1Parser::new(cfg).unwrap_err();
        assert_eq!(
            e,
            CfgError::Ll1Conflict {
                nonterminal: "E".into(),
                terminal: "INT".into()
            }
        );
    }

    #[test]
    fn tails_must_end_their_rules() {
        let mut cfg = fold_cfg();
        cfg.rules[0].rhs.reverse();
        assert_eq!(
            Ll1Parser::new(cfg).unwrap_err(),
            CfgError::BadTail("Es".into())
        );
        let mut cfg = fold_cfg();
        cfg.start = "Es".into();
        assert_eq!(
            Ll1Parser::new(cfg).unwrap_err(),
            CfgError::BadTail("Es".into())
        );
    }

    #[test]
    fn arity_validated_against_abstract_grammar() {
        let g = expr_grammar();
        // `add` needs 2 children.
        let p = Ll1Parser::new(Cfg::from_rules([("E", "INT", node("add", None))])).unwrap();
        let toks = scan(&spec(), "1").unwrap();
        let e = p.parse(&g, &toks).unwrap_err();
        assert_eq!(
            e.message,
            CfgError::ArityMismatch {
                operator: "add".into(),
                expected: 2,
                found: 0
            }
            .to_string()
        );
        let p = Ll1Parser::new(Cfg::from_rules([("E", "INT", node("mul", None))])).unwrap();
        let e = p.parse(&g, &toks).unwrap_err();
        assert!(e.message.contains("`mul`"), "{e}");
    }

    #[test]
    fn syntax_errors_carry_positions() {
        let g = expr_grammar();
        let p = Ll1Parser::new(Cfg::from_rules([("E", "INT", node("lit", Some(0)))])).unwrap();
        let spec = ScannerSpec::new::<&str, &str>(&[], &["+"]);
        let toks = scan(&spec, "\n +").unwrap();
        let e = p.parse(&g, &toks).unwrap_err();
        assert_eq!(e.line, 2);
        // Trailing garbage detected.
        let toks = scan(&spec, "1 1").unwrap();
        let e = p.parse(&g, &toks).unwrap_err();
        assert!(e.message.contains("after the program"), "{e}");
        // A tail derives ε on a lookahead it has no rule for, so the error
        // names the terminal expected next, not the tail.
        let p = Ll1Parser::new(fold_cfg()).unwrap();
        let toks = scan(&self::spec(), "(1 1").unwrap();
        let e = p.parse(&g, &toks).unwrap_err();
        assert_eq!(
            e.to_string(),
            "1:4: syntax error: expected `)`, found integer `1`"
        );
    }

    #[test]
    fn the_end_of_the_slice_reads_as_eof() {
        let g = expr_grammar();
        let p = Ll1Parser::new(fold_cfg()).unwrap();
        let e = p.parse(&g, &[]).unwrap_err();
        assert_eq!((e.line, e.col), (1, 1));
        assert!(e.message.contains("end of input"), "{e}");
        // Without `scan`'s `Eof`: a whole sum parses, a cut one fails at
        // its last token.
        let mut toks = scan(&spec(), "1 + 2").unwrap();
        toks.pop();
        assert_eq!(p.parse(&g, &toks).unwrap().size(), 3);
        let mut toks = scan(&spec(), "1 + (2").unwrap();
        toks.pop();
        let e = p.parse(&g, &toks).unwrap_err();
        assert_eq!((e.line, e.col), (1, 6), "{e}");
        assert!(e.message.contains("end of input"), "{e}");
    }
}
