//! Lowering a checked OLGA attribute grammar to the abstract AG of
//! `fnc2-ag`.
//!
//! This is the front-end/generator interface of the paper (Figure 2): the
//! OLGA front-end "is responsible for constructing the *abstract AG* to be
//! input to the evaluator generator". Semantic-rule expressions become
//! registered semantic functions (closures over the interpreter); rules
//! that are plain occurrence references stay **copy rules** so the space
//! optimizer can see and eliminate them; and "most copy rules … are
//! automatically generated and need not be specified explicitly" (§2.4):
//! a missing inherited occurrence copies the same-named LHS attribute, and
//! a missing LHS synthesized attribute copies the unique same-named child
//! attribute.

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::Arc;

use fnc2_ag::{
    Arg, AttrId, Grammar, GrammarBuilder, LocalId, ONode, Occ, PhylumId, ProductionId, Value,
};

use crate::ast::{Expr, OccRef, RuleTarget};
use crate::check::{CheckedAg, OpCtx};
use crate::eval::{EvalAbort, EvalCtx};
use crate::lexer::Pos;

/// Lowering errors: semantic errors surfaced late (well-definedness) keep
/// their grammar-level description.
#[derive(Debug)]
pub enum LowerError {
    /// A single well-definedness failure (missing/duplicate rules after
    /// auto-copy).
    Grammar(fnc2_ag::GrammarError),
    /// Two or more well-definedness failures. Historically the lowering
    /// collapsed these to the first; they are now all surfaced so the
    /// diagnostic pass can report every violation at once.
    Grammars(Vec<fnc2_ag::GrammarError>),
    /// Constant evaluation aborted while building the interpreter context
    /// (a circular constant definition or a failing constant body).
    Eval(EvalAbort),
    /// An occurrence failed to re-resolve (internal; the checker already
    /// validated it).
    Internal(String, Pos),
}

impl LowerError {
    /// The well-definedness violations carried by this error, if any.
    pub fn grammar_errors(&self) -> &[fnc2_ag::GrammarError] {
        match self {
            LowerError::Grammar(e) => std::slice::from_ref(e),
            LowerError::Grammars(v) => v,
            _ => &[],
        }
    }
}

impl fmt::Display for LowerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LowerError::Grammar(e) => write!(f, "{e}"),
            LowerError::Grammars(v) => {
                write!(f, "{} well-definedness violations:", v.len())?;
                for e in v {
                    write!(f, "\n  {e}")?;
                }
                Ok(())
            }
            LowerError::Eval(e) => write!(f, "constant evaluation failed: {e}"),
            LowerError::Internal(m, p) => write!(f, "{p}: internal lowering error: {m}"),
        }
    }
}

impl std::error::Error for LowerError {}

impl From<fnc2_ag::GrammarError> for LowerError {
    fn from(e: fnc2_ag::GrammarError) -> Self {
        LowerError::Grammar(e)
    }
}

impl From<Vec<fnc2_ag::GrammarError>> for LowerError {
    fn from(mut v: Vec<fnc2_ag::GrammarError>) -> Self {
        if v.len() == 1 {
            LowerError::Grammar(v.remove(0))
        } else {
            LowerError::Grammars(v)
        }
    }
}

/// Statistics of one lowering (feeds Table 1's rule counts).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LowerInfo {
    /// Copy rules written explicitly in the OLGA text.
    pub explicit_copies: usize,
    /// Copy rules generated automatically.
    pub auto_copies: usize,
    /// Non-copy rules (registered semantic functions).
    pub computed_rules: usize,
}

/// One semantic rule of the OLGA text — a rule or a local definition —
/// resolved once by the lowering. The back ends print from it.
#[derive(Clone, Debug)]
pub struct RuleText {
    /// The production the rule belongs to.
    pub production: ProductionId,
    /// The occurrence or production local it defines.
    pub target: ONode,
    /// The body's occurrence, local and `token()` references, in first-use
    /// order.
    pub args: Vec<Arg>,
    /// The body, reading argument `k` as the variable `$k`. The
    /// interpreter's closure shares it.
    pub body: Arc<Expr>,
}

/// Lowers a checked AG to an executable [`Grammar`], plus its rule table:
/// every rule and local definition of the OLGA text, in source order (by
/// operator, phase and block; a block's locals before its rules). The
/// rules the lowering generates (automatic copies, rule models) are only
/// in the grammar.
///
/// # Errors
///
/// Fails if, even after automatic copy-rule generation, some output
/// occurrence has no rule (or any other well-definedness violation).
pub fn lower(checked: &CheckedAg) -> Result<(Grammar, LowerInfo, Vec<RuleText>), LowerError> {
    let ag = &checked.ast;
    let ctx = EvalCtx::new(&checked.env).map_err(LowerError::Eval)?;
    let mut b = GrammarBuilder::new(ag.name.clone());
    let mut info = LowerInfo::default();

    // Phyla.
    let mut phylum_ids: HashMap<&str, PhylumId> = HashMap::new();
    for p in &ag.phyla {
        phylum_ids.insert(p, b.phylum(p.clone()));
    }
    if let Some(root) = &ag.root {
        b.set_root(phylum_ids[root.as_str()]);
    }

    // Attributes, in declaration order per phylum.
    let mut attr_ids: HashMap<(&str, &str), AttrId> = HashMap::new();
    for a in &ag.attrs {
        for p in &a.phyla {
            let id = if a.synthesized {
                b.syn(phylum_ids[p.as_str()], a.name.clone())
            } else {
                b.inh(phylum_ids[p.as_str()], a.name.clone())
            };
            attr_ids.insert((p, &a.name), id);
        }
    }

    // Productions.
    let mut prod_ids: HashMap<&str, ProductionId> = HashMap::new();
    for op in &ag.operators {
        let rhs: Vec<PhylumId> = op.rhs.iter().map(|r| phylum_ids[r.as_str()]).collect();
        let id = b.production(op.name.clone(), phylum_ids[op.lhs.as_str()], &rhs);
        prod_ids.insert(&op.name, id);
    }

    // Rules per production, across phases. Locals are scoped per block,
    // as the checker scopes them: a local's body sees the locals declared
    // before it, a rule all of its block's.
    let mut defined: HashMap<ProductionId, HashSet<ONode>> = HashMap::new();
    let mut table = Vec::new();
    for op in &ag.operators {
        let pid = prod_ids[op.name.as_str()];
        let octx = OpCtx::new(op, &checked.attr_table);
        let resolve_occ = |o: &OccRef| -> Result<ONode, LowerError> {
            let (pos, _, _) = octx.resolve(o).map_err(|e| {
                LowerError::Internal(format!("occurrence failed to re-resolve: {e}"), o.pos)
            })?;
            let ph = &octx.positions[pos as usize];
            let id = attr_ids
                .get(&(ph.as_str(), o.attr.as_str()))
                .copied()
                .ok_or_else(|| {
                    LowerError::Internal(
                        format!("attribute `{}` is not declared of phylum `{ph}`", o.attr),
                        o.pos,
                    )
                })?;
            Ok(ONode::Attr(Occ::new(pos, id)))
        };
        let blocks = ag.phases.iter().flat_map(|ph| &ph.blocks);
        for block in blocks.filter(|bl| bl.operator == op.name) {
            let scope: Vec<(&str, LocalId)> = block
                .locals
                .iter()
                .map(|l| (l.name.as_str(), b.local(pid, l.name.clone())))
                .collect();
            let mut rules = Vec::new();
            for (i, l) in block.locals.iter().enumerate() {
                rules.push((ONode::Local(scope[i].1), &l.body, &scope[..i]));
            }
            for rule in &block.rules {
                let target = match &rule.target {
                    RuleTarget::Occ(o) => resolve_occ(o)?,
                    RuleTarget::Local(name, pos) => match scope.iter().find(|(n, _)| n == name) {
                        Some(&(_, l)) => ONode::Local(l),
                        None => {
                            return Err(LowerError::Internal(
                                format!("unknown local `{name}`"),
                                *pos,
                            ))
                        }
                    },
                };
                rules.push((target, &rule.body, &scope[..]));
            }
            for (target, body, locals) in rules {
                let slots = Slots {
                    resolve_occ: &resolve_occ,
                    locals,
                    args: Vec::new(),
                    bound: Vec::new(),
                };
                table.push(add_rule(&mut b, pid, target, body, slots, &ctx, &mut info)?);
                defined.entry(pid).or_default().insert(target);
            }
        }
    }

    // Rule-model instantiation (paper §2.4 / [35]): threading pairs and
    // collection classes fill missing outputs before the generic copy
    // rules.
    for op in &ag.operators {
        let pid = prod_ids[op.name.as_str()];
        let table = &checked.attr_table.attrs;
        // --- threading: base_in snakes through the carrying children ---
        for t in &checked.threads {
            let inn = format!("{}_in", t.base);
            let outn = format!("{}_out", t.base);
            let lhs_carries = t.phyla.contains(&op.lhs);
            // Positions of carrying children, left to right.
            let carriers: Vec<(u16, &String)> = op
                .rhs
                .iter()
                .enumerate()
                .filter(|(_, ph)| t.phyla.contains(ph))
                .map(|(j, ph)| ((j + 1) as u16, ph))
                .collect();
            // Source of the incoming state at each point.
            let mut prev: Option<(u16, &String)> = None;
            for &(pos, ph) in &carriers {
                let target = ONode::Attr(Occ::new(pos, attr_ids[&(ph.as_str(), inn.as_str())]));
                let have = defined.entry(pid).or_default();
                if !have.contains(&target) {
                    let src = match prev {
                        Some((ppos, pph)) => {
                            Occ::new(ppos, attr_ids[&(pph.as_str(), outn.as_str())])
                        }
                        None if lhs_carries => {
                            Occ::new(0, attr_ids[&(op.lhs.as_str(), inn.as_str())])
                        }
                        None => continue, // no upstream state: leave missing
                    };
                    b.copy(pid, target, src);
                    info.auto_copies += 1;
                    defined.entry(pid).or_default().insert(target);
                }
                prev = Some((pos, ph));
            }
            // Outgoing state of the LHS.
            if lhs_carries {
                let target = ONode::Attr(Occ::new(0, attr_ids[&(op.lhs.as_str(), outn.as_str())]));
                let have = defined.entry(pid).or_default();
                if !have.contains(&target) {
                    let src = match prev {
                        Some((ppos, pph)) => {
                            Occ::new(ppos, attr_ids[&(pph.as_str(), outn.as_str())])
                        }
                        None => Occ::new(0, attr_ids[&(op.lhs.as_str(), inn.as_str())]),
                    };
                    b.copy(pid, target, src);
                    info.auto_copies += 1;
                    defined.entry(pid).or_default().insert(target);
                }
            }
        }
        // --- collection classes: concat / sum over carrying children ---
        for (aname, class) in &checked.classes {
            let Some((true, ty)) = table[&op.lhs].get(aname) else {
                continue;
            };
            let target = ONode::Attr(Occ::new(0, attr_ids[&(op.lhs.as_str(), aname.as_str())]));
            if defined.entry(pid).or_default().contains(&target) {
                continue;
            }
            let carriers: Vec<Arg> = op
                .rhs
                .iter()
                .enumerate()
                .filter(|(_, ph)| matches!(table[ph.as_str()].get(aname), Some((true, _))))
                .map(|(j, ph)| {
                    Arg::from(Occ::new(
                        (j + 1) as u16,
                        attr_ids[&(ph.as_str(), aname.as_str())],
                    ))
                })
                .collect();
            let is_str = matches!(ty, crate::types::Ty::Str);
            match (carriers.as_slice(), class) {
                ([], crate::ast::AttrClass::Concat) => {
                    let empty = if is_str {
                        Value::str("")
                    } else {
                        Value::list([])
                    };
                    b.constant(pid, target, empty);
                    info.computed_rules += 1;
                }
                ([], crate::ast::AttrClass::Sum) => {
                    b.constant(pid, target, Value::Int(0));
                    info.computed_rules += 1;
                }
                ([one], _) => {
                    b.copy(pid, target, one.clone());
                    info.auto_copies += 1;
                }
                (many, cls) => {
                    let n = many.len();
                    let fname = format!("model@{cls:?}@{n}@{}@{aname}", op.name);
                    let summing = matches!(cls, crate::ast::AttrClass::Sum);
                    b.func(fname.clone(), n, move |vals: &[Value]| {
                        if summing {
                            Value::Int(vals.iter().map(|v| v.as_int()).sum())
                        } else if matches!(vals[0], Value::Str(_)) {
                            Value::str(vals.iter().map(|v| v.as_str()).collect::<String>())
                        } else {
                            Value::List(vals.iter().fold(
                                fnc2_ag::List::new(Vec::new()),
                                |acc, v| match v {
                                    Value::List(l) => acc.concat(l),
                                    v => panic!("expected list, got {v:?}"),
                                },
                            ))
                        }
                    });
                    b.call(pid, target, &fname, many.to_vec());
                    info.computed_rules += 1;
                }
            }
            defined.entry(pid).or_default().insert(target);
        }
    }

    // Automatic copy rules for missing output occurrences.
    for op in &ag.operators {
        let pid = prod_ids[op.name.as_str()];
        let have = defined.entry(pid).or_default().clone();
        let table = &checked.attr_table.attrs;
        // RHS inherited occurrences.
        for (j, rhs_ph) in op.rhs.iter().enumerate() {
            let pos = (j + 1) as u16;
            for (aname, (syn, ty)) in &table[rhs_ph] {
                if *syn {
                    continue;
                }
                let node = ONode::Attr(Occ::new(pos, attr_ids[&(rhs_ph.as_str(), aname.as_str())]));
                if have.contains(&node) {
                    continue;
                }
                // Same-named inherited attribute on the LHS?
                if let Some((false, lty)) = table[&op.lhs].get(aname) {
                    if lty.compatible(ty) {
                        let src = Occ::new(0, attr_ids[&(op.lhs.as_str(), aname.as_str())]);
                        b.copy(pid, node, src);
                        info.auto_copies += 1;
                    }
                }
            }
        }
        // LHS synthesized occurrences.
        for (aname, (syn, ty)) in &table[&op.lhs] {
            if !*syn {
                continue;
            }
            let node = ONode::Attr(Occ::new(0, attr_ids[&(op.lhs.as_str(), aname.as_str())]));
            if have.contains(&node) {
                continue;
            }
            let candidates: Vec<u16> = op
                .rhs
                .iter()
                .enumerate()
                .filter(|(_, ph)| {
                    matches!(table[ph.as_str()].get(aname), Some((true, cty)) if cty.compatible(ty))
                })
                .map(|(j, _)| (j + 1) as u16)
                .collect();
            if let [only] = candidates[..] {
                let ph = &op.rhs[only as usize - 1];
                let src = Occ::new(only, attr_ids[&(ph.as_str(), aname.as_str())]);
                b.copy(pid, node, src);
                info.auto_copies += 1;
            }
        }
    }

    let grammar = b.finish_verbose()?;
    Ok((grammar, info, table))
}

/// Adds one rule: plain occurrence bodies become copy rules, literals
/// become constants, everything else becomes a registered closure over the
/// interpreter. Returns the rule's entry in the rule table.
fn add_rule(
    b: &mut GrammarBuilder,
    production: ProductionId,
    target: ONode,
    body: &Expr,
    mut slots: Slots,
    ctx: &EvalCtx,
    info: &mut LowerInfo,
) -> Result<RuleText, LowerError> {
    let constant = match body {
        Expr::Int(i, _) => Some(Value::Int(*i)),
        Expr::Real(r, _) => Some(Value::Real(*r)),
        Expr::Bool(v, _) => Some(Value::Bool(*v)),
        Expr::Str(s, _) => Some(Value::str(s)),
        _ => None,
    };
    let body = Arc::new(slots.extract(body)?);
    let args = slots.args;
    if let Some(v) = constant {
        b.constant(production, target, v);
        info.computed_rules += 1;
    } else if matches!(&*body, Expr::Var(v, _) if v == "$0") {
        // A bare occurrence/local/token reference is a copy rule.
        b.copy(production, target, args[0].clone());
        info.explicit_copies += 1;
    } else {
        let fname = format!("rule@{production}@{target:?}");
        let ctx = ctx.clone();
        let shared = Arc::clone(&body);
        b.func_fallible(fname.clone(), args.len(), move |vals: &[Value]| {
            let bindings: Vec<(String, Value)> = vals
                .iter()
                .enumerate()
                .map(|(i, v)| (format!("${i}"), v.clone()))
                .collect();
            ctx.eval_with(&shared, &bindings)
                .map_err(|e| fnc2_ag::SemError::new(e.to_string()))
        });
        b.call(production, target, &fname, args.clone());
        info.computed_rules += 1;
    }
    Ok(RuleText {
        production,
        target,
        args,
        body,
    })
}

/// Rewrites occurrence references, references to the production locals in
/// scope, and `token()` calls into `$k` variables, collecting the argument
/// list.
struct Slots<'a> {
    resolve_occ: &'a dyn Fn(&OccRef) -> Result<ONode, LowerError>,
    locals: &'a [(&'a str, LocalId)],
    args: Vec<Arg>,
    /// `let` and `case` binders, which shadow locals.
    bound: Vec<String>,
}

impl Slots<'_> {
    fn slot(&mut self, arg: Arg) -> Expr {
        let i = match self.args.iter().position(|a| *a == arg) {
            Some(i) => i,
            None => {
                self.args.push(arg);
                self.args.len() - 1
            }
        };
        Expr::Var(format!("${i}"), Pos { line: 0, col: 0 })
    }

    fn all(&mut self, es: &[Expr]) -> Result<Vec<Expr>, LowerError> {
        es.iter().map(|e| self.extract(e)).collect()
    }

    fn boxed(&mut self, e: &Expr) -> Result<Box<Expr>, LowerError> {
        Ok(Box::new(self.extract(e)?))
    }

    fn extract(&mut self, e: &Expr) -> Result<Expr, LowerError> {
        Ok(match e {
            Expr::Occ(o) => {
                let node = (self.resolve_occ)(o)?;
                self.slot(Arg::Node(node))
            }
            Expr::Var(n, p) => {
                let local = self.locals.iter().find(|(name, _)| name == n);
                match local {
                    Some(&(_, l)) if !self.bound.contains(n) => {
                        self.slot(Arg::Node(ONode::Local(l)))
                    }
                    _ => Expr::Var(n.clone(), *p),
                }
            }
            Expr::Call { name, args, .. } if name == "token" && args.is_empty() => {
                self.slot(Arg::Token)
            }
            Expr::Call { name, args, pos } => Expr::Call {
                name: name.clone(),
                args: self.all(args)?,
                pos: *pos,
            },
            Expr::Unop { op, expr, pos } => Expr::Unop {
                op,
                expr: self.boxed(expr)?,
                pos: *pos,
            },
            Expr::Binop { op, lhs, rhs, pos } => Expr::Binop {
                op,
                lhs: self.boxed(lhs)?,
                rhs: self.boxed(rhs)?,
                pos: *pos,
            },
            Expr::If {
                cond,
                then,
                els,
                pos,
            } => Expr::If {
                cond: self.boxed(cond)?,
                then: self.boxed(then)?,
                els: self.boxed(els)?,
                pos: *pos,
            },
            Expr::Let {
                name,
                value,
                body,
                pos,
            } => {
                let value = self.boxed(value)?;
                self.bound.push(name.clone());
                let body = self.boxed(body);
                self.bound.pop();
                Expr::Let {
                    name: name.clone(),
                    value,
                    body: body?,
                    pos: *pos,
                }
            }
            Expr::Case {
                scrutinee,
                arms,
                pos,
            } => {
                let scrutinee = self.boxed(scrutinee)?;
                let arms = arms
                    .iter()
                    .map(|(p, b)| {
                        let before = self.bound.len();
                        self.bound.extend(p.binders().into_iter().map(String::from));
                        let b = self.extract(b);
                        self.bound.truncate(before);
                        Ok((p.clone(), b?))
                    })
                    .collect::<Result<_, LowerError>>()?;
                Expr::Case {
                    scrutinee,
                    arms,
                    pos: *pos,
                }
            }
            Expr::ListLit(items, pos) => Expr::ListLit(self.all(items)?, *pos),
            Expr::TupleLit(items, pos) => Expr::TupleLit(self.all(items)?, *pos),
            Expr::TreeCons { op, args, pos } => Expr::TreeCons {
                op: op.clone(),
                args: self.all(args)?,
                pos: *pos,
            },
            other => other.clone(),
        })
    }
}

#[cfg(test)]
mod tests {
    use fnc2_ag::{TreeBuilder, Value};
    use fnc2_analysis::{snc_test, snc_to_l_ordered, Inclusion};
    use fnc2_visit::{build_visit_seqs, Evaluator, RootInputs};

    use crate::ast::Unit;
    use crate::check::Compiler;
    use crate::parser::parse_unit;

    use super::*;

    fn lower_src(src: &str) -> (Grammar, LowerInfo) {
        let (g, info, _) = lower(&check_src(src)).unwrap();
        (g, info)
    }

    fn check_src(src: &str) -> CheckedAg {
        let Unit::Ag(ag) = parse_unit(src).unwrap() else {
            panic!("expected AG")
        };
        Compiler::new().check_ag(ag).unwrap()
    }

    /// Regression for the diagnostics audit: lowering used to collapse
    /// several well-definedness violations into the first one. Two
    /// missing-rule occurrences (no auto-copy candidate for either) must
    /// both be reported.
    #[test]
    fn lowering_reports_every_well_definedness_violation() {
        let err = lower(&check_src(
            r#"
            attribute grammar bad;
              phylum S;
              operator leaf : S ::= ;
              synthesized a : int of S;
              synthesized b : int of S;
            end
            "#,
        ))
        .unwrap_err();
        let grammar_errs = err.grammar_errors();
        assert_eq!(grammar_errs.len(), 2, "{err}");
        assert!(matches!(err, LowerError::Grammars(_)));
        let msg = err.to_string();
        assert!(msg.contains("S.a"), "{msg}");
        assert!(msg.contains("S.b"), "{msg}");
    }

    /// A single violation keeps the historical single-error shape.
    #[test]
    fn single_violation_stays_singular() {
        let err = lower(&check_src(
            r#"
            attribute grammar bad;
              phylum S;
              operator leaf : S ::= ;
              synthesized a : int of S;
            end
            "#,
        ))
        .unwrap_err();
        assert!(matches!(err, LowerError::Grammar(_)), "{err}");
        assert_eq!(err.grammar_errors().len(), 1);
    }

    #[test]
    fn binary_numbers_end_to_end() {
        let (g, info) = lower_src(
            r#"
            attribute grammar binary;
              phylum Number, Seq, Bit;
              root Number;
              operator number : Number ::= Seq;
              operator pair   : Seq ::= Seq Bit;
              operator single : Seq ::= Bit;
              operator zero   : Bit ::= ;
              operator one    : Bit ::= ;
              synthesized value : real of Number, Seq, Bit;
              synthesized length : int of Seq;
              inherited scale : int of Seq, Bit;
              function pow2(n : int) : real =
                if n = 0 then 1.0 else 2.0 * pow2(n - 1) end;
              for number { Seq.scale := 0; }
              for pair {
                Seq$1.value := Seq$2.value + Bit.value;
                Seq$1.length := Seq$2.length + 1;
                Seq$2.scale := Seq$1.scale + 1;
              }
              for single { Seq.length := 1; }
              for zero { Bit.value := 0.0; }
              for one  { Bit.value := pow2(Bit.scale); }
            end
            "#,
        );
        // Auto-copies: number.value (unique child), pair.Bit.scale (same
        // name on LHS), single.value, single.Bit.scale.
        assert_eq!(info.auto_copies, 4, "{info:?}");
        assert_eq!(g.production_count(), 5);

        // Evaluate "1101" = 13.
        let snc = snc_test(&g);
        assert!(snc.is_snc());
        let lo = snc_to_l_ordered(&g, &snc, Inclusion::Long).unwrap();
        let seqs = build_visit_seqs(&g, &lo);
        let ev = Evaluator::new(&g, &seqs);
        let mut tb = TreeBuilder::new(&g);
        let mut seq = {
            let b = tb.op("one", &[]).unwrap();
            tb.op("single", &[b]).unwrap()
        };
        for c in "101".chars() {
            let b = tb.op(if c == '1' { "one" } else { "zero" }, &[]).unwrap();
            seq = tb.op("pair", &[seq, b]).unwrap();
        }
        let root = tb.op("number", &[seq]).unwrap();
        let tree = tb.finish_root(root).unwrap();
        let (vals, _) = ev.evaluate(&tree, &RootInputs::new()).unwrap();
        let number = g.phylum_by_name("Number").unwrap();
        let value = g.attr_by_name(number, "value").unwrap();
        assert_eq!(vals.get(&g, tree.root(), value), Some(&Value::Real(13.0)));
    }

    #[test]
    fn explicit_copies_stay_copies() {
        let (g, info) = lower_src(
            r#"
            attribute grammar t;
              phylum S, A;
              operator mk : S ::= A;
              operator leaf : A ::= ;
              synthesized v : int of S, A;
              for mk { S.v := A.v; }
              for leaf { A.v := 7; }
            end
            "#,
        );
        assert_eq!(info.explicit_copies, 1);
        assert_eq!(g.copy_rule_count(), 1);
    }

    #[test]
    fn locals_lower_to_local_attributes() {
        let (g, _) = lower_src(
            r#"
            attribute grammar t;
              phylum S;
              operator leaf : S ::= ;
              synthesized v : int of S;
              for leaf {
                local t : int := 20 + 1;
                S.v := t * 2;
              }
            end
            "#,
        );
        let leaf = g.production_by_name("leaf").unwrap();
        assert_eq!(g.production(leaf).locals().len(), 1);
        // Evaluate.
        let snc = snc_test(&g);
        let lo = snc_to_l_ordered(&g, &snc, Inclusion::Long).unwrap();
        let seqs = build_visit_seqs(&g, &lo);
        let ev = Evaluator::new(&g, &seqs);
        let mut tb = TreeBuilder::new(&g);
        let n = tb.op("leaf", &[]).unwrap();
        let tree = tb.finish_root(n).unwrap();
        let (vals, _) = ev.evaluate(&tree, &RootInputs::new()).unwrap();
        let s = g.phylum_by_name("S").unwrap();
        let v = g.attr_by_name(s, "v").unwrap();
        assert_eq!(vals.get(&g, tree.root(), v), Some(&Value::Int(42)));
    }

    #[test]
    fn token_rules_read_the_lexeme() {
        let (g, _) = lower_src(
            r#"
            attribute grammar t;
              phylum S;
              operator leaf : S ::= ;
              synthesized v : int of S;
              for leaf { S.v := token(); }
            end
            "#,
        );
        let snc = snc_test(&g);
        let lo = snc_to_l_ordered(&g, &snc, Inclusion::Long).unwrap();
        let seqs = build_visit_seqs(&g, &lo);
        let ev = Evaluator::new(&g, &seqs);
        let mut tb = TreeBuilder::new(&g);
        let leaf = g.production_by_name("leaf").unwrap();
        let n = tb.node_with_token(leaf, &[], Some(Value::Int(5))).unwrap();
        let tree = tb.finish_root(n).unwrap();
        let (vals, _) = ev.evaluate(&tree, &RootInputs::new()).unwrap();
        let s = g.phylum_by_name("S").unwrap();
        let v = g.attr_by_name(s, "v").unwrap();
        assert_eq!(vals.get(&g, tree.root(), v), Some(&Value::Int(5)));
    }

    #[test]
    fn missing_rule_reported_after_autocopy() {
        let Unit::Ag(ag) = parse_unit(
            r#"
            attribute grammar t;
              phylum S, A;
              operator mk : S ::= A;
              operator leaf : A ::= ;
              synthesized v : int of S;
              synthesized w : int of A;
              for leaf { A.w := 1; }
            end
            "#,
        )
        .unwrap() else {
            panic!()
        };
        let checked = Compiler::new().check_ag(ag).unwrap();
        let err = lower(&checked).unwrap_err();
        // S.v has no rule and no same-named child attribute.
        assert!(err.to_string().contains("S.v"), "{err}");
    }

    #[test]
    fn stale_rule_target_is_diagnosed_not_panicked() {
        let Unit::Ag(ag) = parse_unit(
            r#"
            attribute grammar t;
              phylum S, A;
              operator mk : S ::= A;
              operator leaf : A ::= ;
              synthesized v : int of S, A;
              for mk { S.v := A.v; }
              for leaf { A.v := 7; }
            end
            "#,
        )
        .unwrap() else {
            panic!()
        };
        let mut checked = Compiler::new().check_ag(ag).unwrap();
        // Corrupt a rule target *after* checking: lowering must surface an
        // internal diagnostic instead of panicking on the stale occurrence.
        for phase in &mut checked.ast.phases {
            for block in &mut phase.blocks {
                for rule in &mut block.rules {
                    if let RuleTarget::Occ(o) = &mut rule.target {
                        o.attr = "no_such_attr".to_string();
                    }
                }
            }
        }
        let err = lower(&checked).unwrap_err();
        assert!(matches!(err, LowerError::Internal(..)), "{err}");
        assert!(err.to_string().contains("internal lowering error"), "{err}");
    }

    #[test]
    fn stale_body_occurrence_is_diagnosed_not_panicked() {
        let Unit::Ag(ag) = parse_unit(
            r#"
            attribute grammar t;
              phylum S, A;
              operator mk : S ::= A;
              operator leaf : A ::= ;
              synthesized v : int of S, A;
              for mk { S.v := A.v + 1; }
              for leaf { A.v := 7; }
            end
            "#,
        )
        .unwrap() else {
            panic!()
        };
        let mut checked = Compiler::new().check_ag(ag).unwrap();
        // Corrupt an occurrence inside a rule *body* to exercise the
        // extraction path.
        for phase in &mut checked.ast.phases {
            for block in &mut phase.blocks {
                for rule in &mut block.rules {
                    if let Expr::Binop { lhs, .. } = &mut rule.body {
                        if let Expr::Occ(o) = lhs.as_mut() {
                            o.attr = "no_such_attr".to_string();
                        }
                    }
                }
            }
        }
        let err = lower(&checked).unwrap_err();
        assert!(matches!(err, LowerError::Internal(..)), "{err}");
    }

    #[test]
    fn shadowed_locals_are_not_extracted() {
        let (g, _) = lower_src(
            r#"
            attribute grammar t;
              phylum S;
              operator leaf : S ::= ;
              synthesized v : int of S;
              for leaf {
                local x : int := 10;
                S.v := let x = 2 in x + x end + x;
              }
            end
            "#,
        );
        let snc = snc_test(&g);
        let lo = snc_to_l_ordered(&g, &snc, Inclusion::Long).unwrap();
        let seqs = build_visit_seqs(&g, &lo);
        let ev = Evaluator::new(&g, &seqs);
        let mut tb = TreeBuilder::new(&g);
        let n = tb.op("leaf", &[]).unwrap();
        let tree = tb.finish_root(n).unwrap();
        let (vals, _) = ev.evaluate(&tree, &RootInputs::new()).unwrap();
        let s = g.phylum_by_name("S").unwrap();
        let v = g.attr_by_name(s, "v").unwrap();
        // let-bound x = 2 (2+2) plus local x = 10 → 14.
        assert_eq!(vals.get(&g, tree.root(), v), Some(&Value::Int(14)));
    }
}
