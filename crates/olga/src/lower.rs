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

use fnc2_ag::{Arg, Grammar, GrammarBuilder, LocalId, ONode, Occ, PhylumId, ProductionId, Value};

use crate::ast::{Builtin, Callee, Expr, OccRef, RuleBlock, RuleTarget, VarRef};
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
    /// The body, reading argument `k` as [`Expr::Arg`]`(k)`. The
    /// interpreter's closure shares it.
    pub body: Arc<Expr>,
}

/// Lowers a checked AG to an executable [`Grammar`], plus its rule table:
/// every rule and local definition of the OLGA text, in source order (by
/// operator, phase and block; a block's locals before its rules). The
/// rules the lowering generates (automatic copies, rule models) are only
/// in the grammar. The rule bodies move into the rule table, so the
/// checked AG is consumed; a caller that translates the rules to C keeps
/// a clone of its `env`.
///
/// # Errors
///
/// Fails if, even after automatic copy-rule generation, some output
/// occurrence has no rule (or any other well-definedness violation).
pub fn lower(checked: CheckedAg) -> Result<(Grammar, LowerInfo, Vec<RuleText>), LowerError> {
    let CheckedAg {
        ast: ag,
        env,
        attr_table,
        classes,
        threads,
    } = checked;
    let ctx = EvalCtx::new(&env).map_err(LowerError::Eval)?;
    let mut b = GrammarBuilder::new(ag.name);
    let mut info = LowerInfo::default();

    // Phyla.
    let mut phylum_ids: HashMap<&str, PhylumId> = HashMap::new();
    for p in &ag.phyla {
        phylum_ids.insert(p, b.phylum(p.as_str()));
    }
    if let Some(root) = &ag.root {
        b.set_root(phylum_ids[root.as_str()]);
    }

    // Attributes, in declaration order: `attr_ids[k]` is the id of the
    // table's declaration `k`.
    let mut attr_ids = Vec::new();
    for a in &ag.attrs {
        for p in &a.phyla {
            let ph = phylum_ids[p.as_str()];
            attr_ids.push(if a.synthesized {
                b.syn(ph, a.name.as_str())
            } else {
                b.inh(ph, a.name.as_str())
            });
        }
    }
    let rows = &attr_table.attrs;
    let id = |ph: &str, attr: &str| attr_ids[rows[ph][attr].2];

    // Productions, and the rule blocks by production, phase by phase.
    let mut op_index: HashMap<&str, usize> = HashMap::new();
    let (mut pids, mut rhs) = (Vec::with_capacity(ag.operators.len()), Vec::new());
    for (i, op) in ag.operators.iter().enumerate() {
        rhs.clear();
        rhs.extend(op.rhs.iter().map(|r| phylum_ids[r.as_str()]));
        pids.push(b.production(op.name.as_str(), phylum_ids[op.lhs.as_str()], &rhs));
        op_index.insert(&op.name, i);
    }
    let mut blocks: Vec<(usize, RuleBlock)> = ag
        .phases
        .into_iter()
        .flat_map(|ph| ph.blocks)
        .filter_map(|bl| Some((*op_index.get(bl.operator.as_str())?, bl)))
        .collect();
    blocks.sort_by_key(|&(i, _)| i);
    let mut blocks = blocks.into_iter().peekable();

    // Rules per production, across phases. Locals are scoped per block,
    // as the checker scopes them: a local's body sees the locals declared
    // before it, a rule all of its block's.
    let mut defined: Vec<HashSet<ONode>> = vec![HashSet::new(); pids.len()];
    let (mut table, mut targets) = (Vec::new(), Vec::new());
    for (i, (op, &pid)) in ag.operators.iter().zip(&pids).enumerate() {
        let octx = OpCtx::new(op, &attr_table);
        let resolve_occ = |o: &OccRef| -> Result<ONode, LowerError> {
            let (pos, &(_, _, k)) = octx.resolve(o).map_err(|e| {
                LowerError::Internal(format!("occurrence failed to re-resolve: {e}"), o.pos)
            })?;
            let id = attr_ids.get(k).ok_or_else(|| {
                let message = format!("attribute `{}` is not declared", o.attr);
                LowerError::Internal(message, o.pos)
            })?;
            Ok(ONode::Attr(Occ::new(pos, *id)))
        };
        while let Some((_, block)) = blocks.next_if(|&(k, _)| k == i) {
            let (names, bodies): (Vec<String>, Vec<Expr>) =
                block.locals.into_iter().map(|l| (l.name, l.body)).unzip();
            let scope: Vec<(&str, LocalId)> = names
                .iter()
                .map(|n| (n.as_str(), b.local(pid, n.as_str())))
                .collect();
            targets.clear();
            for rule in &block.rules {
                targets.push(match &rule.target {
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
                });
            }
            let locals = bodies
                .into_iter()
                .enumerate()
                .map(|(i, body)| (ONode::Local(scope[i].1), body, &scope[..i]));
            let rules = block.rules.into_iter().zip(&targets);
            for (target, body, locals) in locals.chain(rules.map(|(r, &t)| (t, r.body, &scope[..])))
            {
                let reads = Reads {
                    resolve_occ: &resolve_occ,
                    locals,
                };
                table.push(add_rule(&mut b, pid, target, body, reads, &ctx, &mut info)?);
                defined[pid.index()].insert(target);
            }
        }
    }

    // Rule-model instantiation (paper §2.4 / [35]): threading pairs and
    // collection classes fill missing outputs before the generic copy
    // rules.
    let threads: Vec<_> = threads
        .iter()
        .map(|t| (t, format!("{}_in", t.base), format!("{}_out", t.base)))
        .collect();
    for (op, &pid) in ag.operators.iter().zip(&pids) {
        // --- threading: base_in snakes through the carrying children ---
        for (t, inn, outn) in &threads {
            let (inn, outn) = (inn.as_str(), outn.as_str());
            let lhs_carries = t.phyla.contains(&op.lhs);
            // Source of the incoming state at each point: the last carrying
            // child to the left, or the LHS.
            let mut prev: Option<(u16, &str)> = None;
            let carriers = op
                .rhs
                .iter()
                .enumerate()
                .filter(|(_, ph)| t.phyla.contains(ph));
            for (j, ph) in carriers {
                let pos = (j + 1) as u16;
                let target = ONode::Attr(Occ::new(pos, id(ph, inn)));
                if !defined[pid.index()].contains(&target) {
                    let src = match prev {
                        Some((ppos, pph)) => Occ::new(ppos, id(pph, outn)),
                        None if lhs_carries => Occ::new(0, id(&op.lhs, inn)),
                        None => continue, // no upstream state: leave missing
                    };
                    b.copy(pid, target, src);
                    info.auto_copies += 1;
                    defined[pid.index()].insert(target);
                }
                prev = Some((pos, ph));
            }
            // Outgoing state of the LHS.
            if lhs_carries {
                let target = ONode::Attr(Occ::new(0, id(&op.lhs, outn)));
                if !defined[pid.index()].contains(&target) {
                    let src = match prev {
                        Some((ppos, pph)) => Occ::new(ppos, id(pph, outn)),
                        None => Occ::new(0, id(&op.lhs, inn)),
                    };
                    b.copy(pid, target, src);
                    info.auto_copies += 1;
                    defined[pid.index()].insert(target);
                }
            }
        }
        // --- collection classes: concat / sum over carrying children ---
        for (aname, class) in &classes {
            let Some(&(true, ref ty, k)) = rows[&op.lhs].get(aname) else {
                continue;
            };
            let target = ONode::Attr(Occ::new(0, attr_ids[k]));
            if defined[pid.index()].contains(&target) {
                continue;
            }
            let carriers: Vec<Arg> = op
                .rhs
                .iter()
                .enumerate()
                .filter_map(|(j, ph)| match rows[ph.as_str()].get(aname) {
                    Some(&(true, _, k)) => Some(Occ::new((j + 1) as u16, attr_ids[k]).into()),
                    _ => None,
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
                    let func = b.func(fname, n, move |vals: &[Value]| {
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
                    b.call_func(pid, target, func, carriers);
                    info.computed_rules += 1;
                }
            }
            defined[pid.index()].insert(target);
        }
    }

    // Automatic copy rules for missing output occurrences.
    for (op, &pid) in ag.operators.iter().zip(&pids) {
        let lhs_row = &rows[&op.lhs];
        // RHS inherited occurrences.
        for (j, rhs_ph) in op.rhs.iter().enumerate() {
            let pos = (j + 1) as u16;
            for (aname, &(syn, ref ty, k)) in &rows[rhs_ph] {
                let node = ONode::Attr(Occ::new(pos, attr_ids[k]));
                if syn || defined[pid.index()].contains(&node) {
                    continue;
                }
                // Same-named inherited attribute on the LHS?
                if let Some(&(false, ref lty, lk)) = lhs_row.get(aname) {
                    if lty.compatible(ty) {
                        b.copy(pid, node, Occ::new(0, attr_ids[lk]));
                        info.auto_copies += 1;
                    }
                }
            }
        }
        // LHS synthesized occurrences: copied from the one child with a
        // compatible synthesized attribute of the same name.
        for (aname, &(syn, ref ty, k)) in lhs_row {
            let node = ONode::Attr(Occ::new(0, attr_ids[k]));
            if !syn || defined[pid.index()].contains(&node) {
                continue;
            }
            let mut candidates = op.rhs.iter().enumerate().filter_map(|(j, ph)| {
                match rows[ph.as_str()].get(aname) {
                    Some(&(true, ref cty, ck)) if cty.compatible(ty) => Some((j + 1, ck)),
                    _ => None,
                }
            });
            if let (Some((pos, ck)), None) = (candidates.next(), candidates.next()) {
                b.copy(pid, node, Occ::new(pos as u16, attr_ids[ck]));
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
    mut body: Expr,
    reads: Reads,
    ctx: &EvalCtx,
    info: &mut LowerInfo,
) -> Result<RuleText, LowerError> {
    let constant = match &body {
        Expr::ListLit(..) => None,
        literal => literal.literal(),
    };
    let args = reads.extract(&mut body)?;
    let body = Arc::new(body);
    if let Some(v) = constant {
        b.constant(production, target, v);
        info.computed_rules += 1;
    } else if matches!(*body, Expr::Arg(0)) {
        // A bare occurrence/local/token reference is a copy rule.
        b.copy(production, target, args[0].clone());
        info.explicit_copies += 1;
    } else {
        let fname = format!("rule@{production}@{target:?}");
        let ctx = ctx.clone();
        let shared = Arc::clone(&body);
        let func = b.func_fallible(fname, args.len(), move |vals: &[Value]| {
            ctx.eval_with(&shared, vals)
                .map_err(|e| fnc2_ag::SemError::new(e.to_string()))
        });
        b.call_func(production, target, func, args.iter().cloned());
        info.computed_rules += 1;
    }
    Ok(RuleText {
        production,
        target,
        args,
        body,
    })
}

/// What a rule body reads from its production: occurrences, the
/// production locals in scope, and `token()`.
struct Reads<'a> {
    resolve_occ: &'a dyn Fn(&OccRef) -> Result<ONode, LowerError>,
    locals: &'a [(&'a str, LocalId)],
}

impl Reads<'_> {
    /// Replaces each read in `body` with [`Expr::Arg`], and returns the
    /// reads in first-use order.
    fn extract(&self, body: &mut Expr) -> Result<Vec<Arg>, LowerError> {
        let mut args: Vec<Arg> = Vec::new();
        body.try_walk_mut(&mut |e| {
            let arg = match e {
                Expr::Occ(o) => Arg::Node((self.resolve_occ)(o)?),
                Expr::Var {
                    name,
                    var: VarRef::Local,
                    pos,
                } => match self.locals.iter().find(|(n, _)| n == name) {
                    Some(&(_, l)) => Arg::Node(ONode::Local(l)),
                    None => {
                        let message = format!("unknown local `{name}`");
                        return Err(LowerError::Internal(message, *pos));
                    }
                },
                Expr::Call {
                    callee: Callee::Builtin(Builtin::Token),
                    ..
                } => Arg::Token,
                _ => return Ok(()),
            };
            let k = match args.iter().position(|a| *a == arg) {
                Some(k) => k,
                None => {
                    args.push(arg);
                    args.len() - 1
                }
            };
            *e = Expr::Arg(k);
            Ok(())
        })?;
        Ok(args)
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
        let (g, info, _) = lower(check_src(src)).unwrap();
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
        let err = lower(check_src(
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
        let err = lower(check_src(
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
        let err = lower(checked).unwrap_err();
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
        let err = lower(checked).unwrap_err();
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
        let err = lower(checked).unwrap_err();
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
