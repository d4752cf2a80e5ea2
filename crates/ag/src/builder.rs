//! Incremental construction and validation of [`Grammar`]s.

use std::collections::{HashMap, HashSet};
use std::hash::BuildHasher;
use std::sync::Arc;

use crate::error::GrammarError;
use crate::grammar::{
    Arg, AttrInfo, AttrKind, Grammar, LocalInfo, Phylum, Production, RuleBody, SemError, SemFn,
    SemRule,
};
use crate::ids::{AttrId, FuncId, LocalId, ONode, PhylumId, ProductionId};
use crate::value::Value;

/// Builds a [`Grammar`] step by step, then validates it with
/// [`finish`](GrammarBuilder::finish).
///
/// The builder performs cheap checks eagerly (duplicate names) and records
/// everything else for the final well-definedness pass, which mirrors what
/// the paper's `asx` processor checks for attributed-abstract-syntax
/// specifications.
///
/// # Examples
///
/// ```
/// use fnc2_ag::{GrammarBuilder, Occ, Value};
///
/// # fn main() -> Result<(), fnc2_ag::GrammarError> {
/// let mut g = GrammarBuilder::new("count");
/// let s = g.phylum("S");
/// let n = g.syn(s, "n");
/// let leaf = g.production("leaf", s, &[]);
/// let node = g.production("node", s, &[s]);
/// g.constant(leaf, Occ::lhs(n), Value::Int(0));
/// g.func("succ", 1, |a| Value::Int(a[0].as_int() + 1));
/// g.call(node, Occ::lhs(n), "succ", [Occ::new(1, n).into()]);
/// let grammar = g.finish()?;
/// assert_eq!(grammar.production_count(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct GrammarBuilder {
    name: String,
    phyla: Vec<Phylum>,
    attrs: Vec<AttrInfo>,
    productions: Vec<Production>,
    functions: Vec<SemFn>,
    func_names: HashMap<String, FuncId>,
    /// The hashes of the phylum and production names declared so far.
    names: HashSet<(&'static str, u64)>,
    root: Option<PhylumId>,
    errors: Vec<GrammarError>,
}

impl GrammarBuilder {
    /// Starts a new grammar with the given name. The first phylum declared
    /// becomes the root unless [`set_root`](Self::set_root) overrides it.
    pub fn new(name: impl Into<String>) -> Self {
        GrammarBuilder {
            name: name.into(),
            phyla: Vec::new(),
            attrs: Vec::new(),
            productions: Vec::new(),
            functions: Vec::new(),
            func_names: HashMap::new(),
            names: HashSet::new(),
            root: None,
            errors: Vec::new(),
        }
    }

    /// Declares a phylum (non-terminal).
    pub fn phylum(&mut self, name: impl Into<String>) -> PhylumId {
        let name = name.into();
        self.declare("phylum", &name);
        let id = PhylumId::from_raw(self.phyla.len() as u32);
        self.phyla.push(Phylum {
            name,
            attrs: Vec::new(),
            productions: Vec::new(),
        });
        if self.root.is_none() {
            self.root = Some(id);
        }
        id
    }

    /// Records the declaration of `name`, a duplicate of its `kind` being
    /// an error. A repeated hash is confirmed against the names themselves.
    fn declare(&mut self, kind: &'static str, name: &str) {
        let hash = self.names.hasher().hash_one(name);
        let taken = !self.names.insert((kind, hash))
            && match kind {
                "phylum" => self.phyla.iter().any(|p| p.name == name),
                _ => self.productions.iter().any(|p| p.name == name),
            };
        if taken {
            let name = name.to_string();
            self.errors.push(GrammarError::DuplicateName { kind, name });
        }
    }

    /// Overrides the root phylum (default: the first declared).
    pub fn set_root(&mut self, root: PhylumId) {
        self.root = Some(root);
    }

    fn declare_attr(&mut self, phylum: PhylumId, name: String, kind: AttrKind) -> AttrId {
        let ph = &self.phyla[phylum.index()];
        if ph.attrs.iter().any(|&a| self.attrs[a.index()].name == name) {
            self.errors.push(GrammarError::DuplicateName {
                kind: "attribute",
                name: format!("{}.{}", ph.name, name),
            });
        }
        let id = AttrId::from_raw(self.attrs.len() as u32);
        let offset = self.phyla[phylum.index()].attrs.len();
        self.attrs.push(AttrInfo {
            name,
            kind,
            phylum,
            offset,
        });
        self.phyla[phylum.index()].attrs.push(id);
        id
    }

    /// Declares a synthesized attribute on `phylum`.
    pub fn syn(&mut self, phylum: PhylumId, name: impl Into<String>) -> AttrId {
        self.declare_attr(phylum, name.into(), AttrKind::Synthesized)
    }

    /// Declares an inherited attribute on `phylum`.
    pub fn inh(&mut self, phylum: PhylumId, name: impl Into<String>) -> AttrId {
        self.declare_attr(phylum, name.into(), AttrKind::Inherited)
    }

    /// Declares a production `name : lhs ::= rhs…`.
    pub fn production(
        &mut self,
        name: impl Into<String>,
        lhs: PhylumId,
        rhs: &[PhylumId],
    ) -> ProductionId {
        let name = name.into();
        self.declare("production", &name);
        let id = ProductionId::from_raw(self.productions.len() as u32);
        self.productions.push(Production {
            name,
            lhs,
            rhs: rhs.to_vec(),
            rules: Vec::new(),
            locals: Vec::new(),
            base: Box::default(),
            nodes: Box::default(),
            rule_at: Box::default(),
        });
        self.phyla[lhs.index()].productions.push(id);
        id
    }

    /// Declares a production-local attribute.
    pub fn local(&mut self, p: ProductionId, name: impl Into<String>) -> LocalId {
        let prod = &mut self.productions[p.index()];
        let id = LocalId::from_raw(prod.locals.len() as u32);
        prod.locals.push(LocalInfo { name: name.into() });
        id
    }

    /// Registers a semantic function with unit cost.
    pub fn func(
        &mut self,
        name: impl Into<String>,
        arity: usize,
        f: impl Fn(&[Value]) -> Value + Send + Sync + 'static,
    ) -> FuncId {
        self.func_with_cost(name, arity, 1, f)
    }

    /// Registers a semantic function with an abstract evaluation cost
    /// (used only by workload models in the benches).
    pub fn func_with_cost(
        &mut self,
        name: impl Into<String>,
        arity: usize,
        cost: u32,
        f: impl Fn(&[Value]) -> Value + Send + Sync + 'static,
    ) -> FuncId {
        self.func_fallible_with_cost(name, arity, cost, move |args| Ok(f(args)))
    }

    /// Registers a semantic function that may fail at runtime (e.g. the
    /// OLGA `error` builtin), with unit cost.
    pub fn func_fallible(
        &mut self,
        name: impl Into<String>,
        arity: usize,
        f: impl Fn(&[Value]) -> Result<Value, SemError> + Send + Sync + 'static,
    ) -> FuncId {
        self.func_fallible_with_cost(name, arity, 1, f)
    }

    /// Registers a fallible semantic function with an abstract evaluation
    /// cost.
    pub fn func_fallible_with_cost(
        &mut self,
        name: impl Into<String>,
        arity: usize,
        cost: u32,
        f: impl Fn(&[Value]) -> Result<Value, SemError> + Send + Sync + 'static,
    ) -> FuncId {
        let name = name.into();
        let id = FuncId::from_raw(self.functions.len() as u32);
        if self.func_names.insert(name.clone(), id).is_some() {
            self.errors.push(GrammarError::DuplicateName {
                kind: "function",
                name: name.clone(),
            });
        }
        self.functions.push(SemFn {
            name,
            arity,
            f: Arc::new(f),
            cost,
        });
        id
    }

    /// Adds the rule `target := source` (a copy rule).
    pub fn copy(&mut self, p: ProductionId, target: impl Into<ONode>, source: impl Into<Arg>) {
        self.productions[p.index()].rules.push(SemRule {
            target: target.into(),
            body: RuleBody::Copy(source.into()),
        });
    }

    /// Adds the rule `target := value` (a constant rule, modeled as a copy
    /// of an embedded constant).
    pub fn constant(&mut self, p: ProductionId, target: impl Into<ONode>, value: Value) {
        self.productions[p.index()].rules.push(SemRule {
            target: target.into(),
            body: RuleBody::Copy(Arg::Const(value)),
        });
    }

    /// Adds the rule `target := func(args…)`, resolving `func` by name.
    /// Unknown functions are reported by [`finish`](Self::finish).
    pub fn call(
        &mut self,
        p: ProductionId,
        target: impl Into<ONode>,
        func: &str,
        args: impl IntoIterator<Item = Arg>,
    ) {
        match self.func_names.get(func) {
            Some(&id) => self.call_func(p, target, id, args),
            None => self.errors.push(GrammarError::UnknownName {
                kind: "function",
                name: func.to_string(),
            }),
        }
    }

    /// Adds the rule `target := func(args…)` for the function registered
    /// as `func`.
    pub fn call_func(
        &mut self,
        p: ProductionId,
        target: impl Into<ONode>,
        func: FuncId,
        args: impl IntoIterator<Item = Arg>,
    ) {
        let args: Vec<Arg> = args.into_iter().collect();
        let f = &self.functions[func.index()];
        if f.arity != args.len() {
            self.errors.push(GrammarError::ArityMismatch {
                function: f.name.clone(),
                expected: f.arity,
                found: args.len(),
            });
        }
        self.productions[p.index()].rules.push(SemRule {
            target: target.into(),
            body: RuleBody::Call { func, args },
        });
    }

    /// Validates everything and produces the immutable [`Grammar`].
    ///
    /// # Errors
    ///
    /// Returns the first error in this order: eager errors (duplicates,
    /// unknown functions, arity), then per-production checks: occurrence
    /// positions in range, attributes on the right phyla, no rule defining
    /// an input occurrence, every output occurrence (including locals)
    /// defined exactly once, every phylum productive. Use
    /// [`finish_verbose`](Self::finish_verbose) to get *every* violation
    /// instead of the first.
    pub fn finish(self) -> Result<Grammar, GrammarError> {
        self.finish_verbose().map_err(|mut errs| errs.remove(0))
    }

    /// Like [`finish`](Self::finish), but reports **all** well-definedness
    /// violations instead of collapsing them to the first.
    ///
    /// The order is deterministic: eager errors in declaration order, then
    /// the per-production checks in production order, then unproductive
    /// phyla in phylum order.
    ///
    /// # Errors
    ///
    /// The non-empty list of every violation found.
    pub fn finish_verbose(self) -> Result<Grammar, Vec<GrammarError>> {
        let mut errors = self.errors;
        if self.phyla.is_empty() {
            errors.push(GrammarError::Empty);
            return Err(errors);
        }
        let mut g = Grammar {
            name: self.name,
            phyla: self.phyla,
            attrs: self.attrs,
            productions: self.productions,
            functions: self.functions,
            root: self.root.expect("non-empty grammar has a root"),
        };
        for prod in &mut g.productions {
            prod.number(&g.phyla, &g.attrs);
        }
        validate(&g, &mut errors);
        if errors.is_empty() {
            Ok(g)
        } else {
            Err(errors)
        }
    }
}

/// Appends every well-definedness violation of `g` to `errors`, in
/// deterministic production-then-phylum order.
fn validate(g: &Grammar, errors: &mut Vec<GrammarError>) {
    // Per node of the production at hand: the rules defining it, and
    // whether it is an output.
    let mut defs: Vec<u32> = Vec::new();
    let mut is_output: Vec<bool> = Vec::new();
    for pid in g.productions() {
        let prod = g.production(pid);
        let arity = prod.arity();
        let check_node = |node: ONode, errors: &mut Vec<GrammarError>| match node {
            ONode::Attr(o) => {
                if o.pos as usize > arity {
                    errors.push(GrammarError::PositionOutOfRange {
                        production: prod.name().to_string(),
                        pos: o.pos,
                        arity,
                    });
                    return;
                }
                let ph = prod.phylum_at(o.pos);
                if g.attr(o.attr).phylum() != ph {
                    errors.push(GrammarError::AttrNotOnPhylum {
                        production: prod.name().to_string(),
                        attr: g.attr(o.attr).name().to_string(),
                        phylum: g.phylum(ph).name().to_string(),
                    });
                }
            }
            ONode::Local(l) => {
                if l.index() >= prod.locals().len() {
                    errors.push(GrammarError::UnknownName {
                        kind: "local attribute",
                        name: format!("{l}"),
                    });
                }
            }
        };
        for rule in prod.rules() {
            check_node(rule.target(), errors);
            for n in rule.read_nodes() {
                check_node(n, errors);
            }
            if let ONode::Attr(o) = rule.target() {
                let placed =
                    o.pos as usize <= arity && g.attr(o.attr).phylum() == prod.phylum_at(o.pos);
                if placed && !g.is_output(pid, o) {
                    errors.push(GrammarError::RuleDefinesInput {
                        production: prod.name().to_string(),
                        target: g.occ_name(pid, rule.target()),
                    });
                }
            }
        }
        // Exactly-once definition of each output occurrence.
        defs.clear();
        defs.resize(prod.nodes().len(), 0);
        for rule in prod.rules() {
            if let Some(k) = g.node_index(pid, rule.target()) {
                defs[k] += 1;
            }
        }
        is_output.clear();
        is_output.resize(prod.nodes().len(), false);
        // The outputs in the production's numbering, locals last.
        for (k, &out) in prod.nodes().iter().enumerate() {
            if out.occ().is_some_and(|o| !g.is_output(pid, o)) {
                continue;
            }
            is_output[k] = true;
            let n = defs[k];
            if n == 0 {
                errors.push(GrammarError::MissingRule {
                    production: prod.name().to_string(),
                    target: g.occ_name(pid, out),
                });
            }
            if n > 1 {
                errors.push(GrammarError::DuplicateRule {
                    production: prod.name().to_string(),
                    target: g.occ_name(pid, out),
                });
            }
        }
        // No rule may target something that is not an output (locals are
        // outputs; inputs were rejected above, so only count rules whose
        // target is not in `outputs` at all — e.g. a stray local id).
        for rule in prod.rules() {
            // Skip targets the earlier checks already reported.
            let already_flagged = match rule.target() {
                ONode::Attr(o) => {
                    o.pos as usize > arity
                        || g.attr(o.attr).phylum() != prod.phylum_at(o.pos)
                        || !g.is_output(pid, o)
                }
                ONode::Local(l) => l.index() >= prod.locals().len(),
            };
            let output = g
                .node_index(pid, rule.target())
                .is_some_and(|k| is_output[k]);
            if !already_flagged && !output {
                errors.push(GrammarError::RuleDefinesInput {
                    production: prod.name().to_string(),
                    target: g.occ_name(pid, rule.target()),
                });
            }
        }
    }
    for ph in g.phyla() {
        if g.phylum(ph).productions().is_empty() {
            errors.push(GrammarError::NoProduction {
                phylum: g.phylum(ph).name().to_string(),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::ids::Occ;

    use super::*;

    #[test]
    fn missing_rule_is_rejected() {
        let mut g = GrammarBuilder::new("bad");
        let s = g.phylum("S");
        let _v = g.syn(s, "v");
        g.production("leaf", s, &[]);
        match g.finish() {
            Err(GrammarError::MissingRule { target, .. }) => assert_eq!(target, "S.v"),
            other => panic!("expected MissingRule, got {other:?}"),
        }
    }

    #[test]
    fn duplicate_rule_is_rejected() {
        let mut g = GrammarBuilder::new("bad");
        let s = g.phylum("S");
        let v = g.syn(s, "v");
        let leaf = g.production("leaf", s, &[]);
        g.constant(leaf, Occ::lhs(v), Value::Int(0));
        g.constant(leaf, Occ::lhs(v), Value::Int(1));
        assert!(matches!(
            g.finish(),
            Err(GrammarError::DuplicateRule { .. })
        ));
    }

    #[test]
    fn duplicate_names_are_rejected_per_kind() {
        let mut g = GrammarBuilder::new("bad");
        let s = g.phylum("S");
        g.phylum("T");
        g.phylum("S");
        // A production may share a phylum's name, not another production's.
        g.production("S", s, &[]);
        g.production("S", s, &[]);
        g.func("f", 0, |_| Value::Int(0));
        g.func("f", 0, |_| Value::Int(1));
        let dups: Vec<_> = match g.finish_verbose() {
            Err(errs) => errs
                .into_iter()
                .filter_map(|e| match e {
                    GrammarError::DuplicateName { kind, name } => Some((kind, name)),
                    _ => None,
                })
                .collect(),
            Ok(_) => panic!("duplicates accepted"),
        };
        let want = [("phylum", "S"), ("production", "S"), ("function", "f")];
        assert_eq!(dups, want.map(|(k, n)| (k, n.to_string())));
    }

    #[test]
    fn defining_input_is_rejected() {
        let mut g = GrammarBuilder::new("bad");
        let s = g.phylum("S");
        let i = g.inh(s, "i");
        let leaf = g.production("leaf", s, &[]);
        // Defining the LHS *inherited* attribute is illegal.
        g.constant(leaf, Occ::lhs(i), Value::Int(0));
        assert!(matches!(
            g.finish(),
            Err(GrammarError::RuleDefinesInput { .. })
        ));
    }

    #[test]
    fn unknown_function_is_rejected() {
        let mut g = GrammarBuilder::new("bad");
        let s = g.phylum("S");
        let v = g.syn(s, "v");
        let leaf = g.production("leaf", s, &[]);
        g.call(leaf, Occ::lhs(v), "nope", []);
        assert!(matches!(g.finish(), Err(GrammarError::UnknownName { .. })));
    }

    #[test]
    fn arity_mismatch_is_rejected() {
        let mut g = GrammarBuilder::new("bad");
        let s = g.phylum("S");
        let v = g.syn(s, "v");
        let leaf = g.production("leaf", s, &[]);
        g.func("two", 2, |a| a[0].clone());
        g.call(leaf, Occ::lhs(v), "two", []);
        assert!(matches!(
            g.finish(),
            Err(GrammarError::ArityMismatch {
                expected: 2,
                found: 0,
                ..
            })
        ));
    }

    #[test]
    fn unproductive_phylum_is_rejected() {
        let mut g = GrammarBuilder::new("bad");
        let _s = g.phylum("S");
        assert!(matches!(g.finish(), Err(GrammarError::NoProduction { .. })));
    }

    #[test]
    fn empty_grammar_is_rejected() {
        let g = GrammarBuilder::new("empty");
        assert!(matches!(g.finish(), Err(GrammarError::Empty)));
    }

    #[test]
    fn attr_on_wrong_phylum_is_rejected() {
        let mut g = GrammarBuilder::new("bad");
        let s = g.phylum("S");
        let t = g.phylum("T");
        let v = g.syn(s, "v");
        let w = g.syn(t, "w");
        let leaf_t = g.production("leaft", t, &[]);
        g.constant(leaf_t, Occ::lhs(w), Value::Int(0));
        let leaf = g.production("leaf", s, &[]);
        // `w` belongs to T, not S.
        g.copy(leaf, Occ::lhs(v), Occ::lhs(w));
        assert!(matches!(
            g.finish(),
            Err(GrammarError::AttrNotOnPhylum { .. })
        ));
    }

    #[test]
    fn locals_must_be_defined() {
        let mut g = GrammarBuilder::new("bad");
        let s = g.phylum("S");
        let v = g.syn(s, "v");
        let leaf = g.production("leaf", s, &[]);
        let l = g.local(leaf, "tmp");
        g.copy(leaf, Occ::lhs(v), ONode::Local(l));
        assert!(matches!(g.finish(), Err(GrammarError::MissingRule { .. })));
    }

    /// `finish` historically collapsed multiple violations into the first;
    /// `finish_verbose` must surface every one, deterministically ordered.
    #[test]
    fn finish_verbose_reports_every_violation() {
        let mut g = GrammarBuilder::new("bad");
        let s = g.phylum("S");
        let t = g.phylum("T");
        let _v = g.syn(s, "v"); // never defined in `leaf`
        let _w = g.syn(t, "w"); // never defined in `leaft`
        g.production("leaf", s, &[]);
        g.production("leaft", t, &[]);
        let errs = g.finish_verbose().unwrap_err();
        assert_eq!(errs.len(), 2, "{errs:?}");
        let targets: Vec<String> = errs
            .iter()
            .map(|e| match e {
                GrammarError::MissingRule { target, .. } => target.clone(),
                other => panic!("expected MissingRule, got {other:?}"),
            })
            .collect();
        assert_eq!(targets, vec!["S.v", "T.w"]);
    }

    /// `finish` still returns exactly the first of the verbose errors.
    #[test]
    fn finish_takes_first_verbose_error() {
        let build = || {
            let mut g = GrammarBuilder::new("bad");
            let s = g.phylum("S");
            let _v = g.syn(s, "v");
            let _u = g.syn(s, "u");
            g.production("leaf", s, &[]);
            g
        };
        let first = build().finish().unwrap_err();
        let all = build().finish_verbose().unwrap_err();
        assert_eq!(all.len(), 2);
        assert_eq!(format!("{first:?}"), format!("{:?}", all[0]));
    }

    /// A rule on a wrong-phylum attribute yields one error, not a cascade.
    #[test]
    fn wrong_phylum_target_is_reported_once() {
        let mut g = GrammarBuilder::new("bad");
        let s = g.phylum("S");
        let t = g.phylum("T");
        let v = g.syn(s, "v");
        let w = g.syn(t, "w");
        let leaf_t = g.production("leaft", t, &[]);
        g.constant(leaf_t, Occ::lhs(w), Value::Int(0));
        let leaf = g.production("leaf", s, &[]);
        g.constant(leaf, Occ::lhs(v), Value::Int(1));
        // `w` belongs to T, not S: exactly one AttrNotOnPhylum.
        g.constant(leaf, Occ::lhs(w), Value::Int(2));
        let errs = g.finish_verbose().unwrap_err();
        assert_eq!(errs.len(), 1, "{errs:?}");
        assert!(matches!(errs[0], GrammarError::AttrNotOnPhylum { .. }));
    }

    #[test]
    fn valid_grammar_with_local() {
        let mut g = GrammarBuilder::new("ok");
        let s = g.phylum("S");
        let v = g.syn(s, "v");
        let leaf = g.production("leaf", s, &[]);
        let l = g.local(leaf, "tmp");
        g.constant(leaf, ONode::Local(l), Value::Int(41));
        g.func("succ", 1, |a| Value::Int(a[0].as_int() + 1));
        g.call(leaf, Occ::lhs(v), "succ", [Arg::Node(ONode::Local(l))]);
        let g = g.finish().unwrap();
        assert_eq!(g.rule_count(), 2);
        assert_eq!(
            g.production(g.production_by_name("leaf").unwrap())
                .locals()
                .len(),
            1
        );
    }
}
