//! Shared semantic-rule evaluation over an abstract attribute storage.

use std::error::Error;
use std::fmt;

use fnc2_ag::{Arg, Grammar, NodeId, ONode, Occ, ProductionId, RuleBody, Tree, Value};

/// Errors raised while evaluating attribute instances.
#[derive(Clone, Debug, PartialEq)]
pub enum EvalError {
    /// An argument value was not available — a scheduling bug or, for the
    /// dynamic evaluator, a dependency on a circular instance.
    MissingValue {
        /// The node whose attribute was read.
        node: NodeId,
        /// Display name of the attribute or local.
        what: String,
    },
    /// The dynamic or the incremental evaluator found a cycle among
    /// attribute instances.
    CircularInstance {
        /// The node of an instance on the cycle or waiting on it.
        node: NodeId,
        /// Display name of the attribute.
        what: String,
    },
    /// A rule read the node's lexical token but the tree node carries none.
    MissingToken {
        /// The tokenless node.
        node: NodeId,
        /// The production applied there.
        production: String,
    },
    /// The tree's root phylum carries an inherited attribute with no value
    /// supplied in the root inputs.
    MissingRootInput {
        /// Display name of the attribute.
        what: String,
    },
    /// A semantic function aborted at runtime (e.g. the OLGA `error`
    /// builtin fired in user-level attribution code).
    SemanticFailure {
        /// The node whose rule was being evaluated.
        node: NodeId,
        /// The failure message reported by the function.
        message: String,
    },
    /// An [`fnc2_guard::EvalBudget`] limit was exhausted (or a
    /// deterministic fault was injected): the evaluation was cut short and
    /// degraded to this diagnostic instead of a stack overflow or OOM.
    BudgetExceeded {
        /// The exhausted budget dimension.
        kind: fnc2_guard::BudgetKind,
        /// Where evaluation stopped (evaluator + node, best effort).
        at: String,
    },
}

impl EvalError {
    /// Builds a [`EvalError::BudgetExceeded`] for `kind` at location `at`.
    pub fn budget(kind: fnc2_guard::BudgetKind, at: impl Into<String>) -> Self {
        EvalError::BudgetExceeded {
            kind,
            at: at.into(),
        }
    }

    /// True for budget/fault outcomes (exit code 2 in `fnc2c`).
    pub fn is_budget(&self) -> bool {
        matches!(self, EvalError::BudgetExceeded { .. })
    }
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::MissingValue { node, what } => {
                write!(f, "value of `{what}` at {node} not yet available")
            }
            EvalError::CircularInstance { node, what } => {
                write!(f, "attribute instance `{what}` at {node} is circular")
            }
            EvalError::MissingToken { node, production } => {
                write!(f, "node {node} ({production}) carries no lexical token")
            }
            EvalError::MissingRootInput { what } => {
                write!(f, "no value supplied for root inherited attribute `{what}`")
            }
            EvalError::SemanticFailure { node, message } => {
                write!(f, "semantic function failed at {node}: {message}")
            }
            EvalError::BudgetExceeded { kind, at } => {
                write!(f, "evaluation budget exceeded ({kind}) at {at}")
            }
        }
    }
}

impl Error for EvalError {}

/// Read access to attribute instances and production locals during rule
/// evaluation.
pub trait Store {
    /// The value of `(node, attr)`, if evaluated.
    fn value(&self, node: NodeId, attr: fnc2_ag::AttrId) -> Option<Value>;
    /// The value of a production-local attribute of `node`.
    fn local(&self, node: NodeId, local: fnc2_ag::LocalId) -> Option<Value>;
}

/// Evaluates the rule defining `target` in production `p` applied at
/// `node`, reading arguments from `store`.
///
/// Returns the computed value and whether the rule was a copy rule (for the
/// copy-elimination statistics).
///
/// # Errors
///
/// Fails when an argument is unavailable ([`EvalError::MissingValue`]) or a
/// token is missing.
pub fn eval_rule<S: Store>(
    grammar: &Grammar,
    tree: &Tree,
    p: ProductionId,
    node: NodeId,
    target: ONode,
    store: &S,
) -> Result<(Value, bool), EvalError> {
    let rule = grammar
        .rule_for(p, target)
        .unwrap_or_else(|| panic!("validated grammar defines {target:?} in {p}"));
    eval_rule_resolved(grammar, tree, rule, node, store)
}

/// Like [`eval_rule`] with the rule already resolved — the hot path of the
/// compiled evaluator, which looks rules up once at construction time.
///
/// # Errors
///
/// Same as [`eval_rule`].
pub fn eval_rule_resolved<S: Store>(
    grammar: &Grammar,
    tree: &Tree,
    rule: &fnc2_ag::SemRule,
    node: NodeId,
    store: &S,
) -> Result<(Value, bool), EvalError> {
    let p = tree.node(node).production();
    let fetch = |arg: &Arg| -> Result<Value, EvalError> {
        match arg {
            Arg::Const(v) => Ok(v.clone()),
            Arg::Token => tree
                .node(node)
                .token()
                .cloned()
                .ok_or_else(|| EvalError::MissingToken {
                    node,
                    production: grammar.production(p).name().to_string(),
                }),
            Arg::Node(ONode::Attr(Occ { pos, attr })) => {
                let at = tree.node_at(node, *pos);
                store
                    .value(at, *attr)
                    .ok_or_else(|| EvalError::MissingValue {
                        node: at,
                        what: grammar.attr(*attr).name().to_string(),
                    })
            }
            Arg::Node(ONode::Local(l)) => {
                store
                    .local(node, *l)
                    .ok_or_else(|| EvalError::MissingValue {
                        node,
                        what: grammar.production(p).locals()[l.index()].name().to_string(),
                    })
            }
        }
    };
    match rule.body() {
        RuleBody::Copy(arg) => Ok((fetch(arg)?, rule.is_copy())),
        RuleBody::Call { func, args } => {
            let mut vals = Vec::with_capacity(args.len());
            for a in args {
                vals.push(fetch(a)?);
            }
            let v =
                grammar
                    .function(*func)
                    .apply(&vals)
                    .map_err(|e| EvalError::SemanticFailure {
                        node,
                        message: e.message,
                    })?;
            Ok((v, false))
        }
    }
}

#[cfg(test)]
mod tests {
    use fnc2_ag::{GrammarBuilder, Occ, TreeBuilder};

    use super::*;

    struct MapStore(std::collections::HashMap<(NodeId, fnc2_ag::AttrId), Value>);
    impl Store for MapStore {
        fn value(&self, node: NodeId, attr: fnc2_ag::AttrId) -> Option<Value> {
            self.0.get(&(node, attr)).cloned()
        }
        fn local(&self, _: NodeId, _: fnc2_ag::LocalId) -> Option<Value> {
            None
        }
    }

    #[test]
    fn eval_call_and_copy() {
        let mut g = GrammarBuilder::new("t");
        let s = g.phylum("S");
        let a = g.phylum("A");
        let out = g.syn(s, "out");
        let w = g.syn(a, "w");
        g.func("double", 1, |v| Value::Int(v[0].as_int() * 2));
        let root = g.production("root", s, &[a]);
        g.call(root, Occ::lhs(out), "double", [Occ::new(1, w).into()]);
        let leaf = g.production("leaf", a, &[]);
        g.copy(leaf, Occ::lhs(w), Arg::Token);
        let g = g.finish().unwrap();

        let mut tb = TreeBuilder::new(&g);
        let leaf_p = g.production_by_name("leaf").unwrap();
        let root_p = g.production_by_name("root").unwrap();
        let l = tb
            .node_with_token(leaf_p, &[], Some(Value::Int(21)))
            .unwrap();
        let r = tb.node(root_p, &[l]).unwrap();
        let tree = tb.finish_root(r).unwrap();

        // Token copy at the leaf.
        let store = MapStore(Default::default());
        let (v, is_copy) =
            eval_rule(&g, &tree, leaf_p, l, ONode::Attr(Occ::lhs(w)), &store).unwrap();
        assert_eq!(v, Value::Int(21));
        assert!(!is_copy, "token copies are not occurrence copy rules");

        // Call at the root once w is available.
        let mut m = std::collections::HashMap::new();
        m.insert((l, w), Value::Int(21));
        let store = MapStore(m);
        let (v, _) = eval_rule(&g, &tree, root_p, r, ONode::Attr(Occ::lhs(out)), &store).unwrap();
        assert_eq!(v, Value::Int(42));

        // Missing value reported.
        let store = MapStore(Default::default());
        let err = eval_rule(&g, &tree, root_p, r, ONode::Attr(Occ::lhs(out)), &store).unwrap_err();
        assert!(matches!(err, EvalError::MissingValue { .. }));
    }
}
