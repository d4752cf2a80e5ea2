//! Grammar construction and well-definedness errors.

use std::error::Error;
use std::fmt;

use crate::ids::NodeId;

/// An error detected while building or validating an attribute grammar.
///
/// Well-definedness (paper §3.3, the `asx` processor) requires every output
/// occurrence of every production — synthesized attributes of the LHS,
/// inherited attributes of RHS symbols, and production-local attributes — to
/// be defined by exactly one semantic rule, and every rule to reference only
/// declared entities.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GrammarError {
    /// A name was declared twice in the same namespace.
    DuplicateName {
        /// What kind of entity (phylum, attribute, production, function).
        kind: &'static str,
        /// The offending name.
        name: String,
    },
    /// A rule or declaration referenced an unknown name.
    UnknownName {
        /// What kind of entity was looked up.
        kind: &'static str,
        /// The name that failed to resolve.
        name: String,
    },
    /// An occurrence referenced a position beyond the production's arity.
    PositionOutOfRange {
        /// Production name.
        production: String,
        /// The out-of-range position.
        pos: u16,
        /// The production's arity.
        arity: usize,
    },
    /// An occurrence referenced an attribute not declared on the phylum at
    /// that position.
    AttrNotOnPhylum {
        /// Production name.
        production: String,
        /// Attribute name.
        attr: String,
        /// Phylum name at the referenced position.
        phylum: String,
    },
    /// An output occurrence is defined by two semantic rules.
    DuplicateRule {
        /// Production name.
        production: String,
        /// Display form of the doubly-defined occurrence.
        target: String,
    },
    /// An output occurrence has no defining semantic rule.
    MissingRule {
        /// Production name.
        production: String,
        /// Display form of the undefined occurrence.
        target: String,
    },
    /// A semantic rule's target is an *input* occurrence (inherited on the
    /// LHS or synthesized on a RHS symbol), which a production must not
    /// define.
    RuleDefinesInput {
        /// Production name.
        production: String,
        /// Display form of the offending target.
        target: String,
    },
    /// A function was applied to the wrong number of arguments.
    ArityMismatch {
        /// Function name.
        function: String,
        /// Declared arity.
        expected: usize,
        /// Number of arguments supplied.
        found: usize,
    },
    /// A phylum has no production, so no finite tree can derive from it.
    NoProduction {
        /// Phylum name.
        phylum: String,
    },
    /// The grammar has no phyla at all.
    Empty,
}

impl fmt::Display for GrammarError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GrammarError::DuplicateName { kind, name } => {
                write!(f, "duplicate {kind} name `{name}`")
            }
            GrammarError::UnknownName { kind, name } => write!(f, "unknown {kind} `{name}`"),
            GrammarError::PositionOutOfRange {
                production,
                pos,
                arity,
            } => write!(
                f,
                "position {pos} out of range in production `{production}` of arity {arity}"
            ),
            GrammarError::AttrNotOnPhylum {
                production,
                attr,
                phylum,
            } => write!(
                f,
                "attribute `{attr}` is not declared on phylum `{phylum}` (production `{production}`)"
            ),
            GrammarError::DuplicateRule { production, target } => write!(
                f,
                "occurrence `{target}` defined twice in production `{production}`"
            ),
            GrammarError::MissingRule { production, target } => write!(
                f,
                "occurrence `{target}` has no defining rule in production `{production}`"
            ),
            GrammarError::RuleDefinesInput { production, target } => write!(
                f,
                "rule in production `{production}` defines input occurrence `{target}`"
            ),
            GrammarError::ArityMismatch {
                function,
                expected,
                found,
            } => write!(
                f,
                "function `{function}` expects {expected} argument(s), got {found}"
            ),
            GrammarError::NoProduction { phylum } => {
                write!(f, "phylum `{phylum}` has no production")
            }
            GrammarError::Empty => write!(f, "grammar declares no phyla"),
        }
    }
}

impl Error for GrammarError {}

/// An error raised while building or editing an attributed tree.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TreeError {
    /// A node was given the wrong number of children.
    ChildCount {
        /// Production name.
        production: String,
        /// Expected arity.
        expected: usize,
        /// Supplied child count.
        found: usize,
    },
    /// A child's phylum does not match the production's RHS.
    ChildPhylum {
        /// Production name.
        production: String,
        /// 1-based child position.
        pos: usize,
        /// Expected phylum name.
        expected: String,
        /// Found phylum name.
        found: String,
    },
    /// A subtree replacement used a subtree of the wrong phylum.
    ReplacePhylum {
        /// Expected phylum name.
        expected: String,
        /// Found phylum name.
        found: String,
    },
    /// The root of the tree does not belong to the grammar's root phylum.
    RootPhylum {
        /// Expected phylum name.
        expected: String,
        /// Found phylum name.
        found: String,
    },
    /// An edit targets a node that is not in the tree: outside the arena,
    /// or left behind by an earlier replacement.
    Detached {
        /// The target.
        node: NodeId,
    },
    /// An edit of a batch targets a node inside another edit's subtree.
    NestedEdit {
        /// The inner target.
        inner: NodeId,
        /// The target whose subtree holds it (`inner` itself when a
        /// target is named twice).
        outer: NodeId,
    },
}

impl fmt::Display for TreeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TreeError::ChildCount {
                production,
                expected,
                found,
            } => write!(
                f,
                "production `{production}` expects {expected} child(ren), got {found}"
            ),
            TreeError::ChildPhylum {
                production,
                pos,
                expected,
                found,
            } => write!(
                f,
                "child {pos} of `{production}` must derive `{expected}`, got `{found}`"
            ),
            TreeError::ReplacePhylum { expected, found } => write!(
                f,
                "replacement subtree derives `{found}`, expected `{expected}`"
            ),
            TreeError::RootPhylum { expected, found } => {
                write!(f, "tree root derives `{found}`, expected `{expected}`")
            }
            TreeError::Detached { node } => write!(f, "node {node} is not in the tree"),
            TreeError::NestedEdit { inner, outer } => write!(
                f,
                "edit at node {inner} lies inside the subtree of the edit at node {outer}"
            ),
        }
    }
}

impl Error for TreeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display() {
        let e = GrammarError::MissingRule {
            production: "pair".into(),
            target: "1.scale".into(),
        };
        assert_eq!(
            e.to_string(),
            "occurrence `1.scale` has no defining rule in production `pair`"
        );
        let t = TreeError::ChildCount {
            production: "pair".into(),
            expected: 2,
            found: 1,
        };
        assert!(t.to_string().contains("expects 2"));
    }
}
