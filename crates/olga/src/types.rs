//! The semantic type language of OLGA and its compatibility relation.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use crate::ast::TypeExpr;
use crate::lexer::Pos;

/// A resolved OLGA type.
///
/// [`Ty::Any`] is the checker's polymorphic hole: the type of `[]`, of
/// `error(…)`, and of tree-pattern binders. It is compatible with every
/// type — a pragmatic rendition of the paper's partially implemented
/// polymorphism ("the most notable omissions are full polymorphism…").
/// Component types are shared, so cloning a type never allocates.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Ty {
    /// 64-bit integers.
    Int,
    /// Double-precision reals.
    Real,
    /// Booleans.
    Bool,
    /// Strings.
    Str,
    /// The unit type.
    Unit,
    /// Output-tree terms.
    Tree,
    /// Homogeneous lists.
    List(Arc<Ty>),
    /// String-keyed finite maps.
    Map(Arc<Ty>),
    /// Tuples.
    Tuple(Arc<[Ty]>),
    /// An opaque (abstract) imported type.
    Opaque(String),
    /// The polymorphic hole.
    Any,
}

impl fmt::Display for Ty {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Ty::Int => write!(f, "int"),
            Ty::Real => write!(f, "real"),
            Ty::Bool => write!(f, "bool"),
            Ty::Str => write!(f, "string"),
            Ty::Unit => write!(f, "unit"),
            Ty::Tree => write!(f, "tree"),
            Ty::List(t) => write!(f, "list of {t}"),
            Ty::Map(t) => write!(f, "map of {t}"),
            Ty::Tuple(ts) => {
                write!(f, "tuple(")?;
                for (i, t) in ts.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{t}")?;
                }
                write!(f, ")")
            }
            Ty::Opaque(n) => write!(f, "{n}"),
            Ty::Any => write!(f, "_"),
        }
    }
}

impl Ty {
    /// True if a value of `self` can be used where `other` is expected
    /// (symmetric; `Any` unifies with everything).
    pub fn compatible(&self, other: &Ty) -> bool {
        match (self, other) {
            (Ty::Any, _) | (_, Ty::Any) => true,
            (Ty::List(a), Ty::List(b)) | (Ty::Map(a), Ty::Map(b)) => a.compatible(b),
            (Ty::Tuple(a), Ty::Tuple(b)) => {
                a.len() == b.len() && a.iter().zip(b.iter()).all(|(x, y)| x.compatible(y))
            }
            (a, b) => a == b,
        }
    }

    /// The more specific of two compatible types.
    pub fn join(&self, other: &Ty) -> Ty {
        match (self, other) {
            (Ty::Any, t) => t.clone(),
            (t, Ty::Any) => t.clone(),
            (Ty::List(a), Ty::List(b)) => Ty::List(Arc::new(a.join(b))),
            (Ty::Map(a), Ty::Map(b)) => Ty::Map(Arc::new(a.join(b))),
            (Ty::Tuple(a), Ty::Tuple(b)) if a.len() == b.len() => {
                Ty::Tuple(a.iter().zip(b.iter()).map(|(x, y)| x.join(y)).collect())
            }
            (t, _) => t.clone(),
        }
    }

    /// True if a list can be used where `self` is expected: `self` is
    /// `list of` some type, or `Any`.
    pub fn is_list(&self) -> bool {
        matches!(self, Ty::List(_) | Ty::Any)
    }

    /// The element type, if this is a list (`Any` yields `Any`).
    pub fn elem(&self) -> Option<Ty> {
        match self {
            Ty::List(t) => Some((**t).clone()),
            Ty::Any => Some(Ty::Any),
            _ => None,
        }
    }
}

/// Resolves a syntactic type against the visible named types.
///
/// # Errors
///
/// Returns the unknown type name and its position.
pub fn resolve_type(
    te: &TypeExpr,
    named: &HashMap<String, Ty>,
    pos: Pos,
) -> Result<Ty, (String, Pos)> {
    Ok(match te {
        TypeExpr::Int => Ty::Int,
        TypeExpr::Real => Ty::Real,
        TypeExpr::Bool => Ty::Bool,
        TypeExpr::Str => Ty::Str,
        TypeExpr::Unit => Ty::Unit,
        TypeExpr::Tree => Ty::Tree,
        TypeExpr::List(t) => Ty::List(Arc::new(resolve_type(t, named, pos)?)),
        TypeExpr::Map(t) => Ty::Map(Arc::new(resolve_type(t, named, pos)?)),
        TypeExpr::Tuple(ts) => Ty::Tuple(
            ts.iter()
                .map(|t| resolve_type(t, named, pos))
                .collect::<Result<_, _>>()?,
        ),
        TypeExpr::Named(n) => named.get(n).cloned().ok_or_else(|| (n.clone(), pos))?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compatibility() {
        assert!(Ty::Int.compatible(&Ty::Int));
        assert!(!Ty::Int.compatible(&Ty::Real));
        assert!(Ty::Any.compatible(&Ty::List(Arc::new(Ty::Int))));
        assert!(Ty::List(Arc::new(Ty::Any)).compatible(&Ty::List(Arc::new(Ty::Str))));
        assert!(!Ty::List(Arc::new(Ty::Int)).compatible(&Ty::List(Arc::new(Ty::Str))));
        assert!(Ty::Any.is_list() && Ty::List(Arc::new(Ty::Str)).is_list() && !Ty::Str.is_list());
        assert!(
            Ty::Tuple([Ty::Int, Ty::Any].into()).compatible(&Ty::Tuple([Ty::Int, Ty::Str].into()))
        );
        assert!(!Ty::Tuple([Ty::Int].into()).compatible(&Ty::Tuple([Ty::Int, Ty::Int].into())));
    }

    #[test]
    fn join_prefers_specific() {
        let j = Ty::List(Arc::new(Ty::Any)).join(&Ty::List(Arc::new(Ty::Int)));
        assert_eq!(j, Ty::List(Arc::new(Ty::Int)));
    }

    #[test]
    fn resolve_named() {
        let mut named = HashMap::new();
        named.insert("env".to_string(), Ty::Map(Arc::new(Ty::Int)));
        let pos = Pos { line: 1, col: 1 };
        let t = resolve_type(&TypeExpr::Named("env".into()), &named, pos).unwrap();
        assert_eq!(t, Ty::Map(Arc::new(Ty::Int)));
        assert!(resolve_type(&TypeExpr::Named("nope".into()), &named, pos).is_err());
    }

    #[test]
    fn display_forms() {
        assert_eq!(Ty::List(Arc::new(Ty::Int)).to_string(), "list of int");
        assert_eq!(
            Ty::Tuple([Ty::Int, Ty::Str].into()).to_string(),
            "tuple(int, string)"
        );
    }
}
