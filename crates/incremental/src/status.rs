//! The adaptable equality behind the semantic-control cutoff.

use std::fmt;
use std::sync::Arc;

use fnc2_ag::Value;

/// The boxed comparison implementation.
type EqImpl = Arc<dyn Fn(&Value, &Value) -> bool + Send + Sync>;

/// The notion of equality used to compare old and new attribute values.
///
/// The default compares with `PartialEq`; an application can plug a coarser
/// comparison (e.g. treating two symbol tables as equal when the visible
/// bindings agree) to cut propagation earlier — the paper calls this
/// adaptability a key source of versatility.
#[derive(Clone)]
pub struct Equality {
    eq: EqImpl,
}

impl Equality {
    /// Wraps a custom comparison.
    ///
    /// The comparison must be reflexive (`eq(v, v)` is `true` for every
    /// value).
    pub fn new(eq: impl Fn(&Value, &Value) -> bool + Send + Sync + 'static) -> Self {
        Equality { eq: Arc::new(eq) }
    }

    /// Applies the comparison.
    pub fn same(&self, a: &Value, b: &Value) -> bool {
        (self.eq)(a, b)
    }
}

impl Default for Equality {
    /// Structural equality via `PartialEq`.
    fn default() -> Self {
        Equality::new(|a: &Value, b: &Value| a == b)
    }
}

impl fmt::Debug for Equality {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Equality(..)")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_structural() {
        let eq = Equality::default();
        assert!(eq.same(&Value::Int(1), &Value::Int(1)));
        assert!(!eq.same(&Value::Int(1), &Value::Int(2)));
    }

    #[test]
    fn custom_equality() {
        // "Equal modulo sign".
        let eq = Equality::new(|a, b| a.as_int().abs() == b.as_int().abs());
        assert!(eq.same(&Value::Int(-3), &Value::Int(3)));
        assert!(!eq.same(&Value::Int(2), &Value::Int(3)));
    }
}
