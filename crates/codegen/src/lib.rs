//! # fnc2-codegen — the translators and the common optimizer (paper §3.2)
//!
//! The back end of the FNC-2 system: a **common optimizer** performing
//! tail-recursion elimination ([`tail_info`]) and building deterministic
//! **decision trees** for the OLGA pattern-matching construct
//! ([`compile_arms`]), followed by two translators producing complete
//! source texts for a generated evaluator: [`to_c`] and [`to_lisp`].
//! Both print the rule functions from the lowering's rule table
//! ([`fnc2_olga::RuleText`]) and the rules the lowering generated from the
//! grammar, and read every variable as the checker marked it
//! ([`fnc2_olga::ast::VarRef`]), so neither resolves a name itself.
//!
//! Like the 1990 implementation, the C back end is deliberately naïve about
//! memory (no garbage collector) — the paper names that as the main reason
//! the bootstrapped system ran 2–4× slower than the hand-written one.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod c;
mod lisp;
mod optimizer;

pub use c::{module_to_c, to_c};
pub use lisp::to_lisp;
pub use optimizer::{compile_arms, run_decision, tail_info, Decision, Path, TailInfo, Test};

use fnc2_ag::{Grammar, ONode, ProductionId};

/// The words of the name of the function of the OLGA rule defining
/// `target` in `p`, which each translator sanitizes and joins: `rule`, the
/// operator, then `p<k>` and the attribute for an occurrence at position
/// `k`, or `local` and the local's name. A local that shares its name with
/// another local of the production (two blocks may each declare one) says
/// `local<i>`, with its index.
fn rule_name(grammar: &Grammar, p: ProductionId, target: ONode) -> [String; 4] {
    let prod = grammar.production(p);
    let (kind, name) = match target {
        ONode::Attr(o) => (format!("p{}", o.pos), grammar.attr(o.attr).name()),
        ONode::Local(l) => {
            let name = prod.locals()[l.index()].name();
            let shared = prod.locals().iter().filter(|x| x.name() == name).count() > 1;
            let kind = if shared {
                format!("local{}", l.index())
            } else {
                "local".to_string()
            };
            (kind, name)
        }
    };
    ["rule".into(), prod.name().into(), kind, name.into()]
}

/// Whether a grammar function is the lowering's `with sum` rule model (the
/// other rule model, `with concat`, appends).
fn is_sum_model(func: &str) -> bool {
    func.starts_with("model@Sum@")
}
