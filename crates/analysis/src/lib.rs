//! # fnc2-analysis — AG class tests and the SNC → l-ordered transformation
//!
//! The front half of FNC-2's evaluator generator (paper §2.1 & §3.1, Fig. 3):
//!
//! * [`snc_test`] — strong (absolute) non-circularity, computing the `IO`
//!   argument selectors;
//! * [`dnc_test`] — double non-circularity, computing the `OI` context
//!   selectors (the class that enables start-anywhere and incremental
//!   evaluation);
//! * [`oag_test`] — Kastens' ordered AGs, generalized to the `OAG(k)`
//!   ladder;
//! * [`nc_test`] — the exact, exponential non-circularity test, for the
//!   class ladder;
//! * [`snc_to_l_ordered`] — the transformation manufacturing
//!   totally-ordered partitions for every SNC grammar, with the classical
//!   equality reuse or FNC-2's **long inclusion** ([`Inclusion`]);
//! * [`classify`] — the cascading pipeline producing the smallest class and
//!   an [`LOrdered`] plan set ready for visit-sequence generation;
//! * [`explain`] — the circularity trace.
//!
//! ```
//! use fnc2_ag::{GrammarBuilder, Occ, Value};
//! use fnc2_analysis::{classify, AgClass, Inclusion};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut g = GrammarBuilder::new("count");
//! let s = g.phylum("S");
//! let n = g.syn(s, "n");
//! let leaf = g.production("leaf", s, &[]);
//! g.constant(leaf, Occ::lhs(n), Value::Int(0));
//! let node = g.production("node", s, &[s]);
//! g.func("succ", 1, |a| Value::Int(a[0].as_int() + 1));
//! g.call(node, Occ::lhs(n), "succ", [Occ::new(1, n).into()]);
//! let grammar = g.finish()?;
//!
//! let c = classify(&grammar, 1, Inclusion::Long)?;
//! assert_eq!(c.class, AgClass::Oag0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod attrs;
mod class;
mod io;
mod nc;
mod oag;
mod partition;
mod paste;
mod trace;
mod transform;

pub use attrs::AttrIndex;
pub use class::{classify, classify_recorded, AgClass, Classification};
pub use io::{
    bottom_up_dependents, dnc_test, dnc_test_recorded, snc_test, snc_test_recorded, CircWitness,
    DncResult, PhylumRels, SncResult,
};
pub use nc::{nc_test, NcResult};
pub use oag::{oag_test, oag_test_recorded, OagResult};
pub use partition::{TotalOrder, VisitSlot};
pub use trace::explain;
pub use transform::{
    l_ordered_from_partitions, linear_respects, snc_to_l_ordered, Inclusion, LOrdered, Plan,
    TransformError, TransformStats,
};
