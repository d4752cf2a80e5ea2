//! Named counters.
//!
//! The registry is the sink the cascade's stats feed into: fixpoint
//! iteration counts from `fnc2-gfa`, partitions per phylum from the
//! SNC→l-ordered transformation, visit/eval/copy volume from the
//! evaluators, stack high-water marks from the space-optimized runtime,
//! changed/unchanged/unknown tallies from the incremental evaluator.

use std::collections::BTreeMap;

use crate::json::Json;

/// A registry of named counters.
///
/// Names are dotted paths (`"eval.visits"`, `"gfa.fixpoint.steps"`);
/// output is sorted by name so reports are diff-stable.
#[derive(Clone, Debug, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Adds `delta` to the counter named `name`, creating it at zero.
    pub fn count(&mut self, name: &str, delta: u64) {
        if let Some(c) = self.counters.get_mut(name) {
            *c += delta;
        } else {
            self.counters.insert(name.to_string(), delta);
        }
    }

    /// Sets the counter named `name` to the larger of its current value
    /// and `value` (for high-water marks).
    pub fn count_max(&mut self, name: &str, value: u64) {
        let c = self.counters.entry(name.to_string()).or_insert(0);
        *c = (*c).max(value);
    }

    /// Reads a counter (0 if absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// All counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
    }

    /// `{counters: {...}}` as JSON.
    pub fn to_json(&self) -> Json {
        Json::obj([("counters", Json::from(&self.counters))])
    }

    /// Renders the counters as aligned text lines.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let width = self.counters.keys().map(|k| k.len()).max().unwrap_or(0);
        for (name, v) in &self.counters {
            out.push_str(&format!("{name:<width$}  {v}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_sort() {
        let mut m = MetricsRegistry::new();
        m.count("eval.visits", 3);
        m.count("eval.visits", 2);
        m.count("eval.copies", 1);
        assert_eq!(m.counter("eval.visits"), 5);
        assert_eq!(m.counter("missing"), 0);
        let names: Vec<_> = m.counters().map(|(k, _)| k.to_string()).collect();
        assert_eq!(names, vec!["eval.copies", "eval.visits"]);
    }

    #[test]
    fn count_max_keeps_high_water() {
        let mut m = MetricsRegistry::new();
        m.count_max("space.live", 4);
        m.count_max("space.live", 2);
        m.count_max("space.live", 9);
        assert_eq!(m.counter("space.live"), 9);
    }

    #[test]
    fn json_shape() {
        let mut m = MetricsRegistry::new();
        m.count("a.b", 7);
        let j = m.to_json();
        assert_eq!(
            j.get("counters")
                .and_then(|c| c.get("a.b"))
                .and_then(Json::as_int),
            Some(7)
        );
    }
}
