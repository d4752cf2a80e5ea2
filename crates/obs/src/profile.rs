//! Per-rule cost profiling.
//!
//! A [`RuleProfiler`] attributes evaluation work to `(production, rule)`
//! pairs: every firing is counted, and every Nth firing is additionally
//! wall-clock sampled (the caller times the rule body and reports the
//! elapsed nanoseconds). Sampling keeps the enabled-path overhead small
//! while still ranking rules by estimated total time — the estimate for
//! a pair is `mean sampled nanoseconds × total fires`.
//!
//! Evaluators reach the profiler through
//! [`Recorder::profiler`](crate::Recorder::profiler) and call
//! [`should_sample`](RuleProfiler::should_sample) and
//! [`record`](RuleProfiler::record) on it directly. Recorders without a
//! profiler, such as [`NoopRecorder`](crate::NoopRecorder), return
//! `None`, so their instantiations compile the whole mechanism away.

use std::collections::HashMap;

use crate::event::Resolver;
use crate::json::Json;

/// Default sampling period: every 16th firing is wall-clock timed.
pub const DEFAULT_SAMPLE_EVERY: u32 = 16;

/// Accumulated cost of one `(production, rule)` pair.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RuleCost {
    /// Total firings observed.
    pub fires: u64,
    /// Firings that were copy rules.
    pub copy_fires: u64,
    /// Firings that were wall-clock sampled.
    pub samples: u64,
    /// Summed nanoseconds over the sampled firings.
    pub sampled_nanos: u64,
}

impl RuleCost {
    /// Mean nanoseconds per firing over the sampled subset, if any
    /// firing was sampled.
    pub fn mean_nanos(&self) -> Option<f64> {
        (self.samples > 0).then(|| self.sampled_nanos as f64 / self.samples as f64)
    }

    /// Estimated total nanoseconds: mean sampled cost scaled to every
    /// firing. Zero when nothing was sampled.
    pub fn estimated_total_nanos(&self) -> u128 {
        if self.samples == 0 {
            return 0;
        }
        (self.sampled_nanos as u128) * (self.fires as u128) / (self.samples as u128)
    }
}

/// The per-rule cost profiler.
#[derive(Clone, Debug)]
pub struct RuleProfiler {
    costs: HashMap<(u32, u32), RuleCost>,
    sample_every: u32,
    until_sample: u32,
}

impl Default for RuleProfiler {
    fn default() -> RuleProfiler {
        RuleProfiler::new()
    }
}

impl RuleProfiler {
    /// A profiler with the default sampling period.
    pub fn new() -> RuleProfiler {
        RuleProfiler::with_sample_every(DEFAULT_SAMPLE_EVERY)
    }

    /// A profiler sampling every `n`th firing (`n == 1` samples every
    /// firing; `n == 0` is treated as 1).
    pub fn with_sample_every(n: u32) -> RuleProfiler {
        let n = n.max(1);
        RuleProfiler {
            costs: HashMap::new(),
            sample_every: n,
            // Sample the first firing so short runs still get timings.
            until_sample: 1,
        }
    }

    /// The sampling period.
    pub fn sample_every(&self) -> u32 {
        self.sample_every
    }

    /// Decides whether the next firing should be wall-clock sampled.
    /// Deterministic: every `sample_every`th call (starting with the
    /// first) answers `true`.
    pub fn should_sample(&mut self) -> bool {
        self.until_sample -= 1;
        if self.until_sample == 0 {
            self.until_sample = self.sample_every;
            true
        } else {
            false
        }
    }

    /// Records one firing of rule `rule` of production `production`.
    /// `nanos` carries the wall-clock sample when the caller timed this
    /// firing (i.e. when [`should_sample`](Self::should_sample) said so).
    pub fn record(&mut self, production: u32, rule: u32, is_copy: bool, nanos: Option<u64>) {
        let c = self.costs.entry((production, rule)).or_default();
        c.fires += 1;
        if is_copy {
            c.copy_fires += 1;
        }
        if let Some(ns) = nanos {
            c.samples += 1;
            c.sampled_nanos += ns;
        }
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.costs.is_empty()
    }

    /// Total firings across all pairs.
    pub fn total_fires(&self) -> u64 {
        self.costs.values().map(|c| c.fires).sum()
    }

    /// All pairs ranked hottest-first: by estimated total nanoseconds,
    /// then by firing count, then by `(production, rule)` — a total,
    /// deterministic order.
    pub fn ranked(&self) -> Vec<((u32, u32), RuleCost)> {
        let mut v: Vec<_> = self.costs.iter().map(|(k, c)| (*k, *c)).collect();
        v.sort_by(|a, b| {
            b.1.estimated_total_nanos()
                .cmp(&a.1.estimated_total_nanos())
                .then(b.1.fires.cmp(&a.1.fires))
                .then(a.0.cmp(&b.0))
        });
        v
    }

    /// The ranked report as JSON: an array of
    /// `{production, rule, fires, copy_fires, samples, sampled_nanos,
    /// est_total_nanos}` objects, hottest first, names resolved through
    /// `resolver`.
    pub fn to_json(&self, resolver: &dyn Resolver) -> Json {
        Json::Arr(
            self.ranked()
                .into_iter()
                .map(|((p, r), c)| {
                    Json::obj([
                        ("production", Json::str(resolver.production(p))),
                        ("rule", Json::str(resolver.rule(p, r))),
                        ("production_id", Json::Int(p as i64)),
                        ("rule_id", Json::Int(r as i64)),
                        ("fires", Json::Int(c.fires as i64)),
                        ("copy_fires", Json::Int(c.copy_fires as i64)),
                        ("samples", Json::Int(c.samples as i64)),
                        ("sampled_nanos", Json::Int(c.sampled_nanos as i64)),
                        (
                            "est_total_nanos",
                            Json::Int(c.estimated_total_nanos().min(i64::MAX as u128) as i64),
                        ),
                    ])
                })
                .collect(),
        )
    }

    /// Renders the top `top` pairs as an aligned text table.
    pub fn render(&self, resolver: &dyn Resolver, top: usize) -> String {
        let ranked = self.ranked();
        let total_est: u128 = ranked.iter().map(|(_, c)| c.estimated_total_nanos()).sum();
        let mut out = format!(
            "hot rules ({} pairs, {} fires, sample 1/{}):\n{:<40} {:>10} {:>8} {:>12} {:>6}\n",
            ranked.len(),
            self.total_fires(),
            self.sample_every,
            "rule",
            "fires",
            "copies",
            "est total",
            "%"
        );
        for ((p, r), c) in ranked.iter().take(top) {
            let est = c.estimated_total_nanos();
            let pct = if total_est > 0 {
                est as f64 * 100.0 / total_est as f64
            } else {
                0.0
            };
            out.push_str(&format!(
                "{:<40} {:>10} {:>8} {:>9.3} ms {:>5.1}%\n",
                format!("{} :: {}", resolver.production(*p), resolver.rule(*p, *r)),
                c.fires,
                c.copy_fires,
                est as f64 / 1e6,
                pct
            ));
        }
        if ranked.len() > top {
            out.push_str(&format!("... {} more pairs\n", ranked.len() - top));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use crate::event::RawResolver;

    use super::*;

    #[test]
    fn sampling_is_periodic_and_first_fire_sampled() {
        let mut p = RuleProfiler::with_sample_every(4);
        let pattern: Vec<bool> = (0..9).map(|_| p.should_sample()).collect();
        assert_eq!(
            pattern,
            vec![true, false, false, false, true, false, false, false, true]
        );
    }

    #[test]
    fn ranking_orders_by_estimated_cost_then_fires() {
        let mut p = RuleProfiler::new();
        // (0,0): many cheap fires, one sample of 10ns -> est 1000ns.
        for _ in 0..100 {
            p.record(0, 0, true, None);
        }
        p.record(0, 0, true, Some(10)); // 101 fires total
                                        // (1,0): few expensive fires -> est 5 * 1000 = 5000ns.
        for _ in 0..4 {
            p.record(1, 0, false, None);
        }
        p.record(1, 0, false, Some(1000));
        let ranked = p.ranked();
        assert_eq!(ranked[0].0, (1, 0));
        assert_eq!(ranked[1].0, (0, 0));
        assert_eq!(ranked[1].1.fires, 101);
        assert_eq!(ranked[1].1.copy_fires, 101);
        let j = p.to_json(&RawResolver);
        assert_eq!(j.as_arr().unwrap().len(), 2);
        let txt = p.render(&RawResolver, 10);
        assert!(txt.contains("p1 :: r0"));
    }

    #[test]
    fn unsampled_pairs_rank_by_fires() {
        let mut p = RuleProfiler::new();
        p.record(2, 1, false, None);
        p.record(2, 1, false, None);
        p.record(3, 0, false, None);
        let ranked = p.ranked();
        assert_eq!(ranked[0].0, (2, 1));
        assert_eq!(ranked[0].1.estimated_total_nanos(), 0);
    }
}
