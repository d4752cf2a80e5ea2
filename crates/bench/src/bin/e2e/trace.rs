//! Spans the benchmark opens around its calls into each layer, with the
//! self time of every span accumulated per name. The program itself is
//! not instrumented: a layer's time is the time of the benchmark's call
//! into it, minus the spans nested inside that call.

use std::collections::BTreeMap;
use std::time::Instant;

use fnc2::obs::{Counters, Json, SpanTracer};

/// Accumulated self time (seconds) and counts per span name.
#[derive(Debug, Default)]
pub struct Layers {
    /// Chrome-trace events, recorded while `recording` is set.
    spans: SpanTracer,
    recording: bool,
    open: Vec<(&'static str, Instant, f64)>,
    self_secs: BTreeMap<&'static str, f64>,
    counts: BTreeMap<&'static str, f64>,
    counters: Counters,
}

/// The counts of a traced pass, frozen when it ended.
#[derive(Debug)]
pub struct Frozen {
    counts: BTreeMap<&'static str, f64>,
    /// What the program's own `_recorded` entry points counted.
    pub counters: Counters,
}

impl Frozen {
    /// The count `name`.
    pub fn get(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }
}

impl Layers {
    /// A tracer that also records Chrome-trace events.
    pub fn recording() -> Layers {
        Layers {
            recording: true,
            ..Layers::default()
        }
    }

    /// Stops recording events (call between spans) and returns the counts
    /// so far; timing goes on.
    pub fn freeze(&mut self) -> Frozen {
        self.recording = false;
        Frozen {
            counts: self.counts.clone(),
            counters: self.counters,
        }
    }

    /// The counter block the program's `_recorded` entry points report
    /// into.
    pub fn counters(&mut self) -> &mut Counters {
        &mut self.counters
    }

    /// The recorded events as a Chrome trace document.
    pub fn chrome_trace(&self) -> Json {
        self.spans.to_chrome_json()
    }

    /// Opens a span named `name`.
    pub fn begin(&mut self, name: &'static str) {
        if self.recording {
            self.spans.begin("e2e", name);
        }
        self.open.push((name, Instant::now(), 0.0));
    }

    /// Closes the innermost span and returns its duration in seconds.
    pub fn end(&mut self) -> f64 {
        let (name, start, children) = self.open.pop().expect("end matches a begin");
        let secs = start.elapsed().as_secs_f64();
        if self.recording {
            self.spans.end();
        }
        *self.self_secs.entry(name).or_default() += secs - children;
        if let Some(parent) = self.open.last_mut() {
            parent.2 += secs;
        }
        secs
    }

    /// Adds `n` to the count `name`.
    pub fn count(&mut self, name: &'static str, n: f64) {
        *self.counts.entry(name).or_default() += n;
    }

    /// Total self time of spans named `name`, in seconds.
    pub fn self_secs(&self, name: &str) -> f64 {
        self.self_secs.get(name).copied().unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_nested_spans() {
        let mut l = Layers::recording();
        l.begin("op");
        l.begin("inner");
        std::thread::sleep(std::time::Duration::from_millis(20));
        l.end();
        let total = l.end();
        assert!(l.self_secs("inner") >= 0.02);
        assert!((l.self_secs("op") + l.self_secs("inner") - total).abs() < 1e-9);
        assert!(l.self_secs("op") < l.self_secs("inner"));
        fnc2::obs::validate_chrome_trace(&l.chrome_trace()).unwrap();
    }
}
