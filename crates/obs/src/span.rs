//! Hierarchical, thread-aware span tracing with Chrome trace-event
//! export.
//!
//! A [`SpanTracer`] records `Begin`/`End`/`Instant` events with
//! monotonic nanosecond timestamps against one epoch. It is the only
//! clock of an instrumented run: a cascade phase is a `"phase"` span,
//! and [`SpanTracer::phases`] reads the phase table back with each
//! phase's nesting depth. Every tracer carries a thread id (`tid`); the
//! batch driver hands each worker its own shard via
//! [`SpanTracer::shard`] — shards share the epoch, so merged timelines
//! stay aligned — and merges them back with [`SpanTracer::absorb`]. Span
//! ids are unique across shards (`tid << 32 | seq`), and begin events
//! carry their parent's id, so the nesting survives the merge even
//! though the exported format only encodes it implicitly through
//! timestamps.
//!
//! [`chrome_trace`] serializes any event list into the Chrome
//! trace-event JSON format (the `{"traceEvents": [...]}` flavour, in
//! microseconds), which loads directly in Perfetto or `chrome://tracing`.
//! [`validate_chrome_trace`] checks the invariants the viewers rely on —
//! matched `B`/`E` pairs and monotonic timestamps per tid — and backs
//! the golden-file tests.

use std::time::Instant;

use crate::json::Json;

/// One traced event: a span boundary or a point-in-time marker.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SpanEvent {
    /// A span opened.
    Begin {
        /// Unique span id (`tid << 32 | per-shard sequence`).
        id: u64,
        /// The id of the enclosing open span on the same tracer, if any.
        parent: Option<u64>,
        /// Thread id the span runs on (0 = the coordinating thread).
        tid: u32,
        /// Nanoseconds since the tracer's epoch.
        ts_ns: u64,
        /// Span name, e.g. `"visit 1 (root)"`.
        name: String,
        /// Category tag, e.g. `"phase"`, `"visit"`, `"par"`, `"guard"`.
        cat: &'static str,
    },
    /// The matching span closed.
    End {
        /// Id of the span being closed.
        id: u64,
        /// Thread id (must equal the begin event's).
        tid: u32,
        /// Nanoseconds since the tracer's epoch.
        ts_ns: u64,
    },
    /// A point-in-time marker (budget trip, retry, caught panic, …).
    Instant {
        /// Thread id the event occurred on.
        tid: u32,
        /// Nanoseconds since the tracer's epoch.
        ts_ns: u64,
        /// Marker name.
        name: String,
        /// Category tag.
        cat: &'static str,
    },
}

impl SpanEvent {
    /// The event's timestamp in nanoseconds since the epoch.
    pub fn ts_ns(&self) -> u64 {
        match self {
            SpanEvent::Begin { ts_ns, .. }
            | SpanEvent::End { ts_ns, .. }
            | SpanEvent::Instant { ts_ns, .. } => *ts_ns,
        }
    }

    /// The thread id the event belongs to.
    pub fn tid(&self) -> u32 {
        match self {
            SpanEvent::Begin { tid, .. }
            | SpanEvent::End { tid, .. }
            | SpanEvent::Instant { tid, .. } => *tid,
        }
    }
}

/// One `"phase"` span read back by [`SpanTracer::phases`]: a row of the
/// Table 1-style generation-time breakdown.
#[derive(Clone, Copy, Debug)]
pub struct PhaseRow<'a> {
    /// Phase name, e.g. `"analysis.snc"`.
    pub name: &'a str,
    /// Phase spans open around this one (0 for top-level phases).
    pub depth: usize,
    /// Nanoseconds from the tracer's epoch to the phase's begin.
    pub start_nanos: u64,
    /// The phase's wall-clock length; 0 while it is still open.
    pub nanos: u64,
}

/// A span recorder for one thread of execution.
///
/// Spans nest through an explicit open-span stack; [`begin`](Self::begin)
/// links each new span to the innermost open one. Events accumulate in
/// append order, which is chronological per tracer because the clock is
/// monotonic.
#[derive(Debug)]
pub struct SpanTracer {
    epoch: Instant,
    tid: u32,
    next_seq: u32,
    open: Vec<u64>,
    events: Vec<SpanEvent>,
}

impl Default for SpanTracer {
    fn default() -> SpanTracer {
        SpanTracer::new()
    }
}

impl SpanTracer {
    /// A tracer for the coordinating thread (tid 0) with a fresh epoch.
    pub fn new() -> SpanTracer {
        SpanTracer::with_epoch(Instant::now(), 0)
    }

    fn with_epoch(epoch: Instant, tid: u32) -> SpanTracer {
        SpanTracer {
            epoch,
            tid,
            next_seq: 0,
            open: Vec::new(),
            events: Vec::new(),
        }
    }

    /// The tracer's thread id.
    pub fn tid(&self) -> u32 {
        self.tid
    }

    /// A worker-local shard with the same epoch and its own `tid`.
    /// Shards record independently (no synchronization) and are merged
    /// back with [`absorb`](Self::absorb).
    pub fn shard(&self, tid: u32) -> SpanTracer {
        SpanTracer::with_epoch(self.epoch, tid)
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos().min(u64::MAX as u128) as u64
    }

    fn next_id(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        ((self.tid as u64) << 32) | seq as u64
    }

    /// Opens a span nested under the innermost open span. Returns its id.
    pub fn begin(&mut self, cat: &'static str, name: impl Into<String>) -> u64 {
        let id = self.next_id();
        let ev = SpanEvent::Begin {
            id,
            parent: self.open.last().copied(),
            tid: self.tid,
            ts_ns: self.now_ns(),
            name: name.into(),
            cat,
        };
        self.open.push(id);
        self.events.push(ev);
        id
    }

    /// Closes the innermost open span. A stray `end` with nothing open is
    /// ignored rather than corrupting the stream.
    pub fn end(&mut self) {
        if let Some(id) = self.open.pop() {
            self.events.push(SpanEvent::End {
                id,
                tid: self.tid,
                ts_ns: self.now_ns(),
            });
        }
    }

    /// Records a point-in-time marker.
    pub fn instant(&mut self, cat: &'static str, name: impl Into<String>) {
        self.events.push(SpanEvent::Instant {
            tid: self.tid,
            ts_ns: self.now_ns(),
            name: name.into(),
            cat,
        });
    }

    /// Closes any spans left open (error-path cleanup before export).
    pub fn close_open(&mut self) {
        while !self.open.is_empty() {
            self.end();
        }
    }

    /// Appends a worker shard's events. Call in a deterministic (worker
    /// index) order; the Chrome exporter re-sorts by timestamp anyway.
    pub fn absorb(&mut self, mut shard: SpanTracer) {
        shard.close_open();
        self.events.append(&mut shard.events);
    }

    /// The recorded events, in append order.
    pub fn events(&self) -> &[SpanEvent] {
        &self.events
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The `"phase"` spans on this tracer's own thread, in begin order.
    /// A phase's depth counts only the phase spans open around it, so
    /// evaluator spans in between do not shift the table.
    pub fn phases(&self) -> Vec<PhaseRow<'_>> {
        let mut rows = Vec::new();
        // One entry per open span on this thread: its row, if a phase.
        let mut open: Vec<Option<usize>> = Vec::new();
        for e in self.events.iter().filter(|e| e.tid() == self.tid) {
            match e {
                SpanEvent::Begin {
                    ts_ns, name, cat, ..
                } => {
                    let is_phase = *cat == "phase";
                    if is_phase {
                        rows.push(PhaseRow {
                            name,
                            depth: open.iter().flatten().count(),
                            start_nanos: *ts_ns,
                            nanos: 0,
                        });
                    }
                    open.push(is_phase.then(|| rows.len() - 1));
                }
                SpanEvent::End { ts_ns, .. } => {
                    if let Some(Some(i)) = open.pop() {
                        rows[i].nanos = ts_ns - rows[i].start_nanos;
                    }
                }
                SpanEvent::Instant { .. } => {}
            }
        }
        rows
    }

    /// The events as a Chrome trace document (see [`chrome_trace`]).
    pub fn to_chrome_json(&self) -> Json {
        chrome_trace(&self.events, &[])
    }
}

/// Serializes span events into the Chrome trace-event JSON format,
/// converting timestamps to the microseconds it expects.
///
/// Events are stable-sorted by timestamp; within one tid the input order
/// is chronological, so the sort preserves per-thread `B`/`E` pairing
/// while interleaving threads correctly. `thread_names` adds `M`
/// (metadata) records so Perfetto labels the tracks.
pub fn chrome_trace(events: &[SpanEvent], thread_names: &[(u32, String)]) -> Json {
    let mut order: Vec<&SpanEvent> = events.iter().collect();
    order.sort_by_key(|e| e.ts_ns());
    let us = |ts_ns: &u64| Json::Int((ts_ns / 1_000) as i64);
    let mut out: Vec<Json> = Vec::with_capacity(order.len() + thread_names.len());
    for (tid, name) in thread_names {
        out.push(Json::obj([
            ("name", Json::str("thread_name")),
            ("ph", Json::str("M")),
            ("pid", Json::Int(1)),
            ("tid", Json::Int(*tid as i64)),
            ("args", Json::obj([("name", Json::str(name.as_str()))])),
        ]));
    }
    for e in order {
        out.push(match e {
            SpanEvent::Begin {
                id,
                parent,
                tid,
                ts_ns,
                name,
                cat,
            } => {
                let mut args = vec![("id".to_string(), Json::Int(*id as i64))];
                if let Some(p) = parent {
                    args.push(("parent".to_string(), Json::Int(*p as i64)));
                }
                Json::obj([
                    ("name", Json::str(name.clone())),
                    ("cat", Json::str(*cat)),
                    ("ph", Json::str("B")),
                    ("pid", Json::Int(1)),
                    ("tid", Json::Int(*tid as i64)),
                    ("ts", us(ts_ns)),
                    ("args", Json::Obj(args)),
                ])
            }
            SpanEvent::End { tid, ts_ns, .. } => Json::obj([
                ("ph", Json::str("E")),
                ("pid", Json::Int(1)),
                ("tid", Json::Int(*tid as i64)),
                ("ts", us(ts_ns)),
            ]),
            SpanEvent::Instant {
                tid,
                ts_ns,
                name,
                cat,
            } => Json::obj([
                ("name", Json::str(name.clone())),
                ("cat", Json::str(*cat)),
                ("ph", Json::str("i")),
                ("s", Json::str("t")),
                ("pid", Json::Int(1)),
                ("tid", Json::Int(*tid as i64)),
                ("ts", us(ts_ns)),
            ]),
        });
    }
    Json::obj([
        ("traceEvents", Json::Arr(out)),
        ("displayTimeUnit", Json::str("ms")),
    ])
}

/// Checks that `doc` is a structurally valid Chrome trace: a
/// `traceEvents` array whose duration events form matched `B`/`E` pairs
/// per tid with monotonically non-decreasing timestamps per tid.
///
/// # Errors
///
/// Returns a description of the first violated invariant.
pub fn validate_chrome_trace(doc: &Json) -> Result<(), String> {
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .ok_or("missing traceEvents array")?;
    // tid -> (open B count, last ts seen)
    let mut per_tid: std::collections::HashMap<i64, (usize, i64)> =
        std::collections::HashMap::new();
    for (i, e) in events.iter().enumerate() {
        let ph = e
            .get("ph")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {i}: missing ph"))?;
        if ph == "M" {
            continue;
        }
        if !matches!(ph, "B" | "E" | "i") {
            return Err(format!("event {i}: unsupported ph {ph:?}"));
        }
        let tid = e
            .get("tid")
            .and_then(Json::as_int)
            .ok_or_else(|| format!("event {i}: missing tid"))?;
        let ts = e
            .get("ts")
            .and_then(Json::as_int)
            .ok_or_else(|| format!("event {i}: missing ts"))?;
        if ts < 0 {
            return Err(format!("event {i}: negative ts"));
        }
        if matches!(ph, "B" | "i") && e.get("name").and_then(Json::as_str).is_none() {
            return Err(format!("event {i}: {ph} without a name"));
        }
        let entry = per_tid.entry(tid).or_insert((0, 0));
        if ts < entry.1 {
            return Err(format!(
                "event {i}: ts {ts} < previous ts {} on tid {tid}",
                entry.1
            ));
        }
        entry.1 = ts;
        match ph {
            "B" => entry.0 += 1,
            "E" => {
                if entry.0 == 0 {
                    return Err(format!("event {i}: E without open B on tid {tid}"));
                }
                entry.0 -= 1;
            }
            _ => {}
        }
    }
    for (tid, (open, _)) in per_tid {
        if open != 0 {
            return Err(format!("tid {tid}: {open} unclosed B events"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_link_parents() {
        let mut t = SpanTracer::new();
        let outer = t.begin("phase", "outer");
        let inner = t.begin("phase", "inner");
        t.end();
        t.instant("guard", "trip");
        t.end();
        assert_eq!(t.len(), 5);
        match &t.events()[1] {
            SpanEvent::Begin { id, parent, .. } => {
                assert_eq!(*id, inner);
                assert_eq!(*parent, Some(outer));
            }
            other => panic!("unexpected {other:?}"),
        }
        validate_chrome_trace(&t.to_chrome_json()).unwrap();
    }

    #[test]
    fn child_phase_links_to_its_parent_at_depth_one() {
        let mut t = SpanTracer::new();
        let outer = t.begin("phase", "outer");
        t.begin("phase", "inner-a");
        t.end();
        // A non-phase span in between does not deepen the phase table.
        t.begin("visit", "root visit");
        t.begin("phase", "inner-b");
        t.end();
        t.end();
        t.end();
        t.begin("phase", "tail");
        t.end();
        match &t.events()[1] {
            SpanEvent::Begin { parent, .. } => assert_eq!(*parent, Some(outer)),
            other => panic!("unexpected {other:?}"),
        }
        let rows = t.phases();
        let names: Vec<_> = rows.iter().map(|r| (r.name, r.depth)).collect();
        assert_eq!(
            names,
            vec![("outer", 0), ("inner-a", 1), ("inner-b", 1), ("tail", 0)]
        );
        // The outer phase covers its children.
        assert!(rows[0].nanos >= rows[1].nanos + rows[2].nanos);
    }

    #[test]
    fn repeated_phase_names_are_all_reported() {
        let mut t = SpanTracer::new();
        t.begin("phase", "analysis");
        for _ in 0..2 {
            t.begin("phase", "oag");
            t.end();
        }
        t.end();
        let rows = t.phases();
        let oag: Vec<u64> = rows
            .iter()
            .filter(|r| r.name == "oag")
            .map(|r| r.nanos)
            .collect();
        assert_eq!(oag.len(), 2);
        assert!(oag.iter().sum::<u64>() <= rows[0].nanos);
    }

    #[test]
    fn phase_starts_grow_with_begin_order() {
        let mut t = SpanTracer::new();
        t.begin("phase", "a");
        t.begin("phase", "b");
        t.end();
        t.end();
        t.begin("phase", "c");
        let rows = t.phases();
        let starts: Vec<u64> = rows.iter().map(|r| r.start_nanos).collect();
        assert!(starts.windows(2).all(|w| w[0] <= w[1]), "{starts:?}");
        assert_eq!(rows[2].nanos, 0, "an open phase has no length yet");
    }

    #[test]
    fn shards_share_the_epoch_and_merge() {
        let mut main = SpanTracer::new();
        main.begin("par", "batch");
        let mut a = main.shard(1);
        let mut b = main.shard(2);
        a.begin("par", "tree 0");
        a.end();
        b.begin("par", "tree 1");
        // left open on purpose: absorb must close it
        main.absorb(a);
        main.absorb(b);
        main.end();
        let ids: Vec<u64> = main
            .events()
            .iter()
            .filter_map(|e| match e {
                SpanEvent::Begin { id, .. } => Some(*id),
                _ => None,
            })
            .collect();
        let mut dedup = ids.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(ids.len(), dedup.len(), "span ids collide across shards");
        validate_chrome_trace(&main.to_chrome_json()).unwrap();
    }

    #[test]
    fn validator_rejects_unmatched_and_nonmonotonic() {
        let unmatched = Json::obj([(
            "traceEvents",
            Json::Arr(vec![Json::obj([
                ("name", Json::str("x")),
                ("ph", Json::str("B")),
                ("pid", Json::Int(1)),
                ("tid", Json::Int(0)),
                ("ts", Json::Int(5)),
            ])]),
        )]);
        assert!(validate_chrome_trace(&unmatched).is_err());

        let backwards = Json::obj([(
            "traceEvents",
            Json::Arr(vec![
                Json::obj([
                    ("name", Json::str("x")),
                    ("ph", Json::str("i")),
                    ("pid", Json::Int(1)),
                    ("tid", Json::Int(0)),
                    ("ts", Json::Int(5)),
                ]),
                Json::obj([
                    ("name", Json::str("y")),
                    ("ph", Json::str("i")),
                    ("pid", Json::Int(1)),
                    ("tid", Json::Int(0)),
                    ("ts", Json::Int(2)),
                ]),
            ]),
        )]);
        assert!(validate_chrome_trace(&backwards).is_err());
    }

    #[test]
    fn chrome_export_escapes_names() {
        let mut t = SpanTracer::new();
        t.begin("phase", "tricky \"name\"\nwith\tescapes\\");
        t.end();
        let doc = t.to_chrome_json();
        let text = doc.to_string();
        // The serialized document must parse back to the same value.
        let back = Json::parse(&text).unwrap();
        assert_eq!(back, doc);
        validate_chrome_trace(&back).unwrap();
    }
}
