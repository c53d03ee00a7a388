//! In-memory spans around the benchmark's calls into each crate.
//!
//! A span has a name, a start, an end and a parent; every span of one
//! sim point or campaign job carries that point's or job's `group` id.
//! Spans are only recorded when the tracer is on, and are written out
//! once, when the run ends. The timings the metrics use are taken with
//! or without the tracer, so switching it on adds only the recording.

use std::time::Instant;

use tsocc_bench::json;

/// Index of a recorded span (`None` when tracing is off).
pub type SpanId = Option<usize>;

struct Span {
    name: String,
    group: u64,
    parent: SpanId,
    start: Instant,
    end: Instant,
}

/// The span recorder.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    groups: u64,
}

impl Tracer {
    /// A recorder, switched off: every call is a no-op until
    /// [`Tracer::set_on`].
    pub fn new() -> Tracer {
        Tracer {
            on: false,
            origin: Instant::now(),
            spans: Vec::new(),
            groups: 0,
        }
    }

    /// Switches span recording and allocation counting on or off
    /// (spans already recorded stay).
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
        crate::alloc::set_counting(on);
    }

    /// A fresh point/job id.
    pub fn next_group(&mut self) -> u64 {
        self.groups += 1;
        self.groups
    }

    /// Opens a span that ends at [`Tracer::close`].
    pub fn open(&mut self, name: &str, group: u64, parent: SpanId) -> SpanId {
        let now = Instant::now();
        self.record(name, group, parent, now, now)
    }

    /// Ends a span opened with [`Tracer::open`].
    pub fn close(&mut self, id: SpanId) {
        if let Some(i) = id {
            self.spans[i].end = Instant::now();
        }
    }

    /// Records a finished span.
    fn record(
        &mut self,
        name: &str,
        group: u64,
        parent: SpanId,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        if !self.on {
            return None;
        }
        self.spans.push(Span {
            name: name.to_string(),
            group,
            parent,
            start,
            end,
        });
        Some(self.spans.len() - 1)
    }

    /// Runs `f`, records it as a span and returns its result with its
    /// duration in seconds.
    pub fn time<T>(
        &mut self,
        name: &str,
        group: u64,
        parent: SpanId,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.record(name, group, parent, start, end);
        (out, (end - start).as_secs_f64())
    }

    /// Spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Summed duration, in seconds, of the recorded spans whose parent
    /// is `parent`.
    pub fn children_s(&self, parent: SpanId) -> f64 {
        self.spans
            .iter()
            .filter(|s| parent.is_some() && s.parent == parent)
            .map(|s| (s.end - s.start).as_secs_f64())
            .sum()
    }

    /// Duration of one span, in seconds.
    pub fn duration_s(&self, id: SpanId) -> f64 {
        id.map_or(0.0, |i| {
            (self.spans[i].end - self.spans[i].start).as_secs_f64()
        })
    }

    /// The spans as a JSON array; times are microseconds from the
    /// tracer's creation.
    pub fn to_json(&self) -> String {
        let us = |t: Instant| (t - self.origin).as_secs_f64() * 1e6;
        json::array(self.spans.iter().enumerate().map(|(i, s)| {
            json::Object::new()
                .u64("id", i as u64)
                .raw(
                    "parent",
                    s.parent.map_or("null".to_string(), |p| p.to_string()),
                )
                .u64("group", s.group)
                .str("name", &s.name)
                .f64("start_us", us(s.start))
                .f64("end_us", us(s.end))
                .build()
        }))
    }
}
