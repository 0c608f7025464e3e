//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! The traced run wraps every layer call it makes (trace generation,
//! the layout lookup, each memsim structure, the engine, the fits, the
//! wire codec, each request) in a span: a name and its start and end.
//! Spans stay in memory, so recording costs one `Instant::now()` pair and
//! a push; the per-layer metrics are totals and means over them.

use std::time::Instant;

/// One recorded interval, in nanoseconds since the log's origin.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer-qualified name, e.g. `harness.measure_layout`.
    pub name: &'static str,
    /// Start, ns since the log was created.
    pub start_ns: u64,
    /// End, ns since the log was created.
    pub end_ns: u64,
}

impl Span {
    /// The span's duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An append-only span log.
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
    enabled: bool,
}

impl Default for SpanLog {
    fn default() -> Self {
        SpanLog {
            origin: Instant::now(),
            spans: Vec::new(),
            enabled: true,
        }
    }
}

impl SpanLog {
    /// A log that records nothing: the untraced run passes one so its
    /// timed paths make no clock reads beyond their own.
    pub fn disabled() -> SpanLog {
        SpanLog {
            enabled: false,
            ..SpanLog::default()
        }
    }

    /// Whether this log records spans (a traced run).
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    fn rel_ns(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name` and returns its result.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut SpanLog) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let start = Instant::now();
        let out = f(self);
        self.record(name, start, Instant::now());
        out
    }

    /// Records an interval measured elsewhere, for example by a worker
    /// thread.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let span = Span {
            name,
            start_ns: self.rel_ns(start),
            end_ns: self.rel_ns(end),
        };
        self.spans.push(span);
    }

    /// Spans named `name`.
    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Total duration of the spans named `name`, in nanoseconds.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.named(name).map(Span::ns).sum()
    }

    /// Number of spans named `name`.
    pub fn count(&self, name: &str) -> usize {
        self.named(name).count()
    }

    /// Mean duration of the spans named `name` in milliseconds, or zero
    /// when none were recorded.
    pub fn mean_ms(&self, name: &str) -> f64 {
        let n = self.count(name);
        if n == 0 {
            return 0.0;
        }
        self.total_ns(name) as f64 / n as f64 / 1e6
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_are_each_recorded() {
        let mut log = SpanLog::default();
        log.span("outer", |log| {
            log.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        assert_eq!(log.count("outer"), 1);
        assert_eq!(log.count("inner"), 1);
        assert!(log.total_ns("inner") >= 2_000_000);
        assert!(log.total_ns("outer") >= log.total_ns("inner"));
    }

    #[test]
    fn disabled_log_records_nothing() {
        let mut log = SpanLog::disabled();
        assert_eq!(log.span("x", |_| 7), 7);
        assert_eq!(log.count("x"), 0);
    }
}
