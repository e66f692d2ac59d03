//! Per-layer timing taken from outside the library: spans around calls
//! into each module's public functions, plus counts read from their
//! public return values.
//!
//! A [`Trace`] is either off — every [`Trace::span`] just calls its
//! closure — or on, when it adds the closure's wall time to the named
//! layer. Spans recorded inside a job are *job spans*: together with
//! `bench.check` they should account for the job's measured time.
//! [`Trace::aside`] records extra measurements made between jobs (the
//! 1-worker comparison run, the static-prefix run) that no job pays
//! for.

use std::collections::BTreeMap;
use std::time::Instant;

/// Summed time and call count of one layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct Span {
    /// Total wall time, in milliseconds.
    pub total_ms: f64,
    /// Number of timed calls.
    pub calls: u64,
}

impl Span {
    /// Mean time per call in milliseconds (0 when never called).
    #[must_use]
    pub fn mean_ms(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.total_ms / self.calls as f64
        }
    }
}

/// Layer timings and counts of one run; see the module docs.
#[derive(Debug, Default)]
pub struct Trace {
    on: bool,
    spans: BTreeMap<&'static str, Span>,
    asides: BTreeMap<&'static str, Span>,
    counts: BTreeMap<&'static str, f64>,
    maxima: BTreeMap<&'static str, f64>,
}

impl Trace {
    /// A trace that records nothing.
    #[must_use]
    pub fn off() -> Trace {
        Trace::default()
    }

    /// A recording trace.
    #[must_use]
    pub fn on() -> Trace {
        Trace {
            on: true,
            ..Trace::default()
        }
    }

    /// Whether this trace records.
    #[must_use]
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Runs `f`, adding its wall time to job layer `layer` when on.
    pub fn span<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> T {
        self.timed_span(layer, f).0
    }

    /// [`Trace::span`] that also returns the measured milliseconds (0
    /// when off).
    pub fn timed_span<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        if !self.on {
            return (f(), 0.0);
        }
        let start = Instant::now();
        let out = f();
        let ms = start.elapsed().as_secs_f64() * 1e3;
        let span = self.spans.entry(layer).or_default();
        span.total_ms += ms;
        span.calls += 1;
        (out, ms)
    }

    /// Runs `f` outside any job, adding its wall time to `layer`.
    pub fn aside<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.record_aside(layer, start.elapsed().as_secs_f64() * 1e3);
        out
    }

    /// Adds an already measured duration to aside layer `layer`.
    pub fn record_aside(&mut self, layer: &'static str, ms: f64) {
        if self.on {
            let span = self.asides.entry(layer).or_default();
            span.total_ms += ms;
            span.calls += 1;
        }
    }

    /// Adds `n` to counter `key` when on.
    pub fn count(&mut self, key: &'static str, n: f64) {
        if self.on {
            *self.counts.entry(key).or_default() += n;
        }
    }

    /// Raises gauge `key` to at least `value` when on.
    pub fn max(&mut self, key: &'static str, value: f64) {
        if self.on {
            let slot = self.maxima.entry(key).or_insert(value);
            *slot = slot.max(value);
        }
    }

    /// The job span of `layer` (zero when never recorded).
    #[must_use]
    pub fn job_span(&self, layer: &str) -> Span {
        self.spans.get(layer).copied().unwrap_or_default()
    }

    /// The aside span of `layer` (zero when never recorded).
    #[must_use]
    pub fn aside_span(&self, layer: &str) -> Span {
        self.asides.get(layer).copied().unwrap_or_default()
    }

    /// Counter `key` (zero when never counted).
    #[must_use]
    pub fn counter(&self, key: &str) -> f64 {
        self.counts.get(key).copied().unwrap_or(0.0)
    }

    /// Gauge `key` (zero when never set).
    #[must_use]
    pub fn maximum(&self, key: &str) -> f64 {
        self.maxima.get(key).copied().unwrap_or(0.0)
    }

    /// Total time of all job spans, in milliseconds.
    #[must_use]
    pub fn job_span_total_ms(&self) -> f64 {
        self.spans.values().map(|s| s.total_ms).sum()
    }
}
