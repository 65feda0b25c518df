//! Structured observability for the AsyncFilter stack.
//!
//! The paper's claims are about *per-update decisions* — staleness grouping
//! (eq. 4), suspicious scores (eqs. 6–7) and the 3-means
//! accept/defer/reject verdict (§4.3, Alg. 1) — but an end-of-run summary
//! cannot show what the filter did to any individual update, nor how long
//! the hot paths took. This crate is the measurement substrate the rest of
//! the workspace reports through:
//!
//! * [`Event`] — a structured record covering the full update lifecycle,
//!   from [`Event::UpdateReceived`] through [`Event::FilterScore`] to
//!   [`Event::AggregationCompleted`], plus [`Event::AccuracyCheckpoint`]
//!   and [`Event::SpanClosed`] timing records.
//! * [`Sink`] — where events go. [`NullSink`] discards (the zero-cost
//!   default), [`MemorySink`] keeps a bounded in-memory ring,
//!   [`JsonlSink`] writes one hand-escaped JSON object per line (no
//!   external serialization crate), [`MetricsRegistry`] folds events into
//!   counters and histograms, and [`SharedSink`]/[`FanoutSink`] compose
//!   sinks across threads.
//! * [`MetricsRegistry`] — monotonic counters per event kind plus
//!   log₂-bucketed latency/score histograms ([`Log2Histogram`]) with
//!   percentile queries.
//! * [`Span`] — an RAII stopwatch: construct at the top of a hot path,
//!   and on drop it emits [`Event::SpanClosed`] with the elapsed
//!   nanoseconds plus the bytes allocated inside the span. With no sink
//!   attached it never reads the clock or the allocator counters.
//! * [`alloc::CountingAllocator`] — an opt-in `#[global_allocator]`
//!   wrapping the system allocator with byte/count accounting, the data
//!   source for per-span `alloc_bytes` and the bench `peak_rss_estimate`
//!   probe.
//! * [`clock::Stopwatch`] — the single sanctioned direct wall-clock for
//!   harness-level timing (rule D4, a `clippy.toml` entry, forbids bare
//!   `Instant::now()` elsewhere).
//!
//! The crate deliberately has **zero dependencies** so every other crate in
//! the workspace can depend on it without build-graph consequences.
//!
//! # Example
//!
//! ```
//! use asyncfl_telemetry::{Event, MemorySink, MetricsRegistry, Sink, Span, Verdict};
//!
//! let sink = MemorySink::new(1024);
//! {
//!     let _span = Span::start(Some(&sink), "filter");
//!     // ... the timed work ...
//! }
//! sink.emit(&Event::FilterScore {
//!     client: 7,
//!     staleness_group: 0,
//!     score: 0.42,
//!     verdict: Verdict::Rejected,
//! });
//! assert_eq!(sink.len(), 2);
//!
//! let registry = MetricsRegistry::new();
//! for e in sink.events() {
//!     registry.emit(&e);
//! }
//! assert_eq!(registry.verdict_count(Verdict::Rejected), 1);
//! ```

// `deny`, not `forbid`: the one sanctioned unsafe region in the workspace
// lives in `alloc` (implementing `GlobalAlloc` requires unsafe fn
// signatures) behind a scoped `allow` with a safety comment.
#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::allow_attributes,
    clippy::allow_attributes_without_reason
)]

pub mod alloc;
pub mod clock;
pub mod event;
pub mod metrics;
pub mod sink;
pub mod span;

pub use clock::Stopwatch;
pub use event::{Event, MalformedReason, Verdict};
pub use metrics::{Log2Histogram, MetricsRegistry};
pub use sink::{FanoutSink, JsonlSink, MemorySink, NullSink, SharedSink, Sink};
pub use span::Span;

// Install the counting allocator in this crate's own test binary so the
// alloc/span unit tests observe real counter movement.
#[cfg(test)]
#[global_allocator]
static TEST_ALLOC: alloc::CountingAllocator = alloc::CountingAllocator::new();
