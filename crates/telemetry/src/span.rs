//! RAII timing + allocation spans.
//!
//! A [`Span`] reads the monotonic clock (and the [`crate::alloc`]
//! counters) when constructed and, when dropped, emits
//! [`Event::SpanClosed`] with the elapsed nanoseconds, the bytes
//! allocated while the span was open, and the allocator's live-byte
//! high-water mark at close. With no sink ([`Span::start`] with `None`)
//! it is inert: no clock read, no counter read, nothing emitted — so
//! wrapping hot paths in spans costs nothing on the default untraced
//! path.
//!
//! Allocation attribution is process-global: the delta counts every
//! thread's allocations during the span's lifetime, which is exact for
//! the single-threaded hot paths (`filter`, `aggregate`, the inline
//! engine's `local_training`) and an over-approximation when pool
//! workers overlap. When no [`crate::alloc::CountingAllocator`] is
//! installed both fields are zero.

use crate::alloc;
use crate::event::Event;
use crate::sink::Sink;
use std::time::Instant;

/// An RAII stopwatch + allocation meter that reports its lifetime to a
/// [`Sink`] on drop.
///
/// ```
/// use asyncfl_telemetry::{MemorySink, Span};
///
/// let sink = MemorySink::new(8);
/// {
///     let _span = Span::start(Some(&sink), "filter");
///     // ... timed work ...
/// } // drop emits Event::SpanClosed { name: "filter", .. }
/// assert_eq!(sink.count_kind("span_closed"), 1);
/// ```
pub struct Span<'a> {
    /// `None` when untraced; then no clock was read either.
    armed: Option<Armed<'a>>,
    name: &'static str,
}

struct Armed<'a> {
    sink: &'a dyn Sink,
    started: Instant,
    alloc_bytes_at_start: u64,
}

impl std::fmt::Debug for Span<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Span")
            .field("name", &self.name)
            .field("armed", &self.is_armed())
            .finish()
    }
}

impl<'a> Span<'a> {
    /// Starts a span. With `sink = None` this is free: the clock is not
    /// read and drop does nothing.
    pub fn start(sink: Option<&'a dyn Sink>, name: &'static str) -> Self {
        Self {
            armed: sink.map(|sink| Armed {
                sink,
                #[expect(
                    clippy::disallowed_methods,
                    reason = "D4: spans time through the sanctioned clock module's `Instant`"
                )]
                started: Instant::now(),
                alloc_bytes_at_start: alloc::allocated_bytes(),
            }),
            name,
        }
    }

    /// The span's name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Whether this span will emit on drop.
    pub fn is_armed(&self) -> bool {
        self.armed.is_some()
    }

    /// Closes the span early (equivalent to dropping it here).
    pub fn finish(self) {}
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if let Some(armed) = self.armed.take() {
            let nanos = u64::try_from(armed.started.elapsed().as_nanos()).unwrap_or(u64::MAX);
            armed.sink.emit(&Event::SpanClosed {
                name: self.name,
                nanos,
                alloc_bytes: alloc::allocated_bytes().saturating_sub(armed.alloc_bytes_at_start),
                peak_live_bytes: alloc::peak_live_bytes(),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::MemorySink;

    #[test]
    fn armed_span_emits_on_drop() {
        let sink = MemorySink::new(8);
        {
            let span = Span::start(Some(&sink), "unit");
            assert!(span.is_armed());
            assert_eq!(span.name(), "unit");
        }
        let events = sink.events();
        assert_eq!(events.len(), 1);
        match &events[0] {
            Event::SpanClosed { name, .. } => assert_eq!(*name, "unit"),
            other => panic!("unexpected event {other:?}"),
        }
    }

    #[test]
    fn unarmed_span_is_silent() {
        let span = Span::start(None, "unit");
        assert!(!span.is_armed());
        drop(span);
        // Nothing to observe — the point is it must not panic and emits
        // nothing (verified indirectly: no sink exists to receive).
    }

    #[test]
    fn finish_closes_early() {
        let sink = MemorySink::new(8);
        let span = Span::start(Some(&sink), "early");
        span.finish();
        assert_eq!(sink.count_kind("span_closed"), 1);
    }

    #[test]
    fn armed_span_attributes_allocations() {
        // The telemetry test binary installs the counting allocator (see
        // lib.rs), so a deliberate allocation inside the span must show
        // up in its alloc_bytes delta.
        let sink = MemorySink::new(8);
        {
            let _span = Span::start(Some(&sink), "alloc_attr");
            std::hint::black_box(Vec::<u8>::with_capacity(1 << 20));
        }
        match &sink.events()[0] {
            Event::SpanClosed {
                alloc_bytes,
                peak_live_bytes,
                ..
            } => {
                assert!(
                    *alloc_bytes >= (1 << 20),
                    "span missed a 1 MiB allocation: {alloc_bytes}"
                );
                assert!(*peak_live_bytes > 0);
            }
            other => panic!("unexpected event {other:?}"),
        }
    }
}
