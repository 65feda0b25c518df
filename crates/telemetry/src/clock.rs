//! The workspace's single sanctioned wall-clock entry point.
//!
//! Rule D4 (`clippy.toml`'s `disallowed-methods`) forbids direct
//! `std::time::Instant::now()` everywhere but here and [`crate::Span`],
//! so every timing measurement flows either through an RAII
//! [`crate::Span`] (preferred — emits a structured event) or through an
//! explicit [`Stopwatch`] (for harness-level wall clocks like per-experiment
//! totals, where no sink is in scope). Centralizing the clock keeps the
//! "no ambient time sources" determinism story auditable: grep for
//! `Stopwatch::start` and you have the complete list of wall-clock reads.

use std::time::{Duration, Instant};

/// An explicit, always-armed stopwatch.
///
/// Unlike [`crate::Span`], a `Stopwatch` has no sink and emits nothing —
/// it is for call sites that *are* the consumer of the measurement
/// (bench harnesses, the wall-clock engine's run timer).
///
/// ```
/// use asyncfl_telemetry::clock::Stopwatch;
///
/// let sw = Stopwatch::start();
/// // ... timed work ...
/// assert!(sw.elapsed_secs() >= 0.0);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    started: Instant,
}

impl Stopwatch {
    /// Reads the monotonic clock and starts timing.
    #[must_use]
    pub fn start() -> Self {
        Self {
            #[expect(
                clippy::disallowed_methods,
                reason = "D4: this is the sanctioned wall clock every timing reads"
            )]
            started: Instant::now(),
        }
    }

    /// Elapsed time since [`start`](Self::start).
    #[must_use]
    pub fn elapsed(&self) -> Duration {
        self.started.elapsed()
    }

    /// Elapsed seconds as `f64`.
    #[must_use]
    pub fn elapsed_secs(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// Elapsed nanoseconds, saturating at `u64::MAX`.
    #[must_use]
    pub fn elapsed_nanos(&self) -> u64 {
        u64::try_from(self.started.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stopwatch_monotonic() {
        let sw = Stopwatch::start();
        let a = sw.elapsed_nanos();
        let b = sw.elapsed_nanos();
        assert!(b >= a);
        assert!(sw.elapsed_secs() >= 0.0);
        assert!(sw.elapsed() >= Duration::ZERO);
    }
}
