//! Counters and log₂-bucketed histograms folded from the event stream.
//!
//! [`MetricsRegistry`] implements [`Sink`], so it can sit directly on the
//! hot path (alone or inside a [`crate::FanoutSink`] next to a trace
//! file) and fold every event into monotonic counters plus
//! [`Log2Histogram`]s with percentile queries. Everything is protected by
//! one mutex; an `emit` does O(1) work under the lock.

use crate::event::{Event, Verdict};
use crate::sink::Sink;
use std::collections::BTreeMap;
use std::sync::Mutex;

/// Number of buckets: one for zero plus one per possible bit-length of a
/// non-zero `u64` value.
const BUCKETS: usize = 65;

/// Scores are `f64` in `[0, 1]`-ish ranges; histograms store `u64`, so
/// scores are scaled by this factor before recording (micro-units).
pub const SCORE_SCALE: f64 = 1e6;

/// A fixed-size power-of-two-bucketed histogram of `u64` samples.
///
/// Bucket 0 holds exact zeros; bucket `i ≥ 1` holds values in
/// `[2^(i-1), 2^i)`. Percentile queries return the **upper bound** of the
/// bucket containing the requested rank, capped at the true observed
/// maximum — so `percentile(100.0)` is exact, and lower percentiles
/// over-estimate by at most 2×.
#[derive(Debug, Clone)]
pub struct Log2Histogram {
    buckets: [u64; BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Log2Histogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Index of the bucket holding `v`: 0 for zero, else `64 - leading_zeros`
/// (the bit length of `v`).
fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// Inclusive upper bound of bucket `i` (the largest value it can hold).
fn bucket_upper_bound(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

impl Log2Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        self.buckets[bucket_index(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest sample, or `None` if empty.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest sample, or `None` if empty.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Mean of all samples, or `None` if empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// The value at percentile `p` (in `[0, 100]`), or `None` if empty.
    ///
    /// Returns the upper bound of the bucket containing the rank, capped
    /// at the observed maximum (so the answer never exceeds a value that
    /// was actually recorded).
    pub fn percentile(&self, p: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let p = p.clamp(0.0, 100.0);
        // Rank of the target sample, 1-based, ceil so p=0 hits the first.
        let rank = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Some(bucket_upper_bound(i).min(self.max));
            }
        }
        Some(self.max)
    }

    /// Folds `other` into `self`, as if every sample recorded into
    /// `other` had been recorded here instead. Used to combine
    /// per-thread histograms into one run-level view.
    pub fn merge(&mut self, other: &Log2Histogram) {
        if other.count == 0 {
            return;
        }
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

#[derive(Debug, Default)]
struct RegistryInner {
    /// Monotonic event counts keyed by [`Event::kind`].
    event_counts: BTreeMap<&'static str, u64>,
    /// FilterScore verdict counts.
    verdicts: BTreeMap<&'static str, u64>,
    /// Finite suspicious scores, scaled by [`SCORE_SCALE`].
    scores: Log2Histogram,
    /// Span latency histograms (nanoseconds), keyed by span name.
    spans: BTreeMap<&'static str, Log2Histogram>,
    /// Span allocation histograms (bytes allocated while the span was
    /// open), keyed by span name. Empty when no counting allocator is
    /// installed (spans then report zero, which is still recorded so the
    /// count mirrors the latency histogram).
    span_allocs: BTreeMap<&'static str, Log2Histogram>,
    /// Largest `peak_live_bytes` seen in any close of the named span.
    span_peak_live: BTreeMap<&'static str, u64>,
    /// Named monotonic counters from [`Event::CounterAdd`].
    counters: BTreeMap<&'static str, u64>,
    /// Named gauge sample histograms from [`Event::GaugeSample`].
    gauges: BTreeMap<&'static str, Log2Histogram>,
    /// Most recent sample of each gauge.
    gauge_last: BTreeMap<&'static str, u64>,
}

/// Folds events into counters and histograms; query at end of run.
///
/// Implements [`Sink`], so it can be attached to a run directly or via
/// [`crate::SharedSink`] / [`crate::FanoutSink`].
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    inner: Mutex<RegistryInner>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Events of `kind` seen so far (see [`Event::kind`] for the tags).
    pub fn event_count(&self, kind: &str) -> u64 {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .event_counts
            .get(kind)
            .copied()
            .unwrap_or(0)
    }

    /// `FilterScore` events carrying the given verdict.
    pub fn verdict_count(&self, verdict: Verdict) -> u64 {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .verdicts
            .get(verdict.as_str())
            .copied()
            .unwrap_or(0)
    }

    /// Snapshot of the latency histogram for the named span, or `None` if
    /// that span never closed.
    pub fn span(&self, name: &str) -> Option<Log2Histogram> {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .spans
            .get(name)
            .cloned()
    }

    /// Snapshot of every span's latency histogram, keyed by span name
    /// (local training / filter / aggregation timings).
    pub fn spans(&self) -> BTreeMap<&'static str, Log2Histogram> {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .spans
            .clone()
    }

    /// Snapshot of all event counts, keyed by [`Event::kind`] tag.
    pub fn event_counts(&self) -> BTreeMap<&'static str, u64> {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .event_counts
            .clone()
    }

    /// Snapshot of the suspicious-score histogram (scores scaled by
    /// [`SCORE_SCALE`]; non-finite scores are not recorded).
    pub fn scores(&self) -> Log2Histogram {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .scores
            .clone()
    }

    /// Snapshot of the allocation histogram (bytes allocated per span
    /// window) for the named span, or `None` if that span never closed.
    pub fn span_alloc(&self, name: &str) -> Option<Log2Histogram> {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .span_allocs
            .get(name)
            .cloned()
    }

    /// Snapshot of every span's allocation histogram, keyed by span name.
    pub fn span_allocs(&self) -> BTreeMap<&'static str, Log2Histogram> {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .span_allocs
            .clone()
    }

    /// Largest allocator live-byte high-water mark observed at any close
    /// of the named span (0 when no counting allocator is installed).
    pub fn span_peak_live(&self, name: &str) -> u64 {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .span_peak_live
            .get(name)
            .copied()
            .unwrap_or(0)
    }

    /// Current value of the named monotonic counter (0 if never bumped).
    pub fn counter(&self, name: &str) -> u64 {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .counters
            .get(name)
            .copied()
            .unwrap_or(0)
    }

    /// Snapshot of all named counters.
    pub fn counters(&self) -> BTreeMap<&'static str, u64> {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .counters
            .clone()
    }

    /// Snapshot of the sample histogram for the named gauge, or `None`
    /// if it was never sampled.
    pub fn gauge(&self, name: &str) -> Option<Log2Histogram> {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .gauges
            .get(name)
            .cloned()
    }

    /// Snapshot of every gauge's sample histogram, keyed by gauge name.
    pub fn gauges(&self) -> BTreeMap<&'static str, Log2Histogram> {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .gauges
            .clone()
    }

    /// Most recent sample of the named gauge, or `None` if never sampled.
    pub fn gauge_last(&self, name: &str) -> Option<u64> {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .gauge_last
            .get(name)
            .copied()
    }

    /// Renders the end-of-run metrics table the bench binaries print:
    /// event counts, verdict counts, and per-span p50/p95/p99 latency.
    pub fn render_table(&self) -> String {
        let inner = self
            .inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let mut out = String::new();
        out.push_str("telemetry summary\n");
        out.push_str("  event counts:\n");
        if inner.event_counts.is_empty() {
            out.push_str("    (no events)\n");
        }
        for (kind, n) in &inner.event_counts {
            out.push_str(&format!("    {kind:<24} {n:>10}\n"));
        }
        if !inner.verdicts.is_empty() {
            out.push_str("  filter verdicts:\n");
            for (v, n) in &inner.verdicts {
                out.push_str(&format!("    {v:<24} {n:>10}\n"));
            }
        }
        if inner.scores.count() > 0 {
            let h = &inner.scores;
            out.push_str(&format!(
                "  suspicious scores (x{SCORE_SCALE:.0e}): n={} mean={:.0} p50={} p95={} p99={}\n",
                h.count(),
                h.mean().unwrap_or(0.0),
                h.percentile(50.0).unwrap_or(0),
                h.percentile(95.0).unwrap_or(0),
                h.percentile(99.0).unwrap_or(0),
            ));
        }
        if !inner.spans.is_empty() {
            out.push_str("  span latency (ns):\n");
            for (name, h) in &inner.spans {
                out.push_str(&format!(
                    "    {name:<16} n={:<8} p50={:<10} p95={:<10} p99={:<10}\n",
                    h.count(),
                    h.percentile(50.0).unwrap_or(0),
                    h.percentile(95.0).unwrap_or(0),
                    h.percentile(99.0).unwrap_or(0),
                ));
            }
        }
        // Only render allocation rows when an allocator actually measured
        // something — all-zero rows would just read as noise.
        if inner.span_allocs.values().any(|h| h.sum() > 0) {
            out.push_str("  span allocation (bytes):\n");
            for (name, h) in &inner.span_allocs {
                out.push_str(&format!(
                    "    {name:<16} n={:<8} mean={:<12.0} p99={:<12} peak_live={}\n",
                    h.count(),
                    h.mean().unwrap_or(0.0),
                    h.percentile(99.0).unwrap_or(0),
                    inner.span_peak_live.get(name).copied().unwrap_or(0),
                ));
            }
        }
        if !inner.counters.is_empty() {
            out.push_str("  counters:\n");
            for (name, n) in &inner.counters {
                out.push_str(&format!("    {name:<24} {n:>10}\n"));
            }
        }
        if !inner.gauges.is_empty() {
            out.push_str("  gauges:\n");
            for (name, h) in &inner.gauges {
                out.push_str(&format!(
                    "    {name:<24} n={:<8} last={:<10} mean={:<10.1} max={}\n",
                    h.count(),
                    inner.gauge_last.get(name).copied().unwrap_or(0),
                    h.mean().unwrap_or(0.0),
                    h.max().unwrap_or(0),
                ));
            }
        }
        out
    }
}

impl Sink for MetricsRegistry {
    fn emit(&self, event: &Event) {
        let mut inner = self
            .inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        *inner.event_counts.entry(event.kind()).or_insert(0) += 1;
        match event {
            Event::FilterScore { score, verdict, .. } => {
                *inner.verdicts.entry(verdict.as_str()).or_insert(0) += 1;
                if score.is_finite() {
                    let scaled = (score.max(0.0) * SCORE_SCALE).round() as u64;
                    inner.scores.record(scaled);
                }
            }
            Event::SpanClosed {
                name,
                nanos,
                alloc_bytes,
                peak_live_bytes,
            } => {
                inner.spans.entry(name).or_default().record(*nanos);
                inner
                    .span_allocs
                    .entry(name)
                    .or_default()
                    .record(*alloc_bytes);
                let peak = inner.span_peak_live.entry(name).or_insert(0);
                *peak = (*peak).max(*peak_live_bytes);
            }
            Event::CounterAdd { name, delta } => {
                *inner.counters.entry(name).or_insert(0) += delta;
            }
            Event::GaugeSample { name, value } => {
                inner.gauges.entry(name).or_default().record(*value);
                inner.gauge_last.insert(name, *value);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_boundaries() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(7), 3);
        assert_eq!(bucket_index(8), 4);
        assert_eq!(bucket_index(u64::MAX), 64);
    }

    #[test]
    fn bucket_upper_bounds() {
        assert_eq!(bucket_upper_bound(0), 0);
        assert_eq!(bucket_upper_bound(1), 1);
        assert_eq!(bucket_upper_bound(2), 3);
        assert_eq!(bucket_upper_bound(3), 7);
        assert_eq!(bucket_upper_bound(64), u64::MAX);
    }

    #[test]
    fn histogram_basic_stats() {
        let mut h = Log2Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.mean(), None);
        assert_eq!(h.percentile(50.0), None);

        for v in [0u64, 1, 2, 3, 100] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 106);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(100));
        assert!((h.mean().unwrap() - 21.2).abs() < 1e-9);
    }

    #[test]
    fn percentile_returns_bucket_upper_bound_capped_at_max() {
        let mut h = Log2Histogram::new();
        // 10 samples all equal to 5 (bucket [4, 8), upper bound 7, max 5).
        for _ in 0..10 {
            h.record(5);
        }
        assert_eq!(h.percentile(50.0), Some(5), "capped at observed max");
        assert_eq!(h.percentile(100.0), Some(5));

        let mut h = Log2Histogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        // p50 → rank 50 → bucket [32, 64) → upper bound 63.
        assert_eq!(h.percentile(50.0), Some(63));
        // p100 must be exact.
        assert_eq!(h.percentile(100.0), Some(100));
        // p0 hits the first sample's bucket ([1,2) → 1).
        assert_eq!(h.percentile(0.0), Some(1));
        // Out-of-range percentiles clamp.
        assert_eq!(h.percentile(250.0), Some(100));
        assert_eq!(h.percentile(-5.0), Some(1));
    }

    #[test]
    fn percentile_never_exceeds_recorded_range() {
        let mut h = Log2Histogram::new();
        h.record(1_000_000);
        assert_eq!(h.percentile(50.0), Some(1_000_000));
        assert_eq!(h.percentile(99.0), Some(1_000_000));
    }

    #[test]
    fn registry_folds_events() {
        let reg = MetricsRegistry::new();
        reg.emit(&Event::UpdateReceived {
            client: 0,
            round: 0,
            staleness: 0,
        });
        reg.emit(&Event::UpdateReceived {
            client: 1,
            round: 0,
            staleness: 1,
        });
        reg.emit(&Event::FilterScore {
            client: 0,
            staleness_group: 0,
            score: 0.5,
            verdict: Verdict::Accepted,
        });
        reg.emit(&Event::FilterScore {
            client: 1,
            staleness_group: 0,
            score: f64::NAN, // unscored path: counted as verdict, not as score
            verdict: Verdict::Rejected,
        });
        reg.emit(&Event::SpanClosed {
            name: "filter",
            nanos: 1500,
            alloc_bytes: 4096,
            peak_live_bytes: 1 << 20,
        });

        assert_eq!(reg.event_count("update_received"), 2);
        assert_eq!(reg.event_count("filter_score"), 2);
        assert_eq!(reg.event_count("aggregation_completed"), 0);
        assert_eq!(reg.verdict_count(Verdict::Accepted), 1);
        assert_eq!(reg.verdict_count(Verdict::Rejected), 1);
        assert_eq!(reg.verdict_count(Verdict::Deferred), 0);
        assert_eq!(reg.scores().count(), 1, "NaN scores are not recorded");
        assert_eq!(reg.scores().max(), Some(500_000)); // 0.5 * 1e6

        let span = reg.span("filter").expect("span recorded");
        assert_eq!(span.count(), 1);
        assert_eq!(span.max(), Some(1500));
        assert!(reg.span("kmeans_1d").is_none());

        let alloc = reg.span_alloc("filter").expect("alloc recorded");
        assert_eq!(alloc.count(), 1);
        assert_eq!(alloc.max(), Some(4096));
        assert_eq!(reg.span_peak_live("filter"), 1 << 20);
        assert_eq!(reg.span_peak_live("kmeans_1d"), 0);
    }

    #[test]
    fn registry_folds_counters_and_gauges() {
        let reg = MetricsRegistry::new();
        assert_eq!(reg.counter("deferred_requeued"), 0);
        assert_eq!(reg.gauge_last("buffer_occupancy"), None);
        assert!(reg.gauge("buffer_occupancy").is_none());

        reg.emit(&Event::CounterAdd {
            name: "deferred_requeued",
            delta: 3,
        });
        reg.emit(&Event::CounterAdd {
            name: "deferred_requeued",
            delta: 2,
        });
        for v in [10u64, 40, 25] {
            reg.emit(&Event::GaugeSample {
                name: "buffer_occupancy",
                value: v,
            });
        }

        assert_eq!(reg.counter("deferred_requeued"), 5);
        assert_eq!(reg.event_count("counter_add"), 2);
        assert_eq!(reg.event_count("gauge_sample"), 3);
        assert_eq!(reg.gauge_last("buffer_occupancy"), Some(25));
        let g = reg.gauge("buffer_occupancy").expect("gauge recorded");
        assert_eq!(g.count(), 3);
        assert_eq!(g.max(), Some(40));
        assert_eq!(reg.counters().len(), 1);
        assert_eq!(reg.gauges().len(), 1);
    }

    #[test]
    fn render_table_mentions_everything() {
        let reg = MetricsRegistry::new();
        assert!(reg.render_table().contains("(no events)"));
        reg.emit(&Event::FilterScore {
            client: 0,
            staleness_group: 0,
            score: 0.25,
            verdict: Verdict::Deferred,
        });
        reg.emit(&Event::SpanClosed {
            name: "aggregate",
            nanos: 9,
            alloc_bytes: 128,
            peak_live_bytes: 1024,
        });
        reg.emit(&Event::CounterAdd {
            name: "deferred_requeued",
            delta: 1,
        });
        reg.emit(&Event::GaugeSample {
            name: "resident_client_states",
            value: 17,
        });
        let table = reg.render_table();
        assert!(table.contains("filter_score"));
        assert!(table.contains("deferred"));
        assert!(table.contains("aggregate"));
        assert!(table.contains("p95="));
        assert!(table.contains("span allocation"));
        assert!(table.contains("peak_live=1024"));
        assert!(table.contains("deferred_requeued"));
        assert!(table.contains("resident_client_states"));
    }

    #[test]
    fn render_table_hides_all_zero_alloc_rows() {
        // Without a counting allocator every span reports zero bytes;
        // the table must then omit the allocation section entirely.
        let reg = MetricsRegistry::new();
        reg.emit(&Event::SpanClosed {
            name: "filter",
            nanos: 10,
            alloc_bytes: 0,
            peak_live_bytes: 0,
        });
        assert!(!reg.render_table().contains("span allocation"));
    }

    // ---- Log2Histogram edge cases (satellite: p0/p100, empty, top
    // bucket, merge) ----

    #[test]
    fn empty_histogram_answers_none_everywhere() {
        let h = Log2Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.sum(), 0);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.mean(), None);
        for p in [0.0, 50.0, 100.0, -1.0, 101.0] {
            assert_eq!(h.percentile(p), None);
        }
    }

    #[test]
    fn p0_and_p100_bracket_the_recorded_range() {
        let mut h = Log2Histogram::new();
        for v in [3u64, 900, 70_000] {
            h.record(v);
        }
        // p0 lands in the smallest sample's bucket ([2,4) → 3, capped).
        assert_eq!(h.percentile(0.0), Some(3));
        // p100 is always the exact observed maximum.
        assert_eq!(h.percentile(100.0), Some(70_000));
    }

    #[test]
    fn top_bucket_saturation() {
        // u64::MAX and friends land in bucket 64, whose upper bound is
        // u64::MAX — no overflow in the bound computation.
        let mut h = Log2Histogram::new();
        h.record(u64::MAX);
        h.record(u64::MAX - 1);
        h.record(1u64 << 63);
        assert_eq!(h.count(), 3);
        assert_eq!(h.max(), Some(u64::MAX));
        assert_eq!(h.min(), Some(1u64 << 63));
        assert_eq!(h.percentile(100.0), Some(u64::MAX));
        // Sum saturates rather than wrapping.
        assert_eq!(h.sum(), u64::MAX);
        assert_eq!(h.percentile(0.0), Some(u64::MAX).min(h.max()));
    }

    #[test]
    fn merge_equals_recording_into_one() {
        let samples_a = [0u64, 1, 5, 77, 4096];
        let samples_b = [2u64, 5, 1_000_000, u64::MAX];
        let mut a = Log2Histogram::new();
        let mut b = Log2Histogram::new();
        let mut combined = Log2Histogram::new();
        for v in samples_a {
            a.record(v);
            combined.record(v);
        }
        for v in samples_b {
            b.record(v);
            combined.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), combined.count());
        assert_eq!(a.sum(), combined.sum());
        assert_eq!(a.min(), combined.min());
        assert_eq!(a.max(), combined.max());
        for p in [0.0, 25.0, 50.0, 75.0, 99.0, 100.0] {
            assert_eq!(a.percentile(p), combined.percentile(p), "p{p}");
        }
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn prop_percentiles_bracket_recorded_values(
                samples in proptest::collection::vec(0u64..1_000_000, 1..64),
            ) {
                let mut h = Log2Histogram::new();
                for &v in &samples {
                    h.record(v);
                }
                let lo = *samples.iter().min().unwrap();
                let hi = *samples.iter().max().unwrap();
                prop_assert_eq!(h.count(), samples.len() as u64);
                prop_assert_eq!(h.min(), Some(lo));
                prop_assert_eq!(h.max(), Some(hi));
                prop_assert_eq!(h.percentile(100.0), Some(hi));
                for p in [0.0, 10.0, 50.0, 90.0, 99.0] {
                    let v = h.percentile(p).unwrap();
                    // Bucket upper bounds over-estimate by < 2x but never
                    // exceed the observed max; lower bound is the p0 bucket.
                    prop_assert!(v >= lo, "p{} = {} < min {}", p, v, lo);
                    prop_assert!(v <= hi, "p{} = {} > max {}", p, v, hi);
                }
            }

            #[test]
            fn prop_percentile_monotone_in_p(
                samples in proptest::collection::vec(0u64..u64::MAX, 1..48),
            ) {
                let mut h = Log2Histogram::new();
                for &v in &samples {
                    h.record(v);
                }
                let mut prev = 0u64;
                for p in [0.0, 25.0, 50.0, 75.0, 90.0, 99.0, 100.0] {
                    let v = h.percentile(p).unwrap();
                    prop_assert!(v >= prev, "percentile not monotone at p{}", p);
                    prev = v;
                }
            }

            #[test]
            fn prop_merge_matches_single_histogram(
                xs in proptest::collection::vec(0u64..u64::MAX, 0..32),
                ys in proptest::collection::vec(0u64..u64::MAX, 0..32),
            ) {
                let mut a = Log2Histogram::new();
                let mut b = Log2Histogram::new();
                let mut both = Log2Histogram::new();
                for &v in &xs {
                    a.record(v);
                    both.record(v);
                }
                for &v in &ys {
                    b.record(v);
                    both.record(v);
                }
                a.merge(&b);
                prop_assert_eq!(a.count(), both.count());
                prop_assert_eq!(a.sum(), both.sum());
                prop_assert_eq!(a.min(), both.min());
                prop_assert_eq!(a.max(), both.max());
                for p in [0.0, 50.0, 100.0] {
                    prop_assert_eq!(a.percentile(p), both.percentile(p));
                }
            }
        }
    }

    #[test]
    fn merge_with_empty_is_identity_both_ways() {
        let mut h = Log2Histogram::new();
        for v in [9u64, 81] {
            h.record(v);
        }
        let snapshot = h.clone();
        h.merge(&Log2Histogram::new());
        assert_eq!(h.count(), snapshot.count());
        assert_eq!(h.min(), snapshot.min());
        assert_eq!(h.max(), snapshot.max());

        let mut empty = Log2Histogram::new();
        empty.merge(&snapshot);
        assert_eq!(empty.count(), snapshot.count());
        assert_eq!(empty.min(), snapshot.min());
        assert_eq!(empty.max(), snapshot.max());
        assert_eq!(empty.percentile(50.0), snapshot.percentile(50.0));
    }
}
