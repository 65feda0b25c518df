//! The buffered asynchronous server (FedBuff, Nguyen et al. 2022).
//!
//! The server "introduces a buffer to store local updates and only
//! aggregates when the buffer size reaches a certain aggregation goal"
//! (§2.1). On each aggregation it invokes the pluggable
//! [`UpdateFilter`] (Fig. 5's AsyncFilter slot), aggregates the accepted
//! updates with its [`Aggregator`], advances the round counter, and
//! re-buffers whatever the filter deferred.

use asyncfl_core::aggregation::Aggregator;
use asyncfl_core::update::{ClientUpdate, FilterContext, UpdateFilter};
use asyncfl_telemetry::{Event, SharedSink, Span, Verdict};
use asyncfl_tensor::Vector;
use std::collections::{BTreeMap, VecDeque};

use crate::metrics::DetectionStats;

/// Summary of one server aggregation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AggregationReport {
    /// The round index that this aggregation completed (0-based).
    pub round_completed: u64,
    /// Updates aggregated.
    pub accepted: usize,
    /// Updates rejected by the filter.
    pub rejected: usize,
    /// Updates re-buffered for the next aggregation.
    pub deferred: usize,
}

/// A FedBuff-style buffered server with a pluggable defense filter.
pub struct BufferedServer {
    global: Vector,
    round: u64,
    buffer: Vec<ClientUpdate>,
    aggregation_bound: usize,
    staleness_limit: u64,
    filter: Box<dyn UpdateFilter>,
    aggregator: Box<dyn Aggregator>,
    trusted_delta: Option<Vector>,
    detection: DetectionStats,
    received: u64,
    discarded_stale: u64,
    discarded_malformed: u64,
    staleness_histogram: BTreeMap<u64, u64>,
    sink: Option<SharedSink>,
}

impl BufferedServer {
    /// Creates a server with the given initial global model.
    ///
    /// # Panics
    ///
    /// Panics if `aggregation_bound == 0`.
    pub fn new(
        global: Vector,
        aggregation_bound: usize,
        staleness_limit: u64,
        filter: Box<dyn UpdateFilter>,
        aggregator: Box<dyn Aggregator>,
    ) -> Self {
        assert!(aggregation_bound > 0, "aggregation_bound must be positive");
        Self {
            global,
            round: 0,
            buffer: Vec::new(),
            aggregation_bound,
            staleness_limit,
            filter,
            aggregator,
            trusted_delta: None,
            detection: DetectionStats::default(),
            received: 0,
            discarded_stale: 0,
            discarded_malformed: 0,
            staleness_histogram: BTreeMap::new(),
            sink: None,
        }
    }

    /// Installs (or removes) the telemetry sink. With no sink — the default
    /// — the server emits nothing and pays no tracing cost.
    pub fn set_sink(&mut self, sink: Option<SharedSink>) {
        self.sink = sink;
    }

    /// Builder-style variant of [`set_sink`](Self::set_sink).
    #[must_use]
    pub fn with_sink(mut self, sink: SharedSink) -> Self {
        self.sink = Some(sink);
        self
    }

    fn emit(&self, event: Event) {
        if let Some(sink) = &self.sink {
            use asyncfl_telemetry::Sink;
            sink.emit(&event);
        }
    }

    /// Current global model parameters.
    pub fn global(&self) -> &Vector {
        &self.global
    }

    /// Current server round (completed aggregations).
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Updates currently buffered.
    pub fn buffer_len(&self) -> usize {
        self.buffer.len()
    }

    /// The defense's name (for reports).
    pub fn filter_name(&self) -> &str {
        self.filter.name()
    }

    /// Detection statistics accumulated so far.
    pub fn detection(&self) -> DetectionStats {
        self.detection
    }

    /// Reports received so far (before staleness screening).
    pub fn received(&self) -> u64 {
        self.received
    }

    /// Reports discarded for excessive staleness.
    pub fn discarded_stale(&self) -> u64 {
        self.discarded_stale
    }

    /// Reports discarded because their `params` or `delta` dimension
    /// differs from the global model's.
    pub fn discarded_malformed(&self) -> u64 {
        self.discarded_malformed
    }

    /// Histogram of staleness among buffered reports.
    pub fn staleness_histogram(&self) -> &BTreeMap<u64, u64> {
        &self.staleness_histogram
    }

    /// Installs/refreshes the trusted delta for clean-dataset baselines.
    pub fn set_trusted_delta(&mut self, delta: Option<Vector>) {
        self.trusted_delta = delta;
    }

    /// Receives one client report. Returns `Some` when this report
    /// triggered an aggregation.
    ///
    /// A report whose dimension differs from the global model's is
    /// discarded like a stale one: a Byzantine client may send anything,
    /// and one malformed report must not reach the filter pass, whose
    /// vector kernels panic on mismatched dimensions.
    pub fn receive(&mut self, mut update: ClientUpdate) -> Option<AggregationReport> {
        self.received += 1;
        let staleness = self.round.saturating_sub(update.base_round);
        update.staleness = staleness;
        self.emit(Event::UpdateReceived {
            client: update.client,
            round: self.round,
            staleness,
        });
        let dim = self.global.len();
        if update.params.len() != dim || update.delta.len() != dim {
            self.discarded_malformed += 1;
            self.emit(Event::CounterAdd {
                name: "updates_discarded_malformed",
                delta: 1,
            });
            return None;
        }
        if staleness > self.staleness_limit {
            self.discarded_stale += 1;
            self.emit(Event::UpdateDiscardedStale {
                client: update.client,
                round: self.round,
                staleness,
            });
            return None;
        }
        *self.staleness_histogram.entry(staleness).or_insert(0) += 1;
        // Arrival hook: incremental filters score the update now, off the
        // aggregation critical section. Staleness is final for this update
        // (the round only advances inside `aggregate_now`, and deferred
        // updates are re-announced there after it does).
        let sink_ref = self.sink.as_ref().map(|s| s.as_dyn());
        let mut ctx = FilterContext::new(self.round, &self.global, self.staleness_limit);
        if let Some(t) = &self.trusted_delta {
            ctx = ctx.with_trusted_delta(t);
        }
        if let Some(s) = sink_ref {
            ctx = ctx.with_sink(s);
        }
        self.filter.on_buffered(&update, &ctx);
        self.buffer.push(update);
        if self.buffer.len() >= self.aggregation_bound {
            Some(self.aggregate_now())
        } else {
            None
        }
    }

    /// Runs filter + aggregation over the current buffer, advancing the
    /// round. Called automatically by [`receive`](Self::receive); exposed
    /// for tests and for end-of-run flushes.
    pub fn aggregate_now(&mut self) -> AggregationReport {
        // Refresh staleness (deferred updates have aged) and screen again.
        let sink = self.sink.clone();
        let mut batch = std::mem::take(&mut self.buffer);
        batch.retain_mut(|u| {
            u.staleness = self.round.saturating_sub(u.base_round);
            if u.staleness > self.staleness_limit {
                self.discarded_stale += 1;
                if let Some(s) = &sink {
                    use asyncfl_telemetry::Sink;
                    s.emit(&Event::UpdateDiscardedStale {
                        client: u.client,
                        round: self.round,
                        staleness: u.staleness,
                    });
                }
                false
            } else {
                true
            }
        });

        // Buffer occupancy Ω at aggregation time (post staleness screen,
        // pre filter) — the quantity the paper's buffer-size ablation
        // (Fig. 10) varies, now observable per aggregation.
        self.emit(Event::GaugeSample {
            name: "buffer_occupancy",
            value: batch.len() as u64,
        });

        let sink_ref = self.sink.as_ref().map(|s| s.as_dyn());
        let ctx = {
            let mut ctx = FilterContext::new(self.round, &self.global, self.staleness_limit);
            if let Some(t) = &self.trusted_delta {
                ctx = ctx.with_trusted_delta(t);
            }
            if let Some(s) = sink_ref {
                ctx = ctx.with_sink(s);
            }
            ctx
        };
        let outcome = {
            let _span = Span::start(sink_ref, "filter");
            self.filter.filter(batch, &ctx)
        };
        self.detection.absorb(outcome.confusion());
        self.emit_filter_scores(&outcome);

        let report = AggregationReport {
            round_completed: self.round,
            accepted: outcome.accepted.len(),
            rejected: outcome.rejected.len(),
            deferred: outcome.deferred.len(),
        };
        self.global = {
            let _span = Span::start(self.sink.as_ref().map(|s| s.as_dyn()), "aggregate");
            self.aggregator.aggregate(&outcome.accepted, &self.global)
        };
        self.round += 1;
        // Deferred updates contribute "at a later stage".
        if !outcome.deferred.is_empty() {
            self.emit(Event::CounterAdd {
                name: "deferred_requeued",
                delta: outcome.deferred.len() as u64,
            });
        }
        let mut deferred = outcome.deferred;
        if !deferred.is_empty() {
            // Re-announce each re-buffered update at its post-advance
            // staleness — the value the next pass will see. Updates that
            // already aged past the limit get no hook call: the next pass's
            // re-screen drops them before the filter ever sees them. The
            // context is rebuilt because the round and global model moved.
            let sink_ref = self.sink.as_ref().map(|s| s.as_dyn());
            let mut ctx = FilterContext::new(self.round, &self.global, self.staleness_limit);
            if let Some(t) = &self.trusted_delta {
                ctx = ctx.with_trusted_delta(t);
            }
            if let Some(s) = sink_ref {
                ctx = ctx.with_sink(s);
            }
            for u in &mut deferred {
                u.staleness = self.round.saturating_sub(u.base_round);
                if u.staleness <= self.staleness_limit {
                    self.filter.on_buffered(u, &ctx);
                }
            }
        }
        self.buffer.extend(deferred);
        self.emit(Event::GaugeSample {
            name: "deferred_queue_depth",
            value: self.buffer.len() as u64,
        });
        self.emit(Event::AggregationCompleted {
            round: report.round_completed,
            accepted: report.accepted,
            rejected: report.rejected,
            deferred: report.deferred,
        });
        report
    }

    /// Emits one [`Event::FilterScore`] per update in the outcome, so trace
    /// verdict counts reconcile exactly with [`AggregationReport`] and
    /// [`DetectionStats`] for *every* filter — including passthrough and
    /// bypass paths, which carry a `NaN` score.
    ///
    /// Scores come from [`UpdateFilter::last_scores`], matched to updates by
    /// `(client, staleness)`. Client id alone is ambiguous: a client can
    /// appear twice in one buffer (a re-buffered deferred update plus a
    /// fresh one), and the outcome partitions are walked in
    /// accepted→rejected→deferred order, not score-record order, so a
    /// client-only FIFO could hand the fresh update's score to the deferred
    /// one (and vice versa). Staleness disambiguates those — the deferred
    /// update has aged at least one round past the fresh one. Records are
    /// still consumed front-to-back within a `(client, staleness)` key for
    /// the degenerate same-staleness case.
    fn emit_filter_scores(&self, outcome: &asyncfl_core::update::FilterOutcome) {
        let Some(sink) = &self.sink else {
            return;
        };
        use asyncfl_telemetry::Sink;
        let mut by_update: BTreeMap<(usize, u64), VecDeque<(u64, f64)>> = BTreeMap::new();
        for rec in self.filter.last_scores() {
            by_update
                .entry((rec.client, rec.staleness))
                .or_default()
                .push_back((rec.group, rec.score));
        }
        let partitions = [
            (&outcome.accepted, Verdict::Accepted),
            (&outcome.rejected, Verdict::Rejected),
            (&outcome.deferred, Verdict::Deferred),
        ];
        for (updates, verdict) in partitions {
            for u in updates {
                let (staleness_group, score) = by_update
                    .get_mut(&(u.client, u.staleness))
                    .and_then(VecDeque::pop_front)
                    .unwrap_or((u.staleness, f64::NAN));
                sink.emit(&Event::FilterScore {
                    client: u.client,
                    staleness_group,
                    score,
                    verdict,
                });
            }
        }
    }
}

impl std::fmt::Debug for BufferedServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BufferedServer")
            .field("round", &self.round)
            .field("buffered", &self.buffer.len())
            .field("filter", &self.filter.name())
            .field("aggregator", &self.aggregator.name())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asyncfl_core::aggregation::MeanAggregator;
    use asyncfl_core::update::PassthroughFilter;
    use asyncfl_core::AsyncFilter;

    fn server(bound: usize, limit: u64) -> BufferedServer {
        BufferedServer::new(
            Vector::zeros(2),
            bound,
            limit,
            Box::new(PassthroughFilter),
            Box::new(MeanAggregator::new()),
        )
    }

    fn upd(client: usize, base_round: u64, delta: &[f64]) -> ClientUpdate {
        let base = Vector::zeros(delta.len());
        ClientUpdate::from_delta(client, base_round, 0, &base, Vector::from(delta), 10)
    }

    #[test]
    fn aggregates_exactly_at_bound() {
        let mut s = server(3, 20);
        assert!(s.receive(upd(0, 0, &[3.0, 0.0])).is_none());
        assert!(s.receive(upd(1, 0, &[0.0, 3.0])).is_none());
        let report = s
            .receive(upd(2, 0, &[3.0, 3.0]))
            .expect("third update triggers");
        assert_eq!(report.round_completed, 0);
        assert_eq!(report.accepted, 3);
        assert_eq!(s.round(), 1);
        assert_eq!(s.buffer_len(), 0);
        // Mean delta applied: (3+0+3)/3 = 2, (0+3+3)/3 = 2.
        assert_eq!(s.global().as_slice(), &[2.0, 2.0]);
        assert_eq!(s.received(), 3);
    }

    #[test]
    fn stale_reports_discarded_on_receipt() {
        let mut s = server(2, 1);
        // Advance to round 3 quickly.
        for r in 0..3 {
            s.receive(upd(0, r, &[0.0, 0.0]));
            s.receive(upd(1, r, &[0.0, 0.0]));
        }
        assert_eq!(s.round(), 3);
        // A report based on round 0 has staleness 3 > limit 1.
        assert!(s.receive(upd(2, 0, &[1.0, 1.0])).is_none());
        assert_eq!(s.discarded_stale(), 1);
        assert_eq!(s.buffer_len(), 0);
    }

    #[test]
    fn wrong_dimension_reports_are_discarded_not_fatal() {
        use asyncfl_telemetry::{MemorySink, MetricsRegistry, SharedSink, Sink};
        use std::sync::Arc;

        let mem = Arc::new(MemorySink::new(1024));
        let mut s = BufferedServer::new(
            Vector::zeros(8),
            4,
            20,
            Box::new(AsyncFilter::default()),
            Box::new(MeanAggregator::new()),
        )
        .with_sink(SharedSink::from_arc(mem.clone()));
        for i in 0..3 {
            assert!(s.receive(upd(i, 0, &[0.1 * i as f64; 8])).is_none());
        }
        // The fourth report would fill the buffer; one coordinate short,
        // it must not reach the filter pass, which panics on it.
        assert!(s.receive(upd(3, 0, &[0.5; 7])).is_none());
        assert!(s.receive(upd(4, 0, &[0.5; 9])).is_none());
        assert_eq!(s.discarded_malformed(), 2);
        assert_eq!(s.buffer_len(), 3);
        let report = s.receive(upd(5, 0, &[0.3; 8])).expect("bound reached");
        assert_eq!(report.accepted + report.rejected + report.deferred, 4);
        assert_eq!(s.global().len(), 8);
        assert_eq!(s.received(), 6);

        let registry = MetricsRegistry::new();
        for event in &mem.events() {
            registry.emit(event);
        }
        assert_eq!(registry.counter("updates_discarded_malformed"), 2);
        assert_eq!(mem.count_kind("update_received"), 6);
    }

    #[test]
    fn staleness_recomputed_against_current_round() {
        let mut s = server(2, 20);
        for r in 0..2 {
            s.receive(upd(0, r, &[0.0, 0.0]));
            s.receive(upd(1, r, &[0.0, 0.0]));
        }
        assert_eq!(s.round(), 2);
        s.receive(upd(2, 1, &[0.0, 0.0]));
        assert_eq!(*s.staleness_histogram().get(&1).unwrap(), 1);
    }

    #[test]
    fn deferred_updates_rebuffered() {
        // AsyncFilter with default Defer policy: craft a middle tier.
        let mut s = BufferedServer::new(
            Vector::zeros(1),
            9,
            20,
            Box::new(AsyncFilter::default()),
            Box::new(MeanAggregator::new()),
        );
        for i in 0..6 {
            s.receive(upd(i, 0, &[1.0 + 0.01 * i as f64]));
        }
        s.receive(upd(6, 0, &[3.0]));
        s.receive(upd(7, 0, &[3.1]));
        let report = s.receive(upd(8, 0, &[8.0])).expect("bound reached");
        assert!(report.deferred > 0, "{report:?}");
        assert_eq!(s.buffer_len(), report.deferred);
        assert_eq!(s.round(), 1);
    }

    #[test]
    fn empty_aggregation_leaves_global_unchanged() {
        let mut s = server(5, 20);
        let report = s.aggregate_now();
        assert_eq!(report.accepted, 0);
        assert_eq!(s.global().as_slice(), &[0.0, 0.0]);
        assert_eq!(s.round(), 1);
    }

    #[test]
    fn detection_stats_flow_through() {
        let mut s = BufferedServer::new(
            Vector::zeros(1),
            10,
            20,
            Box::new(AsyncFilter::default()),
            Box::new(MeanAggregator::new()),
        );
        for i in 0..9 {
            s.receive(upd(i, 0, &[1.0 + 0.001 * i as f64]));
        }
        let poisoned = upd(9, 0, &[500.0]).with_truth_malicious(true);
        s.receive(poisoned).expect("bound reached");
        let d = s.detection();
        assert_eq!(d.true_positives, 1);
        assert_eq!(d.false_positives, 0);
    }

    #[test]
    fn debug_format_mentions_filter() {
        let s = server(3, 20);
        let dbg = format!("{s:?}");
        assert!(dbg.contains("FedBuff"));
        assert!(dbg.contains("mean"));
        assert_eq!(s.filter_name(), "FedBuff");
    }

    #[test]
    #[should_panic(expected = "aggregation_bound")]
    fn zero_bound_panics() {
        let _ = server(0, 20);
    }

    /// Defers everything on its first call, accepts everything afterwards —
    /// a deterministic forced-defer round for bookkeeping tests.
    #[derive(Default)]
    struct DeferOnce {
        calls: usize,
    }

    impl asyncfl_core::update::UpdateFilter for DeferOnce {
        fn name(&self) -> &'static str {
            "defer-once"
        }

        fn filter(
            &mut self,
            updates: Vec<ClientUpdate>,
            _ctx: &asyncfl_core::update::FilterContext<'_>,
        ) -> asyncfl_core::update::FilterOutcome {
            self.calls += 1;
            if self.calls == 1 {
                asyncfl_core::update::FilterOutcome {
                    deferred: updates,
                    ..Default::default()
                }
            } else {
                asyncfl_core::update::FilterOutcome::accept_all(updates)
            }
        }
    }

    #[test]
    fn deferred_updates_counted_once_in_detection() {
        let mut s = BufferedServer::new(
            Vector::zeros(1),
            2,
            20,
            Box::new(DeferOnce::default()),
            Box::new(MeanAggregator::new()),
        );
        s.receive(upd(0, 0, &[1.0]));
        let report = s
            .receive(upd(1, 0, &[1.0]).with_truth_malicious(true))
            .expect("bound reached");
        assert_eq!(report.deferred, 2);
        // A deferral is not a verdict: the confusion matrix stays empty.
        assert_eq!(s.detection().total(), 0);
        // The next pass accepts both; each update is counted exactly once.
        let report = s.aggregate_now();
        assert_eq!(report.accepted, 2);
        let d = s.detection();
        assert_eq!(d.total(), 2);
        assert_eq!(d.false_negatives, 1);
        assert_eq!(d.true_negatives, 1);
    }

    /// Scores every update, rejecting stale ones and accepting fresh ones —
    /// used to pin score/verdict pairing when one client holds two buffered
    /// updates (a re-buffered deferred one plus a fresh one).
    #[derive(Default)]
    struct SplitByStaleness {
        scores: Vec<asyncfl_core::update::ScoreRecord>,
    }

    impl asyncfl_core::update::UpdateFilter for SplitByStaleness {
        fn name(&self) -> &'static str {
            "split-by-staleness"
        }

        fn filter(
            &mut self,
            updates: Vec<ClientUpdate>,
            _ctx: &asyncfl_core::update::FilterContext<'_>,
        ) -> asyncfl_core::update::FilterOutcome {
            self.scores.clear();
            let mut out = asyncfl_core::update::FilterOutcome::default();
            for u in updates {
                let score = if u.staleness > 0 { 9.0 } else { 0.1 };
                self.scores.push(asyncfl_core::update::ScoreRecord {
                    client: u.client,
                    staleness: u.staleness,
                    group: u.staleness,
                    score,
                    truth_malicious: u.truth_malicious,
                });
                if u.staleness > 0 {
                    out.rejected.push(u);
                } else {
                    out.accepted.push(u);
                }
            }
            out
        }

        fn last_scores(&self) -> &[asyncfl_core::update::ScoreRecord] {
            &self.scores
        }
    }

    #[test]
    fn filter_scores_pair_by_client_and_staleness() {
        use asyncfl_telemetry::{Event, MemorySink, SharedSink, Verdict};
        use std::sync::Arc;

        let mem = Arc::new(MemorySink::new(256));
        let mut s = BufferedServer::new(
            Vector::zeros(1),
            2,
            20,
            Box::new(SplitByStaleness::default()),
            Box::new(MeanAggregator::new()),
        )
        .with_sink(SharedSink::from_arc(mem.clone()));

        // Advance one round with other clients so staleness can be nonzero.
        s.receive(upd(1, 0, &[0.0]));
        s.receive(upd(2, 0, &[0.0])).expect("round 0 aggregates");

        // Client 0 now contributes a stale update (buffered first, scored
        // first) and a fresh one. The filter accepts the fresh update and
        // rejects the stale one, so the accepted→rejected partition walk
        // visits them in the *opposite* of score-record order — pairing by
        // client alone would hand the stale score to the fresh update.
        s.receive(upd(0, 0, &[1.0]));
        s.receive(upd(0, 1, &[1.0])).expect("round 1 aggregates");

        let pairs: Vec<(u64, f64, Verdict)> = mem
            .events()
            .iter()
            .filter_map(|e| match e {
                Event::FilterScore {
                    client: 0,
                    staleness_group,
                    score,
                    verdict,
                } => Some((*staleness_group, *score, *verdict)),
                _ => None,
            })
            .collect();
        assert_eq!(pairs.len(), 2, "{pairs:?}");
        assert!(pairs.contains(&(0, 0.1, Verdict::Accepted)), "{pairs:?}");
        assert!(pairs.contains(&(1, 9.0, Verdict::Rejected)), "{pairs:?}");
    }

    #[test]
    fn telemetry_events_reconcile_with_counters() {
        use asyncfl_telemetry::{Event, MemorySink, SharedSink, Verdict};
        use std::sync::Arc;

        let mem = Arc::new(MemorySink::new(1024));
        let mut s = BufferedServer::new(
            Vector::zeros(1),
            10,
            1,
            Box::new(AsyncFilter::default()),
            Box::new(MeanAggregator::new()),
        )
        .with_sink(SharedSink::from_arc(mem.clone()));

        for i in 0..9 {
            s.receive(upd(i, 0, &[1.0 + 0.001 * i as f64]));
        }
        let report = s
            .receive(upd(9, 0, &[500.0]).with_truth_malicious(true))
            .expect("bound reached");
        // Two more buffered (but not aggregated) reports still count.
        assert!(s.receive(upd(0, 1, &[0.0])).is_none());
        s.receive(upd(1, 1, &[0.0]));

        assert_eq!(
            mem.count_kind("update_received") as u64,
            s.received(),
            "every receive() call must emit update_received"
        );
        let scores: Vec<Verdict> = mem
            .events()
            .iter()
            .filter_map(|e| match e {
                Event::FilterScore { verdict, .. } => Some(*verdict),
                _ => None,
            })
            .collect();
        let accepted = scores.iter().filter(|v| **v == Verdict::Accepted).count();
        let rejected = scores.iter().filter(|v| **v == Verdict::Rejected).count();
        let deferred = scores.iter().filter(|v| **v == Verdict::Deferred).count();
        assert_eq!(accepted, report.accepted);
        assert_eq!(rejected, report.rejected);
        assert_eq!(deferred, report.deferred);
        assert_eq!(mem.count_kind("aggregation_completed"), 1);
        // AsyncFilter scored a full buffer, so no NaN fallbacks here: the
        // rejected outlier carries a real (high) score.
        assert!(mem.events().iter().any(|e| matches!(
            e,
            Event::FilterScore {
                verdict: Verdict::Rejected,
                score,
                ..
            } if score.is_finite() && *score > 0.0
        )));
        assert_eq!(
            mem.count_kind("span_closed"),
            3,
            "filter + kmeans + aggregate"
        );
    }

    #[test]
    fn gauges_and_counters_track_buffer_churn() {
        use asyncfl_telemetry::{Event, MemorySink, MetricsRegistry, SharedSink, Sink};
        use std::sync::Arc;

        let mem = Arc::new(MemorySink::new(1024));
        let mut s = BufferedServer::new(
            Vector::zeros(1),
            2,
            20,
            Box::new(DeferOnce::default()),
            Box::new(MeanAggregator::new()),
        )
        .with_sink(SharedSink::from_arc(mem.clone()));

        s.receive(upd(0, 0, &[1.0]));
        let report = s.receive(upd(1, 0, &[1.0])).expect("bound reached");
        assert_eq!(report.deferred, 2);

        // Fold into a registry and check the gauge/counter views.
        let reg = MetricsRegistry::new();
        for e in mem.events() {
            reg.emit(&e);
        }
        // Buffer held 2 updates at aggregation time.
        assert_eq!(reg.gauge_last("buffer_occupancy"), Some(2));
        // Both updates were re-buffered: counter bumped, depth gauge = 2.
        assert_eq!(reg.counter("deferred_requeued"), 2);
        assert_eq!(reg.gauge_last("deferred_queue_depth"), Some(2));

        // Second aggregation accepts both: depth returns to 0 and the
        // requeue counter stays put.
        s.aggregate_now();
        let reg = MetricsRegistry::new();
        for e in mem.events() {
            reg.emit(&e);
        }
        assert_eq!(reg.counter("deferred_requeued"), 2);
        assert_eq!(reg.gauge_last("deferred_queue_depth"), Some(0));
        let occ = reg.gauge("buffer_occupancy").expect("sampled each round");
        assert_eq!(occ.count(), 2);

        // Unsinked servers emit nothing and pay nothing.
        let mut silent = BufferedServer::new(
            Vector::zeros(1),
            2,
            20,
            Box::new(PassthroughFilter),
            Box::new(MeanAggregator::new()),
        );
        silent.receive(upd(0, 0, &[1.0]));
        silent.receive(upd(1, 0, &[1.0])).expect("bound reached");
        assert!(matches!(
            mem.events().first(),
            Some(Event::UpdateReceived { .. })
        ));
    }

    /// Satellite regression for the incremental filter engine: once the
    /// group estimates are warm and every buffered update was announced
    /// through the arrival hook, the aggregation triggered by one new
    /// arrival performs O(groups + 1) eq. 6 distance computations — one
    /// at the triggering arrival, none inside the pass — not the
    /// O(groups × Ω) a batch rebuild would cost.
    #[test]
    fn warm_aggregation_costs_marginal_distances_only() {
        use asyncfl_telemetry::{MemorySink, MetricsRegistry, SharedSink, Sink};
        use std::sync::Arc;

        let mem = Arc::new(MemorySink::new(4096));
        let bound = 8usize;
        // Middle-cluster deferral off so each pass drains the buffer fully
        // and the fill arithmetic below stays exact.
        let filter = AsyncFilter::new(asyncfl_core::AsyncFilterConfig {
            middle_policy: asyncfl_core::asyncfilter::MiddlePolicy::Accept,
            ..Default::default()
        });
        let mut s = BufferedServer::new(
            Vector::zeros(2),
            bound,
            20,
            Box::new(filter),
            Box::new(MeanAggregator::new()),
        )
        .with_sink(SharedSink::from_arc(mem.clone()));

        let distance_count = |mem: &MemorySink| {
            let reg = MetricsRegistry::new();
            for e in mem.events() {
                reg.emit(&e);
            }
            reg.counter("filter_distances_computed")
        };

        // Round 0 warms the staleness-0 group estimate (its distances are
        // bootstrap work, all pass-time).
        for i in 0..bound {
            s.receive(upd(i, 0, &[1.0 + 0.01 * i as f64, 1.0]));
        }
        // Fill the next buffer to one short of the bound; each arrival
        // costs exactly one distance, counted as it happens.
        for i in 0..bound - 1 {
            s.receive(upd(i, 1, &[1.0 + 0.01 * i as f64, 1.0]));
        }
        let before = distance_count(&mem);
        let groups = 1u64; // every arrival sits in the staleness-0 bucket
        let report = s
            .receive(upd(bound - 1, 1, &[1.05, 1.0]))
            .expect("bound reached");
        assert_eq!(report.accepted + report.rejected + report.deferred, bound);
        let marginal = distance_count(&mem) - before;
        assert!(
            marginal <= groups + 1,
            "one-arrival aggregation cost {marginal} distance computations \
             (expected <= groups + 1 = {})",
            groups + 1
        );
        // Sanity: the cold first pass did pay O(Ω) — the counter is live.
        assert!(before >= bound as u64);
    }

    #[test]
    fn stale_discards_emit_events_on_both_paths() {
        use asyncfl_telemetry::{MemorySink, SharedSink};
        use std::sync::Arc;

        // Receive-time discard: staleness 1 > limit 0 after one round.
        let mem = Arc::new(MemorySink::new(256));
        let mut s = server(2, 0);
        s.set_sink(Some(SharedSink::from_arc(mem.clone())));
        s.receive(upd(0, 0, &[1.0, 0.0]));
        s.receive(upd(1, 0, &[1.0, 0.0])); // triggers round 0 -> 1
        assert!(s.receive(upd(2, 0, &[1.0, 0.0])).is_none());
        assert_eq!(mem.count_kind("update_discarded_stale"), 1);

        // Aggregate-time discard: AsyncFilter defers the middle tier; the
        // deferred updates (base round 0) age past limit 0 once the round
        // advances and are discarded by the re-screen in aggregate_now.
        let mem = Arc::new(MemorySink::new(256));
        let mut s = BufferedServer::new(
            Vector::zeros(1),
            9,
            0,
            Box::new(AsyncFilter::default()),
            Box::new(MeanAggregator::new()),
        )
        .with_sink(SharedSink::from_arc(mem.clone()));
        for i in 0..6 {
            s.receive(upd(i, 0, &[1.0 + 0.01 * i as f64]));
        }
        s.receive(upd(6, 0, &[3.0]));
        s.receive(upd(7, 0, &[3.1]));
        let report = s.receive(upd(8, 0, &[8.0])).expect("bound reached");
        assert!(report.deferred > 0, "{report:?}");
        assert_eq!(mem.count_kind("update_discarded_stale"), 0);
        s.aggregate_now();
        assert_eq!(mem.count_kind("update_discarded_stale"), report.deferred);
        assert_eq!(s.buffer_len(), 0);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Under any stream of reports: the round counter only moves
            /// forward, the buffer stays strictly below the bound between
            /// calls, staleness-histogram keys respect the limit, and the
            /// receive/discard accounting balances.
            #[test]
            fn prop_server_invariants(
                reports in proptest::collection::vec((0usize..8, 0u64..6, -5.0..5.0f64), 1..60),
                bound in 2usize..6,
                limit in 0u64..4,
            ) {
                let mut s = server(bound, limit);
                let mut last_round = 0;
                for (client, base_lag, value) in reports {
                    // base_round at most the current round (clients cannot
                    // train on future models).
                    let base_round = s.round().saturating_sub(base_lag);
                    let _ = s.receive(upd(client, base_round, &[value, -value]));
                    prop_assert!(s.round() >= last_round);
                    last_round = s.round();
                    prop_assert!(s.buffer_len() < bound);
                    prop_assert!(s.staleness_histogram().keys().all(|&t| t <= limit));
                }
                let buffered: u64 = s.staleness_histogram().values().sum();
                prop_assert!(buffered + s.discarded_stale() >= s.received()
                    || buffered <= s.received());
                prop_assert!(s.global().is_finite());
            }

            /// Aggregating with finite inputs keeps the global model finite.
            #[test]
            fn prop_global_stays_finite(
                deltas in proptest::collection::vec(-100.0..100.0f64, 4..20),
            ) {
                let mut s = server(2, 20);
                for (i, &d) in deltas.iter().enumerate() {
                    let _ = s.receive(upd(i, s.round(), &[d, d * 0.5]));
                }
                prop_assert!(s.global().is_finite());
            }
        }
    }
}
