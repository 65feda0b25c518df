//! The buffered asynchronous server (FedBuff, Nguyen et al. 2022).
//!
//! The server "introduces a buffer to store local updates and only
//! aggregates when the buffer size reaches a certain aggregation goal"
//! (§2.1). On each aggregation it invokes the pluggable
//! [`UpdateFilter`] (Fig. 5's AsyncFilter slot), aggregates the accepted
//! updates with its [`Aggregator`], advances the round counter, and
//! re-buffers whatever the filter deferred.
//!
//! The server is the source of truth for every reported model ω. A client
//! sends δ and the round it trained from; the server keeps the global
//! models of the last `staleness_limit + 1` rounds (the only rounds a
//! report it admits can name) and resolves `ω = ω_base + δ` against its
//! own record at receipt, never against a base the client supplies
//! (DESIGN.md §13).

use asyncfl_core::aggregation::Aggregator;
use asyncfl_core::update::{
    model_fingerprint, ClientUpdate, FilterContext, FilterOutcome, UpdateFilter,
};
use asyncfl_telemetry::{Event, MalformedReason, SharedSink, Span, Verdict};
use asyncfl_tensor::Vector;
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

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

/// The server's record of one round's global model.
struct RoundRecord {
    model: Arc<Vector>,
    /// The model's [`model_fingerprint`], in debug builds.
    fingerprint: Option<u64>,
    /// `‖model‖²`, computed by the first receipt that resolves a report
    /// against this round: receipt's admission bound needs it, and a
    /// round no report names costs no read of its model.
    norm_sq: Option<f64>,
}

impl RoundRecord {
    fn new(model: &Arc<Vector>) -> Self {
        Self {
            model: Arc::clone(model),
            fingerprint: cfg!(debug_assertions).then(|| model_fingerprint(model)),
            norm_sq: None,
        }
    }
}

/// A FedBuff-style buffered server with a pluggable defense filter.
pub struct BufferedServer {
    global: Arc<Vector>,
    /// The records of rounds `round + 1 − rounds.len() ..= round`, oldest
    /// first: at most `staleness_limit + 1` of them.
    rounds: VecDeque<RoundRecord>,
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
        let global = Arc::new(global);
        Self {
            rounds: VecDeque::from([RoundRecord::new(&global)]),
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

    /// The current global model as the shared reference the server keeps
    /// for this round: engines hand it to the clients they start, so one
    /// copy of each round's model serves every client and every update
    /// trained from it.
    pub fn global_arc(&self) -> Arc<Vector> {
        Arc::clone(&self.global)
    }

    /// The server's record of the global model of `round`: `Some` for the
    /// current round and the `staleness_limit` before it, the only rounds
    /// a report it admits can name.
    pub fn global_at(&self, round: u64) -> Option<&Arc<Vector>> {
        let index = self.record_index(round)?;
        self.rounds.get(index).map(|record| &record.model)
    }

    /// The index in `rounds` of `round`'s record, if it is still recorded.
    fn record_index(&self, round: u64) -> Option<usize> {
        let back = self.round.checked_sub(round)?;
        let index = (self.rounds.len() as u64).checked_sub(back.checked_add(1)?)?;
        usize::try_from(index).ok()
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

    /// Reports received so far: every `receive` call, malformed and stale
    /// reports included.
    pub fn received(&self) -> u64 {
        self.received
    }

    /// Reports discarded for excessive staleness.
    pub fn discarded_stale(&self) -> u64 {
        self.discarded_stale
    }

    /// Reports discarded as malformed at receipt: a `delta` dimension
    /// that differs from the global model's, a non-finite cached
    /// `‖delta‖²`, a base round later than the server's current round, or
    /// a non-finite `‖ω‖²` once ω is resolved against the server's record.
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
    /// Receipt runs these steps in order; a report leaves at the first it
    /// fails, because a Byzantine client may send anything:
    /// 1. **Dimension.** A `delta` whose dimension differs from the global
    ///    model's would panic the filter pass's vector kernels.
    /// 2. **`‖δ‖²`.** A non-finite cached `‖delta‖²` (`O(1)`) would turn
    ///    an undefended mean aggregate `NaN`.
    /// 3. **Future round.** A base round later than the current round
    ///    names a model the server never sent, and would otherwise score
    ///    as staleness 0.
    /// 4. **Staleness.** A report older than `staleness_limit` rounds is
    ///    discarded as stale, without resolving a base: its round is
    ///    beyond the server's record.
    /// 5. **`‖ω‖²`.** The report is resolved against the server's record
    ///    of its base round, `ω = ω_base + δ`, and a non-finite `‖ω‖²` is
    ///    discarded. `‖ω‖ ≤ ‖ω_base‖ + ‖δ‖`, so when `(‖ω_base‖ + ‖δ‖)²`
    ///    is below `f64::MAX / 4` the report is admitted on that bound
    ///    without reading ω ([`ClientUpdate::resolve`]); `‖ω_base‖²` is
    ///    computed once per round. Otherwise `‖ω‖²` is computed in one
    ///    read-only pass and decides. Either way the decision is the exact
    ///    norm's.
    ///
    /// Steps 1–3 and 5 are malformed reports: each emits one
    /// `UpdateDiscardedMalformed` naming the step and no `UpdateReceived`.
    /// A stale report emits `UpdateReceived`, then `UpdateDiscardedStale`.
    ///
    /// In a debug build, an update from [`ClientUpdate::from_delta`]
    /// carries a fingerprint of the base its caller passed; receipt
    /// asserts that it matches the server's record of that round.
    ///
    /// # Panics
    ///
    /// In a debug build, panics if that fingerprint differs from the
    /// record's.
    pub fn receive(&mut self, mut update: ClientUpdate) -> Option<AggregationReport> {
        self.received += 1;
        if let Some(reason) = self.malformed(&update) {
            return self.discard_malformed(&update, reason);
        }
        let staleness = self.round - update.base_round;
        update.staleness = staleness;
        if staleness <= self.staleness_limit {
            self.resolve(&mut update);
            if !update.params_norm_bound().is_finite() {
                return self.discard_malformed(&update, MalformedReason::NonFiniteNorm);
            }
        }
        self.emit(Event::UpdateReceived {
            client: update.client,
            round: self.round,
            staleness,
        });
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

    /// The first of receipt steps 1–3 `update` fails, if any.
    fn malformed(&self, update: &ClientUpdate) -> Option<MalformedReason> {
        if update.delta.len() != self.global.len() {
            Some(MalformedReason::Dimension)
        } else if !update.delta_norm_squared().is_finite() {
            Some(MalformedReason::NonFiniteNorm)
        } else if update.base_round > self.round {
            Some(MalformedReason::FutureRound)
        } else {
            None
        }
    }

    /// Counts and reports one malformed discard.
    fn discard_malformed(
        &mut self,
        update: &ClientUpdate,
        reason: MalformedReason,
    ) -> Option<AggregationReport> {
        self.discarded_malformed += 1;
        self.emit(Event::UpdateDiscardedMalformed {
            client: update.client,
            round: self.round,
            reason,
        });
        self.emit(Event::CounterAdd {
            name: "updates_discarded_malformed",
            delta: 1,
        });
        None
    }

    /// Attaches the server's record of `update.base_round` as its base
    /// (receipt step 5), with the record's `‖ω_base‖²`. The caller has
    /// checked that the round is within the record.
    #[expect(
        clippy::panic,
        reason = "receipt screens future and stale rounds first, so a miss is a server bug"
    )]
    fn resolve(&mut self, update: &mut ClientUpdate) {
        let record = self
            .record_index(update.base_round)
            .and_then(|index| self.rounds.get_mut(index));
        let Some(record) = record else {
            panic!(
                "no record of round {} at round {}",
                update.base_round, self.round
            );
        };
        debug_assert!(
            update.base_fingerprint().is_none() || update.base_fingerprint() == record.fingerprint,
            "client {}: the base passed to from_delta is not the server's model of round {}",
            update.client,
            update.base_round
        );
        let base_norm_sq = *record
            .norm_sq
            .get_or_insert_with(|| record.model.norm_squared());
        update.resolve(Arc::clone(&record.model), base_norm_sq);
    }

    /// Runs filter + aggregation over the current buffer, advancing the
    /// round. Called automatically by [`receive`](Self::receive); exposed
    /// for tests and for end-of-run flushes.
    pub fn aggregate_now(&mut self) -> AggregationReport {
        // Refresh staleness (deferred updates have aged) and screen again.
        let sink = self.sink.clone();
        let capacity = self.buffer.capacity();
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
        let FilterOutcome {
            accepted,
            rejected,
            deferred,
        } = outcome;

        let report = AggregationReport {
            round_completed: self.round,
            accepted: accepted.len(),
            rejected: rejected.len(),
            deferred: deferred.len(),
        };
        self.global = Arc::new({
            let _span = Span::start(self.sink.as_ref().map(|s| s.as_dyn()), "aggregate");
            self.aggregator.aggregate(&accepted, &self.global)
        });
        self.round += 1;
        self.rounds.push_back(RoundRecord::new(&self.global));
        while self.rounds.len() as u64 > self.staleness_limit.saturating_add(1) {
            self.rounds.pop_front();
        }
        // Deferred updates contribute "at a later stage".
        if !deferred.is_empty() {
            self.emit(Event::CounterAdd {
                name: "deferred_requeued",
                delta: deferred.len() as u64,
            });
        }
        // The buffer gets its capacity back, so the receipts before the
        // next pass allocate nothing. It is reserved only once the pass's
        // updates are freed, so one Ω-sized list is live at a time.
        drop((accepted, rejected));
        self.buffer.reserve_exact(capacity);
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
    fn emit_filter_scores(&self, outcome: &FilterOutcome) {
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

    /// [`upd`] against `s`'s model of `base_round`, as an engine sends it;
    /// a zero base where `s` has no record of that round at `delta`'s
    /// dimension.
    fn upd_on(s: &BufferedServer, client: usize, base_round: u64, delta: &[f64]) -> ClientUpdate {
        match s.global_at(base_round).filter(|b| b.len() == delta.len()) {
            Some(base) => {
                ClientUpdate::from_delta(client, base_round, 0, base, Vector::from(delta), 10)
            }
            None => upd(client, base_round, delta),
        }
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
        assert_eq!(mem.count_kind("update_discarded_malformed"), 2);
        assert_eq!(mem.count_kind("update_received"), 4);
    }

    #[test]
    fn forged_report_is_one_malformed_event_and_no_arrival() {
        use asyncfl_telemetry::{Event, MalformedReason, MemorySink, SharedSink};
        use std::sync::Arc;

        let mem = Arc::new(MemorySink::new(256));
        let mut s = server(2, 20).with_sink(SharedSink::from_arc(mem.clone()));
        s.receive(upd(0, 0, &[0.0, 0.0]));
        s.receive(upd(1, 0, &[0.0, 0.0]))
            .expect("round 0 aggregates");
        // The events one report adds to the trace.
        let mut trace_of = |report: ClientUpdate| {
            let before = mem.events().len();
            s.receive(report);
            mem.events().split_off(before)
        };

        // Base round 2 names a model the server has not built yet.
        let forged = trace_of(upd(7, 2, &[5.0, 5.0]));
        let discarded = Event::UpdateDiscardedMalformed {
            client: 7,
            round: 1,
            reason: MalformedReason::FutureRound,
        };
        assert_eq!(
            forged
                .iter()
                .filter(|e| e.kind() != "counter_add")
                .collect::<Vec<_>>(),
            [&discarded],
            "one discard event and no update_received: {forged:?}"
        );

        // Each receipt check names itself, the dimension check first.
        for (report, reason) in [
            (upd(8, 9, &[1.0; 3]), MalformedReason::Dimension),
            (upd(8, 9, &[f64::NAN, 0.0]), MalformedReason::NonFiniteNorm),
        ] {
            let events = trace_of(report);
            assert!(
                events.iter().any(|e| matches!(
                    e,
                    Event::UpdateDiscardedMalformed { reason: r, .. } if *r == reason
                )),
                "{reason:?}: {events:?}"
            );
            assert!(events.iter().all(|e| e.kind() != "update_received"));
        }
    }

    #[test]
    fn future_base_round_is_discarded_not_fresh() {
        let mut s = server(2, 20);
        s.receive(upd(0, 0, &[0.0, 0.0]));
        s.receive(upd(1, 0, &[0.0, 0.0]))
            .expect("round 0 aggregates");
        assert_eq!(s.round(), 1);
        // Base round 2 names a model the server has not built yet.
        assert!(s.receive(upd(2, 2, &[5.0, 5.0])).is_none());
        assert_eq!(s.discarded_malformed(), 1);
        assert_eq!(s.buffer_len(), 0);
        assert_eq!(s.staleness_histogram().get(&0), Some(&2));
        // The current round is still admitted, at staleness 0.
        assert!(s.receive(upd(3, 1, &[1.0, 1.0])).is_none());
        assert_eq!(s.buffer_len(), 1);
        assert_eq!(s.staleness_histogram().get(&0), Some(&3));
        assert_eq!(s.received(), 4);
    }

    #[test]
    fn nonfinite_reports_are_discarded_before_the_mean() {
        // FedBuff has no defense, so only the receipt check stands between
        // a NaN delta and the mean aggregate.
        let mut s = server(2, 20);
        s.receive(upd(0, 0, &[1.0, f64::NAN]));
        s.receive(upd(1, 0, &[f64::INFINITY, 0.0]));
        // Finite coordinates whose squares overflow the cached norm.
        s.receive(upd(2, 0, &[1e308, 1e308]));
        s.receive(upd(3, 0, &[2.0, 0.0]));
        s.receive(upd(4, 0, &[0.0, 2.0]));
        assert!(s.global().is_finite(), "global model {:?}", s.global());
        assert_eq!(s.discarded_malformed(), 3);
        assert_eq!(s.round(), 1);
        assert_eq!(s.global().as_slice(), &[1.0, 1.0]);
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
        assert!(s.receive(upd_on(&s, 0, 1, &[0.0])).is_none());
        s.receive(upd_on(&s, 1, 1, &[0.0]));

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
            5,
            "filter + bootstrap + kmeans + absorb + aggregate"
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

    /// Each update a pass saw: its client, base and ω.
    type SeenPass = Vec<(usize, Arc<Vector>, Vector)>;

    /// Defers client 0's update in the first pass and accepts the rest,
    /// recording what each pass saw.
    #[derive(Default)]
    struct DeferClientZeroOnce {
        passes: Arc<std::sync::Mutex<Vec<SeenPass>>>,
    }

    impl asyncfl_core::update::UpdateFilter for DeferClientZeroOnce {
        fn name(&self) -> &'static str {
            "defer-client-zero-once"
        }

        fn filter(
            &mut self,
            updates: Vec<ClientUpdate>,
            _ctx: &asyncfl_core::update::FilterContext<'_>,
        ) -> asyncfl_core::update::FilterOutcome {
            let mut passes = self.passes.lock().unwrap();
            let first = passes.is_empty();
            passes.push(
                updates
                    .iter()
                    .map(|u| (u.client, Arc::clone(u.base().unwrap()), u.params().unwrap()))
                    .collect(),
            );
            let mut out = asyncfl_core::update::FilterOutcome::default();
            for u in updates {
                if first && u.client == 0 {
                    out.deferred.push(u);
                } else {
                    out.accepted.push(u);
                }
            }
            out
        }
    }

    /// Every report reads ω against the model of its own base round: a
    /// stale one received a round later, and a deferred one filtered
    /// again a pass later, both against round 0's model, not the model
    /// current at receipt or at the second pass.
    #[test]
    fn updates_keep_their_base_rounds_model_across_rounds_and_passes() {
        let filter = DeferClientZeroOnce::default();
        let passes = Arc::clone(&filter.passes);
        let mut s = BufferedServer::new(
            Vector::from(vec![1.0, 2.0]),
            2,
            20,
            Box::new(filter),
            Box::new(MeanAggregator::new()),
        );
        let round0 = s.global_arc();
        let on = |s: &BufferedServer, client, round, delta: &[f64]| {
            let base = s.global_at(round).expect("recorded");
            ClientUpdate::from_delta(client, round, 0, base, Vector::from(delta), 10)
        };
        assert!(s.receive(on(&s, 0, 0, &[0.5, 0.5])).is_none());
        s.receive(on(&s, 1, 0, &[4.0, 4.0]))
            .expect("round 0 aggregates");
        assert_eq!(s.global().as_slice(), &[5.0, 6.0]);
        let report = s
            .receive(on(&s, 2, 0, &[1.0, 0.0]))
            .expect("round 1 aggregates");
        assert_eq!(report.accepted, 2);
        let passes = passes.lock().unwrap();
        let seen: Vec<(usize, bool, &[f64])> = passes[1]
            .iter()
            .map(|(client, base, omega)| (*client, Arc::ptr_eq(base, &round0), omega.as_slice()))
            .collect();
        assert_eq!(
            seen,
            [(0, true, &[1.5, 2.5][..]), (2, true, &[2.0, 2.0][..])],
            "a report was resolved against a model other than its round's"
        );
    }

    /// The engines hand out the server's per-round reference, and the
    /// record keeps exactly the rounds a report can still name.
    #[test]
    fn round_record_spans_the_staleness_limit() {
        let mut s = server(1, 2);
        let mut arcs = vec![s.global_arc()];
        for r in 0..5u64 {
            let base = s.global_at(r).expect("current round").clone();
            s.receive(ClientUpdate::from_delta(
                0,
                r,
                0,
                &base,
                Vector::from(vec![1.0, 0.0]),
                1,
            ))
            .expect("bound 1 aggregates every report");
            arcs.push(s.global_arc());
        }
        assert_eq!(s.round(), 5);
        assert!(Arc::ptr_eq(&s.global_arc(), &arcs[5]));
        for r in 3..=5 {
            assert!(Arc::ptr_eq(
                s.global_at(r).expect("recorded"),
                &arcs[r as usize]
            ));
        }
        assert!(s.global_at(2).is_none(), "beyond the limit");
        assert!(s.global_at(6).is_none(), "a future round");
    }

    /// One hostile report per receipt step, each leaving at its own step:
    /// dimension, then `‖δ‖²`, then a future round, then staleness
    /// (without resolving: a stale report whose ω would overflow is
    /// stale, not malformed), then `‖ω‖²` once resolved.
    #[test]
    fn receipt_steps_discard_in_order() {
        use asyncfl_telemetry::{Event, MalformedReason, MemorySink, SharedSink};

        let mem = Arc::new(MemorySink::new(256));
        // ‖δ‖² = 1e308 is finite; ω = 2e154 at the first coordinate has
        // ‖ω‖² = 4e308, which overflows.
        let big = 1e154;
        let mut s = BufferedServer::new(
            Vector::from(vec![big, 0.0]),
            1,
            1,
            Box::new(PassthroughFilter),
            Box::new(asyncfl_core::aggregation::TrimmedMeanAggregator::new(0.0)),
        )
        .with_sink(SharedSink::from_arc(mem.clone()));
        let send = |s: &mut BufferedServer, round: u64, delta: &[f64]| {
            let base = Vector::from(vec![big, 0.0]);
            let base = if delta.len() == 2 {
                base
            } else {
                Vector::zeros(delta.len())
            };
            let before = mem.events().len();
            s.receive(ClientUpdate::from_delta(
                1,
                round,
                0,
                &base,
                Vector::from(delta),
                1,
            ));
            let events = mem.events().split_off(before);
            events
                .into_iter()
                .filter(|e| e.kind() != "counter_add")
                .collect::<Vec<_>>()
        };
        let malformed = |reason| {
            vec![Event::UpdateDiscardedMalformed {
                client: 1,
                round: 0,
                reason,
            }]
        };
        // Each report also fails every later step.
        assert_eq!(
            send(&mut s, 9, &[f64::NAN; 3]),
            malformed(MalformedReason::Dimension)
        );
        assert_eq!(
            send(&mut s, 9, &[f64::NAN, 0.0]),
            malformed(MalformedReason::NonFiniteNorm)
        );
        assert_eq!(
            send(&mut s, 9, &[big, 0.0]),
            malformed(MalformedReason::FutureRound)
        );
        assert_eq!(
            send(&mut s, 0, &[big, 0.0]),
            malformed(MalformedReason::NonFiniteNorm)
        );
        assert_eq!(s.discarded_malformed(), 4);
        // Two rounds on, round 0 is beyond the record (limit 1).
        for r in 0..2 {
            let base = s.global_at(r).expect("current").clone();
            s.receive(ClientUpdate::from_delta(
                2,
                r,
                0,
                &base,
                Vector::zeros(2),
                1,
            ))
            .expect("bound 1");
        }
        assert!(s.global_at(0).is_none());
        let stale = send(&mut s, 0, &[big, 0.0]);
        assert_eq!(stale.len(), 2, "{stale:?}");
        assert_eq!(stale[1].kind(), "update_discarded_stale");
        assert_eq!((s.discarded_stale(), s.discarded_malformed()), (1, 4));
    }

    /// A report whose `(‖b‖ + ‖δ‖)²` overflows decides on its exact
    /// `‖ω‖²`: with `b ≈ −δ` at 1e154 the norm is small and the report is
    /// admitted, as a receipt that swept ω always did; with `δ = b` the
    /// norm overflows and the report is discarded.
    #[test]
    fn receipt_admits_an_inconclusive_bound_on_the_exact_norm() {
        use asyncfl_telemetry::{Event, MalformedReason, MemorySink, SharedSink};

        let mem = Arc::new(MemorySink::new(64));
        let global = Vector::from(vec![1e154, 0.0]);
        let mut s = BufferedServer::new(
            global.clone(),
            8,
            1,
            Box::new(PassthroughFilter),
            Box::new(MeanAggregator::new()),
        )
        .with_sink(SharedSink::from_arc(mem.clone()));
        let near = ClientUpdate::from_delta(0, 0, 0, &global, Vector::from(vec![-1e154, 3.0]), 1);
        assert!(near.delta_norm_squared().is_finite());
        assert!(s.receive(near).is_none());
        assert_eq!((s.buffer_len(), s.discarded_malformed()), (1, 0));
        assert_eq!(s.buffer[0].params_norm_bound(), 9.0);
        assert_eq!(s.buffer[0].params_norm_squared(), 9.0);

        let doubled = ClientUpdate::from_delta(1, 0, 0, &global, Vector::from(vec![1e154, 0.0]), 1);
        assert!(doubled.delta_norm_squared().is_finite());
        assert!(s.receive(doubled).is_none());
        assert_eq!((s.buffer_len(), s.discarded_malformed()), (1, 1));
        assert!(mem.events().contains(&Event::UpdateDiscardedMalformed {
            client: 1,
            round: 0,
            reason: MalformedReason::NonFiniteNorm,
        }));
    }

    /// A report whose bound decides is admitted without reading ω: it
    /// carries the bound, not the norm, until a pass computes the norm,
    /// and reading its norm before then still gives the exact value.
    /// The round's `‖b‖²` is computed by the first receipt, not by `new`.
    #[test]
    fn receipt_admits_on_the_bound_and_reads_no_model() {
        let global = Vector::from(vec![3.0, 0.0]);
        let mut s = BufferedServer::new(
            global.clone(),
            8,
            1,
            Box::new(PassthroughFilter),
            Box::new(MeanAggregator::new()),
        );
        assert_eq!(s.rounds[0].norm_sq, None);
        let delta = Vector::from(vec![-2.0, 4.0]);
        assert!(s
            .receive(ClientUpdate::from_delta(0, 0, 0, &global, delta, 1))
            .is_none());
        assert_eq!(s.rounds[0].norm_sq, Some(9.0));
        let buffered = &s.buffer[0];
        assert_eq!(
            buffered.params_norm_bound(),
            (3.0_f64 + 20.0_f64.sqrt()).powi(2)
        );
        assert_eq!(buffered.params_norm_squared(), 17.0);
    }

    /// In a debug build, a base other than the server's record of the
    /// round fails receipt.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "is not the server's model of round 1")]
    fn debug_base_check_fires_on_a_wrong_base() {
        let mut s = server(1, 20);
        s.receive(upd(0, 0, &[1.0, 1.0])).expect("bound 1");
        // Round 1's model is [1, 1]; a zero base is round 0's.
        let _ = s.receive(upd(1, 1, &[1.0, 1.0]));
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// What receipt did with `delta` sent against a server whose
        /// model is `base`: whether it admitted it and, if so, the bits of
        /// its `‖ω‖²`.
        fn receipt_of(base: &Vector, delta: &Vector) -> Option<u64> {
            let mut s = BufferedServer::new(
                base.clone(),
                8,
                0,
                Box::new(PassthroughFilter),
                Box::new(MeanAggregator::new()),
            );
            let _ = s.receive(ClientUpdate::from_delta(0, 0, 0, base, delta.clone(), 1));
            assert_eq!(s.received(), 1);
            assert_eq!(s.discarded_malformed() + s.buffer_len() as u64, 1);
            s.buffer.first().map(|u| u.params_norm_squared().to_bits())
        }

        /// The decision of a receipt that reads ω: admitted when `‖δ‖²`
        /// and `‖ω‖²` of the stored sum are finite, with that `‖ω‖²`.
        fn exact_receipt(base: &Vector, delta: &Vector) -> Option<u64> {
            let stored = (base + delta).norm_squared();
            (delta.norm_squared().is_finite() && stored.is_finite()).then(|| stored.to_bits())
        }

        /// Every pair of hostile two-coordinate vectors, as base and as
        /// payload.
        #[test]
        fn admission_matches_the_exact_norm_on_every_hostile_pair() {
            let vectors = [
                [f64::NAN, 0.0],
                [f64::INFINITY, 0.0],
                [f64::NEG_INFINITY, 1.0],
                [1e308, 0.0],
                [1e308, 1e308],
                [1.3e154, 0.0],
                [-1.3e154, 0.0],
                [1e154, 0.0],
                [-1e154, 3.0],
                [5e-324, -5e-324],
                [0.0, 0.0],
                [-0.0, -0.0],
                [1.0, -2.5],
            ];
            for base in vectors {
                for delta in vectors {
                    let (base, delta) = (Vector::from(base.to_vec()), Vector::from(delta.to_vec()));
                    assert_eq!(
                        receipt_of(&base, &delta),
                        exact_receipt(&base, &delta),
                        "{base:?} + {delta:?}"
                    );
                }
            }
        }

        /// Coordinates a Byzantine client or a diverged model may hold.
        const HOSTILE: [f64; 17] = [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            1e308,
            -1e308,
            1.3e154,
            -1.3e154,
            1e154,
            -1e154,
            3e153,
            5e-324,
            -5e-324,
            f64::MIN_POSITIVE / 3.0,
            0.0,
            -0.0,
            1.0,
            -2.5,
        ];

        proptest! {
            /// Under any stream of reports: the round counter only moves
            /// forward, the buffer stays strictly below the bound between
            /// calls, staleness-histogram keys respect the limit, and every
            /// report is accounted for exactly once — buffered (the
            /// histogram), discarded as malformed, or discarded as stale at
            /// receipt.
            #[test]
            fn prop_server_invariants(
                reports in proptest::collection::vec(
                    (0usize..8, 0u64..6, -5.0..5.0f64, 0u8..10),
                    1..60,
                ),
                bound in 2usize..6,
                limit in 0u64..4,
            ) {
                let mut s = server(bound, limit);
                let mut last_round = 0;
                let (mut malformed, mut stale_at_receipt) = (0u64, 0u64);
                for (client, base_lag, value, shape) in reports {
                    // One report in ten forges a future base round and one
                    // has the wrong dimension; the rest are at most
                    // `base_lag` rounds old.
                    let round = s.round();
                    let (base_round, dim) = match shape {
                        0 => (round + 1 + base_lag, 2),
                        1 => (round.saturating_sub(base_lag), 3),
                        _ => (round.saturating_sub(base_lag), 2),
                    };
                    if shape <= 1 {
                        malformed += 1;
                    } else if round - base_round > limit {
                        stale_at_receipt += 1;
                    }
                    let _ = s.receive(upd_on(&s, client, base_round, &[value, -value, value][..dim]));
                    prop_assert!(s.round() >= last_round);
                    last_round = s.round();
                    prop_assert!(s.buffer_len() < bound);
                    prop_assert!(s.staleness_histogram().keys().all(|&t| t <= limit));
                }
                let buffered: u64 = s.staleness_histogram().values().sum();
                prop_assert_eq!(s.discarded_malformed(), malformed);
                prop_assert_eq!(
                    s.received(),
                    buffered + s.discarded_malformed() + stale_at_receipt,
                    "received {} != buffered {} + malformed {} + stale at receipt {}",
                    s.received(),
                    buffered,
                    s.discarded_malformed(),
                    stale_at_receipt
                );
                // The passthrough filter defers nothing, so no buffered
                // update ages out inside `aggregate_now`.
                prop_assert_eq!(s.discarded_stale(), stale_at_receipt);
                prop_assert!(s.global().is_finite());
            }

            /// [`receipt_of`] agrees with [`exact_receipt`] on hostile
            /// bases and payloads of one and two coordinates.
            #[test]
            fn prop_admission_matches_the_exact_norm(
                picks in proptest::collection::vec(0usize..HOSTILE.len(), 4..5),
                dim in 1usize..3,
            ) {
                let value = |k: usize| HOSTILE[picks[k] % HOSTILE.len()];
                let base = Vector::from_fn(dim, value);
                let delta = Vector::from_fn(dim, |i| value(2 + i));
                prop_assert_eq!(
                    receipt_of(&base, &delta),
                    exact_receipt(&base, &delta),
                    "{:?} + {:?}",
                    base,
                    delta
                );
            }

            /// Aggregating with finite inputs keeps the global model finite.
            #[test]
            fn prop_global_stays_finite(
                deltas in proptest::collection::vec(-100.0..100.0f64, 4..20),
            ) {
                let mut s = server(2, 20);
                for (i, &d) in deltas.iter().enumerate() {
                    let _ = s.receive(upd_on(&s, i, s.round(), &[d, d * 0.5]));
                }
                prop_assert!(s.global().is_finite());
            }
        }
    }
}
