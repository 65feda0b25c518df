//! The plug-and-play filter interface between AFL servers and defenses.
//!
//! The paper positions AsyncFilter as a module the server invokes "when the
//! number of arrived clients reaches the minimum aggregation bound … after
//! removing abnormal updates, the server aggregates the updates following
//! its aggregation rule" (§4.4, Fig. 5). [`UpdateFilter`] is that contract;
//! any defense implementing it slots into the simulator's FedBuff server
//! unchanged.

use asyncfl_telemetry::Sink;
use asyncfl_tensor::Vector;

/// One buffered client report, as the server sees it.
#[derive(Debug, Clone, PartialEq)]
pub struct ClientUpdate {
    /// Client identifier.
    pub client: usize,
    /// Server round of the global model the client trained from.
    pub base_round: u64,
    /// Staleness at receipt: current server round minus `base_round`.
    pub staleness: u64,
    /// The updated local model parameters ωᵢ.
    pub params: Vector,
    /// The model update δᵢ = ωᵢ − ω_base, where ω_base is the (possibly
    /// stale) global model the client trained from. FedBuff-style servers
    /// aggregate deltas; AsyncFilter's geometry works on `params`.
    pub delta: Vector,
    /// Local sample count (aggregation weight `pᵢ` numerator).
    pub num_samples: usize,
    /// Ground-truth malice flag. **Never read by defenses** — carried only
    /// so experiments can compute detection precision/recall.
    pub truth_malicious: bool,
    /// How many times a filter has deferred this update ("contribute at a
    /// later stage"). Maintained by filters that defer.
    pub defers: u32,
    /// Cached `‖params‖²`, kept consistent by the constructors and
    /// [`ClientUpdate::refresh_cached_norms`]. Private so in-place edits
    /// to `params` can't silently desynchronize it.
    params_norm_sq: f64,
    /// Cached `‖delta‖²` under the same contract.
    delta_norm_sq: f64,
}

impl ClientUpdate {
    /// Creates an update with the convention `ω_base = 0`, i.e.
    /// `delta == params`. Convenient for filter-level tests; real servers
    /// should use [`ClientUpdate::from_base`].
    pub fn new(
        client: usize,
        base_round: u64,
        staleness: u64,
        params: Vector,
        num_samples: usize,
    ) -> Self {
        let delta = params.clone();
        let params_norm_sq = params.norm_squared();
        Self {
            client,
            base_round,
            staleness,
            params,
            delta,
            num_samples,
            truth_malicious: false,
            defers: 0,
            params_norm_sq,
            delta_norm_sq: params_norm_sq,
        }
    }

    /// Creates an update from the base model the client trained from,
    /// computing `delta = params − base`.
    ///
    /// # Panics
    ///
    /// Panics if `base` and `params` dimensions differ.
    pub fn from_base(
        client: usize,
        base_round: u64,
        staleness: u64,
        base: &Vector,
        params: Vector,
        num_samples: usize,
    ) -> Self {
        let delta = &params - base;
        let params_norm_sq = params.norm_squared();
        let delta_norm_sq = delta.norm_squared();
        Self {
            client,
            base_round,
            staleness,
            params,
            delta,
            num_samples,
            truth_malicious: false,
            defers: 0,
            params_norm_sq,
            delta_norm_sq,
        }
    }

    /// Creates an update from a crafted delta (attack path): the reported
    /// parameters are `base + delta`.
    ///
    /// # Panics
    ///
    /// Panics if `base` and `delta` dimensions differ.
    pub fn from_delta(
        client: usize,
        base_round: u64,
        staleness: u64,
        base: &Vector,
        delta: Vector,
        num_samples: usize,
    ) -> Self {
        let params = base + &delta;
        let params_norm_sq = params.norm_squared();
        let delta_norm_sq = delta.norm_squared();
        Self {
            client,
            base_round,
            staleness,
            params,
            delta,
            num_samples,
            truth_malicious: false,
            defers: 0,
            params_norm_sq,
            delta_norm_sq,
        }
    }

    /// Marks the ground-truth malice flag (builder-style).
    pub fn with_truth_malicious(mut self, malicious: bool) -> Self {
        self.truth_malicious = malicious;
        self
    }

    /// Cached squared ℓ2 norm of `params` (`‖ωᵢ‖²`), computed once at
    /// construction. With per-estimate norms this turns every
    /// `d(MA, ω)` in AsyncFilter's eq. 6/7 scoring into a single dot
    /// product via `‖MA − ω‖² = ‖MA‖² + ‖ω‖² − 2·MA·ω`.
    pub fn params_norm_squared(&self) -> f64 {
        self.params_norm_sq
    }

    /// Cached squared ℓ2 norm of `delta` (`‖δᵢ‖²`), computed once at
    /// construction.
    pub fn delta_norm_squared(&self) -> f64 {
        self.delta_norm_sq
    }

    /// Recomputes both cached norms. **Must** be called after any in-place
    /// mutation of `params` or `delta` (norm clipping, delta rebasing);
    /// the constructors establish the invariant, this restores it.
    pub fn refresh_cached_norms(&mut self) {
        self.params_norm_sq = self.params.norm_squared();
        self.delta_norm_sq = self.delta.norm_squared();
    }
}

/// Read-only server state handed to filters each aggregation.
#[derive(Clone)]
pub struct FilterContext<'a> {
    /// Current server aggregation round (the round being formed).
    pub round: u64,
    /// Current global model parameters ω_g.
    pub global_params: &'a Vector,
    /// Server staleness limit *m* (updates beyond it were already dropped).
    pub staleness_limit: u64,
    /// A trusted delta computed from a server-held clean dataset, if the
    /// deployment has one. `None` under the paper's threat model (§3.3);
    /// `Some` only for the Zeno++/AFLGuard prior-work baselines.
    pub trusted_delta: Option<&'a Vector>,
    /// Telemetry sink for timing spans emitted from inside the filter
    /// (k-means duration, etc.). `None` (the default) keeps the hot path
    /// free of clock reads; lifecycle events are the server's job.
    pub sink: Option<&'a dyn Sink>,
}

impl std::fmt::Debug for FilterContext<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FilterContext")
            .field("round", &self.round)
            .field("global_params", &self.global_params)
            .field("staleness_limit", &self.staleness_limit)
            .field("trusted_delta", &self.trusted_delta)
            .field("sink", &self.sink.map(|_| "dyn Sink"))
            .finish()
    }
}

impl<'a> FilterContext<'a> {
    /// Creates a context without a trusted dataset (the paper's setting).
    pub fn new(round: u64, global_params: &'a Vector, staleness_limit: u64) -> Self {
        Self {
            round,
            global_params,
            staleness_limit,
            trusted_delta: None,
            sink: None,
        }
    }

    /// Attaches a trusted delta (for clean-dataset baselines).
    pub fn with_trusted_delta(mut self, delta: &'a Vector) -> Self {
        self.trusted_delta = Some(delta);
        self
    }

    /// Attaches a telemetry sink for in-filter timing spans.
    pub fn with_sink(mut self, sink: &'a dyn Sink) -> Self {
        self.sink = Some(sink);
        self
    }
}

/// A suspicious score assigned to one update in the most recent
/// [`UpdateFilter::filter`] call, exposed for analysis, figures and
/// telemetry ([`FilterScore`](asyncfl_telemetry::Event::FilterScore)
/// events are derived from these by the server).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScoreRecord {
    /// Client id.
    pub client: usize,
    /// Raw staleness of the scored update at filtering time. Together with
    /// [`client`](Self::client) this identifies which buffered update the
    /// score belongs to, so consumers pairing scores back to verdicts (the
    /// server's `FilterScore` emission) do not cross-pair a client's
    /// re-buffered deferred update with its fresh one.
    pub staleness: u64,
    /// Staleness group key (eq. 4). Filters that do not group by staleness
    /// report the update's raw staleness here.
    pub group: u64,
    /// Normalized suspicious score (eq. 7 for AsyncFilter; each baseline
    /// documents its own scale).
    pub score: f64,
    /// Ground-truth malice (experiment bookkeeping).
    pub truth_malicious: bool,
}

/// A filter's verdict over one buffer of updates.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FilterOutcome {
    /// Updates to aggregate now.
    pub accepted: Vec<ClientUpdate>,
    /// Updates dropped permanently (suspected poisoned).
    pub rejected: Vec<ClientUpdate>,
    /// Updates returned to the server buffer for a later aggregation
    /// (AsyncFilter's middle cluster).
    pub deferred: Vec<ClientUpdate>,
}

impl FilterOutcome {
    /// Accepts everything (the no-defense outcome).
    pub fn accept_all(updates: Vec<ClientUpdate>) -> Self {
        Self {
            accepted: updates,
            rejected: Vec::new(),
            deferred: Vec::new(),
        }
    }

    /// Total updates across the three verdicts.
    pub fn len(&self) -> usize {
        self.accepted.len() + self.rejected.len() + self.deferred.len()
    }

    /// Returns `true` if no updates were processed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Detection confusion counts `(tp, fp, fn, tn)` over **terminal**
    /// verdicts only: rejected is the positive (malicious) prediction,
    /// accepted the negative.
    ///
    /// Deferred updates are excluded — a deferral is not a verdict. The
    /// same update returns to the server buffer and is re-filtered next
    /// pass, so counting it here too would tally it once per pass it sits
    /// in the middle cluster *and* once at its terminal verdict, inflating
    /// the precision/recall/FPR denominators. (A deferred update that later
    /// ages past the staleness limit is screened out, not filtered, and is
    /// deliberately never counted.)
    pub fn confusion(&self) -> (usize, usize, usize, usize) {
        let tp = self.rejected.iter().filter(|u| u.truth_malicious).count();
        let fp = self.rejected.len() - tp;
        let fn_ = self.accepted.iter().filter(|u| u.truth_malicious).count();
        let tn = self.accepted.len() - fn_;
        (tp, fp, fn_, tn)
    }
}

/// A server-side update filter — the paper's pluggable defense interface.
///
/// Filters are stateful (`&mut self`): AsyncFilter carries per-group moving
/// averages across rounds, FLDetector carries client histories.
pub trait UpdateFilter: Send {
    /// Defense name for tables ("AsyncFilter", "FedBuff", …).
    fn name(&self) -> &str;

    /// Partitions the buffered updates into accepted / rejected / deferred.
    fn filter(&mut self, updates: Vec<ClientUpdate>, ctx: &FilterContext<'_>) -> FilterOutcome;

    /// Called when the server buffers a report it received, once per
    /// report, with the server state at that moment in `ctx`. Every
    /// filter in this crate scores inside [`filter`] and keeps the
    /// default no-op; wrappers may use the call to observe arrivals.
    ///
    /// [`filter`]: UpdateFilter::filter
    fn on_buffered(&mut self, update: &ClientUpdate, ctx: &FilterContext<'_>) {
        let _ = (update, ctx);
    }

    /// Per-update suspicious scores from the most recent [`filter`] call,
    /// used by the server to annotate per-update telemetry events. The
    /// default (filters that do not score, like the FedBuff passthrough)
    /// is empty; the server then reports the update's verdict with a
    /// `NaN` score.
    ///
    /// [`filter`]: UpdateFilter::filter
    fn last_scores(&self) -> &[ScoreRecord] {
        &[]
    }
}

/// The FedBuff baseline: no defense, every update is aggregated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PassthroughFilter;

impl UpdateFilter for PassthroughFilter {
    fn name(&self) -> &str {
        "FedBuff"
    }

    fn filter(&mut self, updates: Vec<ClientUpdate>, _ctx: &FilterContext<'_>) -> FilterOutcome {
        FilterOutcome::accept_all(updates)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn upd(client: usize, malicious: bool) -> ClientUpdate {
        ClientUpdate::new(client, 0, 0, Vector::from(vec![client as f64]), 5)
            .with_truth_malicious(malicious)
    }

    #[test]
    fn constructors_fill_cached_norms() {
        let base = Vector::from(vec![1.0, -2.0, 0.5]);
        let delta = Vector::from(vec![0.25, 0.5, -1.0]);
        let u = ClientUpdate::from_delta(0, 3, 1, &base, delta.clone(), 10);
        assert_eq!(u.params_norm_squared(), u.params.norm_squared());
        assert_eq!(u.delta_norm_squared(), delta.norm_squared());

        let v = ClientUpdate::from_base(1, 3, 1, &base, &base + &delta, 10);
        assert_eq!(v.params_norm_squared(), v.params.norm_squared());
        assert_eq!(v.delta_norm_squared(), v.delta.norm_squared());

        let w = ClientUpdate::new(2, 0, 0, base.clone(), 10);
        assert_eq!(w.params_norm_squared(), base.norm_squared());
        assert_eq!(w.delta_norm_squared(), base.norm_squared());
    }

    #[test]
    fn refresh_cached_norms_tracks_in_place_mutation() {
        let base = Vector::zeros(3);
        let mut u = ClientUpdate::from_delta(0, 0, 0, &base, Vector::from(vec![3.0, 4.0, 0.0]), 1);
        assert_eq!(u.delta_norm_squared(), 25.0);
        u.delta.scale(2.0);
        u.params = u.delta.clone();
        u.refresh_cached_norms();
        assert_eq!(u.delta_norm_squared(), 100.0);
        assert_eq!(u.params_norm_squared(), 100.0);
    }

    #[test]
    fn client_update_constructors() {
        let u = ClientUpdate::new(0, 1, 2, Vector::from(vec![3.0, 4.0]), 7);
        assert_eq!(u.delta, u.params);
        assert_eq!(u.staleness, 2);
        assert_eq!(u.num_samples, 7);
        assert!(!u.truth_malicious);

        let base = Vector::from(vec![1.0, 1.0]);
        let u = ClientUpdate::from_base(1, 0, 0, &base, Vector::from(vec![3.0, 4.0]), 7);
        assert_eq!(u.delta.as_slice(), &[2.0, 3.0]);
        assert_eq!(u.params.as_slice(), &[3.0, 4.0]);

        let u = ClientUpdate::from_delta(2, 0, 0, &base, Vector::from(vec![2.0, 3.0]), 7);
        assert_eq!(u.params.as_slice(), &[3.0, 4.0]);
        assert_eq!(u.delta.as_slice(), &[2.0, 3.0]);
    }

    #[test]
    fn passthrough_accepts_everything() {
        let updates = vec![upd(0, false), upd(1, true)];
        let global = Vector::zeros(1);
        let ctx = FilterContext::new(0, &global, 20);
        let out = PassthroughFilter.filter(updates.clone(), &ctx);
        assert_eq!(out.accepted, updates);
        assert!(out.rejected.is_empty());
        assert!(out.deferred.is_empty());
        assert_eq!(PassthroughFilter.name(), "FedBuff");
    }

    #[test]
    fn outcome_len_and_empty() {
        let out = FilterOutcome::default();
        assert!(out.is_empty());
        let out = FilterOutcome::accept_all(vec![upd(0, false)]);
        assert_eq!(out.len(), 1);
        assert!(!out.is_empty());
    }

    #[test]
    fn confusion_counts() {
        let out = FilterOutcome {
            accepted: vec![upd(0, false), upd(1, true)],
            rejected: vec![upd(2, true), upd(3, true), upd(4, false)],
            deferred: vec![upd(5, false), upd(6, true)],
        };
        let (tp, fp, fn_, tn) = out.confusion();
        // Deferred updates (clients 5 and 6) are not terminal verdicts and
        // must not appear anywhere in the confusion counts.
        assert_eq!((tp, fp, fn_, tn), (2, 1, 1, 1));
        assert_eq!(tp + fp + fn_ + tn, out.accepted.len() + out.rejected.len());
    }

    #[test]
    fn context_sink_default_none() {
        let g = Vector::zeros(1);
        let ctx = FilterContext::new(0, &g, 20);
        assert!(ctx.sink.is_none());
        let sink = asyncfl_telemetry::NullSink;
        let ctx = ctx.with_sink(&sink);
        assert!(ctx.sink.is_some());
        // Debug must not try to format the trait object itself.
        assert!(format!("{ctx:?}").contains("dyn Sink"));
    }

    #[test]
    fn default_last_scores_is_empty() {
        assert!(PassthroughFilter.last_scores().is_empty());
    }

    #[test]
    fn context_trusted_delta_default_none() {
        let g = Vector::zeros(2);
        let ctx = FilterContext::new(3, &g, 20);
        assert!(ctx.trusted_delta.is_none());
        let t = Vector::from(vec![1.0, 1.0]);
        let ctx = ctx.with_trusted_delta(&t);
        assert_eq!(ctx.trusted_delta.unwrap().as_slice(), &[1.0, 1.0]);
        assert_eq!(ctx.round, 3);
        assert_eq!(ctx.staleness_limit, 20);
    }
}
