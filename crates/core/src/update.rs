//! The plug-and-play filter interface between AFL servers and defenses.
//!
//! The paper positions AsyncFilter as a module the server invokes "when the
//! number of arrived clients reaches the minimum aggregation bound … after
//! removing abnormal updates, the server aggregates the updates following
//! its aggregation rule" (§4.4, Fig. 5). [`UpdateFilter`] is that contract;
//! any defense implementing it slots into the simulator's FedBuff server
//! unchanged.

use asyncfl_telemetry::Sink;
use asyncfl_tensor::kernels::{sum_norm_squared, AsSummed, Summed};
use asyncfl_tensor::Vector;
use std::sync::Arc;

/// Where an update's reported model ω comes from.
#[derive(Debug, Clone, PartialEq)]
enum Base {
    /// `ω = δ` ([`ClientUpdate::new`]): the delta is read as is.
    None,
    /// Built by [`ClientUpdate::from_delta`] and not yet resolved by a
    /// server: ω is unknown, so the update is unscorable. Debug builds
    /// carry the [`model_fingerprint`] of the base the caller passed.
    Unresolved { fingerprint: Option<u64> },
    /// `ω = base + δ`, with `base` the global model of `base_round`,
    /// shared by every update of that round and summed inside each kernel
    /// that reads ω.
    Model(Arc<Vector>),
}

/// Receipt's admission bound on `‖ω‖²` from `‖b‖²` and `‖δ‖²`, when it
/// proves `‖ω‖²` finite: `(‖b‖ + ‖δ‖)²` below `f64::MAX / 4`.
///
/// `‖b + δ‖ ≤ ‖b‖ + ‖δ‖`. The computed `‖ω‖²` exceeds that real bound only
/// by rounding: each `b[i] + δ[i]` and square by a factor `1 + 2⁻⁵³`, the
/// sum of squares (in any order) by `1 + n·2⁻⁵³`, and the two norms and
/// this sum read low by as much. Together that is far below 4 for any
/// dimension below 2⁵⁰, so below the margin nothing in `‖ω‖²`'s sum of
/// nonnegative terms can overflow. `None` (NaN or infinite inputs
/// included) decides nothing: the caller computes `‖ω‖²`.
fn admission_bound(base_norm_sq: f64, delta_norm_sq: f64) -> Option<f64> {
    let root = base_norm_sq.sqrt() + delta_norm_sq.sqrt();
    let bound = root * root;
    (bound < f64::MAX / 4.0).then_some(bound)
}

/// One buffered client report, as the server sees it.
///
/// A FedBuff client sends its delta δ and the round it trained from. The
/// reported model the AsyncFilter geometry works on is `ω = ω_base + δ`
/// (paper eq. 6); it is never stored. An update holds δ and a shared
/// reference to ω_base, and every reader of ω forms `ω_base[i] + δ[i]`
/// inside its kernel ([`AsSummed`]), which rounds to exactly the `f64` a
/// stored sum would hold.
///
/// ω_base is the server's own record of the model it sent for
/// `base_round`, never anything the client supplies: [`from_delta`]
/// records no base, and `BufferedServer::receive` attaches its record
/// with [`resolve`]. Until then the update is unscorable: its cached
/// `‖ω‖²` is NaN, which every filter's sanitize step rejects.
///
/// [`resolve`] need not read ω: when `‖ω‖ ≤ ‖ω_base‖ + ‖δ‖` already
/// proves `‖ω‖²` finite, the update carries that bound
/// ([`params_norm_bound`]) and AsyncFilter's eq. 6 sweep computes the
/// value while it reads ω anyway.
///
/// [`from_delta`]: ClientUpdate::from_delta
/// [`resolve`]: ClientUpdate::resolve
/// [`params_norm_bound`]: ClientUpdate::params_norm_bound
#[derive(Debug, Clone, PartialEq)]
pub struct ClientUpdate {
    /// Client identifier.
    pub client: usize,
    /// Server round of the global model the client trained from.
    pub base_round: u64,
    /// Staleness at receipt: current server round minus `base_round`.
    pub staleness: u64,
    /// The model update δᵢ = ωᵢ − ω_base, where ω_base is the (possibly
    /// stale) global model the client trained from. FedBuff-style servers
    /// aggregate deltas; AsyncFilter's geometry works on ω.
    pub delta: Vector,
    /// Local sample count (aggregation weight `pᵢ` numerator).
    pub num_samples: usize,
    /// Ground-truth malice flag. **Never read by defenses** — carried only
    /// so experiments can compute detection precision/recall.
    pub truth_malicious: bool,
    /// How many times a filter has deferred this update ("contribute at a
    /// later stage"). Maintained by filters that defer.
    pub defers: u32,
    /// Where ω comes from.
    base: Base,
    /// `‖ω‖²` (NaN while unresolved) when `params_norm_exact`; otherwise
    /// the finite bound receipt admitted the update on
    /// ([`ClientUpdate::resolve`]), until the filter pass computes the
    /// value. Kept consistent by the constructors, `resolve` and
    /// [`ClientUpdate::refresh_cached_norms`]. Private so in-place edits
    /// to `delta` can't silently desynchronize it.
    params_norm_sq: f64,
    /// Whether `params_norm_sq` is `‖ω‖²` itself rather than a bound on
    /// it. A flag beside the other small fields rather than an enum around
    /// the value, so the update is no larger.
    params_norm_exact: bool,
    /// Cached `‖delta‖²` under the same contract.
    delta_norm_sq: f64,
}

/// FNV-1a over the bits of `v`'s coordinates: the debug-build check that
/// the base a caller passed to [`ClientUpdate::from_delta`] is the model
/// the server recorded for that round.
pub fn model_fingerprint(v: &Vector) -> u64 {
    v.iter().fold(0xcbf2_9ce4_8422_2325, |h, x| {
        (h ^ x.to_bits()).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

impl ClientUpdate {
    /// The update with every field but ω's source and its norm.
    fn with_source(
        client: usize,
        base_round: u64,
        staleness: u64,
        delta: Vector,
        num_samples: usize,
        base: Base,
    ) -> Self {
        let delta_norm_sq = delta.norm_squared();
        let mut update = Self {
            client,
            base_round,
            staleness,
            delta,
            num_samples,
            truth_malicious: false,
            defers: 0,
            base,
            params_norm_sq: f64::NAN,
            params_norm_exact: true,
            delta_norm_sq,
        };
        update.params_norm_sq = update.omega_norm_squared();
        update
    }

    /// Creates an update with the convention `ω_base = 0`, i.e.
    /// `ω == delta`, read as is (adding a zero base would turn `-0.0`
    /// into `+0.0`). Convenient for filter-level tests; a server that
    /// receives it resolves it against its own record like any report.
    pub fn new(
        client: usize,
        base_round: u64,
        staleness: u64,
        params: Vector,
        num_samples: usize,
    ) -> Self {
        Self::with_source(
            client,
            base_round,
            staleness,
            params,
            num_samples,
            Base::None,
        )
    }

    /// Creates an update from a delta and the base it was computed
    /// against (the engines' and attack paths' constructor). It stores δ
    /// and `‖δ‖²` and writes no model-sized vector. ω stays unresolved
    /// until a server attaches its own record of `base_round`
    /// ([`ClientUpdate::resolve`]); `base` only fixes the dimension and,
    /// in debug builds, a [`model_fingerprint`] the server checks against
    /// its record.
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
        assert_eq!(
            base.len(),
            delta.len(),
            "from_delta: base and delta dimensions differ"
        );
        let fingerprint = cfg!(debug_assertions).then(|| model_fingerprint(base));
        Self::with_source(
            client,
            base_round,
            staleness,
            delta,
            num_samples,
            Base::Unresolved { fingerprint },
        )
    }

    /// Creates an update already resolved against `base`, so
    /// `ω = base + delta`: for engines and tests that drive filters
    /// directly, with no server to resolve it.
    ///
    /// # Panics
    ///
    /// Panics if `base` and `delta` dimensions differ.
    pub fn with_base(
        client: usize,
        base_round: u64,
        staleness: u64,
        base: Arc<Vector>,
        delta: Vector,
        num_samples: usize,
    ) -> Self {
        assert_eq!(
            base.len(),
            delta.len(),
            "with_base: base and delta dimensions differ"
        );
        Self::with_source(
            client,
            base_round,
            staleness,
            delta,
            num_samples,
            Base::Model(base),
        )
    }

    /// Marks the ground-truth malice flag (builder-style).
    pub fn with_truth_malicious(mut self, malicious: bool) -> Self {
        self.truth_malicious = malicious;
        self
    }

    /// Attaches `base` as ω_base, replacing whatever the update carried.
    /// The server calls this with its own record of `base_round` and that
    /// record's `base_norm_sq = ‖base‖²`.
    ///
    /// When `(‖base‖ + ‖δ‖)²` is below `f64::MAX / 4`, `‖ω‖²` is finite
    /// and the update keeps that bound without reading ω: the common case,
    /// which costs O(1). Otherwise `‖ω‖²` is computed and cached in one
    /// read-only pass over the base and δ. Either way
    /// [`params_norm_bound`](Self::params_norm_bound) is finite exactly
    /// when `‖ω‖²` is.
    ///
    /// # Panics
    ///
    /// Panics if `base` and `delta` dimensions differ.
    pub fn resolve(&mut self, base: Arc<Vector>, base_norm_sq: f64) {
        assert_eq!(
            base.len(),
            self.delta.len(),
            "resolve: base and delta dimensions differ"
        );
        debug_assert_eq!(
            base.norm_squared().to_bits(),
            base_norm_sq.to_bits(),
            "resolve: base_norm_sq is not the base's ‖b‖²"
        );
        self.base = Base::Model(base);
        let bound = admission_bound(base_norm_sq, self.delta_norm_sq);
        self.params_norm_exact = bound.is_none();
        self.params_norm_sq = bound.unwrap_or_else(|| self.omega_norm_squared());
    }

    /// `false` only for an update built by [`ClientUpdate::from_delta`]
    /// that no server has resolved yet.
    pub fn is_resolved(&self) -> bool {
        !matches!(self.base, Base::Unresolved { .. })
    }

    /// The [`model_fingerprint`] [`ClientUpdate::from_delta`] recorded in
    /// a debug build, until the update is resolved; `None` otherwise.
    pub fn base_fingerprint(&self) -> Option<u64> {
        match self.base {
            Base::Unresolved { fingerprint } => fingerprint,
            _ => None,
        }
    }

    /// The shared ω_base, once resolved; `None` for a [`ClientUpdate::new`]
    /// update (ω = δ) and an unresolved one.
    pub fn base(&self) -> Option<&Arc<Vector>> {
        match &self.base {
            Base::Model(base) => Some(base),
            _ => None,
        }
    }

    /// Builds the reported model ω: `base + delta`, or a copy of `delta`
    /// for a [`ClientUpdate::new`] update. `None` while unresolved. For
    /// readers off the hot path; the filter's kernels read ω through
    /// [`AsSummed`] without building it.
    pub fn params(&self) -> Option<Vector> {
        match &self.base {
            Base::None => Some(self.delta.clone()),
            Base::Unresolved { .. } => None,
            Base::Model(_) => Some(Vector::from(self.as_summed().to_vec())),
        }
    }

    /// `true` when ω is known and every coordinate of it is finite,
    /// checked without building ω.
    pub fn params_is_finite(&self) -> bool {
        match &self.base {
            Base::None => self.delta.is_finite(),
            Base::Unresolved { .. } => false,
            Base::Model(base) => base
                .iter()
                .zip(self.delta.iter())
                .all(|(b, d)| (b + d).is_finite()),
        }
    }

    /// Squared ℓ2 norm of ω (`‖ωᵢ‖²`), NaN while unresolved. With
    /// per-estimate norms this turns every `d(MA, ω)` in AsyncFilter's
    /// eq. 6/7 scoring into a single dot product via
    /// `‖MA − ω‖² = ‖MA‖² + ‖ω‖² − 2·MA·ω`.
    ///
    /// The cached value, except for an update receipt admitted on its
    /// bound and no filter pass has scored yet: that one computes it
    /// afresh, in one read of the base and δ, without caching it. Never
    /// the bound.
    pub fn params_norm_squared(&self) -> f64 {
        if self.params_norm_exact {
            self.params_norm_sq
        } else {
            self.omega_norm_squared()
        }
    }

    /// An upper bound on `‖ω‖²`, known without reading ω: `‖ω‖²` itself
    /// once computed, receipt's admission bound
    /// ([`resolve`](Self::resolve)) before. Finite exactly when `‖ω‖²`
    /// is, and NaN while unresolved, so it is the `O(1)` test of whether
    /// an update can be scored. Not a norm: a reader that needs `‖ω‖²`
    /// calls [`params_norm_squared`](Self::params_norm_squared).
    pub fn params_norm_bound(&self) -> f64 {
        self.params_norm_sq
    }

    /// Caches `‖ω‖²` as a kernel that read ω computed it (AsyncFilter's
    /// eq. 6 sweep), replacing an admission bound. Debug builds check that
    /// an update that already holds the value (a deferred one, or one
    /// built by `new` or `with_base`) gets the same bits.
    pub(crate) fn set_params_norm_squared(&mut self, norm_sq: f64) {
        debug_assert!(self.is_resolved(), "set_params_norm_squared: unresolved");
        debug_assert!(
            !self.params_norm_exact || self.params_norm_sq.to_bits() == norm_sq.to_bits(),
            "client {}: ‖ω‖² {norm_sq:e} differs from the cached {:e}",
            self.client,
            self.params_norm_sq
        );
        self.params_norm_sq = norm_sq;
        self.params_norm_exact = true;
    }

    /// Cached squared ℓ2 norm of `delta` (`‖δᵢ‖²`), computed once at
    /// construction.
    pub fn delta_norm_squared(&self) -> f64 {
        self.delta_norm_sq
    }

    /// Recomputes both cached norms. **Must** be called after any in-place
    /// mutation of `delta` (norm clipping, rescaling); the constructors
    /// establish the invariant, this restores it. An unresolved update's
    /// `‖ω‖²` stays NaN.
    pub fn refresh_cached_norms(&mut self) {
        self.delta_norm_sq = self.delta.norm_squared();
        self.params_norm_sq = self.omega_norm_squared();
        self.params_norm_exact = true;
    }

    /// This update's metadata and ω_base with `delta` in place of its own,
    /// both norms computed for the new delta: what a clone followed by a
    /// delta swap and [`refresh_cached_norms`](Self::refresh_cached_norms)
    /// gives, without copying the old delta.
    pub fn with_delta(&self, delta: Vector) -> Self {
        let mut update = Self::with_source(
            self.client,
            self.base_round,
            self.staleness,
            delta,
            self.num_samples,
            self.base.clone(),
        );
        update.truth_malicious = self.truth_malicious;
        update.defers = self.defers;
        update
    }

    /// `‖ω‖²` computed afresh from the base and δ.
    fn omega_norm_squared(&self) -> f64 {
        match self.base {
            Base::None => self.delta_norm_sq,
            Base::Unresolved { .. } => f64::NAN,
            Base::Model(_) => sum_norm_squared(self.as_summed()),
        }
    }
}

impl AsSummed for ClientUpdate {
    /// ω as the shared base plus δ; δ alone for a [`ClientUpdate::new`]
    /// update. An unresolved update also reads as δ alone, but its NaN
    /// `‖ω‖²` keeps it out of every scoring pass.
    fn as_summed(&self) -> Summed<'_> {
        Summed {
            base: self.base().map(|b| b.as_slice()),
            delta: self.delta.as_slice(),
        }
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
        assert!(u.params_norm_squared().is_nan());
        assert_eq!(u.delta_norm_squared(), delta.norm_squared());

        let v = ClientUpdate::with_base(1, 3, 1, Arc::new(base.clone()), delta.clone(), 10);
        assert_eq!(
            v.params_norm_squared().to_bits(),
            (&base + &delta).norm_squared().to_bits()
        );
        assert_eq!(v.delta_norm_squared(), delta.norm_squared());

        let w = ClientUpdate::new(2, 0, 0, base.clone(), 10);
        assert_eq!(w.params_norm_squared(), base.norm_squared());
        assert_eq!(w.delta_norm_squared(), base.norm_squared());
    }

    /// `new` sets ω = δ with no base, read as is: a `-0.0` coordinate
    /// stays `-0.0`, where adding a zero base would make it `+0.0`.
    #[test]
    fn new_reads_its_delta_as_is() {
        let u = ClientUpdate::new(0, 0, 0, Vector::from(vec![-0.0, 2.0]), 1);
        assert!(u.is_resolved());
        assert!(u.base().is_none());
        assert_eq!(u.as_summed().base, None);
        let params = u.params().expect("ω = δ");
        assert_eq!(params[0].to_bits(), (-0.0_f64).to_bits());
        assert_eq!(u.params_norm_squared(), 4.0);
    }

    /// `from_delta` records no base: the update is unscorable (NaN
    /// `‖ω‖²`, no ω, not finite) until resolved, and resolving gives ω =
    /// base + δ bit for bit.
    #[test]
    fn from_delta_is_unscorable_until_resolved() {
        let base = Vector::from(vec![0.1, -0.0, 1e300, 3.0]);
        let delta = Vector::from(vec![0.2, -0.0, 1e300, -3.0]);
        let mut u = ClientUpdate::from_delta(4, 2, 0, &base, delta.clone(), 7);
        assert!(!u.is_resolved());
        assert!(u.params_norm_squared().is_nan());
        assert!(u.params().is_none());
        assert!(!u.params_is_finite());
        assert_eq!(
            u.base_fingerprint(),
            cfg!(debug_assertions).then(|| model_fingerprint(&base))
        );

        u.resolve(Arc::new(base.clone()), base.norm_squared());
        let stored = &base + &delta;
        assert!(u.is_resolved());
        assert_eq!(u.base_fingerprint(), None);
        let params = u.params().expect("resolved");
        assert!(params
            .iter()
            .zip(stored.iter())
            .all(|(a, b)| a.to_bits() == b.to_bits()));
        assert_eq!(
            u.params_norm_squared().to_bits(),
            stored.norm_squared().to_bits()
        );
        assert!(u.params_is_finite());
        assert_eq!(u.delta, delta);
    }

    /// A report whose `(‖b‖ + ‖δ‖)²` is small is admitted on that bound:
    /// the bound is what `params_norm_bound` reads, `params_norm_squared`
    /// still gives the exact norm, and caching the norm replaces the
    /// bound.
    #[test]
    fn resolve_admits_on_the_bound_without_reading_omega() {
        let base = Vector::from(vec![3.0, 0.0]);
        let delta = Vector::from(vec![-2.0, 4.0]);
        let mut u = ClientUpdate::from_delta(0, 0, 0, &base, delta.clone(), 1);
        u.resolve(Arc::new(base.clone()), base.norm_squared());
        let exact = (&base + &delta).norm_squared();
        assert_eq!(exact, 17.0);
        assert_eq!(u.params_norm_bound(), (3.0_f64 + 20.0_f64.sqrt()).powi(2));
        assert!(u.params_norm_bound() > exact);
        assert_eq!(u.params_norm_squared().to_bits(), exact.to_bits());
        u.set_params_norm_squared(exact);
        assert_eq!(u.params_norm_bound(), exact);
        assert_eq!(u.params_norm_squared(), exact);
    }

    /// `with_delta` is a clone with its delta swapped and its norms
    /// refreshed, on every source of ω, sharing the base.
    #[test]
    fn with_delta_matches_a_clone_with_its_delta_swapped() {
        let base = Vector::from(vec![1.0, -2.0, 0.5]);
        let delta = Vector::from(vec![0.25, 0.5, -1.0]);
        let next = Vector::from(vec![-0.0, 7.0, 1e-310]);
        let mut bounded = ClientUpdate::from_delta(3, 1, 2, &base, delta.clone(), 9);
        bounded.resolve(Arc::new(base.clone()), base.norm_squared());
        let updates = [
            ClientUpdate::new(0, 1, 2, delta.clone(), 9),
            ClientUpdate::from_delta(1, 1, 2, &base, delta.clone(), 9),
            ClientUpdate::with_base(2, 1, 2, Arc::new(base.clone()), delta.clone(), 9),
            bounded,
        ];
        for u in updates {
            let mut u = u.with_truth_malicious(true);
            u.defers = 1;
            let mut want = u.clone();
            want.delta = next.clone();
            want.refresh_cached_norms();
            let got = u.with_delta(next.clone());
            assert_eq!(
                got.params_norm_squared().to_bits(),
                want.params_norm_squared().to_bits()
            );
            assert_eq!(
                got.params_norm_bound().to_bits(),
                want.params_norm_bound().to_bits()
            );
            assert_eq!(got.delta_norm_squared(), want.delta_norm_squared());
            assert_eq!(got.base().map(Arc::as_ptr), u.base().map(Arc::as_ptr));
            if got.params_norm_squared().is_nan() {
                assert!(!got.is_resolved() && !want.is_resolved());
                continue;
            }
            assert_eq!(got, want);
        }
    }

    #[test]
    #[should_panic(expected = "from_delta")]
    fn from_delta_rejects_a_base_of_another_dimension() {
        let _ = ClientUpdate::from_delta(0, 0, 0, &Vector::zeros(3), Vector::zeros(2), 1);
    }

    #[test]
    fn params_is_finite_reads_the_sum() {
        let base = Arc::new(Vector::from(vec![1e308, 0.0]));
        let u = ClientUpdate::with_base(0, 0, 0, base, Vector::from(vec![1e308, 0.0]), 1);
        assert!(u.delta.is_finite());
        assert!(!u.params_is_finite(), "1e308 + 1e308 overflows");
        assert!(ClientUpdate::new(0, 0, 0, Vector::from(vec![1.0]), 1).params_is_finite());
        assert!(!ClientUpdate::new(0, 0, 0, Vector::from(vec![f64::NAN]), 1).params_is_finite());
    }

    #[test]
    fn refresh_cached_norms_tracks_in_place_mutation() {
        let base = Arc::new(Vector::from(vec![1.0, 0.0, 0.0]));
        let mut u = ClientUpdate::with_base(0, 0, 0, base, Vector::from(vec![3.0, 4.0, 0.0]), 1);
        assert_eq!(u.delta_norm_squared(), 25.0);
        assert_eq!(u.params_norm_squared(), 32.0);
        u.delta.scale(2.0);
        u.refresh_cached_norms();
        assert_eq!(u.delta_norm_squared(), 100.0);
        assert_eq!(u.params_norm_squared(), 113.0);

        let mut fresh = ClientUpdate::new(1, 0, 0, Vector::from(vec![3.0, 4.0]), 1);
        fresh.delta.scale(2.0);
        fresh.refresh_cached_norms();
        assert_eq!(fresh.params_norm_squared(), 100.0);

        let mut unresolved =
            ClientUpdate::from_delta(2, 0, 0, &Vector::zeros(1), Vector::from(vec![1.0]), 1);
        unresolved.refresh_cached_norms();
        assert!(unresolved.params_norm_squared().is_nan());
    }

    #[test]
    fn client_update_constructors() {
        let u = ClientUpdate::new(0, 1, 2, Vector::from(vec![3.0, 4.0]), 7);
        assert_eq!(u.params(), Some(u.delta.clone()));
        assert_eq!(u.staleness, 2);
        assert_eq!(u.num_samples, 7);
        assert!(!u.truth_malicious);

        let base = Arc::new(Vector::from(vec![1.0, 1.0]));
        let u =
            ClientUpdate::with_base(2, 0, 0, Arc::clone(&base), Vector::from(vec![2.0, 3.0]), 7);
        assert_eq!(u.params().expect("resolved").as_slice(), &[3.0, 4.0]);
        assert_eq!(u.delta.as_slice(), &[2.0, 3.0]);
        assert!(Arc::ptr_eq(u.base().expect("resolved"), &base));
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
