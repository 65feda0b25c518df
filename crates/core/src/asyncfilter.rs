//! The AsyncFilter defense (paper §4.3–4.4, Algorithm 1).
//!
//! Pipeline per aggregation: group buffered updates by staleness (eq. 4),
//! score each update by its ℓ2 distance to the group's moving-average
//! estimate (eqs. 5–6), normalize scores across groups (eq. 7), then run
//! 3-means over the scalar scores and reject the highest cluster, accept the
//! lowest, and defer the middle "to a later stage".
//!
//! ## Interpretation notes (recorded in `DESIGN.md`)
//!
//! * **Eq. 7 normalization.** The denominator `√(Σₖ d(MAₖ, ωᵢ)²)` sums the
//!   update's distance to *every* staleness-group estimate. With a single
//!   active group this degenerates to `score ≡ 1`, so in that case we fall
//!   back to normalizing by the within-group root-sum-of-squares, which
//!   preserves the ordering eq. 6 intends.
//! * **Scoring vs. estimation order.** Distances are measured against the
//!   estimate formed from *previous* rounds (the paper motivates the moving
//!   average with "in the server's previous aggregation round we had already
//!   gathered local model updates corresponding to the same group"); a group
//!   seen for the first time is scored against its own current mean. The
//!   estimate is updated *after* scoring, so a same-round attacker cannot
//!   drag the reference toward itself before being scored.
//! * **Middle cluster.** "Permitted to contribute to the aggregation at a
//!   later stage" is implemented as deferral: the server re-buffers the
//!   middle cluster for the next aggregation (its staleness keeps growing,
//!   so the server's staleness limit bounds how long an update can be
//!   deferred). [`MiddlePolicy`] also offers immediate `Accept` and hard
//!   `Reject` for the ablation benches.

use crate::update::{ClientUpdate, FilterContext, FilterOutcome, UpdateFilter};
use asyncfl_clustering::one_dim::kmeans_1d;
use asyncfl_telemetry::Span;
use asyncfl_tensor::kernels::{lerp_chain_norm_squared, sum_dots_norms, sum_seq, AsSummed};
use asyncfl_tensor::Vector;
use std::collections::BTreeMap;

pub use crate::update::ScoreRecord;

/// What to do with the middle 3-means cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum MiddlePolicy {
    /// Re-buffer for **one** later aggregation (the paper's "permitted to
    /// contribute to the aggregation at a later stage"); an update already
    /// deferred once is accepted. Quarantining the middle a single round
    /// keeps strong-attack leftovers out of the current aggregate without
    /// endlessly churning benign non-IID updates (measured in the
    /// `ablation-middle` bench). Default.
    #[default]
    Defer,
    /// Aggregate immediately alongside the lowest cluster.
    Accept,
    /// Drop alongside the highest cluster (a stricter 2-of-3 variant).
    Reject,
}

/// How the per-group estimate is maintained (paper eq. 5 vs. a fixed-rate
/// EMA ablation).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MovingAverageMode {
    /// `MA ← t/(t+1)·MA + 1/(t+1)·ωᵢ` with `t` = updates absorbed so far
    /// (eq. 5; Robbins–Monro 1/t rate).
    RobbinsMonro,
    /// `MA ← (1−β)·MA + β·ωᵢ` with constant β ∈ (0, 1]. Faster to track a
    /// moving optimum; ablation bench `ablation-ma` compares the two.
    Ema {
        /// Per-update blending rate.
        beta: f64,
    },
}

impl Default for MovingAverageMode {
    /// `Ema { beta: 0.2 }`. Eq. 5's literal 1/(t+1) rate freezes the
    /// estimate while the global model keeps drifting, which late in
    /// training drowns the attacker/benign distance contrast in model
    /// drift (measured in the `ablation-ma` bench, worst under Adam). A
    /// fixed-rate EMA keeps the published pipeline but tracks the drift.
    fn default() -> Self {
        MovingAverageMode::Ema { beta: 0.2 }
    }
}

/// How per-update distances (eq. 6) are normalized into suspicious scores
/// (eq. 7). The paper's eq. 7 is ambiguous about what the denominator's
/// index `k` ranges over; all three readings are implemented and the
/// `ablation-score` bench compares them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ScoreNormalization {
    /// `score_i = d_i / sqrt(sum over all buffered updates j of d_j^2)` — the
    /// whole buffer is the normalization pool. Scores stay comparable
    /// across staleness groups and an attacker's score is not capped by
    /// the group count. Default: measured best end-to-end.
    #[default]
    Global,
    /// `score_i = d(MA_own, omega_i) / sqrt(sum over groups k of d(MA_k, omega_i)^2)` —
    /// the literal cross-group reading of eq. 7. Caps scores near
    /// `1/sqrt(#groups)`, compressing attacker/benign separation.
    CrossGroup,
    /// `score_i = d_i / sqrt(sum over j in own group of d_j^2)` — per-group
    /// normalization; degenerates for very small groups (a pair scores
    /// `~0.71` regardless of content).
    WithinGroup,
}

/// Configuration for [`AsyncFilter`].
#[derive(Debug, Clone, PartialEq)]
pub struct AsyncFilterConfig {
    /// Number of score clusters; the paper argues for 3 over 2 (§5.7).
    pub clusters: usize,
    /// Fate of the middle cluster(s).
    pub middle_policy: MiddlePolicy,
    /// Moving-average mode (eq. 5 by default).
    pub ma_mode: MovingAverageMode,
    /// Width of a staleness group: `1` reproduces eq. 4's exact-τ groups;
    /// larger values pool adjacent staleness levels (ablation
    /// `ablation-bucket`).
    pub staleness_bucket: u64,
    /// Below this many buffered updates the filter accepts everything —
    /// clustering three points into three groups is vacuous.
    pub min_updates: usize,
    /// Distance-to-score normalization (eq. 7 reading).
    pub score_normalization: ScoreNormalization,
    /// Separation gate: when positive, the highest score cluster is
    /// rejected only if its centroid is at least this multiple of the
    /// median suspicious score of the **non-top clusters**. A benign score continuum has a
    /// top-cluster/median ratio near 2, while a poisoning cluster under an
    /// effective attack stands far above the benign median, so a moderate
    /// ratio keeps benign rounds untouched without blunting detection.
    /// `0` disables the gate (the paper's literal rule: always reject the
    /// top cluster); the default is `2.0`, chosen by the sweep recorded in
    /// the `ablation-gate` bench.
    pub min_separation: f64,
    /// Rounds during which the separation gate stays inactive and the top
    /// cluster is always rejected (a conservative warm-up while no group
    /// estimates exist). Default 0 — measured to cost more on benign
    /// rounds than it saves under early attacks; exposed for ablation.
    pub gate_warmup_rounds: u64,
}

impl AsyncFilterConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.clusters < 2 {
            return Err(format!("clusters must be >= 2, got {}", self.clusters));
        }
        if self.staleness_bucket == 0 {
            return Err("staleness_bucket must be >= 1".into());
        }
        if let MovingAverageMode::Ema { beta } = self.ma_mode {
            if !(beta > 0.0 && beta <= 1.0) {
                return Err(format!("EMA beta must be in (0, 1], got {beta}"));
            }
        }
        if !(self.min_separation >= 0.0 && self.min_separation.is_finite()) {
            return Err(format!(
                "min_separation must be nonnegative and finite, got {}",
                self.min_separation
            ));
        }
        Ok(())
    }

    /// The 2-means ablation variant (paper Fig. 7's AsyncFilter-2means):
    /// two clusters, so there is no middle group — high rejected, low kept.
    pub fn two_means() -> Self {
        Self {
            clusters: 2,
            ..Self::default()
        }
    }
}

impl Default for AsyncFilterConfig {
    /// The paper's pipeline (3-means, deferred middle cluster, exact
    /// staleness groups) with the two measured implementation choices
    /// documented in `DESIGN.md`: a β = 0.2 EMA estimate and a ×2 median
    /// separation gate.
    fn default() -> Self {
        Self {
            clusters: 3,
            middle_policy: MiddlePolicy::Defer,
            ma_mode: MovingAverageMode::default(),
            staleness_bucket: 1,
            min_updates: 4,
            score_normalization: ScoreNormalization::default(),
            min_separation: 2.0,
            gate_warmup_rounds: 0,
        }
    }
}

/// The sanitize predicate: a finite `‖ω‖²`, read `O(1)` per update from
/// [`ClientUpdate::params_norm_bound`] (finite exactly when `‖ω‖²` is;
/// the pass computes the norm itself). That implies finite coordinates,
/// and it also excludes finite coordinates whose squares overflow, for
/// which the eq. 6 identity evaluates `inf − inf` and the distance clamp
/// would report `0.0`, the most benign score. `BufferedServer` already
/// discards such reports at receipt; the partition keeps the contract for
/// callers that drive the filter directly.
fn scorable(u: &ClientUpdate) -> bool {
    u.params_norm_bound().is_finite()
}

/// Eq. 6 against one estimate for every update `updates[i]` with
/// `member(i)`, into `out` in member order: the cached-norm identity
/// `‖ω‖² + ‖MA‖² − 2·ω·MA`, or NaN where `‖ω‖² + ‖MA‖²` overflows. There
/// the identity computes `inf − inf` or `inf`, and the distance clamp
/// would turn the former into 0.0, the most benign distance.
///
/// The dots and each member's `‖ω‖²` come from one blocked
/// [`sum_dots_norms`] sweep: each block of the estimate, and of a base the
/// members share (every member of a staleness group in a pass shares
/// one), is read once for all of them, and each ω is formed from its base
/// and δ as it is read. The norm is written back into its update,
/// replacing receipt's admission bound. Each value is bit-identical to
/// `ω.distance_squared_from_norms(‖ω‖², MA, ‖MA‖²)` on the stored ω.
fn eq6_into(
    updates: &mut [ClientUpdate],
    member: impl Fn(usize) -> bool + Copy,
    est: &Vector,
    est_norm_sq: f64,
    out: &mut Vec<f64>,
    norms: &mut Vec<f64>,
) {
    let members = updates
        .iter()
        .enumerate()
        .filter(move |&(i, _)| member(i))
        .map(|(_, u)| u.as_summed());
    let count = members.clone().count();
    out.clear();
    out.resize(count, 0.0);
    norms.clear();
    norms.resize(count, 0.0);
    sum_dots_norms(est.as_slice(), members, out, norms);
    let members = updates
        .iter_mut()
        .enumerate()
        .filter(move |&(i, _)| member(i));
    for ((d, &norm_sq), (_, u)) in out.iter_mut().zip(norms.iter()).zip(members) {
        u.set_params_norm_squared(norm_sq);
        *d = if (norm_sq + est_norm_sq).is_finite() {
            (norm_sq + est_norm_sq - 2.0 * *d).max(0.0)
        } else {
            f64::NAN
        };
    }
}

/// Eq. 7's root-sum-of-squares denominator over finite squared
/// distances. When their plain sum overflows (two squared distances of
/// 1.7e308 do), it is re-reduced at a 2⁻⁶⁴ scale: power-of-two scaling
/// keeps the ratios to the distances, where reading `inf` would zero every
/// score and pass the updates that overflowed it as benign. Every pass
/// whose plain sum is finite gets exactly the plain sum.
fn root_sum_sq(d_sq: impl Iterator<Item = f64> + Clone) -> f64 {
    let plain = sum_seq(d_sq.clone()).sqrt();
    if plain.is_finite() {
        return plain;
    }
    const SCALE: f64 = 4_294_967_296.0; // 2³²
    sum_seq(d_sq.map(|d| d / SCALE / SCALE)).sqrt() * SCALE
}

/// Coordinate-wise 25%-trimmed mean of the updates' ω, used to bootstrap
/// new-group estimates. Borrows the updates and forms each ω from its base
/// and δ as its column is gathered: nothing model-sized is cloned or
/// built but the result. Empty input (never produced by the callers)
/// yields an empty vector.
fn robust_bootstrap<'a>(updates: impl Iterator<Item = &'a ClientUpdate> + Clone) -> Vector {
    let trim = updates.clone().count() / 4;
    asyncfl_tensor::stats::trimmed_mean_vector(updates, trim).unwrap_or_else(|| Vector::zeros(0))
}

/// Per-staleness-group moving-average state.
#[derive(Debug, Clone, PartialEq)]
struct GroupState {
    ma: Vector,
    absorbed: u64,
    /// Cached `‖ma‖²`, refreshed once per pass that absorbs into the group,
    /// from the pass's last absorb. It is bit-identical to
    /// `ma.norm_squared()` recomputed fresh (same data, same lane order),
    /// so eq. 6 distances built from it match the uncached path exactly
    /// (DESIGN.md §10). Nothing reads it between two absorbs of one pass:
    /// the pass scores every update before it absorbs any.
    norm_sq: f64,
}

/// Buffers reused across `filter` passes so the steady-state hot path
/// allocates nothing: sized once for the largest buffer seen, then recycled.
#[derive(Debug, Clone, PartialEq, Default)]
struct Scratch {
    /// Per-update staleness-group key (eq. 4).
    keys: Vec<u64>,
    /// Sorted, deduplicated group keys.
    uniq: Vec<u64>,
    dist_sq: Vec<f64>,
    dist: Vec<f64>,
    scores: Vec<f64>,
    /// Flat (group × update) squared-distance matrix for `CrossGroup`.
    cross: Vec<f64>,
    /// Non-top-cluster scores feeding the separation gate's median.
    rest: Vec<f64>,
    /// Indices of the updates a pass absorbs, grouped by staleness group
    /// and in buffer order within each group.
    absorbs: Vec<usize>,
    /// One group's eq. 6 distances, in member order.
    dots: Vec<f64>,
    /// The same members' `‖ω‖²`, from the same sweep.
    norms: Vec<f64>,
}

/// The AsyncFilter server module.
///
/// Stateful across rounds: it owns one moving-average estimate per staleness
/// group (eq. 5). Create one per training run.
///
/// Every eq. 6 distance is computed inside the `filter` pass, as in the
/// paper's Algorithm 1: the server hands over the buffer when it
/// aggregates, and the pass scores all of it (DESIGN.md §10).
#[derive(Debug, Clone, PartialEq)]
pub struct AsyncFilter {
    config: AsyncFilterConfig,
    groups: BTreeMap<u64, GroupState>,
    last_scores: Vec<ScoreRecord>,
    scratch: Scratch,
    /// Lifetime count of eq. 6 distance evaluations; the span between two
    /// sink emissions becomes the `filter_distances_computed` telemetry
    /// counter.
    distances_computed: u64,
    distances_emitted: u64,
}

impl AsyncFilter {
    /// Creates the filter.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid; use
    /// [`AsyncFilterConfig::validate`] for a recoverable check.
    #[expect(
        clippy::panic,
        reason = "documented constructor contract; validate() is the recoverable path"
    )]
    pub fn new(config: AsyncFilterConfig) -> Self {
        if let Err(e) = config.validate() {
            panic!("invalid AsyncFilterConfig: {e}");
        }
        Self {
            config,
            groups: BTreeMap::new(),
            last_scores: Vec::new(),
            scratch: Scratch::default(),
            distances_computed: 0,
            distances_emitted: 0,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &AsyncFilterConfig {
        &self.config
    }

    /// Scores assigned in the most recent `filter` call (empty before the
    /// first call or when the buffer was too small to cluster).
    pub fn last_scores(&self) -> &[ScoreRecord] {
        &self.last_scores
    }

    /// Number of staleness groups with live estimates.
    pub fn tracked_groups(&self) -> usize {
        self.groups.len()
    }

    /// Lifetime count of eq. 6 distance evaluations. A clustered pass over
    /// `n` scorable updates adds exactly `n` under `Global` and
    /// `WithinGroup` normalization, and `g·n` under `CrossGroup` with
    /// `g > 1` staleness groups in the buffer.
    pub fn distances_computed(&self) -> u64 {
        self.distances_computed
    }

    fn group_key(&self, staleness: u64) -> u64 {
        staleness / self.config.staleness_bucket
    }

    /// Absorbs `finite[i]` for every `i` in `absorbs` into its group's
    /// estimate (eq. 5), in buffer order within each group, and refreshes
    /// each touched group's cached `‖MA‖²` (DESIGN.md §10). Leaves
    /// `absorbs` empty, its capacity kept for the next pass.
    ///
    /// A group's absorbs are one [`lerp_chain_norm_squared`] sweep over its
    /// estimate: block by block, every absorb in turn, so the estimate is
    /// read and written once per pass rather than once per update. Each
    /// coordinate takes the same steps as absorbing the updates one at a
    /// time, so the estimate is bit-identical to doing that:
    ///
    /// 1. **Adopt** — an EMA group's first absorb ever copies `ω`. The
    ///    cached norm, when this is the pass's last absorb into the group,
    ///    then equals the update's cached `‖ω‖²` (same data, same lanes).
    ///    Robbins–Monro deliberately keeps lerping on its cold start: its
    ///    blend `0·m + 1·ω` can flip a `−0.0` coordinate to `+0.0`, so
    ///    adopting would not be bit-identical to the historical behavior.
    /// 2. **Lerp** — `MA ← (1−t)·MA + t·ω`, with `t` from the group's
    ///    absorb count at that update.
    ///
    /// Only the group's last absorb accumulates `‖MA‖²`.
    fn absorb(&mut self, finite: &[ClientUpdate], absorbs: &mut Vec<usize>) {
        let bucket = self.config.staleness_bucket;
        let ma_mode = self.config.ma_mode;
        let key_of = |i: usize| finite.get(i).map_or(0, |u| u.staleness / bucket);
        // (key, index) orders groups ascending and keeps buffer order
        // inside each; an unstable sort on a unique key allocates nothing.
        absorbs.sort_unstable_by_key(|&i| (key_of(i), i));
        for run in absorbs.chunk_by(|&a, &b| key_of(a) == key_of(b)) {
            let members = run.iter().filter_map(|&i| finite.get(i));
            let Some(first) = members.clone().next() else {
                continue;
            };
            let state = self
                .groups
                .entry(first.staleness / bucket)
                .or_insert_with(|| GroupState {
                    ma: Vector::zeros(first.delta.len()),
                    absorbed: 0,
                    norm_sq: 0.0,
                });
            let before = state.absorbed;
            let steps = members.clone().zip(before..).map(|(u, absorbed)| {
                let t = match ma_mode {
                    MovingAverageMode::RobbinsMonro => Some(1.0 / (absorbed as f64 + 1.0)),
                    MovingAverageMode::Ema { .. } if absorbed == 0 => None,
                    MovingAverageMode::Ema { beta } => Some(beta),
                };
                (u.as_summed(), t)
            });
            state.norm_sq = lerp_chain_norm_squared(state.ma.as_mut_slice(), steps);
            state.absorbed += run.len() as u64;
        }
        absorbs.clear();
    }

    /// Bootstrap estimates for groups without history, keyed ascending.
    ///
    /// A group with history is scored against its running MA, borrowed from
    /// `self.groups` at the use site: cloning it would copy a model-sized
    /// vector per group per pass. A brand-new group gets the
    /// coordinate-wise **25%-trimmed mean** of its current updates (a
    /// robust bootstrap — a plain mean would be dragged toward any attacker
    /// present in the very first batch, while a median can be captured by
    /// identical colluding updates once they reach half the group). A
    /// brand-new *singleton* group has no meaningful self-estimate (it
    /// would score itself zero and let a lone attacker at an unseen
    /// staleness level sail through); such groups are scored against the
    /// trimmed mean over the whole buffer instead.
    fn bootstrap_estimates(
        &self,
        uniq: &[u64],
        keys: &[u64],
        updates: &[ClientUpdate],
    ) -> Vec<(u64, Vector, f64)> {
        let mut boot = Vec::new();
        let mut buffer_median: Option<Vector> = None;
        for &key in uniq {
            if self.groups.contains_key(&key) {
                continue;
            }
            let members = keys.iter().filter(|&&k| k == key).count();
            let est = if members >= 2 {
                robust_bootstrap(
                    keys.iter()
                        .zip(updates)
                        .filter(move |(&k, _)| k == key)
                        .map(|(_, u)| u),
                )
            } else {
                buffer_median
                    .get_or_insert_with(|| robust_bootstrap(updates.iter()))
                    .clone()
            };
            let norm_sq = est.norm_squared();
            boot.push((key, est, norm_sq));
        }
        boot
    }

    /// Eq. 4–6 for one pass: fills `scr.keys` and `scr.uniq` (staleness
    /// groups), `scr.dist_sq` (each update's squared distance to its own
    /// group's estimate) and, for a multi-group `CrossGroup` pass,
    /// `scr.cross` (its squared distance to every estimate). Returns the
    /// number of distances evaluated.
    ///
    /// A non-finite `dist_sq[i]` marks update `i` as one the pass cannot
    /// normalize: its own distance overflowed f64, or under `CrossGroup`
    /// its distances to the estimates did, alone or summed into its own
    /// eq. 7 denominator. Shared denominators (`Global`, `WithinGroup`)
    /// cannot be charged to one update; [`root_sum_sq`] rescales them.
    fn measure(
        &self,
        finite: &mut [ClientUpdate],
        scr: &mut Scratch,
        ctx: &FilterContext<'_>,
    ) -> u64 {
        let n = finite.len();
        // Eq. 4: per-update staleness-bucket keys plus the sorted unique
        // key list, in reused buffers rather than a per-pass map.
        scr.keys.clear();
        for u in finite.iter() {
            let key = self.group_key(u.staleness);
            scr.keys.push(key);
        }
        scr.uniq.clear();
        scr.uniq.extend_from_slice(&scr.keys);
        scr.uniq.sort_unstable();
        scr.uniq.dedup();

        // Estimates to score against (pre-update; see module docs): live
        // groups are borrowed in place, history-less groups bootstrapped
        // from the current buffer. `ests` is aligned with `scr.uniq`.
        let boot = {
            let fresh = scr.uniq.iter().any(|k| !self.groups.contains_key(k));
            let _span = fresh.then(|| Span::start(ctx.sink, "bootstrap"));
            self.bootstrap_estimates(&scr.uniq, &scr.keys, finite)
        };
        let mut ests: Vec<(&Vector, f64)> = Vec::with_capacity(scr.uniq.len());
        {
            let mut bi = 0;
            for &key in &scr.uniq {
                if let Some(state) = self.groups.get(&key) {
                    ests.push((&state.ma, state.norm_sq));
                } else {
                    #[expect(
                        clippy::indexing_slicing,
                        reason = "bootstrap_estimates emits one entry per non-live key, in the same ascending order walked here"
                    )]
                    let (bk, ma, norm_sq) = &boot[bi];
                    debug_assert_eq!(*bk, key);
                    bi += 1;
                    ests.push((ma, *norm_sq));
                }
            }
        }

        // Eq. 6: per-update squared distance to its own group estimate,
        // each a single dot product via the cached norms, one blocked
        // sweep per group.
        scr.dist_sq.clear();
        scr.dist_sq.resize(n, 0.0);
        for (gi, &key) in scr.uniq.iter().enumerate() {
            #[expect(clippy::indexing_slicing, reason = "ests is aligned with uniq")]
            let (own, own_norm_sq) = ests[gi];
            let keys = &scr.keys;
            let own_group = |i| keys.get(i) == Some(&key);
            eq6_into(
                finite,
                own_group,
                own,
                own_norm_sq,
                &mut scr.dots,
                &mut scr.norms,
            );
            let mut dots = scr.dots.iter();
            for (d, _) in scr.dist_sq.iter_mut().zip(keys).filter(|&(_, &k)| k == key) {
                *d = dots.next().copied().unwrap_or(f64::NAN);
            }
        }
        let g = scr.uniq.len();
        if self.config.score_normalization != ScoreNormalization::CrossGroup || g == 1 {
            return n as u64;
        }
        // Per-(group, update) squared-distance matrix in a flat reused
        // buffer: own-group entries are exactly `dist_sq`, every other
        // entry is one dot product, swept per group like the own-group
        // distances.
        scr.cross.clear();
        scr.cross.resize(g * n, 0.0);
        for (gi, &key) in scr.uniq.iter().enumerate() {
            #[expect(clippy::indexing_slicing, reason = "ests is aligned with uniq")]
            let (ma, ma_norm_sq) = ests[gi];
            let keys = &scr.keys;
            let others = |i| keys.get(i).is_some_and(|&k| k != key);
            eq6_into(
                finite,
                others,
                ma,
                ma_norm_sq,
                &mut scr.dots,
                &mut scr.norms,
            );
            let mut dots = scr.dots.iter();
            let row = scr.cross.chunks_exact_mut(n).nth(gi).unwrap_or_default();
            for ((c, &k), &own) in row.iter_mut().zip(keys).zip(&scr.dist_sq) {
                *c = if k == key {
                    own
                } else {
                    dots.next().copied().unwrap_or(f64::NAN)
                };
            }
        }
        for (i, d) in scr.dist_sq.iter_mut().enumerate() {
            #[expect(clippy::indexing_slicing, reason = "cross is sized to g·n")]
            if !sum_seq((0..g).map(|r| scr.cross[r * n + i])).is_finite() {
                *d = f64::NAN;
            }
        }
        (g * n) as u64
    }

    /// Emits the distance-evaluation count accumulated since the previous
    /// emission.
    fn emit_counters(&mut self, ctx: &FilterContext<'_>) {
        if let Some(sink) = ctx.sink {
            let delta = self.distances_computed - self.distances_emitted;
            if delta > 0 {
                sink.emit(&asyncfl_telemetry::Event::CounterAdd {
                    name: "filter_distances_computed",
                    delta,
                });
                self.distances_emitted = self.distances_computed;
            }
        }
    }
}

impl UpdateFilter for AsyncFilter {
    fn name(&self) -> &str {
        "AsyncFilter"
    }

    fn last_scores(&self) -> &[ScoreRecord] {
        &self.last_scores
    }

    fn filter(&mut self, updates: Vec<ClientUpdate>, ctx: &FilterContext<'_>) -> FilterOutcome {
        self.last_scores.clear();
        let mut outcome = FilterOutcome::default();
        if updates.is_empty() {
            return outcome;
        }

        // Sanitize: updates that cannot be scored are trivially poisoned.
        // Scorable buffers (the steady state) keep their Vec as-is; the
        // partition allocation only happens when something is actually
        // broken.
        let (mut finite, broken): (Vec<ClientUpdate>, Vec<ClientUpdate>) =
            if updates.iter().all(scorable) {
                (updates, Vec::new())
            } else {
                updates.into_iter().partition(scorable)
            };
        outcome.rejected.extend(broken);

        let mut scr = std::mem::take(&mut self.scratch);
        // Eq. 4–6, measured again without any update whose distances f64
        // cannot hold (finite coordinates whose distance to an estimate
        // overflows): those are rejected, and the estimates bootstrapped
        // from the buffer are rebuilt without them.
        loop {
            if finite.len() < self.config.min_updates {
                // Too few points to cluster meaningfully; absorb and accept.
                scr.absorbs.reserve(finite.len());
                scr.absorbs.extend(0..finite.len());
                {
                    let _span = Span::start(ctx.sink, "absorb");
                    self.absorb(&finite, &mut scr.absorbs);
                }
                outcome.accepted.append(&mut finite);
                self.scratch = scr;
                self.emit_counters(ctx);
                return outcome;
            }
            self.distances_computed += self.measure(&mut finite, &mut scr, ctx);
            if scr.dist_sq.iter().all(|d| d.is_finite()) {
                break;
            }
            let mut measured = scr.dist_sq.iter();
            let (kept, overflowed): (Vec<ClientUpdate>, Vec<ClientUpdate>) = finite
                .into_iter()
                .partition(|_| measured.next().is_some_and(|d| d.is_finite()));
            outcome.rejected.extend(overflowed);
            finite = kept;
        }

        let n = finite.len();
        scr.dist.clear();
        scr.dist.extend(scr.dist_sq.iter().map(|d| d.sqrt()));
        // Eq. 7: normalization into suspicious scores. The denominators are
        // root-sum-of-squares over the cached `dist_sq`, re-reduced in
        // buffer order every pass — O(Ω) flops on already-computed scalars,
        // so caching partial sums would save nothing and cost bit-drift.
        scr.scores.clear();
        scr.scores.resize(n, 0.0);
        match self.config.score_normalization {
            ScoreNormalization::CrossGroup if scr.uniq.len() > 1 => {
                // The denominators are the column sums of the (group ×
                // update) matrix `measure` filled, rows in ascending group
                // key order.
                let g = scr.uniq.len();
                for i in 0..n {
                    #[expect(clippy::indexing_slicing, reason = "cross is sized to g·n")]
                    let denom = root_sum_sq((0..g).map(|r| scr.cross[r * n + i]));
                    if denom > 0.0 {
                        #[expect(
                            clippy::indexing_slicing,
                            reason = "scores and dist are sized to n"
                        )]
                        let (dist, score) = (scr.dist[i], &mut scr.scores[i]);
                        *score = dist / denom;
                    }
                }
            }
            ScoreNormalization::WithinGroup => {
                for &key in &scr.uniq {
                    let denom = root_sum_sq(
                        scr.keys
                            .iter()
                            .zip(&scr.dist_sq)
                            .filter(|&(&k, _)| k == key)
                            .map(|(_, &d)| d),
                    );
                    if denom > 0.0 {
                        for i in 0..n {
                            #[expect(clippy::indexing_slicing, reason = "keys is sized to n")]
                            let in_group = scr.keys[i] == key;
                            if in_group {
                                #[expect(
                                    clippy::indexing_slicing,
                                    reason = "scores and dist are sized to n"
                                )]
                                let (dist, score) = (scr.dist[i], &mut scr.scores[i]);
                                *score = dist / denom;
                            }
                        }
                        // Eq. 7 invariant, per group: unit-norm score slice.
                        debug_assert!(
                            (scr.keys
                                .iter()
                                .zip(&scr.scores)
                                .filter(|&(&k, _)| k == key)
                                .map(|(_, &s)| s * s)
                                .sum::<f64>()
                                - 1.0)
                                .abs()
                                < 1e-6,
                            "eq. 7 within-group normalization lost unit norm"
                        );
                    }
                }
            }
            // `CrossGroup` over a single group degenerates to score = 1
            // for everyone; it falls back to the global reading so
            // ordering survives.
            ScoreNormalization::Global | ScoreNormalization::CrossGroup => {
                let denom = root_sum_sq(scr.dist_sq.iter().copied());
                if denom > 0.0 {
                    for (s, &d) in scr.scores.iter_mut().zip(&scr.dist) {
                        *s = d / denom;
                    }
                    // Eq. 7 invariant: the score vector is unit-norm.
                    debug_assert!(
                        (scr.scores.iter().map(|s| s * s).sum::<f64>() - 1.0).abs() < 1e-6,
                        "eq. 7 global normalization lost unit norm"
                    );
                }
            }
        }

        for ((u, &key), &score) in finite.iter().zip(&scr.keys).zip(&scr.scores) {
            self.last_scores.push(ScoreRecord {
                client: u.client,
                staleness: u.staleness,
                group: key,
                score,
                truth_malicious: u.truth_malicious,
            });
        }

        // 3-means attacker identification over the scalar scores.
        let clustering = {
            let _span = Span::start(ctx.sink, "kmeans_1d");
            kmeans_1d(&scr.scores, self.config.clusters)
        };
        let reject_cluster = clustering.highest_cluster();
        let accept_cluster = clustering.lowest_cluster();
        // Clustering discriminates nothing when the extreme centroids
        // coincide (e.g. all scores zero in a perfectly tight cloud).
        // The separation gate additionally declares the round attacker-free
        // when the top cluster does not stand out from the middle at least
        // `min_separation` times as much as the middle stands out from the
        // bottom — a benign score continuum produces comparable gaps, an
        // actual poisoning cluster produces a dominant top gap.
        #[expect(clippy::indexing_slicing, reason = "cluster ids index centroids")]
        let c_top = clustering.centroids[reject_cluster];
        #[expect(clippy::indexing_slicing, reason = "cluster ids index centroids")]
        let c_low = clustering.centroids[accept_cluster];
        // Gate reference: the median score of the *non-top* clusters. Using
        // the overall median would let a large attacker cohort (e.g. the
        // doubled-attacker study, 40 %) drag the reference up and mask
        // itself; excluding the top cluster keeps the reference benign for
        // any attacker share below the remaining majority.
        scr.rest.clear();
        scr.rest.extend(
            scr.scores
                .iter()
                .zip(&clustering.assignments)
                .filter(|(_, &a)| a != reject_cluster)
                .map(|(&s, _)| s),
        );
        let reference = if scr.rest.is_empty() {
            asyncfl_tensor::stats::median(&scr.scores)
        } else {
            asyncfl_tensor::stats::median(&scr.rest)
        };
        let gated = self.config.min_separation > 0.0
            && ctx.round >= self.config.gate_warmup_rounds
            && c_top < self.config.min_separation * reference.max(f64::MIN_POSITIVE);
        let degenerate = reject_cluster == accept_cluster || (c_top - c_low).abs() < 1e-12;

        // Update estimates *after* scoring. Top-cluster members are never
        // absorbed unless the clustering is truly non-discriminating: even
        // when the separation gate tolerates them for aggregation, letting
        // them into the moving average would poison the reference and erase
        // the very separation the gate is waiting for.
        scr.absorbs.reserve(finite.len());
        scr.absorbs.extend(
            clustering
                .assignments
                .iter()
                .enumerate()
                .filter(|&(_, &a)| degenerate || a != reject_cluster)
                .map(|(i, _)| i),
        );
        {
            let _span = Span::start(ctx.sink, "absorb");
            self.absorb(&finite, &mut scr.absorbs);
        }

        self.scratch = scr;
        self.emit_counters(ctx);

        if degenerate || gated {
            outcome.accepted.extend(finite);
            return outcome;
        }

        for (u, &c) in finite.into_iter().zip(&clustering.assignments) {
            if c == reject_cluster {
                outcome.rejected.push(u);
            } else if c == accept_cluster {
                outcome.accepted.push(u);
            } else {
                match self.config.middle_policy {
                    MiddlePolicy::Accept => outcome.accepted.push(u),
                    MiddlePolicy::Defer if u.defers == 0 => {
                        let mut u = u;
                        u.defers += 1;
                        outcome.deferred.push(u);
                    }
                    MiddlePolicy::Defer => outcome.accepted.push(u),
                    MiddlePolicy::Reject => outcome.rejected.push(u),
                }
            }
        }
        outcome
    }
}

impl Default for AsyncFilter {
    fn default() -> Self {
        Self::new(AsyncFilterConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn upd(client: usize, staleness: u64, params: &[f64], malicious: bool) -> ClientUpdate {
        ClientUpdate::new(client, 0, staleness, Vector::from(params), 10)
            .with_truth_malicious(malicious)
    }

    fn ctx_with(global: &Vector) -> FilterContext<'_> {
        FilterContext::new(1, global, 20)
    }

    /// Nine tight benign updates + one far outlier, single staleness group.
    fn outlier_scenario() -> Vec<ClientUpdate> {
        let mut updates: Vec<ClientUpdate> = (0..9)
            .map(|i| upd(i, 0, &[1.0 + 0.05 * i as f64, 2.0 - 0.05 * i as f64], false))
            .collect();
        updates.push(upd(9, 0, &[-30.0, 40.0], true));
        updates
    }

    #[test]
    fn rejects_obvious_outlier_single_group() {
        let mut f = AsyncFilter::default();
        let g = Vector::zeros(2);
        let out = f.filter(outlier_scenario(), &ctx_with(&g));
        assert!(out.rejected.iter().any(|u| u.client == 9), "outlier kept");
        assert!(
            out.rejected.iter().all(|u| u.client == 9),
            "benign rejected"
        );
        let (tp, fp, _, _) = out.confusion();
        assert_eq!((tp, fp), (1, 0));
    }

    #[test]
    fn accepts_everything_in_benign_tight_cloud() {
        // With no attacker the highest cluster may still exist, but rejecting
        // a couple of benign updates must not be the common case for a tight
        // cloud across rounds. Here we check the degenerate identical case.
        let mut f = AsyncFilter::default();
        let g = Vector::zeros(2);
        let updates: Vec<ClientUpdate> = (0..8).map(|i| upd(i, 0, &[1.0, 2.0], false)).collect();
        let out = f.filter(updates, &ctx_with(&g));
        assert_eq!(out.accepted.len(), 8);
        assert!(out.rejected.is_empty());
    }

    #[test]
    fn small_buffers_bypass_clustering() {
        let mut f = AsyncFilter::default();
        let g = Vector::zeros(1);
        let updates = vec![upd(0, 0, &[1.0], false), upd(1, 0, &[100.0], true)];
        let out = f.filter(updates, &ctx_with(&g));
        assert_eq!(out.accepted.len(), 2);
        assert!(f.tracked_groups() >= 1);
    }

    #[test]
    fn nonfinite_updates_always_rejected() {
        let mut f = AsyncFilter::default();
        let g = Vector::zeros(1);
        let updates = vec![
            upd(0, 0, &[1.0], false),
            upd(1, 0, &[f64::NAN], true),
            upd(2, 0, &[f64::INFINITY], true),
        ];
        let out = f.filter(updates, &ctx_with(&g));
        assert_eq!(out.rejected.len(), 2);
        assert!(out.rejected.iter().all(|u| u.truth_malicious));
    }

    #[test]
    fn overflowing_norm_is_rejected_not_scored_benign() {
        // Finite coordinates whose ‖ω‖² overflows: the eq. 6 identity
        // computes inf − inf = NaN, and the distance clamp would turn that
        // into 0.0, the most benign score in the buffer.
        let mut updates: Vec<ClientUpdate> = (0..9)
            .map(|i| upd(i, 0, &[1.0 + 0.05 * i as f64, 2.0 - 0.05 * i as f64], false))
            .collect();
        updates.push(upd(9, 0, &[1e308, 1e308], true));
        assert!(updates[9].delta.is_finite());
        assert!(updates[9].params_norm_squared().is_infinite());

        let mut f = AsyncFilter::default();
        let g = Vector::zeros(2);
        let out = f.filter(updates, &ctx_with(&g));
        assert!(out.rejected.iter().any(|u| u.client == 9), "overflow kept");
        assert!(out.accepted.iter().all(|u| u.client != 9));
        assert!(f.last_scores().iter().all(|s| s.client != 9));
        assert!(f
            .groups
            .values()
            .all(|s| s.ma.is_finite() && s.norm_sq.is_finite()));
    }

    #[test]
    fn staleness_groups_isolate_scales() {
        // Two staleness groups whose centers differ hugely (stale models lag
        // behind). A staleness-unaware defense would flag the whole stale
        // group; AsyncFilter must keep benign members of both groups.
        let mut f = AsyncFilter::default();
        let g = Vector::zeros(2);
        let mut updates = Vec::new();
        for i in 0..6 {
            updates.push(upd(i, 0, &[10.0 + 0.1 * i as f64, 0.0], false));
        }
        for i in 6..12 {
            updates.push(upd(i, 3, &[0.0, 10.0 + 0.1 * i as f64], false));
        }
        // One attacker inside the stale group.
        updates.push(upd(12, 3, &[0.0, -50.0], true));
        let out = f.filter(updates, &ctx_with(&g));
        assert!(out.rejected.iter().any(|u| u.client == 12));
        let benign_rejected = out.rejected.iter().filter(|u| !u.truth_malicious).count();
        assert_eq!(benign_rejected, 0, "{:?}", out.rejected);
    }

    #[test]
    fn moving_average_persists_across_rounds() {
        let mut f = AsyncFilter::default();
        let g = Vector::zeros(1);
        // Round 1: benign updates near 1.0 build the estimate.
        let updates: Vec<ClientUpdate> = (0..6)
            .map(|i| upd(i, 0, &[1.0 + 0.01 * i as f64], false))
            .collect();
        let _ = f.filter(updates, &ctx_with(&g));
        assert_eq!(f.tracked_groups(), 1);
        // Round 2: a colluding minority at 5.0 should look suspicious
        // relative to the remembered estimate even though it is a large
        // fraction of the buffer (the gate's median assumption holds for
        // attacker shares below one half).
        let mut round2: Vec<ClientUpdate> = (0..3).map(|i| upd(i, 0, &[5.0], true)).collect();
        round2.extend((3..8).map(|i| upd(i, 0, &[1.0 + 0.01 * i as f64], false)));
        let out = f.filter(round2, &ctx_with(&g));
        let rejected_malicious = out.rejected.iter().filter(|u| u.truth_malicious).count();
        assert!(rejected_malicious >= 2, "history ignored: {out:?}");
    }

    #[test]
    fn middle_policy_variants() {
        // Three well-separated score tiers: tight benign, mild deviators,
        // extreme attacker.
        let build = |policy: MiddlePolicy| {
            AsyncFilter::new(AsyncFilterConfig {
                middle_policy: policy,
                ..AsyncFilterConfig::default()
            })
        };
        let updates = || {
            let mut u: Vec<ClientUpdate> = (0..6)
                .map(|i| upd(i, 0, &[1.0 + 0.01 * i as f64, 1.0], false))
                .collect();
            u.push(upd(6, 0, &[3.0, 1.5], false)); // mild deviator (non-IID-ish)
            u.push(upd(7, 0, &[3.1, 1.4], false));
            u.push(upd(8, 0, &[-60.0, 80.0], true)); // extreme
            u
        };
        let g = Vector::zeros(2);

        let out = build(MiddlePolicy::Defer).filter(updates(), &ctx_with(&g));
        assert!(!out.deferred.is_empty());
        assert!(out.rejected.iter().any(|u| u.client == 8));

        let out = build(MiddlePolicy::Accept).filter(updates(), &ctx_with(&g));
        assert!(out.deferred.is_empty());
        assert_eq!(out.accepted.len(), 8);

        let out = build(MiddlePolicy::Reject).filter(updates(), &ctx_with(&g));
        assert!(out.deferred.is_empty());
        assert!(out.rejected.len() >= 3);
    }

    #[test]
    fn two_means_rejects_more_than_three_means() {
        // The §5.7 ablation: 2-means lumps the middle (non-IID) tier in with
        // the top, over-rejecting benign updates. A warm-up round pins the
        // moving average at 1.0; then IID-benign sit near 0, non-IID benign
        // in the middle, and the attacker at the top of the score range.
        let warmup = || {
            (0..8)
                .map(|i| upd(i, 0, &[1.0 + 0.001 * i as f64], false))
                .collect::<Vec<_>>()
        };
        let round2 = || {
            let mut u: Vec<ClientUpdate> = (0..6)
                .map(|i| upd(i, 0, &[1.0 + 0.01 * i as f64], false))
                .collect();
            u.push(upd(6, 0, &[3.0], false)); // non-IID benign
            u.push(upd(7, 0, &[3.1], false)); // non-IID benign
            u.push(upd(8, 0, &[5.0], true)); // attacker
            u
        };
        let g = Vector::zeros(1);
        let mut three = AsyncFilter::new(AsyncFilterConfig {
            middle_policy: MiddlePolicy::Accept,
            ..AsyncFilterConfig::default()
        });
        let mut two = AsyncFilter::new(AsyncFilterConfig {
            middle_policy: MiddlePolicy::Accept,
            ..AsyncFilterConfig::two_means()
        });
        let _ = three.filter(warmup(), &ctx_with(&g));
        let _ = two.filter(warmup(), &ctx_with(&g));
        let out3 = three.filter(round2(), &ctx_with(&g));
        let out2 = two.filter(round2(), &ctx_with(&g));
        assert!(
            out2.rejected.len() > out3.rejected.len(),
            "2-means {} vs 3-means {}",
            out2.rejected.len(),
            out3.rejected.len()
        );
        // And the extra rejections are benign — the over-rejection the paper
        // warns about.
        assert!(out2.rejected.iter().any(|u| !u.truth_malicious));
        // 3-means keeps the non-IID benign clients.
        assert!(out3.accepted.iter().any(|u| u.client == 6));
    }

    #[test]
    fn scores_exposed_and_bounded() {
        let mut f = AsyncFilter::default();
        let g = Vector::zeros(2);
        let _ = f.filter(outlier_scenario(), &ctx_with(&g));
        let scores = f.last_scores();
        assert_eq!(scores.len(), 10);
        assert!(scores.iter().all(|s| (0.0..=1.0 + 1e-9).contains(&s.score)));
        // The attacker has the top score.
        let top = scores
            .iter()
            .max_by(|a, b| a.score.total_cmp(&b.score))
            .unwrap();
        assert!(top.truth_malicious);
    }

    #[test]
    fn rejected_updates_do_not_poison_the_estimate() {
        let mut f = AsyncFilter::default();
        let g = Vector::zeros(1);
        // Round 1: establishes estimate near 1.0 and rejects the outlier.
        let mut updates: Vec<ClientUpdate> = (0..8)
            .map(|i| upd(i, 0, &[1.0 + 0.01 * i as f64], false))
            .collect();
        updates.push(upd(8, 0, &[1000.0], true));
        let _ = f.filter(updates, &ctx_with(&g));
        // Round 2: the same outlier must still be far from the estimate.
        let mut round2: Vec<ClientUpdate> = (0..8)
            .map(|i| upd(i, 0, &[1.0 + 0.01 * i as f64], false))
            .collect();
        round2.push(upd(8, 0, &[1000.0], true));
        let out = f.filter(round2, &ctx_with(&g));
        assert!(out.rejected.iter().any(|u| u.client == 8));
    }

    #[test]
    fn empty_input_is_empty_outcome() {
        let mut f = AsyncFilter::default();
        let g = Vector::zeros(1);
        let out = f.filter(Vec::new(), &ctx_with(&g));
        assert!(out.is_empty());
        assert!(f.last_scores().is_empty());
    }

    #[test]
    fn config_validation() {
        assert!(AsyncFilterConfig::default().validate().is_ok());
        assert!(AsyncFilterConfig {
            clusters: 1,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(AsyncFilterConfig {
            staleness_bucket: 0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(AsyncFilterConfig {
            ma_mode: MovingAverageMode::Ema { beta: 0.0 },
            ..Default::default()
        }
        .validate()
        .is_err());
        assert_eq!(AsyncFilterConfig::two_means().clusters, 2);
    }

    #[test]
    #[should_panic(expected = "invalid AsyncFilterConfig")]
    fn invalid_config_panics_on_construction() {
        let _ = AsyncFilter::new(AsyncFilterConfig {
            clusters: 0,
            ..Default::default()
        });
    }

    #[test]
    fn ema_mode_tracks_faster_than_robbins_monro() {
        let mk = |mode| {
            AsyncFilter::new(AsyncFilterConfig {
                ma_mode: mode,
                min_updates: 1,
                ..AsyncFilterConfig::default()
            })
        };
        let g = Vector::zeros(1);
        let mut rm = mk(MovingAverageMode::RobbinsMonro);
        let mut ema = mk(MovingAverageMode::Ema { beta: 0.5 });
        // Feed a drifting sequence; EMA's final estimate should be closer to
        // the latest value. We read the estimate indirectly through scores.
        for round in 0..20 {
            let v = round as f64;
            let updates = vec![
                upd(0, 0, &[v], false),
                upd(1, 0, &[v], false),
                upd(2, 0, &[v], false),
                upd(3, 0, &[v], false),
            ];
            let _ = rm.filter(updates.clone(), &ctx_with(&g));
            let _ = ema.filter(updates, &ctx_with(&g));
        }
        // Probe: an update at the latest value should score lower under EMA.
        let probe = vec![
            upd(0, 0, &[19.0], false),
            upd(1, 0, &[19.0], false),
            upd(2, 0, &[19.0], false),
            upd(3, 0, &[0.0], false),
        ];
        let _ = rm.filter(probe.clone(), &ctx_with(&g));
        let rm_scores: Vec<f64> = rm.last_scores().iter().map(|s| s.score).collect();
        let _ = ema.filter(probe, &ctx_with(&g));
        let ema_scores: Vec<f64> = ema.last_scores().iter().map(|s| s.score).collect();
        // Under EMA, the stale probe (client 3 at 0.0) is relatively more
        // anomalous than under the slow Robbins–Monro estimate.
        assert!(ema_scores[3] >= rm_scores[3] - 1e-9);
    }

    #[test]
    fn staleness_bucketing_pools_groups() {
        let mut f = AsyncFilter::new(AsyncFilterConfig {
            staleness_bucket: 5,
            ..AsyncFilterConfig::default()
        });
        let g = Vector::zeros(1);
        let updates = vec![
            upd(0, 0, &[1.0], false),
            upd(1, 2, &[1.0], false),
            upd(2, 4, &[1.0], false),
            upd(3, 7, &[1.0], false),
        ];
        let _ = f.filter(updates, &ctx_with(&g));
        // τ ∈ {0,2,4} pool into bucket 0; τ=7 into bucket 1.
        assert_eq!(f.tracked_groups(), 2);
    }

    #[test]
    fn defer_once_then_accept() {
        // An update deferred once must be accepted (not re-deferred) when it
        // lands in the middle cluster again.
        let mut f = AsyncFilter::new(AsyncFilterConfig {
            min_separation: 0.0,
            ..AsyncFilterConfig::default()
        });
        let g = Vector::zeros(1);
        let make = || {
            let mut u: Vec<ClientUpdate> = (0..6)
                .map(|i| upd(i, 0, &[1.0 + 0.01 * i as f64], false))
                .collect();
            u.push(upd(6, 0, &[3.0], false)); // middle tier
            u.push(upd(7, 0, &[3.1], false));
            u.push(upd(8, 0, &[9.0], true)); // top tier
            u
        };
        let out1 = f.filter(make(), &ctx_with(&g));
        assert!(!out1.deferred.is_empty(), "{out1:?}");
        assert!(out1.deferred.iter().all(|u| u.defers == 1));
        // Re-present the deferred updates in an identical second buffer.
        let mut second = make();
        for d in &out1.deferred {
            let mut again = d.clone();
            again.client += 100; // fresh identity, deferred flag retained
            second.push(again);
        }
        let out2 = f.filter(second, &ctx_with(&g));
        // None of the re-presented (defers == 1) updates may be deferred again.
        assert!(
            out2.deferred
                .iter()
                .all(|u| u.defers == 1 && u.client < 100),
            "re-deferred an already-deferred update: {out2:?}"
        );
    }

    #[test]
    fn gate_reference_survives_large_attacker_cohort() {
        // 40% identical attackers must not mask themselves by dragging the
        // gate's reference score up (the non-top-cluster median ignores the
        // top cluster).
        let mut f = AsyncFilter::new(AsyncFilterConfig {
            min_separation: 2.0,
            ..AsyncFilterConfig::default()
        });
        let g = Vector::zeros(1);
        // Warm-up to establish the estimate.
        let warm: Vec<ClientUpdate> = (0..10)
            .map(|i| upd(i, 0, &[1.0 + 0.01 * i as f64], false))
            .collect();
        let _ = f.filter(warm, &ctx_with(&g));
        // 6 benign near 1.0, 4 attackers far away.
        let mut round: Vec<ClientUpdate> = (0..6)
            .map(|i| upd(i, 0, &[1.0 + 0.01 * i as f64], false))
            .collect();
        round.extend((6..10).map(|i| upd(i, 0, &[30.0], true)));
        let out = f.filter(round, &ctx_with(&g));
        let (tp, fp, _, _) = out.confusion();
        assert!(tp >= 3, "large cohort escaped: {out:?}");
        assert_eq!(fp, 0);
    }

    #[test]
    fn gate_warmup_forces_strict_rejection_early() {
        let mut strict = AsyncFilter::new(AsyncFilterConfig {
            min_separation: 1e9, // gate would otherwise always tolerate
            gate_warmup_rounds: 5,
            ..AsyncFilterConfig::default()
        });
        let g = Vector::zeros(1);
        let make = || {
            let mut u: Vec<ClientUpdate> = (0..8)
                .map(|i| upd(i, 0, &[1.0 + 0.01 * i as f64], false))
                .collect();
            u.push(upd(8, 0, &[50.0], true));
            u
        };
        // Round 0 (< warmup): top cluster rejected despite the huge gate.
        let early = strict.filter(make(), &FilterContext::new(0, &g, 20));
        assert!(!early.rejected.is_empty());
        // Round 9 (>= warmup): the impossible gate tolerates everything.
        let late = strict.filter(make(), &FilterContext::new(9, &g, 20));
        assert!(late.rejected.is_empty(), "{late:?}");
    }

    #[test]
    fn name_is_asyncfilter() {
        assert_eq!(AsyncFilter::default().name(), "AsyncFilter");
    }

    /// Regression for the cached group norm: on every absorb path
    /// (EMA cold adoption, fused warm lerp+reduce, and both Robbins–Monro
    /// paths) the cached `‖MA‖²` must be bit-identical
    /// to a fresh reduction over the estimate, for every tracked group,
    /// after every round.
    #[test]
    fn cached_norm_is_bit_identical_on_every_path() {
        for ma_mode in [
            MovingAverageMode::default(),
            MovingAverageMode::RobbinsMonro,
        ] {
            let mut f = AsyncFilter::new(AsyncFilterConfig {
                ma_mode,
                ..AsyncFilterConfig::default()
            });
            let g = Vector::zeros(2);
            for round in 0..5u64 {
                let updates: Vec<ClientUpdate> = (0..10)
                    .map(|i| {
                        let v = 1.0 + 0.05 * i as f64 - 0.3 * round as f64;
                        upd(i, (i % 3) as u64, &[v, -0.125 * v], false)
                    })
                    .collect();
                let _ = f.filter(updates, &ctx_with(&g));
                for (key, state) in &f.groups {
                    assert_eq!(
                        state.norm_sq.to_bits(),
                        state.ma.norm_squared().to_bits(),
                        "cached ‖MA‖² drifted for group {key} in round {round} ({ma_mode:?})"
                    );
                }
            }
        }
    }

    /// The per-update absorb the grouped sweep replaced: an EMA group's
    /// first absorb adopts `ω` and its cached norm; every other absorb is
    /// one fused lerp over the whole estimate, in buffer order.
    fn absorb_one_at_a_time(
        groups: &mut BTreeMap<u64, GroupState>,
        ma_mode: MovingAverageMode,
        u: &ClientUpdate,
    ) {
        let params = u.params().expect("a test update carries ω");
        let state = groups.entry(u.staleness).or_insert_with(|| GroupState {
            ma: Vector::zeros(params.len()),
            absorbed: 0,
            norm_sq: 0.0,
        });
        let t = match ma_mode {
            MovingAverageMode::RobbinsMonro => 1.0 / (state.absorbed as f64 + 1.0),
            MovingAverageMode::Ema { beta } => beta,
        };
        if state.absorbed == 0 && matches!(ma_mode, MovingAverageMode::Ema { .. }) {
            state.ma.copy_from(&params);
            state.norm_sq = u.params_norm_squared();
        } else {
            state.norm_sq = state.ma.lerp_norm_squared(&params, t);
        }
        state.absorbed += 1;
    }

    /// Grouped absorbs against one absorb at a time, under both moving
    /// averages: a warm group, a fresh group of several (EMA: an adoption
    /// then lerps) and a fresh singleton (EMA: an adoption only), with
    /// members interleaved in the buffer and one update left out. The
    /// estimates, counts and cached norms must match bit for bit.
    #[test]
    fn grouped_absorbs_are_bit_identical_to_one_at_a_time() {
        let dim = 1_030;
        let value = |d: usize, i: usize, round: usize| match (d + i) % 11 {
            0 => -0.0,
            1 => f64::MIN_POSITIVE / 4.0 * if i.is_multiple_of(2) { 1.0 } else { -1.0 },
            _ => ((d * 13 + i * 7 + round * 3) as f64 * 0.29).sin() * (1.0 + i as f64),
        };
        for ma_mode in [
            MovingAverageMode::default(),
            MovingAverageMode::RobbinsMonro,
        ] {
            let mut f = AsyncFilter::new(AsyncFilterConfig {
                ma_mode,
                ..AsyncFilterConfig::default()
            });
            let mut reference = BTreeMap::new();
            // Round 0 warms group 0. Round 1 interleaves warm group 0, a
            // fresh group 1 and a fresh singleton group 2; update 3 is
            // not absorbed.
            let rounds: [&[u64]; 2] = [&[0, 0, 0], &[1, 0, 2, 1, 0, 1, 1, 0]];
            for (round, stalenesses) in rounds.iter().enumerate() {
                let updates: Vec<ClientUpdate> = stalenesses
                    .iter()
                    .enumerate()
                    .map(|(i, &s)| {
                        let params = Vector::from_fn(dim, |d| value(d, i, round));
                        ClientUpdate::new(i, 0, s, params, 1)
                    })
                    .collect();
                let mut absorbs: Vec<usize> = (0..updates.len()).filter(|&i| i != 3).collect();
                for &i in &absorbs {
                    absorb_one_at_a_time(&mut reference, ma_mode, &updates[i]);
                }
                f.absorb(&updates, &mut absorbs);
                assert!(absorbs.is_empty());
            }
            assert_eq!(
                f.groups.keys().collect::<Vec<_>>(),
                reference.keys().collect::<Vec<_>>()
            );
            for (key, want) in &reference {
                let got = &f.groups[key];
                let at = format!("group {key} under {ma_mode:?}");
                assert_eq!(got.absorbed, want.absorbed, "{at}");
                assert_eq!(got.norm_sq.to_bits(), want.norm_sq.to_bits(), "{at}");
                assert!(
                    got.ma
                        .as_slice()
                        .iter()
                        .zip(want.ma.as_slice())
                        .all(|(x, y)| x.to_bits() == y.to_bits()),
                    "{at}: estimate"
                );
            }
        }
    }

    /// An update no server has resolved (`from_delta` alone) has no ω: a
    /// direct `filter` call rejects it through the sanitize predicate
    /// rather than scoring it as ω = δ.
    #[test]
    fn unresolved_updates_are_rejected_not_scored_as_their_delta() {
        let base = Vector::zeros(2);
        let mut updates: Vec<ClientUpdate> = (0..8)
            .map(|i| ClientUpdate::from_delta(i, 0, 0, &base, Vector::from(vec![1.0, i as f64]), 1))
            .collect();
        updates.push(upd(8, 0, &[1.0, 0.5], false));
        let mut f = AsyncFilter::default();
        let out = f.filter(updates, &ctx_with(&base));
        assert_eq!(out.rejected.len(), 8);
        assert!(out.rejected.iter().all(|u| !u.is_resolved()));
        assert_eq!(out.accepted.len(), 1);
        assert!(f.last_scores().is_empty());
    }

    /// Passes over updates carried as a shared per-round base plus their
    /// deltas score, partition and absorb bit for bit as passes over the
    /// same ω stored whole (`new`): every normalization, exact and pooled
    /// staleness buckets (a pooled group mixes bases), both moving
    /// averages, through bootstrap and warm passes. Every other update is
    /// admitted on its receipt bound, with no `‖ω‖²`; the pass leaves each
    /// update holding the stored ω's `‖ω‖²` bit for bit.
    #[test]
    fn shared_base_passes_are_bit_identical_to_stored_params() {
        use std::sync::Arc;
        let dim = 1_030;
        let bases: Vec<Arc<Vector>> = (0..3)
            .map(|r| {
                Arc::new(Vector::from_fn(dim, |d| {
                    ((d * 7 + r * 11) as f64 * 0.13).cos()
                }))
            })
            .collect();
        let delta = |d: usize, i: usize, round: usize| match (d + i) % 13 {
            0 => -0.0,
            _ => {
                ((d * 5 + i * 17 + round * 3) as f64 * 0.21).sin()
                    * if i % 6 == 5 { 9.0 } else { 0.1 }
            }
        };
        for (normalization, bucket, ma_mode) in [
            (ScoreNormalization::Global, 1, MovingAverageMode::default()),
            (
                ScoreNormalization::CrossGroup,
                1,
                MovingAverageMode::RobbinsMonro,
            ),
            (
                ScoreNormalization::WithinGroup,
                2,
                MovingAverageMode::default(),
            ),
            (
                ScoreNormalization::CrossGroup,
                2,
                MovingAverageMode::default(),
            ),
        ] {
            let config = AsyncFilterConfig {
                score_normalization: normalization,
                staleness_bucket: bucket,
                ma_mode,
                ..AsyncFilterConfig::default()
            };
            let (mut shared, mut stored) =
                (AsyncFilter::new(config.clone()), AsyncFilter::new(config));
            for round in 0..4 {
                let make = |i: usize| {
                    let staleness = (i % 3) as u64;
                    let base = &bases[(round + i) % 3];
                    let d = Vector::from_fn(dim, |k| delta(k, i, round));
                    let resolved = if i.is_multiple_of(2) {
                        ClientUpdate::with_base(i, 0, staleness, Arc::clone(base), d, 1)
                    } else {
                        let mut u = ClientUpdate::from_delta(i, 0, staleness, base, d, 1);
                        u.resolve(Arc::clone(base), base.norm_squared());
                        u
                    };
                    let whole = resolved.params().expect("resolved");
                    (resolved, ClientUpdate::new(i, 0, staleness, whole, 1))
                };
                let (a, b): (Vec<_>, Vec<_>) = (0..18).map(make).unzip();
                let ctx = ctx_with(&bases[0]);
                let (oa, ob) = (shared.filter(a, &ctx), stored.filter(b, &ctx));
                let ids = |v: &[ClientUpdate]| v.iter().map(|u| u.client).collect::<Vec<_>>();
                let at = format!("{normalization:?} bucket {bucket} round {round}");
                assert_eq!(ids(&oa.accepted), ids(&ob.accepted), "{at}");
                assert_eq!(ids(&oa.rejected), ids(&ob.rejected), "{at}");
                assert_eq!(ids(&oa.deferred), ids(&ob.deferred), "{at}");
                let norms = |o: &FilterOutcome| {
                    [&o.accepted, &o.rejected, &o.deferred]
                        .into_iter()
                        .flatten()
                        .map(|u| u.params_norm_bound().to_bits())
                        .collect::<Vec<_>>()
                };
                assert_eq!(norms(&oa), norms(&ob), "{at}");
                let scores = |f: &AsyncFilter| {
                    f.last_scores()
                        .iter()
                        .map(|r| r.score.to_bits())
                        .collect::<Vec<_>>()
                };
                assert_eq!(scores(&shared), scores(&stored), "{at}");
                assert!(!scores(&shared).is_empty(), "{at}");
                assert_eq!(shared.groups.len(), stored.groups.len(), "{at}");
                for (x, y) in shared.groups.values().zip(stored.groups.values()) {
                    assert_eq!(x.norm_sq.to_bits(), y.norm_sq.to_bits(), "{at}");
                    assert!(
                        x.ma.iter()
                            .zip(y.ma.iter())
                            .all(|(p, q)| p.to_bits() == q.to_bits()),
                        "{at}"
                    );
                }
            }
        }
    }

    /// Every scorable update is scored inside the pass, once per group
    /// estimate its eq. 7 denominator needs: `n` distances for a pass over
    /// `n` scorable updates under `Global` and `WithinGroup`, `g·n` under
    /// `CrossGroup` with `g > 1` groups. Unscorable updates cost nothing.
    #[test]
    fn pass_computes_one_distance_per_update_and_group() {
        let g = Vector::zeros(2);
        let buffer = |round: u64| {
            let mut u: Vec<ClientUpdate> = (0..12)
                .map(|i| {
                    let v = 1.0 + 0.05 * i as f64 + 0.1 * round as f64;
                    upd(i, (i % 3) as u64, &[v, -0.5 * v], false)
                })
                .collect();
            u.push(upd(12, 0, &[f64::NAN, 1.0], true));
            u
        };
        for (normalization, per_update) in [
            (ScoreNormalization::Global, 1),
            (ScoreNormalization::WithinGroup, 1),
            (ScoreNormalization::CrossGroup, 3),
        ] {
            let mut f = AsyncFilter::new(AsyncFilterConfig {
                score_normalization: normalization,
                ..AsyncFilterConfig::default()
            });
            // Cold pass (bootstrap estimates) and warm passes alike.
            for round in 0..3 {
                let before = f.distances_computed();
                let _ = f.filter(buffer(round), &FilterContext::new(round, &g, 20));
                assert_eq!(
                    f.distances_computed() - before,
                    12 * per_update,
                    "{normalization:?}, round {round}"
                );
            }
        }
        // A single-group buffer under `CrossGroup` falls back to the
        // within-group reading: one distance per update.
        let mut f = AsyncFilter::new(AsyncFilterConfig {
            score_normalization: ScoreNormalization::CrossGroup,
            ..AsyncFilterConfig::default()
        });
        let _ = f.filter(outlier_scenario(), &ctx_with(&g));
        assert_eq!(f.distances_computed(), 10);
        // Below `min_updates` nothing is scored.
        let _ = f.filter(outlier_scenario()[..3].to_vec(), &ctx_with(&g));
        assert_eq!(f.distances_computed(), 10);
    }

    /// Sixteen honest 2-d updates plus `colluders` updates at
    /// `[1.3e154, 0]`. Each colluder's `‖ω‖²` is 1.69e308: finite, so
    /// receipt and the sanitize predicate pass it, but two of them
    /// overflow any sum of squared distances. `groups` staleness groups
    /// share the honest updates; colluders sit in group 0.
    fn overflow_scenario(colluders: usize, groups: u64) -> Vec<ClientUpdate> {
        let mut updates: Vec<ClientUpdate> = (0..16)
            .map(|i| {
                let v = 1.0 + 0.05 * i as f64;
                upd(i, i as u64 % groups, &[v, 2.0 - v], false)
            })
            .collect();
        for c in 0..colluders {
            updates.push(upd(16 + c, 0, &[1.3e154, 0.0], true));
        }
        assert!(updates.iter().all(scorable));
        updates
    }

    /// A finite-norm update must not make any score non-finite, panic
    /// the pass, or pass as benign by overflowing the eq. 7 denominator
    /// (which would read `inf` and zero every score). Two colluders keep
    /// every distance finite and overflow only the denominators; twelve
    /// drag the bootstrap estimate so far out that their own distances
    /// overflow (an `inf/inf` score made `kmeans_1d` assert).
    #[test]
    fn finite_norm_overflow_is_rejected_under_every_normalization() {
        let g = Vector::zeros(2);
        for colluders in [2, 12] {
            for groups in [1, 2] {
                for normalization in [
                    ScoreNormalization::Global,
                    ScoreNormalization::WithinGroup,
                    ScoreNormalization::CrossGroup,
                ] {
                    let at = format!("{colluders} colluders, {groups} groups, {normalization:?}");
                    let mut f = AsyncFilter::new(AsyncFilterConfig {
                        score_normalization: normalization,
                        ..AsyncFilterConfig::default()
                    });
                    let out = f.filter(overflow_scenario(colluders, groups), &ctx_with(&g));
                    assert_eq!(out.len(), 16 + colluders, "{at}");
                    assert!(
                        out.rejected.iter().filter(|u| u.truth_malicious).count() == colluders,
                        "{at}: colluders kept: accepted {:?}, deferred {:?}",
                        out.accepted.iter().map(|u| u.client).collect::<Vec<_>>(),
                        out.deferred.iter().map(|u| u.client).collect::<Vec<_>>()
                    );
                    assert!(
                        f.last_scores().iter().all(|s| s.score.is_finite()),
                        "{at}: scores {:?}",
                        f.last_scores()
                    );
                    assert!(
                        f.groups
                            .values()
                            .all(|s| s.ma.is_finite() && s.norm_sq.is_finite()),
                        "{at}: estimate poisoned"
                    );
                }
            }
        }
    }

    proptest! {
        #[test]
        fn prop_outcome_partitions_input(
            seed_vals in proptest::collection::vec(-10.0..10.0f64, 4..24),
            staleness in proptest::collection::vec(0u64..4, 4..24),
        ) {
            let n = seed_vals.len().min(staleness.len());
            let updates: Vec<ClientUpdate> = (0..n)
                .map(|i| upd(i, staleness[i], &[seed_vals[i], -seed_vals[i]], false))
                .collect();
            let g = Vector::zeros(2);
            let mut f = AsyncFilter::default();
            let out = f.filter(updates, &ctx_with(&g));
            prop_assert_eq!(out.len(), n);
            // No duplicated clients across verdicts.
            let mut clients: Vec<usize> = out
                .accepted.iter().chain(&out.rejected).chain(&out.deferred)
                .map(|u| u.client)
                .collect();
            clients.sort_unstable();
            clients.dedup();
            prop_assert_eq!(clients.len(), n);
        }

        #[test]
        fn prop_scores_in_unit_interval(
            vals in proptest::collection::vec(-100.0..100.0f64, 4..20),
        ) {
            let updates: Vec<ClientUpdate> = vals
                .iter()
                .enumerate()
                .map(|(i, &v)| upd(i, (i % 3) as u64, &[v, v * 0.5], false))
                .collect();
            let g = Vector::zeros(2);
            let mut f = AsyncFilter::default();
            let _ = f.filter(updates, &ctx_with(&g));
            for s in f.last_scores() {
                prop_assert!((0.0..=1.0 + 1e-9).contains(&s.score), "score {}", s.score);
            }
        }
    }
}
