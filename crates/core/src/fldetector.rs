//! FLDetector (Zhang et al., KDD '22), ported to the asynchronous setting.
//!
//! FLDetector predicts each client's next update from the server's model
//! dynamics — `ĝᵢᵗ = gᵢ^{prev} + Ĥ·(wᵗ − w^{prev(i)})` with `Ĥ` an L-BFGS
//! Hessian approximation built from historical `(Δw, Δg)` pairs — and scores
//! clients by the prediction error `‖ĝᵢᵗ − gᵢᵗ‖`, averaged over a sliding
//! window. A gap-statistic test decides whether any attacker is present; if
//! so, 2-means over the scores removes the high cluster.
//!
//! The paper evaluates FLDetector as the state-of-the-art *synchronous*
//! baseline precisely because its premise — that benign updates evolve
//! consistently with the global model sequence — breaks under staleness:
//! stale benign clients are predicted from the wrong model version and get
//! inflated scores ("due to its unconsciousness of staleness, it incurs more
//! accuracy loss instead of compensation", §5.2). This port keeps the
//! original structure so that failure mode is observable.

use crate::update::{ClientUpdate, FilterContext, FilterOutcome, ScoreRecord, UpdateFilter};
use asyncfl_clustering::diagnostics::two_clusters_preferred;
use asyncfl_clustering::one_dim::kmeans_1d;
use asyncfl_rng::rngs::StdRng;
use asyncfl_rng::SeedableRng;
use asyncfl_tensor::kernels::sum_seq;
use asyncfl_tensor::Vector;
use std::collections::{BTreeMap, VecDeque};

/// Configuration for [`FlDetector`].
#[derive(Debug, Clone, PartialEq)]
pub struct FlDetectorConfig {
    /// Sliding-window length `N` for score averaging and L-BFGS history
    /// (the KDD paper uses 10).
    pub window: usize,
    /// Reference datasets for the gap-statistic presence test.
    pub gap_refs: usize,
    /// Seed for the k-means++/gap-statistic randomness (kept internal so the
    /// filter stays deterministic for a fixed seed).
    pub seed: u64,
}

impl Default for FlDetectorConfig {
    fn default() -> Self {
        Self {
            window: 10,
            gap_refs: 8,
            seed: 0x51_de7ec7,
        }
    }
}

/// The FLDetector baseline filter.
#[derive(Debug)]
pub struct FlDetector {
    config: FlDetectorConfig,
    /// Global model at the previous `filter` call, for (Δw, Δg) pairs.
    prev_global: Option<Vector>,
    /// Mean accepted delta at the previous call.
    prev_agg_delta: Option<Vector>,
    /// L-BFGS curvature pairs `(s = Δw, y = Δg)`, newest last.
    pairs: VecDeque<(Vector, Vector)>,
    /// Per-client last submitted delta, refreshed in place each report.
    /// `BTreeMap` so any iteration over filter state is reproducible (D1).
    client_last: BTreeMap<usize, Vector>,
    /// Per-client sliding window of prediction errors.
    client_errors: BTreeMap<usize, VecDeque<f64>>,
    /// Normalized windowed scores from the most recent `filter` call.
    last_scores: Vec<ScoreRecord>,
    /// Reused per-pass buffer for the predicted update `ĝᵢᵗ`, so the
    /// per-update prediction loop allocates nothing in steady state.
    predicted: Vector,
    /// Reused buffer for the pass-wide model step `wᵗ − w^{t−1}`.
    step_scratch: Vector,
    /// Reused buffer for the pass-wide Hessian-vector product `Ĥ·Δw`.
    hvp_scratch: Vector,
    /// Reused buffer for the mean accepted delta of the current pass.
    agg_scratch: Vector,
    /// Curvature-pair buffers recycled from the sliding window: once
    /// `pairs` is full, every push evicts one pair whose two vectors are
    /// reused for the next `(Δw, Δg)` instead of allocating.
    spare_pair: Option<(Vector, Vector)>,
    rng: StdRng,
}

impl FlDetector {
    /// Creates the detector.
    pub fn new(config: FlDetectorConfig) -> Self {
        let rng = StdRng::seed_from_u64(config.seed);
        Self {
            config,
            prev_global: None,
            prev_agg_delta: None,
            pairs: VecDeque::new(),
            client_last: BTreeMap::new(),
            client_errors: BTreeMap::new(),
            last_scores: Vec::new(),
            predicted: Vector::zeros(0),
            step_scratch: Vector::zeros(0),
            hvp_scratch: Vector::zeros(0),
            agg_scratch: Vector::zeros(0),
            spare_pair: None,
            rng,
        }
    }

    /// Approximates the Hessian-vector product `Ĥ·v` with the L-BFGS
    /// two-loop recursion over the stored `(Δw, Δg)` pairs, with the roles
    /// of `s` and `y` swapped so the recursion approximates `H` rather than
    /// `H⁻¹`. Writes into `out` (the zero vector when no usable curvature
    /// pairs exist) so the per-pass caller can reuse one buffer.
    fn hessian_vector_product_into(&self, v: &Vector, out: &mut Vector) {
        out.copy_from(v);
        // Keep only pairs with meaningful positive curvature.
        let usable: Vec<&(Vector, Vector)> = self
            .pairs
            .iter()
            .filter(|(s, y)| s.dot(y) > 1e-12)
            .collect();
        if usable.is_empty() {
            out.map_in_place(|_| 0.0);
            return;
        }
        // Two-loop recursion approximating H·v using (s' = Δg, y' = Δw).
        let q = out;
        let mut alphas = Vec::with_capacity(usable.len());
        for (s, y) in usable.iter().rev() {
            // swapped roles: s' = y (Δg), y' = s (Δw)
            let rho = 1.0 / s.dot(y);
            let alpha = rho * y.dot(q);
            q.axpy(-alpha, s);
            alphas.push((alpha, rho));
        }
        // Initial scaling γ = (y'·s')/(y'·y') with swapped roles.
        let Some((s_last, y_last)) = usable.last() else {
            q.map_in_place(|_| 0.0);
            return;
        };
        let denom = s_last.dot(s_last);
        let gamma = if denom > 1e-12 {
            y_last.dot(s_last) / denom
        } else {
            1.0
        };
        q.scale(1.0 / gamma.max(1e-12));
        for ((s, y), &(alpha, rho)) in usable.iter().zip(alphas.iter().rev()) {
            let beta = rho * s.dot(q);
            q.axpy(alpha - beta, y);
        }
    }

    /// Allocating wrapper over [`Self::hessian_vector_product_into`].
    #[cfg(test)]
    fn hessian_vector_product(&self, v: &Vector) -> Vector {
        let mut out = Vector::zeros(0);
        self.hessian_vector_product_into(v, &mut out);
        out
    }

    /// Windowed mean prediction error for a client.
    fn mean_error(&self, client: usize) -> f64 {
        self.client_errors
            .get(&client)
            .map(|w| sum_seq(w.iter().copied()) / w.len() as f64)
            .unwrap_or(0.0)
    }
}

impl Default for FlDetector {
    fn default() -> Self {
        Self::new(FlDetectorConfig::default())
    }
}

impl UpdateFilter for FlDetector {
    fn name(&self) -> &str {
        "FLDetector"
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
        // Sanitize non-finite updates like every other defense. All-finite
        // buffers (the steady state) keep their Vec as-is; the partition
        // allocation only happens when something is actually broken.
        let (finite, broken): (Vec<ClientUpdate>, Vec<ClientUpdate>) =
            if updates.iter().all(ClientUpdate::params_is_finite) {
                (updates, Vec::new())
            } else {
                updates
                    .into_iter()
                    .partition(ClientUpdate::params_is_finite)
            };
        outcome.rejected.extend(broken);
        if finite.is_empty() {
            return outcome;
        }

        // 1. Prediction errors for every arriving update, using the KDD
        // paper's synchronous formula ĝᵢᵗ = gᵢ^{t−1} + Ĥ·(wᵗ − w^{t−1}):
        // the Hessian term spans only the *latest* global step, as if every
        // client had participated in round t−1. This is deliberate — the
        // detector's blindness to per-client staleness is the failure mode
        // the paper demonstrates (§5.2).
        //
        // The Hessian-vector product depends only on the pass-wide model
        // step and the stored curvature pairs, never on the update being
        // scored — it is loop-invariant, computed once per pass (it used to
        // be recomputed per update and dominated the pass's flops).
        let mut step = std::mem::take(&mut self.step_scratch);
        let have_step = match self.prev_global.as_ref() {
            Some(pw) => {
                // wᵗ − w^{t−1}, as x + (−1)·y (bitwise equal to x − y).
                step.copy_from(ctx.global_params);
                step.axpy(-1.0, pw);
                true
            }
            None => false,
        };
        let mut hvp = std::mem::take(&mut self.hvp_scratch);
        if have_step {
            self.hessian_vector_product_into(&step, &mut hvp);
        }
        let mut predicted = std::mem::take(&mut self.predicted);
        for u in &finite {
            let err = match self.client_last.get(&u.client) {
                Some(last_delta) if have_step => {
                    predicted.copy_from(last_delta);
                    predicted.axpy(1.0, &hvp);
                    predicted.distance(&u.delta)
                }
                // First report (or first round): no history, assumed benign.
                _ => 0.0,
            };
            let window = self.client_errors.entry(u.client).or_default();
            window.push_back(err);
            while window.len() > self.config.window {
                window.pop_front();
            }
            // Refresh the stored delta in place; a brand-new client is the
            // only case that allocates.
            match self.client_last.entry(u.client) {
                std::collections::btree_map::Entry::Occupied(mut e) => {
                    e.get_mut().copy_from(&u.delta);
                }
                std::collections::btree_map::Entry::Vacant(e) => {
                    e.insert(u.delta.clone());
                }
            }
        }
        self.predicted = predicted;
        self.hvp_scratch = hvp;
        self.step_scratch = step;

        // 2. Normalized windowed scores for the clients in this buffer.
        let raw: Vec<f64> = finite.iter().map(|u| self.mean_error(u.client)).collect();
        let total = sum_seq(raw.iter().copied());
        let scores: Vec<f64> = if total > 0.0 {
            raw.iter().map(|e| e / total).collect()
        } else {
            vec![0.0; raw.len()]
        };

        for (u, &s) in finite.iter().zip(&scores) {
            self.last_scores.push(ScoreRecord {
                client: u.client,
                staleness: u.staleness,
                // FLDetector is deliberately staleness-unaware; report the
                // raw staleness so traces can show what it ignored.
                group: u.staleness,
                score: s,
                truth_malicious: u.truth_malicious,
            });
        }

        // 3. Attacker-presence test (gap statistic), then 2-means removal.
        let score_points: Vec<Vector> = scores.iter().map(|&s| Vector::from(vec![s])).collect();
        let verdicts: Vec<bool> = if scores.len() >= 4
            && total > 0.0
            && two_clusters_preferred(&score_points, self.config.gap_refs, &mut self.rng)
        {
            let clustering = kmeans_1d(&scores, 2);
            let bad = clustering.highest_cluster();
            let good = clustering.lowest_cluster();
            if bad == good {
                vec![false; scores.len()]
            } else {
                clustering.assignments.iter().map(|&a| a == bad).collect()
            }
        } else {
            vec![false; scores.len()]
        };

        // 4. Book-keeping for the L-BFGS pairs: aggregated delta of what we
        // are about to accept, against the previous round's.
        let accepted_deltas: Vec<&Vector> = finite
            .iter()
            .zip(&verdicts)
            .filter(|(_, &bad)| !bad)
            .map(|(u, _)| &u.delta)
            .collect();
        if !accepted_deltas.is_empty() {
            let mut agg = std::mem::take(&mut self.agg_scratch);
            if agg.len() == ctx.global_params.len() {
                agg.map_in_place(|_| 0.0);
            } else {
                agg = Vector::zeros(ctx.global_params.len());
            }
            for d in &accepted_deltas {
                agg.axpy(1.0 / accepted_deltas.len() as f64, d);
            }
            let spare = self.spare_pair.take();
            if let (Some(pw), Some(pg)) = (&self.prev_global, &self.prev_agg_delta) {
                // Differences written as x + (−1)·y into recycled buffers
                // (bitwise equal to the `x − y` they replace).
                let (mut dw, mut dg) =
                    spare.unwrap_or_else(|| (Vector::zeros(0), Vector::zeros(0)));
                dw.copy_from(ctx.global_params);
                dw.axpy(-1.0, pw);
                dg.copy_from(&agg);
                dg.axpy(-1.0, pg);
                self.pairs.push_back((dw, dg));
                while self.pairs.len() > self.config.window {
                    self.spare_pair = self.pairs.pop_front();
                }
            }
            match &mut self.prev_global {
                Some(pw) => pw.copy_from(ctx.global_params),
                None => self.prev_global = Some(ctx.global_params.clone()),
            }
            match &mut self.prev_agg_delta {
                Some(pg) => pg.copy_from(&agg),
                None => self.prev_agg_delta = Some(agg.clone()),
            }
            self.agg_scratch = agg;
        }

        for (u, bad) in finite.into_iter().zip(verdicts) {
            if bad {
                outcome.rejected.push(u);
            } else {
                outcome.accepted.push(u);
            }
        }
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn upd(client: usize, delta: &[f64], malicious: bool) -> ClientUpdate {
        let base = Vector::zeros(delta.len());
        ClientUpdate::with_base(
            client,
            0,
            0,
            std::sync::Arc::new(base),
            Vector::from(delta),
            10,
        )
        .with_truth_malicious(malicious)
    }

    #[test]
    fn first_round_accepts_everyone() {
        let mut det = FlDetector::default();
        let g = Vector::zeros(2);
        let ctx = FilterContext::new(0, &g, 20);
        let updates = vec![upd(0, &[1.0, 0.0], false), upd(1, &[-9.0, 3.0], true)];
        let out = det.filter(updates, &ctx);
        assert_eq!(out.accepted.len(), 2);
        assert!(out.rejected.is_empty());
        assert_eq!(det.name(), "FLDetector");
    }

    #[test]
    fn erratic_client_develops_high_score_and_is_flagged() {
        let mut det = FlDetector::default();
        let g = Vector::zeros(2);
        let mut flagged = false;
        for round in 0..12 {
            let ctx = FilterContext::new(round, &g, 20);
            let mut updates: Vec<ClientUpdate> = (0..7)
                .map(|c| upd(c, &[1.0 + 0.01 * c as f64, 0.5], false))
                .collect();
            // Client 7 sends wildly inconsistent updates each round.
            let sign = if round % 2 == 0 { 25.0 } else { -25.0 };
            updates.push(upd(7, &[sign, -sign], true));
            let out = det.filter(updates, &ctx);
            if out.rejected.iter().any(|u| u.client == 7) {
                flagged = true;
            }
            // Benign clients must never be rejected here.
            assert!(
                out.rejected.iter().all(|u| u.client == 7),
                "round {round}: {:?}",
                out.rejected.iter().map(|u| u.client).collect::<Vec<_>>()
            );
        }
        assert!(flagged, "erratic client never flagged");
    }

    #[test]
    fn homogeneous_benign_population_not_flagged() {
        let mut det = FlDetector::default();
        let g = Vector::zeros(2);
        for round in 0..8 {
            let ctx = FilterContext::new(round, &g, 20);
            let updates: Vec<ClientUpdate> = (0..8)
                .map(|c| upd(c, &[1.0 + 0.02 * c as f64, 1.0 - 0.02 * c as f64], false))
                .collect();
            let out = det.filter(updates, &ctx);
            assert!(
                out.rejected.is_empty(),
                "round {round} rejected benign updates"
            );
        }
    }

    #[test]
    fn nonfinite_rejected_immediately() {
        let mut det = FlDetector::default();
        let g = Vector::zeros(1);
        let ctx = FilterContext::new(0, &g, 20);
        let updates = vec![upd(0, &[1.0], false), upd(1, &[f64::NAN], true)];
        let out = det.filter(updates, &ctx);
        assert_eq!(out.rejected.len(), 1);
        assert!(out.rejected[0].truth_malicious);
    }

    #[test]
    fn empty_input_empty_outcome() {
        let mut det = FlDetector::default();
        let g = Vector::zeros(1);
        let ctx = FilterContext::new(0, &g, 20);
        assert!(det.filter(Vec::new(), &ctx).is_empty());
    }

    #[test]
    fn hvp_zero_without_history() {
        let det = FlDetector::default();
        let v = Vector::from(vec![1.0, 2.0]);
        assert_eq!(det.hessian_vector_product(&v), Vector::zeros(2));
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let mut det = FlDetector::default();
            let g = Vector::zeros(2);
            let mut rejected = Vec::new();
            for round in 0..10 {
                let ctx = FilterContext::new(round, &g, 20);
                let mut updates: Vec<ClientUpdate> = (0..6)
                    .map(|c| upd(c, &[1.0, 0.1 * c as f64], false))
                    .collect();
                let sign = if round % 2 == 0 { 30.0 } else { -30.0 };
                updates.push(upd(6, &[sign, sign], true));
                let out = det.filter(updates, &ctx);
                rejected.push(out.rejected.iter().map(|u| u.client).collect::<Vec<_>>());
            }
            rejected
        };
        assert_eq!(run(), run());
    }
}
