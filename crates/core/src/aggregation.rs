//! Aggregation rules applied to the accepted updates.
//!
//! AsyncFilter is explicitly "a pluggable component … the server aggregates
//! the updates following its aggregation rule" (§4.4). This module provides
//! the rules used in the evaluation and the classic synchronous
//! Byzantine-robust rules the paper surveys in §2.3 (Krum, Trimmed-Mean,
//! Median), so ablations can combine any filter with any rule.
//!
//! All rules operate on **deltas** (`δᵢ = ωᵢ − ω_base`) and return the new
//! global parameter vector `ω_g + combine(δ…)` — the FedBuff convention.

use crate::update::ClientUpdate;
use asyncfl_tensor::kernels::sum_seq;
use asyncfl_tensor::{stats, Vector};

/// An aggregation rule over accepted updates.
pub trait Aggregator: Send {
    /// Rule name for tables.
    fn name(&self) -> &str;

    /// Combines updates into the next global model.
    ///
    /// Takes `&mut self` so stochastic rules (e.g. Bucketing) can carry
    /// seeded RNG state. Returns `global` unchanged when `updates` is empty.
    fn aggregate(&mut self, updates: &[ClientUpdate], global: &Vector) -> Vector;
}

/// How staleness discounts an update's aggregation weight.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum StalenessWeighting {
    /// No discount: `s(τ) = 1` (paper eq. 3 with uniform `pᵢ`; default).
    #[default]
    Uniform,
    /// FedBuff's polynomial discount `s(τ) = 1/(1 + τ)^a`.
    Polynomial {
        /// Exponent `a` (FedBuff uses 0.5).
        exponent: f64,
    },
}

impl StalenessWeighting {
    fn weight(&self, staleness: u64) -> f64 {
        match self {
            StalenessWeighting::Uniform => 1.0,
            StalenessWeighting::Polynomial { exponent } => (1.0 + staleness as f64).powf(-exponent),
        }
    }
}

/// Sample-count-weighted mean of deltas, optionally staleness-discounted —
/// the FedBuff aggregation used throughout the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MeanAggregator {
    /// Staleness weighting scheme.
    pub staleness: StalenessWeighting,
}

impl MeanAggregator {
    /// Uniform (undiscounted) mean.
    pub fn new() -> Self {
        Self::default()
    }

    /// FedBuff polynomial staleness discounting with exponent `a`.
    pub fn with_polynomial_staleness(exponent: f64) -> Self {
        Self {
            staleness: StalenessWeighting::Polynomial { exponent },
        }
    }
}

impl Aggregator for MeanAggregator {
    fn name(&self) -> &str {
        "mean"
    }

    fn aggregate(&mut self, updates: &[ClientUpdate], global: &Vector) -> Vector {
        if updates.is_empty() {
            return global.clone();
        }
        let weights: Vec<f64> = updates
            .iter()
            .map(|u| u.num_samples as f64 * self.staleness.weight(u.staleness))
            .collect();
        // Accumulate the weighted mean straight from the deltas, with no
        // per-update copy, in the vector that becomes the next model. A
        // weight sum that is not positive adds nothing. Each coordinate is
        // `g + (((0.0 + α₁δ₁) + α₂δ₂) + …)`, bit for bit the separate mean
        // vector added to `global`: the first term is written as the
        // `0.0 + α·δ` an axpy onto zeros stores, and `next += global` adds
        // `1.0·g = g`. That saves a model-sized allocation and a sweep.
        let total = sum_seq(weights.iter().copied());
        let mut terms = updates
            .iter()
            .zip(&weights)
            .filter(|_| total > 0.0)
            .map(|(u, &w)| (w / total, &u.delta));
        let mut next = match terms.next() {
            Some((alpha, delta)) => delta.map(|d| 0.0 + alpha * d),
            None => Vector::zeros(global.len()),
        };
        for (alpha, delta) in terms {
            next.axpy(alpha, delta);
        }
        next += global;
        next
    }
}

/// Coordinate-wise median of deltas (Yin et al. 2018).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MedianAggregator;

impl Aggregator for MedianAggregator {
    fn name(&self) -> &str {
        "median"
    }

    fn aggregate(&mut self, updates: &[ClientUpdate], global: &Vector) -> Vector {
        match stats::median_vector(updates.iter().map(|u| &u.delta)) {
            Some(m) => global + &m,
            None => global.clone(),
        }
    }
}

/// Coordinate-wise β-trimmed mean of deltas (Yin et al. 2018).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrimmedMeanAggregator {
    trim_fraction: f64,
}

impl TrimmedMeanAggregator {
    /// Creates the rule, trimming `trim_fraction` of updates from each tail
    /// per coordinate.
    ///
    /// # Panics
    ///
    /// Panics if `trim_fraction` is outside `[0, 0.5)`.
    pub fn new(trim_fraction: f64) -> Self {
        assert!(
            (0.0..0.5).contains(&trim_fraction),
            "TrimmedMeanAggregator: trim_fraction must be in [0, 0.5), got {trim_fraction}"
        );
        Self { trim_fraction }
    }

    /// The per-tail trim fraction.
    pub fn trim_fraction(&self) -> f64 {
        self.trim_fraction
    }
}

impl Aggregator for TrimmedMeanAggregator {
    fn name(&self) -> &str {
        "trimmed-mean"
    }

    fn aggregate(&mut self, updates: &[ClientUpdate], global: &Vector) -> Vector {
        if updates.is_empty() {
            return global.clone();
        }
        let mut trim = (self.trim_fraction * updates.len() as f64).floor() as usize;
        // Never trim everything.
        while 2 * trim >= updates.len() && trim > 0 {
            trim -= 1;
        }
        match stats::trimmed_mean_vector(updates.iter().map(|u| &u.delta), trim) {
            Some(m) => global + &m,
            None => global.clone(),
        }
    }
}

/// Krum / Multi-Krum (Blanchard et al. 2017): each delta is scored by the
/// summed squared distance to its `n − f − 2` nearest neighbours; the `k`
/// lowest-scoring deltas are averaged (`k = 1` is classic Krum).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KrumAggregator {
    assumed_malicious: usize,
    select: usize,
}

impl KrumAggregator {
    /// Classic Krum, assuming at most `f` malicious updates per buffer.
    pub fn new(f: usize) -> Self {
        Self::multi(f, 1)
    }

    /// Multi-Krum selecting the best `select` updates.
    ///
    /// # Panics
    ///
    /// Panics if `select == 0`.
    pub fn multi(f: usize, select: usize) -> Self {
        assert!(select > 0, "KrumAggregator: select must be positive");
        Self {
            assumed_malicious: f,
            select,
        }
    }

    /// Krum scores for each update (lower is more trusted).
    pub fn scores(&self, updates: &[ClientUpdate]) -> Vec<f64> {
        let n = updates.len();
        let mut scores = vec![0.0; n];
        if n <= 1 {
            return scores;
        }
        // Number of neighbours to sum over: n - f - 2, at least 1.
        let k = n.saturating_sub(self.assumed_malicious + 2).max(1);
        for (i, (s, ui)) in scores.iter_mut().zip(updates).enumerate() {
            let mut dists: Vec<f64> = updates
                .iter()
                .enumerate()
                .filter(|&(j, _)| j != i)
                .map(|(_, uj)| ui.delta.distance_squared(&uj.delta))
                .collect();
            dists.sort_by(f64::total_cmp);
            *s = sum_seq(dists.iter().take(k).copied());
        }
        scores
    }
}

impl Aggregator for KrumAggregator {
    fn name(&self) -> &str {
        if self.select == 1 {
            "krum"
        } else {
            "multi-krum"
        }
    }

    fn aggregate(&mut self, updates: &[ClientUpdate], global: &Vector) -> Vector {
        if updates.is_empty() {
            return global.clone();
        }
        let scores = self.scores(updates);
        let mut order: Vec<usize> = (0..updates.len()).collect();
        #[expect(
            clippy::indexing_slicing,
            reason = "order permutes 0..updates.len(), matching scores' length"
        )]
        order.sort_by(|&a, &b| scores[a].total_cmp(&scores[b]));
        #[expect(
            clippy::indexing_slicing,
            reason = "select is clamped to updates.len()"
        )]
        let chosen = &order[..self.select.min(updates.len())];
        let mut mean = Vector::zeros(global.len());
        for &i in chosen {
            #[expect(
                clippy::indexing_slicing,
                reason = "chosen comes from order, a permutation of 0..updates.len()"
            )]
            mean.axpy(1.0 / chosen.len() as f64, &updates[i].delta);
        }
        global + &mean
    }
}

/// Sign-majority aggregation (signSGD with majority vote, Bernstein et al.
/// 2019): the update direction is the coordinate-wise majority sign of the
/// deltas, applied with a fixed server step size. Magnitude information is
/// discarded entirely, which caps any single attacker's influence at one
/// vote per coordinate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SignMajorityAggregator {
    step: f64,
}

impl SignMajorityAggregator {
    /// Creates the rule with server step size `step` per coordinate.
    ///
    /// # Panics
    ///
    /// Panics if `step <= 0` or is non-finite.
    pub fn new(step: f64) -> Self {
        assert!(
            step > 0.0 && step.is_finite(),
            "SignMajorityAggregator: step must be positive, got {step}"
        );
        Self { step }
    }

    /// The per-coordinate server step size.
    pub fn step(&self) -> f64 {
        self.step
    }
}

impl Aggregator for SignMajorityAggregator {
    fn name(&self) -> &str {
        "sign-majority"
    }

    fn aggregate(&mut self, updates: &[ClientUpdate], global: &Vector) -> Vector {
        if updates.is_empty() {
            return global.clone();
        }
        let dim = global.len();
        let mut votes = vec![0i64; dim];
        for u in updates {
            for (v, &x) in votes.iter_mut().zip(u.delta.iter()) {
                *v += if x > 0.0 {
                    1
                } else if x < 0.0 {
                    -1
                } else {
                    0
                };
            }
        }
        let mut out = global.clone();
        for (o, &v) in out.iter_mut().zip(&votes) {
            *o += self.step * (v.signum() as f64);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Test helper: run a one-shot aggregation through a fresh rule.
    fn run(mut a: impl Aggregator, updates: &[ClientUpdate], global: &Vector) -> Vector {
        a.aggregate(updates, global)
    }

    fn upd(client: usize, staleness: u64, delta: &[f64], samples: usize) -> ClientUpdate {
        let base = Vector::zeros(delta.len());
        ClientUpdate::from_delta(client, 0, staleness, &base, Vector::from(delta), samples)
    }

    /// The median borrows the deltas it reads; the result must be bit
    /// for bit what the cloned-deltas version computed, signed zeros,
    /// ties and even counts included.
    #[test]
    fn median_of_borrowed_deltas_matches_the_cloned_version() {
        for n in [1usize, 2, 5, 8] {
            let updates: Vec<ClientUpdate> = (0..n)
                .map(|i| {
                    let x = i as f64;
                    upd(i, 0, &[-0.0, 0.1 * x - 0.3, (x * 1.7).sin(), 1.0], 10)
                })
                .collect();
            let g = Vector::from(vec![0.0, -1.5, 2.25, -0.0]);
            let cloned: Vec<Vector> = updates.iter().map(|u| u.delta.clone()).collect();
            let want = &g + &stats::median_vector(&cloned).unwrap();
            let got = run(MedianAggregator, &updates, &g);
            let bits = |v: &Vector| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want), "n {n}");
        }
    }

    #[test]
    fn mean_uniform_weights() {
        let updates = vec![upd(0, 0, &[1.0, 0.0], 10), upd(1, 0, &[3.0, 2.0], 10)];
        let g = Vector::from(vec![10.0, 10.0]);
        let out = run(MeanAggregator::new(), &updates, &g);
        assert_eq!(out.as_slice(), &[12.0, 11.0]);
        assert_eq!(MeanAggregator::new().name(), "mean");
    }

    /// The mean aggregate accumulates into the next model, where it used
    /// to build a separate mean vector and return `&global + &mean`. Both
    /// must agree bit for bit: with sample and staleness weights, and with
    /// a weight total of zero, where each coordinate is `g + 0.0` and a
    /// `-0.0` in the global model becomes `+0.0`.
    #[test]
    fn mean_is_bit_identical_to_the_separate_mean_vector() {
        let dim = 1_030;
        // Every 17th coordinate is `-0.0` in the global model and in every
        // delta, where only the `+0.0` seed of the mean tells the sum's sign.
        let value = |i: usize, seed: usize| match (i % 17, (i + seed) % 9) {
            (5, _) | (_, 0) => -0.0,
            (_, 1) => 0.0,
            (_, 2) => f64::MIN_POSITIVE / 8.0,
            (_, 3) => -1e300,
            _ => ((i * 7 + seed) as f64 * 0.37).sin(),
        };
        let global = Vector::from_fn(dim, |i| value(i, 4));
        let updates: Vec<ClientUpdate> = (0..5)
            .map(|k| {
                let delta: Vec<f64> = (0..dim).map(|i| value(i, k)).collect();
                upd(k, k as u64, &delta, 3 + k)
            })
            .collect();
        let zero_weight: Vec<ClientUpdate> = updates
            .iter()
            .map(|u| {
                let mut u = u.clone();
                u.num_samples = 0;
                u
            })
            .collect();
        for mut rule in [
            MeanAggregator::new(),
            MeanAggregator::with_polynomial_staleness(0.5),
        ] {
            for batch in [&updates, &zero_weight] {
                let weights: Vec<f64> = batch
                    .iter()
                    .map(|u| u.num_samples as f64 * rule.staleness.weight(u.staleness))
                    .collect();
                let total = sum_seq(weights.iter().copied());
                let mut mean = Vector::zeros(dim);
                if total > 0.0 {
                    for (u, &w) in batch.iter().zip(&weights) {
                        mean.axpy(w / total, &u.delta);
                    }
                }
                let want = &global + &mean;
                let got = rule.aggregate(batch, &global);
                let bits =
                    |v: &Vector| v.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&got), bits(&want), "total {total}");
            }
        }
    }

    #[test]
    fn mean_respects_sample_counts() {
        let updates = vec![upd(0, 0, &[0.0], 30), upd(1, 0, &[4.0], 10)];
        let out = run(MeanAggregator::new(), &updates, &Vector::zeros(1));
        assert!((out[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn mean_polynomial_staleness_downweights() {
        let updates = vec![upd(0, 0, &[0.0], 10), upd(1, 8, &[9.0], 10)];
        let uniform = run(MeanAggregator::new(), &updates, &Vector::zeros(1));
        let discounted = run(
            MeanAggregator::with_polynomial_staleness(0.5),
            &updates,
            &Vector::zeros(1),
        );
        assert!(
            discounted[0] < uniform[0],
            "{} !< {}",
            discounted[0],
            uniform[0]
        );
    }

    #[test]
    fn empty_updates_return_global() {
        let g = Vector::from(vec![5.0]);
        for mut agg in [
            Box::new(MeanAggregator::new()) as Box<dyn Aggregator>,
            Box::new(MedianAggregator),
            Box::new(TrimmedMeanAggregator::new(0.2)),
            Box::new(KrumAggregator::new(1)),
        ] {
            assert_eq!(agg.aggregate(&[], &g), g, "{}", agg.name());
        }
    }

    #[test]
    fn median_ignores_extreme_outlier() {
        let updates = vec![
            upd(0, 0, &[1.0], 10),
            upd(1, 0, &[1.2], 10),
            upd(2, 0, &[1000.0], 10),
        ];
        let out = run(MedianAggregator, &updates, &Vector::zeros(1));
        assert!((out[0] - 1.2).abs() < 1e-12);
        assert_eq!(MedianAggregator.name(), "median");
    }

    #[test]
    fn trimmed_mean_drops_tails() {
        let updates = vec![
            upd(0, 0, &[-100.0], 10),
            upd(1, 0, &[1.0], 10),
            upd(2, 0, &[2.0], 10),
            upd(3, 0, &[3.0], 10),
            upd(4, 0, &[100.0], 10),
        ];
        let out = run(TrimmedMeanAggregator::new(0.2), &updates, &Vector::zeros(1));
        assert!((out[0] - 2.0).abs() < 1e-12);
        assert_eq!(TrimmedMeanAggregator::new(0.2).trim_fraction(), 0.2);
    }

    #[test]
    fn trimmed_mean_never_trims_everything() {
        let updates = vec![upd(0, 0, &[1.0], 10), upd(1, 0, &[3.0], 10)];
        let out = run(
            TrimmedMeanAggregator::new(0.49),
            &updates,
            &Vector::zeros(1),
        );
        assert!((out[0] - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "trim_fraction")]
    fn trimmed_mean_invalid_fraction_panics() {
        let _ = TrimmedMeanAggregator::new(0.5);
    }

    #[test]
    fn krum_selects_inlier() {
        // Five tight benign deltas, two colluding far away: Krum(f=2) picks
        // a benign one.
        let mut updates: Vec<ClientUpdate> = (0..5)
            .map(|i| upd(i, 0, &[1.0 + 0.01 * i as f64, 0.0], 10))
            .collect();
        updates.push(upd(5, 0, &[50.0, 50.0], 10));
        updates.push(upd(6, 0, &[50.0, 50.1], 10));
        let out = run(KrumAggregator::new(2), &updates, &Vector::zeros(2));
        assert!(out[0] < 1.1 && out[1] < 0.1, "{out:?}");
        assert_eq!(KrumAggregator::new(2).name(), "krum");
        assert_eq!(KrumAggregator::multi(2, 3).name(), "multi-krum");
    }

    #[test]
    fn multi_krum_averages_selection() {
        let updates = vec![
            upd(0, 0, &[1.0], 10),
            upd(1, 0, &[1.1], 10),
            upd(2, 0, &[0.9], 10),
            upd(3, 0, &[100.0], 10),
        ];
        let out = run(KrumAggregator::multi(1, 3), &updates, &Vector::zeros(1));
        assert!((out[0] - 1.0).abs() < 0.1, "{out:?}");
    }

    #[test]
    fn krum_scores_rank_outlier_highest() {
        let updates = vec![
            upd(0, 0, &[1.0], 10),
            upd(1, 0, &[1.1], 10),
            upd(2, 0, &[0.9], 10),
            upd(3, 0, &[40.0], 10),
        ];
        let scores = KrumAggregator::new(1).scores(&updates);
        let max_idx = scores
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0;
        assert_eq!(max_idx, 3);
        assert_eq!(KrumAggregator::new(1).scores(&updates[..1]), vec![0.0]);
    }

    #[test]
    fn sign_majority_votes_per_coordinate() {
        let updates = vec![
            upd(0, 0, &[1.0, -2.0, 0.0], 10),
            upd(1, 0, &[3.0, -1.0, 0.0], 10),
            upd(2, 0, &[-0.5, -9.0, 0.0], 10),
        ];
        let mut agg = SignMajorityAggregator::new(0.1);
        let out = agg.aggregate(&updates, &Vector::zeros(3));
        assert!((out[0] - 0.1).abs() < 1e-12); // majority positive
        assert!((out[1] + 0.1).abs() < 1e-12); // majority negative
        assert_eq!(out[2], 0.0); // tie / all-zero
        assert_eq!(agg.step(), 0.1);
        assert_eq!(agg.name(), "sign-majority");
    }

    #[test]
    fn sign_majority_caps_attacker_magnitude() {
        // One attacker with a colossal delta gets exactly one vote.
        let updates = vec![
            upd(0, 0, &[1.0], 10),
            upd(1, 0, &[1.0], 10),
            upd(2, 0, &[-1e9], 10),
        ];
        let mut agg = SignMajorityAggregator::new(0.5);
        let out = agg.aggregate(&updates, &Vector::zeros(1));
        assert!((out[0] - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "step")]
    fn sign_majority_invalid_step_panics() {
        let _ = SignMajorityAggregator::new(0.0);
    }

    #[test]
    fn staleness_weight_function() {
        assert_eq!(StalenessWeighting::Uniform.weight(10), 1.0);
        let poly = StalenessWeighting::Polynomial { exponent: 0.5 };
        assert_eq!(poly.weight(0), 1.0);
        assert!((poly.weight(3) - 0.5).abs() < 1e-12);
    }
}
