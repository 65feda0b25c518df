//! Clean-dataset prior-work baselines: Zeno++ and AFLGuard.
//!
//! Both defenses (§2.3) assume the server holds a small clean dataset and
//! can compute a *trusted* model update from it each round — exactly the
//! assumption AsyncFilter eliminates. They are provided for completeness and
//! ablation: the simulator can optionally equip the server with a root
//! dataset, in which case [`FilterContext::trusted_delta`] is populated.
//!
//! * **Zeno++** (Xie et al., ICML '20): accepts an update iff its descent
//!   score against the trusted update is positive; accepted updates are
//!   rescaled to the trusted update's magnitude.
//! * **AFLGuard** (Fang et al., ACSAC '22): accepts iff the update does not
//!   deviate from the trusted one by more than `λ·‖δ_trusted‖` in Euclidean
//!   distance (bounding both direction and magnitude).
//!
//! Without a trusted delta both baselines degrade to passthrough (and say so
//! via [`ran_blind`](ZenoPlusPlus::ran_blind)); a deployment that cannot
//! satisfy their assumption simply has no defense — which is the paper's
//! point.
//!
//! [`FilterContext::trusted_delta`]: crate::update::FilterContext

use crate::update::{ClientUpdate, FilterContext, FilterOutcome, ScoreRecord, UpdateFilter};
use asyncfl_tensor::ops::cosine_similarity;

/// The Zeno++ baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct ZenoPlusPlus {
    /// Minimum cosine similarity with the trusted delta (the original uses a
    /// descent-score threshold; positive cosine is the equivalent geometric
    /// condition under normalized magnitudes).
    pub min_cosine: f64,
    ran_blind: bool,
    /// Scores (`1 − cosine`) from the most recent `filter` call; empty when
    /// it ran blind.
    last_scores: Vec<ScoreRecord>,
}

impl ZenoPlusPlus {
    /// Creates the filter with the standard "positive similarity" rule.
    pub fn new() -> Self {
        Self {
            min_cosine: 0.0,
            ran_blind: false,
            last_scores: Vec::new(),
        }
    }

    /// `true` if the last `filter` call had no trusted delta and therefore
    /// passed everything through.
    pub fn ran_blind(&self) -> bool {
        self.ran_blind
    }
}

impl Default for ZenoPlusPlus {
    fn default() -> Self {
        Self::new()
    }
}

impl UpdateFilter for ZenoPlusPlus {
    fn name(&self) -> &str {
        "Zeno++"
    }

    fn last_scores(&self) -> &[ScoreRecord] {
        &self.last_scores
    }

    fn filter(&mut self, updates: Vec<ClientUpdate>, ctx: &FilterContext<'_>) -> FilterOutcome {
        self.last_scores.clear();
        let Some(trusted) = ctx.trusted_delta else {
            self.ran_blind = true;
            return FilterOutcome::accept_all(updates);
        };
        self.ran_blind = false;
        let trusted_norm = trusted.norm();
        let mut outcome = FilterOutcome::default();
        for mut u in updates {
            if !u.params_is_finite() {
                outcome.rejected.push(u);
                continue;
            }
            let cos = cosine_similarity(trusted, &u.delta);
            // Suspicion score on [0, 2]: 0 = perfectly aligned with trusted.
            self.last_scores.push(ScoreRecord {
                client: u.client,
                staleness: u.staleness,
                group: u.staleness,
                score: 1.0 - cos,
                truth_malicious: u.truth_malicious,
            });
            if cos > self.min_cosine {
                // Normalize the accepted update to the trusted magnitude.
                let own = u.delta.norm();
                if own > 0.0 && trusted_norm > 0.0 {
                    // ω = base + δ follows the rescaled δ.
                    u.delta.scale(trusted_norm / own);
                    u.refresh_cached_norms();
                }
                outcome.accepted.push(u);
            } else {
                outcome.rejected.push(u);
            }
        }
        outcome
    }
}

/// The AFLGuard baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct AflGuard {
    lambda: f64,
    ran_blind: bool,
    /// Scores (`distance / bound`) from the most recent `filter` call; empty
    /// when it ran blind.
    last_scores: Vec<ScoreRecord>,
}

impl AflGuard {
    /// Creates the filter with deviation bound λ (the ACSAC paper tunes λ
    /// around 1; larger is more permissive).
    ///
    /// # Panics
    ///
    /// Panics if `lambda <= 0` or is non-finite.
    pub fn new(lambda: f64) -> Self {
        assert!(
            lambda > 0.0 && lambda.is_finite(),
            "AflGuard: lambda must be positive, got {lambda}"
        );
        Self {
            lambda,
            ran_blind: false,
            last_scores: Vec::new(),
        }
    }

    /// The deviation bound λ.
    pub fn lambda(&self) -> f64 {
        self.lambda
    }

    /// `true` if the last `filter` call had no trusted delta.
    pub fn ran_blind(&self) -> bool {
        self.ran_blind
    }
}

impl Default for AflGuard {
    fn default() -> Self {
        Self::new(1.5)
    }
}

impl UpdateFilter for AflGuard {
    fn name(&self) -> &str {
        "AFLGuard"
    }

    fn last_scores(&self) -> &[ScoreRecord] {
        &self.last_scores
    }

    fn filter(&mut self, updates: Vec<ClientUpdate>, ctx: &FilterContext<'_>) -> FilterOutcome {
        self.last_scores.clear();
        let Some(trusted) = ctx.trusted_delta else {
            self.ran_blind = true;
            return FilterOutcome::accept_all(updates);
        };
        self.ran_blind = false;
        let bound = self.lambda * trusted.norm();
        let mut outcome = FilterOutcome::default();
        for u in updates {
            if u.params_is_finite() {
                let dist = u.delta.distance(trusted);
                // Suspicion score: distance in units of the bound; ≤ 1 means
                // accepted. A zero bound makes any deviation infinitely far.
                let score = if bound > 0.0 {
                    dist / bound
                } else if dist == 0.0 {
                    0.0
                } else {
                    f64::INFINITY
                };
                self.last_scores.push(ScoreRecord {
                    client: u.client,
                    staleness: u.staleness,
                    group: u.staleness,
                    score,
                    truth_malicious: u.truth_malicious,
                });
                if dist <= bound {
                    outcome.accepted.push(u);
                    continue;
                }
            }
            outcome.rejected.push(u);
        }
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asyncfl_tensor::Vector;

    fn upd(client: usize, delta: &[f64], malicious: bool) -> ClientUpdate {
        let base = std::sync::Arc::new(Vector::zeros(delta.len()));
        ClientUpdate::with_base(client, 0, 0, base, Vector::from(delta), 10)
            .with_truth_malicious(malicious)
    }

    #[test]
    fn zeno_accepts_aligned_rejects_opposed() {
        let g = Vector::zeros(2);
        let trusted = Vector::from(vec![1.0, 0.0]);
        let ctx = FilterContext::new(0, &g, 20).with_trusted_delta(&trusted);
        let updates = vec![
            upd(0, &[2.0, 0.1], false),
            upd(1, &[-1.0, 0.0], true), // opposed: rejected
            upd(2, &[0.0, 1.0], false), // orthogonal: cosine 0, not > 0
        ];
        let mut zeno = ZenoPlusPlus::new();
        let out = zeno.filter(updates, &ctx);
        assert_eq!(out.accepted.len(), 1);
        assert_eq!(out.accepted[0].client, 0);
        assert_eq!(out.rejected.len(), 2);
        assert!(!zeno.ran_blind());
        assert_eq!(zeno.name(), "Zeno++");
    }

    #[test]
    fn zeno_normalizes_accepted_magnitude() {
        let g = Vector::zeros(2);
        let trusted = Vector::from(vec![1.0, 0.0]);
        let ctx = FilterContext::new(0, &g, 20).with_trusted_delta(&trusted);
        let base = std::sync::Arc::new(Vector::from(vec![0.5, 0.5]));
        let updates = vec![ClientUpdate::with_base(
            0,
            0,
            0,
            base,
            Vector::from(vec![10.0, 0.0]),
            10,
        )];
        let out = ZenoPlusPlus::new().filter(updates, &ctx);
        let u = &out.accepted[0];
        assert!((u.delta.norm() - 1.0).abs() < 1e-9);
        // ω = base + δ follows the rescaled delta, and so do the cached
        // norms.
        assert_eq!(u.params().expect("resolved").as_slice(), &[1.5, 0.5]);
        assert_eq!(u.params_norm_squared(), 2.5);
        assert_eq!(u.delta_norm_squared(), 1.0);
    }

    #[test]
    fn zeno_without_trusted_delta_is_passthrough() {
        let g = Vector::zeros(1);
        let ctx = FilterContext::new(0, &g, 20);
        let updates = vec![upd(0, &[-5.0], true)];
        let mut zeno = ZenoPlusPlus::new();
        let out = zeno.filter(updates, &ctx);
        assert_eq!(out.accepted.len(), 1);
        assert!(zeno.ran_blind());
    }

    #[test]
    fn aflguard_bounds_deviation() {
        let g = Vector::zeros(2);
        let trusted = Vector::from(vec![1.0, 0.0]);
        let ctx = FilterContext::new(0, &g, 20).with_trusted_delta(&trusted);
        let updates = vec![
            upd(0, &[1.2, 0.3], false), // close: accepted
            upd(1, &[-4.0, 0.0], true), // far: rejected
            upd(2, &[1.0, 1.4], false), // distance 1.4 < 1.5: accepted
        ];
        let mut guard = AflGuard::default();
        let out = guard.filter(updates, &ctx);
        assert_eq!(
            out.accepted.iter().map(|u| u.client).collect::<Vec<_>>(),
            vec![0, 2]
        );
        assert_eq!(out.rejected[0].client, 1);
        assert_eq!(guard.lambda(), 1.5);
        assert_eq!(guard.name(), "AFLGuard");
        assert!(!guard.ran_blind());
    }

    #[test]
    fn aflguard_without_trusted_delta_is_passthrough() {
        let g = Vector::zeros(1);
        let ctx = FilterContext::new(0, &g, 20);
        let mut guard = AflGuard::default();
        let out = guard.filter(vec![upd(0, &[-100.0], true)], &ctx);
        assert_eq!(out.accepted.len(), 1);
        assert!(guard.ran_blind());
    }

    #[test]
    fn nonfinite_rejected_by_both() {
        let g = Vector::zeros(1);
        let trusted = Vector::from(vec![1.0]);
        let ctx = FilterContext::new(0, &g, 20).with_trusted_delta(&trusted);
        let out = ZenoPlusPlus::new().filter(vec![upd(0, &[f64::NAN], true)], &ctx);
        assert_eq!(out.rejected.len(), 1);
        let out = AflGuard::default().filter(vec![upd(0, &[f64::NAN], true)], &ctx);
        assert_eq!(out.rejected.len(), 1);
    }

    #[test]
    #[should_panic(expected = "lambda")]
    fn aflguard_invalid_lambda_panics() {
        let _ = AflGuard::new(0.0);
    }
}
