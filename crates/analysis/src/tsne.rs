//! Exact t-SNE (van der Maaten & Hinton, JMLR 2008).
//!
//! The paper's motivating Figs. 3–4 are t-SNE embeddings of the local
//! updates received in one communication round, colored by staleness level.
//! At those sizes (≲ a few hundred points) the exact O(n²) algorithm is
//! fast and avoids Barnes–Hut approximation error, so that is what we
//! implement: per-point bandwidths from a binary search on perplexity,
//! symmetrized affinities, early exaggeration, and momentum gradient
//! descent on a 2-D embedding.

use asyncfl_data::sampling::standard_normal;
use asyncfl_rng::rngs::StdRng;
use asyncfl_rng::SeedableRng;
use asyncfl_tensor::kernels::sum_seq;
use asyncfl_tensor::Vector;

/// t-SNE hyperparameters.
#[derive(Debug, Clone, PartialEq)]
pub struct TsneConfig {
    /// Target perplexity (effective neighbour count). Clamped internally to
    /// `(n − 1) / 3` as usual.
    pub perplexity: f64,
    /// Gradient-descent iterations.
    pub iterations: usize,
    /// Learning rate (η).
    pub learning_rate: f64,
    /// Early-exaggeration factor applied for the first quarter of the run.
    pub exaggeration: f64,
    /// RNG seed for the initial embedding.
    pub seed: u64,
}

impl Default for TsneConfig {
    fn default() -> Self {
        Self {
            perplexity: 30.0,
            iterations: 400,
            learning_rate: 20.0,
            exaggeration: 4.0,
            seed: 0x7512e,
        }
    }
}

/// Embeds `points` into 2-D.
///
/// Returns one `(x, y)` pair per input point. Degenerate inputs (fewer than
/// 3 points) are placed deterministically without optimization.
///
/// # Panics
///
/// Panics if point dimensions are inconsistent or any coordinate is
/// non-finite.
#[expect(
    clippy::needless_range_loop,
    reason = "parallel-array indexing is the clearest form here"
)]
pub fn embed(points: &[Vector], config: &TsneConfig) -> Vec<(f64, f64)> {
    let n = points.len();
    if n == 0 {
        return Vec::new();
    }
    let dim = points[0].len();
    assert!(
        points.iter().all(|p| p.len() == dim && p.is_finite()),
        "tsne: inconsistent or non-finite input"
    );
    let mut rng = StdRng::seed_from_u64(config.seed);
    if n < 3 {
        // Nothing to optimize; spread deterministically.
        return (0..n).map(|i| (i as f64, 0.0)).collect();
    }

    // Pairwise squared distances.
    let mut d2 = vec![vec![0.0f64; n]; n];
    for i in 0..n {
        for j in (i + 1)..n {
            let d = points[i].distance_squared(&points[j]);
            d2[i][j] = d;
            d2[j][i] = d;
        }
    }

    // Per-point sigma via binary search on perplexity.
    let target = config.perplexity.min(((n - 1) as f64 / 3.0).max(1.0));
    let log_target = target.ln();
    let mut p = vec![vec![0.0f64; n]; n];
    for i in 0..n {
        let mut beta_lo = 0.0f64;
        let mut beta_hi = f64::INFINITY;
        let mut beta = 1.0f64;
        for _ in 0..64 {
            // Conditional distribution p_{j|i} under precision beta.
            let mut sum = 0.0;
            let mut weighted = 0.0;
            for j in 0..n {
                if j == i {
                    continue;
                }
                let w = (-beta * d2[i][j]).exp();
                sum += w; // lint:allow(F3) -- fused accumulators; a split pass would recompute exp()
                weighted += beta * d2[i][j] * w; // lint:allow(F3) -- fused accumulators; a split pass would recompute exp()
            }
            if sum <= 0.0 {
                break;
            }
            // Shannon entropy H = ln(sum) + weighted/sum.
            let entropy = sum.ln() + weighted / sum;
            let diff = entropy - log_target;
            if diff.abs() < 1e-5 {
                break;
            }
            if diff > 0.0 {
                beta_lo = beta;
                beta = if beta_hi.is_finite() {
                    0.5 * (beta + beta_hi)
                } else {
                    beta * 2.0
                };
            } else {
                beta_hi = beta;
                beta = 0.5 * (beta + beta_lo);
            }
        }
        let mut sum = 0.0;
        for j in 0..n {
            if j != i {
                p[i][j] = (-beta * d2[i][j]).exp();
                sum += p[i][j]; // lint:allow(F3) -- accumulates the row being written in place
            }
        }
        if sum > 0.0 {
            for j in 0..n {
                p[i][j] /= sum;
            }
        }
    }

    // Symmetrize; floor for numerical stability.
    let mut pij = vec![vec![0.0f64; n]; n];
    for i in 0..n {
        for j in 0..n {
            pij[i][j] = ((p[i][j] + p[j][i]) / (2.0 * n as f64)).max(1e-12);
        }
    }

    // Initial embedding ~ N(0, 1e-4).
    let mut y: Vec<(f64, f64)> = (0..n)
        .map(|_| {
            (
                1e-2 * standard_normal(&mut rng),
                1e-2 * standard_normal(&mut rng),
            )
        })
        .collect();
    let mut velocity = vec![(0.0f64, 0.0f64); n];
    let exaggerate_until = config.iterations / 4;

    for iter in 0..config.iterations {
        let ex = if iter < exaggerate_until {
            config.exaggeration
        } else {
            1.0
        };
        // Student-t affinities in the embedding.
        let mut q_num = vec![vec![0.0f64; n]; n];
        let mut q_sum = 0.0;
        for i in 0..n {
            for j in (i + 1)..n {
                let dx = y[i].0 - y[j].0;
                let dy = y[i].1 - y[j].1;
                let w = 1.0 / (1.0 + dx * dx + dy * dy);
                q_num[i][j] = w;
                q_num[j][i] = w;
                q_sum += 2.0 * w; // lint:allow(F3) -- accumulates the matrix being written in place
            }
        }
        let q_sum = q_sum.max(1e-12);

        // Gradient: 4 Σⱼ (ex·pᵢⱼ − qᵢⱼ)·wᵢⱼ·(yᵢ − yⱼ).
        let momentum = if iter < 20 { 0.5 } else { 0.8 };
        for i in 0..n {
            let mut gx = 0.0;
            let mut gy = 0.0;
            for j in 0..n {
                if i == j {
                    continue;
                }
                let q = q_num[i][j] / q_sum;
                let coeff = 4.0 * (ex * pij[i][j] - q) * q_num[i][j];
                gx += coeff * (y[i].0 - y[j].0); // lint:allow(F3) -- fused 2-D gradient accumulators
                gy += coeff * (y[i].1 - y[j].1); // lint:allow(F3) -- fused 2-D gradient accumulators
            }
            velocity[i].0 = momentum * velocity[i].0 - config.learning_rate * gx;
            velocity[i].1 = momentum * velocity[i].1 - config.learning_rate * gy;
        }
        for i in 0..n {
            y[i].0 += velocity[i].0;
            y[i].1 += velocity[i].1;
        }
        // Re-center to keep coordinates bounded.
        let cx = sum_seq(y.iter().map(|p| p.0)) / n as f64;
        let cy = sum_seq(y.iter().map(|p| p.1)) / n as f64;
        for p in &mut y {
            p.0 -= cx;
            p.1 -= cy;
        }
    }
    y
}

#[cfg(test)]
mod tests {
    use super::*;
    use asyncfl_rng::RngExt;

    fn blob(center: &[f64], n: usize, spread: f64, rng: &mut StdRng) -> Vec<Vector> {
        (0..n)
            .map(|_| {
                Vector::from_fn(center.len(), |d| {
                    center[d] + spread * (rng.random::<f64>() - 0.5)
                })
            })
            .collect()
    }

    fn mean_dist(pts: &[(f64, f64)], a: &[usize], b: &[usize]) -> f64 {
        let mut total = 0.0;
        let mut count = 0;
        for &i in a {
            for &j in b {
                if i != j {
                    let dx = pts[i].0 - pts[j].0;
                    let dy = pts[i].1 - pts[j].1;
                    total += (dx * dx + dy * dy).sqrt();
                    count += 1;
                }
            }
        }
        total / count as f64
    }

    #[test]
    fn separated_clusters_stay_separated() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut points = blob(&[0.0, 0.0, 0.0], 15, 0.5, &mut rng);
        points.extend(blob(&[20.0, 20.0, 20.0], 15, 0.5, &mut rng));
        let cfg = TsneConfig {
            iterations: 250,
            perplexity: 5.0,
            ..TsneConfig::default()
        };
        let emb = embed(&points, &cfg);
        let a: Vec<usize> = (0..15).collect();
        let b: Vec<usize> = (15..30).collect();
        let intra = 0.5 * (mean_dist(&emb, &a, &a) + mean_dist(&emb, &b, &b));
        let inter = mean_dist(&emb, &a, &b);
        assert!(
            inter > 2.0 * intra,
            "clusters merged: intra {intra:.3} inter {inter:.3}"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let mut rng = StdRng::seed_from_u64(2);
        let points = blob(&[0.0, 0.0], 10, 1.0, &mut rng);
        let cfg = TsneConfig {
            iterations: 50,
            ..TsneConfig::default()
        };
        assert_eq!(embed(&points, &cfg), embed(&points, &cfg));
    }

    #[test]
    fn output_is_finite_and_centered() {
        let mut rng = StdRng::seed_from_u64(3);
        let points = blob(&[1.0, -1.0, 0.5], 20, 2.0, &mut rng);
        let emb = embed(
            &points,
            &TsneConfig {
                iterations: 100,
                ..Default::default()
            },
        );
        assert_eq!(emb.len(), 20);
        assert!(emb.iter().all(|p| p.0.is_finite() && p.1.is_finite()));
        let cx = emb.iter().map(|p| p.0).sum::<f64>() / 20.0;
        assert!(cx.abs() < 1e-6);
    }

    #[test]
    fn degenerate_inputs() {
        assert!(embed(&[], &TsneConfig::default()).is_empty());
        let one = vec![Vector::from(vec![1.0])];
        assert_eq!(embed(&one, &TsneConfig::default()), vec![(0.0, 0.0)]);
        let two = vec![Vector::from(vec![1.0]), Vector::from(vec![2.0])];
        assert_eq!(embed(&two, &TsneConfig::default()).len(), 2);
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn nan_input_panics() {
        let points = vec![
            Vector::from(vec![f64::NAN]),
            Vector::from(vec![0.0]),
            Vector::from(vec![1.0]),
        ];
        let _ = embed(&points, &TsneConfig::default());
    }
}
