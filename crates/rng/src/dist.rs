//! Self-contained random samplers.
//!
//! The paper's experimental setup relies on three distributions: the
//! **Dirichlet** distribution (data heterogeneity, concentration α), the
//! **Zipf** distribution over client ranks (system speed heterogeneity,
//! exponent *s*) and **Gaussians** (synthetic features and attack noise).
//! Each sampler is implemented from first principles and tested against
//! analytic moments *and* golden value streams — they are part of the
//! substrate this reproduction owns, so seeded results can never be moved
//! by a dependency upgrade.

use crate::{Rng, RngExt};

/// Samples a standard normal deviate via the Box–Muller transform.
///
/// ```
/// use asyncfl_rng::dist::standard_normal;
/// use asyncfl_rng::{SeedableRng, rngs::StdRng};
/// let mut rng = StdRng::seed_from_u64(0);
/// let x = standard_normal(&mut rng);
/// assert!(x.is_finite());
/// ```
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    // u1 in (0, 1] so ln(u1) is finite.
    let u1: f64 = 1.0 - rng.random::<f64>();
    let u2: f64 = rng.random();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Samples `N(mean, std²)`.
///
/// # Panics
///
/// Panics if `std < 0` or either parameter is non-finite.
pub fn normal<R: Rng + ?Sized>(rng: &mut R, mean: f64, std: f64) -> f64 {
    assert!(
        std >= 0.0 && std.is_finite() && mean.is_finite(),
        "normal: invalid parameters mean={mean} std={std}"
    );
    mean + std * standard_normal(rng)
}

/// Samples a Gamma(shape, 1) deviate via the Marsaglia–Tsang squeeze method,
/// with the standard boosting trick for `shape < 1`.
///
/// # Panics
///
/// Panics if `shape <= 0` or is non-finite.
pub fn gamma<R: Rng + ?Sized>(rng: &mut R, shape: f64) -> f64 {
    assert!(
        shape > 0.0 && shape.is_finite(),
        "gamma: shape must be positive and finite, got {shape}"
    );
    if shape < 1.0 {
        // Gamma(a) = Gamma(a+1) * U^(1/a)
        let u: f64 = 1.0 - rng.random::<f64>();
        return gamma(rng, shape + 1.0) * u.powf(1.0 / shape);
    }
    let d = shape - 1.0 / 3.0;
    let c = 1.0 / (9.0 * d).sqrt();
    loop {
        let x = standard_normal(rng);
        let v = 1.0 + c * x;
        if v <= 0.0 {
            continue;
        }
        let v3 = v * v * v;
        let u: f64 = 1.0 - rng.random::<f64>();
        // Squeeze check followed by the full acceptance check.
        if u < 1.0 - 0.0331 * x.powi(4) || u.ln() < 0.5 * x * x + d * (1.0 - v3 + v3.ln()) {
            return d * v3;
        }
    }
}

/// Samples a probability vector from a symmetric Dirichlet(α, …, α) with `k`
/// categories, by normalizing independent Gamma(α, 1) deviates.
///
/// With α ≤ 1 the mass concentrates on few categories (highly non-IID client
/// label distributions in the paper); with α > 1 it spreads evenly.
///
/// # Panics
///
/// Panics if `k == 0` or `alpha <= 0`.
pub fn dirichlet<R: Rng + ?Sized>(rng: &mut R, alpha: f64, k: usize) -> Vec<f64> {
    assert!(k > 0, "dirichlet: k must be positive");
    assert!(
        alpha > 0.0 && alpha.is_finite(),
        "dirichlet: alpha must be positive and finite, got {alpha}"
    );
    let mut draws: Vec<f64> = (0..k).map(|_| gamma(rng, alpha)).collect();
    let total: f64 = draws.iter().sum(); // lint:allow(F3) -- asyncfl-rng sits below asyncfl-tensor in the crate DAG, so kernels is unavailable
    if total <= 0.0 || !total.is_finite() {
        // Numerically degenerate draw (possible for tiny alpha where every
        // gamma underflows): fall back to a one-hot on a uniform category,
        // which is the limiting Dirichlet(α→0) behaviour.
        let hot = rng.random_range(0..k);
        draws.iter_mut().for_each(|d| *d = 0.0);
        draws[hot] = 1.0;
        return draws;
    }
    draws.iter_mut().for_each(|d| *d /= total);
    draws
}

/// A finite Zipf distribution over ranks `1..=n` with exponent `s`:
/// `P(rank = k) ∝ 1 / k^s`.
///
/// The paper models client processing latency with Zipf(s = 1.2) — most
/// clients fast, a few stragglers — and Zipf(s = 2.5) for the skewed
/// speed-heterogeneity study (Table 10).
#[derive(Debug, Clone, PartialEq)]
pub struct Zipf {
    exponent: f64,
    cumulative: Vec<f64>,
}

impl Zipf {
    /// Builds the distribution over ranks `1..=n`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `s <= 0`.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf: n must be positive");
        assert!(
            s > 0.0 && s.is_finite(),
            "Zipf: s must be positive, got {s}"
        );
        let weights: Vec<f64> = (1..=n).map(|k| (k as f64).powf(-s)).collect();
        let total: f64 = weights.iter().sum(); // lint:allow(F3) -- asyncfl-rng sits below asyncfl-tensor in the crate DAG, so kernels is unavailable
        let mut cumulative = Vec::with_capacity(n);
        let mut acc = 0.0;
        for w in &weights {
            acc += w / total; // lint:allow(F3) -- prefix-sum construction (every partial is kept), not a reduction
            cumulative.push(acc);
        }
        // Guard against floating-point drift at the tail.
        if let Some(last) = cumulative.last_mut() {
            *last = 1.0;
        }
        Self {
            exponent: s,
            cumulative,
        }
    }

    /// Number of ranks.
    pub fn n(&self) -> usize {
        self.cumulative.len()
    }

    /// The exponent `s`.
    pub fn exponent(&self) -> f64 {
        self.exponent
    }

    /// Probability of rank `k` (1-based).
    ///
    /// # Panics
    ///
    /// Panics if `k` is 0 or exceeds `n`.
    pub fn pmf(&self, k: usize) -> f64 {
        assert!(k >= 1 && k <= self.n(), "Zipf: rank {k} out of range");
        let prev = if k == 1 { 0.0 } else { self.cumulative[k - 2] };
        self.cumulative[k - 1] - prev
    }

    /// Samples a rank in `1..=n` by inverse-CDF lookup.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.random();
        match self.cumulative.binary_search_by(|c| c.total_cmp(&u)) {
            Ok(i) => i + 1,
            Err(i) => (i + 1).min(self.n()),
        }
    }
}

/// Samples an index from an unnormalized nonnegative weight slice.
///
/// Used by the Dirichlet partitioner to draw labels from a per-client
/// label distribution.
///
/// # Panics
///
/// Panics if `weights` is empty, contains a negative or non-finite value, or
/// sums to zero.
pub fn categorical<R: Rng + ?Sized>(rng: &mut R, weights: &[f64]) -> usize {
    assert!(!weights.is_empty(), "categorical: empty weights");
    let mut total = 0.0;
    for &w in weights {
        assert!(w >= 0.0 && w.is_finite(), "categorical: invalid weight {w}");
        total += w; // lint:allow(F3) -- fused with per-weight validation; kernels is a layer above asyncfl-rng
    }
    assert!(total > 0.0, "categorical: weights sum to zero");
    let mut u = rng.random::<f64>() * total;
    for (i, &w) in weights.iter().enumerate() {
        u -= w;
        if u <= 0.0 {
            return i;
        }
    }
    weights.len() - 1
}

/// Fisher–Yates shuffles indices `0..n`, returning the permutation.
pub fn permutation<R: Rng + ?Sized>(rng: &mut R, n: usize) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rng.random_range(0..=i);
        idx.swap(i, j);
    }
    idx
}

/// The first `m` values of `permutation(rng, n)`, as a sorted set, in
/// O(m) memory — without materializing the permutation.
///
/// Byte-compatibility contract: the returned ids are exactly
/// `{permutation(rng, n)[p] : p < m}`, and the generator is left in the
/// same state as after a full `permutation` call (all `n − 1` draws
/// consumed), so code before and after the call sees unchanged streams.
/// The simulation engines rely on this to derive attacker assignments at
/// million-client scale while every paper-scale golden holds.
///
/// How: `permutation` swaps positions `(i, jᵢ)` for `i = n−1 … 1`, so the
/// final value at position `p` is `τ_{n-1}(…τ_1(p)…)` where `τ_s` is the
/// `s`-th swap performed. Applying those transpositions to the *set*
/// `{0..m}` in reverse order of performance (ascending `i`) tracks the
/// prefix values; each swap's draw is fetched by an O(1)
/// [`StdRng::advance`](crate::rngs::StdRng::advance) jump on a probe clone, so no draw is consumed out
/// of order and none is materialized into an O(n) buffer.
pub fn select_prefix(rng: &mut crate::rngs::StdRng, n: usize, m: usize) -> Vec<usize> {
    let m = m.min(n);
    let mut selected: std::collections::BTreeSet<usize> = (0..m).collect();
    for i in 1..n {
        // Swap `(i, jᵢ)` was the `(n − 1 − i)`-th draw of the stream.
        let mut probe = rng.clone();
        probe.advance((n - 1 - i) as u64);
        let j = probe.random_range(0..=i);
        if j != i {
            let has_i = selected.contains(&i);
            let has_j = selected.contains(&j);
            if has_i && !has_j {
                selected.remove(&i);
                selected.insert(j);
            } else if has_j && !has_i {
                selected.remove(&j);
                selected.insert(i);
            }
        }
    }
    rng.advance(n.saturating_sub(1) as u64);
    selected.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rngs::StdRng;
    use crate::SeedableRng;

    /// Golden values: one draw per sampler from a fixed seed, compared as
    /// exact bit patterns. These freeze every distribution's stream — a
    /// change to any sampler (or to the core generator) moves them and
    /// invalidates the repo's committed experiment goldens.
    #[test]
    fn golden_distribution_streams() {
        let mut rng = StdRng::seed_from_u64(2024);
        let n = standard_normal(&mut rng);
        let g = gamma(&mut rng, 2.5);
        let d = dirichlet(&mut rng, 0.5, 3);
        let z = Zipf::new(10, 1.2);
        let zs: Vec<usize> = (0..5).map(|_| z.sample(&mut rng)).collect();
        let c = categorical(&mut rng, &[1.0, 2.0, 3.0]);
        let p = permutation(&mut rng, 6);
        let fingerprint = format!(
            "{:016x} {:016x} [{}] {:?} {} {:?}",
            n.to_bits(),
            g.to_bits(),
            d.iter()
                .map(|x| format!("{:016x}", x.to_bits()))
                .collect::<Vec<_>>()
                .join(" "),
            zs,
            c,
            p
        );
        assert_eq!(
            fingerprint,
            "3ff297f9fd08e766 3fe0a660c2b4e285 \
             [3fab1f4f5945a69c 3fe561ba987f8ffc 3fd1d8a0e3d82b33] \
             [8, 1, 5, 3, 2] 2 [0, 2, 4, 1, 3, 5]"
        );
    }

    /// Pins the draw counts `Task::skip_client_dataset` relies on to skip
    /// a shard with `StdRng::advance`: `standard_normal` takes exactly two
    /// draws (Box–Muller), an integer `random_range` and `categorical`
    /// exactly one each, whatever the value drawn.
    #[test]
    fn skip_relied_draw_counts_are_exact() {
        for seed in 0..200u64 {
            let start = StdRng::seed_from_u64(seed);
            let advanced = |steps| {
                let mut rng = start.clone();
                rng.advance(steps);
                rng
            };
            let mut rng = start.clone();
            standard_normal(&mut rng);
            assert_eq!(rng, advanced(2), "standard_normal, seed {seed}");
            let mut rng = start.clone();
            rng.random_range(0..9usize);
            assert_eq!(rng, advanced(1), "random_range, seed {seed}");
            let mut rng = start.clone();
            categorical(&mut rng, &[0.0, 0.5, 2.0, 1e-9]);
            assert_eq!(rng, advanced(1), "categorical, seed {seed}");
        }
    }

    #[test]
    fn normal_moments() {
        let mut rng = StdRng::seed_from_u64(11);
        let n = 20_000;
        let xs: Vec<f64> = (0..n).map(|_| normal(&mut rng, 2.0, 3.0)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 2.0).abs() < 0.1, "mean {mean}");
        assert!((var - 9.0).abs() < 0.5, "var {var}");
    }

    #[test]
    fn gamma_moments_shape_above_one() {
        let mut rng = StdRng::seed_from_u64(12);
        let shape = 4.5;
        let n = 20_000;
        let xs: Vec<f64> = (0..n).map(|_| gamma(&mut rng, shape)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - shape).abs() < 0.15, "mean {mean}");
        assert!((var - shape).abs() < 0.6, "var {var}");
        assert!(xs.iter().all(|&x| x > 0.0));
    }

    #[test]
    fn gamma_moments_shape_below_one() {
        let mut rng = StdRng::seed_from_u64(13);
        let shape = 0.3;
        let n = 40_000;
        let xs: Vec<f64> = (0..n).map(|_| gamma(&mut rng, shape)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        assert!((mean - shape).abs() < 0.05, "mean {mean}");
        assert!(xs.iter().all(|&x| x >= 0.0 && x.is_finite()));
    }

    #[test]
    #[should_panic(expected = "shape")]
    fn gamma_rejects_nonpositive_shape() {
        let mut rng = StdRng::seed_from_u64(0);
        let _ = gamma(&mut rng, 0.0);
    }

    #[test]
    fn dirichlet_sums_to_one_and_concentrates() {
        let mut rng = StdRng::seed_from_u64(14);
        // Small alpha: mass concentrated on few labels.
        let p = dirichlet(&mut rng, 0.05, 10);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        let max = p.iter().copied().fold(0.0, f64::max);
        assert!(max > 0.5, "alpha=0.05 should concentrate, max={max}");
        // Large alpha: near uniform.
        let p = dirichlet(&mut rng, 100.0, 10);
        assert!(p.iter().all(|&x| (x - 0.1).abs() < 0.08), "{p:?}");
    }

    #[test]
    fn zipf_pmf_matches_definition() {
        let z = Zipf::new(5, 1.2);
        let total: f64 = (1..=5).map(|k| z.pmf(k)).sum();
        assert!((total - 1.0).abs() < 1e-9);
        // Monotone decreasing in rank.
        for k in 1..5 {
            assert!(z.pmf(k) > z.pmf(k + 1));
        }
        // Direct ratio check: pmf(1)/pmf(2) = 2^s.
        assert!((z.pmf(1) / z.pmf(2) - 2f64.powf(1.2)).abs() < 1e-9);
    }

    #[test]
    fn zipf_sampling_frequencies() {
        let z = Zipf::new(10, 1.2);
        let mut rng = StdRng::seed_from_u64(16);
        let n = 50_000;
        let mut counts = [0usize; 10];
        for _ in 0..n {
            counts[z.sample(&mut rng) - 1] += 1;
        }
        for k in 1..=10 {
            let freq = counts[k - 1] as f64 / n as f64;
            assert!(
                (freq - z.pmf(k)).abs() < 0.01,
                "rank {k}: freq {freq} vs pmf {}",
                z.pmf(k)
            );
        }
    }

    #[test]
    fn categorical_respects_weights() {
        let mut rng = StdRng::seed_from_u64(17);
        let weights = [0.0, 3.0, 1.0];
        let n = 20_000;
        let mut counts = [0usize; 3];
        for _ in 0..n {
            counts[categorical(&mut rng, &weights)] += 1;
        }
        assert_eq!(counts[0], 0);
        let f1 = counts[1] as f64 / n as f64;
        assert!((f1 - 0.75).abs() < 0.02, "{f1}");
    }

    #[test]
    fn permutation_is_a_permutation() {
        let mut rng = StdRng::seed_from_u64(18);
        let p = permutation(&mut rng, 100);
        let mut sorted = p.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert!(permutation(&mut rng, 0).is_empty());
    }

    /// The prefix-selection contract: same selected set as the full
    /// permutation's first `m` values AND the same generator end state,
    /// across sizes, prefix lengths and seeds (including the degenerate
    /// n ∈ {0, 1} and m ∈ {0, n} corners).
    #[test]
    fn select_prefix_matches_permutation_prefix_and_stream() {
        use crate::Rng;
        for seed in [0u64, 7, 2024, 0xfeed_beef] {
            for n in [0usize, 1, 2, 3, 6, 17, 100, 257] {
                for m in [0usize, 1, 2, n / 2, n.saturating_sub(1), n, n + 3] {
                    let mut a = StdRng::seed_from_u64(seed ^ n as u64);
                    let mut b = a.clone();
                    let selected = select_prefix(&mut a, n, m);
                    let full = permutation(&mut b, n);
                    let mut expected: Vec<usize> = full.iter().take(m).copied().collect();
                    expected.sort_unstable();
                    assert_eq!(selected, expected, "seed {seed} n {n} m {m}");
                    // Stream parity: both paths consumed exactly n−1 draws.
                    assert_eq!(
                        a.next_u64(),
                        b.next_u64(),
                        "stream diverged: seed {seed} n {n} m {m}"
                    );
                }
            }
        }
    }

    /// Pins the exact master-stream position the simulation engines use:
    /// drawing a prefix after other master draws must equal taking the
    /// prefix of the historical full-permutation call at that position.
    #[test]
    fn select_prefix_golden_at_engine_position() {
        let mut rng = StdRng::seed_from_u64(42);
        let _ = standard_normal(&mut rng); // stand-ins for earlier master draws
        let _ = gamma(&mut rng, 2.5);
        let mut twin = rng.clone();
        let selected = select_prefix(&mut rng, 100, 20);
        let full = permutation(&mut twin, 100);
        let mut expected: Vec<usize> = full[..20].to_vec();
        expected.sort_unstable();
        assert_eq!(selected, expected);
        assert_eq!(selected.len(), 20);
    }

    #[test]
    fn samplers_are_deterministic_under_seed() {
        let draw = |seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            (
                standard_normal(&mut rng),
                gamma(&mut rng, 2.0),
                dirichlet(&mut rng, 0.1, 4),
                Zipf::new(7, 1.2).sample(&mut rng),
            )
        };
        assert_eq!(draw(99), draw(99));
    }
}
