//! Exact one-dimensional k-means via dynamic programming.
//!
//! One-dimensional k-means has optimal clusterings whose clusters are
//! contiguous intervals of the sorted input, so dynamic programming over
//! the sorted values finds the *global* optimum and, unlike Lloyd
//! iterations, is fully deterministic. Determinism matters for the
//! reproducible-mode guarantees inherited from the paper's PLATO setup.
//!
//! AsyncFilter clusters one score per buffered update, up to Ω = 8 192 at
//! scale, so the exhaustive `O(k·n²)` table is not affordable. The optimal
//! start of the last cluster is monotone in the prefix length (the interval
//! cost satisfies the quadrangle inequality), so each intermediate layer is
//! filled by divide and conquer in `O(n log n)`, and the last layer is read
//! at `j = n` only, in `O(n)` (Grønlund et al., *Fast Exact k-Means,
//! k-Medians and Bregman Divergence Clustering in 1D*, arXiv:1701.07204;
//! Wang & Song, *Ckmeans.1d.dp*, R Journal 2011). Total: one sort plus
//! `O(k·n log n)`, and `O(n)` after the sort for `k ≤ 2`. The tie contract
//! is stated on [`kmeans_1d`].

use asyncfl_tensor::kernels::total_order_key;

/// Result of an exact 1-D k-means run.
#[derive(Debug, Clone, PartialEq)]
pub struct KMeans1dResult {
    /// Cluster index per input point (same order as the input), with cluster
    /// indices ordered by ascending centroid: cluster `0` has the smallest
    /// mean, cluster `k−1` the largest.
    pub assignments: Vec<usize>,
    /// Cluster means, ascending.
    pub centroids: Vec<f64>,
    /// Number of points per cluster.
    pub sizes: Vec<usize>,
    /// Total within-cluster sum of squared deviations.
    pub inertia: f64,
}

impl KMeans1dResult {
    /// Index of the cluster with the largest centroid that is non-empty.
    ///
    /// All clusters produced by [`kmeans_1d`] are non-empty when
    /// `k <= number of distinct values`; with fewer distinct values,
    /// higher clusters may be empty and are skipped.
    pub fn highest_cluster(&self) -> usize {
        (0..self.centroids.len())
            .rev()
            .find(|&c| self.sizes[c] > 0)
            .unwrap_or(0)
    }

    /// Index of the non-empty cluster with the smallest centroid.
    pub fn lowest_cluster(&self) -> usize {
        (0..self.centroids.len())
            .find(|&c| self.sizes[c] > 0)
            .unwrap_or(0)
    }

    /// Number of clusters requested (including any empty ones).
    pub fn k(&self) -> usize {
        self.centroids.len()
    }
}

/// Exact k-means on scalars.
///
/// Returns globally optimal clusters (minimum within-cluster sum of squares).
/// If there are fewer distinct values than `k`, the surplus clusters are
/// empty (size 0, centroid `NaN`-free: set to the overall maximum).
///
/// Runs in `O(k·n log n)`; `k ≤ 2` costs one sort plus `O(n)`.
///
/// # Ties
///
/// Equal values keep their input order after sorting, and every DP cell
/// takes the *smallest* last-cluster start among equal-cost candidates
/// (strict `<`). In exact arithmetic that smallest optimal start is
/// nondecreasing in the prefix length, which is what the
/// divide-and-conquer fill relies on. When float rounding breaks that
/// monotonicity — candidate splits whose costs agree to within an ulp or
/// so, e.g. several value levels separated by `1e-12` jitter — the result
/// may pick a different split than an exhaustive scan would, but one whose
/// inertia is equal within rounding. Wherever the optimum is unique beyond
/// rounding, the assignments are exactly those of the exhaustive `O(k·n²)`
/// dynamic program.
///
/// # Panics
///
/// Panics if `values` is empty, `k == 0`, or any value is non-finite.
///
/// ```
/// use asyncfl_clustering::one_dim::kmeans_1d;
/// let r = kmeans_1d(&[1.0, 1.1, 5.0, 5.1], 2);
/// assert_eq!(r.assignments, vec![0, 0, 1, 1]);
/// assert!(r.inertia < 0.02);
/// ```
pub fn kmeans_1d(values: &[f64], k: usize) -> KMeans1dResult {
    solve(values, k, monotone_boundaries)
}

/// Sorted values with prefix sums, for `O(1)` interval cost queries.
struct Prefix {
    sorted: Vec<f64>,
    pref: Vec<f64>,
    pref_sq: Vec<f64>,
}

impl Prefix {
    fn new(sorted: Vec<f64>) -> Self {
        let n = sorted.len();
        let mut pref = vec![0.0; n + 1];
        let mut pref_sq = vec![0.0; n + 1];
        for (i, &x) in sorted.iter().enumerate() {
            pref[i + 1] = pref[i] + x;
            pref_sq[i + 1] = pref_sq[i] + x * x;
        }
        Self {
            sorted,
            pref,
            pref_sq,
        }
    }

    fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Cost of clustering `sorted[i..j]` (half-open) into one cluster.
    fn cost(&self, i: usize, j: usize) -> f64 {
        if j <= i {
            return 0.0;
        }
        let len = (j - i) as f64;
        let sum = self.pref[j] - self.pref[i];
        ((self.pref_sq[j] - self.pref_sq[i]) - sum * sum / len).max(0.0)
    }
}

/// Cluster boundaries `b` (`b[0] = 0`, `b[kk] = n`, cluster `c` covers
/// `sorted[b[c]..b[c + 1]]`) of an optimal `kk`-clustering.
type BoundaryFn = fn(&Prefix, usize) -> Vec<usize>;

/// Validates, sorts, finds boundaries with `boundaries`, and assembles the
/// result in input order.
fn solve(values: &[f64], k: usize, boundaries: BoundaryFn) -> KMeans1dResult {
    assert!(!values.is_empty(), "kmeans_1d: empty input");
    assert!(k > 0, "kmeans_1d: k must be positive");
    assert!(
        values.iter().all(|v| v.is_finite()),
        "kmeans_1d: non-finite value in input"
    );
    let n = values.len();
    // Sort once, remembering original positions. (total-order key, index)
    // pairs are distinct, so the unstable sort yields exactly the stable
    // `total_cmp` order: equal values stay in input order.
    let mut keyed: Vec<(i64, usize)> = values
        .iter()
        .enumerate()
        .map(|(i, &v)| (total_order_key(v), i))
        .collect();
    keyed.sort_unstable();
    let sorted: Vec<f64> = keyed.iter().map(|&(_, i)| values[i]).collect();
    let pfx = Prefix::new(sorted);

    let kk = k.min(n);
    let boundaries = boundaries(&pfx, kk);
    debug_assert!(boundaries.len() == kk + 1 && boundaries.windows(2).all(|w| w[0] <= w[1]));

    let mut assignments = vec![0usize; n];
    let mut centroids = Vec::with_capacity(k);
    let mut sizes = Vec::with_capacity(k);
    let mut inertia = 0.0;
    for (c, w) in boundaries.windows(2).enumerate() {
        let (lo, hi) = (w[0], w[1]);
        for &(_, orig) in &keyed[lo..hi] {
            assignments[orig] = c;
        }
        let len = hi - lo;
        centroids.push(if len > 0 {
            (pfx.pref[hi] - pfx.pref[lo]) / len as f64
        } else {
            pfx.sorted[n - 1]
        });
        sizes.push(len);
        inertia += pfx.cost(lo, hi); // lint:allow(F3) -- fused with the centroid/size construction per interval
    }
    // Pad empty clusters when k > distinct values.
    while centroids.len() < k {
        centroids.push(pfx.sorted[n - 1]);
        sizes.push(0);
    }
    // The DP clusters contiguous sorted intervals, so non-empty centroids
    // must come out in nondecreasing order — AsyncFilter's low < mid < high
    // cluster reading (§4.3) depends on it.
    debug_assert!(
        centroids[..kk].windows(2).all(|w| w[0] <= w[1] + 1e-9),
        "kmeans_1d centroids out of order: {centroids:?}"
    );

    KMeans1dResult {
        assignments,
        centroids,
        sizes,
        inertia,
    }
}

/// Production boundary search. `dp_c[j]` is the least cost of the first
/// `j` sorted points in `c + 1` clusters, and `cut_c[j]` the smallest start
/// `m` of the last cluster attaining it. Intermediate layers are filled by
/// divide and conquer over the monotone `cut_c`, `O(n log n)` each; the
/// last layer is needed only at `j = n`, one `O(n)` scan.
fn monotone_boundaries(pfx: &Prefix, kk: usize) -> Vec<usize> {
    let n = pfx.len();
    let mut prev: Vec<f64> = (0..=n).map(|j| pfx.cost(0, j)).collect();
    let mut cur = vec![f64::INFINITY; n + 1];
    // cuts[c - 1] holds layer c's cut row, for 1 <= c < kk - 1.
    let mut cuts: Vec<Vec<usize>> = Vec::with_capacity(kk.saturating_sub(2));
    for c in 1..kk.saturating_sub(1) {
        let mut cut = vec![0usize; n + 1];
        fill_layer(pfx, &prev, &mut cur, &mut cut, (c + 1, n), (c, n - 1));
        cuts.push(cut);
        std::mem::swap(&mut prev, &mut cur);
    }

    let mut boundaries = vec![0usize; kk + 1];
    boundaries[kk] = n;
    if kk >= 2 {
        let c = kk - 1;
        let (_, last) = best_start(pfx, &prev, n, c, n - 1);
        boundaries[c] = last;
        let mut j = last;
        for c in (1..kk - 1).rev() {
            j = cuts[c - 1][j];
            boundaries[c] = j;
        }
    }
    boundaries
}

/// Least `prev[m] + cost(m, j)` over `m` in `lo..=min(hi, j − 1)`,
/// scanning upward with strict `<` so the smallest minimizing `m` wins.
/// Returns `(cost, m)`.
fn best_start(pfx: &Prefix, prev: &[f64], j: usize, lo: usize, hi: usize) -> (f64, usize) {
    let hi = hi.min(j - 1);
    let mut best = (f64::INFINITY, lo);
    for (m, &head) in prev.iter().enumerate().take(hi + 1).skip(lo) {
        let cost = head + pfx.cost(m, j);
        if cost < best.0 {
            best = (cost, m);
        }
    }
    best
}

/// Fills one layer's `cur[j]` and `cut[j]` for `j` in `js.0..=js.1`,
/// given that each optimal start lies in `ms.0..=ms.1`: solve the middle
/// row, then recurse on each half with the range split at its start.
fn fill_layer(
    pfx: &Prefix,
    prev: &[f64],
    cur: &mut [f64],
    cut: &mut [usize],
    js: (usize, usize),
    ms: (usize, usize),
) {
    if js.0 > js.1 {
        return;
    }
    let j = js.0 + (js.1 - js.0) / 2;
    let (cost, m) = best_start(pfx, prev, j, ms.0, ms.1);
    cur[j] = cost;
    cut[j] = m;
    if j > js.0 {
        fill_layer(pfx, prev, cur, cut, (js.0, j - 1), (ms.0, m));
    }
    fill_layer(pfx, prev, cur, cut, (j + 1, js.1), (m, ms.1));
}

#[cfg(test)]
mod tests {
    use super::*;
    use asyncfl_rng::rngs::StdRng;
    use asyncfl_rng::{RngExt, SeedableRng};
    use proptest::prelude::*;

    /// The exhaustive `O(k·n²)` dynamic program `monotone_boundaries`
    /// replaced, kept as the differential oracle: every cell scans every
    /// last-cluster start, smallest first, strict `<`.
    #[expect(
        clippy::needless_range_loop,
        reason = "DP tables are indexed in lockstep"
    )]
    fn quadratic_boundaries(pfx: &Prefix, kk: usize) -> Vec<usize> {
        let n = pfx.len();
        // dp[c][j] = min cost of clustering the first j points into c+1 clusters.
        let mut dp = vec![vec![f64::INFINITY; n + 1]; kk];
        let mut cut = vec![vec![0usize; n + 1]; kk];
        for j in 0..=n {
            dp[0][j] = pfx.cost(0, j);
        }
        for c in 1..kk {
            for j in (c + 1)..=n {
                // Last cluster covers sorted[m..j]; m >= c so earlier
                // clusters are non-empty.
                for m in c..j {
                    let cost = dp[c - 1][m] + pfx.cost(m, j);
                    if cost < dp[c][j] {
                        dp[c][j] = cost;
                        cut[c][j] = m;
                    }
                }
            }
        }
        let mut boundaries = vec![0usize; kk + 1];
        boundaries[kk] = n;
        let mut j = n;
        for c in (1..kk).rev() {
            j = cut[c][j];
            boundaries[c] = j;
        }
        boundaries
    }

    fn kmeans_1d_quadratic(values: &[f64], k: usize) -> KMeans1dResult {
        solve(values, k, quadratic_boundaries)
    }

    /// Inertia agreement for the differential tests: 1e-12 relative to the
    /// scale the prefix sums work at. Prefix-sum costs carry absolute
    /// rounding error proportional to `Σx²`, so a near-zero inertia cannot
    /// be compared relative to itself.
    fn assert_inertia_agrees(values: &[f64], fast: f64, oracle: f64) {
        let scale = values.iter().map(|x| x * x).sum::<f64>().max(oracle);
        assert!(
            (fast - oracle).abs() <= 1e-12 * scale,
            "inertia {fast} vs oracle {oracle} (scale {scale}) on {values:?}"
        );
    }

    /// 20 000 random inputs, k = 1…4, n ≤ 60, drawn from shapes whose
    /// optimum is unique beyond rounding: assignments, centroids, sizes and
    /// inertia must equal the exhaustive DP's exactly.
    #[test]
    fn differential_random_inputs_match_quadratic_dp() {
        let mut rng = StdRng::seed_from_u64(0x6b6d_6561_6e73);
        for case in 0..20_000 {
            let n = rng.random_range(1..61usize);
            let k = 1 + case % 4;
            let values: Vec<f64> = match case % 3 {
                0 => (0..n).map(|_| rng.random_range(-100.0..100.0)).collect(),
                // Suspicious-score shaped: a benign bulk plus a far tail.
                1 => (0..n)
                    .map(|_| {
                        let base: f64 = rng.random();
                        if rng.random::<f64>() < 0.2 {
                            3.0 + base
                        } else {
                            0.1 * base
                        }
                    })
                    .collect(),
                _ => (0..n).map(|_| rng.random::<f64>().powi(3) * 1e3).collect(),
            };
            let fast = kmeans_1d(&values, k);
            let oracle = kmeans_1d_quadratic(&values, k);
            assert_eq!(fast, oracle, "case {case}: k = {k}, values {values:?}");
        }
    }

    /// Near ties: three value levels with 1e-12 jitter plus exact
    /// duplicates, where rounding can break the monotone-cut property.
    /// Splits may differ only between candidates of equal cost within
    /// rounding; inertia must agree everywhere.
    #[test]
    fn differential_near_ties_agree_on_inertia() {
        let mut rng = StdRng::seed_from_u64(0x7469_6573);
        for case in 0..5_000 {
            let n = rng.random_range(1..61usize);
            let k = 1 + case % 4;
            let levels: [f64; 3] = [
                rng.random_range(0..4u32) as f64,
                rng.random_range(0..4u32) as f64 * 0.5,
                rng.random_range(0..4u32) as f64 * 0.25,
            ];
            let mut values: Vec<f64> = Vec::with_capacity(n);
            for _ in 0..n {
                if !values.is_empty() && rng.random::<f64>() < 0.3 {
                    let i = rng.random_range(0..values.len());
                    values.push(values[i]);
                } else {
                    let level = levels[rng.random_range(0..3usize)];
                    values.push(level + rng.random_range(-1e-12..1e-12));
                }
            }
            let fast = kmeans_1d(&values, k);
            let oracle = kmeans_1d_quadratic(&values, k);
            assert_eq!(fast.sizes.iter().sum::<usize>(), n);
            assert_inertia_agrees(&values, fast.inertia, oracle.inertia);
            if fast.assignments != oracle.assignments {
                // A different split must cost the same, measured
                // independently of the prefix sums.
                assert_inertia_agrees(
                    &values,
                    direct_cost(&values, &fast.assignments),
                    direct_cost(&values, &oracle.assignments),
                );
            }
        }
    }

    /// Two-pass within-cluster sum of squares of a labelling.
    fn direct_cost(values: &[f64], assignments: &[usize]) -> f64 {
        let k = assignments.iter().max().map_or(0, |&a| a + 1);
        (0..k)
            .map(|c| {
                let xs: Vec<f64> = values
                    .iter()
                    .zip(assignments)
                    .filter(|&(_, &a)| a == c)
                    .map(|(&x, _)| x)
                    .collect();
                let m = xs.iter().sum::<f64>() / xs.len().max(1) as f64;
                xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>()
            })
            .sum()
    }

    /// AsyncFilter's size: one pass over thousands of scores matches the
    /// exhaustive DP exactly.
    #[test]
    fn differential_large_n_matches_quadratic_dp() {
        let mut rng = StdRng::seed_from_u64(11);
        for k in [2, 3, 4] {
            let values: Vec<f64> = (0..1_500)
                .map(|i| {
                    let x: f64 = rng.random();
                    if i % 50 == 0 {
                        0.5 + 0.1 * x
                    } else {
                        0.01 * x
                    }
                })
                .collect();
            assert_eq!(kmeans_1d(&values, k), kmeans_1d_quadratic(&values, k));
        }
    }

    #[test]
    fn equal_values_keep_input_order() {
        // Four equal values across two clusters: the sort keeps them in
        // input order, so the earlier inputs take the lower cluster.
        let r = kmeans_1d(&[7.0, 7.0, 7.0, 7.0], 2);
        assert_eq!(r.sizes.iter().sum::<usize>(), 4);
        let lower = r.assignments.iter().take_while(|&&a| a == 0).count();
        assert!(r.assignments[lower..].iter().all(|&a| a == 1));
        assert_eq!(r, kmeans_1d_quadratic(&[7.0, 7.0, 7.0, 7.0], 2));
    }

    #[test]
    fn single_cluster_mean() {
        let r = kmeans_1d(&[1.0, 2.0, 3.0], 1);
        assert_eq!(r.assignments, vec![0, 0, 0]);
        assert!((r.centroids[0] - 2.0).abs() < 1e-12);
        assert!((r.inertia - 2.0).abs() < 1e-12);
        assert_eq!(r.k(), 1);
    }

    #[test]
    fn three_well_separated_groups() {
        let values = [0.0, 0.1, 5.0, 5.1, 10.0, 10.1];
        let r = kmeans_1d(&values, 3);
        assert_eq!(r.assignments, vec![0, 0, 1, 1, 2, 2]);
        assert_eq!(r.sizes, vec![2, 2, 2]);
        assert!((r.centroids[0] - 0.05).abs() < 1e-9);
        assert!((r.centroids[2] - 10.05).abs() < 1e-9);
        assert_eq!(r.highest_cluster(), 2);
        assert_eq!(r.lowest_cluster(), 0);
    }

    #[test]
    fn input_order_does_not_matter() {
        let shuffled = [10.0, 0.1, 5.1, 0.0, 10.1, 5.0];
        let r = kmeans_1d(&shuffled, 3);
        assert_eq!(r.assignments, vec![2, 0, 1, 0, 2, 1]);
    }

    #[test]
    fn fewer_distinct_values_than_k() {
        let r = kmeans_1d(&[1.0, 1.0, 1.0], 3);
        assert!(r.sizes.iter().sum::<usize>() == 3);
        assert_eq!(r.centroids.len(), 3);
        assert!(r.inertia < 1e-12);
        // With identical values the split is arbitrary but every centroid
        // equals the common value.
        assert!(r.centroids.iter().all(|&c| (c - 1.0).abs() < 1e-12));
    }

    #[test]
    fn k_larger_than_n() {
        let r = kmeans_1d(&[3.0, 1.0], 5);
        assert_eq!(r.centroids.len(), 5);
        assert_eq!(r.sizes.iter().sum::<usize>(), 2);
        assert!(r.inertia < 1e-12);
    }

    #[test]
    fn outlier_is_isolated() {
        // The attacker-identification pattern: one big score should form its
        // own top cluster.
        let scores = [0.1, 0.11, 0.12, 0.13, 0.95];
        let r = kmeans_1d(&scores, 3);
        assert_eq!(r.assignments[4], r.highest_cluster());
        assert_eq!(r.sizes[r.highest_cluster()], 1);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_input_panics() {
        let _ = kmeans_1d(&[], 2);
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn nan_input_panics() {
        let _ = kmeans_1d(&[0.0, f64::NAN], 2);
    }

    #[test]
    fn optimality_against_brute_force() {
        // Exhaustively verify on a small instance: DP must match the best of
        // all contiguous 2-splits.
        let values = [0.2, 1.1, 1.15, 3.0, 3.05, 3.1, 7.0];
        let r = kmeans_1d(&values, 2);
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let cost = |xs: &[f64]| {
            let m = xs.iter().sum::<f64>() / xs.len() as f64;
            xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>()
        };
        let best = (1..sorted.len())
            .map(|cut| cost(&sorted[..cut]) + cost(&sorted[cut..]))
            .fold(f64::INFINITY, f64::min);
        assert!((r.inertia - best).abs() < 1e-9);
    }

    proptest! {
        #[test]
        fn prop_clusters_are_intervals(
            mut values in proptest::collection::vec(-100.0..100.0f64, 2..40),
            k in 1usize..5,
        ) {
            let r = kmeans_1d(&values, k);
            // Sort (value, cluster) pairs by value; cluster ids must be
            // non-decreasing — clusters are contiguous intervals.
            let mut pairs: Vec<(f64, usize)> = values
                .drain(..)
                .zip(r.assignments.iter().copied())
                .collect();
            pairs.sort_by(|a, b| a.0.total_cmp(&b.0));
            for w in pairs.windows(2) {
                prop_assert!(w[0].1 <= w[1].1);
            }
        }

        #[test]
        fn prop_centroids_ascending_and_sizes_sum(
            values in proptest::collection::vec(-100.0..100.0f64, 1..40),
            k in 1usize..6,
        ) {
            let r = kmeans_1d(&values, k);
            prop_assert_eq!(r.sizes.iter().sum::<usize>(), values.len());
            for w in r.centroids.windows(2) {
                // Ascending among non-empty; padded clusters use the max value.
                prop_assert!(w[0] <= w[1] + 1e-9);
            }
            prop_assert!(r.inertia >= 0.0);
        }

        #[test]
        fn prop_more_clusters_never_increase_inertia(
            values in proptest::collection::vec(-100.0..100.0f64, 3..30),
        ) {
            let r1 = kmeans_1d(&values, 1);
            let r2 = kmeans_1d(&values, 2);
            let r3 = kmeans_1d(&values, 3);
            prop_assert!(r2.inertia <= r1.inertia + 1e-9);
            prop_assert!(r3.inertia <= r2.inertia + 1e-9);
        }

        #[test]
        fn prop_assignment_matches_nearest_centroid_for_nonempty(
            values in proptest::collection::vec(0.0..1.0f64, 2..30),
        ) {
            // Global optimum implies each point is in the cluster of its
            // nearest (non-empty) centroid.
            let r = kmeans_1d(&values, 3);
            for (i, &v) in values.iter().enumerate() {
                let assigned = r.assignments[i];
                let d_assigned = (v - r.centroids[assigned]).abs();
                for c in 0..3 {
                    if r.sizes[c] > 0 {
                        prop_assert!(d_assigned <= (v - r.centroids[c]).abs() + 1e-9);
                    }
                }
            }
        }
    }
}
