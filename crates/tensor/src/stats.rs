//! Summary statistics over scalars and collections of vectors.
//!
//! The robust-aggregation baselines (coordinate-wise Median and Trimmed-Mean,
//! Yin et al. 2018) are thin wrappers over these kernels; the attack
//! implementations (LIE, Min-Max, Min-Sum) use the per-coordinate mean and
//! standard deviation of benign updates.

use crate::kernels::{self, from_total_order_key, total_order_key, AsSummed};
use crate::Vector;

/// Arithmetic mean of a scalar slice; `0.0` for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        kernels::sum_seq(xs.iter().copied()) / xs.len() as f64
    }
}

/// Population variance of a scalar slice; `0.0` for fewer than two samples.
pub fn variance(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    kernels::sum_seq(xs.iter().map(|x| (x - m) * (x - m))) / xs.len() as f64
}

/// Population standard deviation of a scalar slice.
pub fn std_dev(xs: &[f64]) -> f64 {
    variance(xs).sqrt()
}

/// Median of a scalar slice; `0.0` for an empty slice. Uses the midpoint of
/// the two central order statistics for even lengths. NaNs sort to the high
/// end under `total_cmp` rather than panicking.
///
/// Found by selection, `O(n)`: bit-identical to sorting a copy under
/// `total_cmp` and reading the middle.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut keys: Vec<i64> = xs.iter().map(|&x| total_order_key(x)).collect();
    median_of_keys(&mut keys)
}

/// Median of a non-empty column of [`total_order_key`]s (reordered in
/// place): one order statistic for odd lengths, two for even.
fn median_of_keys(keys: &mut [i64]) -> f64 {
    let n = keys.len();
    let (below, &mut upper, _) = keys.select_nth_unstable(n / 2);
    let upper = from_total_order_key(upper);
    if !n.is_multiple_of(2) {
        return upper;
    }
    // The lower central statistic is the largest key below (n >= 2 here).
    let lower = below
        .iter()
        .max()
        .map_or(upper, |&k| from_total_order_key(k));
    0.5 * (lower + upper)
}

/// The kept middle of a column of [`total_order_key`]s once the `trim`
/// smallest and `trim` largest are dropped, sorted ascending. Two
/// selections isolate it, so only the middle is sorted.
///
/// Requires `2 * trim < keys.len()`.
fn trimmed_middle(keys: &mut [i64], trim: usize) -> &[i64] {
    let kept = keys.len() - 2 * trim;
    if trim > 0 {
        keys.select_nth_unstable(trim);
        // The top `trim` follow the kept middle in the tail.
        #[expect(
            clippy::indexing_slicing,
            reason = "trim < len; tail holds kept + trim > kept"
        )]
        keys[trim..].select_nth_unstable(kept);
    }
    #[expect(clippy::indexing_slicing, reason = "trim + kept = len - trim <= len")]
    let middle = &mut keys[trim..trim + kept];
    middle.sort_unstable();
    middle
}

/// Mean vector of a collection of equal-dimension vectors.
///
/// Returns `None` for an empty collection.
///
/// # Panics
///
/// Panics if the vectors have differing dimensions.
pub fn mean_vector(vectors: &[Vector]) -> Option<Vector> {
    let first = vectors.first()?;
    let mut acc = Vector::zeros(first.len());
    for v in vectors {
        acc.axpy(1.0, v);
    }
    acc.scale(1.0 / vectors.len() as f64);
    Some(acc)
}

/// Coordinate-wise standard deviation of a collection of vectors.
///
/// Returns `None` for an empty collection. With a single vector the result is
/// the zero vector.
///
/// # Panics
///
/// Panics if the vectors have differing dimensions.
pub fn std_vector(vectors: &[Vector]) -> Option<Vector> {
    let mu = mean_vector(vectors)?;
    let n = vectors.len() as f64;
    let mut acc = Vector::zeros(mu.len());
    for v in vectors {
        let d = v - &mu;
        acc.axpy(1.0, &d.hadamard(&d));
    }
    acc.scale(1.0 / n);
    acc.map_in_place(f64::sqrt);
    Some(acc)
}

/// Coordinate-wise median of a collection of vectors (the Median aggregation
/// rule of Yin et al. 2018). Each coordinate is [`median`] of its column, by
/// selection.
///
/// Borrows its inputs like [`trimmed_mean_vector`]: any iterator of
/// references to [`AsSummed`] values, so no vector is cloned.
///
/// Returns `None` for an empty collection. NaNs sort to the high end under
/// `total_cmp`, as in [`median`].
///
/// # Panics
///
/// Panics if the vectors have differing dimensions.
pub fn median_vector<'a, T, I>(vectors: I) -> Option<Vector>
where
    T: AsSummed + ?Sized + 'a,
    I: IntoIterator<Item = &'a T>,
{
    let vectors: Vec<&T> = vectors.into_iter().collect();
    vectors.first()?;
    Some(reduce_key_columns(&vectors, median_of_keys))
}

/// Coordinate-wise β-trimmed mean (the Trimmed-Mean aggregation rule of Yin
/// et al. 2018): for each coordinate, drop the `trim` largest and `trim`
/// smallest values, then average the rest.
///
/// Accepts any iterator of *borrowed* [`AsSummed`] values (`&[Vector]`, a
/// `Vec<&Vector>`, a `map` over update fields, or client updates whose
/// reported model is a shared base plus their delta), so hot-path callers
/// never clone or materialize a vector just to build the input: only an
/// O(n) list of thin references is gathered internally, and each value is
/// formed as its column is gathered.
///
/// Returns `None` for an empty collection.
///
/// NaNs sort to the high end under `total_cmp`, so they land in the trimmed
/// tail whenever `trim > 0`.
///
/// Up to 128 vectors, each column is sorted by a branch-free sorting
/// network, eight coordinates at a time in vector lanes. Above that, each
/// column costs `O(n)` selection plus a sort of the kept middle only.
/// Either way the kept middle is summed in ascending
/// `total_cmp` order exactly as [`kernels::sum_seq`] sums, so the result is
/// bit-identical to sorting the whole column.
///
/// # Panics
///
/// Panics if `2 * trim >= vectors.len()` (nothing would remain) or if the
/// vectors have differing dimensions.
pub fn trimmed_mean_vector<'a, T, I>(vectors: I, trim: usize) -> Option<Vector>
where
    T: AsSummed + ?Sized + 'a,
    I: IntoIterator<Item = &'a T>,
{
    let vectors: Vec<&T> = vectors.into_iter().collect();
    let dim = vectors.first()?.as_summed().len();
    assert!(
        2 * trim < vectors.len(),
        "trimmed_mean: trim {trim} leaves no samples out of {}",
        vectors.len()
    );
    if vectors.len() <= NETWORK_MAX_VECTORS {
        let mut out = Vector::zeros(dim);
        kernels::trimmed_mean_network(out.as_mut_slice(), &vectors, trim);
        return Some(out);
    }
    let kept = vectors.len() - 2 * trim;
    Some(reduce_key_columns(&vectors, |column| {
        let middle = trimmed_middle(column, trim);
        kernels::sum_seq(middle.iter().map(|&k| from_total_order_key(k))) / kept as f64
    }))
}

/// Largest collection [`trimmed_mean_vector`] sorts by network rather than
/// by selection: the largest power of two at which the network won at
/// every ISA level, timed at dimension 16 384 on a 2-vCPU AVX-512 Xeon.
/// Per coordinate at n = 32 the network took 105–116 ns (AVX-512), 151 ns
/// (AVX2) and 212 ns (baseline SSE2), against 620–850 ns for selection. At
/// n = 128 the baseline network still won, 1 752 ns against 2 078; at n =
/// 256 it lost, 6 104 against 4 347. With AVX-512 the paths crossed near
/// n = 2 048. The Ω = 8 192 scale bootstrap stays on selection.
const NETWORK_MAX_VECTORS: usize = 128;

/// Coordinates gathered per sweep over the vectors: one 64-byte cache line
/// of `f64`s, so each vector's line is fetched once per block rather than
/// once per coordinate. At Ω = 8 192 separately allocated vectors the
/// per-coordinate gather was latency bound, ~40% of a trimmed mean.
const GATHER_BLOCK: usize = 8;

/// The vector whose coordinate `d` is `reduce(column_d)`, where `column_d`
/// holds coordinate `d`'s [`total_order_key`]s of the summed values in
/// vector order (`reduce` may reorder it). Requires a non-empty
/// collection of equal dimensions.
fn reduce_key_columns<T: AsSummed + ?Sized>(
    vectors: &[&T],
    mut reduce: impl FnMut(&mut [i64]) -> f64,
) -> Vector {
    let n = vectors.len();
    let dim = vectors.first().map_or(0, |v| v.as_summed().len());
    let mut out = Vector::zeros(dim);
    let mut block = vec![0i64; GATHER_BLOCK * n];
    for (b0, outs) in out.as_mut_slice().chunks_mut(GATHER_BLOCK).enumerate() {
        let d0 = b0 * GATHER_BLOCK;
        for (i, v) in vectors.iter().enumerate() {
            let coords = v.as_summed().slice(d0..d0 + outs.len());
            #[expect(clippy::indexing_slicing, reason = "b < GATHER_BLOCK and i < n")]
            kernels::for_each_key(coords, |b, key| {
                block[b * n + i] = key;
            });
        }
        for (o, column) in outs.iter_mut().zip(block.chunks_exact_mut(n)) {
            *o = reduce(column);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use asyncfl_rng::rngs::StdRng;
    use asyncfl_rng::{RngExt, SeedableRng};
    use proptest::prelude::*;

    /// Column values that stress the total order: signed zeros, NaNs of
    /// both signs, infinities, subnormals and heavy duplicates.
    fn hostile_value(rng: &mut StdRng) -> f64 {
        let sign = if rng.random::<f64>() < 0.5 { -1.0 } else { 1.0 };
        match rng.random_range(0..10u32) {
            0 => 0.0,
            1 => -0.0,
            2 => f64::NAN,
            3 => -f64::NAN,
            4 => sign * f64::INFINITY,
            5 => sign * f64::from_bits(rng.random_range(1..(1u64 << 52))),
            6 | 7 => [1.0, -1.0, 0.5][rng.random_range(0..3usize)],
            _ => rng.random_range(-10.0..10.0),
        }
    }

    /// The whole-column sort both selection paths replaced.
    fn trimmed_mean_reference(vectors: &[Vector], trim: usize) -> Vec<f64> {
        let kept = vectors.len() - 2 * trim;
        (0..vectors[0].len())
            .map(|d| {
                let mut column: Vec<f64> = vectors.iter().map(|v| v[d]).collect();
                column.sort_by(f64::total_cmp);
                kernels::sum_seq(column.iter().skip(trim).take(kept).copied()) / kept as f64
            })
            .collect()
    }

    fn median_reference(xs: &[f64]) -> f64 {
        let mut v = xs.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        if n % 2 == 1 {
            v[n / 2]
        } else {
            0.5 * (v[n / 2 - 1] + v[n / 2])
        }
    }

    /// Bit patterns for comparison, with every NaN mapped to one pattern:
    /// Rust leaves the sign and payload of a NaN produced by arithmetic
    /// unspecified (LLVM may commute `a + b`), so two compilations of the
    /// same sum of NaNs may differ there.
    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter()
            .map(|x| {
                if x.is_nan() {
                    f64::NAN.to_bits()
                } else {
                    x.to_bits()
                }
            })
            .collect()
    }

    #[test]
    fn total_order_key_matches_total_cmp_and_round_trips() {
        let mut rng = StdRng::seed_from_u64(5);
        let xs: Vec<f64> = (0..2_000).map(|_| hostile_value(&mut rng)).collect();
        for w in xs.windows(2) {
            assert_eq!(
                total_order_key(w[0]).cmp(&total_order_key(w[1])),
                w[0].total_cmp(&w[1]),
                "{:?} vs {:?}",
                w[0],
                w[1]
            );
            assert_eq!(
                from_total_order_key(total_order_key(w[0])).to_bits(),
                w[0].to_bits()
            );
        }
    }

    #[test]
    fn differential_trimmed_mean_matches_full_sort_bitwise() {
        let mut rng = StdRng::seed_from_u64(17);
        for case in 0..3_000 {
            let n = rng.random_range(1..48usize);
            // Up to two whole gather blocks plus a partial one.
            let dim = rng.random_range(1..20usize);
            let vectors: Vec<Vector> = (0..n)
                .map(|_| Vector::from_fn(dim, |_| hostile_value(&mut rng)))
                .collect();
            let max_trim = (n - 1) / 2;
            // Cycle through no trimming, the maximal 2·trim = n − 1 (at odd
            // n) and random trims in between.
            let trim = match case % 3 {
                0 => 0,
                1 => max_trim,
                _ => rng.random_range(0..=max_trim),
            };
            let fast = trimmed_mean_vector(&vectors, trim).unwrap();
            let reference = trimmed_mean_reference(&vectors, trim);
            assert_eq!(
                bits(fast.as_slice()),
                bits(&reference),
                "n {n}, trim {trim}: {vectors:?}"
            );
        }
    }

    /// The sorting network at every ISA level the host supports, against
    /// the whole-column sort: every n up to 64 and both sides of the
    /// crossover, at no trim, the 25% bootstrap trim and the maximal trim,
    /// over hostile columns. Then the public entry on both sides of the
    /// crossover, where 129 takes the selection path.
    #[test]
    fn network_trimmed_mean_matches_full_sort_at_every_level() {
        let mut rng = StdRng::seed_from_u64(29);
        let crossover = NETWORK_MAX_VECTORS;
        let ns = (1..=64).chain([crossover - 1, crossover, crossover + 1]);
        for n in ns {
            // A whole gather block plus a partial one.
            let dim = 13;
            let vectors: Vec<Vector> = (0..n)
                .map(|_| Vector::from_fn(dim, |_| hostile_value(&mut rng)))
                .collect();
            let refs: Vec<&Vector> = vectors.iter().collect();
            for trim in [0, n / 4, (n - 1) / 2] {
                let reference = bits(&trimmed_mean_reference(&vectors, trim));
                for level in kernels::isa_levels() {
                    let mut out = vec![f64::NAN; dim];
                    kernels::trimmed_mean_network_at(level, &mut out, &refs, trim);
                    assert_eq!(bits(&out), reference, "n {n}, trim {trim}, level {level}");
                }
                if n >= crossover - 1 {
                    let public = trimmed_mean_vector(&vectors, trim).unwrap();
                    assert_eq!(bits(public.as_slice()), reference, "n {n}, trim {trim}");
                }
            }
        }
    }

    /// A vector stored as a shared base plus its own delta.
    struct OnBase<'a> {
        base: &'a Vector,
        delta: Vector,
    }

    impl AsSummed for OnBase<'_> {
        fn as_summed(&self) -> kernels::Summed<'_> {
            kernels::Summed {
                base: Some(self.base.as_slice()),
                delta: self.delta.as_slice(),
            }
        }
    }

    /// Trimmed means and medians of vectors given as a shared base plus
    /// their deltas against the same statistics of the stored sums: the
    /// network at every ISA level and the public entry on both sides of
    /// the crossover (selection above it), over hostile columns.
    #[test]
    fn summed_inputs_match_the_stored_sums_on_every_path() {
        let mut rng = StdRng::seed_from_u64(31);
        let dim = 13;
        let base = Vector::from_fn(dim, |_| hostile_value(&mut rng));
        for n in [
            1usize,
            2,
            5,
            32,
            NETWORK_MAX_VECTORS,
            NETWORK_MAX_VECTORS + 1,
            300,
        ] {
            let pairs: Vec<OnBase<'_>> = (0..n)
                .map(|_| OnBase {
                    base: &base,
                    delta: Vector::from_fn(dim, |_| hostile_value(&mut rng)),
                })
                .collect();
            let stored: Vec<Vector> = pairs.iter().map(|p| &base + &p.delta).collect();
            let refs: Vec<&OnBase<'_>> = pairs.iter().collect();
            for trim in [0, n / 4, (n - 1) / 2] {
                let reference = bits(&trimmed_mean_reference(&stored, trim));
                let public = trimmed_mean_vector(&pairs, trim).unwrap();
                assert_eq!(bits(public.as_slice()), reference, "n {n}, trim {trim}");
                if n <= NETWORK_MAX_VECTORS {
                    for level in kernels::isa_levels() {
                        let mut out = vec![f64::NAN; dim];
                        kernels::trimmed_mean_network_at(level, &mut out, &refs, trim);
                        assert_eq!(bits(&out), reference, "n {n}, trim {trim}, level {level}");
                    }
                }
            }
            let median = median_vector(&pairs).unwrap();
            let want = median_vector(&stored).unwrap();
            assert_eq!(
                bits(median.as_slice()),
                bits(want.as_slice()),
                "median n {n}"
            );
        }
    }

    #[test]
    fn differential_medians_match_full_sort_bitwise() {
        let mut rng = StdRng::seed_from_u64(23);
        for _ in 0..3_000 {
            let n = rng.random_range(1..48usize);
            let dim = rng.random_range(1..20usize);
            let vectors: Vec<Vector> = (0..n)
                .map(|_| Vector::from_fn(dim, |_| hostile_value(&mut rng)))
                .collect();
            let fast = median_vector(&vectors).unwrap();
            for d in 0..dim {
                let column: Vec<f64> = vectors.iter().map(|v| v[d]).collect();
                let reference = median_reference(&column);
                assert_eq!(bits(&[median(&column)]), bits(&[reference]), "{column:?}");
                assert_eq!(bits(&[fast[d]]), bits(&[reference]), "{column:?}");
            }
        }
    }

    fn vecs(rows: &[&[f64]]) -> Vec<Vector> {
        rows.iter().map(|r| Vector::from(*r)).collect()
    }

    #[test]
    fn scalar_stats() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[1.0, 3.0]), 2.0);
        assert_eq!(variance(&[5.0]), 0.0);
        assert!((variance(&[1.0, 3.0]) - 1.0).abs() < 1e-12);
        assert!((std_dev(&[1.0, 3.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn mean_vector_basics() {
        assert_eq!(mean_vector(&[]), None);
        let m = mean_vector(&vecs(&[&[1.0, 0.0], &[3.0, 2.0]])).unwrap();
        assert_eq!(m.as_slice(), &[2.0, 1.0]);
    }

    #[test]
    fn std_vector_basics() {
        assert_eq!(std_vector(&[]), None);
        let s = std_vector(&vecs(&[&[1.0, 5.0], &[3.0, 5.0]])).unwrap();
        assert!((s[0] - 1.0).abs() < 1e-12);
        assert_eq!(s[1], 0.0);
    }

    #[test]
    fn median_vector_resists_outlier() {
        let vs = vecs(&[&[1.0], &[2.0], &[1000.0]]);
        let m = median_vector(&vs).unwrap();
        assert_eq!(m[0], 2.0);
    }

    #[test]
    fn trimmed_mean_drops_extremes() {
        let vs = vecs(&[&[-100.0], &[1.0], &[2.0], &[3.0], &[100.0]]);
        let m = trimmed_mean_vector(&vs, 1).unwrap();
        assert_eq!(m[0], 2.0);
    }

    #[test]
    #[should_panic(expected = "trim")]
    fn trimmed_mean_overtrim_panics() {
        let vs = vecs(&[&[1.0], &[2.0]]);
        let _ = trimmed_mean_vector(&vs, 1);
    }

    proptest! {
        #[test]
        fn prop_median_between_min_max(xs in proptest::collection::vec(-1e6..1e6f64, 1..64)) {
            let m = median(&xs);
            let lo = xs.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            prop_assert!(m >= lo && m <= hi);
        }

        #[test]
        fn prop_mean_vector_is_minimizer_gradient_zero(
            rows in proptest::collection::vec(
                proptest::collection::vec(-100.0..100.0f64, 4), 1..16),
        ) {
            // The mean minimizes sum of squared distances: gradient Σ (m - xᵢ) = 0.
            let vs: Vec<Vector> = rows.into_iter().map(Vector::from).collect();
            let m = mean_vector(&vs).unwrap();
            let mut grad = Vector::zeros(4);
            for v in &vs {
                grad += &(&m - v);
            }
            prop_assert!(grad.norm() < 1e-6);
        }

        #[test]
        fn prop_trimmed_mean_trim_zero_equals_mean(
            rows in proptest::collection::vec(
                proptest::collection::vec(-100.0..100.0f64, 3), 1..16),
        ) {
            let vs: Vec<Vector> = rows.into_iter().map(Vector::from).collect();
            let a = trimmed_mean_vector(&vs, 0).unwrap();
            let b = mean_vector(&vs).unwrap();
            prop_assert!(a.distance(&b) < 1e-9);
        }
    }
}
