//! Chunked reduction, GEMM and optimizer kernels shared by
//! [`crate::Vector`], [`crate::Matrix`] and the batched training path in
//! `asyncfl-ml`.
//!
//! The naive `zip().map().sum()` reductions form one serial dependency
//! chain of float additions, which LLVM must preserve (float addition is
//! not associative) — so they never vectorize. These kernels instead run
//! eight independent accumulators over `chunks_exact(8)` blocks and fold
//! them in a *fixed* tree order, which LLVM auto-vectorizes to SIMD adds
//! while still producing bit-identical results on every run: the summation
//! order is a deterministic function of the slice length alone.
//!
//! The slice-level GEMM entry points ([`gemm_nt`], [`gemm_nn`],
//! [`gemm_tn_acc`], [`add_row_broadcast`]) exist so callers that keep
//! *flat* parameter storage (the `asyncfl-ml` models) can run whole
//! minibatches as matrix products without materializing `Matrix` views.
//! Each is a register-blocked microkernel that keeps a per-element order
//! contract: every output element sees exactly the operations, in exactly
//! the order, of the per-sample primitive it batches:
//!
//! - a [`gemm_nt`] output is one [`dot`]: eight lane accumulators seeded
//!   with `0.0`, a scalar tail, and the fixed `reduce` tree;
//! - a [`gemm_nn`] output is `0.0` plus `a·b` terms in ascending reduction
//!   index, the order of an ascending [`axpy`] sweep;
//! - a [`gemm_tn_acc`] output is its incoming value plus `a·b` terms in
//!   ascending sample order, the order of a per-sample `rank1_update` loop.
//!
//! Tiling changes only *which* outputs share a loaded chunk and *when*
//! each is computed, never an output's operation sequence, so batched and
//! per-sample code paths agree bit-for-bit. The optimizer kernels
//! ([`adam_step`], [`sgd_momentum_step`]) are element-wise: each
//! coordinate runs the same formula as the scalar loop it replaces.
//!
//! The filter's kernels read each update's reported model as a
//! [`Summed`] pair, a shared base plus the update's delta, summed as it
//! is loaded: [`sum_dots_norms`] computes a staleness group's eq. 6 dots
//! and each member's `‖ω‖²` in one blocked sweep, [`sum_norm_squared`]
//! one update's `‖ω‖²`, [`lerp_chain_norm_squared`] applies a group's
//! absorbs to its estimate in one blocked sweep, and the trimmed-mean
//! bootstrap sorts columns through a branch-free sorting network
//! (`trimmed_mean_network`, reached through
//! [`crate::stats::trimmed_mean_vector`]). Each keeps the
//! per-element order contract of the whole-vector, per-update and
//! comparison-sort code it replaces, on the stored sum.
//!
//! # SIMD-width dispatch
//!
//! The distance kernels (`dot`, `norm_squared`, `distance_squared`,
//! `lerp_norm_squared`), the block kernels of [`sum_dots_norms`],
//! [`sum_norm_squared`] and [`lerp_chain_norm_squared`] (`sum_dot_norm_acc`,
//! `sum_norm_acc`, `sum_lerp_acc`, `sum_copy`), the sorting network's
//! sort-and-sum step, the three
//! GEMMs and the two optimizer steps go through runtime ISA dispatch on
//! x86-64: the portable `*_impl` body is compiled once per
//! instruction-set level (baseline / AVX2 / AVX-512F) via
//! `#[target_feature]` wrappers, and the level is detected once and
//! cached. This changes *register width only* — the accumulator layout,
//! the per-element operation order and the fixed `reduce` tree are the
//! same source code in every wrapper, rustc emits no FMA contraction or
//! reassociation, and IEEE division and square root are correctly rounded
//! at every width, so every level produces bit-identical results (pinned
//! by `to_bits` tests at every level the host supports). Non-x86-64
//! targets compile the portable body directly. [`axpy`] and the tile
//! helpers are `#[inline(always)]`, so they compile at their caller's
//! level.

#![expect(
    clippy::indexing_slicing,
    reason = "the fixed-tree kernels index lanes, tiles and tails whose bounds follow from the \
              chunk arithmetic each body asserts or derives; checked access would cost the \
              vectorization this module exists for"
)]

/// Accumulator width. Eight `f64` lanes = two AVX2 registers / one
/// AVX-512 register; also fine on NEON (four 2-wide registers).
const LANES: usize = 8;

/// Folds the lane accumulators plus the scalar tail in a fixed tree order.
#[inline(always)]
fn reduce(acc: [f64; LANES], tail: f64) -> f64 {
    ((acc[0] + acc[4]) + (acc[1] + acc[5])) + ((acc[2] + acc[6]) + (acc[3] + acc[7])) + tail
}

/// Portable body of [`dot`]; `#[inline(always)]` so each
/// `#[target_feature]` wrapper compiles its own copy at that ISA level.
#[inline(always)]
fn dot_impl(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = [0.0_f64; LANES];
    let mut ca = a.chunks_exact(LANES);
    let mut cb = b.chunks_exact(LANES);
    for (xa, xb) in (&mut ca).zip(&mut cb) {
        for l in 0..LANES {
            acc[l] += xa[l] * xb[l];
        }
    }
    let mut tail = 0.0;
    for (x, y) in ca.remainder().iter().zip(cb.remainder()) {
        tail += x * y;
    }
    reduce(acc, tail)
}

/// Dot product `Σ aᵢ·bᵢ` over equal-length slices.
///
/// The reduction order is a fixed function of the slice length, so the
/// result is bit-identical run to run (and across ISA levels — see the
/// module docs on SIMD-width dispatch).
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    dispatch::dot(dispatch::level(), a, b)
}

/// Portable body of [`norm_squared`]: [`sum_norm_acc_impl`] over `a`
/// alone.
#[inline(always)]
fn norm_squared_impl(a: &[f64]) -> f64 {
    let (mut acc, mut tail) = ([0.0_f64; LANES], 0.0);
    sum_norm_acc_impl(Summed::from(a), &mut acc, &mut tail);
    reduce(acc, tail)
}

/// Squared ℓ2 norm `Σ aᵢ²`.
#[inline]
pub(crate) fn norm_squared(a: &[f64]) -> f64 {
    dispatch::norm_squared(dispatch::level(), a)
}

/// Portable body of [`distance_squared`].
#[inline(always)]
fn distance_squared_impl(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = [0.0_f64; LANES];
    let mut ca = a.chunks_exact(LANES);
    let mut cb = b.chunks_exact(LANES);
    for (xa, xb) in (&mut ca).zip(&mut cb) {
        for l in 0..LANES {
            let d = xa[l] - xb[l];
            acc[l] += d * d;
        }
    }
    let mut tail = 0.0;
    for (x, y) in ca.remainder().iter().zip(cb.remainder()) {
        let d = x - y;
        tail += d * d;
    }
    reduce(acc, tail)
}

/// Fused squared ℓ2 distance `Σ (aᵢ − bᵢ)²` over equal-length slices.
#[inline]
pub(crate) fn distance_squared(a: &[f64], b: &[f64]) -> f64 {
    dispatch::distance_squared(dispatch::level(), a, b)
}

/// `a ← (1−t)·a + t·b` element-wise (`Vector::lerp`'s formula),
/// continuing [`norm_squared`]'s lane and tail accumulators over the new
/// values in the same traversal.
#[inline(always)]
fn lerp_norm_acc_impl(a: &mut [f64], b: &[f64], t: f64, acc: &mut [f64; LANES], tail: &mut f64) {
    debug_assert_eq!(a.len(), b.len());
    let mut ca = a.chunks_exact_mut(LANES);
    let mut cb = b.chunks_exact(LANES);
    for (xa, xb) in (&mut ca).zip(&mut cb) {
        for l in 0..LANES {
            let v = (1.0 - t) * xa[l] + t * xb[l];
            xa[l] = v;
            acc[l] += v * v;
        }
    }
    for (x, y) in ca.into_remainder().iter_mut().zip(cb.remainder()) {
        let v = (1.0 - t) * *x + t * y;
        *x = v;
        *tail += v * v;
    }
}

/// Portable body of [`lerp_norm_squared`].
#[inline(always)]
fn lerp_norm_squared_impl(a: &mut [f64], b: &[f64], t: f64) -> f64 {
    let (mut acc, mut tail) = ([0.0_f64; LANES], 0.0);
    lerp_norm_acc_impl(a, b, t, &mut acc, &mut tail);
    reduce(acc, tail)
}

/// Fused interpolate-and-measure: `a ← (1−t)·a + t·b` element-wise,
/// returning the updated `‖a‖²` from the same traversal.
///
/// The write-back is exactly `Vector::lerp`'s formula and the
/// accumulation runs in exactly [`norm_squared`]'s lane-and-tail order,
/// so the result is **bit-identical** to a `lerp` followed by a
/// standalone `norm_squared` — in one pass over the data instead of two.
/// This is what lets AsyncFilter keep its `‖MA‖²` cache exact across
/// `absorb` without re-reducing the estimate (DESIGN.md §10).
#[inline]
pub(crate) fn lerp_norm_squared(a: &mut [f64], b: &[f64], t: f64) -> f64 {
    dispatch::lerp_norm_squared(dispatch::level(), a, b, t)
}

/// A vector given as the element-wise sum of two slices, `base[i] +
/// delta[i]`, or as `delta` alone when there is no base.
///
/// A client update carries its reported model ω this way: the global
/// model it trained from, shared by every update of that round, and its
/// own difference δ. The kernels that read a `Summed` form each sum as
/// they load it, so ω is never stored, and each sum rounds to exactly the
/// `f64` a stored `base + delta` would hold. A missing base reads `delta`
/// as is: adding a zero base instead would turn `-0.0` into `+0.0`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summed<'a> {
    /// The shared base, if any; as long as `delta` wherever a kernel
    /// reads it.
    pub base: Option<&'a [f64]>,
    /// The per-vector difference.
    pub delta: &'a [f64],
}

impl<'a> Summed<'a> {
    /// Number of coordinates (`delta`'s length).
    pub fn len(&self) -> usize {
        self.delta.len()
    }

    /// `true` when there are no coordinates.
    pub fn is_empty(&self) -> bool {
        self.delta.is_empty()
    }

    /// `true` when `base`, if any, is as long as `delta`.
    fn consistent(&self) -> bool {
        self.base.is_none_or(|b| b.len() == self.delta.len())
    }

    /// The coordinates in `r` of both slices.
    #[inline(always)]
    pub(crate) fn slice(self, r: std::ops::Range<usize>) -> Self {
        Self {
            base: self.base.map(|b| &b[r.clone()]),
            delta: &self.delta[r],
        }
    }

    /// The summed values, materialized: `base + delta`, or a copy of
    /// `delta`.
    pub fn to_vec(self) -> Vec<f64> {
        match self.base {
            Some(b) => b.iter().zip(self.delta).map(|(x, y)| x + y).collect(),
            None => self.delta.to_vec(),
        }
    }
}

impl<'a> From<&'a [f64]> for Summed<'a> {
    /// One slice read as is.
    fn from(delta: &'a [f64]) -> Self {
        Self { base: None, delta }
    }
}

/// A type whose values read as a [`Summed`], so a kernel can take a list
/// of thin references (`&T`, one pointer each) and form each vector's
/// coordinates as it gathers them.
pub trait AsSummed {
    /// This value as a base and a delta.
    fn as_summed(&self) -> Summed<'_>;
}

impl AsSummed for crate::Vector {
    fn as_summed(&self) -> Summed<'_> {
        Summed::from(self.as_slice())
    }
}

/// A kernel's read-only operand, read [`LANES`] coordinates at a time:
/// one slice, or the pair `(base, delta)` summed as it is read. Each
/// body is written once over `Operand` and instantiated for both.
trait Operand: Copy {
    /// Coordinates `at..at + LANES`.
    fn lanes(self, at: usize) -> [f64; LANES];
    /// Coordinate `i`.
    fn get(self, i: usize) -> f64;
}

impl Operand for &[f64] {
    #[inline(always)]
    fn lanes(self, at: usize) -> [f64; LANES] {
        chunk(self, at)
    }

    #[inline(always)]
    fn get(self, i: usize) -> f64 {
        self[i]
    }
}

impl Operand for (&[f64], &[f64]) {
    #[inline(always)]
    fn lanes(self, at: usize) -> [f64; LANES] {
        let (b, d) = (chunk::<LANES>(self.0, at), chunk::<LANES>(self.1, at));
        std::array::from_fn(|l| b[l] + d[l])
    }

    #[inline(always)]
    fn get(self, i: usize) -> f64 {
        self.0[i] + self.1[i]
    }
}

/// Runs `$body` with `$s` bound to `$summed`'s [`Operand`]: the pair when
/// it has a base, `delta` alone when it does not.
macro_rules! with_operand {
    ($summed:expr, |$s:ident| $body:expr) => {{
        let summed: Summed<'_> = $summed;
        match summed.base {
            Some(base) => {
                let $s = (base, summed.delta);
                $body
            }
            None => {
                let $s = summed.delta;
                $body
            }
        }
    }};
}

/// Full [`LANES`] chunks in `len` coordinates, as coordinates.
#[inline(always)]
fn full_lanes(len: usize) -> usize {
    len - len % LANES
}

/// [`dot_impl`]'s and [`norm_squared`]'s lane and tail accumulators,
/// continued over `s · m` and `s · s` in one read of `s`: each chunk's
/// products add to the lanes, the remainder's to the tails. The two sums
/// are separate chains, each in the order of the kernel it matches.
#[inline(always)]
fn sum_dot_norm_acc_impl(
    s: Summed<'_>,
    m: &[f64],
    dot: (&mut [f64; LANES], &mut f64),
    norm: (&mut [f64; LANES], &mut f64),
) {
    #[inline(always)]
    fn body<S: Operand>(
        s: S,
        m: &[f64],
        (dot, dot_tail): (&mut [f64; LANES], &mut f64),
        (norm, norm_tail): (&mut [f64; LANES], &mut f64),
    ) {
        let full = full_lanes(m.len());
        for c in 0..full / LANES {
            let (x, y) = (s.lanes(c * LANES), chunk::<LANES>(m, c * LANES));
            for l in 0..LANES {
                dot[l] += x[l] * y[l];
                norm[l] += x[l] * x[l];
            }
        }
        for (i, y) in m.iter().enumerate().skip(full) {
            let x = s.get(i);
            *dot_tail += x * y;
            *norm_tail += x * x;
        }
    }
    with_operand!(s, |op| body(op, m, dot, norm))
}

/// [`norm_squared`]'s lane and tail accumulators, continued over the
/// summed values of `s`: a chunk's squares add to the lanes, a
/// remainder's to the tail. A sweep split at multiples of [`LANES`]
/// accumulates exactly what one call over the whole slice would.
#[inline(always)]
fn sum_norm_acc_impl(s: Summed<'_>, acc: &mut [f64; LANES], tail: &mut f64) {
    #[inline(always)]
    fn body<S: Operand>(s: S, len: usize, acc: &mut [f64; LANES], tail: &mut f64) {
        let full = full_lanes(len);
        for c in 0..full / LANES {
            let x = s.lanes(c * LANES);
            for l in 0..LANES {
                acc[l] += x[l] * x[l];
            }
        }
        for i in full..len {
            let x = s.get(i);
            *tail += x * x;
        }
    }
    let len = s.len();
    with_operand!(s, |op| body(op, len, acc, tail))
}

/// `a ← (1−t)·a + t·s` element-wise, `Vector::lerp`'s formula, over the
/// summed values of `s`; with `acc`, also continues [`norm_squared`]'s
/// accumulators over the new values in the same traversal.
#[inline(always)]
fn sum_lerp_acc_impl(
    a: &mut [f64],
    s: Summed<'_>,
    t: f64,
    acc: Option<(&mut [f64; LANES], &mut f64)>,
) {
    #[inline(always)]
    fn body<S: Operand, const NORM: bool>(
        a: &mut [f64],
        s: S,
        t: f64,
        acc: &mut [f64; LANES],
        tail: &mut f64,
    ) {
        let full = full_lanes(a.len());
        let (lanes, rest) = a.split_at_mut(full);
        for (c, xa) in lanes.chunks_exact_mut(LANES).enumerate() {
            let y = s.lanes(c * LANES);
            for l in 0..LANES {
                let v = (1.0 - t) * xa[l] + t * y[l];
                xa[l] = v;
                if NORM {
                    acc[l] += v * v;
                }
            }
        }
        for (i, x) in rest.iter_mut().enumerate() {
            let v = (1.0 - t) * *x + t * s.get(full + i);
            *x = v;
            if NORM {
                *tail += v * v;
            }
        }
    }
    match acc {
        Some((acc, tail)) => with_operand!(s, |op| body::<_, true>(a, op, t, acc, tail)),
        None => {
            let (mut acc, mut tail) = ([0.0; LANES], 0.0);
            with_operand!(s, |op| body::<_, false>(a, op, t, &mut acc, &mut tail));
        }
    }
}

/// `a ← s`: the summed values of `s`, or a copy of its delta.
#[inline(always)]
fn sum_copy_impl(a: &mut [f64], s: Summed<'_>) {
    match s.base {
        Some(b) => {
            for ((x, y), z) in a.iter_mut().zip(b).zip(s.delta) {
                *x = y + z;
            }
        }
        None => a.copy_from_slice(s.delta),
    }
}

/// `‖s‖²` of the summed values: bit-identical to `norm_squared` of the
/// stored sum, in one read-only pass over both slices.
///
/// # Panics
///
/// Panics if `s.base` and `s.delta` differ in length.
pub fn sum_norm_squared(s: Summed<'_>) -> f64 {
    assert!(
        s.consistent(),
        "sum_norm_squared: base and delta lengths differ"
    );
    let (mut acc, mut tail) = ([0.0_f64; LANES], 0.0);
    dispatch::sum_norm_acc(dispatch::level(), s, &mut acc, &mut tail);
    reduce(acc, tail)
}

/// Coordinates per block of [`lerp_chain_norm_squared`]'s and
/// [`sum_dots_norms`]' sweeps: 4 KiB of `f64`s, so the block of the shared
/// operand (and of a shared base) stays in L1 while every source streams
/// through it once. A multiple of [`LANES`], so a sweep split into blocks
/// leaves every element in the accumulator lane it had.
const CHAIN_BLOCK: usize = 512;
const _: () = assert!(CHAIN_BLOCK.is_multiple_of(LANES));

/// Members per [`sum_dots_norms`] sweep, each with its lane accumulators
/// on the stack: a larger group takes one sweep per this many members.
const DOTS_PER_SWEEP: usize = 16;

/// `dots[j] = dot(ω_j, m)` and `norms[j] = ‖ω_j‖²` over the summed values
/// ω_j of each member, in one read of each: bit-identical, member by
/// member, to [`dot`] of the stored sum and `m` and to `norm_squared` of
/// the stored sum (and so to [`sum_norm_squared`]). Each member keeps
/// both kernels' eight lane accumulators, scalar tail and `reduce` tree.
///
/// The sweep runs block by block: each block of `m` is read once for up
/// to 16 members, and members that share a base (every update of one
/// staleness group in a pass does) read that block of it from cache. So
/// a group of `k` updates reads `m` and the base about `k / 16` times
/// rather than `k` times, and each δ once for both outputs.
///
/// # Panics
///
/// Panics if `dots`, `norms` and `members` differ in count, or a member's
/// base or delta differs in length from `m`.
pub fn sum_dots_norms<'a, I>(m: &[f64], members: I, dots: &mut [f64], norms: &mut [f64])
where
    I: Iterator<Item = Summed<'a>> + Clone,
{
    sum_dots_norms_at(dispatch::level(), m, members, dots, norms);
}

/// [`sum_dots_norms`] with its block kernel run at `level`.
fn sum_dots_norms_at<'a, I>(level: u8, m: &[f64], members: I, dots: &mut [f64], norms: &mut [f64])
where
    I: Iterator<Item = Summed<'a>> + Clone,
{
    let len = m.len();
    assert!(
        members.clone().count() == dots.len()
            && norms.len() == dots.len()
            && members.clone().all(|s| s.len() == len && s.consistent()),
        "sum_dots_norms: {} dots and {} norms, or a member's length differs from {len}",
        dots.len(),
        norms.len()
    );
    let sweeps = dots
        .chunks_mut(DOTS_PER_SWEEP)
        .zip(norms.chunks_mut(DOTS_PER_SWEEP));
    for (sweep, (dots, norms)) in sweeps.enumerate() {
        let batch = members
            .clone()
            .skip(sweep * DOTS_PER_SWEEP)
            .take(dots.len());
        let mut acc = [[[0.0_f64; LANES]; 2]; DOTS_PER_SWEEP];
        let mut tail = [[0.0_f64; 2]; DOTS_PER_SWEEP];
        for at in (0..len).step_by(CHAIN_BLOCK) {
            let r = at..len.min(at + CHAIN_BLOCK);
            for ((s, [dot, norm]), [dot_tail, norm_tail]) in
                batch.clone().zip(&mut acc).zip(&mut tail)
            {
                dispatch::sum_dot_norm_acc(
                    level,
                    s.slice(r.clone()),
                    &m[r.clone()],
                    (dot, dot_tail),
                    (norm, norm_tail),
                );
            }
        }
        for (((d, n), [dot, norm]), [dot_tail, norm_tail]) in
            dots.iter_mut().zip(norms).zip(acc).zip(tail)
        {
            *d = reduce(dot, dot_tail);
            *n = reduce(norm, norm_tail);
        }
    }
}

/// One step of [`lerp_chain_norm_squared`]: the source `s` and the rate
/// `t` of `a ← (1−t)·a + t·s`, or `None` for the copy `a ← s`.
pub type LerpStep<'a> = (Summed<'a>, Option<f64>);

/// Applies `steps` to `a` in order and returns the final `‖a‖²`.
///
/// Bit-identical to taking the steps one at a time over the whole slice,
/// each source stored as its sum (each lerp a fused lerp-and-norm,
/// `Vector::lerp_norm_squared`, each copy a `copy_from_slice`) and
/// reading the norm after the last one; with no steps, `a` is unchanged
/// and the result is its `Vector::norm_squared`. Every coordinate sees
/// the same operations in the same order, and the norm accumulates in
/// `norm_squared`'s lane-and-tail order. The sweep runs block by block
/// instead: each block of 512 coordinates takes every step before the
/// next block is touched, so `a` is read and written once rather than
/// once per step, and only the last step accumulates a norm.
///
/// # Panics
///
/// Panics if a source's base or delta length differs from `a`'s.
pub fn lerp_chain_norm_squared<'a, I>(a: &mut [f64], steps: I) -> f64
where
    I: Iterator<Item = LerpStep<'a>> + Clone,
{
    lerp_chain_at(dispatch::level(), a, steps)
}

/// [`lerp_chain_norm_squared`] with its block kernels run at `level`.
fn lerp_chain_at<'a, I>(level: u8, a: &mut [f64], steps: I) -> f64
where
    I: Iterator<Item = LerpStep<'a>> + Clone,
{
    let len = a.len();
    let count = steps.clone().count();
    assert!(
        steps.clone().all(|(s, _)| s.len() == len && s.consistent()),
        "lerp_chain_norm_squared: a source's length differs from {len}"
    );
    let (mut acc, mut tail) = ([0.0_f64; LANES], 0.0);
    if count == 0 {
        dispatch::sum_norm_acc(level, Summed::from(&*a), &mut acc, &mut tail);
    }
    for (blk, block) in a.chunks_mut(CHAIN_BLOCK).enumerate() {
        let at = blk * CHAIN_BLOCK;
        for (k, (s, t)) in steps.clone().enumerate() {
            let s = s.slice(at..at + block.len());
            let last = k + 1 == count;
            match t {
                Some(t) if last => {
                    dispatch::sum_lerp_acc(level, block, s, t, Some((&mut acc, &mut tail)));
                }
                Some(t) => dispatch::sum_lerp_acc(level, block, s, t, None),
                None => {
                    dispatch::sum_copy(level, block, s);
                    if last {
                        dispatch::sum_norm_acc(level, Summed::from(&*block), &mut acc, &mut tail);
                    }
                }
            }
        }
    }
    reduce(acc, tail)
}

/// `f64::total_cmp`'s sort key: flipping the magnitude bits of negative
/// values makes signed integer order equal the IEEE total order. The map is
/// a bijection (its own inverse on the bits), and values equal under
/// `total_cmp` are bitwise equal, so any order statistic or sorted run of
/// keys maps back to exactly the values a `total_cmp` sort would yield.
#[inline(always)]
pub fn total_order_key(x: f64) -> i64 {
    let bits = x.to_bits() as i64;
    bits ^ (((bits >> 63) as u64) >> 1) as i64
}

/// Inverse of [`total_order_key`].
#[inline(always)]
pub(crate) fn from_total_order_key(key: i64) -> f64 {
    f64::from_bits(total_order_key(f64::from_bits(key as u64)) as u64)
}

/// Comparators of Batcher's odd–even merge sort over `n` positions, in
/// network order. Each pair `(i, j)` has `i < j` and leaves the smaller
/// key at `i`.
///
/// This is the network for the next power of two `P ≥ n` with every
/// comparator that touches a position `≥ n` dropped. Padding the column
/// with `i64::MAX` to `P` would make those comparators no-ops: a padded
/// position only ever meets a key no larger than its `MAX` at a lower
/// position, so it keeps the `MAX` and its partner keeps its key. The
/// first `n` positions therefore sort exactly as the padded network sorts
/// them. `n = 32` takes 191 comparators.
fn merge_sort_network(n: usize) -> Vec<(u32, u32)> {
    let mut pairs = Vec::new();
    let mut p = 1;
    while p < n {
        let mut k = p;
        while k >= 1 {
            let mut j = k % p;
            while j + k < n {
                for i in j..(j + k).min(n - k) {
                    if i / (2 * p) == (i + k) / (2 * p) {
                        pairs.push((i as u32, (i + k) as u32));
                    }
                }
                j += 2 * k;
            }
            k /= 2;
        }
        p *= 2;
    }
    pairs
}

/// Calls `f(i, key)` with the [`total_order_key`] of each summed value of
/// `s`, in coordinate order.
#[inline(always)]
pub(crate) fn for_each_key(s: Summed<'_>, mut f: impl FnMut(usize, i64)) {
    match s.base {
        Some(b) => {
            for (i, (x, y)) in b.iter().zip(s.delta).enumerate() {
                f(i, total_order_key(x + y));
            }
        }
        None => {
            for (i, &x) in s.delta.iter().enumerate() {
                f(i, total_order_key(x));
            }
        }
    }
}

/// Portable body of the sorting network's block step: sorts every lane
/// of `rows` (one row per vector, one lane per coordinate) at once
/// through `network` with lane-wise `min`/`max` (no branch), and returns
/// each lane's kept middle summed in ascending key order from `-0.0`, as
/// [`sum_seq`] does.
#[inline(always)]
fn network_sort_sum_impl(
    rows: &mut [[i64; LANES]],
    network: &[(u32, u32)],
    trim: usize,
) -> [f64; LANES] {
    let kept = rows.len() - 2 * trim;
    for &(i, j) in network {
        let (below, from_j) = rows.split_at_mut(j as usize);
        let (lo, hi) = (&mut below[i as usize], &mut from_j[0]);
        // `min`/`max` spelled as a masked swap: LLVM vectorizes this
        // form (a compare and three xors per register) at AVX2 and
        // AVX-512, and leaves `i64::min`/`max` as scalar `cmov`s.
        for (a, b) in lo.iter_mut().zip(hi.iter_mut()) {
            let (x, y) = (*a, *b);
            let swap = (x ^ y) & -i64::from(y < x);
            *a = x ^ swap;
            *b = y ^ swap;
        }
    }
    let mut sums = [-0.0_f64; LANES];
    for row in &rows[trim..trim + kept] {
        for l in 0..LANES {
            sums[l] += from_total_order_key(row[l]);
        }
    }
    sums
}

/// ISA levels for tests to run a kernel at: every level up to the one
/// the host runs.
#[cfg(test)]
pub(crate) fn isa_levels() -> std::ops::RangeInclusive<u8> {
    0..=dispatch::level()
}

/// Coordinate-wise trimmed mean of `vectors` into `out`, by a sorting
/// network: `out[d]` is the [`sum_seq`] of column `d`'s values in
/// ascending `total_cmp` order with the `trim` smallest and `trim`
/// largest dropped, over the count kept. The sorted middle is the same
/// run of keys a comparison sort leaves, so the sum sees the same values
/// in the same order, bit for bit.
///
/// Per block of [`LANES`] coordinates, each vector's summed values
/// ([`AsSummed`]) are gathered as keys into its row, and the block is
/// sorted and summed at the dispatched ISA level. A short last block
/// leaves stale keys in its unused lanes and drops their sums.
///
/// A Batcher network ([`merge_sort_network`]) costs `O(n log² n)`
/// comparators per [`LANES`] coordinates, each one vector `min` and
/// `max`. It beats selection only while `n` is small; the caller picks.
///
/// # Panics
///
/// Panics if `vectors` is empty, `2 * trim >= vectors.len()`, or a vector's
/// base or delta length differs from `out`'s.
pub(crate) fn trimmed_mean_network<T: AsSummed + ?Sized>(
    out: &mut [f64],
    vectors: &[&T],
    trim: usize,
) {
    trimmed_mean_network_at(dispatch::level(), out, vectors, trim);
}

/// [`trimmed_mean_network`] run at `level`.
pub(crate) fn trimmed_mean_network_at<T: AsSummed + ?Sized>(
    level: u8,
    out: &mut [f64],
    vectors: &[&T],
    trim: usize,
) {
    let n = vectors.len();
    assert!(
        2 * trim < n
            && vectors.iter().all(|v| {
                let s = v.as_summed();
                s.len() == out.len() && s.consistent()
            }),
        "trimmed_mean_network: {n} vectors, trim {trim}, or a length other than {}",
        out.len()
    );
    let network = merge_sort_network(n);
    let mut rows = vec![[0_i64; LANES]; n];
    let kept = n - 2 * trim;
    for (blk, outs) in out.chunks_mut(LANES).enumerate() {
        let at = blk * LANES;
        for (row, v) in rows.iter_mut().zip(vectors) {
            let s = v.as_summed().slice(at..at + outs.len());
            for_each_key(s, |l, key| row[l] = key);
        }
        let sums = dispatch::network_sort_sum(level, &mut rows, &network, trim);
        for (o, s) in outs.iter_mut().zip(sums) {
            *o = s / kept as f64;
        }
    }
}

/// Plain sum `Σ aᵢ`.
#[inline]
pub(crate) fn sum(a: &[f64]) -> f64 {
    let mut acc = [0.0_f64; LANES];
    let mut ca = a.chunks_exact(LANES);
    for xa in &mut ca {
        for l in 0..LANES {
            acc[l] += xa[l];
        }
    }
    let mut tail = 0.0;
    for x in ca.remainder() {
        tail += x;
    }
    reduce(acc, tail)
}

/// Absolute-value sum `Σ |aᵢ|` (ℓ1 norm).
#[inline]
pub(crate) fn sum_abs(a: &[f64]) -> f64 {
    let mut acc = [0.0_f64; LANES];
    let mut ca = a.chunks_exact(LANES);
    for xa in &mut ca {
        for l in 0..LANES {
            acc[l] += xa[l].abs();
        }
    }
    let mut tail = 0.0;
    for x in ca.remainder() {
        tail += x.abs();
    }
    reduce(acc, tail)
}

/// In-place `y ← y + α·x` over equal-length slices.
///
/// Purely element-wise, so the result equals the scalar loop exactly.
/// `#[inline(always)]`, so it compiles at the ISA level of its caller.
#[inline(always)]
pub fn axpy(y: &mut [f64], alpha: f64, x: &[f64]) {
    debug_assert_eq!(y.len(), x.len());
    let mut cy = y.chunks_exact_mut(LANES);
    let mut cx = x.chunks_exact(LANES);
    for (ya, xa) in (&mut cy).zip(&mut cx) {
        for l in 0..LANES {
            ya[l] += alpha * xa[l];
        }
    }
    for (yv, xv) in cy.into_remainder().iter_mut().zip(cx.remainder()) {
        *yv += alpha * xv;
    }
}

/// Copies the `N` values of `s` starting at `at` into a register-sized
/// array: one bounds check per chunk instead of one per element.
#[inline(always)]
fn chunk<const N: usize>(s: &[f64], at: usize) -> [f64; N] {
    let mut v = [0.0; N];
    v.copy_from_slice(&s[at..at + N]);
    v
}

/// Rows of `A` (and of `out`) per [`gemm_nt`] tile.
const NT_ROWS: usize = 4;
/// Rows of `B` (columns of `out`) per [`gemm_nt`] column block: one
/// vector of output columns.
const NT_COLS: usize = 8;
/// Deepest reduction whose `Bᵀ` block [`gemm_nt`] keeps on the stack
/// (`NT_COLS × NT_STACK_K` values, 4 KiB). Every model in the workspace
/// is narrower; a deeper one uses the caller's panel.
const NT_STACK_K: usize = 64;

/// Element-wise sum of two `R × NT_COLS` register tiles.
#[inline(always)]
fn add_tiles<const R: usize>(
    mut x: [[f64; NT_COLS]; R],
    y: [[f64; NT_COLS]; R],
) -> [[f64; NT_COLS]; R] {
    for (xr, yr) in x.iter_mut().zip(&y) {
        for c in 0..NT_COLS {
            xr[c] += yr[c];
        }
    }
    x
}

/// The operands of one [`gemm_nt`] tile: `A` with row stride `k`, the
/// tile's first row `i0`, and one column block of `Bᵀ` (`k` rows of
/// [`NT_COLS`] values).
#[derive(Clone, Copy)]
struct NtTile<'a> {
    a: &'a [f64],
    bt: &'a [f64],
    k: usize,
    i0: usize,
}

/// Lanes `l` and `l + 4` of [`dot`]'s accumulators for the whole
/// `R × NT_COLS` tile, summed: `Σ A[i0 + r][kk] · Bᵀ[kk][c]` over
/// `kk ≡ l (mod 8)` and over `kk ≡ l + 4 (mod 8)` below `blocks`, each
/// seeded with `0.0` and accumulated in ascending chunk order, then
/// added as `reduce`'s first level adds them. One loop carries both
/// lanes, so `2·R` independent add chains overlap.
#[inline(always)]
fn nt_lane_pair<const R: usize>(t: NtTile<'_>, l: usize, blocks: usize) -> [[f64; NT_COLS]; R] {
    let a = &t.a[t.i0 * t.k..(t.i0 + R) * t.k];
    let mut lo = [[0.0_f64; NT_COLS]; R];
    let mut hi = [[0.0_f64; NT_COLS]; R];
    let mut at = 0;
    while at < blocks {
        let (kl, kh) = (at + l, at + l + LANES / 2);
        let bl: [f64; NT_COLS] = chunk(t.bt, kl * NT_COLS);
        let bh: [f64; NT_COLS] = chunk(t.bt, kh * NT_COLS);
        for r in 0..R {
            let (xl, xh) = (a[r * t.k + kl], a[r * t.k + kh]);
            for c in 0..NT_COLS {
                lo[r][c] += xl * bl[c];
                hi[r][c] += xh * bh[c];
            }
        }
        at += LANES;
    }
    add_tiles(lo, hi)
}

/// [`dot`]'s scalar tail for the whole tile: `Σ A[i0 + r][kk] ·
/// Bᵀ[kk][c]` over `kk` in `blocks..k` ascending, seeded with `0.0`.
#[inline(always)]
fn nt_tail<const R: usize>(t: NtTile<'_>, blocks: usize) -> [[f64; NT_COLS]; R] {
    let a = &t.a[t.i0 * t.k..(t.i0 + R) * t.k];
    let mut acc = [[0.0_f64; NT_COLS]; R];
    for kk in blocks..t.k {
        let b: [f64; NT_COLS] = chunk(t.bt, kk * NT_COLS);
        for (r, acc_r) in acc.iter_mut().enumerate() {
            let x = a[r * t.k + kk];
            for c in 0..NT_COLS {
                acc_r[c] += x * b[c];
            }
        }
    }
    acc
}

/// One `R × NT_COLS` tile of [`gemm_nt`], with lanes in registers over a
/// `Bᵀ` column block: for every output, the lane pairs and tail are
/// exactly [`dot`]'s eight lane accumulators and tail, and they fold
/// through [`reduce`]'s tree, spelled out here on whole tiles. Writes the
/// first `cols` columns of each row to `out` (row stride `n`) from
/// column `j0`.
#[inline(always)]
fn nt_tile<const R: usize>(out: &mut [f64], (n, j0, cols): (usize, usize, usize), t: NtTile<'_>) {
    let blocks = t.k - t.k % LANES;
    let s0 = add_tiles(
        nt_lane_pair::<R>(t, 0, blocks),
        nt_lane_pair::<R>(t, 1, blocks),
    );
    let s1 = add_tiles(
        nt_lane_pair::<R>(t, 2, blocks),
        nt_lane_pair::<R>(t, 3, blocks),
    );
    let sums = add_tiles(add_tiles(s0, s1), nt_tail::<R>(t, blocks));
    for (r, sum) in sums.iter().enumerate() {
        out[(t.i0 + r) * n + j0..][..cols].copy_from_slice(&sum[..cols]);
    }
}

/// Portable body of [`gemm_nt`]. For each block of [`NT_COLS`] rows of
/// `B`, packs their transpose into `bt` (at least `k·NT_COLS` long; a
/// short last block leaves stale columns whose outputs are dropped),
/// then runs every row tile of `A` over it.
#[inline(always)]
fn gemm_nt_impl(
    out: &mut [f64],
    a: &[f64],
    b: &[f64],
    bt: &mut [f64],
    (m, k, n): (usize, usize, usize),
) {
    for j0 in (0..n).step_by(NT_COLS) {
        let cols = NT_COLS.min(n - j0);
        for (c, row) in b[j0 * k..(j0 + cols) * k]
            .chunks_exact(k.max(1))
            .enumerate()
        {
            for (kk, &v) in row.iter().enumerate() {
                bt[kk * NT_COLS + c] = v;
            }
        }
        let mut i0 = 0;
        while i0 + NT_ROWS <= m {
            nt_tile::<NT_ROWS>(out, (n, j0, cols), NtTile { a, bt, k, i0 });
            i0 += NT_ROWS;
        }
        while i0 < m {
            nt_tile::<1>(out, (n, j0, cols), NtTile { a, bt, k, i0 });
            i0 += 1;
        }
    }
}

/// GEMM (no-transpose × transpose): `out ← A·Bᵀ` where `A` is `m×k`,
/// `B` is `n×k` and `out` is `m×n`, all row-major.
///
/// Every output element is one [`dot`] of a row of `A` with a row of `B`,
/// bit for bit — the per-sample `matvec` it batches. Outputs are
/// computed in 4 × 8 register tiles with lanes over the columns of a
/// transposed block of eight `B` rows, so each loaded block row feeds
/// four rows of `A` and [`dot`]'s final tree is eight vector adds per
/// tile instead of a horizontal sum per output. The block lives on the
/// stack up to `k = 64`; beyond that it lives in `panel`, which keeps its
/// capacity, so a caller that reuses it allocates nothing once warm.
///
/// # Panics
///
/// Panics if any slice length disagrees with the given shape.
pub fn gemm_nt(
    out: &mut [f64],
    a: &[f64],
    b: &[f64],
    m: usize,
    k: usize,
    n: usize,
    panel: &mut Vec<f64>,
) {
    assert_eq!(a.len(), m * k, "gemm_nt: A is not {m}x{k}");
    assert_eq!(b.len(), n * k, "gemm_nt: B is not {n}x{k}");
    assert_eq!(out.len(), m * n, "gemm_nt: out is not {m}x{n}");
    let mut stack = [0.0; NT_COLS * NT_STACK_K];
    let bt = if k <= NT_STACK_K {
        &mut stack[..]
    } else {
        panel.resize(NT_COLS * k, 0.0);
        panel.as_mut_slice()
    };
    dispatch::gemm_nt(dispatch::level(), out, a, b, bt, (m, k, n));
}

/// Rows of `out` per [`gemm_nn`] / [`gemm_tn_acc`] tile.
const ACC_ROWS: usize = 4;
/// Columns of `out` per [`gemm_nn`] / [`gemm_tn_acc`] tile: two AVX-512
/// registers a row. Remaining columns go in tiles half as wide, then one
/// at a time.
const ACC_COLS: usize = 16;

/// A sum of scaled `B` rows into the rows of `out` (row stride `n`), the
/// shared shape of [`gemm_nn`] and [`gemm_tn_acc`]: for each reduction
/// step `s` in ascending order, output row `r` gains
/// `x[s·x_step + r·x_row] · B.row(s)`.
#[derive(Clone, Copy)]
struct RowSweep<'a> {
    x: &'a [f64],
    x_step: usize,
    x_row: usize,
    b: &'a [f64],
    n: usize,
    steps: usize,
}

/// One `R × C` tile of a [`RowSweep`] at `out[row0.., col0..]`, held in
/// registers across the whole ascending reduction: each output is seeded
/// from `out` and gains `x·b` once per step, the operation sequence of one
/// [`axpy`] per step.
#[inline(always)]
fn sweep_tile<const R: usize, const C: usize>(
    out: &mut [f64],
    p: RowSweep<'_>,
    (row0, col0): (usize, usize),
) {
    let mut acc: [[f64; C]; R] = std::array::from_fn(|r| chunk(out, (row0 + r) * p.n + col0));
    for s in 0..p.steps {
        let b: [f64; C] = chunk(p.b, s * p.n + col0);
        for (r, acc_r) in acc.iter_mut().enumerate() {
            let x = p.x[s * p.x_step + (row0 + r) * p.x_row];
            for c in 0..C {
                acc_r[c] += x * b[c];
            }
        }
    }
    for (r, acc_r) in acc.iter().enumerate() {
        out[(row0 + r) * p.n + col0..][..C].copy_from_slice(acc_r);
    }
}

/// All of `out`'s columns for the `R` rows starting at `row0`.
#[inline(always)]
fn sweep_rows<const R: usize>(out: &mut [f64], p: RowSweep<'_>, row0: usize) {
    let mut c = 0;
    while c + ACC_COLS <= p.n {
        sweep_tile::<R, ACC_COLS>(out, p, (row0, c));
        c += ACC_COLS;
    }
    while c + ACC_COLS / 2 <= p.n {
        sweep_tile::<R, { ACC_COLS / 2 }>(out, p, (row0, c));
        c += ACC_COLS / 2;
    }
    while c < p.n {
        sweep_tile::<R, 1>(out, p, (row0, c));
        c += 1;
    }
}

/// Runs a [`RowSweep`] over all `rows` rows of `out`.
#[inline(always)]
fn sweep(out: &mut [f64], p: RowSweep<'_>, rows: usize) {
    let mut r = 0;
    while r + ACC_ROWS <= rows {
        sweep_rows::<ACC_ROWS>(out, p, r);
        r += ACC_ROWS;
    }
    while r < rows {
        sweep_rows::<1>(out, p, r);
        r += 1;
    }
}

/// Portable body of [`gemm_nn`].
#[inline(always)]
fn gemm_nn_impl(out: &mut [f64], a: &[f64], b: &[f64], m: usize, k: usize, n: usize) {
    out.fill(0.0);
    let p = RowSweep {
        x: a,
        x_step: 1,
        x_row: k,
        b,
        n,
        steps: k,
    };
    sweep(out, p, m);
}

/// GEMM (no-transpose × no-transpose): `out ← A·B` where `A` is `m×k`,
/// `B` is `k×n` and `out` is `m×n`, all row-major.
///
/// Each output element is `0.0` plus `A[i][j]·B[j][c]` for `j` ascending —
/// the order of a zero fill and one [`axpy`] of `B.row(j)` per `j`, and of
/// the transposed mat-vec loop it batches. Outputs are held in 4 × 16
/// register tiles across the whole `j` loop, so each output is loaded and
/// stored once.
///
/// # Panics
///
/// Panics if any slice length disagrees with the given shape.
pub fn gemm_nn(out: &mut [f64], a: &[f64], b: &[f64], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k, "gemm_nn: A is not {m}x{k}");
    assert_eq!(b.len(), k * n, "gemm_nn: B is not {k}x{n}");
    assert_eq!(out.len(), m * n, "gemm_nn: out is not {m}x{n}");
    dispatch::gemm_nn(dispatch::level(), out, a, b, m, k, n);
}

/// Portable body of [`gemm_tn_acc`].
#[inline(always)]
fn gemm_tn_acc_impl(out: &mut [f64], a: &[f64], b: &[f64], m: usize, k: usize, n: usize) {
    let p = RowSweep {
        x: a,
        x_step: k,
        x_row: 1,
        b,
        n,
        steps: m,
    };
    sweep(out, p, k);
}

/// Accumulating GEMM (transpose × no-transpose): `out += Aᵀ·B` where `A`
/// is `m×k`, `B` is `m×n` and `out` is `k×n`, all row-major.
///
/// This is batched rank-1 accumulation — the gradient of a linear layer
/// over a minibatch (`∂L/∂W += δᵀ·inputs`). Each output element is its
/// incoming value plus `A[i][j]·B[i][c]` for samples `i` in ascending
/// order, exactly what a per-sample `rank1_update` loop produces. Outputs
/// are held in 4 × 16 register tiles, seeded from `out`, across the whole
/// sample loop.
///
/// # Panics
///
/// Panics if any slice length disagrees with the given shape.
pub fn gemm_tn_acc(out: &mut [f64], a: &[f64], b: &[f64], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k, "gemm_tn_acc: A is not {m}x{k}");
    assert_eq!(b.len(), m * n, "gemm_tn_acc: B is not {m}x{n}");
    assert_eq!(out.len(), k * n, "gemm_tn_acc: out is not {k}x{n}");
    dispatch::gemm_tn_acc(dispatch::level(), out, a, b, m, k, n);
}

/// Row-broadcast addition: adds `bias` to every `bias.len()`-wide row of
/// the row-major buffer `out`.
///
/// # Panics
///
/// Panics if `bias` is empty while `out` is not, or `out.len()` is not a
/// multiple of `bias.len()`.
pub fn add_row_broadcast(out: &mut [f64], bias: &[f64]) {
    if out.is_empty() {
        return;
    }
    assert!(
        !bias.is_empty() && out.len().is_multiple_of(bias.len()),
        "add_row_broadcast: buffer length {} is not a multiple of bias length {}",
        out.len(),
        bias.len()
    );
    for row in out.chunks_exact_mut(bias.len()) {
        axpy(row, 1.0, bias);
    }
}

/// The scalars of one Adam step (Kingma & Ba 2015): learning rate, moment
/// coefficients, `ε`, and the step's bias corrections `1 − βᵗ`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdamStep {
    /// Learning rate.
    pub lr: f64,
    /// First-moment coefficient β₁.
    pub beta1: f64,
    /// Second-moment coefficient β₂.
    pub beta2: f64,
    /// Denominator guard ε.
    pub eps: f64,
    /// First-moment bias correction `1 − β₁ᵗ`.
    pub bias1: f64,
    /// Second-moment bias correction `1 − β₂ᵗ`.
    pub bias2: f64,
}

/// Portable body of [`adam_step`].
#[inline(always)]
fn adam_step_impl(params: &mut [f64], m: &mut [f64], v: &mut [f64], grad: &[f64], c: AdamStep) {
    // `m` moves toward `g` at rate `1 − β₁` with `Vector::lerp`'s formula.
    let rate = 1.0 - c.beta1;
    let keep = 1.0 - rate;
    let fresh = 1.0 - c.beta2;
    for (((p, mi), vi), &g) in params.iter_mut().zip(m).zip(v).zip(grad) {
        *mi = keep * *mi + rate * g;
        *vi = c.beta2 * *vi + fresh * g * g;
        let m_hat = *mi / c.bias1;
        let v_hat = *vi / c.bias2;
        *p -= c.lr * m_hat / (v_hat.sqrt() + c.eps);
    }
}

/// One Adam update over flat slices, element-wise:
/// `m ← (1 − r)·m + r·g` with `r = 1 − β₁`, `v ← β₂·v + (1 − β₂)·g·g`, and
/// `p ← p − lr·(m / bias1) / (√(v / bias2) + ε)`.
///
/// # Panics
///
/// Panics if the four slices differ in length.
pub fn adam_step(params: &mut [f64], m: &mut [f64], v: &mut [f64], grad: &[f64], step: AdamStep) {
    let dim = params.len();
    assert!(
        m.len() == dim && v.len() == dim && grad.len() == dim,
        "adam_step: params {dim}, m {}, v {}, grad {} differ",
        m.len(),
        v.len(),
        grad.len()
    );
    dispatch::adam_step(dispatch::level(), params, m, v, grad, step);
}

/// Portable body of [`sgd_momentum_step`].
#[inline(always)]
fn sgd_momentum_step_impl(
    params: &mut [f64],
    velocity: &mut [f64],
    grad: &[f64],
    lr: f64,
    momentum: f64,
) {
    for ((p, v), &g) in params.iter_mut().zip(velocity).zip(grad) {
        *v *= momentum;
        *v += 1.0 * g;
        *p += -lr * *v;
    }
}

/// One SGD-with-momentum update over flat slices, element-wise:
/// `v ← μ·v; v ← v + 1·g; p ← p + (−lr)·v`, the sequence of a `scale`
/// and two [`axpy`] sweeps.
///
/// # Panics
///
/// Panics if the three slices differ in length.
pub fn sgd_momentum_step(
    params: &mut [f64],
    velocity: &mut [f64],
    grad: &[f64],
    lr: f64,
    momentum: f64,
) {
    let dim = params.len();
    assert!(
        velocity.len() == dim && grad.len() == dim,
        "sgd_momentum_step: params {dim}, velocity {}, grad {} differ",
        velocity.len(),
        grad.len()
    );
    dispatch::sgd_momentum_step(dispatch::level(), params, velocity, grad, lr, momentum);
}

/// Runtime ISA dispatch: each kernel's portable `*_impl` body recompiled
/// per instruction-set level through `#[target_feature]` wrappers — wider
/// registers, same source, same per-element operation order,
/// bit-identical results. Every entry takes the level to run at, clamped
/// to [`level`], so tests can run each body at every level the host
/// supports. The `unsafe` here is exactly the `#[target_feature]` calling
/// contract, discharged by the cached runtime detection; no pointers are
/// touched.
#[cfg_attr(
    target_arch = "x86_64",
    expect(
        unsafe_code,
        reason = "calling `#[target_feature]` wrappers after runtime detection"
    )
)]
mod dispatch {
    use super::*;

    /// Detected level, cached once per process: 0 = baseline (whatever
    /// the target was compiled for), 1 = AVX2, 2 = AVX-512F.
    #[cfg(target_arch = "x86_64")]
    pub(super) fn level() -> u8 {
        static LEVEL: std::sync::OnceLock<u8> = std::sync::OnceLock::new();
        *LEVEL.get_or_init(|| {
            if is_x86_feature_detected!("avx512f") {
                2
            } else if is_x86_feature_detected!("avx2") {
                1
            } else {
                0
            }
        })
    }

    /// Non-x86-64 targets: the portable bodies *are* the dispatch.
    #[cfg(not(target_arch = "x86_64"))]
    pub(super) fn level() -> u8 {
        0
    }

    /// `name(level, args…)` runs `body(args…)` compiled for
    /// `min(level, level())`.
    #[cfg(target_arch = "x86_64")]
    macro_rules! dispatched {
        ($($name:ident => $body:ident($($arg:ident: $ty:ty),*) $(-> $ret:ty)?;)*) => {$(
            pub(super) fn $name(level: u8, $($arg: $ty),*) $(-> $ret)? {
                /// # Safety
                ///
                /// The CPU must support AVX2.
                #[target_feature(enable = "avx2")]
                unsafe fn avx2($($arg: $ty),*) $(-> $ret)? {
                    $body($($arg),*)
                }
                /// # Safety
                ///
                /// The CPU must support AVX-512F.
                #[target_feature(enable = "avx512f")]
                unsafe fn avx512($($arg: $ty),*) $(-> $ret)? {
                    $body($($arg),*)
                }
                // Clamped to the detected level, so any `level` is safe.
                match level.min(self::level()) {
                    // SAFETY: level() detected AVX-512F on this CPU.
                    2 => unsafe { avx512($($arg),*) },
                    // SAFETY: level() detected AVX2 on this CPU.
                    1 => unsafe { avx2($($arg),*) },
                    _ => $body($($arg),*),
                }
            }
        )*};
    }

    #[cfg(not(target_arch = "x86_64"))]
    macro_rules! dispatched {
        ($($name:ident => $body:ident($($arg:ident: $ty:ty),*) $(-> $ret:ty)?;)*) => {$(
            pub(super) fn $name(_level: u8, $($arg: $ty),*) $(-> $ret)? {
                $body($($arg),*)
            }
        )*};
    }

    dispatched! {
        dot => dot_impl(a: &[f64], b: &[f64]) -> f64;
        norm_squared => norm_squared_impl(a: &[f64]) -> f64;
        distance_squared => distance_squared_impl(a: &[f64], b: &[f64]) -> f64;
        lerp_norm_squared => lerp_norm_squared_impl(a: &mut [f64], b: &[f64], t: f64) -> f64;
        sum_dot_norm_acc => sum_dot_norm_acc_impl(s: Summed<'_>, m: &[f64], dot: (&mut [f64; LANES], &mut f64), norm: (&mut [f64; LANES], &mut f64));
        sum_norm_acc => sum_norm_acc_impl(s: Summed<'_>, acc: &mut [f64; LANES], tail: &mut f64);
        sum_lerp_acc => sum_lerp_acc_impl(a: &mut [f64], s: Summed<'_>, t: f64, acc: Option<(&mut [f64; LANES], &mut f64)>);
        sum_copy => sum_copy_impl(a: &mut [f64], s: Summed<'_>);
        network_sort_sum => network_sort_sum_impl(rows: &mut [[i64; LANES]], network: &[(u32, u32)], trim: usize) -> [f64; LANES];
        gemm_nt => gemm_nt_impl(out: &mut [f64], a: &[f64], b: &[f64], bt: &mut [f64], shape: (usize, usize, usize));
        gemm_nn => gemm_nn_impl(out: &mut [f64], a: &[f64], b: &[f64], m: usize, k: usize, n: usize);
        gemm_tn_acc => gemm_tn_acc_impl(out: &mut [f64], a: &[f64], b: &[f64], m: usize, k: usize, n: usize);
        adam_step => adam_step_impl(params: &mut [f64], m: &mut [f64], v: &mut [f64], grad: &[f64], step: AdamStep);
        sgd_momentum_step => sgd_momentum_step_impl(params: &mut [f64], velocity: &mut [f64], grad: &[f64], lr: f64, momentum: f64);
    }
}

/// Sequential left-to-right sum — the sanctioned home for every scalar
/// float reduction outside this module (lint rule `F3`).
///
/// Deliberately NOT the chunked tree: this is bit-identical to the
/// `Iterator::sum` left fold that the workspace's goldens were recorded
/// under, so migrating an ad-hoc `xs.iter().sum::<f64>()` call here changes
/// where the reduction lives without changing a single bit of its result.
/// New throughput-critical code should prefer [`dot`] / the tree kernels;
/// this entry point exists to make reduction *order* auditable in one
/// place, not to make summation fast.
#[inline]
pub fn sum_seq(values: impl IntoIterator<Item = f64>) -> f64 {
    // std's `Sum<f64>` identity is -0.0 (so an empty sum is -0.0, and a
    // sum of negative zeros stays -0.0); seed identically or the
    // bit-for-bit claim above is false in exactly those edge cases.
    let mut acc = -0.0_f64;
    for v in values {
        acc += v;
    }
    acc
}

/// Arithmetic mean via [`sum_seq`] (empty input → `0.0`).
///
/// Same order contract as [`sum_seq`]: bit-identical to the
/// `xs.iter().sum::<f64>() / xs.len() as f64` idiom it replaces.
#[inline]
pub fn mean_seq(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    sum_seq(values.iter().copied()) / values.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_dot(a: &[f64], b: &[f64]) -> f64 {
        a.iter().zip(b).map(|(x, y)| x * y).sum()
    }

    fn data(n: usize) -> (Vec<f64>, Vec<f64>) {
        let a: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.11).cos()).collect();
        (a, b)
    }

    #[test]
    fn kernels_match_naive_reductions() {
        // Cover empty, sub-lane, exact-lane, and lane+tail lengths.
        for n in [0, 1, 7, 8, 9, 16, 63, 64, 65, 330] {
            let (a, b) = data(n);
            let tol = 1e-12 * (n.max(1) as f64);
            assert!((dot(&a, &b) - naive_dot(&a, &b)).abs() < tol, "dot n={n}");
            assert!(
                (norm_squared(&a) - naive_dot(&a, &a)).abs() < tol,
                "norm_squared n={n}"
            );
            let naive_dist: f64 = a
                .iter()
                .zip(&b)
                .map(|(x, y)| (x - y) * (x - y))
                .sum::<f64>();
            assert!(
                (distance_squared(&a, &b) - naive_dist).abs() < tol,
                "distance_squared n={n}"
            );
            assert!((sum(&a) - a.iter().sum::<f64>()).abs() < tol, "sum n={n}");
            assert!(
                (sum_abs(&a) - a.iter().map(|x| x.abs()).sum::<f64>()).abs() < tol,
                "sum_abs n={n}"
            );
        }
    }

    #[test]
    fn kernels_are_run_to_run_deterministic() {
        // Same input → bit-identical output: the reduction order is fixed.
        let (a, b) = data(1001);
        let first = dot(&a, &b);
        for _ in 0..8 {
            assert_eq!(first.to_bits(), dot(&a, &b).to_bits());
        }
    }

    /// Bit equality, except that any two NaNs match: NaN payloads may
    /// legitimately differ between operand orders of one commutative op.
    fn same_bits(got: f64, want: f64) -> bool {
        got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan())
    }

    fn assert_same_bits(got: &[f64], want: &[f64], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}: length");
        for (i, (&g, &w)) in got.iter().zip(want).enumerate() {
            assert!(
                same_bits(g, w),
                "{what} @{i}: got {g:e} ({g:?}), want {w:e} ({w:?})"
            );
        }
    }

    /// Test data with every awkward value class: ±0, subnormals, and —
    /// when `infinite` — ±inf, mixed into ordinary magnitudes.
    fn special_data(n: usize, seed: f64, infinite: bool) -> Vec<f64> {
        (0..n)
            .map(|i| match i % 11 {
                3 => 0.0,
                5 => -0.0,
                7 => f64::MIN_POSITIVE / 3.0 * if i % 2 == 0 { 1.0 } else { -1.0 },
                9 if infinite && i % 3 == 0 => f64::INFINITY,
                9 if infinite => f64::NEG_INFINITY,
                _ => ((i as f64 + seed) * 0.37).sin() * (1.0 + seed),
            })
            .collect()
    }

    #[test]
    fn simd_dispatch_is_bit_identical_to_portable_bodies() {
        // The `*_impl` calls are the baseline bodies; every level the
        // host supports runs through `dispatch`. Wider registers may only
        // change speed, never a single bit.
        for n in [0usize, 1, 7, 8, 9, 16, 63, 64, 65, 330, 1001] {
            let (a, b) = data(n);
            for level in isa_levels() {
                let at = format!("n={n} level={level}");
                assert_eq!(
                    dispatch::dot(level, &a, &b).to_bits(),
                    dot_impl(&a, &b).to_bits(),
                    "{at}"
                );
                assert_eq!(
                    dispatch::norm_squared(level, &a).to_bits(),
                    norm_squared_impl(&a).to_bits(),
                    "{at}"
                );
                assert_eq!(
                    dispatch::distance_squared(level, &a, &b).to_bits(),
                    distance_squared_impl(&a, &b).to_bits(),
                    "{at}"
                );
                let mut fast = a.clone();
                let mut slow = a.clone();
                let fast_n = dispatch::lerp_norm_squared(level, &mut fast, &b, 0.2);
                let slow_n = lerp_norm_squared_impl(&mut slow, &b, 0.2);
                assert_eq!(fast_n.to_bits(), slow_n.to_bits(), "{at}");
                assert_same_bits(&fast, &slow, &at);
            }
        }
    }

    /// The retired `gemm_nt` loop: one [`dot`] per output element.
    fn retired_gemm_nt(out: &mut [f64], a: &[f64], b: &[f64], m: usize, k: usize, n: usize) {
        for i in 0..m {
            for j in 0..n {
                out[i * n + j] = dot_impl(&a[i * k..(i + 1) * k], &b[j * k..(j + 1) * k]);
            }
        }
    }

    /// The retired `gemm_nn` loop: a zero fill, then one [`axpy`] of
    /// `B.row(j)` per `A[i][j]`, `j` ascending.
    fn retired_gemm_nn(out: &mut [f64], a: &[f64], b: &[f64], m: usize, k: usize, n: usize) {
        out.fill(0.0);
        for i in 0..m {
            for j in 0..k {
                axpy(
                    &mut out[i * n..(i + 1) * n],
                    a[i * k + j],
                    &b[j * n..(j + 1) * n],
                );
            }
        }
    }

    /// The retired `gemm_tn_acc` loop: per sample, ascending, one [`axpy`]
    /// of `B.row(i)` into each output row.
    fn retired_gemm_tn_acc(out: &mut [f64], a: &[f64], b: &[f64], m: usize, k: usize, n: usize) {
        for i in 0..m {
            for j in 0..k {
                axpy(
                    &mut out[j * n..(j + 1) * n],
                    a[i * k + j],
                    &b[i * n..(i + 1) * n],
                );
            }
        }
    }

    /// Every GEMM microkernel at every ISA level against its retired
    /// loop, `to_bits`, on shapes straddling every tile edge (4-row tiles,
    /// 16-, 8- and 1-column tiles, 8-lane chunks and their tails, and the
    /// stack block's depth), with ±0, subnormal and ±inf inputs and a
    /// nonzero `gemm_tn_acc` seed.
    #[test]
    fn gemm_microkernels_are_bit_identical_to_retired_loops_at_every_level() {
        let mut panel = Vec::new();
        for m in [1usize, 4, 64] {
            for k in [1usize, 7, 8, 9, 32, 48, NT_STACK_K + 7] {
                for n in [1usize, 3, 4, 5, 10, 25, 32] {
                    for infinite in [false, true] {
                        let shape = format!("{m}x{k}x{n} inf={infinite}");
                        let a = special_data(m * k, 0.5, infinite);
                        let b_nk = special_data(n * k, 1.5, infinite);
                        let b_mn = special_data(m * n, 2.5, infinite);
                        let seed = special_data(k * n, 3.5, infinite);

                        let mut nt_want = vec![0.0; m * n];
                        retired_gemm_nt(&mut nt_want, &a, &b_nk, m, k, n);
                        let mut nn_want = vec![0.0; m * n];
                        retired_gemm_nn(&mut nn_want, &a, &b_nk, m, k, n);
                        let mut tn_want = seed.clone();
                        retired_gemm_tn_acc(&mut tn_want, &a, &b_mn, m, k, n);

                        let mut nt = vec![f64::NAN; m * n];
                        gemm_nt(&mut nt, &a, &b_nk, m, k, n, &mut panel);
                        assert_same_bits(&nt, &nt_want, &format!("gemm_nt {shape}"));
                        for level in isa_levels() {
                            let at = format!("{shape} level={level}");
                            let mut nt = vec![f64::NAN; m * n];
                            let mut bt = vec![f64::NAN; NT_COLS * k];
                            dispatch::gemm_nt(level, &mut nt, &a, &b_nk, &mut bt, (m, k, n));
                            assert_same_bits(&nt, &nt_want, &format!("gemm_nt {at}"));

                            let mut nn = vec![f64::NAN; m * n];
                            dispatch::gemm_nn(level, &mut nn, &a, &b_nk, m, k, n);
                            assert_same_bits(&nn, &nn_want, &format!("gemm_nn {at}"));

                            let mut tn = seed.clone();
                            dispatch::gemm_tn_acc(level, &mut tn, &a, &b_mn, m, k, n);
                            assert_same_bits(&tn, &tn_want, &format!("gemm_tn_acc {at}"));
                        }
                    }
                }
            }
        }
    }

    /// The retired `Adam::step` loops: `Vector::lerp` of the first
    /// moment, the second-moment loop, then the parameter loop.
    fn retired_adam(p: &mut [f64], m: &mut [f64], v: &mut [f64], g: &[f64], c: AdamStep) {
        let t = 1.0 - c.beta1;
        for (mi, gi) in m.iter_mut().zip(g) {
            *mi = (1.0 - t) * *mi + t * gi;
        }
        for (vi, gi) in v.iter_mut().zip(g) {
            *vi = c.beta2 * *vi + (1.0 - c.beta2) * gi * gi;
        }
        for ((pi, &mi), &vi) in p.iter_mut().zip(m.iter()).zip(v.iter()) {
            let m_hat = mi / c.bias1;
            let v_hat = vi / c.bias2;
            *pi -= c.lr * m_hat / (v_hat.sqrt() + c.eps);
        }
    }

    /// The retired `Sgd::step` momentum sweeps: `scale`, then two `axpy`.
    fn retired_sgd(p: &mut [f64], vel: &mut [f64], g: &[f64], lr: f64, mu: f64) {
        for vi in vel.iter_mut() {
            *vi *= mu;
        }
        axpy(vel, 1.0, g);
        axpy(p, -lr, vel);
    }

    /// Fifty optimizer steps per ISA level, kernel against the retired
    /// scalar loops, every parameter and state value compared `to_bits`.
    #[test]
    fn optimizer_kernels_are_bit_identical_to_retired_loops_at_every_level() {
        for dim in [1usize, 7, 8, 9, 33, 1898] {
            for level in isa_levels() {
                let at = format!("dim={dim} level={level}");
                let start = special_data(dim, 0.25, false);
                let (mut p, mut m, mut v) = (start.clone(), vec![0.0; dim], vec![0.0; dim]);
                let (mut p_want, mut m_want, mut v_want) = (p.clone(), m.clone(), v.clone());
                let (mut q, mut vel) = (start.clone(), vec![0.0; dim]);
                let (mut q_want, mut vel_want) = (q.clone(), vel.clone());
                for t in 1..=50 {
                    let g = special_data(dim, t as f64, false);
                    let (beta1, beta2) = (0.9_f64, 0.999_f64);
                    let step = AdamStep {
                        lr: 0.01,
                        beta1,
                        beta2,
                        eps: 1e-8,
                        bias1: 1.0 - beta1.powi(t),
                        bias2: 1.0 - beta2.powi(t),
                    };
                    dispatch::adam_step(level, &mut p, &mut m, &mut v, &g, step);
                    retired_adam(&mut p_want, &mut m_want, &mut v_want, &g, step);
                    dispatch::sgd_momentum_step(level, &mut q, &mut vel, &g, 0.05, 0.9);
                    retired_sgd(&mut q_want, &mut vel_want, &g, 0.05, 0.9);
                }
                assert_same_bits(&p, &p_want, &format!("adam params {at}"));
                assert_same_bits(&m, &m_want, &format!("adam m {at}"));
                assert_same_bits(&v, &v_want, &format!("adam v {at}"));
                assert_same_bits(&q, &q_want, &format!("sgd params {at}"));
                assert_same_bits(&vel, &vel_want, &format!("sgd velocity {at}"));
            }
        }
    }

    #[test]
    fn lerp_norm_squared_fuses_without_changing_bits() {
        // The fused kernel must equal lerp-then-norm exactly: same
        // element-wise formula, same lane-and-tail accumulation order.
        for n in [0usize, 1, 7, 8, 9, 16, 65, 330] {
            let (a, b) = data(n);
            for t in [0.0, 0.2, 0.5, 1.0, -0.25, 1.5] {
                let mut fused = a.clone();
                let fused_norm = lerp_norm_squared(&mut fused, &b, t);
                let two_pass: Vec<f64> = a
                    .iter()
                    .zip(&b)
                    .map(|(x, y)| (1.0 - t) * x + t * y)
                    .collect();
                for (x, y) in fused.iter().zip(&two_pass) {
                    assert_eq!(x.to_bits(), y.to_bits(), "n={n} t={t}");
                }
                assert_eq!(
                    fused_norm.to_bits(),
                    norm_squared(&two_pass).to_bits(),
                    "n={n} t={t}"
                );
            }
        }
    }

    /// The chain one step at a time over the whole slice at the baseline
    /// level, each source stored as its sum: each lerp a fused
    /// `lerp_norm_squared`, each copy a `copy_from_slice` and a fresh
    /// `norm_squared`, the last step's norm returned.
    fn per_step_chain(a: &mut [f64], steps: &[(Vec<f64>, Option<f64>)]) -> f64 {
        let mut norm = norm_squared_impl(a);
        for (b, t) in steps {
            norm = match *t {
                Some(t) => lerp_norm_squared_impl(a, b, t),
                None => {
                    a.copy_from_slice(b);
                    norm_squared_impl(a)
                }
            };
        }
        norm
    }

    /// The blocked chain against [`per_step_chain`] over the stored sums,
    /// at every level: sources read alone and as a shared base plus their
    /// delta, under Robbins–Monro rates, an EMA from an adoption, an
    /// adoption alone, a warm EMA and no steps.
    #[test]
    fn lerp_chain_is_bit_identical_to_per_step_kernels_at_every_level() {
        // Lengths straddle the lane width and the block: a partial chunk
        // tail, exact blocks, and a partial last block.
        for n in [0usize, 1, 7, 8, 9, 511, 512, 513, 1030, 1537] {
            let base = special_data(n, 7.5, false);
            let deltas: Vec<Vec<f64>> = (0..6)
                .map(|k| special_data(n, 0.3 + k as f64, k == 5))
                .collect();
            for shared in [None, Some(base.as_slice())] {
                let sources: Vec<Summed<'_>> = deltas
                    .iter()
                    .map(|d| Summed {
                        base: shared,
                        delta: d,
                    })
                    .collect();
                let rm: Vec<LerpStep<'_>> = sources
                    .iter()
                    .enumerate()
                    .map(|(k, &s)| (s, Some(1.0 / (k as f64 + 1.0))))
                    .collect();
                let ema_cold: Vec<LerpStep<'_>> = sources
                    .iter()
                    .enumerate()
                    .map(|(k, &s)| (s, (k > 0).then_some(0.2)))
                    .collect();
                let cases: [(&str, &[LerpStep<'_>]); 5] = [
                    ("robbins-monro", &rm),
                    ("ema from adopt", &ema_cold),
                    ("adopt only", &ema_cold[..1]),
                    ("ema warm", &ema_cold[1..]),
                    ("no steps", &[]),
                ];
                for (what, steps) in cases {
                    let stored: Vec<(Vec<f64>, Option<f64>)> =
                        steps.iter().map(|&(s, t)| (s.to_vec(), t)).collect();
                    let start = special_data(n, 9.0, false);
                    let mut want = start.clone();
                    let want_norm = per_step_chain(&mut want, &stored);
                    for level in isa_levels() {
                        let mut got = start.clone();
                        let got_norm = lerp_chain_at(level, &mut got, steps.iter().copied());
                        let at = format!("{what} n={n} base={} level={level}", shared.is_some());
                        assert!(same_bits(got_norm, want_norm), "{at}: norm");
                        assert_same_bits(&got, &want, &at);
                    }
                }
            }
        }
    }

    /// A missing base reads the delta as is: a `-0.0` coordinate stays
    /// `-0.0` through an adoption, where adding a zero base would make it
    /// `+0.0`.
    #[test]
    fn a_missing_base_reads_the_delta_as_is() {
        let delta = [-0.0, 1.0, -0.0];
        let mut a = [5.0; 3];
        let _ = lerp_chain_norm_squared(&mut a, [(Summed::from(&delta[..]), None)].into_iter());
        assert_eq!(a.map(f64::to_bits), delta.map(f64::to_bits));
        let zero = [0.0; 3];
        let summed = Summed {
            base: Some(&zero[..]),
            delta: &delta,
        };
        assert_eq!(summed.to_vec()[0].to_bits(), 0.0_f64.to_bits());
    }

    /// The lane contract written out: `a[i]·b[i]` into lane `i % 8` for
    /// every full chunk, the rest into a tail, each from `0.0`, folded by
    /// `reduce`.
    fn lane_dot(a: &[f64], b: &[f64]) -> f64 {
        let full = a.len() - a.len() % LANES;
        let mut acc = [0.0; LANES];
        let mut tail = 0.0;
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            if i < full {
                acc[i % LANES] += x * y;
            } else {
                tail += x * y;
            }
        }
        reduce(acc, tail)
    }

    /// `sum_dots_norms` and `sum_norm_squared` against the lane contract
    /// of `dot` and `norm_squared` and against those kernels on the stored
    /// sums, at every level: members alone and on two bases, groups of 1,
    /// 16, 17 and 21 members (one sweep, a full sweep, a second sweep of
    /// one and of five), lengths around the lane width and the block.
    #[test]
    fn sum_dots_norms_are_bit_identical_to_the_stored_sum_at_every_level() {
        for n in [0usize, 1, 7, 8, 9, 511, 512, 513, 1030, 1537] {
            let m = special_data(n, 4.5, false);
            let bases = [special_data(n, 1.25, false), special_data(n, 2.75, true)];
            let deltas: Vec<Vec<f64>> = (0..21)
                .map(|k| special_data(n, 0.1 * k as f64, k == 20))
                .collect();
            // Members cycle through no base and the two bases, so
            // consecutive members mix shared and distinct bases.
            let members: Vec<Summed<'_>> = deltas
                .iter()
                .enumerate()
                .map(|(k, d)| Summed {
                    base: [None, Some(bases[0].as_slice()), Some(&bases[1])][k % 3],
                    delta: d,
                })
                .collect();
            let stored: Vec<Vec<f64>> = members.iter().map(|s| s.to_vec()).collect();
            for count in [1, 16, 17, 21] {
                let group = &members[..count];
                let want_dots: Vec<f64> = stored[..count].iter().map(|w| lane_dot(w, &m)).collect();
                let want_norms: Vec<f64> = stored[..count].iter().map(|w| lane_dot(w, w)).collect();
                for level in isa_levels() {
                    let at = format!("n={n} k={count} level={level}");
                    let (mut dots, mut norms) = (vec![f64::NAN; count], vec![f64::NAN; count]);
                    sum_dots_norms_at(level, &m, group.iter().copied(), &mut dots, &mut norms);
                    assert_same_bits(&dots, &want_dots, &format!("dots {at}"));
                    assert_same_bits(&norms, &want_norms, &format!("norms {at}"));
                    for (k, w) in stored[..count].iter().enumerate() {
                        assert!(
                            same_bits(dots[k], dispatch::dot(level, w, &m)),
                            "dot {k} {at}"
                        );
                        let norm = dispatch::norm_squared(level, w);
                        assert!(same_bits(norms[k], norm), "norm_squared {k} {at}");
                    }
                }
            }
            for (k, &s) in members.iter().enumerate() {
                let want = lane_dot(&stored[k], &stored[k]);
                for level in isa_levels() {
                    let (mut acc, mut tail) = ([0.0; LANES], 0.0);
                    dispatch::sum_norm_acc(level, s, &mut acc, &mut tail);
                    let at = format!("norm n={n} member {k} level={level}");
                    assert!(same_bits(reduce(acc, tail), want), "{at}");
                }
                assert!(same_bits(sum_norm_squared(s), want));
            }
        }
    }

    #[test]
    #[should_panic(expected = "sum_dots_norms")]
    fn sum_dots_norms_rejects_a_short_base() {
        let (m, d, b) = ([1.0; 9], [1.0; 9], [1.0; 8]);
        let member = Summed {
            base: Some(&b[..]),
            delta: &d,
        };
        sum_dots_norms(&m, [member].into_iter(), &mut [0.0], &mut [0.0]);
    }

    #[test]
    #[should_panic(expected = "sum_dots_norms")]
    fn sum_dots_norms_rejects_outputs_of_another_count() {
        let (m, d) = ([1.0; 9], [1.0; 9]);
        sum_dots_norms(&m, [Summed::from(&d[..])].into_iter(), &mut [0.0], &mut []);
    }

    #[test]
    #[should_panic(expected = "lerp_chain_norm_squared")]
    fn lerp_chain_rejects_a_short_source() {
        let mut a = vec![0.0; 9];
        let short = [1.0; 8];
        let _ =
            lerp_chain_norm_squared(&mut a, [(Summed::from(&short[..]), Some(0.5))].into_iter());
    }

    #[test]
    fn merge_sort_network_sorts_every_zero_one_input() {
        // The 0-1 principle: a comparator network sorts every input iff it
        // sorts every 0-1 input, so n ≤ 14 is checked exhaustively here.
        for n in 0..=14usize {
            let network = merge_sort_network(n);
            assert!(network.iter().all(|&(i, j)| i < j && (j as usize) < n));
            for bits in 0..1u32 << n {
                let mut keys: Vec<i64> = (0..n).map(|i| i64::from(bits >> i & 1)).collect();
                for &(i, j) in &network {
                    let (i, j) = (i as usize, j as usize);
                    if keys[i] > keys[j] {
                        keys.swap(i, j);
                    }
                }
                assert!(
                    keys.windows(2).all(|w| w[0] <= w[1]),
                    "n={n} input {bits:b}"
                );
            }
        }
        assert_eq!(merge_sort_network(32).len(), 191);
    }

    fn naive_gemm(a: &[f64], b: &[f64], m: usize, k: usize, n: usize) -> Vec<f64> {
        let mut out = vec![0.0; m * n];
        for i in 0..m {
            for j in 0..n {
                for l in 0..k {
                    out[i * n + j] += a[i * k + l] * b[l * n + j];
                }
            }
        }
        out
    }

    fn transpose(a: &[f64], rows: usize, cols: usize) -> Vec<f64> {
        let mut out = vec![0.0; rows * cols];
        for r in 0..rows {
            for c in 0..cols {
                out[c * rows + r] = a[r * cols + c];
            }
        }
        out
    }

    #[test]
    fn gemm_variants_agree_with_naive_products() {
        for (m, k, n) in [(1, 1, 1), (3, 4, 2), (5, 8, 7), (2, 17, 9), (4, 1, 3)] {
            let a: Vec<f64> = (0..m * k).map(|i| (i as f64 * 0.13).sin()).collect();
            let b: Vec<f64> = (0..k * n).map(|i| (i as f64 * 0.29).cos()).collect();
            let want = naive_gemm(&a, &b, m, k, n);
            let tol = 1e-12 * (k as f64);

            let mut nn = vec![0.0; m * n];
            gemm_nn(&mut nn, &a, &b, m, k, n);
            let mut nt = vec![0.0; m * n];
            gemm_nt(&mut nt, &a, &transpose(&b, k, n), m, k, n, &mut Vec::new());
            let mut tn = vec![0.0; m * n];
            gemm_tn_acc(&mut tn, &transpose(&a, m, k), &b, k, m, n);
            for i in 0..m * n {
                assert!((nn[i] - want[i]).abs() < tol, "gemm_nn {m}x{k}x{n} @{i}");
                assert!((nt[i] - want[i]).abs() < tol, "gemm_nt {m}x{k}x{n} @{i}");
                assert!(
                    (tn[i] - want[i]).abs() < tol,
                    "gemm_tn_acc {m}x{k}x{n} @{i}"
                );
            }
        }
    }

    #[test]
    fn gemm_tn_acc_accumulates_instead_of_overwriting() {
        let a = [1.0, 2.0];
        let b = [3.0, 4.0];
        // m=2 samples, k=1, n=1: out += Σ aᵢ·bᵢ = 11.
        let mut out = [100.0];
        gemm_tn_acc(&mut out, &a, &b, 2, 1, 1);
        assert_eq!(out[0], 111.0);
    }

    #[test]
    fn gemm_nt_batches_the_per_row_dot() {
        // One row of gemm_nt must equal dot() bit-for-bit: the batched
        // forward pass may not perturb the per-sample arithmetic.
        let a: Vec<f64> = (0..23).map(|i| (i as f64 * 0.7).sin()).collect();
        let b: Vec<f64> = (0..23).map(|i| (i as f64 * 0.3).cos()).collect();
        let mut out = [0.0];
        gemm_nt(&mut out, &a, &b, 1, 23, 1, &mut Vec::new());
        assert_eq!(out[0].to_bits(), dot(&a, &b).to_bits());
    }

    #[test]
    fn add_row_broadcast_adds_bias_to_each_row() {
        let mut out = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        add_row_broadcast(&mut out, &[10.0, 20.0]);
        assert_eq!(out, [11.0, 22.0, 13.0, 24.0, 15.0, 26.0]);
        let mut empty: [f64; 0] = [];
        add_row_broadcast(&mut empty, &[1.0]);
    }

    #[test]
    #[should_panic(expected = "gemm_nn: A is not")]
    fn gemm_nn_shape_mismatch_panics() {
        let mut out = [0.0; 4];
        gemm_nn(&mut out, &[1.0; 3], &[1.0; 4], 2, 2, 2);
    }

    #[test]
    #[should_panic(expected = "gemm_nt: B is not")]
    fn gemm_nt_shape_mismatch_panics() {
        let mut out = [0.0; 4];
        gemm_nt(&mut out, &[1.0; 4], &[1.0; 3], 2, 2, 2, &mut Vec::new());
    }

    #[test]
    #[should_panic(expected = "gemm_tn_acc: out is not")]
    fn gemm_tn_acc_shape_mismatch_panics() {
        let mut out = [0.0; 3];
        gemm_tn_acc(&mut out, &[1.0; 4], &[1.0; 4], 2, 2, 2);
    }

    #[test]
    #[should_panic(expected = "multiple of bias length")]
    fn add_row_broadcast_ragged_panics() {
        let mut out = [0.0; 5];
        add_row_broadcast(&mut out, &[1.0, 2.0]);
    }

    #[test]
    fn sum_seq_matches_iterator_sum_bitwise() {
        for n in [0usize, 1, 7, 8, 9, 65, 330] {
            let (a, _) = data(n);
            let theirs: f64 = a.iter().sum();
            assert_eq!(
                sum_seq(a.iter().copied()).to_bits(),
                theirs.to_bits(),
                "n={n}"
            );
        }
    }

    #[test]
    fn mean_seq_matches_naive_idiom_bitwise() {
        assert_eq!(mean_seq(&[]), 0.0);
        for n in [1usize, 7, 8, 9, 65, 330] {
            let (a, _) = data(n);
            let naive = a.iter().sum::<f64>() / a.len() as f64;
            assert_eq!(mean_seq(&a).to_bits(), naive.to_bits(), "n={n}");
        }
    }

    #[test]
    fn axpy_matches_scalar_loop() {
        for n in [0, 1, 7, 8, 9, 65, 330] {
            let (a, b) = data(n);
            let mut fast = a.clone();
            axpy(&mut fast, 0.75, &b);
            let slow: Vec<f64> = a.iter().zip(&b).map(|(y, x)| y + 0.75 * x).collect();
            // Element-wise op: must be *exactly* the same, not just close.
            assert_eq!(fast, slow, "axpy n={n}");
        }
    }
}
