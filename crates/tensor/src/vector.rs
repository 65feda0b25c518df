//! Owned dense `f64` vectors.
//!
//! [`Vector`] is the common currency of the whole stack: model parameters,
//! gradients and model updates all travel as flat vectors. The type wraps a
//! `Vec<f64>` and adds the numeric operations federated aggregation needs.

use std::fmt;
use std::iter::FromIterator;
use std::ops::{Add, AddAssign, Index, IndexMut, Mul, Neg, Sub, SubAssign};

/// An owned dense vector of `f64` components.
///
/// All binary operations require operands of equal dimension and panic
/// otherwise; dimension mismatches in this stack are always programming
/// errors, never data-dependent conditions.
///
/// # Example
///
/// ```
/// use asyncfl_tensor::Vector;
///
/// let a = Vector::from(vec![1.0, 2.0, 3.0]);
/// let b = Vector::from(vec![0.5, 0.5, 0.5]);
/// let c = &a + &b;
/// assert_eq!(c.as_slice(), &[1.5, 2.5, 3.5]);
/// assert!((a.dot(&b) - 3.0).abs() < 1e-12);
/// ```
#[derive(Clone, PartialEq, Default)]
pub struct Vector {
    data: Vec<f64>,
}

impl Vector {
    /// Creates a zero vector of dimension `dim`.
    ///
    /// ```
    /// use asyncfl_tensor::Vector;
    /// let z = Vector::zeros(4);
    /// assert_eq!(z.len(), 4);
    /// assert!(z.iter().all(|&x| x == 0.0));
    /// ```
    pub fn zeros(dim: usize) -> Self {
        Self {
            data: vec![0.0; dim],
        }
    }

    /// Creates a vector of dimension `dim` with all components set to `value`.
    pub fn filled(dim: usize, value: f64) -> Self {
        Self {
            data: vec![value; dim],
        }
    }

    /// Creates a vector by evaluating `f` at each index `0..dim`.
    ///
    /// ```
    /// use asyncfl_tensor::Vector;
    /// let v = Vector::from_fn(3, |i| i as f64 * 2.0);
    /// assert_eq!(v.as_slice(), &[0.0, 2.0, 4.0]);
    /// ```
    pub fn from_fn(dim: usize, f: impl FnMut(usize) -> f64) -> Self {
        Self {
            data: (0..dim).map(f).collect(),
        }
    }

    /// Dimension of the vector.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` if the vector has dimension zero.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrows the components as a slice.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Borrows the components as a mutable slice.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consumes the vector and returns the underlying storage.
    pub fn into_inner(self) -> Vec<f64> {
        self.data
    }

    /// Iterates over the components.
    pub fn iter(&self) -> std::slice::Iter<'_, f64> {
        self.data.iter()
    }

    /// Iterates mutably over the components.
    pub fn iter_mut(&mut self) -> std::slice::IterMut<'_, f64> {
        self.data.iter_mut()
    }

    /// Dot product `self · other`.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    pub fn dot(&self, other: &Self) -> f64 {
        assert_eq!(
            self.len(),
            other.len(),
            "dot: dimension mismatch ({} vs {})",
            self.len(),
            other.len()
        );
        crate::kernels::dot(&self.data, &other.data)
    }

    /// Euclidean (ℓ2) norm.
    ///
    /// ```
    /// use asyncfl_tensor::Vector;
    /// let v = Vector::from(vec![3.0, 4.0]);
    /// assert!((v.norm() - 5.0).abs() < 1e-12);
    /// ```
    pub fn norm(&self) -> f64 {
        self.dot(self).sqrt()
    }

    /// Squared Euclidean norm, avoiding the square root.
    pub fn norm_squared(&self) -> f64 {
        crate::kernels::norm_squared(&self.data)
    }

    /// ℓ1 norm (sum of absolute values).
    pub fn norm_l1(&self) -> f64 {
        crate::kernels::sum_abs(&self.data)
    }

    /// ℓ∞ norm (maximum absolute component); `0.0` for the empty vector.
    pub fn norm_inf(&self) -> f64 {
        self.data.iter().fold(0.0, |acc, x| acc.max(x.abs()))
    }

    /// Euclidean distance `‖self − other‖₂`.
    ///
    /// This is the distance used by AsyncFilter's suspicious scores
    /// (paper eq. 6).
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    pub fn distance(&self, other: &Self) -> f64 {
        self.distance_squared(other).sqrt()
    }

    /// Squared Euclidean distance `‖self − other‖₂²`.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    pub fn distance_squared(&self, other: &Self) -> f64 {
        assert_eq!(
            self.len(),
            other.len(),
            "distance: dimension mismatch ({} vs {})",
            self.len(),
            other.len()
        );
        crate::kernels::distance_squared(&self.data, &other.data)
    }

    /// Squared Euclidean distance via the cached-norm identity
    /// `‖a − b‖² = ‖a‖² + ‖b‖² − 2·a·b`, clamped at zero against rounding.
    ///
    /// When both squared norms are already known (e.g. cached per update,
    /// as AsyncFilter's eq. 6/7 scoring does via
    /// `ClientUpdate::params_norm_squared`), each distance costs one dot
    /// product instead of a fused two-vector walk, and the norms amortize
    /// across every (estimate, update) pair.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    pub fn distance_squared_from_norms(
        &self,
        self_norm_sq: f64,
        other: &Self,
        other_norm_sq: f64,
    ) -> f64 {
        (self_norm_sq + other_norm_sq - 2.0 * self.dot(other)).max(0.0)
    }

    /// Euclidean distance via the cached-norm identity; see
    /// [`Vector::distance_squared_from_norms`].
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    pub fn distance_from_norms(&self, self_norm_sq: f64, other: &Self, other_norm_sq: f64) -> f64 {
        self.distance_squared_from_norms(self_norm_sq, other, other_norm_sq)
            .sqrt()
    }

    /// Overwrites `self` with `other`'s contents, reusing the existing
    /// allocation whenever capacity allows — the in-place counterpart of
    /// `clone()`. Dimensions may differ; `self` takes `other`'s. Hot-path
    /// callers that refresh a stored vector every pass (filter scratch,
    /// per-client history) use this to stay allocation-free in steady state.
    pub fn copy_from(&mut self, other: &Self) {
        self.data.clone_from(&other.data);
    }

    /// In-place scaled addition `self += alpha * other` (BLAS `axpy`).
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    pub fn axpy(&mut self, alpha: f64, other: &Self) {
        assert_eq!(
            self.len(),
            other.len(),
            "axpy: dimension mismatch ({} vs {})",
            self.len(),
            other.len()
        );
        crate::kernels::axpy(&mut self.data, alpha, &other.data);
    }

    /// In-place scaling `self *= alpha`.
    pub fn scale(&mut self, alpha: f64) {
        for a in &mut self.data {
            *a *= alpha;
        }
    }

    /// Returns a scaled copy `alpha * self`.
    pub fn scaled(&self, alpha: f64) -> Self {
        let mut out = self.clone();
        out.scale(alpha);
        out
    }

    /// In-place linear interpolation toward `other`:
    /// `self = (1 − t) * self + t * other`.
    ///
    /// AsyncFilter's moving-average estimator (paper eq. 5) is exactly this
    /// with `t = 1/(round+1)`.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    pub fn lerp(&mut self, other: &Self, t: f64) {
        assert_eq!(
            self.len(),
            other.len(),
            "lerp: dimension mismatch ({} vs {})",
            self.len(),
            other.len()
        );
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a = (1.0 - t) * *a + t * b;
        }
    }

    /// Fused [`lerp`](Self::lerp) that also returns the updated
    /// `‖self‖²` from the same traversal — bit-identical to calling
    /// `lerp` followed by [`norm_squared`](Self::norm_squared), in one
    /// pass instead of two. AsyncFilter's estimate maintenance
    /// absorbs updates through this so its cached norm stays
    /// exact without a separate re-reduction.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    pub fn lerp_norm_squared(&mut self, other: &Self, t: f64) -> f64 {
        assert_eq!(
            self.len(),
            other.len(),
            "lerp_norm_squared: dimension mismatch ({} vs {})",
            self.len(),
            other.len()
        );
        crate::kernels::lerp_norm_squared(&mut self.data, &other.data, t)
    }

    /// Component-wise (Hadamard) product.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    pub fn hadamard(&self, other: &Self) -> Self {
        assert_eq!(
            self.len(),
            other.len(),
            "hadamard: dimension mismatch ({} vs {})",
            self.len(),
            other.len()
        );
        Self {
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(a, b)| a * b)
                .collect(),
        }
    }

    /// Applies `f` to every component, returning a new vector.
    pub fn map(&self, f: impl FnMut(f64) -> f64) -> Self {
        Self {
            data: self.data.iter().copied().map(f).collect(),
        }
    }

    /// Applies `f` to every component in place.
    pub fn map_in_place(&mut self, mut f: impl FnMut(f64) -> f64) {
        for a in &mut self.data {
            *a = f(*a);
        }
    }

    /// Sum of all components.
    pub fn sum(&self) -> f64 {
        crate::kernels::sum(&self.data)
    }

    /// Arithmetic mean of the components; `0.0` for the empty vector.
    pub fn mean(&self) -> f64 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f64
        }
    }

    /// Returns `true` if every component is finite (no NaN or ±∞).
    ///
    /// Defenses use this to reject obviously corrupt updates before any
    /// statistics are computed.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }

    /// Clamps every component into `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` or either bound is NaN.
    pub fn clamp_in_place(&mut self, lo: f64, hi: f64) {
        assert!(lo <= hi, "clamp: lo ({lo}) must not exceed hi ({hi})");
        for a in &mut self.data {
            *a = a.clamp(lo, hi);
        }
    }

    /// Rescales the vector to have ℓ2 norm `target` if its current norm is
    /// nonzero; leaves the zero vector unchanged. Returns the original norm.
    pub fn rescale_to_norm(&mut self, target: f64) -> f64 {
        let n = self.norm();
        if n > 0.0 {
            self.scale(target / n);
        }
        n
    }
}

impl fmt::Debug for Vector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.data.len() <= 8 {
            write!(f, "Vector({:?})", self.data)
        } else {
            write!(
                f,
                "Vector(dim={}, head={:?}, norm={:.4})",
                self.data.len(),
                self.data.get(..4).unwrap_or(&[]),
                self.norm()
            )
        }
    }
}

impl From<Vec<f64>> for Vector {
    fn from(data: Vec<f64>) -> Self {
        Self { data }
    }
}

impl From<&[f64]> for Vector {
    fn from(data: &[f64]) -> Self {
        Self {
            data: data.to_vec(),
        }
    }
}

impl AsRef<[f64]> for Vector {
    fn as_ref(&self) -> &[f64] {
        &self.data
    }
}

impl AsMut<[f64]> for Vector {
    fn as_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }
}

impl FromIterator<f64> for Vector {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        Self {
            data: iter.into_iter().collect(),
        }
    }
}

impl Extend<f64> for Vector {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        self.data.extend(iter);
    }
}

impl Index<usize> for Vector {
    type Output = f64;

    #[expect(
        clippy::indexing_slicing,
        reason = "Index's contract is to panic out of bounds; delegate to the slice check"
    )]
    fn index(&self, index: usize) -> &f64 {
        &self.data[index]
    }
}

impl IndexMut<usize> for Vector {
    #[expect(
        clippy::indexing_slicing,
        reason = "Index's contract is to panic out of bounds; delegate to the slice check"
    )]
    fn index_mut(&mut self, index: usize) -> &mut f64 {
        &mut self.data[index]
    }
}

impl<'a> IntoIterator for &'a Vector {
    type Item = &'a f64;
    type IntoIter = std::slice::Iter<'a, f64>;

    fn into_iter(self) -> Self::IntoIter {
        self.data.iter()
    }
}

impl IntoIterator for Vector {
    type Item = f64;
    type IntoIter = std::vec::IntoIter<f64>;

    fn into_iter(self) -> Self::IntoIter {
        self.data.into_iter()
    }
}

macro_rules! impl_binop {
    ($trait:ident, $method:ident, $op:tt, $name:literal) => {
        impl $trait<&Vector> for &Vector {
            type Output = Vector;

            fn $method(self, rhs: &Vector) -> Vector {
                assert_eq!(
                    self.len(),
                    rhs.len(),
                    concat!($name, ": dimension mismatch ({} vs {})"),
                    self.len(),
                    rhs.len()
                );
                Vector {
                    data: self
                        .data
                        .iter()
                        .zip(&rhs.data)
                        .map(|(a, b)| a $op b)
                        .collect(),
                }
            }
        }

        impl $trait<Vector> for Vector {
            type Output = Vector;

            fn $method(self, rhs: Vector) -> Vector {
                (&self).$method(&rhs)
            }
        }

        impl $trait<&Vector> for Vector {
            type Output = Vector;

            fn $method(self, rhs: &Vector) -> Vector {
                (&self).$method(rhs)
            }
        }
    };
}

impl_binop!(Add, add, +, "add");
impl_binop!(Sub, sub, -, "sub");

impl AddAssign<&Vector> for Vector {
    fn add_assign(&mut self, rhs: &Vector) {
        self.axpy(1.0, rhs);
    }
}

impl SubAssign<&Vector> for Vector {
    fn sub_assign(&mut self, rhs: &Vector) {
        self.axpy(-1.0, rhs);
    }
}

impl Mul<f64> for &Vector {
    type Output = Vector;

    fn mul(self, rhs: f64) -> Vector {
        self.scaled(rhs)
    }
}

impl Mul<f64> for Vector {
    type Output = Vector;

    fn mul(mut self, rhs: f64) -> Vector {
        self.scale(rhs);
        self
    }
}

impl Neg for &Vector {
    type Output = Vector;

    fn neg(self) -> Vector {
        self.scaled(-1.0)
    }
}

impl Neg for Vector {
    type Output = Vector;

    fn neg(mut self) -> Vector {
        self.scale(-1.0);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn v(xs: &[f64]) -> Vector {
        Vector::from(xs)
    }

    #[test]
    fn zeros_and_filled() {
        assert_eq!(Vector::zeros(3).as_slice(), &[0.0, 0.0, 0.0]);
        assert_eq!(Vector::filled(2, 7.5).as_slice(), &[7.5, 7.5]);
        assert!(Vector::zeros(0).is_empty());
    }

    #[test]
    fn from_fn_indexes() {
        let x = Vector::from_fn(4, |i| (i * i) as f64);
        assert_eq!(x.as_slice(), &[0.0, 1.0, 4.0, 9.0]);
    }

    #[test]
    fn dot_and_norms() {
        let a = v(&[1.0, 2.0, 2.0]);
        assert_eq!(a.dot(&a), 9.0);
        assert_eq!(a.norm(), 3.0);
        assert_eq!(a.norm_squared(), 9.0);
        assert_eq!(a.norm_l1(), 5.0);
        assert_eq!(a.norm_inf(), 2.0);
    }

    #[test]
    fn norm_inf_of_empty_is_zero() {
        assert_eq!(Vector::zeros(0).norm_inf(), 0.0);
    }

    #[test]
    fn distance_matches_manual() {
        let a = v(&[0.0, 0.0]);
        let b = v(&[3.0, 4.0]);
        assert_eq!(a.distance(&b), 5.0);
        assert_eq!(a.distance_squared(&b), 25.0);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn dot_dimension_mismatch_panics() {
        let _ = v(&[1.0]).dot(&v(&[1.0, 2.0]));
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = v(&[1.0, 1.0]);
        a.axpy(2.0, &v(&[3.0, -1.0]));
        assert_eq!(a.as_slice(), &[7.0, -1.0]);
    }

    #[test]
    fn copy_from_matches_clone_and_reuses_capacity() {
        let src = v(&[4.0, 5.0, 6.0]);
        let mut dst = v(&[1.0, 2.0, 3.0]);
        let buf = dst.as_slice().as_ptr();
        dst.copy_from(&src);
        assert_eq!(dst, src);
        assert_eq!(
            dst.as_slice().as_ptr(),
            buf,
            "equal-capacity copy must reuse the allocation"
        );
        // Dimensions may differ: the destination takes the source's.
        let mut shrunk = v(&[9.0]);
        shrunk.copy_from(&src);
        assert_eq!(shrunk, src);
    }

    #[test]
    fn lerp_endpoints() {
        let mut a = v(&[0.0, 10.0]);
        let b = v(&[10.0, 0.0]);
        let mut a0 = a.clone();
        a0.lerp(&b, 0.0);
        assert_eq!(a0, a);
        a.lerp(&b, 1.0);
        assert_eq!(a, b);
    }

    #[test]
    fn lerp_midpoint() {
        let mut a = v(&[0.0, 4.0]);
        a.lerp(&v(&[2.0, 0.0]), 0.5);
        assert_eq!(a.as_slice(), &[1.0, 2.0]);
    }

    #[test]
    fn lerp_norm_squared_matches_lerp_then_norm_bitwise() {
        for n in [1usize, 7, 8, 9, 65] {
            let a: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
            let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.11).cos()).collect();
            for t in [0.0, 0.2, 0.5, 1.0] {
                let mut fused = Vector::from(a.clone());
                let fused_norm = fused.lerp_norm_squared(&Vector::from(b.clone()), t);
                let mut two_pass = Vector::from(a.clone());
                two_pass.lerp(&Vector::from(b.clone()), t);
                assert_eq!(fused.as_slice(), two_pass.as_slice(), "n={n} t={t}");
                assert_eq!(
                    fused_norm.to_bits(),
                    two_pass.norm_squared().to_bits(),
                    "n={n} t={t}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "lerp_norm_squared: dimension mismatch")]
    fn lerp_norm_squared_dimension_mismatch_panics() {
        let mut a = v(&[1.0, 2.0]);
        let _ = a.lerp_norm_squared(&v(&[1.0]), 0.5);
    }

    #[test]
    fn hadamard_componentwise() {
        let a = v(&[1.0, 2.0, 3.0]);
        let b = v(&[4.0, 5.0, 6.0]);
        assert_eq!(a.hadamard(&b).as_slice(), &[4.0, 10.0, 18.0]);
    }

    #[test]
    fn map_and_map_in_place_agree() {
        let a = v(&[1.0, -2.0, 3.0]);
        let mapped = a.map(f64::abs);
        let mut b = a.clone();
        b.map_in_place(f64::abs);
        assert_eq!(mapped, b);
        assert_eq!(b.as_slice(), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn sum_and_mean() {
        let a = v(&[1.0, 2.0, 3.0]);
        assert_eq!(a.sum(), 6.0);
        assert_eq!(a.mean(), 2.0);
        assert_eq!(Vector::zeros(0).mean(), 0.0);
    }

    #[test]
    fn is_finite_detects_nan_and_inf() {
        assert!(v(&[1.0, 2.0]).is_finite());
        assert!(!v(&[1.0, f64::NAN]).is_finite());
        assert!(!v(&[f64::INFINITY]).is_finite());
        assert!(!v(&[f64::NEG_INFINITY]).is_finite());
    }

    #[test]
    fn clamp_in_place_bounds() {
        let mut a = v(&[-5.0, 0.5, 5.0]);
        a.clamp_in_place(-1.0, 1.0);
        assert_eq!(a.as_slice(), &[-1.0, 0.5, 1.0]);
    }

    #[test]
    #[should_panic(expected = "lo")]
    fn clamp_invalid_bounds_panics() {
        v(&[0.0]).clamp_in_place(1.0, -1.0);
    }

    #[test]
    fn rescale_to_norm() {
        let mut a = v(&[3.0, 4.0]);
        let old = a.rescale_to_norm(1.0);
        assert_eq!(old, 5.0);
        assert!((a.norm() - 1.0).abs() < 1e-12);
        let mut z = Vector::zeros(2);
        assert_eq!(z.rescale_to_norm(1.0), 0.0);
        assert_eq!(z, Vector::zeros(2));
    }

    #[test]
    fn operator_overloads() {
        let a = v(&[1.0, 2.0]);
        let b = v(&[3.0, 4.0]);
        assert_eq!((&a + &b).as_slice(), &[4.0, 6.0]);
        assert_eq!((&b - &a).as_slice(), &[2.0, 2.0]);
        assert_eq!((&a * 2.0).as_slice(), &[2.0, 4.0]);
        assert_eq!((-&a).as_slice(), &[-1.0, -2.0]);
        let mut c = a.clone();
        c += &b;
        assert_eq!(c.as_slice(), &[4.0, 6.0]);
        c -= &b;
        assert_eq!(c, a);
    }

    #[test]
    fn owned_operator_variants() {
        let a = v(&[1.0]);
        let b = v(&[2.0]);
        assert_eq!((a.clone() + b.clone()).as_slice(), &[3.0]);
        assert_eq!((a.clone() + &b).as_slice(), &[3.0]);
        assert_eq!((a.clone() - b.clone()).as_slice(), &[-1.0]);
        assert_eq!((a * 3.0).as_slice(), &[3.0]);
        assert_eq!((-b).as_slice(), &[-2.0]);
    }

    #[test]
    fn collect_and_extend() {
        let a: Vector = (0..3).map(|i| i as f64).collect();
        assert_eq!(a.as_slice(), &[0.0, 1.0, 2.0]);
        let mut b = a.clone();
        b.extend([3.0, 4.0]);
        assert_eq!(b.len(), 5);
    }

    #[test]
    fn indexing() {
        let mut a = v(&[1.0, 2.0]);
        assert_eq!(a[1], 2.0);
        a[0] = 9.0;
        assert_eq!(a.as_slice(), &[9.0, 2.0]);
    }

    #[test]
    fn iteration_by_ref_and_owned() {
        let a = v(&[1.0, 2.0]);
        let by_ref: f64 = (&a).into_iter().sum();
        let owned: f64 = a.into_iter().sum();
        assert_eq!(by_ref, owned);
    }

    #[test]
    fn debug_nonempty_for_large_vectors() {
        let a = Vector::zeros(100);
        let dbg = format!("{a:?}");
        assert!(dbg.contains("dim=100"));
        assert!(!dbg.is_empty());
    }

    proptest! {
        #[test]
        fn prop_add_commutative(xs in proptest::collection::vec(-1e6..1e6f64, 0..64)) {
            let a = Vector::from(xs.clone());
            let b = Vector::from(xs.iter().map(|x| x * 0.5 - 1.0).collect::<Vec<_>>());
            prop_assert_eq!(&a + &b, &b + &a);
        }

        #[test]
        fn prop_dot_symmetric(xs in proptest::collection::vec(-1e3..1e3f64, 1..64)) {
            let a = Vector::from(xs.clone());
            let b = Vector::from(xs.iter().rev().copied().collect::<Vec<_>>());
            prop_assert!((a.dot(&b) - b.dot(&a)).abs() < 1e-9);
        }

        #[test]
        fn prop_triangle_inequality(
            xs in proptest::collection::vec(-1e3..1e3f64, 1..32),
            ys in proptest::collection::vec(-1e3..1e3f64, 1..32),
        ) {
            let n = xs.len().min(ys.len());
            let a = Vector::from(&xs[..n]);
            let b = Vector::from(&ys[..n]);
            prop_assert!((&a + &b).norm() <= a.norm() + b.norm() + 1e-9);
        }

        #[test]
        fn prop_distance_is_metric(
            xs in proptest::collection::vec(-1e3..1e3f64, 1..32),
        ) {
            let a = Vector::from(xs.clone());
            let b = Vector::from(xs.iter().map(|x| -x).collect::<Vec<_>>());
            prop_assert!((a.distance(&b) - b.distance(&a)).abs() < 1e-9);
            prop_assert!(a.distance(&a) < 1e-12);
            prop_assert!(a.distance(&b) >= 0.0);
        }

        #[test]
        fn prop_axpy_matches_operator(
            xs in proptest::collection::vec(-1e3..1e3f64, 1..32),
            alpha in -10.0..10.0f64,
        ) {
            let a = Vector::from(xs.clone());
            let b = Vector::from(xs.iter().map(|x| x + 1.0).collect::<Vec<_>>());
            let mut via_axpy = a.clone();
            via_axpy.axpy(alpha, &b);
            let via_ops = &a + &b.scaled(alpha);
            for (x, y) in via_axpy.iter().zip(via_ops.iter()) {
                prop_assert!((x - y).abs() < 1e-9);
            }
        }

        #[test]
        fn prop_rescale_hits_target(
            xs in proptest::collection::vec(-1e3..1e3f64, 1..32),
            target in 0.1..100.0f64,
        ) {
            let mut a = Vector::from(xs);
            if a.norm() > 1e-9 {
                a.rescale_to_norm(target);
                prop_assert!((a.norm() - target).abs() / target < 1e-9);
            }
        }
    }
}
