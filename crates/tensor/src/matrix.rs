//! Row-major dense `f64` matrices.
//!
//! [`Matrix`] covers what the ML substrate needs: matrix–vector and
//! matrix–matrix products (batched forward pass), transposed products
//! (backward pass) and rank-1 accumulation (gradient of a linear layer).
//! All products route through the fixed-reduction-order
//! [`crate::kernels`], so batched and per-sample formulations of the same
//! arithmetic agree bit-for-bit.

use crate::Vector;
use std::fmt;

/// A row-major dense matrix of `f64` entries.
///
/// # Example
///
/// ```
/// use asyncfl_tensor::{Matrix, Vector};
///
/// let m = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 2.0]]);
/// let y = m.matvec(&Vector::from(vec![3.0, 4.0]));
/// assert_eq!(y.as_slice(), &[3.0, 8.0]);
/// ```
#[derive(Clone, PartialEq, Default)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows × cols` zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix from a row-major data buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "from_vec: buffer length {} does not match {rows}x{cols}",
            data.len()
        );
        Self { rows, cols, data }
    }

    /// Creates a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows have unequal lengths.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        let nrows = rows.len();
        let ncols = rows.first().map_or(0, |r| r.len());
        let mut data = Vec::with_capacity(nrows * ncols);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(
                row.len(),
                ncols,
                "from_rows: row {i} has length {}, expected {ncols}",
                row.len()
            );
            data.extend_from_slice(row);
        }
        Self {
            rows: nrows,
            cols: ncols,
            data,
        }
    }

    /// Creates a matrix by evaluating `f(row, col)` at each entry.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self { rows, cols, data }
    }

    /// Identity matrix of size `n × n`.
    pub fn identity(n: usize) -> Self {
        Self::from_fn(n, n, |r, c| if r == c { 1.0 } else { 0.0 })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total number of entries.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` if the matrix has no entries.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrows the row-major storage.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Borrows the row-major storage mutably.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Entry at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[expect(
        clippy::indexing_slicing,
        reason = "bounds asserted at entry; the panic is this accessor's contract"
    )]
    pub fn get(&self, row: usize, col: usize) -> f64 {
        assert!(
            row < self.rows && col < self.cols,
            "get: index ({row},{col}) out of bounds for {}x{}",
            self.rows,
            self.cols
        );
        self.data[row * self.cols + col]
    }

    /// Sets the entry at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[expect(
        clippy::indexing_slicing,
        reason = "bounds asserted at entry; the panic is this accessor's contract"
    )]
    pub fn set(&mut self, row: usize, col: usize, value: f64) {
        assert!(
            row < self.rows && col < self.cols,
            "set: index ({row},{col}) out of bounds for {}x{}",
            self.rows,
            self.cols
        );
        self.data[row * self.cols + col] = value;
    }

    /// Borrows row `row` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of bounds.
    #[expect(
        clippy::indexing_slicing,
        reason = "row < rows asserted at entry; the panic is this accessor's contract"
    )]
    pub fn row(&self, row: usize) -> &[f64] {
        assert!(row < self.rows, "row: {row} out of bounds ({})", self.rows);
        &self.data[row * self.cols..(row + 1) * self.cols]
    }

    /// Borrows row `row` mutably.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of bounds.
    #[expect(
        clippy::indexing_slicing,
        reason = "row < rows asserted at entry; the panic is this accessor's contract"
    )]
    pub fn row_mut(&mut self, row: usize) -> &mut [f64] {
        assert!(
            row < self.rows,
            "row_mut: {row} out of bounds ({})",
            self.rows
        );
        &mut self.data[row * self.cols..(row + 1) * self.cols]
    }

    /// Matrix–vector product `self * x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()`.
    pub fn matvec(&self, x: &Vector) -> Vector {
        assert_eq!(
            x.len(),
            self.cols,
            "matvec: vector dim {} does not match cols {}",
            x.len(),
            self.cols
        );
        // One `dot` per row: exactly `gemm_nt`'s per-output contract,
        // without packing a one-column panel.
        Vector::from_fn(self.rows, |r| {
            crate::kernels::dot(self.row(r), x.as_slice())
        })
    }

    /// Matrix–matrix product `self * other` (`m×k · k×n → m×n`).
    ///
    /// # Panics
    ///
    /// Panics if `other.rows() != self.cols()`.
    pub fn matmul(&self, other: &Self) -> Self {
        assert_eq!(
            other.rows, self.cols,
            "matmul: {}x{} · {}x{} shape mismatch",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Self::zeros(self.rows, other.cols);
        crate::kernels::gemm_nn(
            &mut out.data,
            &self.data,
            &other.data,
            self.rows,
            self.cols,
            other.cols,
        );
        out
    }

    /// Transposed product `selfᵀ * other` (`m×k`ᵀ `· m×n → k×n`) without
    /// materializing the transpose.
    ///
    /// # Panics
    ///
    /// Panics if `other.rows() != self.rows()`.
    pub fn t_matmul(&self, other: &Self) -> Self {
        assert_eq!(
            other.rows, self.rows,
            "t_matmul: {}x{}ᵀ · {}x{} shape mismatch",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Self::zeros(self.cols, other.cols);
        crate::kernels::gemm_tn_acc(
            &mut out.data,
            &self.data,
            &other.data,
            self.rows,
            self.cols,
            other.cols,
        );
        out
    }

    /// Product with a transposed right factor `self * otherᵀ`
    /// (`m×k · n×k`ᵀ `→ m×n`) without materializing the transpose — the
    /// cache-friendly orientation for row-major weights (`X · Wᵀ` is the
    /// batched forward pass of a linear layer).
    ///
    /// # Panics
    ///
    /// Panics if `other.cols() != self.cols()`.
    pub fn matmul_nt(&self, other: &Self) -> Self {
        assert_eq!(
            other.cols, self.cols,
            "matmul_nt: {}x{} · ({}x{})ᵀ shape mismatch",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Self::zeros(self.rows, other.rows);
        crate::kernels::gemm_nt(
            &mut out.data,
            &self.data,
            &other.data,
            self.rows,
            self.cols,
            other.rows,
            &mut Vec::new(),
        );
        out
    }

    /// Adds `bias` to every row in place (the broadcast `+ b` of a batched
    /// affine layer).
    ///
    /// # Panics
    ///
    /// Panics if `bias.len() != self.cols()`.
    pub fn add_row_broadcast(&mut self, bias: &Vector) {
        assert_eq!(
            bias.len(),
            self.cols,
            "add_row_broadcast: bias dim {} does not match cols {}",
            bias.len(),
            self.cols
        );
        crate::kernels::add_row_broadcast(&mut self.data, bias.as_slice());
    }

    /// Reshapes the matrix to `rows × cols`, reusing the existing
    /// allocation when capacity allows. Entries are unspecified afterwards
    /// (a mix of old values and zeros) — callers overwrite them.
    pub fn resize(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.resize(rows * cols, 0.0);
    }

    /// Transposed matrix–vector product `selfᵀ * y`.
    ///
    /// Used for the backward pass of linear layers.
    ///
    /// # Panics
    ///
    /// Panics if `y.len() != self.rows()`.
    pub fn t_matvec(&self, y: &Vector) -> Vector {
        assert_eq!(
            y.len(),
            self.rows,
            "t_matvec: vector dim {} does not match rows {}",
            y.len(),
            self.rows
        );
        let mut out = Vector::zeros(self.cols);
        crate::kernels::gemm_tn_acc(
            out.as_mut_slice(),
            y.as_slice(),
            &self.data,
            self.rows,
            1,
            self.cols,
        );
        out
    }

    /// Rank-1 update `self += alpha * y xᵀ` where `y` has `rows` entries and
    /// `x` has `cols` entries.
    ///
    /// This is the gradient accumulation step of a linear layer:
    /// `∂L/∂W += δ · inputᵀ`.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn rank1_update(&mut self, alpha: f64, y: &Vector, x: &Vector) {
        assert_eq!(
            y.len(),
            self.rows,
            "rank1_update: y dim {} does not match rows {}",
            y.len(),
            self.rows
        );
        assert_eq!(
            x.len(),
            self.cols,
            "rank1_update: x dim {} does not match cols {}",
            x.len(),
            self.cols
        );
        for (row, &yr) in self.data.chunks_exact_mut(self.cols).zip(y.iter()) {
            crate::kernels::axpy(row, alpha * yr, x.as_slice());
        }
    }

    /// In-place scaled addition `self += alpha * other`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn axpy(&mut self, alpha: f64, other: &Self) {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "axpy: shape mismatch"
        );
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
    }

    /// In-place scaling `self *= alpha`.
    pub fn scale(&mut self, alpha: f64) {
        for a in &mut self.data {
            *a *= alpha;
        }
    }

    /// Transposed copy.
    pub fn transposed(&self) -> Self {
        Self::from_fn(self.cols, self.rows, |r, c| self.get(c, r))
    }

    /// Frobenius norm (ℓ2 norm of the flattened entries).
    pub fn frobenius_norm(&self) -> f64 {
        crate::kernels::sum_seq(self.data.iter().map(|x| x * x)).sqrt()
    }

    /// Flattens the matrix into a [`Vector`] in row-major order.
    pub fn to_vector(&self) -> Vector {
        Vector::from(self.data.clone())
    }

    /// Overwrites the entries from a row-major slice.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn copy_from_slice(&mut self, data: &[f64]) {
        assert_eq!(
            data.len(),
            self.data.len(),
            "copy_from_slice: buffer length mismatch"
        );
        self.data.copy_from_slice(data);
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Matrix({}x{}, fro={:.4})",
            self.rows,
            self.cols,
            self.frobenius_norm()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn constructors() {
        let z = Matrix::zeros(2, 3);
        assert_eq!((z.rows(), z.cols(), z.len()), (2, 3, 6));
        assert!(!z.is_empty());
        assert!(Matrix::zeros(0, 0).is_empty());

        let m = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(m.get(1, 0), 3.0);

        let f = Matrix::from_fn(2, 2, |r, c| (r * 10 + c) as f64);
        assert_eq!(f.get(1, 1), 11.0);

        let i = Matrix::identity(3);
        assert_eq!(i.get(2, 2), 1.0);
        assert_eq!(i.get(0, 2), 0.0);
    }

    #[test]
    #[should_panic(expected = "buffer length")]
    fn from_vec_wrong_len_panics() {
        let _ = Matrix::from_vec(2, 2, vec![1.0]);
    }

    #[test]
    #[should_panic(expected = "row 1")]
    fn from_rows_ragged_panics() {
        let _ = Matrix::from_rows(&[&[1.0, 2.0], &[1.0]]);
    }

    #[test]
    fn get_set_row() {
        let mut m = Matrix::zeros(2, 2);
        m.set(0, 1, 5.0);
        assert_eq!(m.get(0, 1), 5.0);
        assert_eq!(m.row(0), &[0.0, 5.0]);
        m.row_mut(1)[0] = 7.0;
        assert_eq!(m.get(1, 0), 7.0);
    }

    #[test]
    fn matvec_identity_is_noop() {
        let i = Matrix::identity(3);
        let x = Vector::from(vec![1.0, -2.0, 3.0]);
        assert_eq!(i.matvec(&x), x);
    }

    #[test]
    fn t_matvec_matches_transpose() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let y = Vector::from(vec![1.0, 2.0]);
        let via_t = m.t_matvec(&y);
        let via_transposed = m.transposed().matvec(&y);
        assert_eq!(via_t, via_transposed);
        assert_eq!(via_t.as_slice(), &[9.0, 12.0, 15.0]);
    }

    #[test]
    fn rank1_update_outer_product() {
        let mut m = Matrix::zeros(2, 3);
        let y = Vector::from(vec![1.0, 2.0]);
        let x = Vector::from(vec![1.0, 0.0, -1.0]);
        m.rank1_update(2.0, &y, &x);
        assert_eq!(m.row(0), &[2.0, 0.0, -2.0]);
        assert_eq!(m.row(1), &[4.0, 0.0, -4.0]);
    }

    #[test]
    fn axpy_and_scale() {
        let mut a = Matrix::identity(2);
        let b = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        a.axpy(2.0, &b);
        assert_eq!(a.get(0, 1), 2.0);
        a.scale(0.5);
        assert_eq!(a.get(0, 0), 0.5);
    }

    #[test]
    fn frobenius_norm_matches_flat_norm() {
        let m = Matrix::from_rows(&[&[3.0], &[4.0]]);
        assert!((m.frobenius_norm() - 5.0).abs() < 1e-12);
        assert!((m.to_vector().norm() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(m.matmul(&Matrix::identity(3)), m);
        assert_eq!(Matrix::identity(2).matmul(&m), m);
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn t_matmul_matches_explicit_transpose() {
        let a = Matrix::from_rows(&[&[1.0, -2.0, 0.5], &[3.0, 4.0, -1.0]]);
        let b = Matrix::from_rows(&[&[2.0, 1.0], &[0.0, -3.0]]);
        assert_eq!(a.t_matmul(&b), a.transposed().matmul(&b));
    }

    #[test]
    fn matmul_nt_matches_explicit_transpose() {
        let a = Matrix::from_rows(&[&[1.0, -2.0, 0.5], &[3.0, 4.0, -1.0]]);
        let b = Matrix::from_rows(&[&[2.0, 0.0, 1.0], &[1.0, -3.0, 2.0]]);
        assert_eq!(a.matmul_nt(&b), a.matmul(&b.transposed()));
    }

    #[test]
    fn matmul_nt_columns_match_matvec() {
        // Batched forward pass contract: row i of X·Wᵀ equals W·xᵢ exactly.
        let w = Matrix::from_fn(3, 5, |r, c| ((r * 5 + c) as f64 * 0.31).sin());
        let x = Matrix::from_fn(4, 5, |r, c| ((r * 5 + c) as f64 * 0.17).cos());
        let z = x.matmul_nt(&w);
        for i in 0..4 {
            let xi = Vector::from(x.row(i).to_vec());
            let zi = w.matvec(&xi);
            assert_eq!(z.row(i), zi.as_slice(), "row {i}");
        }
    }

    #[test]
    fn add_row_broadcast_adds_bias_per_row() {
        let mut m = Matrix::zeros(2, 3);
        m.add_row_broadcast(&Vector::from(vec![1.0, 2.0, 3.0]));
        assert_eq!(m.as_slice(), &[1.0, 2.0, 3.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn resize_changes_shape_and_reuses_storage() {
        let mut m = Matrix::zeros(4, 4);
        m.resize(2, 3);
        assert_eq!((m.rows(), m.cols(), m.len()), (2, 3, 6));
        m.resize(5, 2);
        assert_eq!((m.rows(), m.cols(), m.len()), (5, 2, 10));
    }

    #[test]
    #[should_panic(expected = "matmul")]
    fn matmul_shape_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    #[should_panic(expected = "t_matmul")]
    fn t_matmul_shape_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(3, 2);
        let _ = a.t_matmul(&b);
    }

    #[test]
    #[should_panic(expected = "add_row_broadcast")]
    fn add_row_broadcast_shape_mismatch_panics() {
        let mut m = Matrix::zeros(2, 3);
        m.add_row_broadcast(&Vector::zeros(2));
    }

    #[test]
    fn copy_from_slice_roundtrip() {
        let mut m = Matrix::zeros(2, 2);
        m.copy_from_slice(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(m.as_slice(), &[1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn debug_is_nonempty() {
        assert!(!format!("{:?}", Matrix::zeros(1, 1)).is_empty());
    }

    proptest! {
        #[test]
        fn prop_matvec_linearity(
            entries in proptest::collection::vec(-100.0..100.0f64, 12),
            xs in proptest::collection::vec(-100.0..100.0f64, 4),
            alpha in -5.0..5.0f64,
        ) {
            let m = Matrix::from_vec(3, 4, entries);
            let x = Vector::from(xs);
            let lhs = m.matvec(&x.scaled(alpha));
            let rhs = m.matvec(&x).scaled(alpha);
            for (a, b) in lhs.iter().zip(rhs.iter()) {
                prop_assert!((a - b).abs() < 1e-6);
            }
        }

        #[test]
        fn prop_transpose_involution(
            entries in proptest::collection::vec(-100.0..100.0f64, 12),
        ) {
            let m = Matrix::from_vec(3, 4, entries);
            prop_assert_eq!(m.transposed().transposed(), m);
        }

        #[test]
        fn prop_matmul_associates_with_matvec(
            a_entries in proptest::collection::vec(-10.0..10.0f64, 6),
            b_entries in proptest::collection::vec(-10.0..10.0f64, 12),
            xs in proptest::collection::vec(-10.0..10.0f64, 4),
        ) {
            // (A·B)·x == A·(B·x) up to rounding.
            let a = Matrix::from_vec(2, 3, a_entries);
            let b = Matrix::from_vec(3, 4, b_entries);
            let x = Vector::from(xs);
            let lhs = a.matmul(&b).matvec(&x);
            let rhs = a.matvec(&b.matvec(&x));
            for (l, r) in lhs.iter().zip(rhs.iter()) {
                prop_assert!((l - r).abs() < 1e-9);
            }
        }

        #[test]
        fn prop_t_matvec_adjoint_identity(
            entries in proptest::collection::vec(-10.0..10.0f64, 12),
            xs in proptest::collection::vec(-10.0..10.0f64, 4),
            ys in proptest::collection::vec(-10.0..10.0f64, 3),
        ) {
            // <Ax, y> == <x, A^T y>
            let m = Matrix::from_vec(3, 4, entries);
            let x = Vector::from(xs);
            let y = Vector::from(ys);
            let lhs = m.matvec(&x).dot(&y);
            let rhs = x.dot(&m.t_matvec(&y));
            prop_assert!((lhs - rhs).abs() < 1e-6);
        }
    }
}
