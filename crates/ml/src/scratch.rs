//! Reusable training buffers and the shared batched forward/backward pass.
//!
//! Every model in this crate is a stack of affine layers with ReLU between
//! them, stored as one flat parameter vector laid out `[W₀|b₀|W₁|b₁|…]`.
//! That uniformity lets one pair of crate-private kernels —
//! `forward_batch` and `loss_and_grad_batch` — serve `SoftmaxRegression`, `Mlp` and
//! `MlpStack` alike, computing whole minibatches as GEMMs instead of
//! per-sample `matvec` loops.
//!
//! # Reduction-order policy
//!
//! The batched kernels perform the *exact same floating-point operations in
//! the exact same order* as the per-sample formulation they replace. Each
//! GEMM in `asyncfl_tensor::kernels` is a register-blocked microkernel,
//! runtime-dispatched to the host's vector width, with a per-element order
//! contract: every `gemm_nt` logit is one `dot` (eight lane accumulators
//! and the fixed `reduce` tree), every `gemm_tn_acc` weight-gradient entry
//! gains its per-sample terms in ascending sample order (the order of the
//! old `rank1_update` loop), and every `gemm_nn` backward entry is the
//! ascending `t_matvec` accumulation. Tiling and ISA level change only
//! which outputs share a loaded chunk, never an output's operation
//! sequence. Batched and per-sample gradients therefore agree bit-for-bit
//! at every ISA level, and seeded simulations reproduce byte-identically.

use crate::loss::cross_entropy_grad_in_place;
use asyncfl_tensor::kernels::{add_row_broadcast, axpy, gemm_nn, gemm_nt, gemm_tn_acc, sum_seq};
use asyncfl_tensor::{Matrix, Vector};

/// Reusable buffers for batched training and inference.
///
/// A `TrainScratch` is sized lazily on first use and grows as needed; a
/// client round allocates one and reuses it across every minibatch of every
/// epoch, so the steady-state training loop performs no heap allocation.
///
/// After [`Model::logits_batch_into`](crate::model::Model::logits_batch_into)
/// the logits matrix holds one row of raw class scores per input row. After
/// [`Model::loss_and_grad_batch_into`](crate::model::Model::loss_and_grad_batch_into)
/// all buffer contents are unspecified (the backward pass reuses them as
/// workspace).
#[derive(Debug, Clone, Default)]
pub struct TrainScratch {
    /// Batch logits (`n × num_classes`); consumed as the initial backward
    /// delta by `loss_and_grad_batch`.
    logits: Matrix,
    /// Post-activation hidden outputs, one matrix per hidden layer.
    acts: Vec<Matrix>,
    /// Ping-pong workspace for backward deltas.
    spare: Matrix,
    /// `gemm_nt`'s transposed-weight panel for layers wider than its
    /// stack block; stays empty for narrower models.
    panel: Vec<f64>,
}

impl TrainScratch {
    /// Creates an empty scratch; buffers are sized on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Borrows the logits computed by the most recent
    /// [`Model::logits_batch_into`](crate::model::Model::logits_batch_into)
    /// call (one row per input row).
    pub fn logits(&self) -> &Matrix {
        &self.logits
    }

    /// Mutable access for trait default implementations that fill the
    /// logits row-by-row.
    pub(crate) fn logits_mut(&mut self) -> &mut Matrix {
        &mut self.logits
    }
}

/// Location and shape of one affine layer inside a flat parameter vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct LayerSpec {
    /// Offset of the row-major `out_dim × in_dim` weight block.
    pub w_off: usize,
    /// Offset of the `out_dim` bias block.
    pub b_off: usize,
    /// Input width.
    pub in_dim: usize,
    /// Output width.
    pub out_dim: usize,
}

impl LayerSpec {
    fn w_range(&self) -> std::ops::Range<usize> {
        self.w_off..self.w_off + self.out_dim * self.in_dim
    }

    fn b_range(&self) -> std::ops::Range<usize> {
        self.b_off..self.b_off + self.out_dim
    }
}

/// Builds the layer table for a `[W|b]`-per-layer flat layout:
/// `input_dim → dims[0] → … → dims.last()` (the last entry is the class
/// count, all earlier entries are hidden widths).
///
/// # Panics
///
/// Panics if `dims` is empty.
pub(crate) fn layer_specs(input_dim: usize, dims: &[usize]) -> Vec<LayerSpec> {
    assert!(!dims.is_empty(), "layer_specs: need at least one layer");
    let mut specs = Vec::with_capacity(dims.len());
    let mut at = 0;
    let mut in_dim = input_dim;
    for &out_dim in dims {
        let w_off = at;
        let b_off = at + out_dim * in_dim;
        at = b_off + out_dim;
        specs.push(LayerSpec {
            w_off,
            b_off,
            in_dim,
            out_dim,
        });
        in_dim = out_dim;
    }
    specs
}

/// Total parameter count described by a layer table.
pub(crate) fn total_params(layers: &[LayerSpec]) -> usize {
    layers.last().map_or(0, |l| l.b_off + l.out_dim)
}

/// Batched forward pass: fills `scratch.logits` with one row of raw class
/// scores per row of `x`, and `scratch.acts` with the ReLU'd hidden
/// activations (needed by the backward pass).
///
/// # Panics
///
/// Panics if `x.cols()` does not match the first layer's input width.
pub(crate) fn forward_batch(
    flat: &[f64],
    layers: &[LayerSpec],
    x: &Matrix,
    scratch: &mut TrainScratch,
) {
    let model_in = layers.first().map_or(0, |l| l.in_dim);
    assert_eq!(
        x.cols(),
        model_in,
        "forward_batch: input dim {} does not match model input {model_in}",
        x.cols()
    );
    let n = x.rows();
    let n_hidden = layers.len() - 1;
    scratch.acts.resize(n_hidden, Matrix::default());
    let TrainScratch {
        logits,
        acts,
        panel,
        ..
    } = scratch;
    for (l, spec) in layers.iter().enumerate() {
        let (done, rest) = acts.split_at_mut(l.min(n_hidden));
        #[expect(
            clippy::indexing_slicing,
            reason = "split_at_mut gives `done` exactly l entries here"
        )]
        let input: &Matrix = if l == 0 { x } else { &done[l - 1] };
        let last = l == n_hidden;
        #[expect(
            clippy::indexing_slicing,
            reason = "every non-last layer leaves `rest` nonempty"
        )]
        let out: &mut Matrix = if last { logits } else { &mut rest[0] };
        out.resize(n, spec.out_dim);
        #[expect(
            clippy::indexing_slicing,
            reason = "spec ranges lie inside flat by the total_params layout"
        )]
        gemm_nt(
            out.as_mut_slice(),
            input.as_slice(),
            &flat[spec.w_range()],
            n,
            spec.in_dim,
            spec.out_dim,
            panel,
        );
        #[expect(
            clippy::indexing_slicing,
            reason = "spec ranges lie inside flat by the total_params layout"
        )]
        add_row_broadcast(out.as_mut_slice(), &flat[spec.b_range()]);
        if !last {
            for v in out.as_mut_slice() {
                *v = v.max(0.0);
            }
        }
    }
}

/// Batched loss and gradient: mean cross-entropy over the `n` rows of `x`,
/// with the mean flat gradient written into `grad` (fully overwritten).
///
/// Bit-identical to accumulating the per-sample forward/backward in row
/// order — see the module docs for the reduction-order argument.
///
/// # Panics
///
/// Panics if `x` has no rows, `labels.len() != x.rows()`, or `grad.len()`
/// does not match the layer table's parameter count.
pub(crate) fn loss_and_grad_batch(
    flat: &[f64],
    layers: &[LayerSpec],
    x: &Matrix,
    labels: &[usize],
    scratch: &mut TrainScratch,
    grad: &mut Vector,
) -> f64 {
    let n = x.rows();
    assert!(n > 0, "loss_and_grad: empty batch");
    assert_eq!(
        labels.len(),
        n,
        "loss_and_grad_batch: {} labels for {n} rows",
        labels.len()
    );
    assert_eq!(
        grad.len(),
        total_params(layers),
        "loss_and_grad_batch: grad dim {} does not match {} params",
        grad.len(),
        total_params(layers)
    );
    forward_batch(flat, layers, x, scratch);

    // Fused loss + logit gradient, row by row: logits become dZ. The
    // per-row losses reduce through sum_seq in ascending sample order —
    // bit-identical to the accumulator loop this replaces.
    let logits = &mut scratch.logits;
    let loss = sum_seq(
        labels
            .iter()
            .enumerate()
            .map(|(i, &label)| cross_entropy_grad_in_place(logits.row_mut(i), label)),
    );

    grad.as_mut_slice().fill(0.0);
    // Ping-pong the delta through owned locals so the borrow of
    // `scratch.acts` stays disjoint; buffers are restored at the end.
    let mut delta = std::mem::take(&mut scratch.logits);
    let mut spare = std::mem::take(&mut scratch.spare);
    for (l, spec) in layers.iter().enumerate().rev() {
        #[expect(
            clippy::indexing_slicing,
            reason = "acts holds one matrix per hidden layer; l > 0 here"
        )]
        let input: &[f64] = if l == 0 {
            x.as_slice()
        } else {
            scratch.acts[l - 1].as_slice()
        };
        let g = grad.as_mut_slice();
        // ∂L/∂W += δᵀ · input, accumulated in ascending sample order.
        #[expect(
            clippy::indexing_slicing,
            reason = "spec ranges lie inside grad by the total_params layout"
        )]
        gemm_tn_acc(
            &mut g[spec.w_range()],
            delta.as_slice(),
            input,
            n,
            spec.out_dim,
            spec.in_dim,
        );
        // ∂L/∂b += column sums of δ, in the same sample order.
        #[expect(
            clippy::indexing_slicing,
            reason = "spec ranges lie inside grad by the total_params layout"
        )]
        let gb = &mut g[spec.b_range()];
        for i in 0..n {
            axpy(gb, 1.0, delta.row(i));
        }
        if l > 0 {
            // δ_prev = (δ · W) masked by the previous layer's ReLU.
            spare.resize(n, spec.in_dim);
            #[expect(
                clippy::indexing_slicing,
                reason = "spec ranges lie inside flat by the total_params layout"
            )]
            gemm_nn(
                spare.as_mut_slice(),
                delta.as_slice(),
                &flat[spec.w_range()],
                n,
                spec.out_dim,
                spec.in_dim,
            );
            #[expect(
                clippy::indexing_slicing,
                reason = "acts holds one matrix per hidden layer; l > 0 here"
            )]
            let act = scratch.acts[l - 1].as_slice();
            for (d, &a) in spare.as_mut_slice().iter_mut().zip(act) {
                if a <= 0.0 {
                    *d = 0.0;
                }
            }
            std::mem::swap(&mut delta, &mut spare);
        }
    }
    scratch.logits = delta;
    scratch.spare = spare;

    let inv = 1.0 / n as f64;
    grad.scale(inv);
    loss * inv
}

/// Single-sample forward pass returning raw logits — the per-sample
/// `Model::logits` for flat-layout models.
///
/// # Panics
///
/// Panics if `features.len()` does not match the first layer's input width.
pub(crate) fn logits_one(flat: &[f64], layers: &[LayerSpec], features: &[f64]) -> Vec<f64> {
    let model_in = layers.first().map_or(0, |l| l.in_dim);
    assert_eq!(
        features.len(),
        model_in,
        "logits: feature dim {} does not match model input {model_in}",
        features.len()
    );
    let mut cur: Vec<f64> = Vec::new();
    let mut next: Vec<f64> = Vec::new();
    let mut panel: Vec<f64> = Vec::new();
    for (l, spec) in layers.iter().enumerate() {
        let input: &[f64] = if l == 0 { features } else { &cur };
        next.clear();
        next.resize(spec.out_dim, 0.0);
        #[expect(
            clippy::indexing_slicing,
            reason = "spec ranges lie inside flat by the total_params layout"
        )]
        gemm_nt(
            &mut next,
            input,
            &flat[spec.w_range()],
            1,
            spec.in_dim,
            spec.out_dim,
            &mut panel,
        );
        #[expect(
            clippy::indexing_slicing,
            reason = "spec ranges lie inside flat by the total_params layout"
        )]
        axpy(&mut next, 1.0, &flat[spec.b_range()]);
        if l + 1 < layers.len() {
            for v in &mut next {
                *v = v.max(0.0);
            }
        }
        std::mem::swap(&mut cur, &mut next);
    }
    cur
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layer_specs_lay_out_w_then_b_contiguously() {
        let specs = layer_specs(4, &[3, 2]);
        assert_eq!(specs.len(), 2);
        assert_eq!((specs[0].w_off, specs[0].b_off), (0, 12));
        assert_eq!((specs[0].in_dim, specs[0].out_dim), (4, 3));
        assert_eq!((specs[1].w_off, specs[1].b_off), (15, 21));
        assert_eq!((specs[1].in_dim, specs[1].out_dim), (3, 2));
        assert_eq!(total_params(&specs), 23);
    }

    #[test]
    fn forward_batch_rows_match_logits_one() {
        let specs = layer_specs(3, &[4, 2]);
        let flat: Vec<f64> = (0..total_params(&specs))
            .map(|i| ((i as f64) * 0.37).sin())
            .collect();
        let x = Matrix::from_fn(5, 3, |r, c| ((r * 3 + c) as f64 * 0.21).cos());
        let mut scratch = TrainScratch::new();
        forward_batch(&flat, &specs, &x, &mut scratch);
        for i in 0..5 {
            let single = logits_one(&flat, &specs, x.row(i));
            assert_eq!(scratch.logits().row(i), single.as_slice(), "row {i}");
        }
    }

    #[test]
    #[should_panic(expected = "empty batch")]
    fn empty_batch_panics() {
        let specs = layer_specs(2, &[2]);
        let flat = vec![0.0; total_params(&specs)];
        let mut scratch = TrainScratch::new();
        let mut grad = Vector::zeros(total_params(&specs));
        let _ = loss_and_grad_batch(
            &flat,
            &specs,
            &Matrix::zeros(0, 2),
            &[],
            &mut scratch,
            &mut grad,
        );
    }

    #[test]
    #[should_panic(expected = "grad dim")]
    fn wrong_grad_dim_panics() {
        let specs = layer_specs(2, &[2]);
        let flat = vec![0.0; total_params(&specs)];
        let mut scratch = TrainScratch::new();
        let mut grad = Vector::zeros(1);
        let _ = loss_and_grad_batch(
            &flat,
            &specs,
            &Matrix::zeros(1, 2),
            &[0],
            &mut scratch,
            &mut grad,
        );
    }

    #[test]
    fn scratch_buffers_are_reused_across_calls() {
        let specs = layer_specs(3, &[4, 2]);
        let flat: Vec<f64> = (0..total_params(&specs)).map(|i| i as f64 * 0.01).collect();
        let x = Matrix::from_fn(6, 3, |r, c| (r + c) as f64 * 0.1);
        let labels = [0, 1, 0, 1, 0, 1];
        let mut scratch = TrainScratch::new();
        let mut grad = Vector::zeros(total_params(&specs));
        let l1 = loss_and_grad_batch(&flat, &specs, &x, &labels, &mut scratch, &mut grad);
        let g1 = grad.clone();
        let l2 = loss_and_grad_batch(&flat, &specs, &x, &labels, &mut scratch, &mut grad);
        assert_eq!(l1.to_bits(), l2.to_bits());
        assert_eq!(g1, grad);
    }
}
