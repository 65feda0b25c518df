//! Cross-entropy loss on softmax logits.

use asyncfl_tensor::ops::{log_softmax, log_sum_exp, softmax};

/// Cross-entropy loss `−log p(label)` for one sample given raw logits.
///
/// # Panics
///
/// Panics if `label >= logits.len()` or `logits` is empty.
///
/// ```
/// use asyncfl_ml::loss::cross_entropy;
/// let l = cross_entropy(&[0.0, 0.0], 0);
/// assert!((l - (2.0f64).ln()).abs() < 1e-12);
/// ```
#[expect(
    clippy::indexing_slicing,
    reason = "label bound asserted at entry; the panic is this function's contract"
)]
pub fn cross_entropy(logits: &[f64], label: usize) -> f64 {
    assert!(
        label < logits.len(),
        "cross_entropy: label {label} out of range for {} logits",
        logits.len()
    );
    -log_softmax(logits)[label]
}

/// Gradient of the cross-entropy loss with respect to the logits:
/// `softmax(logits) − onehot(label)`.
///
/// # Panics
///
/// Panics if `label >= logits.len()`.
pub fn cross_entropy_grad(logits: &[f64], label: usize) -> Vec<f64> {
    assert!(
        label < logits.len(),
        "cross_entropy_grad: label {label} out of range for {} logits",
        logits.len()
    );
    let mut g = softmax(logits);
    #[expect(
        clippy::indexing_slicing,
        reason = "label bound asserted at entry; the panic is this function's contract"
    )]
    let slot = &mut g[label];
    *slot -= 1.0;
    g
}

/// Fused cross-entropy loss and logit-gradient, in place: converts a row
/// of raw logits into `softmax(logits) − onehot(label)` and returns the
/// loss `−log p(label)`.
///
/// This is the allocation-free form of [`cross_entropy`] +
/// [`cross_entropy_grad`] used by the batched training path; it performs
/// the exact same floating-point operations, so the two formulations agree
/// bit-for-bit.
///
/// # Panics
///
/// Panics if `label >= logits.len()`.
pub fn cross_entropy_grad_in_place(logits: &mut [f64], label: usize) -> f64 {
    assert!(
        label < logits.len(),
        "cross_entropy_grad_in_place: label {label} out of range for {} logits",
        logits.len()
    );
    let lse = log_sum_exp(logits);
    #[expect(
        clippy::indexing_slicing,
        reason = "label bound asserted at entry; the panic is this function's contract"
    )]
    let loss = -(logits[label] - lse);
    for x in logits.iter_mut() {
        *x = (*x - lse).exp();
    }
    #[expect(
        clippy::indexing_slicing,
        reason = "label bound asserted at entry; the panic is this function's contract"
    )]
    let slot = &mut logits[label];
    *slot -= 1.0;
    loss
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn uniform_logits_loss_is_log_k() {
        let k = 10;
        let logits = vec![0.0; k];
        assert!((cross_entropy(&logits, 3) - (k as f64).ln()).abs() < 1e-12);
    }

    #[test]
    fn confident_correct_prediction_has_low_loss() {
        let mut logits = vec![0.0; 4];
        logits[2] = 20.0;
        assert!(cross_entropy(&logits, 2) < 1e-6);
        assert!(cross_entropy(&logits, 0) > 10.0);
    }

    #[test]
    fn grad_sums_to_zero() {
        let g = cross_entropy_grad(&[1.0, -2.0, 0.5], 1);
        assert!(g.iter().sum::<f64>().abs() < 1e-12);
        assert!(g[1] < 0.0);
        assert!(g[0] > 0.0 && g[2] > 0.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_label_panics() {
        let _ = cross_entropy(&[0.0, 0.0], 2);
    }

    #[test]
    fn grad_matches_finite_differences() {
        let logits = [0.3, -1.2, 0.8, 0.0];
        let label = 2;
        let g = cross_entropy_grad(&logits, label);
        let eps = 1e-6;
        for i in 0..logits.len() {
            let mut plus = logits;
            plus[i] += eps;
            let mut minus = logits;
            minus[i] -= eps;
            let numeric =
                (cross_entropy(&plus, label) - cross_entropy(&minus, label)) / (2.0 * eps);
            assert!(
                (numeric - g[i]).abs() < 1e-6,
                "dim {i}: numeric {numeric} analytic {}",
                g[i]
            );
        }
    }

    #[test]
    fn in_place_form_is_bit_identical_to_allocating_form() {
        let logits = [0.3, -1.2, 0.8, 0.0, 5.5];
        for label in 0..logits.len() {
            let loss = cross_entropy(&logits, label);
            let grad = cross_entropy_grad(&logits, label);
            let mut row = logits;
            let fused_loss = cross_entropy_grad_in_place(&mut row, label);
            assert_eq!(fused_loss.to_bits(), loss.to_bits(), "loss label {label}");
            for (a, b) in row.iter().zip(&grad) {
                assert_eq!(a.to_bits(), b.to_bits(), "grad label {label}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn in_place_bad_label_panics() {
        let mut row = [0.0, 0.0];
        let _ = cross_entropy_grad_in_place(&mut row, 2);
    }

    proptest! {
        #[test]
        fn prop_loss_nonnegative(
            logits in proptest::collection::vec(-20.0..20.0f64, 2..12),
            label_seed in 0usize..100,
        ) {
            let label = label_seed % logits.len();
            prop_assert!(cross_entropy(&logits, label) >= 0.0);
        }

        #[test]
        fn prop_grad_bounded_by_one(
            logits in proptest::collection::vec(-20.0..20.0f64, 2..12),
            label_seed in 0usize..100,
        ) {
            let label = label_seed % logits.len();
            let g = cross_entropy_grad(&logits, label);
            prop_assert!(g.iter().all(|x| x.abs() <= 1.0 + 1e-12));
        }
    }
}
