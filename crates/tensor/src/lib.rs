//! Dense linear-algebra substrate for the AsyncFilter reproduction.
//!
//! The AsyncFilter stack (`asyncfl-core`, `asyncfl-ml`, …) manipulates
//! model parameters and model *updates* as flat dense vectors, and model
//! layers as dense matrices. This crate provides exactly that: a small,
//! dependency-light set of `f64` kernels. Reductions (dot, norms,
//! distances) run through fixed-order chunked loops (the internal
//! `kernels` module) that LLVM auto-vectorizes while staying
//! bit-reproducible run to run.
//!
//! # Overview
//!
//! * [`Vector`] — an owned dense vector with the arithmetic the
//!   federated-learning stack needs (`axpy`, dot products, norms, scaling).
//! * [`Matrix`] — a row-major dense matrix with matrix–vector products and
//!   rank-1 updates, enough to express linear and MLP layers by hand.
//! * [`ops`] — free functions on slices: softmax, log-sum-exp, argmax,
//!   cosine similarity, clipping.
//! * [`kernels`] — the slice-level reduction and GEMM primitives behind
//!   `Vector`/`Matrix`, exported for callers (the ML models) that keep
//!   flat parameter storage and batch whole minibatches as matrix ops.
//! * [`stats`] — summary statistics over collections of vectors
//!   (mean, coordinate-wise median and trimmed mean, variance), used both by
//!   baseline robust aggregators and by test assertions.
//! * [`init`] — random parameter initializers (uniform Xavier/Glorot, He).
//!
//! # Example
//!
//! ```
//! use asyncfl_tensor::{Vector, Matrix};
//!
//! let w = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
//! let x = Vector::from(vec![1.0, 1.0]);
//! let y = w.matvec(&x);
//! assert_eq!(y.as_slice(), &[3.0, 7.0]);
//! ```

// `deny` rather than `forbid`: the one sanctioned exception is the
// `kernels::dispatch` module, whose `#[target_feature]` wrappers need
// `unsafe` calls for the runtime ISA dispatch (see its module docs). It
// carries a scoped `#[expect(unsafe_code)]`; everything else stays
// unsafe-free and any new exception must be argued the same way.
#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::allow_attributes,
    clippy::allow_attributes_without_reason
)]
#![cfg_attr(not(test), warn(clippy::indexing_slicing))]

pub mod init;
pub mod kernels;
pub mod matrix;
pub mod ops;
pub mod stats;
pub mod vector;

pub use matrix::Matrix;
pub use vector::Vector;
