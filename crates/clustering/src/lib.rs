//! K-means clustering substrate for the AsyncFilter reproduction.
//!
//! Two consumers drive the requirements:
//!
//! * **AsyncFilter** (paper §4.3) clusters *scalar suspicious scores* with
//!   k = 3 (the "3-means" step) — served by [`one_dim`], an exact
//!   dynamic-programming solver for one-dimensional k-means, so the defense
//!   is deterministic and immune to Lloyd's local minima.
//! * **FLDetector** (Zhang et al., KDD '22) clusters multi-round suspicion
//!   vectors with k = 2 and uses the **gap statistic** to decide whether any
//!   attacker is present at all — served by [`kmeans`] (k-means++ + Lloyd)
//!   and [`diagnostics`].
//!
//! # Example
//!
//! ```
//! use asyncfl_clustering::one_dim::kmeans_1d;
//!
//! let scores = [0.1, 0.12, 0.11, 0.5, 0.52, 0.9];
//! let result = kmeans_1d(&scores, 3);
//! assert_eq!(result.assignments, vec![0, 0, 0, 1, 1, 2]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::allow_attributes,
    clippy::allow_attributes_without_reason
)]

pub mod diagnostics;
pub mod kmeans;
pub mod one_dim;

pub use kmeans::{KMeans, KMeansResult};
pub use one_dim::{kmeans_1d, KMeans1dResult};
