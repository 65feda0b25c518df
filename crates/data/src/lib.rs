//! Dataset substrate for the AsyncFilter reproduction.
//!
//! The paper evaluates on MNIST, FashionMNIST, CIFAR-10 and CINIC-10 (images
//! on GPU clusters). Those assets are unavailable here, so — per the
//! substitution policy recorded in `DESIGN.md` — this crate generates
//! *synthetic Gaussian-mixture classification tasks* whose statistical knobs
//! (class separation, label noise, feature dimension) are calibrated so that
//! centralized training lands near each paper dataset's no-attack accuracy.
//! AsyncFilter only ever observes model-update vectors, so any task that
//! produces data-dependent, staleness-dependent updates exercises the same
//! defense code path.
//!
//! # Modules
//!
//! * [`sampling`] — self-contained random samplers (Box–Muller normal,
//!   Marsaglia–Tsang gamma, Dirichlet, finite Zipf, categorical): the same
//!   distributions the paper's PLATO configuration uses for data and system
//!   heterogeneity.
//! * [`dataset`] — [`dataset::Sample`], [`dataset::Dataset`]
//!   and minibatch iteration.
//! * [`synthetic`] — the Gaussian-mixture task generator
//!   ([`synthetic::TaskSpec`], [`synthetic::Task`]).
//! * [`profiles`] — named profiles standing in for the four paper datasets
//!   ([`profiles::DatasetProfile`]), mirroring Table 1.
//! * [`partition`] — IID and Dirichlet(α) non-IID client partitioners.
//!
//! # Example
//!
//! ```
//! use asyncfl_data::profiles::DatasetProfile;
//! use asyncfl_data::partition::Partitioner;
//! use asyncfl_rng::SeedableRng;
//! use asyncfl_rng::rngs::StdRng;
//!
//! let mut rng = StdRng::seed_from_u64(7);
//! let task = DatasetProfile::Mnist.build_task(&mut rng);
//! let part = Partitioner::dirichlet(0.1);
//! let local = task.client_dataset(&part, /*client=*/3, /*size=*/128, &mut rng);
//! assert_eq!(local.len(), 128);
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

pub mod dataset;
pub mod partition;
pub mod profiles;
pub mod sampling;
pub mod synthetic;

pub use dataset::{Dataset, Minibatches, Sample};
pub use profiles::DatasetProfile;
pub use synthetic::{Task, TaskSpec};
