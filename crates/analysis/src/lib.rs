//! Analysis tooling: embeddings for the motivation figures, the multi-seed
//! experiment runner behind every table, and plain-text report emitters.
//!
//! # Modules
//!
//! * [`tsne`] — an exact t-SNE implementation (van der Maaten & Hinton
//!   2008), used to regenerate the paper's Figs. 3–4 (update clouds colored
//!   by staleness, IID vs non-IID).
//! * [`pca`] — principal-component projection, both as the standard t-SNE
//!   preprocessing step and as a cheaper embedding.
//! * [`experiment`] — the grid runner: defenses × attacks × seeds on the
//!   deterministic simulator, optionally fanned out across OS threads with
//!   scoped std threads and an mpsc work queue.
//! * [`report`] — markdown/CSV table formatting shared by the `repro`
//!   binary and `EXPERIMENTS.md`.
//! * [`detection`] — ROC/AUC analysis of suspicious scores.
//! * [`theory`] — empirical estimators for the §4.5 assumption constants.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::allow_attributes,
    clippy::allow_attributes_without_reason
)]

pub mod detection;
pub mod experiment;
pub mod pca;
pub mod report;
pub mod theory;
pub mod tsne;

pub use experiment::{DefenseKind, ExperimentGrid, GridCell, RecordedUpdate, RecordingFilter};
pub use report::Table;
