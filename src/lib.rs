//! **asyncfilter** — a Rust reproduction of *AsyncFilter: Detecting
//! Poisoning Attacks in Asynchronous Federated Learning* (Kang & Li,
//! MIDDLEWARE '24).
//!
//! This facade crate re-exports the whole stack under one roof:
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`core`] | `asyncfl-core` | **AsyncFilter** itself, the [`UpdateFilter`](core::UpdateFilter) plug-in trait, FLDetector, Zeno++/AFLGuard, robust aggregation rules |
//! | [`sim`] | `asyncfl-sim` | deterministic discrete-event AFL simulator + thread-per-client runtime |
//! | [`attacks`] | `asyncfl-attacks` | GD, LIE, Min-Max, Min-Sum untargeted poisoning attacks |
//! | [`ml`] | `asyncfl-ml` | models, optimizers, local training |
//! | [`data`] | `asyncfl-data` | synthetic dataset profiles, Dirichlet partitioning, samplers |
//! | [`clustering`] | `asyncfl-clustering` | exact 1-D k-means, k-means++, gap statistic |
//! | [`analysis`] | `asyncfl-analysis` | t-SNE/PCA, experiment grids, report tables |
//! | [`tensor`] | `asyncfl-tensor` | dense vectors/matrices |
//! | [`telemetry`] | `asyncfl-telemetry` | structured event tracing, metrics registry, timing spans |
//!
//! # Quickstart
//!
//! ```
//! use asyncfilter::prelude::*;
//!
//! // A small run: 16 clients, 3 of them malicious, GD attack.
//! let config = SimConfig::smoke_test();
//! let mut sim = Simulation::new(config);
//! let result = sim.run(Box::new(AsyncFilter::default()), AttackKind::Gd);
//! assert!(result.final_accuracy > 0.3);
//! ```
//!
//! See `examples/` for richer scenarios and
//! `cargo run --release -p asyncfl-bench --bin repro -- all` to regenerate
//! every table and figure of the paper.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::allow_attributes,
    clippy::allow_attributes_without_reason
)]

pub use asyncfl_analysis as analysis;
pub use asyncfl_attacks as attacks;
pub use asyncfl_clustering as clustering;
pub use asyncfl_core as core;
pub use asyncfl_data as data;
pub use asyncfl_ml as ml;
pub use asyncfl_sim as sim;
pub use asyncfl_telemetry as telemetry;
pub use asyncfl_tensor as tensor;

/// The most common imports for building and running AFL experiments.
pub mod prelude {
    pub use asyncfl_attacks::{Attack, AttackKind};
    pub use asyncfl_core::aggregation::{Aggregator, MeanAggregator};
    pub use asyncfl_core::asyncfilter::{AsyncFilterConfig, MiddlePolicy};
    pub use asyncfl_core::{
        AsyncFilter, ClientUpdate, FilterContext, FilterOutcome, FlDetector, PassthroughFilter,
        UpdateFilter,
    };
    pub use asyncfl_data::partition::Partitioner;
    pub use asyncfl_data::DatasetProfile;
    pub use asyncfl_sim::config::SimConfig;
    pub use asyncfl_sim::metrics::{DetectionStats, RunResult};
    pub use asyncfl_sim::runner::Simulation;
    pub use asyncfl_sim::server::AggregationReport;
    pub use asyncfl_sim::threaded::run_threaded;
    pub use asyncfl_telemetry::{
        Event, JsonlSink, MemorySink, MetricsRegistry, NullSink, SharedSink, Sink, Span, Verdict,
    };
    pub use asyncfl_tensor::Vector;
}
