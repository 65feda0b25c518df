//! Asynchronous federated-learning runtime for the AsyncFilter reproduction.
//!
//! The paper runs its evaluation on PLATO: 100 clients on one GPU box,
//! FedBuff-style buffered aggregation (bound Ω = 40), a server staleness
//! limit of 20, Zipf(1.2) client latency and Dirichlet(0.1) data partitions.
//! This crate reproduces that runtime twice (per `DESIGN.md`):
//!
//! * [`runner::Simulation`] — a **deterministic discrete-event simulator**:
//!   virtual clock, a binary-heap event queue ordered by `(time, seq)`,
//!   per-client seeded RNG streams.
//!   Given a seed, runs are bit-reproducible (PLATO's "reproducible mode").
//!   Every table/figure experiment uses this engine.
//! * [`threaded::run_threaded`] — a **thread-per-client engine** built on
//!   std channels and locks, mirroring PLATO's emulation
//!   mode where "500 clients each operate on an individual thread". It
//!   exercises the same traits concurrently; arrival order (and therefore
//!   the result) is scheduler-dependent, which is documented behaviour.
//!
//! Both engines drive the plug-in defense interface from `asyncfl-core`
//! ([`UpdateFilter`](asyncfl_core::UpdateFilter)) and the attack interface
//! from `asyncfl-attacks`.
//!
//! # Example
//!
//! ```
//! use asyncfl_sim::config::SimConfig;
//! use asyncfl_sim::runner::Simulation;
//! use asyncfl_attacks::AttackKind;
//! use asyncfl_core::PassthroughFilter;
//!
//! let config = SimConfig::smoke_test();
//! let mut sim = Simulation::new(config);
//! let result = sim.run(Box::new(PassthroughFilter), AttackKind::None);
//! assert!(result.final_accuracy > 0.3);
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
#![cfg_attr(not(test), warn(clippy::indexing_slicing))]

pub mod config;
pub mod latency;
pub mod metrics;
pub mod pool;
pub mod runner;
mod schedule;
pub mod server;
pub mod spawner;
pub mod threaded;

pub use config::SimConfig;
pub use metrics::{DetectionStats, RunResult};
pub use runner::Simulation;
pub use server::{AggregationReport, BufferedServer};
pub use spawner::{ClientSpawner, ClientState, RngCheckedOut};
