//! Benchmark harness: regenerates every table and figure of the paper's
//! evaluation (§5).
//!
//! The [`experiments`] module defines one entry per paper artifact
//! (Tables 2–10, Figs. 3–4, 6–7) — each pins the exact workload (dataset
//! profile, Dirichlet α, attacker count, Zipf exponent, staleness limit),
//! runs the defenses × attacks grid on the deterministic simulator, and
//! prints the measured table next to the paper's reported numbers.
//!
//! Run everything with:
//!
//! ```text
//! cargo run --release -p asyncfl-bench --bin repro -- all
//! ```
//!
//! or a single artifact: `… -- table5`, `… -- fig7 --quick`, etc.
//!
//! Throughput and per-layer timing live in `perfbench/` (see its README).
//! Allocation bounds on the hot paths are tests in the workspace's
//! `tests/` directory (`hot_path_alloc.rs`, `filter_pass_alloc.rs`,
//! `memory_scale.rs`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod trace;

pub use experiments::{ExperimentId, RunOptions};
pub use trace::TraceHandle;
