//! **AsyncFilter** — the paper's primary contribution — plus the filter
//! plug-in interface and baseline defenses for asynchronous federated
//! learning.
//!
//! AsyncFilter (Kang & Li, MIDDLEWARE '24) is a server-side module that
//! detects and drops poisoned model updates *without any clean server
//! dataset*. Its pipeline (§4.3, Algorithm 1):
//!
//! 1. **Staleness-based grouping** (eq. 4) — updates are grouped by the
//!    staleness τ of the global model they were trained from, because
//!    same-staleness updates cluster around a common center.
//! 2. **Moving-average estimation** (eq. 5) — each group keeps a running
//!    estimate `MA(C_k) ← t/(t+1)·MA(C_k) + 1/(t+1)·ωᵢ`.
//! 3. **Suspicious scores** (eqs. 6–7) — per update, the ℓ2 distance to its
//!    group estimate, normalized across groups.
//! 4. **3-means identification** — exact 1-D 3-means over scores; the
//!    highest cluster is rejected, the lowest accepted, and the middle
//!    deferred "to a later stage" (configurable via
//!    [`MiddlePolicy`](asyncfilter::MiddlePolicy)).
//!
//! # Plug-and-play interface
//!
//! The paper stresses that AsyncFilter drops into any AFL server. That
//! contract is [`UpdateFilter`]: the server hands the filter its buffered
//! [`ClientUpdate`]s and aggregates whatever comes back accepted. The same
//! interface hosts the baselines used in the evaluation (FedBuff
//! passthrough, [`FlDetector`]) and the clean-dataset prior work
//! ([`zeno::ZenoPlusPlus`], [`zeno::AflGuard`]) plus classic Byzantine-robust
//! rules ([`aggregation`]).
//!
//! # Example
//!
//! ```
//! use asyncfl_core::asyncfilter::AsyncFilter;
//! use asyncfl_core::update::{ClientUpdate, FilterContext, UpdateFilter};
//! use asyncfl_tensor::Vector;
//!
//! let mut filter = AsyncFilter::new(Default::default());
//! // Nine tight benign updates and one wild poisoned one, same staleness.
//! let mut updates: Vec<ClientUpdate> = (0..9)
//!     .map(|i| ClientUpdate::new(i, 0, 0, Vector::from(vec![1.0 + 0.01 * i as f64, 0.0]), 10))
//!     .collect();
//! updates.push(ClientUpdate::new(9, 0, 0, Vector::from(vec![-40.0, 9.0]), 10));
//! let global = Vector::zeros(2);
//! let ctx = FilterContext::new(1, &global, 20);
//! let outcome = filter.filter(updates, &ctx);
//! assert!(outcome.rejected.iter().any(|u| u.client == 9));
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

pub mod aggregation;
pub mod asyncfilter;
pub mod fldetector;
pub mod preagg;
pub mod reputation;
pub mod update;
pub mod zeno;

pub use asyncfilter::{AsyncFilter, AsyncFilterConfig};
pub use fldetector::FlDetector;
pub use update::{
    ClientUpdate, FilterContext, FilterOutcome, PassthroughFilter, ScoreRecord, UpdateFilter,
};
