//! Untargeted model-poisoning attacks (paper §2.2).
//!
//! The four attacks evaluated by the paper, implemented against the same
//! threat model (§3.1): the attacker controls a set of malicious clients,
//! observes those clients' data, honest updates, the loss function and
//! learning rate — but not the server or benign clients' updates.
//!
//! All attacks operate on *model-update deltas* (`δᵢ = ωᵢ − ω_stale`): the
//! attacker computes the honest deltas its colluding clients would have sent
//! and replaces them with crafted ones.
//!
//! * [`GradientDeviationAttack`] — "GD" (Fang et al., USENIX Sec '20):
//!   reverses each honest delta so aggregation moves the global model
//!   *against* the gradient direction.
//! * [`LittleIsEnoughAttack`] — "LIE" (Baruch et al., NeurIPS '19): shifts
//!   the colluding mean by `z · σ` per coordinate, with `z` from the
//!   attack's supporter-count formula.
//! * [`MinMaxAttack`] / [`MinSumAttack`] (Shejwalkar & Houmansadr,
//!   NDSS '21): scale a perturbation direction by the largest γ that keeps
//!   the malicious delta within the benign spread (max-distance or
//!   sum-of-squared-distances bound), found by the paper's halving search.
//! * [`NoAttack`] — the identity, for "No attack" table columns.
//!
//! Beyond the paper's four, the extension suite adds
//! [`InnerProductManipulationAttack`] (Xie et al., UAI '20) and
//! [`AdaptiveStealthAttack`] — an attacker that knows AsyncFilter's
//! distance-score rule and budgets its deviation to hide inside the benign
//! spread (the "adaptive strategies" of the paper's defense goal §3.2).
//!
//! # Example
//!
//! ```
//! use asyncfl_attacks::{Attack, GradientDeviationAttack};
//! use asyncfl_tensor::Vector;
//! use asyncfl_rng::{SeedableRng, rngs::StdRng};
//!
//! let honest = vec![Vector::from(vec![1.0, -2.0])];
//! let mut rng = StdRng::seed_from_u64(0);
//! let crafted = GradientDeviationAttack::default().craft_all(&honest, &mut rng);
//! assert_eq!(crafted[0].as_slice(), &[-1.0, 2.0]);
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

pub mod adaptive;
pub mod gd;
pub mod ipm;
pub mod lie;
pub mod minmax;
pub mod quantile;
pub mod traits;

pub use adaptive::AdaptiveStealthAttack;
pub use gd::GradientDeviationAttack;
pub use ipm::InnerProductManipulationAttack;
pub use lie::LittleIsEnoughAttack;
pub use minmax::{MinMaxAttack, MinSumAttack, PerturbationDirection};
pub use traits::{Attack, AttackKind, NoAttack};
