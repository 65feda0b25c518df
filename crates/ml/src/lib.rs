//! Machine-learning substrate for the AsyncFilter reproduction.
//!
//! The paper trains LeNet-5 / VGG-16 under PyTorch; here (per `DESIGN.md`)
//! the substitutes are a multinomial logistic-regression classifier and a
//! ReLU multi-layer perceptron with hand-derived gradients. What matters for
//! AsyncFilter is that every client performs *E* epochs of minibatch
//! optimization from its (possibly stale) copy of the global model and ships
//! back the resulting parameter vector — exactly what [`train::LocalTrainer`]
//! produces.
//!
//! # Modules
//!
//! * [`loss`] — cross-entropy on softmax logits, plus its gradient
//!   (allocating and fused in-place forms).
//! * [`model`] — the object-safe [`model::Model`] trait and the two
//!   concrete models ([`model::SoftmaxRegression`],
//!   [`model::Mlp`]); parameters live in one flat
//!   [`asyncfl_tensor::Vector`] (borrowable in place) so defenses can
//!   treat updates as plain geometry and optimizers can step without
//!   copying.
//! * [`scratch`] — [`scratch::TrainScratch`] reusable batch buffers and
//!   the shared batched forward/backward kernels behind every model's
//!   `loss_and_grad_batch_into`.
//! * [`optimizer`] — [`optimizer::Sgd`] (with momentum) and
//!   [`optimizer::Adam`], matching the paper's Table 1; state buffers can
//!   be preallocated.
//! * [`train`] — local training loops, evaluation, and the
//!   [`train::build_model`]/[`train::build_optimizer`]
//!   factories that interpret a [`asyncfl_data::DatasetProfile`].
//!
//! # Example
//!
//! ```
//! use asyncfl_data::DatasetProfile;
//! use asyncfl_ml::train::{build_model, build_optimizer, evaluate, LocalTrainer};
//! use asyncfl_rng::{SeedableRng, rngs::StdRng};
//!
//! let mut rng = StdRng::seed_from_u64(0);
//! let profile = DatasetProfile::Mnist;
//! let task = profile.build_task(&mut rng);
//! let data = task.test_dataset(256, &mut rng);
//! let mut model = build_model(&profile, &task, &mut rng);
//! let mut opt = build_optimizer(&profile, model.num_params());
//! let trainer = LocalTrainer::new(2, 32);
//! trainer.train(model.as_mut(), &data, opt.as_mut(), &mut rng);
//! let acc = evaluate(model.as_ref(), &data);
//! assert!(acc > 0.5);
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

pub mod loss;
pub mod model;
pub mod optimizer;
pub mod scratch;
pub mod stack;
pub mod train;

pub use model::{Mlp, Model, SoftmaxRegression};
pub use optimizer::{Adam, Optimizer, Sgd};
pub use scratch::TrainScratch;
pub use stack::MlpStack;
pub use train::LocalTrainer;
