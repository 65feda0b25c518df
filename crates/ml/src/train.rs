//! Local training loops, evaluation and profile-driven factories.
//!
//! [`LocalTrainer`] reproduces what a PLATO client does each communication
//! round: `E` epochs of shuffled minibatch optimization starting from the
//! received (possibly stale) global model.

use crate::model::{Mlp, Model, SoftmaxRegression};
use crate::optimizer::{Adam, Optimizer, Sgd};
use crate::scratch::TrainScratch;
use asyncfl_data::profiles::{DatasetProfile, ModelKind, OptimizerKind};
use asyncfl_data::synthetic::Task;
use asyncfl_data::Dataset;
use asyncfl_rng::Rng;
use asyncfl_tensor::ops::argmax;
use asyncfl_tensor::{Matrix, Vector};

/// Number of test rows batched per forward pass in [`evaluate`].
const EVAL_CHUNK: usize = 256;

/// Copies the samples at `idx` into a reusable feature matrix and label
/// buffer — the gather step of the allocation-free training loop.
fn gather_batch(data: &Dataset, idx: &[usize], x: &mut Matrix, labels: &mut Vec<usize>) {
    x.resize(idx.len(), data.feature_dim());
    labels.clear();
    for (r, &i) in idx.iter().enumerate() {
        #[expect(
            clippy::indexing_slicing,
            reason = "the batch sampler draws indices below samples().len()"
        )]
        let s = &data.samples()[i];
        x.row_mut(r).copy_from_slice(s.features.as_slice());
        labels.push(s.label);
    }
}

/// Statistics from one local training run.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TrainStats {
    /// Mean training loss over the final epoch.
    pub final_loss: f64,
    /// Total optimizer steps taken.
    pub steps: usize,
}

/// Runs `epochs` of shuffled minibatch training, exactly once per call —
/// the body of a federated client's local round.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LocalTrainer {
    epochs: usize,
    batch_size: usize,
    weight_decay: f64,
    grad_clip: Option<f64>,
}

impl LocalTrainer {
    /// Creates a trainer.
    ///
    /// # Panics
    ///
    /// Panics if `epochs == 0` or `batch_size == 0`.
    pub fn new(epochs: usize, batch_size: usize) -> Self {
        assert!(epochs > 0, "LocalTrainer: epochs must be positive");
        assert!(batch_size > 0, "LocalTrainer: batch_size must be positive");
        Self {
            epochs,
            batch_size,
            weight_decay: 0.0,
            grad_clip: None,
        }
    }

    /// Adds L2 weight decay `λ` (the gradient gains `λ·θ` per step).
    ///
    /// # Panics
    ///
    /// Panics if `lambda` is negative or non-finite.
    pub fn with_weight_decay(mut self, lambda: f64) -> Self {
        assert!(
            lambda >= 0.0 && lambda.is_finite(),
            "LocalTrainer: weight decay must be nonnegative, got {lambda}"
        );
        self.weight_decay = lambda;
        self
    }

    /// Clips each minibatch gradient to the given ℓ2 norm before the
    /// optimizer step (a common stabilizer for non-IID local training).
    ///
    /// # Panics
    ///
    /// Panics if `max_norm <= 0` or is non-finite.
    pub fn with_grad_clip(mut self, max_norm: f64) -> Self {
        assert!(
            max_norm > 0.0 && max_norm.is_finite(),
            "LocalTrainer: grad clip must be positive, got {max_norm}"
        );
        self.grad_clip = Some(max_norm);
        self
    }

    /// Builds the trainer prescribed by a dataset profile (local epochs and
    /// batch size from the paper's Table 1).
    pub fn from_profile(profile: &DatasetProfile) -> Self {
        let cfg = profile.training_config();
        Self::new(cfg.local_epochs, cfg.batch_size)
    }

    /// Number of local epochs.
    pub fn epochs(&self) -> usize {
        self.epochs
    }

    /// Minibatch size.
    pub fn batch_size(&self) -> usize {
        self.batch_size
    }

    /// Trains `model` on `data` in place and reports statistics.
    ///
    /// The loop is allocation-free in steady state: one scratch, gradient
    /// vector, feature matrix and label buffer are reused across every
    /// minibatch of every epoch, gradients flow through the batched
    /// [`Model::loss_and_grad_batch_into`] path, and the optimizer steps
    /// the model's flat parameters in place (no per-step
    /// `params`/`set_params` round-trip).
    ///
    /// Skips silently (zero steps) on an empty dataset — a client with no
    /// data simply returns the model it received.
    pub fn train<R: Rng + ?Sized>(
        &self,
        model: &mut dyn Model,
        data: &Dataset,
        optimizer: &mut dyn Optimizer,
        rng: &mut R,
    ) -> TrainStats {
        if data.is_empty() {
            return TrainStats::default();
        }
        let mut scratch = TrainScratch::new();
        let mut grad = Vector::zeros(model.num_params());
        let mut x = Matrix::default();
        let mut labels = Vec::with_capacity(self.batch_size);
        let mut steps = 0;
        let mut final_loss = 0.0;
        for epoch in 0..self.epochs {
            let mut epoch_loss = 0.0;
            let batches = data.minibatches(self.batch_size, rng);
            let n_batches = batches.len();
            for batch_idx in &batches {
                gather_batch(data, batch_idx, &mut x, &mut labels);
                let loss = model.loss_and_grad_batch_into(&x, &labels, &mut scratch, &mut grad);
                if self.weight_decay > 0.0 {
                    grad.axpy(self.weight_decay, model.params_ref());
                }
                if let Some(max_norm) = self.grad_clip {
                    let norm = grad.norm();
                    if norm > max_norm {
                        grad.scale(max_norm / norm);
                    }
                }
                optimizer.step(model.params_mut(), &grad);
                // lint:allow(F3) -- sequential batch-order accumulation; the loop
                // mutates model state per step, so it cannot be an iterator sum
                epoch_loss += loss;
                steps += 1;
            }
            if epoch == self.epochs - 1 {
                final_loss = epoch_loss / n_batches as f64;
            }
        }
        TrainStats { final_loss, steps }
    }
}

/// Test accuracy of `model` on `data` (fraction of correct argmax
/// predictions); `0.0` for an empty dataset.
///
/// Predictions run through the batched
/// [`Model::logits_batch_into`] path in chunks of a few hundred rows, so
/// evaluation performs no per-sample logits allocation.
pub fn evaluate(model: &dyn Model, data: &Dataset) -> f64 {
    if data.is_empty() {
        return 0.0;
    }
    let mut scratch = TrainScratch::new();
    let mut x = Matrix::default();
    let mut correct = 0;
    for chunk in data.samples().chunks(EVAL_CHUNK) {
        x.resize(chunk.len(), data.feature_dim());
        for (r, s) in chunk.iter().enumerate() {
            x.row_mut(r).copy_from_slice(s.features.as_slice());
        }
        model.logits_batch_into(&x, &mut scratch);
        let logits = scratch.logits();
        for (r, s) in chunk.iter().enumerate() {
            if argmax(logits.row(r)).unwrap_or(0) == s.label {
                correct += 1;
            }
        }
    }
    correct as f64 / data.len() as f64
}

/// Instantiates the model a profile prescribes (Table 1's "Model" row,
/// substituted per `DESIGN.md`), sized for `task`.
pub fn build_model<R: Rng + ?Sized>(
    profile: &DatasetProfile,
    task: &Task,
    rng: &mut R,
) -> Box<dyn Model> {
    match profile.training_config().model {
        ModelKind::SoftmaxRegression => Box::new(SoftmaxRegression::new(
            task.feature_dim(),
            task.num_classes(),
            rng,
        )),
        ModelKind::Mlp { hidden } => Box::new(Mlp::new(
            task.feature_dim(),
            hidden,
            task.num_classes(),
            rng,
        )),
    }
}

/// Instantiates the optimizer a profile prescribes (Table 1's
/// "Optimizer/Learning rate/Momentum" rows), with state buffers
/// preallocated for `num_params` parameters so the first `step` performs
/// no allocation.
pub fn build_optimizer(profile: &DatasetProfile, num_params: usize) -> Box<dyn Optimizer> {
    match profile.training_config().optimizer {
        OptimizerKind::Sgd { lr, momentum } => {
            Box::new(Sgd::preallocated(lr, momentum, num_params))
        }
        OptimizerKind::Adam { lr } => Box::new(Adam::preallocated(lr, num_params)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asyncfl_data::partition::Partitioner;
    use asyncfl_rng::rngs::StdRng;
    use asyncfl_rng::SeedableRng;

    #[test]
    fn trainer_accessors_and_profile_construction() {
        let t = LocalTrainer::new(5, 32);
        assert_eq!((t.epochs(), t.batch_size()), (5, 32));
        let t = LocalTrainer::from_profile(&DatasetProfile::Mnist);
        assert_eq!((t.epochs(), t.batch_size()), (5, 32));
        let t = LocalTrainer::from_profile(&DatasetProfile::Cifar10);
        assert_eq!((t.epochs(), t.batch_size()), (5, 64));
    }

    #[test]
    #[should_panic(expected = "epochs")]
    fn zero_epochs_panics() {
        let _ = LocalTrainer::new(0, 32);
    }

    #[test]
    fn empty_dataset_is_a_noop() {
        let mut rng = StdRng::seed_from_u64(0);
        let task = DatasetProfile::Mnist.build_task(&mut rng);
        let mut model = build_model(&DatasetProfile::Mnist, &task, &mut rng);
        let before = model.params();
        let mut opt = build_optimizer(&DatasetProfile::Mnist, model.num_params());
        let stats = LocalTrainer::new(3, 8).train(
            model.as_mut(),
            &Dataset::empty(10),
            opt.as_mut(),
            &mut rng,
        );
        assert_eq!(stats, TrainStats::default());
        assert_eq!(model.params(), before);
        assert_eq!(evaluate(model.as_ref(), &Dataset::empty(10)), 0.0);
    }

    #[test]
    fn training_reaches_high_accuracy_on_mnist_profile() {
        let mut rng = StdRng::seed_from_u64(1);
        let profile = DatasetProfile::Mnist;
        let task = profile.build_task(&mut rng);
        let train_data = task.test_dataset(512, &mut rng);
        let test_data = task.test_dataset(1_000, &mut rng);
        let mut model = build_model(&profile, &task, &mut rng);
        let mut opt = build_optimizer(&profile, model.num_params());
        let trainer = LocalTrainer::from_profile(&profile);
        let stats = trainer.train(model.as_mut(), &train_data, opt.as_mut(), &mut rng);
        assert!(stats.steps >= 5 * (512 / 32));
        let acc = evaluate(model.as_ref(), &test_data);
        assert!(acc > 0.9, "centralized MNIST-profile accuracy {acc}");
    }

    #[test]
    fn mlp_profile_trains_above_chance() {
        let mut rng = StdRng::seed_from_u64(2);
        let profile = DatasetProfile::Cifar10;
        let task = profile.build_task(&mut rng);
        let train_data = task.test_dataset(512, &mut rng);
        let test_data = task.test_dataset(1_000, &mut rng);
        let mut model = build_model(&profile, &task, &mut rng);
        let mut opt = build_optimizer(&profile, model.num_params());
        let trainer = LocalTrainer::new(5, 64);
        trainer.train(model.as_mut(), &train_data, opt.as_mut(), &mut rng);
        let acc = evaluate(model.as_ref(), &test_data);
        assert!(acc > 0.5, "CIFAR-profile accuracy {acc}");
    }

    #[test]
    fn non_iid_client_update_differs_from_iid() {
        // Updates from a one-hot client should diverge more from the start
        // point direction than IID ones — the heterogeneity AsyncFilter must
        // tolerate.
        let mut rng = StdRng::seed_from_u64(3);
        let profile = DatasetProfile::Mnist;
        let task = profile.build_task(&mut rng);
        let start = build_model(&profile, &task, &mut rng);
        let train_once = |data: &Dataset, rng: &mut StdRng| {
            let mut m = start.clone();
            let mut opt = build_optimizer(&profile, m.num_params());
            LocalTrainer::new(2, 32).train(m.as_mut(), data, opt.as_mut(), rng);
            &m.params() - &start.params()
        };
        let iid_data = task.client_dataset(&Partitioner::iid(), 0, 128, &mut rng);
        let noniid_data = task.client_dataset(&Partitioner::dirichlet(0.01), 1, 128, &mut rng);
        let iid_update = train_once(&iid_data, &mut rng);
        let noniid_update = train_once(&noniid_data, &mut rng);
        let ref_update = train_once(
            &task.client_dataset(&Partitioner::iid(), 2, 128, &mut rng),
            &mut rng,
        );
        assert!(noniid_update.distance(&ref_update) > iid_update.distance(&ref_update));
    }

    #[test]
    fn training_is_deterministic_given_seed() {
        let run = |seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            let profile = DatasetProfile::Mnist;
            let task = profile.build_task(&mut rng);
            let data = task.test_dataset(64, &mut rng);
            let mut model = build_model(&profile, &task, &mut rng);
            let mut opt = build_optimizer(&profile, model.num_params());
            LocalTrainer::new(2, 16).train(model.as_mut(), &data, opt.as_mut(), &mut rng);
            model.params()
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }

    #[test]
    fn weight_decay_shrinks_parameters() {
        let mut rng = StdRng::seed_from_u64(9);
        let profile = DatasetProfile::Mnist;
        let task = profile.build_task(&mut rng);
        let data = task.test_dataset(64, &mut rng);
        let run = |decay: f64, rng: &mut StdRng| {
            let mut model = build_model(&profile, &task, &mut StdRng::seed_from_u64(1));
            let mut opt = build_optimizer(&profile, model.num_params());
            let trainer = if decay > 0.0 {
                LocalTrainer::new(3, 16).with_weight_decay(decay)
            } else {
                LocalTrainer::new(3, 16)
            };
            trainer.train(model.as_mut(), &data, opt.as_mut(), rng);
            model.params().norm()
        };
        let plain = run(0.0, &mut StdRng::seed_from_u64(2));
        let decayed = run(0.5, &mut StdRng::seed_from_u64(2));
        assert!(
            decayed < plain,
            "decay did not shrink params: {decayed} vs {plain}"
        );
    }

    #[test]
    fn grad_clip_bounds_update_magnitude() {
        let mut rng = StdRng::seed_from_u64(10);
        let profile = DatasetProfile::Mnist;
        let task = profile.build_task(&mut rng);
        let data = task.test_dataset(32, &mut rng);
        let run = |clip: Option<f64>| {
            let mut model = build_model(&profile, &task, &mut StdRng::seed_from_u64(1));
            let before = model.params();
            let mut opt = build_optimizer(&profile, model.num_params());
            let trainer = match clip {
                Some(c) => LocalTrainer::new(1, 32).with_grad_clip(c),
                None => LocalTrainer::new(1, 32),
            };
            trainer.train(
                model.as_mut(),
                &data,
                opt.as_mut(),
                &mut StdRng::seed_from_u64(3),
            );
            (&model.params() - &before).norm()
        };
        let clipped = run(Some(1e-3));
        let free = run(None);
        assert!(clipped < free, "clip had no effect: {clipped} vs {free}");
    }

    #[test]
    #[should_panic(expected = "weight decay")]
    fn negative_weight_decay_panics() {
        let _ = LocalTrainer::new(1, 1).with_weight_decay(-0.1);
    }

    #[test]
    #[should_panic(expected = "grad clip")]
    fn zero_grad_clip_panics() {
        let _ = LocalTrainer::new(1, 1).with_grad_clip(0.0);
    }

    #[test]
    fn build_optimizer_preallocates_state_before_first_step() {
        // SGD+momentum (MNIST family) and Adam (CIFAR family) must both
        // have their state buffers sized at construction, not lazily on
        // the first step.
        let sgd = build_optimizer(&DatasetProfile::Mnist, 37);
        assert_eq!(sgd.state_dim(), Some(37));
        let adam = build_optimizer(&DatasetProfile::Cifar10, 53);
        assert_eq!(adam.state_dim(), Some(53));
        // Stepping must not resize or replace the preallocated state.
        let mut opt = build_optimizer(&DatasetProfile::Mnist, 4);
        let mut p = Vector::zeros(4);
        opt.step(&mut p, &Vector::from(vec![1.0, 2.0, 3.0, 4.0]));
        assert_eq!(opt.state_dim(), Some(4));
    }

    #[test]
    fn batched_evaluate_matches_per_sample_predict() {
        let mut rng = StdRng::seed_from_u64(21);
        let profile = DatasetProfile::Cifar10;
        let task = profile.build_task(&mut rng);
        let data = task.test_dataset(EVAL_CHUNK + 71, &mut rng);
        let model = build_model(&profile, &task, &mut rng);
        let batched = evaluate(model.as_ref(), &data);
        let per_sample = data
            .iter()
            .filter(|s| model.predict(&s.features) == s.label)
            .count() as f64
            / data.len() as f64;
        assert_eq!(batched, per_sample);
    }

    #[test]
    fn factories_match_profiles() {
        let mut rng = StdRng::seed_from_u64(4);
        let task_m = DatasetProfile::Mnist.build_task(&mut rng);
        let m = build_model(&DatasetProfile::Mnist, &task_m, &mut rng);
        assert_eq!(m.num_params(), 32 * 10 + 10);
        let task_c = DatasetProfile::Cinic10.build_task(&mut rng);
        let c = build_model(&DatasetProfile::Cinic10, &task_c, &mut rng);
        assert_eq!(c.num_params(), 48 * 32 + 32 + 32 * 10 + 10);
        assert_eq!(
            build_optimizer(&DatasetProfile::Mnist, 10).learning_rate(),
            0.05
        );
        assert_eq!(
            build_optimizer(&DatasetProfile::Cifar10, 10).learning_rate(),
            0.003
        );
    }
}
