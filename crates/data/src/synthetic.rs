//! Synthetic Gaussian-mixture classification tasks.
//!
//! Each task places one Gaussian per class in feature space. Three knobs
//! control difficulty and, therefore, where a trained model's accuracy
//! plateaus:
//!
//! * `class_separation` — distance between class means; lower ⇒ more class
//!   overlap ⇒ lower Bayes-optimal accuracy (how we emulate CIFAR-10/CINIC-10
//!   being harder than MNIST);
//! * `within_class_std` — spread of each class cloud;
//! * `label_noise` — probability a sample's recorded label is re-drawn
//!   uniformly from the *other* classes, capping achievable accuracy the way
//!   CINIC-10's noisy ImageNet additions do.
//!
//! The federated dimension comes from [`Task::client_dataset`]: every client
//! samples its local data from the *same* mixture but with its own label
//! distribution (IID or Dirichlet non-IID), reproducing the paper's
//! "sample local data partition following the Dirichlet distribution" setup.

use crate::dataset::{Dataset, Sample};
use crate::partition::Partitioner;
use crate::sampling::{categorical, standard_normal};
use asyncfl_rng::rngs::StdRng;
use asyncfl_rng::{Rng, RngExt};
use asyncfl_tensor::Vector;

/// How class means are placed in feature space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum MeanStructure {
    /// Class `k`'s mean is `separation · e_k` (scaled standard basis vector).
    /// Requires `feature_dim >= num_classes`; gives exactly equidistant
    /// classes (`‖μ_i − μ_j‖ = √2 · separation`).
    #[default]
    ScaledBasis,
    /// Class means are `separation · u_k` for random unit vectors `u_k`;
    /// nearly orthogonal in high dimension but with pairwise variation,
    /// which makes some class pairs harder than others (more CIFAR-like).
    RandomUnit,
}

/// Specification of a synthetic classification task.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskSpec {
    /// Feature-space dimension.
    pub feature_dim: usize,
    /// Number of classes (the paper's datasets all have 10).
    pub num_classes: usize,
    /// Distance scale between class means.
    pub class_separation: f64,
    /// Standard deviation of each class cloud.
    pub within_class_std: f64,
    /// Probability that a sample's label is re-drawn uniformly among the
    /// other classes.
    pub label_noise: f64,
    /// Placement of class means.
    pub mean_structure: MeanStructure,
}

impl TaskSpec {
    /// Validates the specification.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.num_classes < 2 {
            return Err(format!(
                "num_classes must be >= 2, got {}",
                self.num_classes
            ));
        }
        if self.feature_dim == 0 {
            return Err("feature_dim must be positive".into());
        }
        if self.mean_structure == MeanStructure::ScaledBasis && self.feature_dim < self.num_classes
        {
            return Err(format!(
                "ScaledBasis requires feature_dim ({}) >= num_classes ({})",
                self.feature_dim, self.num_classes
            ));
        }
        if !(self.class_separation > 0.0 && self.class_separation.is_finite()) {
            return Err(format!(
                "class_separation must be positive, got {}",
                self.class_separation
            ));
        }
        if !(self.within_class_std > 0.0 && self.within_class_std.is_finite()) {
            return Err(format!(
                "within_class_std must be positive, got {}",
                self.within_class_std
            ));
        }
        if !(0.0..1.0).contains(&self.label_noise) {
            return Err(format!(
                "label_noise must be in [0, 1), got {}",
                self.label_noise
            ));
        }
        Ok(())
    }
}

impl Default for TaskSpec {
    /// A 10-class, 32-dimensional task with MNIST-like separability.
    fn default() -> Self {
        Self {
            feature_dim: 32,
            num_classes: 10,
            class_separation: 3.0,
            within_class_std: 1.0,
            label_noise: 0.0,
            mean_structure: MeanStructure::ScaledBasis,
        }
    }
}

/// An instantiated synthetic task: a [`TaskSpec`] plus concrete class means.
///
/// All clients of a federated run share one `Task` (the "dataset"); they
/// differ only in their label distributions and RNG streams.
#[derive(Debug, Clone, PartialEq)]
pub struct Task {
    spec: TaskSpec,
    class_means: Vec<Vector>,
}

impl Task {
    /// Instantiates a task, sampling class means as dictated by
    /// `spec.mean_structure`.
    ///
    /// # Panics
    ///
    /// Panics if `spec.validate()` fails; call it first for a recoverable
    /// check.
    #[expect(
        clippy::panic,
        reason = "documented constructor contract; validate() is the recoverable path"
    )]
    pub fn new<R: Rng + ?Sized>(spec: TaskSpec, rng: &mut R) -> Self {
        if let Err(e) = spec.validate() {
            panic!("invalid TaskSpec: {e}");
        }
        let class_means = match spec.mean_structure {
            MeanStructure::ScaledBasis => (0..spec.num_classes)
                .map(|k| {
                    Vector::from_fn(spec.feature_dim, |i| {
                        if i == k {
                            spec.class_separation
                        } else {
                            0.0
                        }
                    })
                })
                .collect(),
            MeanStructure::RandomUnit => (0..spec.num_classes)
                .map(|_| {
                    let mut v = Vector::from_fn(spec.feature_dim, |_| standard_normal(rng));
                    v.rescale_to_norm(spec.class_separation);
                    v
                })
                .collect(),
        };
        Self { spec, class_means }
    }

    /// The task specification.
    pub fn spec(&self) -> &TaskSpec {
        &self.spec
    }

    /// The class means.
    pub fn class_means(&self) -> &[Vector] {
        &self.class_means
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.spec.num_classes
    }

    /// Feature dimension.
    pub fn feature_dim(&self) -> usize {
        self.spec.feature_dim
    }

    /// Draws one sample of true class `class`, applying label noise to the
    /// *recorded* label. Its draws are counted, not made, by
    /// [`skip_client_dataset`](Self::skip_client_dataset): change both.
    ///
    /// # Panics
    ///
    /// Panics if `class >= num_classes`.
    pub fn sample_class<R: Rng + ?Sized>(&self, class: usize, rng: &mut R) -> Sample {
        assert!(
            class < self.spec.num_classes,
            "sample_class: class {class} out of range"
        );
        let mean = &self.class_means[class];
        let features = Vector::from_fn(self.spec.feature_dim, |i| {
            mean[i] + self.spec.within_class_std * standard_normal(rng)
        });
        let label = if self.spec.label_noise > 0.0 && rng.random::<f64>() < self.spec.label_noise {
            // Re-draw uniformly among the *other* classes.
            let mut l = rng.random_range(0..self.spec.num_classes - 1);
            if l >= class {
                l += 1;
            }
            l
        } else {
            class
        };
        Sample::new(features, label)
    }

    /// Draws `n` samples whose true classes follow `label_probs`.
    ///
    /// # Panics
    ///
    /// Panics if `label_probs.len() != num_classes` or the weights are
    /// invalid (see [`categorical`]).
    pub fn sample_with_distribution<R: Rng + ?Sized>(
        &self,
        label_probs: &[f64],
        n: usize,
        rng: &mut R,
    ) -> Dataset {
        assert_eq!(
            label_probs.len(),
            self.spec.num_classes,
            "sample_with_distribution: got {} probs for {} classes",
            label_probs.len(),
            self.spec.num_classes
        );
        let samples = (0..n)
            .map(|_| {
                let class = categorical(rng, label_probs);
                self.sample_class(class, rng)
            })
            .collect();
        Dataset::new(samples, self.spec.num_classes)
    }

    /// Draws an IID (uniform-label) dataset — used as the centralized test
    /// set, mirroring the paper's held-out test partitions.
    pub fn test_dataset<R: Rng + ?Sized>(&self, n: usize, rng: &mut R) -> Dataset {
        let uniform = vec![1.0; self.spec.num_classes];
        self.sample_with_distribution(&uniform, n, rng)
    }

    /// Draws a client's local dataset: the partitioner determines the
    /// client's label distribution, then `size` samples are drawn from it.
    ///
    /// `_client` is accepted for logging/debug symmetry; determinism across
    /// clients is achieved by the caller handing each client its own seeded
    /// RNG stream (as the simulator does).
    pub fn client_dataset<R: Rng + ?Sized>(
        &self,
        partitioner: &Partitioner,
        _client: usize,
        size: usize,
        rng: &mut R,
    ) -> Dataset {
        let probs = partitioner.label_distribution(self.spec.num_classes, rng);
        self.sample_with_distribution(&probs, size, rng)
    }

    /// Moves `rng` to exactly where [`client_dataset`](Self::client_dataset)
    /// would leave it, without building the shard.
    ///
    /// The label distribution is drawn as is (Dirichlet rejects, so its
    /// draw count is data-dependent). Each sample is then skipped draw for
    /// draw against [`sample_class`](Self::sample_class): one `categorical`
    /// draw and two per Box–Muller normal, then, under label noise, the
    /// flip draw itself and one more for the modulo `random_range` when it
    /// fires. Any change to those draws must be mirrored here.
    pub fn skip_client_dataset(&self, partitioner: &Partitioner, size: usize, rng: &mut StdRng) {
        partitioner.label_distribution(self.spec.num_classes, rng);
        let per_sample = 1 + 2 * self.spec.feature_dim as u64;
        for _ in 0..size {
            rng.advance(per_sample);
            if self.spec.label_noise > 0.0 && rng.random::<f64>() < self.spec.label_noise {
                rng.advance(1);
            }
        }
    }

    /// Classifies features by the nearest class mean — the Bayes-optimal
    /// rule for this symmetric mixture (ignoring label noise).
    pub fn bayes_classify(&self, features: &Vector) -> usize {
        let mut best = 0;
        let mut best_d = f64::INFINITY;
        for (k, mean) in self.class_means.iter().enumerate() {
            let d = features.distance_squared(mean);
            if d < best_d {
                best_d = d;
                best = k;
            }
        }
        best
    }

    /// Estimates the Bayes-optimal accuracy (including the label-noise
    /// ceiling) by Monte-Carlo with `n` uniform-label samples.
    ///
    /// Used by the calibration tests that pin each
    /// [`DatasetProfile`](crate::profiles::DatasetProfile) near its paper
    /// accuracy target.
    pub fn estimate_bayes_accuracy<R: Rng + ?Sized>(&self, n: usize, rng: &mut R) -> f64 {
        if n == 0 {
            return 0.0;
        }
        let test = self.test_dataset(n, rng);
        let correct = test
            .iter()
            .filter(|s| self.bayes_classify(&s.features) == s.label)
            .count();
        correct as f64 / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asyncfl_rng::rngs::StdRng;
    use asyncfl_rng::SeedableRng;
    use proptest::prelude::*;

    fn task(seed: u64, spec: TaskSpec) -> Task {
        let mut rng = StdRng::seed_from_u64(seed);
        Task::new(spec, &mut rng)
    }

    #[test]
    fn validate_catches_bad_specs() {
        let good = TaskSpec::default();
        assert!(good.validate().is_ok());
        assert!(TaskSpec {
            num_classes: 1,
            ..good.clone()
        }
        .validate()
        .is_err());
        assert!(TaskSpec {
            feature_dim: 0,
            ..good.clone()
        }
        .validate()
        .is_err());
        assert!(TaskSpec {
            feature_dim: 5,
            ..good.clone()
        }
        .validate()
        .is_err());
        assert!(TaskSpec {
            class_separation: 0.0,
            ..good.clone()
        }
        .validate()
        .is_err());
        assert!(TaskSpec {
            within_class_std: -1.0,
            ..good.clone()
        }
        .validate()
        .is_err());
        assert!(TaskSpec {
            label_noise: 1.0,
            ..good.clone()
        }
        .validate()
        .is_err());
        // RandomUnit lifts the dim >= classes constraint.
        assert!(TaskSpec {
            feature_dim: 5,
            mean_structure: MeanStructure::RandomUnit,
            ..good
        }
        .validate()
        .is_ok());
    }

    #[test]
    #[should_panic(expected = "invalid TaskSpec")]
    fn new_panics_on_invalid_spec() {
        let _ = task(
            0,
            TaskSpec {
                num_classes: 0,
                ..TaskSpec::default()
            },
        );
    }

    #[test]
    fn scaled_basis_means_are_equidistant() {
        let t = task(1, TaskSpec::default());
        let means = t.class_means();
        let expected = (2.0f64).sqrt() * t.spec().class_separation;
        for i in 0..means.len() {
            for j in (i + 1)..means.len() {
                assert!((means[i].distance(&means[j]) - expected).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn random_unit_means_have_requested_norm() {
        let spec = TaskSpec {
            mean_structure: MeanStructure::RandomUnit,
            class_separation: 2.5,
            ..TaskSpec::default()
        };
        let t = task(2, spec);
        for m in t.class_means() {
            assert!((m.norm() - 2.5).abs() < 1e-9);
        }
    }

    #[test]
    fn sample_class_centers_on_mean() {
        let t = task(3, TaskSpec::default());
        let mut rng = StdRng::seed_from_u64(30);
        let n = 4000;
        let mut acc = Vector::zeros(t.feature_dim());
        for _ in 0..n {
            acc += &t.sample_class(2, &mut rng).features;
        }
        acc.scale(1.0 / n as f64);
        assert!(acc.distance(&t.class_means()[2]) < 0.15);
    }

    #[test]
    fn label_noise_flips_expected_fraction() {
        let spec = TaskSpec {
            label_noise: 0.3,
            ..TaskSpec::default()
        };
        let t = task(4, spec);
        let mut rng = StdRng::seed_from_u64(40);
        let n = 10_000;
        let flipped = (0..n)
            .filter(|_| t.sample_class(5, &mut rng).label != 5)
            .count();
        let frac = flipped as f64 / n as f64;
        assert!((frac - 0.3).abs() < 0.02, "flip fraction {frac}");
    }

    #[test]
    fn test_dataset_is_roughly_balanced() {
        let t = task(5, TaskSpec::default());
        let mut rng = StdRng::seed_from_u64(50);
        let ds = t.test_dataset(5_000, &mut rng);
        for &c in &ds.label_histogram() {
            assert!((c as f64 / 5_000.0 - 0.1).abs() < 0.03);
        }
    }

    #[test]
    fn skewed_distribution_respected() {
        let t = task(6, TaskSpec::default());
        let mut rng = StdRng::seed_from_u64(60);
        let mut probs = vec![0.0; 10];
        probs[7] = 1.0;
        let ds = t.sample_with_distribution(&probs, 200, &mut rng);
        // All true classes are 7 (labels equal 7 since no label noise).
        assert!(ds.iter().all(|s| s.label == 7));
    }

    #[test]
    fn bayes_accuracy_tracks_separation() {
        let mut rng = StdRng::seed_from_u64(70);
        let easy = task(
            7,
            TaskSpec {
                class_separation: 6.0,
                ..TaskSpec::default()
            },
        );
        let hard = task(
            7,
            TaskSpec {
                class_separation: 1.0,
                ..TaskSpec::default()
            },
        );
        let acc_easy = easy.estimate_bayes_accuracy(4_000, &mut rng);
        let acc_hard = hard.estimate_bayes_accuracy(4_000, &mut rng);
        assert!(acc_easy > 0.99, "easy {acc_easy}");
        assert!(acc_hard < 0.9, "hard {acc_hard}");
        assert!(acc_easy > acc_hard);
    }

    #[test]
    fn label_noise_caps_bayes_accuracy() {
        let mut rng = StdRng::seed_from_u64(80);
        let t = task(
            8,
            TaskSpec {
                class_separation: 8.0,
                label_noise: 0.4,
                ..TaskSpec::default()
            },
        );
        let acc = t.estimate_bayes_accuracy(5_000, &mut rng);
        // Ceiling = 1 - noise (flipped labels are unpredictable).
        assert!((acc - 0.6).abs() < 0.03, "acc {acc}");
        assert_eq!(t.estimate_bayes_accuracy(0, &mut rng), 0.0);
    }

    #[test]
    fn client_dataset_has_requested_size() {
        let t = task(9, TaskSpec::default());
        let mut rng = StdRng::seed_from_u64(90);
        let ds = t.client_dataset(&Partitioner::iid(), 0, 77, &mut rng);
        assert_eq!(ds.len(), 77);
        assert_eq!(ds.num_classes(), 10);
    }

    #[test]
    fn dirichlet_clients_are_more_skewed_than_iid() {
        let t = task(10, TaskSpec::default());
        let mut rng = StdRng::seed_from_u64(100);
        let skew = |part: &Partitioner, rng: &mut StdRng| -> f64 {
            // Average max-class share across simulated clients.
            (0..20)
                .map(|c| {
                    let ds = t.client_dataset(part, c, 200, rng);
                    let h = ds.label_histogram();
                    *h.iter().max().unwrap() as f64 / 200.0
                })
                .sum::<f64>()
                / 20.0
        };
        let iid_skew = skew(&Partitioner::iid(), &mut rng);
        let dir_skew = skew(&Partitioner::dirichlet(0.05), &mut rng);
        assert!(dir_skew > iid_skew + 0.2, "iid {iid_skew} dir {dir_skew}");
    }

    proptest! {
        #[test]
        fn prop_samples_have_valid_labels_and_dims(
            seed in 0u64..500,
            sep in 0.5f64..5.0,
            noise in 0.0f64..0.5,
        ) {
            let spec = TaskSpec {
                class_separation: sep,
                label_noise: noise,
                ..TaskSpec::default()
            };
            let t = task(seed, spec);
            let mut rng = StdRng::seed_from_u64(seed + 1);
            let ds = t.test_dataset(50, &mut rng);
            prop_assert_eq!(ds.len(), 50);
            prop_assert!(ds.iter().all(|s| s.label < 10));
            prop_assert!(ds.iter().all(|s| s.features.len() == 32));
            prop_assert!(ds.iter().all(|s| s.features.is_finite()));
        }

        #[test]
        fn prop_bayes_classify_in_range(seed in 0u64..500) {
            let t = task(seed, TaskSpec::default());
            let mut rng = StdRng::seed_from_u64(seed);
            let s = t.sample_class(seed as usize % 10, &mut rng);
            prop_assert!(t.bayes_classify(&s.features) < 10);
        }
    }
}
