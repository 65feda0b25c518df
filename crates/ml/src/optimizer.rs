//! Local optimizers: SGD with momentum, and Adam.
//!
//! The paper's Table 1 prescribes SGD (lr 0.01, momentum 0.9) for the
//! MNIST-family datasets and Adam (lr 0.01) for the CIFAR-family. Both
//! optimizers here operate on flat parameter vectors and keep their own
//! state, so a fresh optimizer per local round mirrors how PLATO clients
//! re-instantiate their `torch.optim` objects each round.

use asyncfl_tensor::kernels::{self, AdamStep};
use asyncfl_tensor::Vector;

/// An object-safe first-order optimizer over flat parameter vectors.
pub trait Optimizer: Send {
    /// Applies one update step in place: `params ← params − step(grad)`.
    ///
    /// # Panics
    ///
    /// Implementations panic if `params` and `grad` dimensions disagree with
    /// the optimizer's state.
    fn step(&mut self, params: &mut Vector, grad: &Vector);

    /// The configured learning rate.
    fn learning_rate(&self) -> f64;

    /// Dimension of the currently allocated state buffers (momentum /
    /// moment vectors), or `None` when no state is allocated. Optimizers
    /// built through [`crate::train::build_optimizer`] preallocate their
    /// state, so this is `Some(num_params)` before the first `step`.
    fn state_dim(&self) -> Option<usize> {
        None
    }

    /// Resets internal state (momentum buffers, Adam moments). Any
    /// preallocated buffers are dropped and re-created lazily on the next
    /// `step`.
    fn reset(&mut self);
}

/// Stochastic gradient descent with classical momentum:
/// `v ← μ·v + g; θ ← θ − lr·v`.
#[derive(Debug, Clone, PartialEq)]
pub struct Sgd {
    lr: f64,
    momentum: f64,
    velocity: Option<Vector>,
}

impl Sgd {
    /// Creates an SGD optimizer.
    ///
    /// # Panics
    ///
    /// Panics if `lr <= 0` or `momentum` is outside `[0, 1)`.
    pub fn new(lr: f64, momentum: f64) -> Self {
        assert!(
            lr > 0.0 && lr.is_finite(),
            "Sgd: lr must be positive, got {lr}"
        );
        assert!(
            (0.0..1.0).contains(&momentum),
            "Sgd: momentum must be in [0, 1), got {momentum}"
        );
        Self {
            lr,
            momentum,
            velocity: None,
        }
    }

    /// Creates an SGD optimizer with its momentum buffer preallocated for
    /// `num_params` parameters (no allocation on the first `step`). With
    /// zero momentum SGD is stateless and nothing is allocated.
    ///
    /// # Panics
    ///
    /// Panics on the same invalid `lr`/`momentum` values as [`Sgd::new`].
    pub fn preallocated(lr: f64, momentum: f64, num_params: usize) -> Self {
        let mut sgd = Self::new(lr, momentum);
        if momentum > 0.0 {
            sgd.velocity = Some(Vector::zeros(num_params));
        }
        sgd
    }

    /// The momentum coefficient.
    pub fn momentum(&self) -> f64 {
        self.momentum
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, params: &mut Vector, grad: &Vector) {
        assert_eq!(
            params.len(),
            grad.len(),
            "Sgd::step: params/grad dimension mismatch"
        );
        if self.momentum == 0.0 {
            params.axpy(-self.lr, grad);
            return;
        }
        let velocity = self
            .velocity
            .get_or_insert_with(|| Vector::zeros(grad.len()));
        assert_eq!(
            velocity.len(),
            grad.len(),
            "Sgd::step: gradient dimension changed mid-run"
        );
        kernels::sgd_momentum_step(
            params.as_mut_slice(),
            velocity.as_mut_slice(),
            grad.as_slice(),
            self.lr,
            self.momentum,
        );
    }

    fn learning_rate(&self) -> f64 {
        self.lr
    }

    fn state_dim(&self) -> Option<usize> {
        self.velocity.as_ref().map(Vector::len)
    }

    fn reset(&mut self) {
        self.velocity = None;
    }
}

/// Adam (Kingma & Ba 2015) with bias correction.
#[derive(Debug, Clone, PartialEq)]
pub struct Adam {
    lr: f64,
    beta1: f64,
    beta2: f64,
    eps: f64,
    t: u64,
    m: Option<Vector>,
    v: Option<Vector>,
}

impl Adam {
    /// Creates an Adam optimizer with the standard defaults
    /// (β₁ = 0.9, β₂ = 0.999, ε = 1e−8).
    ///
    /// # Panics
    ///
    /// Panics if `lr <= 0`.
    pub fn new(lr: f64) -> Self {
        Self::with_betas(lr, 0.9, 0.999, 1e-8)
    }

    /// Creates an Adam optimizer with explicit moment coefficients.
    ///
    /// # Panics
    ///
    /// Panics if `lr <= 0`, either beta is outside `[0, 1)`, or `eps <= 0`.
    pub fn with_betas(lr: f64, beta1: f64, beta2: f64, eps: f64) -> Self {
        assert!(
            lr > 0.0 && lr.is_finite(),
            "Adam: lr must be positive, got {lr}"
        );
        assert!((0.0..1.0).contains(&beta1), "Adam: beta1 out of range");
        assert!((0.0..1.0).contains(&beta2), "Adam: beta2 out of range");
        assert!(eps > 0.0, "Adam: eps must be positive");
        Self {
            lr,
            beta1,
            beta2,
            eps,
            t: 0,
            m: None,
            v: None,
        }
    }

    /// Creates an Adam optimizer (standard betas) with both moment buffers
    /// preallocated for `num_params` parameters, so the first `step` does
    /// not allocate.
    ///
    /// # Panics
    ///
    /// Panics if `lr <= 0`.
    pub fn preallocated(lr: f64, num_params: usize) -> Self {
        let mut adam = Self::new(lr);
        adam.m = Some(Vector::zeros(num_params));
        adam.v = Some(Vector::zeros(num_params));
        adam
    }
}

impl Optimizer for Adam {
    fn step(&mut self, params: &mut Vector, grad: &Vector) {
        assert_eq!(
            params.len(),
            grad.len(),
            "Adam::step: params/grad dimension mismatch"
        );
        let dim = grad.len();
        let m = self.m.get_or_insert_with(|| Vector::zeros(dim));
        let v = self.v.get_or_insert_with(|| Vector::zeros(dim));
        assert_eq!(
            m.len(),
            dim,
            "Adam::step: gradient dimension changed mid-run"
        );
        self.t += 1;
        let step = AdamStep {
            lr: self.lr,
            beta1: self.beta1,
            beta2: self.beta2,
            eps: self.eps,
            bias1: 1.0 - self.beta1.powi(self.t as i32),
            bias2: 1.0 - self.beta2.powi(self.t as i32),
        };
        kernels::adam_step(
            params.as_mut_slice(),
            m.as_mut_slice(),
            v.as_mut_slice(),
            grad.as_slice(),
            step,
        );
    }

    fn learning_rate(&self) -> f64 {
        self.lr
    }

    fn state_dim(&self) -> Option<usize> {
        self.m.as_ref().map(Vector::len)
    }

    fn reset(&mut self) {
        self.t = 0;
        self.m = None;
        self.v = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quadratic_grad(p: &Vector) -> Vector {
        // f(p) = ||p||² / 2, gradient = p.
        p.clone()
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        let mut opt = Sgd::new(0.1, 0.0);
        let mut p = Vector::from(vec![5.0, -3.0]);
        for _ in 0..200 {
            let g = quadratic_grad(&p);
            opt.step(&mut p, &g);
        }
        assert!(p.norm() < 1e-6, "residual {}", p.norm());
    }

    #[test]
    fn sgd_momentum_converges_on_quadratic() {
        let mut opt = Sgd::new(0.05, 0.9);
        let mut p = Vector::from(vec![5.0, -3.0]);
        for _ in 0..400 {
            let g = quadratic_grad(&p);
            opt.step(&mut p, &g);
        }
        assert!(p.norm() < 1e-4, "residual {}", p.norm());
        assert_eq!(opt.momentum(), 0.9);
        assert_eq!(opt.learning_rate(), 0.05);
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut opt = Adam::new(0.2);
        let mut p = Vector::from(vec![5.0, -3.0, 1.0]);
        for _ in 0..500 {
            let g = quadratic_grad(&p);
            opt.step(&mut p, &g);
        }
        assert!(p.norm() < 1e-3, "residual {}", p.norm());
        assert_eq!(opt.learning_rate(), 0.2);
    }

    #[test]
    fn sgd_zero_momentum_is_plain_descent() {
        let mut opt = Sgd::new(0.5, 0.0);
        let mut p = Vector::from(vec![1.0]);
        opt.step(&mut p, &Vector::from(vec![1.0]));
        assert!((p[0] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn momentum_accelerates_along_constant_gradient() {
        let g = Vector::from(vec![1.0]);
        let mut plain = Sgd::new(0.1, 0.0);
        let mut momentum = Sgd::new(0.1, 0.9);
        let mut p1 = Vector::from(vec![0.0]);
        let mut p2 = Vector::from(vec![0.0]);
        for _ in 0..10 {
            plain.step(&mut p1, &g);
            momentum.step(&mut p2, &g);
        }
        assert!(
            p2[0] < p1[0],
            "momentum should move farther: {} vs {}",
            p2[0],
            p1[0]
        );
    }

    #[test]
    fn adam_first_step_is_lr_sized() {
        // With bias correction, the very first Adam step is ≈ lr in magnitude
        // regardless of gradient scale.
        for scale in [1e-3, 1.0, 1e3] {
            let mut opt = Adam::new(0.1);
            let mut p = Vector::from(vec![0.0]);
            opt.step(&mut p, &Vector::from(vec![scale]));
            assert!(
                (p[0].abs() - 0.1).abs() < 1e-3,
                "scale {scale}: step {}",
                p[0]
            );
        }
    }

    #[test]
    fn reset_clears_state() {
        let mut sgd = Sgd::new(0.1, 0.9);
        let mut p = Vector::from(vec![1.0]);
        sgd.step(&mut p, &Vector::from(vec![1.0]));
        sgd.reset();
        assert_eq!(sgd, Sgd::new(0.1, 0.9));

        let mut adam = Adam::new(0.1);
        adam.step(&mut p, &Vector::from(vec![1.0]));
        adam.reset();
        assert_eq!(adam, Adam::new(0.1));
    }

    #[test]
    fn preallocated_state_exists_before_first_step() {
        let sgd = Sgd::preallocated(0.1, 0.9, 12);
        assert_eq!(sgd.state_dim(), Some(12));
        let adam = Adam::preallocated(0.1, 7);
        assert_eq!(adam.state_dim(), Some(7));
        // Zero-momentum SGD is stateless: nothing to preallocate.
        assert_eq!(Sgd::preallocated(0.1, 0.0, 12).state_dim(), None);
        // Lazy constructors allocate nothing until stepped.
        assert_eq!(Sgd::new(0.1, 0.9).state_dim(), None);
        assert_eq!(Adam::new(0.1).state_dim(), None);
    }

    #[test]
    fn preallocated_matches_lazy_trajectory_bitwise() {
        let grads = [
            Vector::from(vec![1.0, -2.0, 0.5]),
            Vector::from(vec![-0.3, 0.7, 1.1]),
            Vector::from(vec![0.05, -0.4, 2.0]),
        ];
        let run = |mut opt: Box<dyn Optimizer>| {
            let mut p = Vector::from(vec![5.0, -3.0, 1.0]);
            for g in &grads {
                opt.step(&mut p, g);
            }
            p
        };
        let lazy_sgd = run(Box::new(Sgd::new(0.1, 0.9)));
        let pre_sgd = run(Box::new(Sgd::preallocated(0.1, 0.9, 3)));
        assert_eq!(lazy_sgd, pre_sgd);
        let lazy_adam = run(Box::new(Adam::new(0.1)));
        let pre_adam = run(Box::new(Adam::preallocated(0.1, 3)));
        assert_eq!(lazy_adam, pre_adam);
    }

    #[test]
    fn state_dim_is_stable_across_steps() {
        let mut opt = Adam::preallocated(0.1, 2);
        let mut p = Vector::zeros(2);
        opt.step(&mut p, &Vector::from(vec![1.0, -1.0]));
        assert_eq!(opt.state_dim(), Some(2));
        opt.reset();
        assert_eq!(opt.state_dim(), None);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn step_dimension_mismatch_panics() {
        let mut opt = Sgd::new(0.1, 0.0);
        let mut p = Vector::zeros(2);
        opt.step(&mut p, &Vector::zeros(3));
    }

    #[test]
    #[should_panic(expected = "lr")]
    fn invalid_lr_panics() {
        let _ = Sgd::new(0.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "momentum")]
    fn invalid_momentum_panics() {
        let _ = Sgd::new(0.1, 1.0);
    }
}
