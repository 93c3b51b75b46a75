//! The Adam optimizer (Kingma & Ba, 2015) over flat parameter vectors,
//! and the seeded shuffle every trainer's sampling loop draws its order
//! from.

use rand::{Rng, RngExt};

/// Adam state for one flat parameter vector.
///
/// Downstream models keep their parameters as flat `Vec<f64>` blocks (or
/// matrices whose storage is exposed as a slice) and call [`Adam::step`]
/// once per mini-batch.
///
/// # Example
///
/// ```
/// use embedstab_linalg::opt::Adam;
///
/// // Minimize (x - 3)^2 from x = 0.
/// let mut x = vec![0.0f64];
/// let mut opt = Adam::new(1, 0.1);
/// for _ in 0..400 {
///     let grad = vec![2.0 * (x[0] - 3.0)];
///     opt.step(&mut x, &grad);
/// }
/// assert!((x[0] - 3.0).abs() < 1e-3);
/// ```
#[derive(Clone, Debug)]
pub struct Adam {
    lr: f64,
    beta1: f64,
    beta2: f64,
    eps: f64,
    t: u64,
    m: Vec<f64>,
    v: Vec<f64>,
}

impl Adam {
    /// Creates an optimizer for `n` parameters with the standard
    /// `beta1 = 0.9`, `beta2 = 0.999`, `eps = 1e-8`.
    pub fn new(n: usize, lr: f64) -> Self {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            m: vec![0.0; n],
            v: vec![0.0; n],
        }
    }

    /// The current learning rate.
    pub fn lr(&self) -> f64 {
        self.lr
    }

    /// Replaces the learning rate (for decay schedules).
    pub fn set_lr(&mut self, lr: f64) {
        self.lr = lr;
    }

    /// Applies one Adam update to `params` given `grads`.
    ///
    /// # Panics
    ///
    /// Panics if lengths disagree with the optimizer's size.
    pub fn step(&mut self, params: &mut [f64], grads: &[f64]) {
        assert_eq!(params.len(), self.m.len(), "parameter count mismatch");
        assert_eq!(grads.len(), self.m.len(), "gradient count mismatch");
        self.t += 1;
        let b1t = 1.0 - self.beta1.powi(self.t as i32);
        let b2t = 1.0 - self.beta2.powi(self.t as i32);
        for i in 0..params.len() {
            let g = grads[i];
            self.m[i] = self.beta1 * self.m[i] + (1.0 - self.beta1) * g;
            self.v[i] = self.beta2 * self.v[i] + (1.0 - self.beta2) * g * g;
            let mhat = self.m[i] / b1t;
            let vhat = self.v[i] / b2t;
            params[i] -= self.lr * mhat / (vhat.sqrt() + self.eps);
        }
    }
}

/// Seeded Fisher-Yates shuffle used by every trainer's sampling loop.
pub fn shuffle<T>(xs: &mut [T], rng: &mut impl Rng) {
    for i in (1..xs.len()).rev() {
        let j = rng.random_range(0..=i);
        xs.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn shuffle_is_a_permutation_and_deterministic() {
        let mut a: Vec<u32> = (0..50).collect();
        let mut b: Vec<u32> = (0..50).collect();
        let mut r1 = rand::rngs::StdRng::seed_from_u64(5);
        let mut r2 = rand::rngs::StdRng::seed_from_u64(5);
        shuffle(&mut a, &mut r1);
        shuffle(&mut b, &mut r2);
        assert_eq!(a, b);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<u32>>());
    }

    #[test]
    fn minimizes_quadratic_bowl() {
        let mut x = vec![5.0, -4.0, 2.5];
        let target = [1.0, 2.0, 3.0];
        let mut opt = Adam::new(3, 0.05);
        for _ in 0..2000 {
            let grads: Vec<f64> = x
                .iter()
                .zip(&target)
                .map(|(xi, ti)| 2.0 * (xi - ti))
                .collect();
            opt.step(&mut x, &grads);
        }
        for (xi, ti) in x.iter().zip(&target) {
            assert!((xi - ti).abs() < 1e-3, "{xi} != {ti}");
        }
    }

    #[test]
    fn first_step_size_is_about_lr() {
        // Adam's bias correction makes the first step ~lr * sign(grad).
        let mut x = vec![0.0];
        let mut opt = Adam::new(1, 0.1);
        opt.step(&mut x, &[123.0]);
        assert!((x[0] + 0.1).abs() < 1e-6, "step was {}", x[0]);
    }

    #[test]
    #[should_panic(expected = "parameter count")]
    fn size_mismatch_panics() {
        let mut opt = Adam::new(2, 0.1);
        let mut x = vec![0.0];
        opt.step(&mut x, &[1.0]);
    }
}
