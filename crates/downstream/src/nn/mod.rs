//! Neural-network training primitives shared by the downstream models.

pub use embedstab_linalg::opt::{shuffle, Adam};

/// Clips a gradient vector to a maximum global L2 norm, in place.
/// Returns the pre-clip norm.
pub fn clip_global_norm(grad: &mut [f64], max_norm: f64) -> f64 {
    let norm = grad.iter().map(|g| g * g).sum::<f64>().sqrt();
    if norm > max_norm && norm > 0.0 {
        let s = max_norm / norm;
        for g in grad.iter_mut() {
            *g *= s;
        }
    }
    norm
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clip_reduces_large_norms_only() {
        let mut g = vec![3.0, 4.0];
        let norm = clip_global_norm(&mut g, 1.0);
        assert!((norm - 5.0).abs() < 1e-12);
        assert!((g[0] - 0.6).abs() < 1e-12);
        let mut small = vec![0.1, 0.1];
        clip_global_norm(&mut small, 1.0);
        assert_eq!(small, vec![0.1, 0.1]);
    }
}
