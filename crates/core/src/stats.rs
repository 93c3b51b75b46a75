//! Statistics used throughout the evaluation: correlations, summary
//! statistics, and multi-task linear-log regression (paper Appendix C.4).

use embedstab_linalg::{lstsq, Mat};

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Sample standard deviation (n-1 denominator); 0 for fewer than 2 values.
pub fn std_dev(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    (xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (xs.len() - 1) as f64).sqrt()
}

/// Pearson correlation coefficient; 0 if either input is constant.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn pearson(xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(xs.len(), ys.len(), "pearson requires equal lengths");
    let n = xs.len();
    if n < 2 {
        return 0.0;
    }
    let (mx, my) = (mean(xs), mean(ys));
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for (x, y) in xs.iter().zip(ys) {
        let (dx, dy) = (x - mx, y - my);
        sxy += dx * dy;
        sxx += dx * dx;
        syy += dy * dy;
    }
    if sxx == 0.0 || syy == 0.0 {
        return 0.0;
    }
    sxy / (sxx * syy).sqrt()
}

/// The NaN-last float orders, defined once in `linalg` next to the cosine
/// top-k kernel that ranks by them.
pub use embedstab_linalg::{cmp_desc_nan_last, cmp_nan_last};

/// Average ranks (1-based), with ties receiving the mean of their rank
/// range — the standard tie handling for Spearman correlation.
pub fn average_ranks(xs: &[f64]) -> Vec<f64> {
    let n = xs.len();
    let mut order: Vec<usize> = (0..n).collect();
    // One NaN observation must not panic a whole analysis run; NaNs sort
    // last (by explicit construction — see cmp_nan_last on why total_cmp
    // alone would put runtime NaNs first) and form no tie group, so the
    // finite values' ranks are unchanged.
    order.sort_by(|&i, &j| cmp_nan_last(xs[i], xs[j]));
    let mut ranks = vec![0.0; n];
    let mut i = 0;
    while i < n {
        let mut j = i;
        while j + 1 < n && xs[order[j + 1]] == xs[order[i]] {
            j += 1;
        }
        // Positions i..=j are tied; average rank is the midpoint (1-based).
        let avg = (i + j) as f64 / 2.0 + 1.0;
        for &k in &order[i..=j] {
            ranks[k] = avg;
        }
        i = j + 1;
    }
    ranks
}

/// Spearman rank correlation (tie-aware), used by the paper to score how
/// well each embedding distance measure predicts downstream disagreement
/// (Table 1).
///
/// # Panics
///
/// Panics if the slices have different lengths or contain NaN.
pub fn spearman(xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(xs.len(), ys.len(), "spearman requires equal lengths");
    pearson(&average_ranks(xs), &average_ranks(ys))
}

/// One observation for the multi-task linear-log fit: a task id, a memory
/// (or dimension/precision) value, and an observed instability.
#[derive(Clone, Copy, Debug)]
pub struct TrendPoint {
    /// Which task (or task-group) this point belongss to; each task gets
    /// its own intercept.
    pub task: usize,
    /// The x value whose log2 is regressed on (e.g. bits/word).
    pub x: f64,
    /// The observed instability (e.g. percent disagreement).
    pub y: f64,
}

/// Result of the linear-log fit `y ≈ intercept_task - slope * log2(x)`.
#[derive(Clone, Debug)]
pub struct LinearLogFit {
    /// The shared slope; positive when `y` decreases as `x` doubles.
    /// Doubling `x` reduces `y` by `slope` (the paper reports 1.3% for
    /// memory).
    pub slope: f64,
    /// Per-task intercepts `C_T`.
    pub intercepts: Vec<f64>,
}

/// Fits the paper's rule-of-thumb model (Appendix C.4): one shared
/// coefficient on `log2(x)` plus a per-task intercept, by least squares.
///
/// Returns `None` if there are no points or the design is degenerate.
///
/// # Panics
///
/// Panics if any `x` is not strictly positive or a task id is out of range.
pub fn linear_log_fit(points: &[TrendPoint], n_tasks: usize) -> Option<LinearLogFit> {
    if points.is_empty() || n_tasks == 0 {
        return None;
    }
    let rows = points.len();
    let cols = 1 + n_tasks;
    let mut design = Mat::zeros(rows, cols);
    let mut target = Mat::zeros(rows, 1);
    for (r, p) in points.iter().enumerate() {
        assert!(p.x > 0.0, "x values must be positive for log2");
        assert!(p.task < n_tasks, "task id out of range");
        design[(r, 0)] = p.x.log2();
        design[(r, 1 + p.task)] = 1.0;
        target[(r, 0)] = p.y;
    }
    let beta = lstsq(&design, &target, 1e-9)?;
    let slope = -beta[(0, 0)];
    let intercepts = (0..n_tasks).map(|t| beta[(1 + t, 0)]).collect();
    Some(LinearLogFit { slope, intercepts })
}

/// A deterministic log-linear latency histogram for serving benchmarks:
/// microsecond-scale values land in buckets whose width doubles every
/// [`LatencyHistogram::SUB_BUCKETS`] steps, giving a bounded relative
/// quantile error (~1/SUB_BUCKETS) with a few hundred fixed buckets and
/// no allocation per record.
///
/// Unlike a sorted-sample quantile, recording order never changes any
/// reported quantile, and two histograms [`merge`](Self::merge) by bucket
/// addition — so per-thread load-generator histograms combine into one
/// process-wide summary without sharing state on the hot path.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LatencyHistogram {
    counts: Vec<u64>,
    total: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// Buckets per power of two; bounds the relative quantile error.
    pub const SUB_BUCKETS: u64 = 16;
    /// log2 of the largest distinguishable value (~64-bit range).
    const MAX_EXP: u64 = 40;

    /// An empty histogram.
    pub fn new() -> LatencyHistogram {
        let buckets = (Self::SUB_BUCKETS * Self::MAX_EXP + 1) as usize;
        LatencyHistogram {
            counts: vec![0; buckets],
            total: 0,
        }
    }

    fn bucket_of(value_us: u64) -> usize {
        // Values below SUB_BUCKETS get exact buckets; above, the bucket is
        // (exponent, mantissa-prefix), log-linear like HDR histograms.
        if value_us < Self::SUB_BUCKETS {
            return value_us as usize;
        }
        let exp = 63 - value_us.leading_zeros() as u64;
        let exp = exp.min(Self::MAX_EXP - 1);
        let sub = (value_us >> (exp.saturating_sub(4))) - Self::SUB_BUCKETS;
        let idx = exp * Self::SUB_BUCKETS + sub.min(Self::SUB_BUCKETS - 1);
        (idx as usize).min(Self::SUB_BUCKETS as usize * Self::MAX_EXP as usize)
    }

    /// The lower edge (µs) of the bucket holding index `idx` — what the
    /// quantiles report, so reported values are always achievable inputs.
    fn bucket_floor(idx: usize) -> u64 {
        let idx = idx as u64;
        if idx < Self::SUB_BUCKETS {
            return idx;
        }
        let exp = idx / Self::SUB_BUCKETS;
        let sub = idx % Self::SUB_BUCKETS;
        (Self::SUB_BUCKETS + sub) << exp.saturating_sub(4)
    }

    /// Records one latency in microseconds.
    pub fn record(&mut self, value_us: u64) {
        self.counts[Self::bucket_of(value_us)] += 1;
        self.total += 1;
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Adds every recorded value of `other` into `self` (bucket-wise, so
    /// merge order is irrelevant to every quantile).
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.total += other.total;
    }

    /// The value (µs, bucket lower edge) at quantile `q` in `[0, 1]`:
    /// the smallest bucket such that at least `ceil(q * count)` recorded
    /// values are at or below it. Returns `None` for an empty histogram
    /// or a `q` outside `[0, 1]` (including NaN).
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.total == 0 || !(0.0..=1.0).contains(&q) {
            return None;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(Self::bucket_floor(idx));
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_std() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert!((std_dev(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]) - 2.138).abs() < 0.01);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(std_dev(&[5.0]), 0.0);
    }

    #[test]
    fn pearson_perfect_and_inverse() {
        let x = [1.0, 2.0, 3.0, 4.0];
        assert!((pearson(&x, &[2.0, 4.0, 6.0, 8.0]) - 1.0).abs() < 1e-12);
        assert!((pearson(&x, &[8.0, 6.0, 4.0, 2.0]) + 1.0).abs() < 1e-12);
        assert_eq!(pearson(&x, &[5.0; 4]), 0.0);
    }

    #[test]
    fn ranks_handle_ties() {
        let r = average_ranks(&[10.0, 20.0, 20.0, 30.0]);
        assert_eq!(r, vec![1.0, 2.5, 2.5, 4.0]);
    }

    #[test]
    fn nan_orderings_put_every_nan_last() {
        // Runtime NaNs carry the sign bit on x86-64, and total_cmp alone
        // would order them before -inf; the helpers must not.
        let runtime_nan: f64 = f64::INFINITY - f64::INFINITY;
        assert!(runtime_nan.is_nan());
        for nan in [runtime_nan, f64::NAN, -f64::NAN] {
            assert_eq!(cmp_nan_last(nan, -1.0), std::cmp::Ordering::Greater);
            assert_eq!(cmp_nan_last(-1.0, nan), std::cmp::Ordering::Less);
            assert_eq!(cmp_desc_nan_last(nan, 1.0), std::cmp::Ordering::Greater);
            assert_eq!(cmp_desc_nan_last(1.0, nan), std::cmp::Ordering::Less);
            assert_eq!(cmp_nan_last(nan, runtime_nan), std::cmp::Ordering::Equal);
        }
        assert_eq!(cmp_nan_last(1.0, 2.0), std::cmp::Ordering::Less);
        assert_eq!(cmp_desc_nan_last(1.0, 2.0), std::cmp::Ordering::Greater);
    }

    #[test]
    fn ranks_tolerate_a_nan_without_moving_finite_ranks() {
        let runtime_nan: f64 = 0.0f64 / 0.0;
        let r = average_ranks(&[10.0, runtime_nan, 20.0, 20.0, 30.0]);
        // Finite values keep exactly the ranks they'd have alone; the NaN
        // takes the last rank.
        assert_eq!(r[0], 1.0);
        assert_eq!(r[2], 2.5);
        assert_eq!(r[3], 2.5);
        assert_eq!(r[4], 4.0);
        assert_eq!(r[1], 5.0);
    }

    #[test]
    fn spearman_invariant_under_monotone_transform() {
        let x = [0.1, 0.5, 0.2, 0.9, 0.3];
        let y = [1.0, 25.0, 4.0, 81.0, 9.0]; // y = (10x)^2, monotone
        assert!((spearman(&x, &y) - 1.0).abs() < 1e-12);
        let neg: Vec<f64> = y.iter().map(|v| -v).collect();
        assert!((spearman(&x, &neg) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn spearman_known_value() {
        // Classic example with one swapped pair.
        let x = [1.0, 2.0, 3.0, 4.0, 5.0];
        let y = [1.0, 2.0, 3.0, 5.0, 4.0];
        assert!((spearman(&x, &y) - 0.9).abs() < 1e-12);
    }

    #[test]
    fn linear_log_fit_recovers_planted_trend() {
        // y = C_t - 1.3 log2(x) with two tasks.
        let mut points = Vec::new();
        for (task, c) in [(0usize, 10.0), (1usize, 20.0)] {
            for &x in &[32.0, 64.0, 128.0, 256.0, 512.0] {
                points.push(TrendPoint {
                    task,
                    x,
                    y: c - 1.3 * x.log2(),
                });
            }
        }
        let fit = linear_log_fit(&points, 2).expect("solvable");
        assert!((fit.slope - 1.3).abs() < 1e-6, "slope {}", fit.slope);
        assert!((fit.intercepts[0] - 10.0).abs() < 1e-6);
        assert!((fit.intercepts[1] - 20.0).abs() < 1e-6);
    }

    #[test]
    fn linear_log_fit_with_noise_is_close() {
        use rand::{RngExt, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let mut points = Vec::new();
        for &x in &[16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0] {
            for _ in 0..5 {
                let noise: f64 = rng.random_range(-0.3..0.3);
                points.push(TrendPoint {
                    task: 0,
                    x,
                    y: 15.0 - 2.0 * x.log2() + noise,
                });
            }
        }
        let fit = linear_log_fit(&points, 1).expect("solvable");
        assert!((fit.slope - 2.0).abs() < 0.15, "slope {}", fit.slope);
    }

    #[test]
    fn degenerate_fit_is_none() {
        assert!(linear_log_fit(&[], 1).is_none());
    }

    #[test]
    fn histogram_quantiles_are_order_independent_and_bounded() {
        let mut fwd = LatencyHistogram::new();
        let mut rev = LatencyHistogram::new();
        for v in 1..=10_000u64 {
            fwd.record(v);
        }
        for v in (1..=10_000u64).rev() {
            rev.record(v);
        }
        assert_eq!(fwd, rev, "recording order must not matter");
        assert_eq!(fwd.count(), 10_000);
        // Uniform 1..=10_000: each quantile lands within the log-linear
        // relative error (~1/SUB_BUCKETS, doubled for bucket-edge slack).
        for (q, expected) in [(0.5, 5_000.0), (0.99, 9_900.0), (0.999, 9_990.0)] {
            let got = fwd.quantile(q).expect("non-empty") as f64;
            let rel = (got - expected).abs() / expected;
            assert!(rel < 0.15, "q={q}: got {got}, expected ~{expected}");
        }
        // Extremes are exact bucket floors.
        assert_eq!(fwd.quantile(0.0), Some(1));
        assert!(fwd.quantile(1.0).expect("max") >= 9_216);
    }

    #[test]
    fn histogram_small_values_are_exact() {
        let mut h = LatencyHistogram::new();
        for v in [0u64, 1, 2, 3, 15, 15, 15] {
            h.record(v);
        }
        assert_eq!(h.quantile(0.0), Some(0));
        assert_eq!(h.quantile(1.0), Some(15));
        assert_eq!(h.quantile(0.5), Some(3));
    }

    #[test]
    fn histogram_merge_equals_combined_recording() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        let mut combined = LatencyHistogram::new();
        for v in [3u64, 90, 1_000, 77_777] {
            a.record(v);
            combined.record(v);
        }
        for v in [5u64, 42, 123_456_789] {
            b.record(v);
            combined.record(v);
        }
        a.merge(&b);
        assert_eq!(a, combined);
        assert_eq!(a.count(), 7);
    }

    #[test]
    fn histogram_empty_and_bad_quantiles_are_none() {
        let empty = LatencyHistogram::new();
        assert_eq!(empty.quantile(0.5), None);
        let mut h = LatencyHistogram::new();
        h.record(7);
        assert_eq!(h.quantile(-0.1), None);
        assert_eq!(h.quantile(1.1), None);
        assert_eq!(h.quantile(f64::NAN), None);
        // Huge values clamp into the top bucket instead of overflowing.
        h.record(u64::MAX);
        assert!(h.quantile(1.0).is_some());
    }
}
