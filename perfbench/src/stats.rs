//! Percentiles by the benchmark's reporting rule.
//!
//! A timing is reported as its median plus the highest percentile that
//! still has at least [`MIN_BEYOND`] samples beyond it, each with its
//! sample count. A failed operation misses every latency limit, so it
//! enters a latency sample as `f64::INFINITY`.

/// Samples a tail percentile must have beyond it to be reported.
pub const MIN_BEYOND: f64 = 10.0;

/// Candidate tail percentiles, highest first.
const TAIL_LADDER: [f64; 7] = [99.9, 99.0, 95.0, 90.0, 80.0, 75.0, 50.0];

/// Samples of `n` beyond the `p`-th percentile (rounded against float
/// error, so 10 000 samples leave 10 beyond p99.9).
pub fn beyond(n: usize, p: f64) -> f64 {
    (n as f64 * (100.0 - p) / 100.0 * 1e6).round() / 1e6
}

/// The highest percentile on the ladder that `n` samples support: at least
/// [`MIN_BEYOND`] samples lie beyond it. `None` below 20 samples.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .into_iter()
        .find(|&p| beyond(n, p) >= MIN_BEYOND)
}

/// The `p`-th percentile (0..=100) of `values`, linearly interpolated
/// between closest ranks. Infinite samples sort last.
///
/// # Panics
///
/// Panics on an empty sample.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    if lo == hi || sorted[lo] == sorted[hi] {
        return sorted[lo];
    }
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// The quiet quartile of per-window figures: the 25th percentile of a
/// lower-is-better figure, the 75th of a higher-is-better one. A slow
/// spell of a shared host that covers up to three quarters of the windows
/// does not move it; a slower program moves every window, and so it.
///
/// # Panics
///
/// Panics on an empty sample.
pub fn quiet_quartile(values: &[f64], higher_is_better: bool) -> f64 {
    percentile(values, if higher_is_better { 75.0 } else { 25.0 })
}

/// A latency sample reduced by the reporting rule.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Samples, failures included.
    pub n: usize,
    /// The median.
    pub p50: f64,
    /// The tail percentile reported.
    pub tail_p: f64,
    /// Its value.
    pub tail: f64,
}

impl Summary {
    /// Summarizes `values` at the fixed tail percentile `tail_p`.
    ///
    /// # Panics
    ///
    /// Panics if the sample is too small to leave [`MIN_BEYOND`] samples
    /// beyond `tail_p`: a workload fixes its tail percentile and sizes its
    /// run to support it, so a shortfall is a bug in the workload.
    pub fn at(values: &[f64], tail_p: f64) -> Summary {
        let n = values.len();
        assert!(
            tail_percentile(n).is_some_and(|best| best >= tail_p),
            "{n} samples do not support p{tail_p}"
        );
        Summary {
            n,
            p50: median(values),
            tail_p,
            tail: percentile(values, tail_p),
        }
    }

    /// Summarizes `values` at the highest percentile they support.
    pub fn best(values: &[f64]) -> Option<Summary> {
        let tail_p = tail_percentile(values.len())?;
        Some(Summary::at(values, tail_p))
    }

    /// `p50 X (n=N), pT Y (N beyond)` with values scaled by `scale`.
    pub fn describe(&self, scale: f64, unit: &str) -> String {
        format!(
            "p50 {:.3} {unit} (n={}), p{} {:.3} {unit} ({} beyond)",
            self.p50 * scale,
            self.n,
            self.tail_p,
            self.tail * scale,
            beyond(self.n, self.tail_p).floor()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(72), Some(80.0));
        assert_eq!(tail_percentile(99), Some(80.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
    }

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(median(&v), 3.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 5.0);
        assert!((percentile(&v, 90.0) - 4.6).abs() < 1e-12);
        assert_eq!(median(&[4.0, 1.0]), 2.5);
    }

    #[test]
    fn quiet_quartile_steps_over_a_long_slow_spell() {
        // 12 windows, the last 8 slowed 3x: the median moves, the quiet
        // quartile does not.
        let mut lat = vec![1.0; 4];
        lat.extend([3.0; 8]);
        assert_eq!(median(&lat), 3.0);
        assert_eq!(quiet_quartile(&lat, false), 1.0);
        let rate: Vec<f64> = lat.iter().map(|l| 1.0 / l).collect();
        assert_eq!(quiet_quartile(&rate, true), 1.0);
        // Every window slowed: the quiet quartile moves with them.
        let slower: Vec<f64> = lat.iter().map(|l| 2.0 * l).collect();
        assert_eq!(quiet_quartile(&slower, false), 2.0);
    }

    #[test]
    fn failures_miss_every_limit() {
        // 100 samples with 11 failures: p90 lands among the failures.
        let mut v = vec![1.0; 89];
        v.extend([f64::INFINITY; 11]);
        let s = Summary::at(&v, 90.0);
        assert_eq!((s.n, s.p50), (100, 1.0));
        assert!(s.tail.is_infinite());
    }

    #[test]
    fn summary_reports_the_rule_percentile_and_count() {
        let v: Vec<f64> = (0..1000).map(f64::from).collect();
        let s = Summary::best(&v).expect("enough samples");
        assert_eq!((s.n, s.tail_p), (1000, 99.0));
        assert!(s.describe(1.0, "ms").contains("(n=1000)"));
        assert!(s.describe(1.0, "ms").contains("(10 beyond)"));
        assert!(Summary::best(&v[..10]).is_none());
    }

    #[test]
    #[should_panic(expected = "do not support p99")]
    fn too_few_samples_for_a_fixed_tail_panics() {
        let v = vec![1.0; 999];
        let _ = Summary::at(&v, 99.0);
    }
}
