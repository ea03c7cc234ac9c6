//! Wall-clock measurement summaries: median of k timed repetitions.
//!
//! Medians resist scheduler noise far better than means. `flat_vm`'s
//! `measure` produces these after untimed warmup runs, which absorb
//! one-time costs (page faults, allocator growth) so the autotuner
//! compares steady-state times.

/// Timing summary of repeated runs. The median is the headline number;
/// the spread statistics (and the raw runs) capture variance so results
/// JSON records more than a point estimate.
#[derive(Clone, Debug)]
pub struct Measurement {
    /// Median wall time over the timed runs, nanoseconds. For an even
    /// count, the mean of the two middle runs.
    pub median_nanos: f64,
    /// Fastest timed run, nanoseconds.
    pub min_nanos: f64,
    /// Slowest timed run, nanoseconds.
    pub max_nanos: f64,
    /// Arithmetic mean over the timed runs, nanoseconds.
    pub mean_nanos: f64,
    /// Population standard deviation over the timed runs, nanoseconds
    /// (0 for a single run).
    pub stddev_nanos: f64,
    /// Every timed run's wall time, in execution order.
    pub runs: Vec<f64>,
}

impl Measurement {
    /// Summarize a non-empty list of per-rep wall times.
    pub fn from_runs(runs: Vec<f64>) -> Measurement {
        assert!(!runs.is_empty(), "measurement needs at least one run");
        let mut sorted = runs.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("wall times are finite"));
        let median_nanos = if sorted.len() % 2 == 1 {
            sorted[sorted.len() / 2]
        } else {
            (sorted[sorted.len() / 2 - 1] + sorted[sorted.len() / 2]) / 2.0
        };
        let n = runs.len() as f64;
        let mean_nanos = runs.iter().sum::<f64>() / n;
        let var = runs.iter().map(|r| (r - mean_nanos).powi(2)).sum::<f64>() / n;
        Measurement {
            median_nanos,
            min_nanos: sorted[0],
            max_nanos: sorted[sorted.len() - 1],
            mean_nanos,
            stddev_nanos: var.sqrt(),
            runs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_runs_computes_the_spread() {
        let m = Measurement::from_runs(vec![2.0, 4.0, 6.0, 8.0]);
        assert_eq!(m.median_nanos, 5.0);
        assert_eq!(m.min_nanos, 2.0);
        assert_eq!(m.max_nanos, 8.0);
        assert_eq!(m.mean_nanos, 5.0);
        assert!((m.stddev_nanos - 5.0f64.sqrt()).abs() < 1e-9);

        let single = Measurement::from_runs(vec![7.0]);
        assert_eq!(single.median_nanos, 7.0);
        assert_eq!(single.stddev_nanos, 0.0);
    }
}
