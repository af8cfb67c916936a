//! Sample statistics with 95% confidence intervals.
//!
//! "Each experiment is repeated 20 times and the values … are used to
//! compute the averages and the 95% confidence intervals" (Section 6.1).

/// Mean, spread and a normal-approximation 95% confidence half-width of a
/// sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of observations.
    pub n: usize,
    /// Sample mean.
    pub mean: f64,
    /// Sample standard deviation (n−1 denominator).
    pub std_dev: f64,
    /// 95% confidence half-width: `1.96 · s/√n` (0 for n < 2).
    pub ci95: f64,
}

impl Summary {
    /// Summarise a sample. Panics on an empty slice.
    pub fn of(values: &[f64]) -> Summary {
        assert!(!values.is_empty(), "cannot summarise an empty sample");
        let n = values.len();
        let mean = values.iter().sum::<f64>() / n as f64;
        if n < 2 {
            return Summary {
                n,
                mean,
                std_dev: 0.0,
                ci95: 0.0,
            };
        }
        let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (n as f64 - 1.0);
        let std_dev = var.sqrt();
        Summary {
            n,
            mean,
            std_dev,
            ci95: 1.96 * std_dev / (n as f64).sqrt(),
        }
    }
}

impl std::fmt::Display for Summary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.4} ± {:.4}", self.mean, self.ci95)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_sample() {
        let s = Summary::of(&[2.0; 10]);
        assert_eq!(s.mean, 2.0);
        assert_eq!(s.std_dev, 0.0);
        assert_eq!(s.ci95, 0.0);
    }

    #[test]
    fn known_small_sample() {
        // {1, 2, 3}: mean 2, sample variance 1.
        let s = Summary::of(&[1.0, 2.0, 3.0]);
        assert_eq!(s.mean, 2.0);
        assert!((s.std_dev - 1.0).abs() < 1e-12);
        assert!((s.ci95 - 1.96 / 3f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn single_observation_has_no_interval() {
        let s = Summary::of(&[7.5]);
        assert_eq!(s.mean, 7.5);
        assert_eq!(s.ci95, 0.0);
    }

    #[test]
    fn ci_shrinks_with_sample_size() {
        let small: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let big: Vec<f64> = (0..1000).map(|i| (i % 10) as f64).collect();
        assert!(Summary::of(&big).ci95 < Summary::of(&small).ci95);
    }

    #[test]
    #[should_panic(expected = "empty sample")]
    fn empty_sample_panics() {
        Summary::of(&[]);
    }
}
