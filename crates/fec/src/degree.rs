//! Robust-soliton degree distribution (Luby 2002).
//!
//! The ideal soliton ρ keeps the *expected* ripple at one recovered symbol
//! per peeling step; the robust correction τ adds a floor of low-degree
//! symbols plus a spike at degree `k/S` so the ripple survives variance
//! with probability ≥ 1 − δ at an overhead of only `Z ≈ 1 + O(√k·ln²(k/δ)/k)`.
//! The distribution is precomputed as a CDF and sampled by binary search,
//! so one degree draw costs one RNG word and O(log k).

/// Default robust-soliton `c` parameter (ripple-size scale).
const DEFAULT_C: f64 = 0.05;
/// Default robust-soliton decode-failure target δ.
const DEFAULT_DELTA: f64 = 0.05;

/// A precomputed robust-soliton distribution over degrees `1..=k`.
///
/// Construction is a pure function of `(k, c, delta)`; sampling consumes
/// exactly one `u64` from the caller's RNG, so encoder and decoder that
/// share a seeded stream sample identical degree sequences.
#[derive(Debug, Clone)]
pub struct RobustSoliton {
    k: usize,
    /// `cdf[d-1]` = P(degree ≤ d); strictly increasing, last element 1.0.
    cdf: Vec<f64>,
}

/// Why a [`RobustSoliton`] was rejected by
/// [`try_new`](RobustSoliton::try_new).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SolitonError {
    /// `k == 0`: the distribution needs at least one source symbol.
    ZeroSymbols,
    /// `c` was NaN, infinite, zero or negative.
    BadC(f64),
    /// `delta` was NaN or outside the open interval `(0, 1)`.
    BadDelta(f64),
}

impl std::fmt::Display for SolitonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolitonError::ZeroSymbols => {
                write!(f, "robust soliton needs at least one source symbol")
            }
            SolitonError::BadC(v) => write!(f, "robust soliton c {v} must be finite and > 0"),
            SolitonError::BadDelta(v) => write!(f, "robust soliton delta {v} must be in (0, 1)"),
        }
    }
}

impl std::error::Error for SolitonError {}

impl RobustSoliton {
    /// The distribution for `k` source symbols, rejecting hostile
    /// parameters with a typed error instead of a panic.
    pub fn try_new(k: usize, c: f64, delta: f64) -> Result<Self, SolitonError> {
        if k == 0 {
            return Err(SolitonError::ZeroSymbols);
        }
        if !c.is_finite() || c <= 0.0 {
            return Err(SolitonError::BadC(c));
        }
        if !delta.is_finite() || delta <= 0.0 || delta >= 1.0 {
            return Err(SolitonError::BadDelta(delta));
        }
        Ok(Self::new(k, c, delta))
    }

    /// The distribution for `k` source symbols with explicit parameters.
    ///
    /// # Panics
    /// Panics if `k == 0`, `c <= 0`, or `delta` is outside `(0, 1)`.
    /// Prefer [`try_new`](Self::try_new) for untrusted input.
    pub fn new(k: usize, c: f64, delta: f64) -> Self {
        assert!(k >= 1, "robust soliton needs at least one source symbol");
        assert!(c > 0.0, "robust soliton c must be positive");
        assert!((0.0..1.0).contains(&delta) && delta > 0.0, "delta must be in (0,1)");
        if k == 1 {
            return RobustSoliton { k, cdf: vec![1.0] };
        }
        let kf = k as f64;
        // Expected ripple size S = c·ln(k/δ)·√k, clamped into [1, k].
        let s = (c * (kf / delta).ln() * kf.sqrt()).clamp(1.0, kf);
        // Spike position k/S, clamped to a valid degree.
        let spike = ((kf / s).floor() as usize).clamp(1, k);
        let mut pdf = vec![0.0f64; k];
        for d in 1..=k {
            // Ideal soliton ρ(d).
            let rho = if d == 1 { 1.0 / kf } else { 1.0 / (d as f64 * (d as f64 - 1.0)) };
            // Robust correction τ(d).
            let tau = if d < spike {
                s / (d as f64 * kf)
            } else if d == spike {
                s * (s / delta).ln() / kf
            } else {
                0.0
            };
            pdf[d - 1] = rho + tau;
        }
        let z: f64 = pdf.iter().sum();
        let mut acc = 0.0;
        let cdf = pdf
            .iter()
            .map(|p| {
                acc += p / z;
                acc
            })
            .collect::<Vec<f64>>();
        let mut dist = RobustSoliton { k, cdf };
        // Pin the top of the CDF so a unit draw of exactly 1-ulp-below-1
        // still lands in range regardless of rounding in the partial sums.
        if let Some(last) = dist.cdf.last_mut() {
            *last = 1.0;
        }
        dist
    }

    /// The distribution with the workspace default `(c, δ)` parameters.
    pub fn with_defaults(k: usize) -> Self {
        Self::new(k, DEFAULT_C, DEFAULT_DELTA)
    }

    /// Number of source symbols the distribution ranges over.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Map a uniform variate `u ∈ [0, 1)` to a degree in `1..=k`
    /// (inverse-CDF by binary search). Deterministic in `u`.
    pub fn degree_for_unit(&self, u: f64) -> usize {
        self.cdf.partition_point(|&c| c <= u) + 1
    }

    /// P(degree ≤ d); 1.0 for `d ≥ k`, 0 for `d == 0`.
    pub fn cdf(&self, d: usize) -> f64 {
        if d == 0 {
            0.0
        } else {
            self.cdf[(d - 1).min(self.k - 1)]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn try_new_rejects_hostile_parameters() {
        assert!(matches!(
            RobustSoliton::try_new(0, 0.1, 0.05),
            Err(SolitonError::ZeroSymbols)
        ));
        assert!(matches!(
            RobustSoliton::try_new(10, f64::NAN, 0.05),
            Err(SolitonError::BadC(v)) if v.is_nan()
        ));
        assert!(matches!(
            RobustSoliton::try_new(10, 0.0, 0.05),
            Err(SolitonError::BadC(v)) if v == 0.0
        ));
        assert!(matches!(
            RobustSoliton::try_new(10, -0.1, 0.05),
            Err(SolitonError::BadC(v)) if v < 0.0
        ));
        assert!(matches!(
            RobustSoliton::try_new(10, 0.1, f64::NAN),
            Err(SolitonError::BadDelta(v)) if v.is_nan()
        ));
        assert!(matches!(
            RobustSoliton::try_new(10, 0.1, 0.0),
            Err(SolitonError::BadDelta(v)) if v == 0.0
        ));
        assert!(matches!(
            RobustSoliton::try_new(10, 0.1, 1.0),
            Err(SolitonError::BadDelta(v)) if v == 1.0
        ));
        assert!(RobustSoliton::try_new(10, 0.1, 0.05).is_ok());
    }

    #[test]
    fn degenerate_k1_always_degree_one() {
        let d = RobustSoliton::with_defaults(1);
        for u in [0.0, 0.3, 0.999_999] {
            assert_eq!(d.degree_for_unit(u), 1);
        }
    }

    #[test]
    fn degrees_stay_in_range_and_cover_low_degrees() {
        let dist = RobustSoliton::with_defaults(100);
        let mut rng = StdRng::seed_from_u64(11);
        let mut ones = 0usize;
        let mut twos = 0usize;
        for _ in 0..20_000 {
            let d = dist.degree_for_unit(rng.gen_range(0.0..1.0));
            assert!((1..=100).contains(&d), "degree {d} out of range");
            if d == 1 {
                ones += 1;
            }
            if d == 2 {
                twos += 1;
            }
        }
        // Degree 1 must exist (the ripple seeds) but be rare; degree 2
        // dominates (ρ(2) = 1/2 before normalisation).
        assert!(ones > 0, "no degree-1 symbols sampled");
        assert!(ones < 4_000, "degree-1 overrepresented: {ones}");
        assert!(twos > 5_000, "degree-2 underrepresented: {twos}");
    }

    #[test]
    fn cdf_is_monotone_and_ends_at_one() {
        for k in [1usize, 2, 3, 10, 64, 500] {
            let dist = RobustSoliton::with_defaults(k);
            let mut prev = 0.0;
            for d in 1..=k {
                let c = dist.cdf(d);
                assert!(c >= prev, "cdf not monotone at k={k} d={d}");
                prev = c;
            }
            assert_eq!(dist.cdf(k), 1.0);
            assert_eq!(dist.cdf(0), 0.0);
        }
    }

    #[test]
    fn mean_degree_is_logarithmic_not_linear() {
        let k = 200;
        let dist = RobustSoliton::with_defaults(k);
        let mut rng = StdRng::seed_from_u64(5);
        let n = 50_000;
        let mean: f64 = (0..n)
            .map(|_| dist.degree_for_unit(rng.gen_range(0.0..1.0)) as f64)
            .sum::<f64>()
            / n as f64;
        // Robust soliton mean is O(ln(k/δ)) ≈ 8-ish at k=200 — far below k.
        assert!(mean > 2.0 && mean < 25.0, "implausible mean degree {mean}");
    }
}
