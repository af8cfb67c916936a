//! Encryption-cost model.
//!
//! The analytical framework (paper Section 4.2.2) needs the *distribution*
//! of the encryption time `T_e` for a packet: approximately Gaussian around
//! a size-dependent mean (eq. 15). This module provides that abstraction:
//! a per-(algorithm, device) affine cost `t(n) = setup + n·per_byte`, plus a
//! jitter term, and a calibration routine that fits the model from observed
//! `(bytes, seconds)` samples — mirroring how the paper "uses an initial
//! sequence of events to tune the parameters" (Section 6.1).

use crate::Algorithm;

/// One observed encryption timing: `bytes` encrypted in `seconds`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostSample {
    /// Payload length in bytes.
    pub bytes: usize,
    /// Measured wall-clock duration in seconds.
    pub seconds: f64,
}

/// Affine per-packet encryption cost with Gaussian jitter.
///
/// `time(n) ~ Normal(setup_s + n * per_byte_s, jitter_std_s²)`, truncated at
/// zero when sampled. All times are in seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Fixed per-call overhead (key/IV setup, JNI boundary in the paper's
    /// Android app), seconds.
    pub setup_s: f64,
    /// Marginal cost per payload byte, seconds.
    pub per_byte_s: f64,
    /// Standard deviation of the residual jitter, seconds.
    pub jitter_std_s: f64,
}

impl CostModel {
    /// A reference software profile for `algorithm` on a CPU with the given
    /// clock in GHz, assuming table-driven cipher code at ~25 cycles/byte
    /// for AES-128 scaled by [`Algorithm::relative_cost`].
    pub fn reference(algorithm: Algorithm, clock_ghz: f64) -> Self {
        assert!(clock_ghz > 0.0, "clock must be positive");
        let cycles_per_byte = 25.0 * algorithm.relative_cost();
        let per_byte_s = cycles_per_byte / (clock_ghz * 1e9);
        CostModel {
            // ~2µs fixed overhead per segment call (key schedule is cached,
            // this is the IV derivation + call overhead).
            setup_s: 2e-6,
            per_byte_s,
            jitter_std_s: per_byte_s * 40.0, // jitter comparable to ~40 bytes of work
        }
    }

    /// Mean encryption time for an `n`-byte packet, seconds.
    pub fn mean_time(&self, n: usize) -> f64 {
        self.setup_s + n as f64 * self.per_byte_s
    }

    /// Least-squares fit of `(setup_s, per_byte_s)` from timing samples, with
    /// `jitter_std_s` set to the residual standard deviation.
    ///
    /// Returns `None` when fewer than two distinct packet sizes are supplied
    /// (the affine model is then unidentifiable).
    pub fn fit(samples: &[CostSample]) -> Option<Self> {
        if samples.len() < 2 {
            return None;
        }
        let n = samples.len() as f64;
        let sx: f64 = samples.iter().map(|s| s.bytes as f64).sum();
        let sy: f64 = samples.iter().map(|s| s.seconds).sum();
        let sxx: f64 = samples.iter().map(|s| (s.bytes as f64).powi(2)).sum();
        let sxy: f64 = samples.iter().map(|s| s.bytes as f64 * s.seconds).sum();
        let denom = n * sxx - sx * sx;
        if denom.abs() < f64::EPSILON {
            return None; // all samples have the same size
        }
        let per_byte_s = (n * sxy - sx * sy) / denom;
        let setup_s = (sy - per_byte_s * sx) / n;
        let mut ss_res = 0.0;
        for s in samples {
            let pred = setup_s + per_byte_s * s.bytes as f64;
            ss_res += (s.seconds - pred).powi(2);
        }
        let jitter_std_s = (ss_res / n).sqrt();
        Some(CostModel {
            setup_s,
            per_byte_s,
            jitter_std_s,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_models_preserve_algorithm_ordering() {
        let ghz = 1.2; // Samsung Galaxy S-II clock
        let aes128 = CostModel::reference(Algorithm::Aes128, ghz);
        let aes256 = CostModel::reference(Algorithm::Aes256, ghz);
        let tdes = CostModel::reference(Algorithm::TripleDes, ghz);
        let n = 1460;
        assert!(aes128.mean_time(n) < aes256.mean_time(n));
        assert!(aes256.mean_time(n) < tdes.mean_time(n));
        // 3DES ≈ 6× AES128 marginal cost
        let ratio = tdes.per_byte_s / aes128.per_byte_s;
        assert!((ratio - 6.0).abs() < 1e-9);
    }

    #[test]
    fn faster_clock_means_lower_cost() {
        let slow = CostModel::reference(Algorithm::Aes256, 1.2);
        let fast = CostModel::reference(Algorithm::Aes256, 1.5);
        assert!(fast.per_byte_s < slow.per_byte_s);
    }

    #[test]
    fn fit_recovers_exact_affine_data() {
        let truth = CostModel {
            setup_s: 3e-6,
            per_byte_s: 2e-8,
            jitter_std_s: 0.0,
        };
        let samples: Vec<CostSample> = [100usize, 400, 800, 1460]
            .iter()
            .map(|&bytes| CostSample {
                bytes,
                seconds: truth.mean_time(bytes),
            })
            .collect();
        let fitted = CostModel::fit(&samples).unwrap();
        assert!((fitted.setup_s - truth.setup_s).abs() < 1e-12);
        assert!((fitted.per_byte_s - truth.per_byte_s).abs() < 1e-14);
        assert!(fitted.jitter_std_s < 1e-12);
    }

    #[test]
    fn fit_rejects_degenerate_inputs() {
        assert!(CostModel::fit(&[]).is_none());
        assert!(CostModel::fit(&[CostSample {
            bytes: 100,
            seconds: 1e-5
        }])
        .is_none());
        // Two samples with identical sizes: slope unidentifiable.
        let same = [
            CostSample {
                bytes: 100,
                seconds: 1e-5,
            },
            CostSample {
                bytes: 100,
                seconds: 2e-5,
            },
        ];
        assert!(CostModel::fit(&same).is_none());
    }

    #[test]
    fn mean_time_is_monotone_in_size() {
        let m = CostModel::reference(Algorithm::Aes128, 1.0);
        assert!(m.mean_time(0) < m.mean_time(1));
        assert!(m.mean_time(100) < m.mean_time(1460));
    }
}
