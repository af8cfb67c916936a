//! Adaptive retransmission-timeout estimation.
//!
//! The classic Jacobson/Karn algorithm (RFC 6298): a smoothed RTT and its
//! mean deviation are folded together into `RTO = SRTT + 4·RTTVAR`, every
//! timeout doubles the timeout up to a cap, and a fresh (non-retransmitted)
//! sample collapses the backoff again. The estimator is a pure state
//! machine over caller-supplied time values — it never reads a clock — so
//! a simulation feeding it sim-seconds stays bit-reproducible.
//!
//! Karn's rule is the *caller's* half of the contract: never feed
//! [`RtoEstimator::on_rtt_sample`] a sample measured on a segment that was
//! retransmitted (the sample is ambiguous — it may time the retransmit).
//! The sim harnesses in `thrifty-bench` honour this by sampling only
//! first-attempt deliveries.

/// Why an [`RtoConfig`] was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RtoConfigError {
    /// A timeout parameter was NaN or infinite.
    NotFinite(&'static str),
    /// A timeout parameter was zero or negative.
    NonPositive(&'static str),
    /// The bounds are not ordered `min ≤ initial ≤ max`.
    Unordered,
    /// The backoff cap would overflow the doubling exponent.
    BackoffTooLarge(u32),
}

impl std::fmt::Display for RtoConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RtoConfigError::NotFinite(what) => write!(f, "{what} must be finite"),
            RtoConfigError::NonPositive(what) => write!(f, "{what} must be > 0"),
            RtoConfigError::Unordered => {
                write!(f, "bounds must satisfy min_rto_s <= initial_rto_s <= max_rto_s")
            }
            RtoConfigError::BackoffTooLarge(v) => {
                write!(f, "max_backoff {v} exceeds the supported cap of 32 doublings")
            }
        }
    }
}

impl std::error::Error for RtoConfigError {}

/// Validated bounds of an [`RtoEstimator`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RtoConfig {
    /// RTO before any sample has arrived, seconds.
    pub initial_rto_s: f64,
    /// Hard lower bound on the produced RTO, seconds.
    pub min_rto_s: f64,
    /// Hard upper bound on the produced RTO, seconds (caps the backoff).
    pub max_rto_s: f64,
    /// Maximum number of timeout doublings.
    pub max_backoff: u32,
}

impl RtoConfig {
    /// Build a config, rejecting NaN/infinite/non-positive timeouts,
    /// unordered bounds and an overflowing backoff cap.
    pub fn try_new(
        initial_rto_s: f64,
        min_rto_s: f64,
        max_rto_s: f64,
        max_backoff: u32,
    ) -> Result<Self, RtoConfigError> {
        for (what, v) in [
            ("initial_rto_s", initial_rto_s),
            ("min_rto_s", min_rto_s),
            ("max_rto_s", max_rto_s),
        ] {
            if !v.is_finite() {
                return Err(RtoConfigError::NotFinite(what));
            }
            if v <= 0.0 {
                return Err(RtoConfigError::NonPositive(what));
            }
        }
        if !(min_rto_s <= initial_rto_s && initial_rto_s <= max_rto_s) {
            return Err(RtoConfigError::Unordered);
        }
        if max_backoff > 32 {
            return Err(RtoConfigError::BackoffTooLarge(max_backoff));
        }
        Ok(RtoConfig {
            initial_rto_s,
            min_rto_s,
            max_rto_s,
            max_backoff,
        })
    }
}

impl Default for RtoConfig {
    /// Conservative application-layer defaults: start at 50 ms, floor at
    /// 2 ms, cap at 800 ms after at most 6 doublings.
    fn default() -> Self {
        RtoConfig {
            initial_rto_s: 0.05,
            min_rto_s: 0.002,
            max_rto_s: 0.8,
            max_backoff: 6,
        }
    }
}

/// Jacobson/Karn adaptive RTO state.
///
/// Invariants (pinned by the proptest suite in `tests/`):
///
/// * [`rto_s`](Self::rto_s) is always finite and inside
///   `[min_rto_s, max_rto_s]`;
/// * consecutive [`on_timeout`](Self::on_timeout) calls never *decrease*
///   the RTO, and it saturates once the backoff cap or `max_rto_s` binds;
/// * hostile samples (NaN, infinite, non-positive) are ignored, never
///   absorbed into the state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RtoEstimator {
    config: RtoConfig,
    /// Smoothed RTT; negative sentinel would invite float-compare traps,
    /// so absence is modelled with `Option`.
    srtt_s: Option<f64>,
    rttvar_s: f64,
    backoff: u32,
}

impl RtoEstimator {
    /// Fresh estimator: no samples yet, RTO = `initial_rto_s`.
    pub fn new(config: RtoConfig) -> Self {
        RtoEstimator {
            config,
            srtt_s: None,
            rttvar_s: 0.0,
            backoff: 0,
        }
    }

    /// The validated bounds this estimator operates under.
    pub fn config(&self) -> &RtoConfig {
        &self.config
    }

    /// Fold in one RTT sample from a **first-attempt** delivery (Karn's
    /// rule: the caller must skip samples from retransmitted segments).
    /// Non-finite or non-positive samples are ignored. A valid sample
    /// resets the exponential backoff.
    pub fn on_rtt_sample(&mut self, rtt_s: f64) {
        if !rtt_s.is_finite() || rtt_s <= 0.0 {
            return;
        }
        match self.srtt_s {
            None => {
                // First sample (RFC 6298 §2.2): SRTT = R, RTTVAR = R/2.
                self.srtt_s = Some(rtt_s);
                self.rttvar_s = rtt_s / 2.0;
            }
            Some(srtt) => {
                // RTTVAR = 3/4·RTTVAR + 1/4·|SRTT − R|, then
                // SRTT = 7/8·SRTT + 1/8·R (the RFC's update order).
                self.rttvar_s = 0.75 * self.rttvar_s + 0.25 * (srtt - rtt_s).abs();
                self.srtt_s = Some(0.875 * srtt + 0.125 * rtt_s);
            }
        }
        self.backoff = 0;
    }

    /// Record a retransmission timeout: double the RTO (up to the cap).
    pub fn on_timeout(&mut self) {
        self.backoff = (self.backoff + 1).min(self.config.max_backoff);
    }

    /// Current doubling count.
    pub fn backoff(&self) -> u32 {
        self.backoff
    }

    /// The retransmission timeout to wait right now, seconds. Always
    /// finite and clamped to `[min_rto_s, max_rto_s]`.
    pub fn rto_s(&self) -> f64 {
        let base = match self.srtt_s {
            Some(srtt) => srtt + 4.0 * self.rttvar_s,
            None => self.config.initial_rto_s,
        };
        let base = base.clamp(self.config.min_rto_s, self.config.max_rto_s);
        let scaled = base * 2f64.powi(self.backoff.min(32) as i32);
        scaled.clamp(self.config.min_rto_s, self.config.max_rto_s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl RtoEstimator {
        /// Smoothed RTT, if at least one sample arrived.
        pub fn srtt_s(&self) -> Option<f64> {
            self.srtt_s
        }
    }

    #[test]
    fn default_config_is_valid() {
        let c = RtoConfig::default();
        assert_eq!(
            RtoConfig::try_new(c.initial_rto_s, c.min_rto_s, c.max_rto_s, c.max_backoff),
            Ok(c)
        );
    }

    #[test]
    fn try_new_rejects_hostile_parameters() {
        use RtoConfigError::*;
        assert_eq!(RtoConfig::try_new(f64::NAN, 0.01, 1.0, 6), Err(NotFinite("initial_rto_s")));
        assert_eq!(
            RtoConfig::try_new(0.05, f64::INFINITY, 1.0, 6),
            Err(NotFinite("min_rto_s"))
        );
        assert_eq!(RtoConfig::try_new(0.05, 0.01, -1.0, 6), Err(NonPositive("max_rto_s")));
        assert_eq!(RtoConfig::try_new(0.05, 0.01, 0.0, 6), Err(NonPositive("max_rto_s")));
        assert_eq!(RtoConfig::try_new(0.005, 0.01, 1.0, 6), Err(Unordered));
        assert_eq!(RtoConfig::try_new(2.0, 0.01, 1.0, 6), Err(Unordered));
        assert_eq!(RtoConfig::try_new(0.05, 0.01, 1.0, 33), Err(BackoffTooLarge(33)));
    }

    #[test]
    fn first_sample_initialises_per_rfc() {
        let mut e = RtoEstimator::new(RtoConfig::default());
        assert_eq!(e.srtt_s(), None);
        assert!((e.rto_s() - 0.05).abs() < 1e-12, "pre-sample RTO is initial");
        e.on_rtt_sample(0.1);
        assert_eq!(e.srtt_s(), Some(0.1));
        // SRTT + 4·(R/2) = 0.1 + 0.2 = 0.3.
        assert!((e.rto_s() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn steady_samples_converge_to_srtt() {
        let mut e = RtoEstimator::new(RtoConfig::default());
        for _ in 0..200 {
            e.on_rtt_sample(0.02);
        }
        let srtt = e.srtt_s().unwrap();
        assert!((srtt - 0.02).abs() < 1e-9, "constant samples converge: {srtt}");
        // RTTVAR decays toward 0, so the RTO approaches SRTT (floored).
        assert!(e.rto_s() < 0.03, "rto {}", e.rto_s());
        assert!(e.rto_s() >= e.config().min_rto_s);
    }

    #[test]
    fn timeouts_double_until_capped() {
        let cfg = RtoConfig::try_new(0.05, 0.002, 10.0, 4).unwrap();
        let mut e = RtoEstimator::new(cfg);
        let mut last = e.rto_s();
        for _ in 0..10 {
            e.on_timeout();
            let now = e.rto_s();
            assert!(now >= last, "monotone under timeouts: {now} < {last}");
            last = now;
        }
        assert_eq!(e.backoff(), 4);
        assert!((last - 0.05 * 16.0).abs() < 1e-12, "capped at 2^4 doublings");
        // A fresh sample collapses the backoff.
        e.on_rtt_sample(0.01);
        assert_eq!(e.backoff(), 0);
        assert!(e.rto_s() < last);
    }

    #[test]
    fn max_rto_binds_before_the_doubling_runs_away() {
        let cfg = RtoConfig::try_new(0.05, 0.002, 0.08, 20).unwrap();
        let mut e = RtoEstimator::new(cfg);
        for _ in 0..20 {
            e.on_timeout();
        }
        assert!((e.rto_s() - 0.08).abs() < 1e-12);
    }

    #[test]
    fn hostile_samples_are_ignored() {
        let mut e = RtoEstimator::new(RtoConfig::default());
        e.on_rtt_sample(0.1);
        let before = e;
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -0.5] {
            e.on_rtt_sample(bad);
            assert_eq!(e, before, "sample {bad} must be ignored");
        }
    }

    #[test]
    fn rto_stays_in_bounds_under_extreme_samples() {
        let cfg = RtoConfig::try_new(0.05, 0.01, 0.5, 6).unwrap();
        let mut e = RtoEstimator::new(cfg);
        e.on_rtt_sample(1e6); // absurdly slow path
        assert!((e.rto_s() - 0.5).abs() < 1e-12, "clamped to max");
        e.on_rtt_sample(1e-9); // absurdly fast path, repeatedly
        for _ in 0..100 {
            e.on_rtt_sample(1e-9);
        }
        assert!(e.rto_s() >= 0.01, "clamped to min: {}", e.rto_s());
    }
}
