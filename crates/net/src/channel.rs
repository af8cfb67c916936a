//! Stochastic packet-loss channels.
//!
//! The experiment simulator transmits each packet through a loss channel;
//! the analytical side only sees the long-run packet success rate `p_s`.
//! Two channels are provided: i.i.d. Bernoulli losses (matching the
//! analysis exactly) and a two-state Gilbert–Elliott channel for bursty
//! losses, used by robustness experiments to probe where the i.i.d.
//! assumption in eq. (20) starts to bias the model.

use rand::Rng;

/// A channel that decides, per packet, whether it is delivered.
pub trait LossChannel {
    /// Returns `true` if the packet survives the channel.
    fn transmit<R: Rng + ?Sized>(&mut self, rng: &mut R) -> bool;

    /// Long-run packet success probability of this channel.
    fn success_rate(&self) -> f64;
}

/// Why a channel constructor rejected its parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ChannelError {
    /// A probability parameter was NaN or outside `[0, 1]`.
    BadProbability {
        /// Which parameter.
        what: &'static str,
        /// The offending value (possibly NaN).
        value: f64,
    },
    /// Both transition probabilities are zero: the chain never leaves its
    /// start state and the stationary distribution is undefined.
    DegenerateChain,
}

impl std::fmt::Display for ChannelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChannelError::BadProbability { what, value } => {
                write!(f, "{what} = {value} is not a probability in [0, 1]")
            }
            ChannelError::DegenerateChain => {
                write!(f, "p_gb + p_bg must be > 0 for an irreducible chain")
            }
        }
    }
}

impl std::error::Error for ChannelError {}

/// `Ok(value)` iff `value` is a real probability. NaN fails `contains`
/// too, but is checked first so the error names it explicitly.
fn checked_prob(what: &'static str, value: f64) -> Result<f64, ChannelError> {
    if value.is_nan() || !(0.0..=1.0).contains(&value) {
        return Err(ChannelError::BadProbability { what, value });
    }
    Ok(value)
}

/// Independent losses with fixed success probability.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BernoulliChannel {
    /// Probability a packet is delivered.
    pub p_success: f64,
}

impl BernoulliChannel {
    /// Build a channel, rejecting NaN and out-of-range probabilities with
    /// a descriptive error.
    pub fn try_new(p_success: f64) -> Result<Self, ChannelError> {
        Ok(BernoulliChannel {
            p_success: checked_prob("p_success", p_success)?,
        })
    }

    /// Build a channel; panics unless `p_success ∈ [0, 1]`. Thin wrapper
    /// over [`try_new`](Self::try_new) for trusted, hard-coded parameters.
    pub fn new(p_success: f64) -> Self {
        match Self::try_new(p_success) {
            Ok(ch) => ch,
            Err(e) => panic!("success probability must be in [0, 1]: {e}"),
        }
    }
}

impl LossChannel for BernoulliChannel {
    fn transmit<R: Rng + ?Sized>(&mut self, rng: &mut R) -> bool {
        rng.gen_bool(self.p_success)
    }

    fn success_rate(&self) -> f64 {
        self.p_success
    }
}

/// Two-state Markov (Gilbert–Elliott) channel: a Good state with high
/// delivery probability and a Bad state with low delivery probability.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GilbertElliottChannel {
    /// P(good → bad) per packet.
    pub p_gb: f64,
    /// P(bad → good) per packet.
    pub p_bg: f64,
    /// Delivery probability in the Good state.
    pub good_success: f64,
    /// Delivery probability in the Bad state.
    pub bad_success: f64,
    in_good: bool,
}

impl GilbertElliottChannel {
    /// Build a channel starting in the Good state, rejecting NaN and
    /// out-of-range parameters with a descriptive error.
    ///
    /// NaN transition probabilities are caught here by name: a NaN `p_gb`
    /// would otherwise defeat the `p_gb + p_bg > 0` irreducibility check
    /// (any comparison with NaN is false) and surface much later as a
    /// panic inside the per-packet Bernoulli draw.
    pub fn try_new(
        p_gb: f64,
        p_bg: f64,
        good_success: f64,
        bad_success: f64,
    ) -> Result<Self, ChannelError> {
        let p_gb = checked_prob("p_gb", p_gb)?;
        let p_bg = checked_prob("p_bg", p_bg)?;
        let good_success = checked_prob("good_success", good_success)?;
        let bad_success = checked_prob("bad_success", bad_success)?;
        if p_gb + p_bg <= 0.0 {
            return Err(ChannelError::DegenerateChain);
        }
        Ok(GilbertElliottChannel {
            p_gb,
            p_bg,
            good_success,
            bad_success,
            in_good: true,
        })
    }

    /// Build a channel starting in the Good state; panics on invalid
    /// parameters. Thin wrapper over [`try_new`](Self::try_new) for
    /// trusted, hard-coded parameters.
    pub fn new(p_gb: f64, p_bg: f64, good_success: f64, bad_success: f64) -> Self {
        match Self::try_new(p_gb, p_bg, good_success, bad_success) {
            Ok(ch) => ch,
            Err(e) => panic!("invalid Gilbert–Elliott parameters, must be in [0, 1]: {e}"),
        }
    }

    /// Stationary probability of being in the Good state.
    fn stationary_good(&self) -> f64 {
        self.p_bg / (self.p_gb + self.p_bg)
    }
}

impl LossChannel for GilbertElliottChannel {
    fn transmit<R: Rng + ?Sized>(&mut self, rng: &mut R) -> bool {
        // State transition first, then a delivery draw in the new state.
        let flip = if self.in_good { self.p_gb } else { self.p_bg };
        if rng.gen_bool(flip) {
            self.in_good = !self.in_good;
        }
        let p = if self.in_good {
            self.good_success
        } else {
            self.bad_success
        };
        rng.gen_bool(p)
    }

    fn success_rate(&self) -> f64 {
        let pg = self.stationary_good();
        pg * self.good_success + (1.0 - pg) * self.bad_success
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn bernoulli_empirical_rate_matches() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut ch = BernoulliChannel::new(0.9);
        let n = 100_000;
        let delivered = (0..n).filter(|_| ch.transmit(&mut rng)).count();
        let rate = delivered as f64 / n as f64;
        assert!((rate - 0.9).abs() < 0.01, "rate={rate}");
        assert_eq!(ch.success_rate(), 0.9);
    }

    #[test]
    fn bernoulli_extremes() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut perfect = BernoulliChannel::new(1.0);
        let mut broken = BernoulliChannel::new(0.0);
        for _ in 0..100 {
            assert!(perfect.transmit(&mut rng));
            assert!(!broken.transmit(&mut rng));
        }
    }

    #[test]
    fn gilbert_elliott_long_run_rate() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut ch = GilbertElliottChannel::new(0.05, 0.2, 0.99, 0.5);
        let n = 200_000;
        let delivered = (0..n).filter(|_| ch.transmit(&mut rng)).count();
        let rate = delivered as f64 / n as f64;
        assert!(
            (rate - ch.success_rate()).abs() < 0.01,
            "empirical {rate} vs analytic {}",
            ch.success_rate()
        );
    }

    #[test]
    fn gilbert_elliott_stationary_distribution() {
        let ch = GilbertElliottChannel::new(0.1, 0.3, 1.0, 0.0);
        assert!((ch.stationary_good() - 0.75).abs() < 1e-12);
        assert!((ch.success_rate() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn gilbert_elliott_losses_are_bursty() {
        // Mean loss-run length must exceed the i.i.d. value for the same
        // overall rate.
        let mut rng = StdRng::seed_from_u64(4);
        let mut ge = GilbertElliottChannel::new(0.01, 0.1, 1.0, 0.2);
        let mut runs = Vec::new();
        let mut current = 0usize;
        for _ in 0..200_000 {
            if ge.transmit(&mut rng) {
                if current > 0 {
                    runs.push(current);
                    current = 0;
                }
            } else {
                current += 1;
            }
        }
        let mean_run: f64 = runs.iter().sum::<usize>() as f64 / runs.len() as f64;
        let loss_rate = 1.0 - ge.success_rate();
        let iid_mean_run = 1.0 / (1.0 - loss_rate);
        assert!(
            mean_run > 1.5 * iid_mean_run,
            "mean_run={mean_run}, iid={iid_mean_run}"
        );
    }

    #[test]
    #[should_panic(expected = "must be in [0, 1]")]
    fn invalid_probability_rejected() {
        BernoulliChannel::new(1.5);
    }

    #[test]
    fn try_new_rejects_bad_probabilities_descriptively() {
        for bad in [-0.1, 1.5, f64::NAN, f64::INFINITY] {
            let err = BernoulliChannel::try_new(bad).expect_err("must reject");
            match err {
                ChannelError::BadProbability { what, .. } => assert_eq!(what, "p_success"),
                other => panic!("expected BadProbability, got {other:?}"),
            }
        }
        assert_eq!(
            BernoulliChannel::try_new(0.5).expect("valid probability").p_success,
            0.5
        );
    }

    #[test]
    fn gilbert_elliott_try_new_rejects_nan_transitions() {
        // NaN in a transition probability defeats every ordered comparison,
        // so it must be rejected by name before the irreducibility check.
        let err = GilbertElliottChannel::try_new(f64::NAN, 0.2, 0.9, 0.5)
            .expect_err("NaN p_gb must be rejected");
        match err {
            ChannelError::BadProbability { what, value } => {
                assert_eq!(what, "p_gb");
                assert!(value.is_nan());
            }
            other => panic!("expected BadProbability, got {other:?}"),
        }
        let err = GilbertElliottChannel::try_new(0.1, f64::NAN, 0.9, 0.5)
            .expect_err("NaN p_bg must be rejected");
        assert!(matches!(err, ChannelError::BadProbability { what: "p_bg", .. }));
        assert!(err.to_string().contains("NaN"), "{err}");
    }

    #[test]
    fn gilbert_elliott_try_new_rejects_degenerate_chain() {
        assert_eq!(
            GilbertElliottChannel::try_new(0.0, 0.0, 1.0, 0.0),
            Err(ChannelError::DegenerateChain)
        );
        let ch = GilbertElliottChannel::try_new(0.1, 0.3, 0.95, 0.2)
            .expect("valid parameters must build");
        assert!((ch.stationary_good() - 0.75).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "must be in [0, 1]")]
    fn gilbert_elliott_new_panics_on_nan() {
        GilbertElliottChannel::new(0.1, 0.2, f64::NAN, 0.5);
    }

    mod properties {
        use super::super::*;
        use proptest::prelude::*;
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        proptest! {
            /// Satellite check: for random valid Gilbert–Elliott transition
            /// matrices the empirical long-run delivery rate converges to
            /// the analytic `success_rate()` (stationary mixture of the
            /// per-state delivery probabilities).
            #[test]
            fn gilbert_elliott_empirical_rate_matches_analytic(
                p_gb in 0.05f64..0.5,
                p_bg in 0.05f64..0.5,
                good in 0.7f64..1.0,
                bad in 0.0f64..0.5,
                seed in 0u64..1_000,
            ) {
                let mut ch = GilbertElliottChannel::new(p_gb, p_bg, good, bad);
                let mut rng = StdRng::seed_from_u64(seed);
                // Burn in so the start-in-Good bias decays before measuring.
                for _ in 0..1_000 {
                    ch.transmit(&mut rng);
                }
                let n = 100_000;
                let delivered = (0..n).filter(|_| ch.transmit(&mut rng)).count();
                let empirical = delivered as f64 / n as f64;
                let analytic = ch.success_rate();
                // Transition probabilities ≥ 0.05 keep the mixing time short,
                // so 100k draws put the MC error well inside 0.025.
                prop_assert!(
                    (empirical - analytic).abs() < 0.025,
                    "empirical {} vs analytic {} (p_gb={}, p_bg={}, good={}, bad={})",
                    empirical, analytic, p_gb, p_bg, good, bad
                );
            }
        }
    }
}
