//! # thrifty-energy
//!
//! Device power model — the substitute for the paper's Monsoon
//! power-monitor measurements (Section 6.3).
//!
//! The paper measures phone power during the transfer and reports, e.g.,
//! that on the Samsung Galaxy S-II with slow-motion video a fully encrypted
//! stream draws **+140%** over the unencrypted baseline while encrypting
//! only I-frames draws **+11%** (a 92% saving), and that encrypting only
//! P-frames costs more than encrypting only I-frames.
//!
//! Two effects produce that shape, and the model captures both:
//!
//! * a **per-byte CPU cost** — cipher cycles × joules/cycle (3DES ≫ AES);
//! * a **duty-cycle cost** — every frame whose packets need encryption
//!   wakes the CPU/crypto path out of its low-power state for a wake
//!   window. P-frames arrive 29× more often than I-frames, so P-encryption
//!   keeps the core awake almost continuously while I-encryption lets it
//!   sleep ~97% of the time. This is why the paper's I-only policy is so
//!   much cheaper than its byte count alone would suggest.
//!
//! Power is modelled directly in watts ([`PowerProfile::power_w`]). The
//! paper's eq. (29) converts Monsoon µAh readings to watts; there is no
//! Monsoon trace to convert here, so the conversion is not implemented.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use thrifty_analytic::policy::Policy;
use thrifty_video::encoder::EncodedStream;

/// Power characteristics of one device (calibrated to Section 6.3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerProfile {
    /// Device name (matches the analytic crate's `DeviceSpec`).
    pub name: &'static str,
    /// Baseline draw while the app streams without encryption: screen,
    /// SoC base load and WiFi radio, watts.
    pub baseline_w: f64,
    /// Extra draw while the CPU/crypto path is out of its sleep state, W.
    pub crypto_active_w: f64,
    /// Wake window per encrypted frame: the core cannot re-enter sleep for
    /// this long around each activation, seconds.
    pub wake_window_s: f64,
    /// Energy per cipher cycle, joules (per-byte work term).
    pub joules_per_cycle: f64,
    /// CPU clock, GHz (converts cycles to busy time).
    pub clock_ghz: f64,
}

/// Samsung Galaxy S-II (1.2 GHz Cortex-A9, 45 nm) — the less efficient of
/// the paper's two devices: the steepest observed increase is +140%.
pub const SAMSUNG_GALAXY_S2_POWER: PowerProfile = PowerProfile {
    name: "Samsung S-II",
    baseline_w: 1.15,
    crypto_active_w: 1.55,
    wake_window_s: 28e-3,
    joules_per_cycle: 0.65e-9,
    clock_ghz: 1.2,
};

/// HTC Amaze 4G (1.5 GHz Snapdragon S3) — "the increase in the power
/// consumption is not as steep; the largest increase is by 50%".
pub const HTC_AMAZE_4G_POWER: PowerProfile = PowerProfile {
    name: "HTC Amaze 4G",
    baseline_w: 1.35,
    crypto_active_w: 0.62,
    wake_window_s: 22e-3,
    joules_per_cycle: 0.30e-9,
    clock_ghz: 1.5,
};

/// Per-second workload a policy puts on the crypto path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CryptoLoad {
    /// Encrypted payload bytes per second of streaming.
    pub encrypted_bytes_per_s: f64,
    /// Frames per second that contain at least one encrypted packet
    /// (each wakes the crypto path once).
    pub encrypted_frames_per_s: f64,
    /// Cipher cycles per encrypted byte (from the algorithm).
    pub cycles_per_byte: f64,
}

impl CryptoLoad {
    /// Derive the load a policy induces on a coded stream.
    ///
    /// Uses expected values: a frame counts as "encrypted" with the
    /// per-class selection probability of the policy (for fractional
    /// policies this is the per-frame activation probability).
    pub fn from_stream(stream: &EncodedStream, policy: Policy) -> Self {
        let duration = stream.duration_s().max(f64::MIN_POSITIVE);
        let mut enc_bytes = 0.0;
        let mut enc_frames = 0.0;
        for f in &stream.frames {
            let q = policy.mode.encrypt_prob(f.ftype);
            enc_bytes += q * f.bytes as f64;
            enc_frames += q; // probability this frame wakes the crypto path
        }
        CryptoLoad {
            encrypted_bytes_per_s: enc_bytes / duration,
            encrypted_frames_per_s: enc_frames / duration,
            cycles_per_byte: 25.0 * policy.algorithm.relative_cost(),
        }
    }
}

impl PowerProfile {
    /// Mean power while streaming under the given crypto load, watts.
    pub fn power_w(&self, load: &CryptoLoad) -> f64 {
        // Duty cycle of the awake state: activations × window, capped at 1.
        let duty = (load.encrypted_frames_per_s * self.wake_window_s).min(1.0);
        let cycles_per_s = load.encrypted_bytes_per_s * load.cycles_per_byte;
        self.baseline_w + self.crypto_active_w * duty + self.joules_per_cycle * cycles_per_s
    }

    /// Relative power increase of `load` over the unencrypted baseline
    /// (`0.11` ⇔ "+11%").
    pub fn relative_increase(&self, load: &CryptoLoad) -> f64 {
        self.power_w(load) / self.baseline_w - 1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use thrifty_analytic::policy::{EncryptionMode, Policy};
    use thrifty_crypto::Algorithm;
    use thrifty_video::encoder::StatisticalEncoder;
    use thrifty_video::motion::MotionLevel;

    fn stream(motion: MotionLevel) -> EncodedStream {
        let mut rng = StdRng::seed_from_u64(42);
        StatisticalEncoder::new(motion, 30).encode(300, &mut rng)
    }

    fn load(motion: MotionLevel, alg: Algorithm, mode: EncryptionMode) -> CryptoLoad {
        CryptoLoad::from_stream(&stream(motion), Policy::new(alg, mode))
    }

    #[test]
    fn policy_power_ordering_none_i_p_all() {
        for profile in [SAMSUNG_GALAXY_S2_POWER, HTC_AMAZE_4G_POWER] {
            for motion in [MotionLevel::Low, MotionLevel::High] {
                let p = |mode| profile.power_w(&load(motion, Algorithm::Aes256, mode));
                let none = p(EncryptionMode::None);
                let i = p(EncryptionMode::IFrames);
                let pp = p(EncryptionMode::PFrames);
                let all = p(EncryptionMode::All);
                assert!(
                    none < i && i < pp && pp <= all,
                    "{}/{motion}: {none} {i} {pp} {all}",
                    profile.name
                );
            }
        }
    }

    #[test]
    fn samsung_slow_matches_paper_headlines() {
        // +140% for all (3DES panel), +11% for I-only, ⇒ ~92% savings.
        let profile = SAMSUNG_GALAXY_S2_POWER;
        let all = profile.relative_increase(&load(
            MotionLevel::Low,
            Algorithm::TripleDes,
            EncryptionMode::All,
        ));
        let i_only = profile.relative_increase(&load(
            MotionLevel::Low,
            Algorithm::TripleDes,
            EncryptionMode::IFrames,
        ));
        assert!((1.0..2.0).contains(&all), "all-policy increase {all}");
        assert!(i_only < 0.2, "I-only increase {i_only}");
        let savings = (all - i_only) / all;
        assert!(savings > 0.85, "savings {savings} should be ≈ 92%");
    }

    #[test]
    fn htc_increases_are_flatter_than_samsung() {
        for motion in [MotionLevel::Low, MotionLevel::High] {
            let s2 = SAMSUNG_GALAXY_S2_POWER.relative_increase(&load(
                motion,
                Algorithm::Aes256,
                EncryptionMode::All,
            ));
            let htc = HTC_AMAZE_4G_POWER.relative_increase(&load(
                motion,
                Algorithm::Aes256,
                EncryptionMode::All,
            ));
            assert!(htc < s2, "{motion}: HTC {htc} vs Samsung {s2}");
        }
    }

    #[test]
    fn tdes_draws_more_than_aes() {
        let profile = SAMSUNG_GALAXY_S2_POWER;
        let aes = profile.power_w(&load(
            MotionLevel::High,
            Algorithm::Aes128,
            EncryptionMode::All,
        ));
        let tdes = profile.power_w(&load(
            MotionLevel::High,
            Algorithm::TripleDes,
            EncryptionMode::All,
        ));
        assert!(tdes > aes);
    }

    #[test]
    fn fractional_policy_interpolates() {
        let profile = SAMSUNG_GALAXY_S2_POWER;
        let i = profile.power_w(&load(
            MotionLevel::High,
            Algorithm::Aes256,
            EncryptionMode::IFrames,
        ));
        let i20 = profile.power_w(&load(
            MotionLevel::High,
            Algorithm::Aes256,
            EncryptionMode::IPlusFractionP(0.2),
        ));
        let all = profile.power_w(&load(
            MotionLevel::High,
            Algorithm::Aes256,
            EncryptionMode::All,
        ));
        assert!(i < i20 && i20 < all);
        // Figure 9 text: I+20%P ≈ 1.48 W vs I-only 1.28 W on the Samsung —
        // the step from I to I+20%P is modest compared to the full jump.
        assert!((i20 - i) < 0.5 * (all - i));
    }

    #[test]
    fn watts_are_in_phone_range() {
        for profile in [SAMSUNG_GALAXY_S2_POWER, HTC_AMAZE_4G_POWER] {
            for mode in EncryptionMode::TABLE1 {
                for alg in Algorithm::ALL {
                    let w = profile.power_w(&load(MotionLevel::High, alg, mode));
                    assert!(
                        (0.8..5.0).contains(&w),
                        "{} {alg} {mode}: {w} W",
                        profile.name
                    );
                }
            }
        }
    }
}
