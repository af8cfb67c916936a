//! The policy advisor — the "Encryption policy with minimum penalties" box
//! of Figure 1.
//!
//! The user picks a privacy preference; for the balanced choice the advisor
//! evaluates candidate packet-selection modes with the analytical framework
//! and returns the cheapest one (by predicted delay, then power) whose
//! predicted eavesdropper MOS is at or below a confidentiality threshold.
//! The paper's Section 6.2 findings fall out of this search: slow-motion
//! content needs only the I-frames encrypted, fast-motion content needs
//! I + ≈20% of the P-frame packets.

use thrifty_analytic::delay::{DelayModel, DelayPrediction};
use thrifty_analytic::distortion::{DistortionModel, DistortionPrediction, Observer};
use thrifty_analytic::params::{DeviceSpec, ScenarioParams};
use thrifty_analytic::policy::{EncryptionMode, Policy};
use thrifty_analytic::regression::SceneDistortion;
use thrifty_crypto::Algorithm;
use thrifty_energy::{CryptoLoad, PowerProfile, HTC_AMAZE_4G_POWER, SAMSUNG_GALAXY_S2_POWER};
use thrifty_video::encoder::{EncodedStream, StatisticalEncoder};
use thrifty_video::motion::MotionLevel;

use rand::rngs::StdRng;
use rand::SeedableRng;

/// The privacy choices offered to the user (Figure 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrivacyPreference {
    /// "No privacy": transmit everything in the open.
    NoPrivacy,
    /// "Full privacy": encrypt every packet.
    FullPrivacy,
    /// "Preserve privacy with performance tradeoff": let the model pick the
    /// cheapest sufficient policy.
    Balanced,
}

/// A recommended policy together with its predicted consequences.
#[derive(Debug, Clone)]
pub struct Recommendation {
    /// The chosen policy.
    pub policy: Policy,
    /// Predicted sender-side delay figures.
    pub delay: DelayPrediction,
    /// Predicted eavesdropper distortion figures.
    pub distortion: DistortionPrediction,
    /// Predicted device power, watts.
    pub power_w: f64,
    /// One-line justification for logs/UIs.
    pub rationale: String,
}

/// Calibrated advisor for one (content, device, cipher) context.
pub struct PolicyAdvisor {
    /// The calibrated scenario (minimal measurements of Section 6.1).
    pub params: ScenarioParams,
    /// The Figure 2 distortion measurement for this motion class.
    pub scene: SceneDistortion,
    /// Reference coded stream used for power estimation.
    pub stream: EncodedStream,
    /// Cipher the user's devices agreed on.
    pub algorithm: Algorithm,
    /// Device power profile.
    pub power: PowerProfile,
    /// Confidentiality bar: predicted eavesdropper PSNR (dB) must not
    /// exceed this. The paper's criterion is "almost complete obfuscation"
    /// (MOS ≈ 1.2, Table 2); because the analytic MOS floors at 1 once
    /// every frame falls below 20 dB, the PSNR bar is the binding
    /// constraint in the model. 12.5 dB reproduces the paper's choices:
    /// I-only for slow motion, I+20%P for fast motion.
    pub psnr_threshold_db: f64,
    /// Candidate P-fractions examined for fast content (Figure 9 grid).
    pub alpha_grid: Vec<f64>,
}

impl PolicyAdvisor {
    /// Calibrate from content class and device, like the app would after
    /// sampling a few seconds of the clip.
    pub fn calibrate(
        motion: MotionLevel,
        gop_size: usize,
        device: DeviceSpec,
        algorithm: Algorithm,
    ) -> Self {
        let params = ScenarioParams::calibrated(motion, gop_size, device, 5, 0.92);
        let scene = SceneDistortion::measure(motion, 60, 12, 11);
        let mut rng = StdRng::seed_from_u64(17);
        let stream = StatisticalEncoder::new(motion, gop_size).encode(300, &mut rng);
        let power = if device.name.contains("HTC") {
            HTC_AMAZE_4G_POWER
        } else {
            SAMSUNG_GALAXY_S2_POWER
        };
        PolicyAdvisor {
            params,
            scene,
            stream,
            algorithm,
            power,
            psnr_threshold_db: 12.5,
            alpha_grid: vec![0.0, 0.1, 0.15, 0.2, 0.25, 0.3, 0.5, 1.0],
        }
    }

    /// Evaluate one mode end to end.
    fn evaluate(&self, mode: EncryptionMode) -> Recommendation {
        let policy = Policy::new(self.algorithm, mode);
        let delay = DelayModel::new(&self.params)
            .predict(policy)
            .expect("calibration keeps every candidate stable");
        let distortion =
            DistortionModel::new(&self.params, &self.scene).predict(policy, Observer::Eavesdropper);
        let power_w = self
            .power
            .power_w(&CryptoLoad::from_stream(&self.stream, policy));
        Recommendation {
            policy,
            delay,
            distortion,
            power_w,
            rationale: String::new(),
        }
    }

    /// Recommend a policy for a privacy preference.
    pub fn recommend(&self, preference: PrivacyPreference) -> Recommendation {
        match preference {
            PrivacyPreference::NoPrivacy => {
                let mut r = self.evaluate(EncryptionMode::None);
                r.rationale = "user requested no privacy; zero encryption cost".into();
                r
            }
            PrivacyPreference::FullPrivacy => {
                let mut r = self.evaluate(EncryptionMode::All);
                r.rationale = "user requested full privacy; every packet encrypted".into();
                r
            }
            PrivacyPreference::Balanced => self.balanced(),
        }
    }

    /// The Figure 1 search: cheapest candidate whose predicted eavesdropper
    /// MOS is at or below the threshold.
    fn balanced(&self) -> Recommendation {
        let mut best: Option<Recommendation> = None;
        for &alpha in &self.alpha_grid {
            // lint:allow(num-float-eq): alpha 0.0 is an exact grid point selecting the I-frames-only mode
            let mode = if alpha == 0.0 {
                EncryptionMode::IFrames
            } else {
                EncryptionMode::IPlusFractionP(alpha)
            };
            let r = self.evaluate(mode);
            if r.distortion.psnr_db > self.psnr_threshold_db {
                continue; // not obfuscated enough
            }
            let better = match &best {
                None => true,
                Some(b) => {
                    r.delay.mean_delay_s < b.delay.mean_delay_s
                        || (r.delay.mean_delay_s == b.delay.mean_delay_s && r.power_w < b.power_w)
                }
            };
            if better {
                best = Some(r);
            }
        }
        let mut chosen = best.unwrap_or_else(|| self.evaluate(EncryptionMode::All));
        chosen.rationale = format!(
            "cheapest candidate with predicted eavesdropper PSNR {:.1} dB <= {:.1} dB on {} content",
            chosen.distortion.psnr_db, self.psnr_threshold_db, self.params.motion
        );
        chosen
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use thrifty_analytic::params::SAMSUNG_GALAXY_S2;

    fn advisor(motion: MotionLevel) -> PolicyAdvisor {
        PolicyAdvisor::calibrate(motion, 30, SAMSUNG_GALAXY_S2, Algorithm::Aes256)
    }

    #[test]
    fn extremes_pass_through() {
        let a = advisor(MotionLevel::Low);
        assert_eq!(
            a.recommend(PrivacyPreference::NoPrivacy).policy.mode,
            EncryptionMode::None
        );
        assert_eq!(
            a.recommend(PrivacyPreference::FullPrivacy).policy.mode,
            EncryptionMode::All
        );
    }

    #[test]
    fn slow_motion_needs_only_i_frames() {
        // Section 6.2: "with slow-motion video the encryption of the
        // I-frames sufficiently protects the content".
        let a = advisor(MotionLevel::Low);
        let r = a.recommend(PrivacyPreference::Balanced);
        assert_eq!(r.policy.mode, EncryptionMode::IFrames, "{r:?}");
        assert!(r.distortion.psnr_db <= a.psnr_threshold_db);
    }

    #[test]
    fn fast_motion_needs_a_p_fraction() {
        // Section 6.2: "with fast-motion video, 20% of the P-frames need to
        // be encrypted in addition to the I-frames".
        let a = advisor(MotionLevel::High);
        let r = a.recommend(PrivacyPreference::Balanced);
        match r.policy.mode {
            EncryptionMode::IPlusFractionP(alpha) => {
                assert!(
                    (0.05..=0.5).contains(&alpha),
                    "alpha {alpha} should be a modest fraction"
                );
            }
            other => panic!("fast motion should need I+αP, got {other}"),
        }
        assert!(r.distortion.psnr_db <= a.psnr_threshold_db);
    }

    #[test]
    fn balanced_is_cheaper_than_full_privacy() {
        for motion in [MotionLevel::Low, MotionLevel::High] {
            let a = advisor(motion);
            let balanced = a.recommend(PrivacyPreference::Balanced);
            let full = a.recommend(PrivacyPreference::FullPrivacy);
            assert!(
                balanced.delay.mean_delay_s < full.delay.mean_delay_s,
                "{motion}: delay"
            );
            assert!(balanced.power_w < full.power_w, "{motion}: power");
        }
    }

    #[test]
    fn recommendations_carry_rationales() {
        let a = advisor(MotionLevel::Low);
        for pref in [
            PrivacyPreference::NoPrivacy,
            PrivacyPreference::FullPrivacy,
            PrivacyPreference::Balanced,
        ] {
            assert!(!a.recommend(pref).rationale.is_empty());
        }
    }

    #[test]
    fn fast_motion_pins_the_paper_table2_alpha() {
        // Table 2 / Section 6.2: α = 20% is the first fraction giving
        // "almost complete obfuscation" on fast content — the advisor must
        // land exactly there, not on a neighbouring grid point.
        let a = advisor(MotionLevel::High);
        let r = a.recommend(PrivacyPreference::Balanced);
        assert_eq!(r.policy.mode, EncryptionMode::IPlusFractionP(0.2), "{r:?}");
    }

    #[test]
    fn table2_alpha_ladder_crosses_the_threshold_at_20_percent() {
        // The Table 2 ladder: predicted eavesdropper PSNR falls as α grows,
        // delay rises, and the confidentiality bar is first met at α = 0.2.
        let a = advisor(MotionLevel::High);
        let ladder: Vec<Recommendation> = a
            .alpha_grid
            .iter()
            .map(|&alpha| {
                a.evaluate(if alpha == 0.0 {
                    EncryptionMode::IFrames
                } else {
                    EncryptionMode::IPlusFractionP(alpha)
                })
            })
            .collect();
        for pair in ladder.windows(2) {
            assert!(
                pair[1].distortion.psnr_db <= pair[0].distortion.psnr_db + 1e-9,
                "PSNR must fall along the α ladder: {} then {}",
                pair[0].distortion.psnr_db,
                pair[1].distortion.psnr_db
            );
            assert!(
                pair[1].delay.mean_delay_s >= pair[0].delay.mean_delay_s - 1e-12,
                "delay must grow along the α ladder"
            );
        }
        for (alpha, r) in a.alpha_grid.iter().zip(&ladder) {
            if *alpha < 0.2 {
                assert!(
                    r.distortion.psnr_db > a.psnr_threshold_db,
                    "α={alpha} should leak too much ({} dB)",
                    r.distortion.psnr_db
                );
            } else {
                assert!(
                    r.distortion.psnr_db <= a.psnr_threshold_db,
                    "α={alpha} should obfuscate enough ({} dB)",
                    r.distortion.psnr_db
                );
            }
        }
    }

    #[test]
    fn mode_choice_is_independent_of_the_cipher() {
        // Table 2 is an AES-256 table, but the selection (which packets)
        // depends on distortion only — 3DES must pick the same modes.
        for (motion, expected) in [
            (MotionLevel::Low, EncryptionMode::IFrames),
            (MotionLevel::High, EncryptionMode::IPlusFractionP(0.2)),
        ] {
            for alg in [Algorithm::Aes256, Algorithm::TripleDes] {
                let a = PolicyAdvisor::calibrate(motion, 30, SAMSUNG_GALAXY_S2, alg);
                let r = a.recommend(PrivacyPreference::Balanced);
                assert_eq!(r.policy.mode, expected, "{motion}, {alg}");
            }
        }
    }

    #[test]
    fn impossible_threshold_falls_back_to_encrypt_all() {
        let mut a = advisor(MotionLevel::High);
        a.psnr_threshold_db = -1e9; // no partial policy can satisfy this
        let r = a.recommend(PrivacyPreference::Balanced);
        assert_eq!(r.policy.mode, EncryptionMode::All, "{r:?}");
        assert!(!r.rationale.is_empty());
    }

    #[test]
    fn lax_threshold_stops_at_i_frames() {
        // Even a trivially satisfied bar never recommends cleartext: the
        // balanced search starts at the I-frames (α = 0 grid point).
        let mut a = advisor(MotionLevel::High);
        a.psnr_threshold_db = 1e9;
        let r = a.recommend(PrivacyPreference::Balanced);
        assert_eq!(r.policy.mode, EncryptionMode::IFrames, "{r:?}");
    }

    #[test]
    fn medium_motion_gets_a_policy_between_the_extremes() {
        let a = advisor(MotionLevel::Medium);
        let r = a.recommend(PrivacyPreference::Balanced);
        assert!(
            matches!(
                r.policy.mode,
                EncryptionMode::IFrames | EncryptionMode::IPlusFractionP(_)
            ),
            "{r:?}"
        );
        assert!(r.distortion.psnr_db <= a.psnr_threshold_db);
    }

    #[test]
    fn calibrate_selects_the_device_power_profile() {
        use thrifty_analytic::params::HTC_AMAZE_4G;
        let samsung = advisor(MotionLevel::Low);
        assert!(
            samsung.power.name.contains("Samsung"),
            "{}",
            samsung.power.name
        );
        let htc = PolicyAdvisor::calibrate(MotionLevel::Low, 30, HTC_AMAZE_4G, Algorithm::Aes256);
        assert!(htc.power.name.contains("HTC"), "{}", htc.power.name);
    }

    #[test]
    fn evaluate_is_consistent_with_mode_costs() {
        let a = advisor(MotionLevel::High);
        let none = a.evaluate(EncryptionMode::None);
        let all = a.evaluate(EncryptionMode::All);
        assert!(none.delay.mean_delay_s < all.delay.mean_delay_s);
        assert!(none.power_w < all.power_w);
        assert!(none.distortion.mos > all.distortion.mos);
    }
}
