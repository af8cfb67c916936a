//! The paper's headline numbers, recomputed from the models.
//!
//! Abstract / Section 1: "by selectively encrypting parts of a video flow
//! one can preserve the confidentiality while reducing delay by as much as
//! **75%** and the energy consumption by as much as **92%**". This module
//! recomputes both ratios for any (content, device, cipher) context so the
//! claim can be regression-tested and regenerated in EXPERIMENTS.md.

use crate::advisor::{PolicyAdvisor, PrivacyPreference};
use thrifty_video::motion::MotionLevel;

/// The savings of the balanced policy relative to encrypt-everything.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HeadlineMetrics {
    /// 1 − delay(balanced)/delay(all): the "delay reduction".
    pub delay_reduction: f64,
    /// Energy-increase savings: 1 − ΔP(balanced)/ΔP(all), where ΔP is the
    /// power increase over the unencrypted baseline (the paper's 92%).
    pub energy_savings: f64,
    /// Predicted eavesdropper MOS under the balanced policy.
    pub balanced_mos: f64,
    /// Predicted eavesdropper MOS with everything encrypted.
    pub full_mos: f64,
}

/// Compute the headline ratios for one content class on a calibrated
/// advisor's device/cipher context.
pub fn headline_metrics(motion: MotionLevel, advisor: &PolicyAdvisor) -> HeadlineMetrics {
    assert_eq!(
        advisor.params.motion, motion,
        "advisor must be calibrated for the requested motion class"
    );
    let balanced = advisor.recommend(PrivacyPreference::Balanced);
    let full = advisor.recommend(PrivacyPreference::FullPrivacy);
    let none = advisor.recommend(PrivacyPreference::NoPrivacy);
    let delay_reduction = 1.0 - balanced.delay.mean_delay_s / full.delay.mean_delay_s;
    let d_full = (full.power_w - none.power_w).max(f64::MIN_POSITIVE);
    let d_balanced = (balanced.power_w - none.power_w).max(0.0);
    HeadlineMetrics {
        delay_reduction,
        energy_savings: 1.0 - d_balanced / d_full,
        balanced_mos: balanced.distortion.mos,
        full_mos: full.distortion.mos,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use thrifty_analytic::params::SAMSUNG_GALAXY_S2;
    use thrifty_crypto::Algorithm;

    #[test]
    fn slow_motion_headlines_match_the_paper_scale() {
        let advisor = PolicyAdvisor::calibrate(
            MotionLevel::Low,
            30,
            SAMSUNG_GALAXY_S2,
            Algorithm::TripleDes,
        );
        let h = headline_metrics(MotionLevel::Low, &advisor);
        // Paper: up to 75% delay reduction and up to 92% energy savings.
        assert!(
            h.delay_reduction > 0.4,
            "delay reduction {}",
            h.delay_reduction
        );
        assert!(
            h.energy_savings > 0.8,
            "energy savings {}",
            h.energy_savings
        );
        // Confidentiality is preserved while saving.
        assert!(h.balanced_mos < 1.4, "balanced MOS {}", h.balanced_mos);
    }

    #[test]
    fn fast_motion_saves_less_than_slow() {
        // Section 1: "As a consequence, the savings in cost are less
        // significant" for fast motion.
        let slow =
            PolicyAdvisor::calibrate(MotionLevel::Low, 30, SAMSUNG_GALAXY_S2, Algorithm::Aes256);
        let fast =
            PolicyAdvisor::calibrate(MotionLevel::High, 30, SAMSUNG_GALAXY_S2, Algorithm::Aes256);
        let h_slow = headline_metrics(MotionLevel::Low, &slow);
        let h_fast = headline_metrics(MotionLevel::High, &fast);
        assert!(
            h_fast.energy_savings < h_slow.energy_savings,
            "fast {} vs slow {}",
            h_fast.energy_savings,
            h_slow.energy_savings
        );
    }

    #[test]
    fn headline_ratios_are_internally_consistent() {
        let advisor =
            PolicyAdvisor::calibrate(MotionLevel::High, 30, SAMSUNG_GALAXY_S2, Algorithm::Aes256);
        let h = headline_metrics(MotionLevel::High, &advisor);
        // Both ratios are genuine savings: strictly inside (0, 1).
        assert!((0.0..1.0).contains(&h.delay_reduction), "{h:?}");
        assert!((0.0..1.0).contains(&h.energy_savings), "{h:?}");
        // The recomputed delay ratio matches its definition.
        let balanced = advisor.recommend(PrivacyPreference::Balanced);
        let full = advisor.recommend(PrivacyPreference::FullPrivacy);
        let expected = 1.0 - balanced.delay.mean_delay_s / full.delay.mean_delay_s;
        assert!((h.delay_reduction - expected).abs() < 1e-12);
        // Full encryption can only obfuscate at least as hard as balanced,
        // and MOS floors at 1 (unviewable).
        assert!(h.full_mos <= h.balanced_mos + 1e-9, "{h:?}");
        assert!(h.full_mos >= 1.0 && h.balanced_mos >= 1.0, "{h:?}");
    }

    #[test]
    fn slow_3des_delay_reduction_pins_the_paper_headline() {
        // The abstract's "as much as 75%" delay figure comes from the
        // slow-motion 3DES cell; the calibrated model reproduces it to
        // within a few points (EXPERIMENTS.md records 75.1%).
        let advisor = PolicyAdvisor::calibrate(
            MotionLevel::Low,
            30,
            SAMSUNG_GALAXY_S2,
            Algorithm::TripleDes,
        );
        let h = headline_metrics(MotionLevel::Low, &advisor);
        assert!(
            (0.70..0.80).contains(&h.delay_reduction),
            "delay reduction {} should sit at the paper's ≈75%",
            h.delay_reduction
        );
        assert!(
            h.energy_savings > 0.9,
            "energy savings {}",
            h.energy_savings
        );
    }

    #[test]
    fn balanced_policy_keeps_the_stream_unviewable() {
        // Table 2's criterion: the recommended policy leaves the
        // eavesdropper at MOS ≈ 1 on both content classes.
        for motion in [MotionLevel::Low, MotionLevel::High] {
            let advisor =
                PolicyAdvisor::calibrate(motion, 30, SAMSUNG_GALAXY_S2, Algorithm::Aes256);
            let h = headline_metrics(motion, &advisor);
            assert!(h.balanced_mos < 1.2, "{motion}: MOS {}", h.balanced_mos);
        }
    }

    #[test]
    #[should_panic(expected = "advisor must be calibrated")]
    fn mismatched_motion_is_rejected() {
        let advisor =
            PolicyAdvisor::calibrate(MotionLevel::Low, 30, SAMSUNG_GALAXY_S2, Algorithm::Aes256);
        headline_metrics(MotionLevel::High, &advisor);
    }
}
