//! The distortion model of Section 4.3.
//!
//! Pipeline: per-class packet **decryption rates** (receiver: the channel
//! delivery rate; eavesdropper: `(1 − q_class) ·` delivery rate) → **frame
//! success probabilities** (eq. 20, with the motion-dependent decoder
//! sensitivity `s`) → expected **distortion** through the GOP state chain of
//! eqs. (23)–(27), using the Figure 2 distance measurement
//! ([`SceneDistortion`]) for intra-GOP (Case 1) and inter-GOP (Case 2)
//! reference substitution, and the measured black-screen distortion for the
//! never-received Case 3 → **PSNR** (eq. 28) and a MOS estimate.
//!
//! The chain over GOP states is evaluated exactly by dynamic programming on
//! the *reference staleness* at each GOP boundary (the distance, in frames,
//! from a GOP's first frame back to the last correctly decoded frame, or
//! "never received anything"). This is a tractable, faithful evaluation of
//! the expectation in eqs. (25)–(27): the per-GOP distortion depends on
//! previous GOPs only through that staleness.

use crate::params::ScenarioParams;
use crate::policy::Policy;
use crate::regression::SceneDistortion;
use thrifty_video::quality::mos_class;
use thrifty_video::yuv::psnr_from_mse;
use thrifty_video::FrameType;

/// Who is reconstructing the stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Observer {
    /// The legitimate receiver: decrypts everything it receives.
    Receiver,
    /// The eavesdropper: encrypted packets are erasures (Section 4.3).
    Eavesdropper,
}

/// Predicted quality figures for one (scenario, policy, observer) triple.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DistortionPrediction {
    /// Expected mean-square error over the displayed frames.
    pub expected_mse: f64,
    /// PSNR of the expected distortion (eq. 28), dB — Figures 4/14.
    pub psnr_db: f64,
    /// Estimated Mean Opinion Score (1–5) — Figures 5/15.
    pub mos: f64,
    /// Frame success probability of I-frames (eq. 20).
    pub frame_success_i: f64,
    /// Frame success probability of P-frames.
    pub frame_success_p: f64,
    /// Fraction of displayed frames that are live (not concealed).
    pub live_fraction: f64,
}

/// The distortion model: scenario + measured distance-distortion curve.
#[derive(Debug, Clone)]
pub struct DistortionModel<'a> {
    params: &'a ScenarioParams,
    scene: &'a SceneDistortion,
    /// Number of GOPs evaluated by the state chain (the paper's N).
    pub gops: usize,
    /// Staleness cap, frames (distortion saturates well before; the cap
    /// only bounds the DP state space).
    pub max_staleness: usize,
    /// Override of the P-frame intra-refresh fraction (ablation hook);
    /// `None` uses the motion class default. Setting `Some(0.0)` recovers
    /// the paper's pure frame-copy concealment model.
    pub refresh_override: Option<f64>,
}

impl<'a> DistortionModel<'a> {
    /// Build a model for a scenario and its motion class's Figure 2
    /// measurement.
    pub fn new(params: &'a ScenarioParams, scene: &'a SceneDistortion) -> Self {
        DistortionModel {
            params,
            scene,
            gops: 10,
            max_staleness: 240,
            refresh_override: None,
        }
    }

    /// Per-class packet decryption rate `p_d` for an observer (Section 4.3).
    ///
    /// Both observers overhear the same channel (with MAC retransmissions,
    /// [`ScenarioParams::delivery_rate`]); the eavesdropper additionally
    /// loses every encrypted packet.
    fn decrypt_rate(&self, policy: Policy, observer: Observer, ftype: FrameType) -> f64 {
        let p_d = self.params.delivery_rate();
        match observer {
            Observer::Receiver => p_d,
            Observer::Eavesdropper => (1.0 - policy.mode.encrypt_prob(ftype)) * p_d,
        }
    }

    /// Frame success probability, eq. (20): the first packet must arrive
    /// and decrypt, plus at least `s` of the remaining `n − 1`.
    fn frame_success(&self, n_packets: f64, sensitivity_frac: f64, p_d: f64) -> f64 {
        let n = n_packets.round().max(1.0) as usize;
        if p_d <= 0.0 {
            return 0.0;
        }
        if n == 1 {
            return p_d;
        }
        let s = (sensitivity_frac * (n - 1) as f64).ceil() as usize;
        let s = s.min(n - 1);
        let mut tail = 0.0;
        for j in s..n {
            tail += binomial(n - 1, j) * p_d.powi(j as i32) * (1.0 - p_d).powi((n - 1 - j) as i32);
        }
        p_d * tail
    }

    /// Frame success probabilities (P_I, P_P) for a policy and observer.
    pub fn frame_success_rates(&self, policy: Policy, observer: Observer) -> (f64, f64) {
        let sens = self.params.motion.sensitivity_fraction();
        let stats = &self.params.packet_stats;
        let p_i = self.frame_success(
            stats.mean_fragments_i,
            sens,
            self.decrypt_rate(policy, observer, FrameType::I),
        );
        let p_p = self.frame_success(
            stats.mean_fragments_p,
            sens,
            self.decrypt_rate(policy, observer, FrameType::P),
        );
        (p_i, p_p)
    }

    /// Evaluate the GOP state chain (eqs. 23–27) and map to PSNR/MOS.
    ///
    /// The DP state is the **display MSE** carried across GOP boundaries.
    /// Case 1 (I received, first P loss at k) freezes the rest of the GOP
    /// on the last decoded frame, with the Figure 2 distance curve giving
    /// the cost. Case 2/3 (I unrecoverable) evolves the display by the
    /// per-frame recurrence `M ← (1 − r·P_P)·M + drift`, where `drift` is
    /// the measured adjacent-frame MSE (content moving on) and `r` is the
    /// motion class's P-frame intra-refresh fraction — decoded P-frames
    /// progressively repaint the picture even without their reference,
    /// which is why fast-motion content stays partly viewable under the
    /// I-only policy (the paper's Table 2 MOS of 1.71) while slow-motion
    /// content stays black.
    pub fn predict(&self, policy: Policy, observer: Observer) -> DistortionPrediction {
        let (ps_i, ps_p) = self.frame_success_rates(policy, observer);
        let g = self.params.gop_size;
        let d = |dist: usize| self.scene.distance_mse(dist as f64);

        // Per-frame evolution without a decodable I reference.
        let drift = self.scene.distance_mse(1.0).max(1e-6);
        let refresh = self
            .refresh_override
            .unwrap_or_else(|| self.params.motion.p_refresh_fraction());
        let decay = 1.0 - refresh * ps_p;
        let cap = self.scene.black_mse.max(drift * 2.0);

        // Log-spaced MSE buckets for the cross-GOP display state.
        const NB: usize = 96;
        let m_min = (drift * 0.25).max(1e-4);
        let span = (cap / m_min).ln();
        let bucket_of = |m: f64| -> usize {
            if m <= m_min {
                0
            } else {
                ((((m / m_min).ln() / span) * (NB - 1) as f64).round() as usize).min(NB - 1)
            }
        };
        let value_of = |b: usize| m_min * ((b as f64 / (NB - 1) as f64) * span).exp();

        let mut state = vec![0.0f64; NB];
        state[NB - 1] = 1.0; // before the first GOP the display is black

        // Probability of first-loss state k (eq. 24).
        let mut p_state = vec![0.0; g + 1];
        p_state[0] = 1.0 - ps_i;
        for (k, slot) in p_state.iter_mut().enumerate().take(g).skip(1) {
            *slot = ps_i * ps_p.powi(k as i32 - 1) * (1.0 - ps_p);
        }
        p_state[g] = ps_i * ps_p.powi(g as i32 - 1);

        let mut total_mse = 0.0;
        let mut total_mos = 0.0;
        let mut total_live = 0.0;
        let frames_total = (self.gops * g) as f64;
        let class_of = |mse: f64| mos_class(psnr_from_mse(mse)) as f64;

        // Case-1 costs are state-independent: precompute their frame sums.
        // k = G: all live. k ∈ 1..G: k live + frozen tail from a live ref.
        let mut frozen_mse = vec![0.0; g + 1];
        let mut frozen_mos = vec![0.0; g + 1];
        for k in 1..g {
            for j in k..g {
                let mse = d(j - (k - 1));
                frozen_mse[k] += mse;
                frozen_mos[k] += class_of(mse);
            }
        }

        for _ in 0..self.gops {
            let mut next = vec![0.0f64; NB];
            // State-independent branches first (aggregate probability 1·p).
            let mass: f64 = state.iter().sum();
            {
                let p = mass * p_state[g];
                total_live += p * g as f64;
                total_mos += p * g as f64 * 5.0;
                next[bucket_of(d(1))] += p;
            }
            for k in 1..g {
                let p = mass * p_state[k];
                if p > 0.0 {
                    total_live += p * k as f64;
                    total_mos += p * (k as f64 * 5.0 + frozen_mos[k]);
                    total_mse += p * frozen_mse[k];
                    next[bucket_of(d(g - k + 1))] += p;
                }
            }
            // Case 2/3: I lost — evolve the carried display MSE.
            if p_state[0] > 0.0 {
                for (b, &prob) in state.iter().enumerate() {
                    // lint:allow(num-float-eq): exact-zero skip of empty probability buckets; any nonzero mass must be processed
                    if prob == 0.0 {
                        continue;
                    }
                    let p = prob * p_state[0];
                    let mut m = value_of(b);
                    for _ in 0..g {
                        m = (decay * m + drift).min(cap);
                        total_mse += p * m;
                        total_mos += p * class_of(m);
                    }
                    next[bucket_of(m)] += p;
                }
            }
            state = next;
        }

        let expected_mse = total_mse / frames_total;
        DistortionPrediction {
            expected_mse,
            psnr_db: psnr_from_mse(expected_mse),
            mos: total_mos / frames_total,
            frame_success_i: ps_i,
            frame_success_p: ps_p,
            live_fraction: total_live / frames_total,
        }
    }
}

/// Binomial coefficient as f64 (n ≤ ~30 in practice).
fn binomial(n: usize, k: usize) -> f64 {
    if k > n {
        return 0.0;
    }
    let k = k.min(n - k);
    let mut acc = 1.0;
    for i in 0..k {
        acc = acc * (n - i) as f64 / (i + 1) as f64;
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{ScenarioParams, SAMSUNG_GALAXY_S2};
    use crate::policy::{EncryptionMode, Policy};
    use thrifty_crypto::Algorithm;
    use thrifty_video::motion::MotionLevel;

    fn setup(motion: MotionLevel, gop: usize) -> (ScenarioParams, SceneDistortion) {
        let params = ScenarioParams::calibrated(motion, gop, SAMSUNG_GALAXY_S2, 5, 0.9);
        // QCIF-scale measurement keeps tests fast; distances to 12 frames.
        let scene = SceneDistortion::measure(motion, 40, 12, 7);
        (params, scene)
    }

    fn policy(mode: EncryptionMode) -> Policy {
        Policy::new(Algorithm::Aes256, mode)
    }

    #[test]
    fn binomial_basics() {
        assert_eq!(binomial(5, 0), 1.0);
        assert_eq!(binomial(5, 5), 1.0);
        assert_eq!(binomial(5, 2), 10.0);
        assert_eq!(binomial(10, 3), 120.0);
        assert_eq!(binomial(3, 4), 0.0);
    }

    #[test]
    fn frame_success_sanity() {
        let (params, scene) = setup(MotionLevel::Low, 30);
        let m = DistortionModel::new(&params, &scene);
        assert!((m.frame_success(1.0, 0.5, 1.0) - 1.0).abs() < 1e-12);
        assert_eq!(m.frame_success(5.0, 0.5, 0.0), 0.0);
        let few = m.frame_success(2.0, 0.9, 0.9);
        let many = m.frame_success(11.0, 0.9, 0.9);
        assert!(many < few, "more packets, lower success");
        let lax = m.frame_success(11.0, 0.5, 0.9);
        let strict = m.frame_success(11.0, 0.95, 0.9);
        assert!(strict < lax, "higher sensitivity, lower success");
    }

    #[test]
    fn receiver_beats_eavesdropper_under_encryption() {
        let (params, scene) = setup(MotionLevel::Low, 30);
        let m = DistortionModel::new(&params, &scene);
        let rx = m.predict(policy(EncryptionMode::All), Observer::Receiver);
        let eve = m.predict(policy(EncryptionMode::All), Observer::Eavesdropper);
        assert!(
            rx.psnr_db > eve.psnr_db + 10.0,
            "rx {} eve {}",
            rx.psnr_db,
            eve.psnr_db
        );
        assert!(eve.live_fraction < 0.01);
        assert!(rx.live_fraction > 0.3);
        // Receiver quality is independent of the encryption mode.
        let rx_none = m.predict(policy(EncryptionMode::None), Observer::Receiver);
        assert!((rx.psnr_db - rx_none.psnr_db).abs() < 1e-9);
    }

    #[test]
    fn i_encryption_destroys_slow_motion_for_eavesdropper() {
        // Figure 4a/4c: for slow motion, encrypting I alone drops PSNR near
        // the encrypt-all floor, and below the P-only policy.
        let (params, scene) = setup(MotionLevel::Low, 30);
        let m = DistortionModel::new(&params, &scene);
        let none = m.predict(policy(EncryptionMode::None), Observer::Eavesdropper);
        let i = m.predict(policy(EncryptionMode::IFrames), Observer::Eavesdropper);
        let p = m.predict(policy(EncryptionMode::PFrames), Observer::Eavesdropper);
        let all = m.predict(policy(EncryptionMode::All), Observer::Eavesdropper);
        assert!(i.psnr_db < none.psnr_db - 5.0, "I policy must hurt: {i:?}");
        assert!(i.psnr_db < p.psnr_db, "slow: I hurts more than P");
        assert!(
            all.psnr_db <= i.psnr_db + 2.0,
            "I ≈ all for slow motion: I {} all {}",
            i.psnr_db,
            all.psnr_db
        );
        assert!(none.psnr_db > p.psnr_db, "P encryption still degrades");
    }

    #[test]
    fn p_encryption_hurts_fast_motion_more_than_slow() {
        // Figure 4b/4d: the P policy costs fast-motion eavesdroppers more
        // PSNR (relative to their own unencrypted baseline) than slow.
        let (slow_params, slow_scene) = setup(MotionLevel::Low, 30);
        let (fast_params, fast_scene) = setup(MotionLevel::High, 30);
        let slow = DistortionModel::new(&slow_params, &slow_scene);
        let fast = DistortionModel::new(&fast_params, &fast_scene);
        let drop = |m: &DistortionModel, mode| {
            let base = m.predict(policy(EncryptionMode::None), Observer::Eavesdropper);
            let it = m.predict(policy(mode), Observer::Eavesdropper);
            (base.psnr_db - it.psnr_db) / base.psnr_db
        };
        let slow_p_drop = drop(&slow, EncryptionMode::PFrames);
        let fast_p_drop = drop(&fast, EncryptionMode::PFrames);
        assert!(
            fast_p_drop > slow_p_drop,
            "P-encryption drop: fast {fast_p_drop} vs slow {slow_p_drop}"
        );
        let slow_i_drop = drop(&slow, EncryptionMode::IFrames);
        let fast_i_drop = drop(&fast, EncryptionMode::IFrames);
        assert!(
            slow_i_drop > fast_i_drop,
            "I-encryption drop: slow {slow_i_drop} vs fast {fast_i_drop}"
        );
    }

    #[test]
    fn alpha_sweep_monotonically_degrades_eavesdropper() {
        // Table 2: adding P fractions on top of I keeps lowering PSNR.
        let (params, scene) = setup(MotionLevel::High, 30);
        let m = DistortionModel::new(&params, &scene);
        let mut last_psnr = f64::INFINITY;
        for alpha in [0.0, 0.1, 0.2, 0.3, 0.5] {
            let pred = m.predict(
                policy(EncryptionMode::IPlusFractionP(alpha)),
                Observer::Eavesdropper,
            );
            assert!(
                pred.psnr_db <= last_psnr + 1e-9,
                "alpha {alpha}: {} after {last_psnr}",
                pred.psnr_db
            );
            last_psnr = pred.psnr_db;
        }
    }

    #[test]
    fn mos_tracks_psnr() {
        let (params, scene) = setup(MotionLevel::High, 30);
        let m = DistortionModel::new(&params, &scene);
        let none = m.predict(policy(EncryptionMode::None), Observer::Eavesdropper);
        let all = m.predict(policy(EncryptionMode::All), Observer::Eavesdropper);
        assert!(none.mos > all.mos);
        assert!((1.0..=5.0).contains(&none.mos));
        assert!((1.0..=5.0).contains(&all.mos));
        // Fully encrypted stream is unviewable: MOS pinned near 1.
        assert!(all.mos < 1.2, "all-encrypted MOS = {}", all.mos);
    }

    #[test]
    fn gop50_freezes_at_least_as_much_as_gop30() {
        let (params30, scene) = setup(MotionLevel::High, 30);
        let (params50, _) = setup(MotionLevel::High, 50);
        let m30 = DistortionModel::new(&params30, &scene);
        let m50 = DistortionModel::new(&params50, &scene);
        let e30 = m30.predict(policy(EncryptionMode::IFrames), Observer::Eavesdropper);
        let e50 = m50.predict(policy(EncryptionMode::IFrames), Observer::Eavesdropper);
        assert!(e50.live_fraction <= e30.live_fraction + 1e-9);
    }
}
