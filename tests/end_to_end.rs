//! End-to-end integration: from pixels to policy to packets to
//! reconstruction, across every crate in the workspace.

use rand::rngs::StdRng;
use rand::SeedableRng;
use thrifty::analytic::policy::{EncryptionMode, Policy};
use thrifty::crypto::Algorithm;
use thrifty::sim::experiment::{Experiment, ExperimentConfig, Transport};
use thrifty::sim::pipeline::{run_pipeline, InputFrame, PipelineConfig};
use thrifty::video::encoder::PixelEncoder;
use thrifty::video::motion::{MotionAnalyzer, MotionLevel};
use thrifty::video::scene::{SceneConfig, SceneGenerator};
use thrifty::video::FrameType;
use thrifty::{PolicyAdvisor, PrivacyPreference};

/// The full Figure 1 loop: shoot a clip, classify its motion, ask the
/// advisor, transfer with the recommended policy, verify the outcome.
#[test]
fn figure1_workflow_slow_clip() {
    // 1. "Capture" a clip and classify it — the AForge step.
    let scene = SceneGenerator::new(SceneConfig::qcif(MotionLevel::Low, 77));
    let clip = scene.clip(60);
    let motion = MotionAnalyzer::default().classify(&clip);
    assert_eq!(motion, MotionLevel::Low);

    // 2. Calibrate the model and get a recommendation.
    let advisor = PolicyAdvisor::calibrate(
        motion,
        30,
        thrifty::analytic::params::SAMSUNG_GALAXY_S2,
        Algorithm::Aes256,
    );
    let rec = advisor.recommend(PrivacyPreference::Balanced);
    assert_eq!(rec.policy.mode, EncryptionMode::IFrames);

    // 3. Transfer under the recommended policy and measure what each side
    //    could reconstruct.
    let mut cfg = ExperimentConfig::paper_cell(motion, 30, rec.policy);
    cfg.trials = 3;
    cfg.frames = 120;
    let result = Experiment::prepare(cfg).run();
    assert!(
        result.psnr_eve_db.mean < 10.0,
        "slow clip under I-encryption must be dark to the eavesdropper: {}",
        result.psnr_eve_db.mean
    );
    assert!(result.psnr_rx_db.mean > result.psnr_eve_db.mean + 8.0);

    // 4. The recommendation is cheaper than full privacy in the experiment.
    cfg.policy = Policy::new(Algorithm::Aes256, EncryptionMode::All);
    let full = Experiment::prepare(cfg).run();
    assert!(result.delay_s.mean < full.delay_s.mean);
    assert!(result.power_w < full.power_w);
}

/// The pixel encoder, real NAL bitstream, real ciphers and the real-bytes
/// pipeline agree end to end: bytes encoded from pixels survive the
/// encrypted transfer byte-for-byte at the receiver only.
#[test]
fn pixels_to_packets_roundtrip() {
    let scene = SceneGenerator::new(SceneConfig::qcif(MotionLevel::High, 3));
    let clip = scene.clip(24);
    let stream = PixelEncoder::new(12).encode(&clip);

    // Turn the coded sizes into genuine NAL frames and transfer them.
    let frames: Vec<InputFrame> = stream
        .frames
        .iter()
        .map(|f| InputFrame::synthetic(f.index, f.ftype, f.bytes.max(16)))
        .collect();
    for alg in Algorithm::ALL {
        let out = run_pipeline(
            frames.clone(),
            PipelineConfig {
                policy: Policy::new(alg, EncryptionMode::IPlusFractionP(0.5)),
                loss_prob: 0.0,
                seed: 11,
                ..PipelineConfig::default()
            },
        );
        assert_eq!(out.receiver.frames_ok.len(), 24, "{alg}: receiver");
        // All I frames (0 and 12) plus about half the P frames are dark.
        assert!(out.eavesdropper.frames_damaged.len() >= 2, "{alg}");
        assert!(
            out.eavesdropper
                .frames_damaged
                .iter()
                .any(|&f| f % 12 == 0),
            "{alg}: I frames must be unreadable"
        );
    }
}

/// Analysis and experiment agree on the delay for every Table 1 policy.
#[test]
fn analysis_tracks_experiment_for_all_policies() {
    use thrifty::analytic::delay::DelayModel;
    let motion = MotionLevel::High;
    for mode in EncryptionMode::TABLE1 {
        let policy = Policy::new(Algorithm::Aes256, mode);
        let mut cfg = ExperimentConfig::paper_cell(motion, 30, policy);
        cfg.trials = 6;
        cfg.frames = 300;
        let exp = Experiment::prepare(cfg);
        let predicted = DelayModel::new(&exp.params)
            .predict(policy)
            .unwrap()
            .mean_delay_s;
        let measured = exp.run().delay_s.mean;
        let rel = (measured - predicted).abs() / predicted;
        assert!(
            rel < 0.6,
            "{mode}: analysis {predicted} vs experiment {measured} (rel {rel})"
        );
    }
}

/// TCP keeps the receiver lossless and the policy ordering intact.
#[test]
fn tcp_transport_end_to_end() {
    let policy = Policy::new(Algorithm::Aes256, EncryptionMode::IFrames);
    let mut cfg = ExperimentConfig::paper_cell(MotionLevel::Low, 30, policy);
    cfg.trials = 3;
    cfg.frames = 120;
    cfg.transport = Transport::HttpTcp;
    let r = Experiment::prepare(cfg).run();
    // Reliable delivery: the receiver gets effectively everything.
    assert!(r.psnr_rx_db.mean > 40.0, "rx {}", r.psnr_rx_db.mean);
    // The eavesdropper still loses every I frame.
    assert!(r.psnr_eve_db.mean < 12.0, "eve {}", r.psnr_eve_db.mean);
}

/// The channel hurts both observers identically when nothing is encrypted —
/// the eavesdropper's only handicap is cryptography, never magic.
#[test]
fn no_encryption_means_symmetric_observers() {
    let policy = Policy::new(Algorithm::Aes128, EncryptionMode::None);
    let mut cfg = ExperimentConfig::paper_cell(MotionLevel::Medium, 30, policy);
    cfg.trials = 3;
    cfg.frames = 120;
    let r = Experiment::prepare(cfg).run();
    assert!((r.psnr_rx_db.mean - r.psnr_eve_db.mean).abs() < 1e-9);
    assert!((r.mos_rx.mean - r.mos_eve.mean).abs() < 1e-9);
}

/// Deterministic reproducibility: the same seed gives identical results.
#[test]
fn experiments_are_reproducible() {
    let policy = Policy::new(Algorithm::Aes256, EncryptionMode::PFrames);
    let mut cfg = ExperimentConfig::paper_cell(MotionLevel::High, 30, policy);
    cfg.trials = 2;
    cfg.frames = 90;
    let a = Experiment::prepare(cfg).run();
    let b = Experiment::prepare(cfg).run();
    assert_eq!(a.delay_s.mean, b.delay_s.mean);
    assert_eq!(a.psnr_eve_db.mean, b.psnr_eve_db.mean);
    // And different seeds change the realisation.
    cfg.seed = 99;
    let c = Experiment::prepare(cfg).run();
    assert_ne!(a.delay_s.mean, c.delay_s.mean);
}

/// Frame-type plumbing stays consistent from encoder to pipeline.
#[test]
fn frame_types_consistent_across_layers() {
    let mut rng = StdRng::seed_from_u64(5);
    let stream = thrifty::video::encoder::StatisticalEncoder::new(MotionLevel::Low, 30)
        .encode(90, &mut rng);
    for f in &stream.frames {
        let expected = if f.index % 30 == 0 {
            FrameType::I
        } else {
            FrameType::P
        };
        assert_eq!(f.ftype, expected);
    }
}
