//! The experiment harness — one (motion, GOP, device, policy, transport)
//! cell of the paper's evaluation grid, repeated over trials with 95%
//! confidence intervals (Section 6.1).
//!
//! Each trial: encode a 300-frame synthetic clip, run the sender pipeline
//! simulation, cross the channel, reconstruct the video at the legitimate
//! receiver *and* at the eavesdropper (EvalVid-style frame-copy
//! concealment over real pixels), and measure delay, PSNR, MOS and power.

use crate::sender::SenderSim;
use crate::stats::Summary;
use rand::rngs::StdRng;
use rand::SeedableRng;
use thrifty_analytic::params::{DeviceSpec, ScenarioParams};
use thrifty_analytic::policy::Policy;
use thrifty_energy::{CryptoLoad, PowerProfile};
use thrifty_net::tcp::TcpLatencyModel;
use thrifty_video::encoder::{EncodedStream, StatisticalEncoder};
use thrifty_video::motion::MotionLevel;
use thrifty_video::quality::{measure_quality, RefreshingDecoder};
use thrifty_video::scene::{SceneConfig, SceneGenerator};
use thrifty_video::yuv::{Resolution, YuvFrame};

/// Transport used for the transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    /// RTP over UDP — the default of Sections 6.1–6.3.
    RtpUdp,
    /// HTTP over TCP — Section 6.4: reliable delivery, retransmission
    /// latency, marker bit in the TCP option header.
    HttpTcp,
}

/// Configuration of one experiment cell.
#[derive(Debug, Clone, Copy)]
pub struct ExperimentConfig {
    /// Content motion class (slow = Low, fast = High in the paper's terms).
    pub motion: MotionLevel,
    /// GOP size (30 or 50).
    pub gop_size: usize,
    /// Device running the sender.
    pub device: DeviceSpec,
    /// Power profile of the same device.
    pub power: PowerProfile,
    /// The selection policy under test.
    pub policy: Policy,
    /// Transport stack.
    pub transport: Transport,
    /// Number of repetitions (the paper uses 20).
    pub trials: usize,
    /// Frames per clip (the paper's clips have 300).
    pub frames: usize,
    /// Clip resolution (CIF in the paper; QCIF keeps tests fast).
    pub resolution: Resolution,
    /// Contending stations on the WLAN.
    pub stations: usize,
    /// Utilisation target for the heaviest policy (producer pacing).
    pub target_rho: f64,
    /// Base RNG seed; trial `k` uses `seed + k`.
    pub seed: u64,
}

impl ExperimentConfig {
    /// Paper-style defaults for a (motion, gop, policy) cell on the Samsung.
    pub fn paper_cell(motion: MotionLevel, gop_size: usize, policy: Policy) -> Self {
        ExperimentConfig {
            motion,
            gop_size,
            device: thrifty_analytic::params::SAMSUNG_GALAXY_S2,
            power: thrifty_energy::SAMSUNG_GALAXY_S2_POWER,
            policy,
            transport: Transport::RtpUdp,
            trials: 10,
            frames: 300,
            resolution: Resolution::QCIF,
            stations: 5,
            target_rho: 0.92,
            seed: 7,
        }
    }
}

/// Aggregated outcome of an experiment cell.
#[derive(Debug, Clone)]
pub struct ExperimentResult {
    /// Mean per-packet delay across trials, seconds.
    pub delay_s: Summary,
    /// Eavesdropper PSNR (of mean MSE) across trials, dB.
    pub psnr_eve_db: Summary,
    /// Eavesdropper MOS across trials.
    pub mos_eve: Summary,
    /// Receiver PSNR across trials, dB.
    pub psnr_rx_db: Summary,
    /// Receiver MOS across trials.
    pub mos_rx: Summary,
    /// Modelled device power during the transfer, watts.
    pub power_w: f64,
    /// Fraction of packets encrypted (empirical, mean over trials).
    pub encrypted_fraction: f64,
    /// Mean per-packet encryption time, seconds.
    pub encryption_s: Summary,
}

/// A fully prepared experiment: scenario, coded stream and pixel clip.
pub struct Experiment {
    /// The calibrated scenario shared by analysis and simulation.
    pub params: ScenarioParams,
    config: ExperimentConfig,
    stream: EncodedStream,
    clip: Vec<YuvFrame>,
}

impl Experiment {
    /// Prepare the experiment: calibrate the scenario, encode the stream,
    /// render the clip.
    pub fn prepare(config: ExperimentConfig) -> Self {
        let params = ScenarioParams::calibrated(
            config.motion,
            config.gop_size,
            config.device,
            config.stations,
            config.target_rho,
        );
        let mut rng = StdRng::seed_from_u64(config.seed);
        let stream =
            StatisticalEncoder::new(config.motion, config.gop_size).encode(config.frames, &mut rng);
        let scene = SceneGenerator::new(SceneConfig {
            resolution: config.resolution,
            motion: config.motion,
            seed: config.seed,
            fps: 30.0,
        });
        let clip = scene.clip(config.frames);
        Experiment {
            params,
            config,
            stream,
            clip,
        }
    }

    /// The coded stream under test.
    pub fn stream(&self) -> &EncodedStream {
        &self.stream
    }

    /// The pixel clip under test.
    pub fn clip(&self) -> &[YuvFrame] {
        &self.clip
    }

    /// Run all trials and aggregate.
    ///
    /// Equivalent to [`run_metered`](Self::run_metered) with a disabled
    /// registry: same RNG draws, same result, no metrics.
    pub fn run(&self) -> ExperimentResult {
        self.run_metered(&thrifty_telemetry::MetricsRegistry::disabled())
    }

    /// Run all trials, reporting spans, counters and the per-packet delay
    /// histogram into `metrics`.
    ///
    /// The sender records the [`Enqueue`], [`Encrypt`], [`DcfBackoff`] and
    /// [`Transmit`] spans; on the TCP transport a [`MeteredTcp`] adds the
    /// [`TcpRetransmit`] span. This harness records one [`EndToEnd`] span
    /// interval and one `sim.packet_delay_s` histogram sample per packet
    /// *after* the TCP adjustment, so the five stage totals decompose the
    /// end-to-end total exactly. Metering consumes no RNG draws: results
    /// are bit-identical to [`run`](Self::run).
    ///
    /// [`Enqueue`]: thrifty_telemetry::Stage::Enqueue
    /// [`Encrypt`]: thrifty_telemetry::Stage::Encrypt
    /// [`DcfBackoff`]: thrifty_telemetry::Stage::DcfBackoff
    /// [`Transmit`]: thrifty_telemetry::Stage::Transmit
    /// [`TcpRetransmit`]: thrifty_telemetry::Stage::TcpRetransmit
    /// [`EndToEnd`]: thrifty_telemetry::Stage::EndToEnd
    /// [`MeteredTcp`]: thrifty_net::tcp::MeteredTcp
    pub fn run_metered(&self, metrics: &thrifty_telemetry::MetricsRegistry) -> ExperimentResult {
        use thrifty_net::tcp::MeteredTcp;
        use thrifty_telemetry::Stage;
        let cfg = &self.config;
        let mut params = self.params.clone();
        let tcp = match cfg.transport {
            Transport::RtpUdp => None,
            Transport::HttpTcp => {
                // TCP hides channel losses behind retransmissions: delivery
                // becomes (near) certain but head-of-line latency appears.
                params.mac_retries = 7;
                let tcp_loss = 1.0 - self.params.delivery_rate();
                Some(MeteredTcp::new(
                    TcpLatencyModel::new(tcp_loss, 0.01),
                    metrics,
                ))
            }
        };
        let gops_dropped_eve = metrics.counter("sim.gops_dropped_eve");
        let delay_hist = metrics.histogram("sim.packet_delay_s");
        let sens = cfg.motion.sensitivity_fraction();
        // Decoders bootstrap partial pictures from P-frame intra refresh.
        let decoder = RefreshingDecoder::new(cfg.motion.p_refresh_fraction());

        let mut delays = Vec::with_capacity(cfg.trials);
        let mut psnr_eve = Vec::new();
        let mut mos_eve = Vec::new();
        let mut psnr_rx = Vec::new();
        let mut mos_rx = Vec::new();
        let mut enc_times = Vec::new();
        let mut q_sum = 0.0;
        for trial in 0..cfg.trials {
            let mut rng = StdRng::seed_from_u64(cfg.seed + 1000 + trial as u64);
            let sim = SenderSim::new(&params, cfg.policy);
            let mut summary = sim.run_metered(&self.stream, &mut rng, metrics);
            if let Some(model) = &tcp {
                for r in summary.records.iter_mut() {
                    r.service_s += model.sample_extra_delay_s(&mut rng);
                }
                let n = summary.records.len().max(1) as f64;
                summary.mean_delay_s = summary.records.iter().map(|r| r.delay_s()).sum::<f64>() / n;
            }
            // End-to-end telemetry is recorded after the TCP adjustment so
            // the stage spans decompose exactly what the figures report.
            for r in &summary.records {
                metrics.record_span(Stage::EndToEnd, r.delay_s());
                delay_hist.record(r.delay_s());
            }
            delays.push(summary.mean_delay_s);
            enc_times.push(summary.mean_encryption_s);
            q_sum += summary.capture.encrypted_fraction();

            let rx_flags = summary.receiver_frame_flags(cfg.frames, sens);
            let eve_flags = summary.eavesdropper_frame_flags(cfg.frames, sens);
            // A GOP is "dropped" for the eavesdropper when not a single one
            // of its frames is decodable — the paper's security outcome.
            let dropped = eve_flags
                .chunks(cfg.gop_size)
                .filter(|gop| !gop.iter().any(|&ok| ok))
                .count();
            gops_dropped_eve.add(dropped as u64);
            let rx_rec = decoder.reconstruct(&self.clip, &rx_flags, cfg.gop_size);
            let eve_rec = decoder.reconstruct(&self.clip, &eve_flags, cfg.gop_size);
            let rx_q = measure_quality(&self.clip, &rx_rec);
            let eve_q = measure_quality(&self.clip, &eve_rec);
            psnr_rx.push(rx_q.psnr_of_mean_mse);
            mos_rx.push(rx_q.score);
            psnr_eve.push(eve_q.psnr_of_mean_mse);
            mos_eve.push(eve_q.score);
        }

        let load = CryptoLoad::from_stream(&self.stream, cfg.policy);
        ExperimentResult {
            delay_s: Summary::of(&delays),
            psnr_eve_db: Summary::of(&psnr_eve),
            mos_eve: Summary::of(&mos_eve),
            psnr_rx_db: Summary::of(&psnr_rx),
            mos_rx: Summary::of(&mos_rx),
            power_w: cfg.power.power_w(&load),
            encrypted_fraction: q_sum / cfg.trials as f64,
            encryption_s: Summary::of(&enc_times),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use thrifty_analytic::policy::EncryptionMode;
    use thrifty_crypto::Algorithm;

    fn quick(motion: MotionLevel, mode: EncryptionMode, transport: Transport) -> ExperimentResult {
        let mut cfg =
            ExperimentConfig::paper_cell(motion, 30, Policy::new(Algorithm::Aes256, mode));
        cfg.trials = 3;
        cfg.frames = 120;
        cfg.transport = transport;
        Experiment::prepare(cfg).run()
    }

    #[test]
    fn eavesdropper_sees_worse_video_under_i_encryption() {
        let r = quick(MotionLevel::Low, EncryptionMode::IFrames, Transport::RtpUdp);
        assert!(
            r.psnr_eve_db.mean < r.psnr_rx_db.mean - 5.0,
            "eve {} rx {}",
            r.psnr_eve_db.mean,
            r.psnr_rx_db.mean
        );
        assert!(r.mos_eve.mean < 2.0, "MOS {}", r.mos_eve.mean);
        assert!(r.encrypted_fraction > 0.1 && r.encrypted_fraction < 0.6);
    }

    #[test]
    fn none_policy_gives_eavesdropper_same_quality_as_receiver() {
        let r = quick(MotionLevel::Low, EncryptionMode::None, Transport::RtpUdp);
        assert!((r.psnr_eve_db.mean - r.psnr_rx_db.mean).abs() < 3.0);
        assert_eq!(r.encrypted_fraction, 0.0);
        assert_eq!(r.encryption_s.mean, 0.0);
    }

    #[test]
    fn tcp_increases_delay_but_preserves_receiver_quality() {
        let udp = quick(MotionLevel::High, EncryptionMode::All, Transport::RtpUdp);
        let tcp = quick(MotionLevel::High, EncryptionMode::All, Transport::HttpTcp);
        assert!(
            tcp.delay_s.mean > udp.delay_s.mean,
            "tcp {} vs udp {}",
            tcp.delay_s.mean,
            udp.delay_s.mean
        );
        // Reliable delivery: the receiver reconstructs essentially losslessly.
        assert!(tcp.psnr_rx_db.mean > udp.psnr_rx_db.mean);
        // The eavesdropper still cannot use encrypted packets.
        assert!(tcp.psnr_eve_db.mean < tcp.psnr_rx_db.mean - 10.0);
    }

    #[test]
    fn power_orders_with_policy() {
        let none = quick(MotionLevel::High, EncryptionMode::None, Transport::RtpUdp).power_w;
        let i = quick(
            MotionLevel::High,
            EncryptionMode::IFrames,
            Transport::RtpUdp,
        )
        .power_w;
        let all = quick(MotionLevel::High, EncryptionMode::All, Transport::RtpUdp).power_w;
        assert!(none < i && i < all);
    }

    #[test]
    fn metered_run_reproduces_unmetered_result() {
        use thrifty_telemetry::MetricsRegistry;
        let mut cfg = ExperimentConfig::paper_cell(
            MotionLevel::High,
            30,
            Policy::new(Algorithm::Aes256, EncryptionMode::IFrames),
        );
        cfg.trials = 2;
        cfg.frames = 90;
        cfg.transport = Transport::HttpTcp;
        let exp = Experiment::prepare(cfg);
        let plain = exp.run();
        let metrics = MetricsRegistry::enabled();
        let metered = exp.run_metered(&metrics);
        assert_eq!(
            metered.delay_s.mean.to_bits(),
            plain.delay_s.mean.to_bits(),
            "metering must not change the figures"
        );
        assert_eq!(
            metered.psnr_eve_db.mean.to_bits(),
            plain.psnr_eve_db.mean.to_bits()
        );
        assert!(metrics.snapshot().counter("net.tcp.retransmissions") > 0);
    }

    #[test]
    fn stage_spans_decompose_end_to_end_delay() {
        use thrifty_telemetry::{MetricsRegistry, Stage};
        for transport in [Transport::RtpUdp, Transport::HttpTcp] {
            let mut cfg = ExperimentConfig::paper_cell(
                MotionLevel::Low,
                30,
                Policy::new(Algorithm::Aes256, EncryptionMode::IPlusFractionP(0.3)),
            );
            cfg.trials = 2;
            cfg.frames = 90;
            cfg.transport = transport;
            let metrics = MetricsRegistry::enabled();
            let result = Experiment::prepare(cfg).run_metered(&metrics);
            let snap = metrics.snapshot();
            let e2e = snap.span(Stage::EndToEnd).expect("end-to-end span");
            let stage_total: f64 = [
                Stage::Enqueue,
                Stage::Encrypt,
                Stage::DcfBackoff,
                Stage::Transmit,
                Stage::TcpRetransmit,
            ]
            .iter()
            .map(|&s| snap.span(s).map_or(0.0, |sp| sp.total_s))
            .sum();
            let decomposed_mean = stage_total / e2e.count as f64;
            assert!(
                (decomposed_mean - e2e.mean_s()).abs() < 1e-9,
                "{transport:?}: stages {decomposed_mean} vs e2e {}",
                e2e.mean_s()
            );
            // The figure-level mean is the mean of per-trial means; with a
            // fixed packet count per trial it equals the global span mean.
            assert!(
                (result.delay_s.mean - e2e.mean_s()).abs() < 1e-9,
                "{transport:?}: figure {} vs span {}",
                result.delay_s.mean,
                e2e.mean_s()
            );
            let hist = snap
                .histogram("sim.packet_delay_s")
                .expect("delay histogram");
            assert_eq!(hist.count(), e2e.count);
        }
    }

    #[test]
    fn eavesdropper_gop_drops_are_counted() {
        use thrifty_telemetry::MetricsRegistry;
        let mut cfg = ExperimentConfig::paper_cell(
            MotionLevel::Low,
            30,
            Policy::new(Algorithm::Aes256, EncryptionMode::All),
        );
        cfg.trials = 2;
        cfg.frames = 90;
        let metrics = MetricsRegistry::enabled();
        Experiment::prepare(cfg).run_metered(&metrics);
        // Full encryption blinds the eavesdropper: every GOP of every trial
        // (3 GOPs × 2 trials) must be dropped.
        assert_eq!(metrics.snapshot().counter("sim.gops_dropped_eve"), 6);
    }

    #[test]
    fn confidence_intervals_are_finite_and_positive() {
        let r = quick(MotionLevel::Low, EncryptionMode::IFrames, Transport::RtpUdp);
        assert_eq!(r.delay_s.n, 3);
        assert!(r.delay_s.ci95 >= 0.0);
        assert!(r.delay_s.mean.is_finite());
        assert!(r.psnr_eve_db.mean.is_finite());
    }
}
