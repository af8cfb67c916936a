//! Scenario parameters — the "minimal measurements" of Figure 1.
//!
//! The framework is calibrated from a handful of sample measurements
//! (Section 6.1): packet statistics of the coded stream, the 2-MMPP arrival
//! parameters, per-cipher encryption cost models, channel operating point
//! (`p_s`, `λ_b`) and airtime parameters. [`ScenarioParams`] bundles all of
//! them; [`ScenarioParams::calibrated`] builds a self-consistent scenario
//! for a (motion, GOP, device) triple the way the experiments do.

use thrifty_crypto::{Algorithm, CostModel, CostSample};
use thrifty_net::dcf::{DcfModel, DcfSolution, PhyParams};
use thrifty_queueing::mmpp::Mmpp2;
use thrifty_video::encoder::StatisticalEncoder;
use thrifty_video::motion::MotionLevel;
use thrifty_video::packet::{PacketStats, Packetizer};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A device the app runs on (Table 1's wireless devices).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceSpec {
    /// Marketing name used in figure labels.
    pub name: &'static str,
    /// CPU clock, GHz — scales per-byte cipher cost.
    pub clock_ghz: f64,
    /// Fixed per-encrypted-segment overhead (JNI boundary, key/IV setup), s.
    pub segment_overhead_s: f64,
}

/// Samsung Galaxy S-II: 1.2 GHz dual-core Cortex-A9.
pub const SAMSUNG_GALAXY_S2: DeviceSpec = DeviceSpec {
    name: "Samsung S-II",
    clock_ghz: 1.2,
    segment_overhead_s: 80e-6,
};

/// HTC Amaze 4G: 1.5 GHz dual-core Snapdragon S3.
pub const HTC_AMAZE_4G: DeviceSpec = DeviceSpec {
    name: "HTC Amaze 4G",
    clock_ghz: 1.5,
    segment_overhead_s: 60e-6,
};

/// The channel packet error rate every calibrated scenario assumes (the
/// non-collision radio losses folded into `p_s`). Exposed so multi-flow
/// engines can pre-solve the same [`DcfModel`] the calibration would.
pub const DEFAULT_CHANNEL_PER: f64 = 0.02;

/// Derives the 2-MMPP arrival model from stream structure and producer
/// pacing (Section 4.2.1: phase 1 = dense I-fragment trains, phase 2 =
/// sparse P packets).
#[derive(Debug, Clone, Copy, PartialEq)]
struct ArrivalModel {
    /// How much faster than real time the producer reads the file. A
    /// transfer (not a live stream) drains the disk as fast as the queue
    /// admits; the calibration picks this so the queue stays stable under
    /// the heaviest policy.
    pub read_speedup: f64,
    /// Fraction of the (sped-up) GOP period occupied by the I-burst.
    pub i_burst_fraction: f64,
}

impl Default for ArrivalModel {
    fn default() -> Self {
        ArrivalModel {
            read_speedup: 1.0,
            i_burst_fraction: 0.08,
        }
    }
}

impl ArrivalModel {
    /// Build the MMPP for a stream with the given packet statistics.
    ///
    /// `stats` supplies packets-per-frame for each class; `gop_size` and
    /// `fps` give the GOP period. Phase 1 covers the I-frame fragment train,
    /// phase 2 the remaining P-frame packets.
    pub fn mmpp(&self, stats: &PacketStats, gop_size: usize, fps: f64) -> Mmpp2 {
        assert!(gop_size >= 2, "GOP must contain at least one P frame");
        let gop_period_s = gop_size as f64 / fps / self.read_speedup;
        let dur1 = (self.i_burst_fraction * gop_period_s).max(1e-9);
        let dur2 = (gop_period_s - dur1).max(1e-9);
        let n_i = stats.mean_fragments_i; // packets in the I burst
        let n_p = stats.mean_fragments_p * (gop_size as f64 - 1.0);
        Mmpp2::new(1.0 / dur1, 1.0 / dur2, n_i / dur1, n_p / dur2)
    }
}

/// Everything the analytical framework needs for one scenario.
#[derive(Debug, Clone)]
pub struct ScenarioParams {
    /// Content motion level (drives decoder sensitivity and P sizes).
    pub motion: MotionLevel,
    /// GOP size (30 or 50 in the paper).
    pub gop_size: usize,
    /// Frames per second of the content.
    pub fps: f64,
    /// Device running the sender app.
    pub device: DeviceSpec,
    /// Packet statistics of the packetized stream.
    pub packet_stats: PacketStats,
    /// Arrival process of packets into the sender queue.
    pub mmpp: Mmpp2,
    /// Channel operating point (packet success rate, backoff rate).
    pub dcf: DcfSolution,
    /// PHY parameters for airtime arithmetic.
    pub phy: PhyParams,
    /// Relative std-dev applied to encryption and transmission times
    /// (the "minor variations" of eqs. 15–16).
    pub jitter_rel: f64,
    /// MAC retransmission limit used by the distortion path: a packet is
    /// delivered unless all `mac_retries + 1` attempts fail.
    pub mac_retries: u32,
    /// Measured encryption cost model (from calibration); when set it
    /// replaces the device-reference model for every algorithm.
    pub cost_override: Option<CostModel>,
}

/// Raw observations collected during an initial measurement window — the
/// paper's Section 6.1 calibration inputs: "The times of insertion of video
/// segments into the internal queue and their type are used to estimate
/// the 2-MMPP parameters … the sequence of times that are necessary for the
/// encryption of an initial set of packets … the client has access
/// locally to all the necessary information to compute these estimates."
#[derive(Debug, Clone)]
pub struct Measurements {
    /// Queue-insertion times with frame-class labels (`true` = I packet).
    pub arrivals: Vec<(f64, bool)>,
    /// Observed `(bytes, seconds)` encryption timings for the cipher in use.
    pub encryption: Vec<CostSample>,
    /// MAC attempt outcomes: `(successes, attempts)`.
    pub attempt_success: (u64, u64),
    /// Observed mean single backoff wait after a collision, seconds.
    pub mean_backoff_s: f64,
}

impl ScenarioParams {
    /// Calibrate a scenario purely from field measurements (Figure 1's
    /// "minimal measurements" path): the MMPP from labelled insertion
    /// times, the encryption cost model from timing samples, and the
    /// channel operating point from attempt statistics. Device identity is
    /// still needed for figure labels and energy profiles; its reference
    /// cost model is *replaced* by the fitted one.
    ///
    /// Returns `None` when any estimator is unidentifiable (too few
    /// samples, one phase missing, single packet size, zero attempts).
    pub fn from_measurements(
        motion: MotionLevel,
        gop_size: usize,
        device: DeviceSpec,
        packet_stats: PacketStats,
        m: &Measurements,
    ) -> Option<Self> {
        let mmpp = Mmpp2::fit_labeled(&m.arrivals)?;
        let cost = CostModel::fit(&m.encryption)?;
        let (succ, attempts) = m.attempt_success;
        if attempts == 0 || m.mean_backoff_s <= 0.0 {
            return None;
        }
        let p_s = (succ as f64 / attempts as f64).clamp(1e-6, 1.0);
        let dcf = DcfSolution {
            tau: f64::NAN, // not observable from the sender alone
            collision_prob: 1.0 - p_s,
            packet_success_rate: p_s,
            mean_backoff_wait_s: m.mean_backoff_s,
            backoff_rate_hz: 1.0 / m.mean_backoff_s,
        };
        Some(ScenarioParams {
            motion,
            gop_size,
            fps: 30.0,
            device,
            packet_stats,
            mmpp,
            dcf,
            phy: PhyParams::g_54mbps(),
            jitter_rel: (cost.jitter_std_s / cost.mean_time(1000).max(1e-12)).clamp(0.01, 0.5),
            mac_retries: 1,
            cost_override: Some(cost),
        })
    }

    /// End-to-end packet delivery rate after MAC retransmissions — the
    /// decryption-rate baseline `p_d` of Section 4.3 (both the receiver and
    /// the eavesdropper overhear retransmitted copies).
    pub fn delivery_rate(&self) -> f64 {
        1.0 - (1.0 - self.dcf.packet_success_rate).powi(self.mac_retries as i32 + 1)
    }

    /// Per-cipher encryption cost model on this scenario's device, or the
    /// measured model when the scenario was calibrated from field samples.
    pub fn cost_model(&self, algorithm: Algorithm) -> CostModel {
        if let Some(measured) = self.cost_override {
            return measured;
        }
        let mut m = CostModel::reference(algorithm, self.device.clock_ghz);
        m.setup_s = self.device.segment_overhead_s;
        m
    }

    /// Mean encryption time of an I-frame packet (MTU-sized), seconds.
    pub fn enc_mean_i(&self, algorithm: Algorithm) -> f64 {
        self.cost_model(algorithm)
            .mean_time(self.packet_stats.mean_bytes_i.round() as usize)
    }

    /// Mean encryption time of a P-frame packet, seconds.
    pub fn enc_mean_p(&self, algorithm: Algorithm) -> f64 {
        self.cost_model(algorithm)
            .mean_time(self.packet_stats.mean_bytes_p.round() as usize)
    }

    /// Mean transmission time of an I-frame packet, seconds (eq. 16's μ_tI).
    pub fn tx_mean_i(&self) -> f64 {
        self.phy
            .tx_time_s(self.packet_stats.mean_bytes_i.round() as usize + 40)
    }

    /// Mean transmission time of a P-frame packet, seconds.
    pub fn tx_mean_p(&self) -> f64 {
        self.phy
            .tx_time_s(self.packet_stats.mean_bytes_p.round() as usize + 40)
    }

    /// Build a calibrated scenario for a (motion, GOP, device) triple.
    ///
    /// Encodes a reference 300-frame stream with the paper's size
    /// statistics, solves the DCF model for `stations` contenders, and
    /// paces the producer so the utilisation under the **heaviest** policy
    /// (3DES, encrypt-all) equals `target_rho_heaviest` — keeping every
    /// policy in the stable regime the 2-MMPP/G/1 analysis requires.
    pub fn calibrated(
        motion: MotionLevel,
        gop_size: usize,
        device: DeviceSpec,
        stations: usize,
        target_rho_heaviest: f64,
    ) -> Self {
        let dcf = DcfModel::new(stations, DEFAULT_CHANNEL_PER, PhyParams::g_54mbps()).solve();
        Self::calibrated_with_dcf(motion, gop_size, device, dcf, target_rho_heaviest)
    }

    /// [`calibrated`](Self::calibrated) with a pre-solved channel operating
    /// point — the hook a multi-flow engine uses to share one memoized
    /// [`DcfSolution`] across every flow contending on the same AP instead
    /// of re-running the fixed point per flow. Passing the solution of
    /// `DcfModel::new(stations, DEFAULT_CHANNEL_PER, PhyParams::g_54mbps())`
    /// reproduces `calibrated(…, stations, …)` bit for bit.
    pub fn calibrated_with_dcf(
        motion: MotionLevel,
        gop_size: usize,
        device: DeviceSpec,
        dcf: DcfSolution,
        target_rho_heaviest: f64,
    ) -> Self {
        assert!(
            (0.0..1.0).contains(&target_rho_heaviest),
            "target utilisation must be below 1"
        );
        let mut rng = StdRng::seed_from_u64(0x5eed ^ gop_size as u64 ^ (motion as u64) << 8);
        let stream = StatisticalEncoder::new(motion, gop_size).encode(300, &mut rng);
        let packets = Packetizer::default().packetize(&stream);
        let packet_stats = PacketStats::measure(&packets).expect("stream has both classes");
        let phy = PhyParams::g_54mbps();

        // Heaviest per-packet service: 3DES on every packet + airtime + backoff.
        let mut proto = ScenarioParams {
            motion,
            gop_size,
            fps: 30.0,
            device,
            packet_stats,
            mmpp: Mmpp2::poisson(1.0), // placeholder until pacing is known
            dcf,
            phy,
            jitter_rel: 0.1,
            mac_retries: 1,
            cost_override: None,
        };
        let p_i = packet_stats.p_i;
        let heavy_service = p_i
            * (proto.enc_mean_i(Algorithm::TripleDes) + proto.tx_mean_i())
            + (1.0 - p_i) * (proto.enc_mean_p(Algorithm::TripleDes) + proto.tx_mean_p())
            + (1.0 - dcf.packet_success_rate) / dcf.packet_success_rate
                * dcf.mean_backoff_wait_s;
        let lambda_target = target_rho_heaviest / heavy_service;
        // Packets per real-time second at speedup 1.
        let pkts_per_gop = packet_stats.mean_fragments_i
            + packet_stats.mean_fragments_p * (gop_size as f64 - 1.0);
        let natural_rate = pkts_per_gop * 30.0 / gop_size as f64;
        let arrival = ArrivalModel {
            read_speedup: lambda_target / natural_rate,
            i_burst_fraction: 0.08,
        };
        proto.mmpp = arrival.mmpp(&packet_stats, gop_size, 30.0);
        proto
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrival_model_preserves_mean_rate() {
        let motion = MotionLevel::High;
        let mut rng = StdRng::seed_from_u64(1);
        let stream = StatisticalEncoder::new(motion, 30).encode(300, &mut rng);
        let stats = PacketStats::measure(&Packetizer::default().packetize(&stream)).unwrap();
        let arrival = ArrivalModel {
            read_speedup: 4.0,
            i_burst_fraction: 0.08,
        };
        let mmpp = arrival.mmpp(&stats, 30, 30.0);
        // Mean rate ≈ packets per GOP / (sped-up) GOP period.
        let pkts_per_gop = stats.mean_fragments_i + stats.mean_fragments_p * 29.0;
        let expected = pkts_per_gop / (30.0 / 30.0 / 4.0);
        assert!(
            (mmpp.mean_rate() - expected).abs() / expected < 0.05,
            "mmpp rate {} vs {}",
            mmpp.mean_rate(),
            expected
        );
        // Phase 1 must be the dense phase.
        assert!(mmpp.lambda1 > 2.0 * mmpp.lambda2);
    }

    #[test]
    fn calibrated_scenario_is_stable_for_heaviest_policy() {
        let s = ScenarioParams::calibrated(MotionLevel::High, 30, SAMSUNG_GALAXY_S2, 5, 0.9);
        let p_i = s.packet_stats.p_i;
        let heavy = p_i * (s.enc_mean_i(Algorithm::TripleDes) + s.tx_mean_i())
            + (1.0 - p_i) * (s.enc_mean_p(Algorithm::TripleDes) + s.tx_mean_p())
            + (1.0 - s.dcf.packet_success_rate) / s.dcf.packet_success_rate
                * s.dcf.mean_backoff_wait_s;
        let rho = s.mmpp.mean_rate() * heavy;
        assert!((rho - 0.9).abs() < 0.02, "rho = {rho}");
    }

    #[test]
    fn faster_device_encrypts_faster() {
        let s2 = ScenarioParams::calibrated(MotionLevel::Low, 30, SAMSUNG_GALAXY_S2, 5, 0.9);
        let htc = ScenarioParams::calibrated(MotionLevel::Low, 30, HTC_AMAZE_4G, 5, 0.9);
        for alg in Algorithm::ALL {
            assert!(htc.enc_mean_i(alg) < s2.enc_mean_i(alg), "{alg}");
        }
    }

    #[test]
    fn cipher_costs_ordered() {
        let s = ScenarioParams::calibrated(MotionLevel::Low, 30, SAMSUNG_GALAXY_S2, 5, 0.9);
        assert!(s.enc_mean_i(Algorithm::Aes128) < s.enc_mean_i(Algorithm::Aes256));
        assert!(s.enc_mean_i(Algorithm::Aes256) < s.enc_mean_i(Algorithm::TripleDes));
        // I packets are bigger, so cost more to encrypt and transmit.
        assert!(s.enc_mean_i(Algorithm::Aes256) > s.enc_mean_p(Algorithm::Aes256));
        assert!(s.tx_mean_i() > s.tx_mean_p());
    }

    #[test]
    fn fast_motion_has_larger_p_share() {
        let slow = ScenarioParams::calibrated(MotionLevel::Low, 30, SAMSUNG_GALAXY_S2, 5, 0.9);
        let fast = ScenarioParams::calibrated(MotionLevel::High, 30, SAMSUNG_GALAXY_S2, 5, 0.9);
        // Slow-motion P frames are single small packets, so I fragments make
        // up a larger share of the packet count than in fast motion, where
        // every P frame fragments too.
        assert!(slow.packet_stats.p_i > fast.packet_stats.p_i);
        assert!(fast.packet_stats.mean_bytes_p > slow.packet_stats.mean_bytes_p);
    }

    #[test]
    fn calibrated_with_dcf_reproduces_calibrated() {
        use thrifty_net::dcf::DcfModel;
        let direct = ScenarioParams::calibrated(MotionLevel::High, 30, SAMSUNG_GALAXY_S2, 9, 0.92);
        let dcf = DcfModel::new(9, DEFAULT_CHANNEL_PER, PhyParams::g_54mbps()).solve();
        let injected =
            ScenarioParams::calibrated_with_dcf(MotionLevel::High, 30, SAMSUNG_GALAXY_S2, dcf, 0.92);
        assert_eq!(direct.dcf, injected.dcf);
        assert_eq!(direct.mmpp, injected.mmpp);
        assert_eq!(direct.packet_stats, injected.packet_stats);
        assert_eq!(
            direct.mmpp.mean_rate().to_bits(),
            injected.mmpp.mean_rate().to_bits()
        );
    }

    #[test]
    fn device_constants_match_table1() {
        assert_eq!(SAMSUNG_GALAXY_S2.clock_ghz, 1.2);
        assert_eq!(HTC_AMAZE_4G.clock_ghz, 1.5);
        assert!(SAMSUNG_GALAXY_S2.name.contains("S-II"));
    }
}
