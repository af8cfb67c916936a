//! The protocol matrix: RTP/UDP vs HTTP/TCP vs LT-fountain transport
//! (`reproduce fountain`).
//!
//! Sweeps the three transports across the four Table 1 policies and three
//! channel operating points — i.i.d. loss, a mild Gilbert–Elliott burst
//! channel, and a **deep-fade** burst point (long, lossy bad-state dwells)
//! where an ARQ transport thrashes on retransmissions. The clean twin of a
//! cell is the same transport, policy and seed on a lossless channel; the
//! double run, the clean twin and the per-cell telemetry come from the
//! [matrix harness](crate::matrix). Each cell records **goodput**
//! (delivered media bits per second of transfer time — air bytes at the
//! 802.11g rate plus one RTO of idle per timeout-driven retransmission),
//! the **air efficiency** byte ratio, the analytic **delay** term for its
//! transport, and the distortion columns.
//!
//! The fountain's repair overhead ε is not hand-tuned per cell: each
//! channel's ε is the smallest grid point whose analytic decode-failure
//! probability ([`FountainChannel::decode_failure_prob`]) drops below 2%,
//! so the overhead-vs-loss term drives the experiment it predicts.
//!
//! The headline contrast the matrix must reproduce: ARQ is byte-thrifty
//! under mild loss (it only resends what was actually lost, and wins the
//! air-efficiency column there), but every loss costs it a feedback
//! stall — in the deep fade the RTO tax dwarfs the fountain's proactive
//! `(1+ε)` spray and rateless coding wins goodput outright.
//!
//! [`FountainChannel::decode_failure_prob`]: thrifty_analytic::fountain::FountainChannel::decode_failure_prob

use thrifty_analytic::delay::DelayModel;
use thrifty_analytic::fountain::{FountainDelayModel, DEFAULT_PEELING_MARGIN};
use thrifty_analytic::params::{ScenarioParams, SAMSUNG_GALAXY_S2};
use thrifty_analytic::policy::{EncryptionMode, Policy};
use thrifty_crypto::Algorithm;
use thrifty_faults::FaultPlan;
use thrifty_net::tcp::TcpLatencyModel;
use thrifty_sim::pipeline::InputFrame;
use thrifty_telemetry::MetricsRegistry;
use thrifty_video::MotionLevel;

use crate::matrix::{
    block_symbols, reliable_delivery, run_matrix, run_transport, CellOutcome, Link, LossPoint,
    Matrix, MatrixReport, ProtocolKind, TransportRun, GOP,
};
use crate::Effort;

/// TCP retransmission timeout fed to the §6.4 latency term and billed as
/// an idle stall per timeout-driven resend (stop-and-wait recovery).
const RTO_S: f64 = 0.01;

/// One cell: a transport on a channel point under a Table 1 policy.
#[derive(Debug, Clone, Copy)]
struct FountainCell {
    proto: ProtocolKind,
    point: LossPoint,
    mode: EncryptionMode,
}

impl FountainCell {
    fn policy(&self) -> Policy {
        Policy::new(Algorithm::Aes256, self.mode)
    }
}

/// The protocol matrix: transport × channel point × policy.
struct FountainMatrix {
    frames: usize,
    /// Source symbols per GOP block.
    k: usize,
    /// The fountain's ε per channel point, in [`LossPoint::ALL`] order.
    overheads: [f64; 3],
    /// The calibrated scenario the analytic delay terms are solved on.
    params: ScenarioParams,
}

impl FountainMatrix {
    fn overhead(&self, point: LossPoint) -> f64 {
        self.overheads[point as usize]
    }

    /// Goodput with one RTO of sender idle per timeout-driven
    /// retransmission.
    fn goodput(out: &CellOutcome) -> f64 {
        out.run.goodput_mbps(out.run.timeouts() as f64 * RTO_S)
    }

    fn model_delay(&self, cell: &FountainCell) -> f64 {
        model_delay_ms(
            &DelayModel::new(&self.params),
            cell.proto,
            cell.point,
            cell.policy(),
            self.k,
            self.overhead(cell.point),
        )
    }
}

impl Matrix for FountainMatrix {
    type Cell = FountainCell;
    const SALT: u64 = 0x0FEC_2026;

    fn new(input: &[InputFrame]) -> Self {
        let k = block_symbols(input);
        FountainMatrix {
            frames: input.len(),
            k,
            overheads: LossPoint::ALL.map(|point| point.overhead(k)),
            params: ScenarioParams::calibrated(MotionLevel::High, 30, SAMSUNG_GALAXY_S2, 5, 0.92),
        }
    }

    fn title(&self) -> String {
        format!(
            "Fountain protocol matrix — {}-frame clip, GOP {GOP}, k = {} symbols/block",
            self.frames, self.k
        )
    }

    fn caption(&self) -> String {
        format!(
            "Three transports × Table 1 policies × three channel points. Goodput is \
             delivered media bits per second of transfer time (air bytes at 54 Mbit/s \
             plus one RTO of idle per timeout-driven retransmission); air efficiency \
             is delivered over air bytes, where ARQ wins under mild loss because it \
             only resends what was actually lost. The fountain pre-pays its ε repair \
             spray (per-channel ε = {} from the analytic overhead-vs-loss term at 2% \
             decode failure) but never stalls for feedback — in the fade the ARQ \
             stall tax dwarfs the spray. `reproducible` = 1 means two runs from the \
             seed agreed bit for bit; ΔPSNR compares against the lossless twin.",
            self.overheads
                .iter()
                .map(|e| format!("{e:.2}"))
                .collect::<Vec<_>>()
                .join("/")
        )
    }

    fn cells(&self) -> Vec<(FountainCell, Vec<usize>)> {
        let mut cells = Vec::new();
        for (pi, proto) in ProtocolKind::ALL.into_iter().enumerate() {
            for (ci, point) in LossPoint::ALL.into_iter().enumerate() {
                for (mi, mode) in EncryptionMode::TABLE1.into_iter().enumerate() {
                    cells.push((FountainCell { proto, point, mode }, vec![pi, ci, mi]));
                }
            }
        }
        cells
    }

    fn label(&self, cell: &FountainCell) -> String {
        format!(
            "{}, {}, {}",
            cell.proto.label(),
            cell.point.label(),
            cell.mode.label()
        )
    }

    /// The cell on its channel point, or on a lossless channel for the
    /// clean twin. No transport meets a fault plan here: the channel is
    /// the only adversary.
    fn run(
        &self,
        input: &[InputFrame],
        cell: &FountainCell,
        seed: u64,
        clean: bool,
        metrics: &MetricsRegistry,
    ) -> TransportRun {
        let link = Link {
            overhead: self.overhead(cell.point),
            ..Link::new(cell.policy(), (!clean).then_some(cell.point), seed)
        };
        run_transport(cell.proto, input, link, &FaultPlan::default(), metrics)
    }

    fn row(&self, cell: &FountainCell, out: &CellOutcome) -> Vec<(String, f64)> {
        let run = &out.run;
        vec![
            ("sent".into(), run.sent as f64),
            ("bytes on air".into(), run.bytes_on_air as f64),
            ("stalls".into(), run.timeouts() as f64),
            ("goodput (Mbit/s)".into(), Self::goodput(out)),
            ("air efficiency".into(), run.air_efficiency()),
            ("frames".into(), run.received.len() as f64),
            ("frames intact".into(), run.frames_intact() as f64),
            ("model delay (ms)".into(), self.model_delay(cell)),
            ("PSNR (dB)".into(), out.psnr),
            ("ΔPSNR vs clean (dB)".into(), out.delta_psnr),
            ("reproducible".into(), out.reproducible as u8 as f64),
        ]
    }

    /// Air efficiency in (0, 1], finite-positive goodput and model delay,
    /// and a complete reliable transport.
    fn invariants(&self, cell: &FountainCell, out: &CellOutcome) -> Vec<String> {
        let mut violations = Vec::new();
        let efficiency = out.run.air_efficiency();
        if !efficiency.is_finite() || efficiency <= 0.0 || efficiency > 1.0 {
            violations.push(format!("air efficiency {efficiency} outside (0, 1]"));
        }
        let goodput = Self::goodput(out);
        if !goodput.is_finite() || goodput <= 0.0 {
            violations.push(format!("goodput {goodput} not finite-positive"));
        }
        let delay = self.model_delay(cell);
        if !delay.is_finite() || delay <= 0.0 {
            violations.push(format!("analytic delay {delay} not finite-positive"));
        }
        violations.extend(reliable_delivery(cell.proto, &out.run));
        violations
    }

    /// The headline crossover: somewhere in the deep fade, rateless coding
    /// must out-goodput the ARQ transport, and it must always out-deliver
    /// the raw UDP path there.
    fn matrix_invariants(&self, cells: &[(&FountainCell, &CellOutcome)]) -> Vec<String> {
        let mut violations = Vec::new();
        let find = |proto: ProtocolKind, mode: EncryptionMode| {
            cells
                .iter()
                .find(|(c, _)| c.proto == proto && c.point == LossPoint::DeepFade && c.mode == mode)
                .map(|&(_, out)| out)
        };
        let mut fountain_beats_arq = false;
        for mode in EncryptionMode::TABLE1 {
            let (Some(fountain), Some(tcp), Some(udp)) = (
                find(ProtocolKind::Fountain, mode),
                find(ProtocolKind::Tcp, mode),
                find(ProtocolKind::Udp, mode),
            ) else {
                violations.push(format!("deep-fade rows missing for {}", mode.label()));
                continue;
            };
            if Self::goodput(fountain) >= Self::goodput(tcp) {
                fountain_beats_arq = true;
            }
            if fountain.run.frames_intact() < udp.run.frames_intact() {
                violations.push(format!(
                    "deep-fade, {}: fountain delivered fewer frames than raw UDP",
                    mode.label()
                ));
            }
        }
        if !fountain_beats_arq {
            violations
                .push("deep fade: fountain goodput never reached the ARQ transport's".to_string());
        }
        violations
    }
}

/// The analytic delay term for one cell, milliseconds: the 2-MMPP/G/1
/// sojourn for RTP/UDP, plus the §6.4 retransmission latency at the
/// channel's loss rate for TCP, or the renewal-reward spray delay per
/// source symbol for the fountain.
fn model_delay_ms(
    model: &DelayModel,
    proto: ProtocolKind,
    point: LossPoint,
    policy: Policy,
    k: usize,
    overhead: f64,
) -> f64 {
    let pred = model
        .predict(policy)
        .expect("Table 1 policies are stable at the calibrated load");
    match proto {
        ProtocolKind::Udp => pred.mean_delay_s * 1e3,
        ProtocolKind::Tcp => {
            let loss = 1.0 - point.analytic().success_rate();
            let extra = TcpLatencyModel::new(loss, RTO_S).expected_extra_delay_s();
            (pred.mean_delay_s + extra) * 1e3
        }
        ProtocolKind::Fountain => {
            let fdm = FountainDelayModel {
                symbol_service_s: pred.mean_service_s,
                channel: point.analytic(),
                margin: DEFAULT_PEELING_MARGIN,
            };
            fdm.expected_delay_s(k, overhead) / k as f64 * 1e3
        }
    }
}

/// Generate and verify the protocol matrix: transport × channel point ×
/// policy, one telemetry snapshot per cell in row order.
pub fn fountain_matrix(effort: Effort) -> MatrixReport {
    run_matrix::<FountainMatrix>(effort)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::stream;

    #[test]
    fn overhead_grid_tracks_channel_severity() {
        let k = block_symbols(&stream(40));
        let iid = LossPoint::Iid.overhead(k);
        let burst = LossPoint::Burst.overhead(k);
        let fade = LossPoint::DeepFade.overhead(k);
        assert!(iid <= burst, "iid ε {iid} vs burst ε {burst}");
        assert!(burst < fade, "burst ε {burst} vs deep-fade ε {fade}");
        assert!(fade <= 3.0);
    }

    #[test]
    fn fountain_rides_out_the_deep_fade() {
        let report = fountain_matrix(Effort {
            trials: 1,
            frames: 40,
        });
        let intact = |label: &str| {
            report
                .table
                .rows
                .iter()
                .find(|r| r.label == label)
                .unwrap_or_else(|| panic!("row {label}"))
                .values
                .iter()
                .find(|(k, _)| k == "frames intact")
                .unwrap()
                .1
        };
        let fountain = intact("LT/fountain, deep-fade, I");
        let udp = intact("RTP/UDP, deep-fade, I");
        assert!(
            fountain > udp,
            "fountain {fountain} frames vs raw UDP {udp} in the deep fade"
        );
    }

    #[test]
    fn tcp_cells_retransmit_and_stay_complete() {
        let input = stream(40);
        let matrix = FountainMatrix::new(&input);
        let metrics = MetricsRegistry::enabled();
        let cell = FountainCell {
            proto: ProtocolKind::Tcp,
            point: LossPoint::DeepFade,
            mode: EncryptionMode::IFrames,
        };
        let run = matrix.run(&input, &cell, 9, false, &metrics);
        assert_eq!(run.frames_intact(), 40);
        assert!(
            metrics.snapshot().counter("net.tcp.retransmissions") > 0,
            "a deep fade must force retransmissions"
        );
        // Retransmissions cost air bytes beyond the first copies.
        let clean = matrix.run(&input, &cell, 9, true, &MetricsRegistry::disabled());
        assert!(run.bytes_on_air > clean.bytes_on_air);
    }
}
