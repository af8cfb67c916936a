//! The fault matrix: hostile-channel robustness sweep for the real-bytes
//! pipeline (`reproduce faults`).
//!
//! Sweeps every fault class of [`thrifty_faults::FaultPlan`] (plus a clean
//! baseline) across **two channel points** (i.i.d. Bernoulli — the eq. (20)
//! assumption — and bursty Gilbert–Elliott) and **two transports** (RTP/UDP
//! and the §6.4 marker-option HTTP/TCP framing). The clean twin of a cell
//! is the same channel under an empty plan, so its ΔPSNR is the quality
//! cost of the armed fault alone; the double run, the clean twin and the
//! per-cell telemetry come from the [matrix harness](crate::matrix).
//!
//! Intact frames are *byte-identical* to the transmitted originals by
//! construction (reassembly compares payloads), so "frames intact" counts
//! exact recoveries and everything else is concealed damage.

use thrifty_analytic::policy::{EncryptionMode, Policy};
use thrifty_crypto::Algorithm;
use thrifty_faults::{FaultPlan, Region};
use thrifty_sim::pipeline::InputFrame;
use thrifty_telemetry::MetricsRegistry;

use crate::matrix::{
    run_matrix, run_transport, CellOutcome, Link, LossPoint, Matrix, MatrixReport, ProtocolKind,
    TransportRun, GOP,
};
use crate::Effort;

/// The fault classes of the matrix, in row order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultClass {
    /// Empty plan — the clean control row (ΔPSNR must be exactly 0).
    Baseline,
    /// Per-packet bit flips (headers and payloads).
    Corruption,
    /// Packets cut short mid-payload.
    Truncation,
    /// Packets delivered twice.
    Duplication,
    /// Packets released out of order in bursts.
    Reordering,
    /// Gilbert–Elliott loss episodes layered on the channel.
    BurstLoss,
    /// Producer outpaces the encryptor at the bounded queue.
    QueueOverflow,
    /// Receiver decrypts with an out-of-date key.
    StaleKey,
}

impl FaultClass {
    /// Every class, in the matrix's deterministic row order.
    pub const ALL: [FaultClass; 8] = [
        FaultClass::Baseline,
        FaultClass::Corruption,
        FaultClass::Truncation,
        FaultClass::Duplication,
        FaultClass::Reordering,
        FaultClass::BurstLoss,
        FaultClass::QueueOverflow,
        FaultClass::StaleKey,
    ];

    /// Row label.
    pub fn label(self) -> &'static str {
        match self {
            FaultClass::Baseline => "baseline",
            FaultClass::Corruption => "corruption",
            FaultClass::Truncation => "truncation",
            FaultClass::Duplication => "duplication",
            FaultClass::Reordering => "reordering",
            FaultClass::BurstLoss => "burst-loss",
            FaultClass::QueueOverflow => "queue-overflow",
            FaultClass::StaleKey => "stale-key",
        }
    }

    /// The seeded plan arming exactly this class.
    pub fn plan(self, seed: u64) -> FaultPlan {
        let base = FaultPlan::none(seed);
        match self {
            FaultClass::Baseline => base,
            FaultClass::Corruption => base.with_corruption(0.1, Region::Anywhere, 8),
            FaultClass::Truncation => base.with_truncation(0.08, 8),
            FaultClass::Duplication => base.with_duplication(0.1),
            FaultClass::Reordering => base.with_reordering(8),
            FaultClass::BurstLoss => base.with_burst_loss(0.05, 0.3, 0.9),
            FaultClass::QueueOverflow => base.with_queue_overflow(4, 0.6),
            FaultClass::StaleKey => base.with_stale_key(0.15),
        }
    }
}

/// The transports of the matrix, in row-block order.
const TRANSPORTS: [ProtocolKind; 2] = [ProtocolKind::Udp, ProtocolKind::Tcp];
/// The channel points of the matrix, in column order.
const CHANNELS: [LossPoint; 2] = [LossPoint::Iid, LossPoint::Burst];

/// One cell: a fault class on a channel point over a transport.
#[derive(Debug, Clone, Copy)]
struct FaultCell {
    class: FaultClass,
    point: LossPoint,
    transport: ProtocolKind,
}

/// The fault matrix: every fault class × channel point × transport.
struct FaultMatrix {
    frames: usize,
}

impl Matrix for FaultMatrix {
    type Cell = FaultCell;
    const SALT: u64 = 0xFA17_2026;

    fn new(input: &[InputFrame]) -> Self {
        FaultMatrix {
            frames: input.len(),
        }
    }

    fn title(&self) -> String {
        format!("Fault matrix — {}-frame clip, GOP {GOP}", self.frames)
    }

    fn caption(&self) -> String {
        "Every fault class × channel model × transport. Intact frames are \
         byte-identical to the transmitted originals; damaged frames are \
         concealed and the quality cost is the ΔPSNR column (clean twin minus \
         faulty run, same seed). `reproducible` = 1 means two runs from the \
         seed agreed bit for bit; `clean-identical` = 1 means the plan changed \
         nothing (baseline rows, and harmless faults like duplication over a \
         reliable transport)."
            .into()
    }

    fn cells(&self) -> Vec<(FaultCell, Vec<usize>)> {
        let mut cells = Vec::new();
        for (ti, transport) in TRANSPORTS.into_iter().enumerate() {
            for (ci, point) in CHANNELS.into_iter().enumerate() {
                for (fi, class) in FaultClass::ALL.into_iter().enumerate() {
                    let cell = FaultCell {
                        class,
                        point,
                        transport,
                    };
                    cells.push((cell, vec![fi, ci, ti]));
                }
            }
        }
        cells
    }

    fn label(&self, cell: &FaultCell) -> String {
        format!(
            "{}, {}, {}",
            cell.transport.label(),
            cell.point.label(),
            cell.class.label()
        )
    }

    /// The cell under its class's plan, or for the clean twin under the
    /// baseline's empty plan on the same seed and channel. Over TCP,
    /// segments the channel loses are retransmitted, segments the plan
    /// mangles arrive damaged and surface as erasures, and I-frame segments
    /// are really encrypted — so the stale-key site bites there too.
    fn run(
        &self,
        input: &[InputFrame],
        cell: &FaultCell,
        seed: u64,
        clean: bool,
        metrics: &MetricsRegistry,
    ) -> TransportRun {
        let class = if clean {
            FaultClass::Baseline
        } else {
            cell.class
        };
        let policy = Policy::new(Algorithm::Aes256, EncryptionMode::IFrames);
        let link = Link::new(policy, Some(cell.point), seed);
        run_transport(cell.transport, input, link, &class.plan(seed), metrics)
    }

    fn row(&self, _cell: &FaultCell, out: &CellOutcome) -> Vec<(String, f64)> {
        let run = &out.run;
        vec![
            ("packets".into(), run.sent as f64),
            ("faults injected".into(), run.faults.total() as f64),
            ("erasures".into(), run.erasures as f64),
            ("frames intact".into(), run.frames_intact() as f64),
            ("PSNR (dB)".into(), out.psnr),
            ("ΔPSNR vs clean (dB)".into(), out.delta_psnr),
            ("clean-identical".into(), clean_identical(out) as u8 as f64),
            ("reproducible".into(), out.reproducible as u8 as f64),
        ]
    }

    /// The baseline must match its clean twin and inject nothing; every
    /// armed class must inject at least one fault.
    fn invariants(&self, cell: &FaultCell, out: &CellOutcome) -> Vec<String> {
        let injected = out.run.faults.total();
        let mut violations = Vec::new();
        if cell.class == FaultClass::Baseline {
            if !clean_identical(out) {
                violations.push("empty plan diverged from clean run".to_string());
            }
            if injected != 0 {
                violations.push("empty plan injected faults".to_string());
            }
        } else if injected == 0 {
            violations.push("armed plan injected nothing".to_string());
        }
        violations
    }
}

/// The plan changed nothing the receiver recovered.
fn clean_identical(out: &CellOutcome) -> bool {
    out.run.received == out.clean.received
}

/// Generate and verify the fault matrix: every fault class × channel point
/// × transport, one telemetry snapshot per cell in row order.
pub fn fault_matrix(effort: Effort) -> MatrixReport {
    run_matrix::<FaultMatrix>(effort)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::stream;

    #[test]
    fn cell_snapshots_count_the_armed_site() {
        let report = fault_matrix(Effort {
            trials: 1,
            frames: 40,
        });
        let cells = FaultMatrix { frames: 40 }.cells();
        for ((cell, _), metrics) in cells.iter().zip(&report.metrics.cells) {
            let corrupted = metrics.snapshot.counter("faults.corrupted");
            match cell.class {
                FaultClass::Corruption => {
                    assert!(
                        corrupted > 0,
                        "{}: corruption cell must meter its site",
                        metrics.label
                    )
                }
                FaultClass::Baseline => {
                    assert_eq!(
                        corrupted, 0,
                        "{}: baseline cell must stay silent",
                        metrics.label
                    )
                }
                _ => {}
            }
        }
    }

    #[test]
    fn tcp_retransmits_instead_of_losing() {
        // Over the reliable transport, pure channel loss costs retransmits
        // but no frames: the baseline row recovers everything even on the
        // bursty channel.
        let frames = 40;
        let metrics = MetricsRegistry::enabled();
        let cell = FaultCell {
            class: FaultClass::Baseline,
            point: LossPoint::Burst,
            transport: ProtocolKind::Tcp,
        };
        let run = FaultMatrix { frames }.run(&stream(frames), &cell, 5, false, &metrics);
        assert_eq!(run.frames_intact(), frames);
        assert!(
            metrics.snapshot().counter("net.tcp.retransmissions") > 0,
            "a bursty channel must force retransmissions"
        );
    }
}
