//! The fault matrix: hostile-channel robustness sweep for the real-bytes
//! pipeline (`reproduce faults`).
//!
//! Sweeps every fault class of [`thrifty_faults::FaultPlan`] (plus a clean
//! baseline) across **both channel models** (i.i.d. Bernoulli — the eq. (20)
//! assumption — and bursty Gilbert–Elliott) and **both transports** (RTP/UDP
//! via the two-thread pipeline, the §6.4 marker-option TCP framing via
//! `thrifty-sim`'s TCP transport). Every cell:
//!
//! * runs **twice from the same seed** and checks the outcomes agree bit for
//!   bit (the `reproducible` column);
//! * runs a **clean twin** (same seed and channel, empty plan) and verifies
//!   the faulty output either matches it or degrades to a **quantified PSNR
//!   loss** (`ΔPSNR` column, via the paper's concealment decoder of
//!   Section 4.3.2) — never a panic or a deadlock;
//! * captures a **telemetry snapshot** (fault counters, channel counters,
//!   erasure counters) into its own registry, merged per-figure like the
//!   delay figures.
//!
//! Intact frames are *byte-identical* to the transmitted originals by
//! construction (reassembly compares payloads), so "frames intact" counts
//! exact recoveries and everything else is concealed damage.

use thrifty_faults::{FaultPlan, FaultStats, Region};
use thrifty_sim::pipeline::{run_pipeline_faulty, AirChannel, PipelineConfig};
use thrifty_sim::tcp::{run_pipeline_tcp, TcpConfig};
use thrifty_telemetry::MetricsRegistry;
use thrifty_video::scene::{SceneConfig, SceneGenerator};
use thrifty_video::MotionLevel;

use crate::fountain::{concealed_psnr, received_flags, stream, GOP};
use crate::parallel::par_map;
use crate::{CellMetrics, Effort, FigureMetrics, Row, Table};

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

/// The two channel models of the matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChannelKind {
    /// Independent per-packet loss (eq. (20)'s assumption).
    Iid,
    /// Two-state Gilbert–Elliott bursty loss.
    Burst,
}

impl ChannelKind {
    /// Both channel models, in column order.
    pub const ALL: [ChannelKind; 2] = [ChannelKind::Iid, ChannelKind::Burst];

    fn label(self) -> &'static str {
        match self {
            ChannelKind::Iid => "iid",
            ChannelKind::Burst => "burst",
        }
    }

    /// The pipeline's air-channel configuration for this model.
    fn air(self) -> (f64, AirChannel) {
        match self {
            ChannelKind::Iid => (0.02, AirChannel::Iid),
            ChannelKind::Burst => (
                0.0,
                AirChannel::Burst {
                    p_gb: 0.03,
                    p_bg: 0.3,
                    good_success: 0.995,
                    bad_success: 0.6,
                },
            ),
        }
    }
}

/// The two transports of the matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportKind {
    /// The RTP/UDP real-bytes pipeline.
    Udp,
    /// The §6.4 TCP framing (marker option), with retransmission of lost
    /// segments.
    Tcp,
}

impl TransportKind {
    /// Both transports, in column order.
    pub const ALL: [TransportKind; 2] = [TransportKind::Udp, TransportKind::Tcp];

    fn label(self) -> &'static str {
        match self {
            TransportKind::Udp => "RTP/UDP",
            TransportKind::Tcp => "HTTP/TCP",
        }
    }
}

/// What one matrix-cell run produced — everything the reproducibility and
/// degradation checks compare.
#[derive(Debug, Clone, PartialEq)]
struct CellRun {
    packets_sent: usize,
    faults: FaultStats,
    erasures: u64,
    /// Per-frame exact-recovery flags, index = frame number.
    received: Vec<bool>,
}

impl CellRun {
    fn frames_intact(&self) -> usize {
        self.received.iter().filter(|&&ok| ok).count()
    }
}

/// Seed for a cell, mixed from its matrix coordinates so no two cells share
/// fault-site streams.
fn cell_seed(class: usize, chan: usize, transport: usize) -> u64 {
    0xFA17_2026
        ^ (class as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (chan as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F)
        ^ (transport as u64).wrapping_mul(0x85EB_CA6B)
}

/// One cell: the transport under the class's plan on the channel model.
/// Over TCP, segments the channel loses are retransmitted, segments the
/// plan mangles arrive damaged and surface as erasures, and I-frame
/// segments are really encrypted — so the stale-key site bites there too.
fn run_cell(
    frames: usize,
    class: FaultClass,
    chan: ChannelKind,
    transport: TransportKind,
    seed: u64,
    metrics: &MetricsRegistry,
) -> CellRun {
    let plan = class.plan(seed);
    let (loss_prob, channel) = chan.air();
    match transport {
        TransportKind::Udp => {
            let config = PipelineConfig {
                loss_prob,
                channel,
                seed,
                ..PipelineConfig::default()
            };
            let out = run_pipeline_faulty(stream(frames), config, &plan, metrics)
                .expect("fault matrix plans are valid; pipeline stages are panic-free");
            CellRun {
                packets_sent: out.packets_sent,
                faults: out.faults,
                erasures: out.receiver_erasures.total(),
                received: received_flags(frames, &out.receiver),
            }
        }
        TransportKind::Tcp => {
            let config = TcpConfig {
                loss_prob,
                channel,
                seed,
                ..TcpConfig::default()
            };
            let out = run_pipeline_tcp(&stream(frames), &config, &plan, metrics)
                .expect("fault matrix plans and channels are valid");
            CellRun {
                packets_sent: out.segments_sent,
                faults: out.faults,
                erasures: out.receiver_erasures,
                received: received_flags(frames, &out.receiver),
            }
        }
    }
}

/// Generate the fault matrix: every fault class × channel model × transport.
///
/// Always metered — the returned [`FigureMetrics`] carries one snapshot per
/// cell (in row order) plus the merged figure. Each cell seeds its own RNGs
/// from its matrix coordinates, so [`par_map`] evaluation cannot perturb the
/// values and two invocations agree bit for bit.
pub fn fault_matrix(effort: Effort) -> (Table, FigureMetrics) {
    let frames = effort.frames.clamp(40, 120);
    let clip = SceneGenerator::new(SceneConfig::qcif(MotionLevel::High, 7)).clip(frames);
    let mut cells = Vec::new();
    for (ti, transport) in TransportKind::ALL.into_iter().enumerate() {
        for (ci, chan) in ChannelKind::ALL.into_iter().enumerate() {
            for (fi, class) in FaultClass::ALL.into_iter().enumerate() {
                cells.push((class, chan, transport, cell_seed(fi, ci, ti)));
            }
        }
    }
    let results = par_map(&cells, |&(class, chan, transport, seed)| {
        let metrics = MetricsRegistry::enabled();
        let run = run_cell(frames, class, chan, transport, seed, &metrics);
        // Determinism gate: the same seed must reproduce the run bit for
        // bit (fresh registry: telemetry must not feed back into behaviour).
        let rerun = run_cell(frames, class, chan, transport, seed, &MetricsRegistry::enabled());
        let reproducible = run == rerun;
        // Degradation gate: the clean twin (same seed/channel, empty plan)
        // bounds the faulty run from above — faults only remove frames.
        let clean = run_cell(
            frames,
            FaultClass::Baseline,
            chan,
            transport,
            seed,
            &MetricsRegistry::disabled(),
        );
        let psnr = concealed_psnr(&clip, &run.received);
        let clean_psnr = concealed_psnr(&clip, &clean.received);
        let identical = run.received == clean.received;
        let row = Row {
            label: format!("{}, {}, {}", transport.label(), chan.label(), class.label()),
            values: vec![
                ("packets".into(), run.packets_sent as f64),
                ("faults injected".into(), run.faults.total() as f64),
                ("erasures".into(), run.erasures as f64),
                ("frames intact".into(), run.frames_intact() as f64),
                ("PSNR (dB)".into(), psnr),
                ("ΔPSNR vs clean (dB)".into(), clean_psnr - psnr),
                ("clean-identical".into(), identical as u8 as f64),
                ("reproducible".into(), reproducible as u8 as f64),
            ],
        };
        (row, metrics.snapshot())
    });
    let title = format!("Fault matrix — {frames}-frame clip, GOP {GOP}");
    let (rows, snapshots): (Vec<Row>, Vec<_>) = results.into_iter().unzip();
    let figure_metrics = FigureMetrics {
        title: title.clone(),
        cells: rows
            .iter()
            .zip(snapshots)
            .map(|(row, snapshot)| CellMetrics {
                label: row.label.clone(),
                snapshot,
            })
            .collect(),
    };
    let table = Table {
        title,
        caption: "Every fault class × channel model × transport. Intact frames are \
                  byte-identical to the transmitted originals; damaged frames are \
                  concealed and the quality cost is the ΔPSNR column (clean twin minus \
                  faulty run, same seed). `reproducible` = 1 means two runs from the \
                  seed agreed bit for bit; `clean-identical` = 1 means the plan changed \
                  nothing (baseline rows, and harmless faults like duplication over a \
                  reliable transport)."
            .into(),
        rows,
    };
    (table, figure_metrics)
}

/// Assert the matrix's hard guarantees on a generated table; returns the
/// violations (empty = pass). Used by the `reproduce faults` subcommand and
/// the CI smoke sweep so a regression fails the run, not just the eyeball.
pub fn verify_fault_matrix(table: &Table) -> Vec<String> {
    let mut violations = Vec::new();
    let col = |row: &Row, name: &str| -> f64 {
        row.values
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| *v)
            .unwrap_or(f64::NAN)
    };
    for row in &table.rows {
        // lint:allow(num-float-eq): indicator column stores exactly 1.0 or 0.0
        if col(row, "reproducible") != 1.0 {
            violations.push(format!("{}: run was not bit-reproducible", row.label));
        }
        let delta = col(row, "ΔPSNR vs clean (dB)");
        if delta.is_nan() || delta < -1e-9 {
            violations.push(format!(
                "{}: faulty run beat its clean twin (ΔPSNR = {delta})",
                row.label
            ));
        }
        if row.label.ends_with("baseline") {
            // lint:allow(num-float-eq): indicator column stores exactly 1.0 or 0.0
            if col(row, "clean-identical") != 1.0 {
                violations.push(format!("{}: empty plan diverged from clean run", row.label));
            }
            // lint:allow(num-float-eq): fault counter column is an integer stored in f64; exact zero means none fired
            if col(row, "faults injected") != 0.0 {
                violations.push(format!("{}: empty plan injected faults", row.label));
            }
        // lint:allow(num-float-eq): fault counter column is an integer stored in f64; exact zero means none fired
        } else if col(row, "faults injected") == 0.0 {
            violations.push(format!("{}: armed plan injected nothing", row.label));
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Effort {
        Effort {
            trials: 1,
            frames: 40,
        }
    }

    #[test]
    fn matrix_covers_all_classes_channels_transports() {
        let (table, metrics) = fault_matrix(tiny());
        assert_eq!(
            table.rows.len(),
            FaultClass::ALL.len() * ChannelKind::ALL.len() * TransportKind::ALL.len()
        );
        assert_eq!(metrics.cells.len(), table.rows.len());
        for class in FaultClass::ALL {
            for transport in TransportKind::ALL {
                assert!(
                    table.rows.iter().any(|r| {
                        r.label.starts_with(transport.label()) && r.label.ends_with(class.label())
                    }),
                    "missing {} × {}",
                    transport.label(),
                    class.label()
                );
            }
        }
    }

    #[test]
    fn matrix_passes_its_own_verification() {
        let (table, _) = fault_matrix(tiny());
        let violations = verify_fault_matrix(&table);
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn matrix_is_deterministic_across_invocations() {
        let (a, ma) = fault_matrix(tiny());
        let (b, mb) = fault_matrix(tiny());
        for (ra, rb) in a.rows.iter().zip(&b.rows) {
            assert_eq!(ra.label, rb.label);
            for ((ka, va), (kb, vb)) in ra.values.iter().zip(&rb.values) {
                assert_eq!(ka, kb);
                assert_eq!(va.to_bits(), vb.to_bits(), "{}/{ka}", ra.label);
            }
        }
        assert_eq!(ma.to_json(), mb.to_json(), "telemetry must be byte-stable");
    }

    #[test]
    fn cell_snapshots_count_the_armed_site() {
        let (table, metrics) = fault_matrix(tiny());
        for (row, cell) in table.rows.iter().zip(&metrics.cells) {
            if row.label.ends_with("corruption") {
                assert!(
                    cell.snapshot.counter("faults.corrupted") > 0,
                    "{}: corruption cell must meter its site",
                    row.label
                );
            }
            if row.label.ends_with("baseline") {
                assert_eq!(
                    cell.snapshot.counter("faults.corrupted"),
                    0,
                    "{}: baseline cell must stay silent",
                    row.label
                );
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
        let run = run_cell(
            frames,
            FaultClass::Baseline,
            ChannelKind::Burst,
            TransportKind::Tcp,
            5,
            &metrics,
        );
        assert_eq!(run.frames_intact(), frames);
        assert!(
            metrics.snapshot().counter("net.tcp.retransmissions") > 0,
            "a bursty channel must force retransmissions"
        );
    }
}
