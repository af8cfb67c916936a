//! The protocol matrix: RTP/UDP vs HTTP/TCP vs LT-fountain transport
//! (`reproduce fountain`).
//!
//! Sweeps the three transport scenarios across the four Table 1 policies
//! and three channel operating points — i.i.d. loss and the PR 3 fault
//! matrix's Gilbert–Elliott burst channel, plus a **deep-fade** burst point
//! (long, lossy bad-state dwells) where an ARQ transport thrashes on
//! retransmissions. Every cell:
//!
//! * runs **twice from the same seed** and checks the outcomes agree bit
//!   for bit (the `reproducible` column);
//! * runs a **clean twin** (same transport/policy/seed, lossless channel)
//!   and verifies the lossy run never beats it (`ΔPSNR` column via the
//!   paper's concealment decoder) — losses only remove frames;
//! * records **goodput** (delivered media bits per second of transfer
//!   time — air bytes at the 802.11g rate plus one RTO of idle per
//!   timeout-driven retransmission), the **air efficiency** byte ratio,
//!   the analytic **delay** term for its transport, and the distortion
//!   columns.
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

use thrifty_analytic::delay::DelayModel;
use thrifty_analytic::fountain::{FountainChannel, FountainDelayModel, DEFAULT_PEELING_MARGIN};
use thrifty_analytic::params::{ScenarioParams, SAMSUNG_GALAXY_S2};
use thrifty_analytic::policy::{EncryptionMode, Policy};
use thrifty_crypto::Algorithm;
use thrifty_faults::FaultPlan;
use thrifty_net::tcp::TcpLatencyModel;
use thrifty_net::wire::{FRAG_HEADER_LEN, RTP_HEADER_LEN};
use thrifty_net::UDP_IP_OVERHEAD;
use thrifty_sim::fountain::{run_pipeline_fountain_metered, FountainConfig};
use thrifty_sim::pipeline::{
    run_pipeline_metered, AirChannel, InputFrame, PipelineConfig, Reconstruction,
};
use thrifty_sim::tcp::{run_pipeline_tcp, TcpConfig};
use thrifty_telemetry::MetricsRegistry;
use thrifty_video::nal::write_annex_b;
use thrifty_video::quality::{measure_quality, ConcealingDecoder};
use thrifty_video::scene::{SceneConfig, SceneGenerator};
use thrifty_video::{FrameType, MotionLevel};

use crate::parallel::par_map;
use crate::{CellMetrics, Effort, FigureMetrics, Row, Table};

/// GOP structure of the clip every self-verifying matrix transmits (one
/// source block per GOP on the fountain path).
pub(crate) const GOP: usize = 10;
/// Coded symbol payload length — small enough that a GOP block spans
/// dozens of symbols, so burst dwells average out inside one block.
pub(crate) const SYMBOL_LEN: usize = 500;
/// TCP retransmission timeout fed to the §6.4 latency term and billed as
/// an idle stall per timeout-driven resend (stop-and-wait recovery).
const RTO_S: f64 = 0.01;
/// 802.11g air rate the goodput clock runs at, bits per second.
const PHY_RATE_BPS: f64 = 54e6;
/// The analytic decode-failure probability the ε grid search targets.
const DECODE_FAILURE_TARGET: f64 = 0.02;

/// The three transport scenarios of the matrix, in row-block order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtocolKind {
    /// The RTP/UDP real-bytes pipeline (PR 2).
    Udp,
    /// The §6.4 marker-option TCP framing with retransmission (PR 3).
    Tcp,
    /// LT fountain symbols over UDP framing (`thrifty-fec`).
    Fountain,
}

impl ProtocolKind {
    /// Every transport, in the matrix's deterministic order.
    pub const ALL: [ProtocolKind; 3] =
        [ProtocolKind::Udp, ProtocolKind::Tcp, ProtocolKind::Fountain];

    /// Row label prefix.
    pub fn label(self) -> &'static str {
        match self {
            ProtocolKind::Udp => "RTP/UDP",
            ProtocolKind::Tcp => "HTTP/TCP",
            ProtocolKind::Fountain => "LT/fountain",
        }
    }
}

/// The channel operating points of the matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LossPoint {
    /// Independent 2% per-packet loss (eq. (20)'s assumption).
    Iid,
    /// The PR 3 fault matrix's mild Gilbert–Elliott burst channel.
    Burst,
    /// A deep fade: long bad-state dwells delivering almost nothing —
    /// the regime where ARQ pays a geometric retransmission tax.
    DeepFade,
}

impl LossPoint {
    /// Every operating point, in column order.
    pub const ALL: [LossPoint; 3] = [LossPoint::Iid, LossPoint::Burst, LossPoint::DeepFade];

    fn label(self) -> &'static str {
        match self {
            LossPoint::Iid => "iid",
            LossPoint::Burst => "burst",
            LossPoint::DeepFade => "deep-fade",
        }
    }

    /// The pipeline's air-channel configuration for this point.
    fn air(self) -> (f64, AirChannel) {
        match self {
            LossPoint::Iid => (0.02, AirChannel::Iid),
            LossPoint::Burst => (
                0.0,
                AirChannel::Burst {
                    p_gb: 0.03,
                    p_bg: 0.3,
                    good_success: 0.995,
                    bad_success: 0.6,
                },
            ),
            LossPoint::DeepFade => (
                0.0,
                AirChannel::Burst {
                    p_gb: 0.05,
                    p_bg: 0.08,
                    good_success: 0.995,
                    bad_success: 0.05,
                },
            ),
        }
    }

    /// The analytic per-symbol delivery process (the overhead-vs-loss term).
    fn analytic(self) -> FountainChannel {
        match self.air() {
            (loss, AirChannel::Iid) => FountainChannel::Iid { loss },
            (
                _,
                AirChannel::Burst {
                    p_gb,
                    p_bg,
                    good_success,
                    bad_success,
                },
            ) => FountainChannel::Burst {
                p_gb,
                p_bg,
                good_success,
                bad_success,
            },
        }
    }
}

/// What one matrix-cell run produced — everything the reproducibility and
/// degradation checks compare.
#[derive(Debug, Clone, PartialEq, Eq)]
struct CellRun {
    /// Transmissions: UDP packets, TCP segments (first copies), or coded
    /// symbols.
    sent: usize,
    /// Total bytes on the air, retransmissions and repair symbols included
    /// (media packets only — parameter-set lead-ins and the fountain's
    /// out-of-band frame directory are control-plane on every path).
    bytes_on_air: u64,
    /// Annex-B bytes of the frames recovered byte-identically.
    delivered_bytes: u64,
    /// Timeout-driven retransmissions — each one idles the sender for one
    /// RTO before the resend (zero on the feedback-free transports).
    stalls: usize,
    /// Per-frame exact-recovery flags, index = frame number.
    received: Vec<bool>,
}

impl CellRun {
    fn frames_intact(&self) -> usize {
        self.received.iter().filter(|&&ok| ok).count()
    }

    /// Delivered media over bytes on the air — the byte-thrift ratio ARQ
    /// wins under mild loss (it only resends what was actually lost).
    fn air_efficiency(&self) -> f64 {
        self.delivered_bytes as f64 / self.bytes_on_air as f64
    }

    /// Wall time of the transfer: air time of every byte plus one RTO of
    /// idle per timeout-driven retransmission.
    fn transfer_time_s(&self) -> f64 {
        self.bytes_on_air as f64 * 8.0 / PHY_RATE_BPS + self.stalls as f64 * RTO_S
    }

    /// Delivered media bits per second of transfer time — where the
    /// feedback stalls ARQ pays per loss actually land.
    fn goodput_mbps(&self) -> f64 {
        self.delivered_bytes as f64 * 8.0 / self.transfer_time_s() / 1e6
    }
}

/// The synthetic coded stream every cell of the fault, protocol and chaos
/// matrices transmits (deterministic).
pub(crate) fn stream(frames: usize) -> Vec<InputFrame> {
    (0..frames)
        .map(|i| {
            let ftype = if i % GOP == 0 { FrameType::I } else { FrameType::P };
            let bytes = if ftype == FrameType::I { 8000 } else { 900 };
            InputFrame::synthetic(i, ftype, bytes)
        })
        .collect()
}

/// Annex-B length of one frame — the media bytes a transport must carry.
pub(crate) fn annex_b_len(frame: &InputFrame) -> usize {
    write_annex_b(std::slice::from_ref(&frame.nal)).len()
}

/// Source symbols per full GOP block at [`SYMBOL_LEN`] — the `k` the
/// analytic overhead term is evaluated at.
pub(crate) fn block_symbols(input: &[InputFrame]) -> usize {
    let block_len: usize = input.iter().take(GOP).map(annex_b_len).sum();
    block_len.div_ceil(SYMBOL_LEN)
}

/// Smallest grid ε whose analytic decode-failure probability at `k`
/// source symbols drops below [`DECODE_FAILURE_TARGET`] on this channel.
fn overhead_for(point: LossPoint, k: usize) -> f64 {
    let channel = point.analytic();
    for step in 1..=60 {
        let eps = step as f64 * 0.05;
        let n = FountainDelayModel::symbols_sent(k, eps);
        if channel.decode_failure_prob(k, n, DEFAULT_PEELING_MARGIN) <= DECODE_FAILURE_TARGET {
            return eps;
        }
    }
    3.0
}

/// Seed for a cell, mixed from its matrix coordinates so no two cells
/// share RNG streams.
fn cell_seed(proto: usize, point: usize, policy: usize) -> u64 {
    0x0FEC_2026
        ^ (proto as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (point as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F)
        ^ (policy as u64).wrapping_mul(0x85EB_CA6B)
}

/// Per-frame exact-recovery flags for `frames` frames, index = frame
/// number.
pub(crate) fn received_flags(frames: usize, receiver: &Reconstruction) -> Vec<bool> {
    let mut received = vec![false; frames];
    for &f in &receiver.frames_ok {
        if f < frames {
            received[f] = true;
        }
    }
    received
}

/// Annex-B bytes of the byte-identically recovered frames.
pub(crate) fn delivered_media_bytes(input: &[InputFrame], received: &[bool]) -> u64 {
    input
        .iter()
        .filter(|f| received.get(f.index).copied().unwrap_or(false))
        .map(|f| annex_b_len(f) as u64)
        .sum()
}

/// One cell's coordinates: everything that determines a run besides the
/// lossless-twin toggle and the registry.
#[derive(Clone, Copy)]
struct CellSpec {
    proto: ProtocolKind,
    point: LossPoint,
    policy: Policy,
    seed: u64,
    overhead: f64,
}

/// One cell on its channel point, or on a lossless channel for the clean
/// twin. RTP/UDP abandons lost packets and undecoded fountain blocks
/// surface as missing frames; TCP retransmits every lost segment until it
/// gets through, each attempt billed to the air and each retransmission
/// one RTO stall.
fn run_cell(input: &[InputFrame], spec: CellSpec, clean: bool, metrics: &MetricsRegistry) -> CellRun {
    let CellSpec { proto, point, policy, seed, overhead } = spec;
    let (loss_prob, channel) = if clean { (0.0, AirChannel::Iid) } else { point.air() };
    let (sent, bytes_on_air, stalls, receiver) = match proto {
        ProtocolKind::Udp => {
            let config = PipelineConfig {
                policy,
                loss_prob,
                channel,
                seed,
                ..PipelineConfig::default()
            };
            let mtu = config.mtu_payload;
            let out = run_pipeline_metered(input.to_vec(), config, metrics);
            // Media bytes on the air: every frame's Annex-B stream is
            // chunked at the MTU; each packet pays the RTP + fragment
            // headers and UDP/IP.
            let bytes_on_air: u64 = input
                .iter()
                .map(|f| {
                    let len = annex_b_len(f);
                    let packets = len.div_ceil(mtu);
                    (len + packets * (RTP_HEADER_LEN + FRAG_HEADER_LEN + UDP_IP_OVERHEAD)) as u64
                })
                .sum();
            (out.packets_sent, bytes_on_air, 0, out.receiver)
        }
        ProtocolKind::Tcp => {
            let config = TcpConfig { policy, loss_prob, seed, channel };
            let out = run_pipeline_tcp(input, &config, &FaultPlan::default(), metrics)
                .expect("matrix channels and policies are valid");
            let stalls = out.retransmissions() as usize;
            (out.segments_sent, out.bytes_on_air(), stalls, out.receiver)
        }
        ProtocolKind::Fountain => {
            let config = FountainConfig {
                policy,
                symbol_len: SYMBOL_LEN,
                overhead,
                loss_prob,
                seed,
                channel,
            };
            let out = run_pipeline_fountain_metered(input, &config, metrics)
                .expect("matrix channels and policies are valid");
            (out.symbols_sent, out.bytes_on_air, 0, out.receiver)
        }
    };
    let received = received_flags(input.len(), &receiver);
    CellRun {
        sent,
        bytes_on_air,
        delivered_bytes: delivered_media_bytes(input, &received),
        stalls,
        received,
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

/// PSNR of the concealed reconstruction implied by `received`, against a
/// deterministic QCIF clip (the paper's concealment decoder, eq. (28)).
pub(crate) fn concealed_psnr(clip: &[thrifty_video::yuv::YuvFrame], received: &[bool]) -> f64 {
    let reconstructed = ConcealingDecoder.reconstruct(clip, received, GOP);
    measure_quality(clip, &reconstructed).psnr_of_mean_mse
}

/// Generate the protocol matrix: transport × channel point × policy.
///
/// Always metered — the returned [`FigureMetrics`] carries one snapshot
/// per cell (in row order) plus the merged figure. Each cell seeds its own
/// RNGs from its matrix coordinates, so [`par_map`] evaluation cannot
/// perturb the values and two invocations agree bit for bit.
pub fn fountain_matrix(effort: Effort) -> (Table, FigureMetrics) {
    let frames = effort.frames.clamp(40, 120);
    let clip = SceneGenerator::new(SceneConfig::qcif(MotionLevel::High, 7)).clip(frames);
    let input = stream(frames);
    let k = block_symbols(&input);
    let overheads: Vec<f64> = LossPoint::ALL
        .iter()
        .map(|&point| overhead_for(point, k))
        .collect();
    let params = ScenarioParams::calibrated(MotionLevel::High, 30, SAMSUNG_GALAXY_S2, 5, 0.92);
    let model = DelayModel::new(&params);

    let mut cells = Vec::new();
    for (pi, proto) in ProtocolKind::ALL.into_iter().enumerate() {
        for (ci, point) in LossPoint::ALL.into_iter().enumerate() {
            for (mi, mode) in EncryptionMode::TABLE1.into_iter().enumerate() {
                cells.push((proto, point, mode, cell_seed(pi, ci, mi), overheads[ci]));
            }
        }
    }
    let results = par_map(&cells, |&(proto, point, mode, seed, overhead)| {
        let policy = Policy::new(Algorithm::Aes256, mode);
        let spec = CellSpec { proto, point, policy, seed, overhead };
        let metrics = MetricsRegistry::enabled();
        let run = run_cell(&input, spec, false, &metrics);
        // Determinism gate: the same seed must reproduce the run bit for
        // bit (fresh registry: telemetry must not feed back into behaviour).
        let rerun = run_cell(&input, spec, false, &MetricsRegistry::enabled());
        let reproducible = run == rerun;
        // Degradation gate: the lossless twin (same transport/policy/seed)
        // bounds the lossy run from above — the channel only removes frames.
        let clean = run_cell(&input, spec, true, &MetricsRegistry::disabled());
        let psnr = concealed_psnr(&clip, &run.received);
        let clean_psnr = concealed_psnr(&clip, &clean.received);
        let row = Row {
            label: format!("{}, {}, {}", proto.label(), point.label(), mode.label()),
            values: vec![
                ("sent".into(), run.sent as f64),
                ("bytes on air".into(), run.bytes_on_air as f64),
                ("stalls".into(), run.stalls as f64),
                ("goodput (Mbit/s)".into(), run.goodput_mbps()),
                ("air efficiency".into(), run.air_efficiency()),
                ("frames".into(), frames as f64),
                ("frames intact".into(), run.frames_intact() as f64),
                ("model delay (ms)".into(), model_delay_ms(&model, proto, point, policy, k, overhead)),
                ("PSNR (dB)".into(), psnr),
                ("ΔPSNR vs clean (dB)".into(), clean_psnr - psnr),
                ("reproducible".into(), reproducible as u8 as f64),
            ],
        };
        (row, metrics.snapshot())
    });
    let title = format!(
        "Fountain protocol matrix — {frames}-frame clip, GOP {GOP}, k = {k} symbols/block"
    );
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
        caption: format!(
            "Three transports × Table 1 policies × three channel points. Goodput is \
             delivered media bits per second of transfer time (air bytes at 54 Mbit/s \
             plus one RTO of idle per timeout-driven retransmission); air efficiency \
             is delivered over air bytes, where ARQ wins under mild loss because it \
             only resends what was actually lost. The fountain pre-pays its ε repair \
             spray (per-channel ε = {} from the analytic overhead-vs-loss term at 2% \
             decode failure) but never stalls for feedback — in the fade the ARQ \
             stall tax dwarfs the spray. `reproducible` = 1 means two runs from the \
             seed agreed bit for bit; ΔPSNR compares against the lossless twin.",
            overheads
                .iter()
                .map(|e| format!("{e:.2}"))
                .collect::<Vec<_>>()
                .join("/")
        ),
        rows,
    };
    (table, figure_metrics)
}

/// Assert the matrix's hard guarantees on a generated table; returns the
/// violations (empty = pass). Used by the `reproduce fountain` subcommand
/// and the CI smoke sweep so a regression fails the run, not just the
/// eyeball.
pub fn verify_fountain_matrix(table: &Table) -> Vec<String> {
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
                "{}: lossy run beat its lossless twin (ΔPSNR = {delta})",
                row.label
            ));
        }
        let efficiency = col(row, "air efficiency");
        if !efficiency.is_finite() || efficiency <= 0.0 || efficiency > 1.0 {
            violations.push(format!(
                "{}: air efficiency {efficiency} outside (0, 1]",
                row.label
            ));
        }
        let goodput = col(row, "goodput (Mbit/s)");
        if !goodput.is_finite() || goodput <= 0.0 {
            violations.push(format!(
                "{}: goodput {goodput} not finite-positive",
                row.label
            ));
        }
        let delay = col(row, "model delay (ms)");
        if !delay.is_finite() || delay <= 0.0 {
            violations.push(format!("{}: analytic delay {delay} not finite-positive", row.label));
        }
        let intact = col(row, "frames intact");
        let frames = col(row, "frames");
        if intact > frames {
            violations.push(format!("{}: more frames intact than sent", row.label));
        }
        // Reliable transport: TCP retransmits until everything lands.
        if row.label.starts_with("HTTP/TCP") && intact != frames {
            violations.push(format!(
                "{}: reliable transport lost frames ({intact}/{frames})",
                row.label
            ));
        }
    }
    // The headline crossover: somewhere in the deep fade, rateless coding
    // must out-goodput the ARQ transport, and it must always out-deliver
    // the raw UDP path there.
    let find = |proto: ProtocolKind, mode: EncryptionMode| {
        table.rows.iter().find(|r| {
            r.label == format!("{}, deep-fade, {}", proto.label(), mode.label())
        })
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
        if col(fountain, "goodput (Mbit/s)") >= col(tcp, "goodput (Mbit/s)") {
            fountain_beats_arq = true;
        }
        if col(fountain, "frames intact") < col(udp, "frames intact") {
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
    fn matrix_covers_all_protocols_points_policies() {
        let (table, metrics) = fountain_matrix(tiny());
        assert_eq!(
            table.rows.len(),
            ProtocolKind::ALL.len() * LossPoint::ALL.len() * EncryptionMode::TABLE1.len()
        );
        assert_eq!(metrics.cells.len(), table.rows.len());
        for proto in ProtocolKind::ALL {
            for point in LossPoint::ALL {
                assert!(
                    table
                        .rows
                        .iter()
                        .any(|r| r.label.starts_with(proto.label())
                            && r.label.contains(point.label())),
                    "missing {} × {}",
                    proto.label(),
                    point.label()
                );
            }
        }
    }

    #[test]
    fn matrix_passes_its_own_verification() {
        let (table, _) = fountain_matrix(tiny());
        let violations = verify_fountain_matrix(&table);
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn matrix_is_deterministic_across_invocations() {
        let (a, ma) = fountain_matrix(tiny());
        let (b, mb) = fountain_matrix(tiny());
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
    fn overhead_grid_tracks_channel_severity() {
        let input = stream(40);
        let k = block_symbols(&input);
        let iid = overhead_for(LossPoint::Iid, k);
        let burst = overhead_for(LossPoint::Burst, k);
        let fade = overhead_for(LossPoint::DeepFade, k);
        assert!(iid <= burst, "iid ε {iid} vs burst ε {burst}");
        assert!(burst < fade, "burst ε {burst} vs deep-fade ε {fade}");
        assert!(fade <= 3.0);
    }

    #[test]
    fn fountain_rides_out_the_deep_fade() {
        let (table, _) = fountain_matrix(tiny());
        let intact = |label: &str| {
            table
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
        let metrics = MetricsRegistry::enabled();
        let spec = CellSpec {
            proto: ProtocolKind::Tcp,
            point: LossPoint::DeepFade,
            policy: Policy::new(Algorithm::Aes256, EncryptionMode::IFrames),
            seed: 9,
            overhead: 0.0,
        };
        let run = run_cell(&input, spec, false, &metrics);
        assert_eq!(run.frames_intact(), 40);
        assert!(
            metrics.snapshot().counter("net.tcp.retransmissions") > 0,
            "a deep fade must force retransmissions"
        );
        // Retransmissions cost air bytes beyond the first copies.
        let clean = run_cell(&input, spec, true, &MetricsRegistry::disabled());
        assert!(run.bytes_on_air > clean.bytes_on_air);
    }
}
