//! The chaos soak matrix (`reproduce chaos`): fault storms × transports,
//! gated by the thrifty-recover layer's three guarantees.
//!
//! Four **storm classes** drive each of the three transports (RTP/UDP,
//! HTTP/TCP, LT-fountain) through the same seeded fault machinery the
//! PR 3 matrix uses, and the run *verifies itself*:
//!
//! * **Bounded recovery** — with receiver-side resync armed
//!   ([`thrifty_sim::pipeline::RecoveryOptions`]), every stale-key desync
//!   must close (re-key handshake + next I-frame) within a recorded budget
//!   of received packets. The matrix reports p50/p95/max recovery time per
//!   cell and fails if any episode (or a still-open tail) exceeds the
//!   bound.
//! * **Adaptive ≥ fixed RTO** — the TCP harness replays the *same* loss
//!   trace through the fixed-RTO biller and the Jacobson/Karn
//!   [`RtoEstimator`] (capped at the fixed value, floored at the wire
//!   RTT), so the adaptive transport's goodput can never trail the fixed
//!   baseline, and in the deep fade it must strictly beat it.
//! * **No-flap degradation** — a per-storm soak feeds the
//!   [`DegradationController`] an EWMA of windowed channel loss; the
//!   controller must never flap (reverse direction inside its dwell
//!   window) and its settled rung must be stable for the channel's
//!   analytic long-run loss rate.
//!
//! Every cell also re-runs from the same seed (bit-identity gate) and runs
//! a lossless clean twin (ΔPSNR gate: storms only remove quality). The
//! `reproduce chaos` subcommand prints the matrix, records it to
//! `BENCH_recover.json`, and exits nonzero on any violation.

use rand::rngs::StdRng;
use rand::SeedableRng;
use thrifty_analytic::fountain::{FountainChannel, FountainDelayModel, DEFAULT_PEELING_MARGIN};
use thrifty_analytic::policy::{EncryptionMode, Policy};
use thrifty_crypto::Algorithm;
use thrifty_faults::{FaultPlan, Region};
use thrifty_net::wire::{FRAG_HEADER_LEN, RTP_HEADER_LEN};
use thrifty_net::{LossChannel, UDP_IP_OVERHEAD};
use thrifty_recover::{
    ControllerConfig, DegradationController, PolicyRung, RecoveryReport, RtoConfig, RtoEstimator,
};
use thrifty_sim::fountain::{run_pipeline_fountain_metered, FountainConfig};
use thrifty_sim::pipeline::{
    run_pipeline_faulty, AirChannel, InputFrame, LossModel, PipelineConfig, RecoveryOptions,
};
use thrifty_sim::tcp::{run_pipeline_tcp, TcpConfig};
use thrifty_telemetry::MetricsRegistry;
use thrifty_video::scene::{SceneConfig, SceneGenerator};
use thrifty_video::MotionLevel;

use crate::fountain::{
    annex_b_len, block_symbols, concealed_psnr, delivered_media_bytes, received_flags, stream,
    ProtocolKind, GOP, SYMBOL_LEN,
};
use crate::parallel::par_map;
use crate::{CellMetrics, Effort, FigureMetrics, Row, Table};

/// The fixed-RTO baseline the adaptive estimator is raced against, and the
/// adaptive estimator's initial/ceiling value — so the adaptive transport
/// starts from the baseline and earns its advantage from RTT samples.
const FIXED_RTO_S: f64 = 0.05;
/// Floor of the adaptive RTO (the wire RTT scale).
const MIN_RTO_S: f64 = 0.002;
/// Base propagation+processing RTT fed to the estimator on clean
/// deliveries, on top of the segment's own air time.
const BASE_RTT_S: f64 = 0.002;
/// 802.11g air rate the goodput clock runs at, bits per second.
const PHY_RATE_BPS: f64 = 54e6;
/// Re-key handshake length (received packets) for the resync protocol.
const HANDSHAKE_PACKETS: u64 = 8;
/// Analytic decode-failure target for the fountain's per-storm ε.
const DECODE_FAILURE_TARGET: f64 = 0.02;
/// Packets per controller observation window. Long enough that several
/// Gilbert–Elliott dwell cycles average inside one window, so the EWMA
/// tracks the long-run loss rate instead of per-dwell noise.
const CONTROLLER_WINDOW: usize = 128;
/// Observation windows per controller soak.
const CONTROLLER_WINDOWS: usize = 160;
/// EWMA smoothing factor applied to the windowed loss fraction.
const EWMA_ALPHA: f64 = 0.3;

/// The single policy every soak cell runs: AES-256 on I-frames, so the
/// stale-key storms have marked packets to poison and the degradation
/// ladder's Full rung matches the cell's actual policy.
fn soak_policy() -> Policy {
    Policy::new(Algorithm::Aes256, EncryptionMode::IFrames)
}

/// The four fault storms of the soak, in row-block order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StormClass {
    /// Periodic stale-key hits on marked packets: exercises the re-key
    /// handshake + I-frame resync path on an otherwise mild channel.
    KeyRotation,
    /// Long, lossy bad-state dwells: the regime where ARQ pays the RTO tax
    /// and the degradation controller must drop to I-only.
    DeepFade,
    /// Everything at once on a bursty channel: stale keys, payload
    /// corruption and burst-loss episodes.
    Gauntlet,
    /// Producer-side pressure: a bounded queue overflowing under a slow
    /// drain, dropping frames before they reach the air.
    Overflow,
}

impl StormClass {
    /// Every storm, in the matrix's deterministic order.
    pub const ALL: [StormClass; 4] = [
        StormClass::KeyRotation,
        StormClass::DeepFade,
        StormClass::Gauntlet,
        StormClass::Overflow,
    ];

    /// Row label.
    pub fn label(self) -> &'static str {
        match self {
            StormClass::KeyRotation => "key-rotation",
            StormClass::DeepFade => "deep-fade",
            StormClass::Gauntlet => "gauntlet",
            StormClass::Overflow => "overflow",
        }
    }

    /// The air channel the storm rides on.
    fn air(self) -> (f64, AirChannel) {
        match self {
            StormClass::KeyRotation | StormClass::Overflow => (0.02, AirChannel::Iid),
            StormClass::DeepFade => (
                0.0,
                AirChannel::Burst {
                    p_gb: 0.05,
                    p_bg: 0.08,
                    good_success: 0.995,
                    bad_success: 0.05,
                },
            ),
            StormClass::Gauntlet => (
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

    /// The armed fault sites (beyond the channel) for the pipeline runs.
    fn plan(self, seed: u64) -> FaultPlan {
        match self {
            StormClass::KeyRotation => FaultPlan::none(seed).with_stale_key(0.12),
            StormClass::DeepFade => FaultPlan::none(seed),
            StormClass::Gauntlet => FaultPlan::none(seed)
                .with_stale_key(0.25)
                .with_corruption(0.05, Region::Payload, 8)
                .with_burst_loss(0.02, 0.3, 0.9),
            StormClass::Overflow => FaultPlan::none(seed).with_queue_overflow(4, 0.6),
        }
    }

    /// The storm's channel as a [`LossModel`], for the controller soak.
    fn loss_model(self) -> LossModel {
        let (loss_prob, channel) = self.air();
        LossModel::try_new(loss_prob, channel).expect("storm channel parameters are valid")
    }

    /// The analytic per-symbol delivery process (for the fountain's ε and
    /// the controller's stable-rung check).
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

    /// Long-run packet-loss rate of the storm's channel.
    fn analytic_loss(self) -> f64 {
        1.0 - self.loss_model().success_rate()
    }
}

/// Smallest grid ε whose analytic decode-failure probability at `k`
/// source symbols drops below [`DECODE_FAILURE_TARGET`] on this storm's
/// channel (same grid as the fountain matrix).
fn storm_overhead(storm: StormClass, k: usize) -> f64 {
    let channel = storm.analytic();
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
fn cell_seed(storm: usize, proto: usize) -> u64 {
    0xC405_2026
        ^ (storm as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (proto as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F)
}

/// What one soak cell produced — everything the bit-identity gate
/// compares and the verification gates consume.
#[derive(Debug, Clone)]
struct ChaosRun {
    /// UDP packets, TCP segments (first copies) or coded symbols.
    sent: usize,
    /// Bytes on the air, retransmissions included.
    bytes_on_air: u64,
    /// Timeout-driven retransmissions (TCP only; zero elsewhere).
    timeouts: usize,
    /// Total sender idle under the fixed-RTO baseline, seconds.
    stall_fixed_s: f64,
    /// Total sender idle under the adaptive estimator, seconds — billed
    /// over the *same* loss trace as the fixed baseline.
    stall_adaptive_s: f64,
    /// Per-frame exact-recovery flags, index = frame number.
    received: Vec<bool>,
    /// Stale-key resync episodes (empty where the mechanism is idle).
    resync: RecoveryReport,
}

impl ChaosRun {
    fn frames_intact(&self) -> usize {
        self.received.iter().filter(|&&ok| ok).count()
    }

    /// Bit-level equality: the determinism gate compares float fields by
    /// their bit patterns, not tolerances.
    fn bit_identical(&self, other: &ChaosRun) -> bool {
        self.sent == other.sent
            && self.bytes_on_air == other.bytes_on_air
            && self.timeouts == other.timeouts
            && self.stall_fixed_s.to_bits() == other.stall_fixed_s.to_bits()
            && self.stall_adaptive_s.to_bits() == other.stall_adaptive_s.to_bits()
            && self.received == other.received
            && self.resync == other.resync
    }

    /// Delivered media bits per second of transfer time (air time plus the
    /// given stall budget).
    fn goodput_mbps(&self, input: &[InputFrame], stall_s: f64) -> f64 {
        let delivered = delivered_media_bytes(input, &self.received) as f64;
        let transfer_s = self.bytes_on_air as f64 * 8.0 / PHY_RATE_BPS + stall_s;
        delivered * 8.0 / transfer_s / 1e6
    }
}

/// One soak cell on the storm's channel, or on a lossless fault-free
/// channel for the clean twin.
///
/// * RTP/UDP runs the storm's fault plan with receiver-side resync armed;
///   recovery episodes come straight from the pipeline's
///   [`RecoveryReport`].
/// * HTTP/TCP meets the storm through its channel only (an empty plan):
///   segments retransmit until delivered and the recorded loss trace is
///   billed twice (see [`bill_stalls`]).
/// * The fountain also meets it only through its channel; undecoded blocks
///   surface as missing frames.
fn run_cell(
    input: &[InputFrame],
    storm: StormClass,
    proto: ProtocolKind,
    seed: u64,
    overhead: f64,
    clean: bool,
    metrics: &MetricsRegistry,
) -> ChaosRun {
    let (loss_prob, channel) = if clean { (0.0, AirChannel::Iid) } else { storm.air() };
    let policy = soak_policy();
    let idle = |sent, bytes_on_air, receiver| ChaosRun {
        sent,
        bytes_on_air,
        timeouts: 0,
        stall_fixed_s: 0.0,
        stall_adaptive_s: 0.0,
        received: received_flags(input.len(), &receiver),
        resync: RecoveryReport::default(),
    };
    match proto {
        ProtocolKind::Udp => {
            let plan = if clean { FaultPlan::none(seed) } else { storm.plan(seed) };
            let config = PipelineConfig {
                policy,
                loss_prob,
                channel,
                seed,
                recovery: Some(RecoveryOptions {
                    handshake_packets: HANDSHAKE_PACKETS,
                    gop_hint: GOP,
                }),
                ..PipelineConfig::default()
            };
            let mtu = config.mtu_payload;
            let out = run_pipeline_faulty(input.to_vec(), config, &plan, metrics)
                .expect("storm plans carry valid probabilities");
            // Media bytes on the air: frames the queue dropped never burn
            // air; everything else is chunked at the MTU with per-packet
            // headers.
            let bytes_on_air: u64 = input
                .iter()
                .filter(|f| !out.frames_dropped_at_queue.contains(&f.index))
                .map(|f| {
                    let len = annex_b_len(f);
                    let packets = len.div_ceil(mtu);
                    (len + packets * (RTP_HEADER_LEN + FRAG_HEADER_LEN + UDP_IP_OVERHEAD)) as u64
                })
                .sum();
            ChaosRun {
                resync: out.recovery.unwrap_or_default(),
                ..idle(out.packets_sent, bytes_on_air, out.receiver)
            }
        }
        ProtocolKind::Tcp => {
            let config = TcpConfig { policy, loss_prob, seed, channel };
            let out = run_pipeline_tcp(input, &config, &FaultPlan::default(), metrics)
                .expect("storm channels and the soak policy are valid");
            let (timeouts, stall_fixed_s, stall_adaptive_s) = bill_stalls(&out.trace);
            ChaosRun {
                timeouts,
                stall_fixed_s,
                stall_adaptive_s,
                ..idle(out.segments_sent, out.bytes_on_air(), out.receiver)
            }
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
                .expect("storm channels and the soak policy are valid");
            idle(out.symbols_sent, out.bytes_on_air, out.receiver)
        }
    }
}

/// Bill one TCP loss trace of `(failures, attempt_bytes)` per segment under
/// both RTO disciplines: `(timeouts, fixed stall s, adaptive stall s)`.
/// Fixed: one [`FIXED_RTO_S`] idle per timeout. Adaptive: the
/// Jacobson/Karn estimator's current RTO per timeout (doubling under
/// backoff, capped at the fixed value), with segments that went through on
/// the first attempt feeding RTT samples (Karn's rule).
fn bill_stalls(trace: &[(u32, u64)]) -> (usize, f64, f64) {
    let timeouts: usize = trace.iter().map(|&(f, _)| f as usize).sum();
    let stall_fixed_s = timeouts as f64 * FIXED_RTO_S;
    let config = RtoConfig::try_new(FIXED_RTO_S, MIN_RTO_S, FIXED_RTO_S, 6)
        .expect("static estimator bounds are valid");
    let mut estimator = RtoEstimator::new(config);
    let mut stall_adaptive_s = 0.0;
    for &(fails, attempt_bytes) in trace {
        for _ in 0..fails {
            stall_adaptive_s += estimator.rto_s();
            estimator.on_timeout();
        }
        if fails == 0 {
            estimator.on_rtt_sample(attempt_bytes as f64 * 8.0 / PHY_RATE_BPS + BASE_RTT_S);
        }
    }
    (timeouts, stall_fixed_s, stall_adaptive_s)
}

/// What one controller soak produced.
#[derive(Debug, Clone, Copy)]
struct ControllerOutcome {
    flaps: u32,
    transitions: u32,
    rung: PolicyRung,
    /// The settled rung is stable for the channel's analytic loss rate.
    settled: bool,
}

/// Drive the degradation controller through the storm's channel: windows
/// of [`CONTROLLER_WINDOW`] packets, EWMA-smoothed loss fraction as the
/// distress signal. Seeded per storm, so two soaks agree bit for bit.
fn controller_soak(storm: StormClass) -> ControllerOutcome {
    let mut chan = storm.loss_model();
    let analytic_loss = storm.analytic_loss();
    let si = StormClass::ALL
        .iter()
        .position(|&s| s == storm)
        .unwrap_or(0);
    let mut rng =
        StdRng::seed_from_u64(0xC0DE_2026 ^ (si as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let mut controller = DegradationController::new(ControllerConfig::default());
    let mut ewma = 0.0;
    let mut primed = false;
    for _ in 0..CONTROLLER_WINDOWS {
        let lost = (0..CONTROLLER_WINDOW)
            .filter(|_| !chan.transmit(&mut rng))
            .count();
        let raw = lost as f64 / CONTROLLER_WINDOW as f64;
        ewma = if primed {
            EWMA_ALPHA * raw + (1.0 - EWMA_ALPHA) * ewma
        } else {
            primed = true;
            raw
        };
        controller.observe(ewma);
    }
    let rung = controller.rung();
    ControllerOutcome {
        flaps: controller.flaps(),
        transitions: controller.transitions(),
        rung,
        settled: controller.config().is_stable(rung, analytic_loss),
    }
}

/// Nearest-rank percentile of a sorted duration list (0 when empty).
fn percentile(sorted: &[u64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1] as f64
}

/// Generate the chaos soak matrix: storm class × transport, plus the
/// per-storm controller soak folded into each row.
///
/// Always metered; each cell seeds its own RNGs from its coordinates so
/// [`par_map`] evaluation cannot perturb a single value and two
/// invocations agree bit for bit.
pub fn chaos_matrix(effort: Effort) -> (Table, FigureMetrics) {
    let frames = effort.frames.clamp(40, 120);
    let clip = SceneGenerator::new(SceneConfig::qcif(MotionLevel::High, 7)).clip(frames);
    let input = stream(frames);
    let k = block_symbols(&input);
    let overheads: Vec<f64> = StormClass::ALL
        .iter()
        .map(|&storm| storm_overhead(storm, k))
        .collect();
    // Recovery budget: the handshake plus ten GOPs of received packets —
    // far above a healthy episode (one handshake + at most a few GOPs to
    // the next intact I-frame) but far below "never recovered".
    let mtu = PipelineConfig::default().mtu_payload;
    let gop_packets: u64 = input
        .iter()
        .take(GOP)
        .map(|f| annex_b_len(f).div_ceil(mtu) as u64)
        .sum();
    let bound = HANDSHAKE_PACKETS + 10 * gop_packets;
    let controllers: Vec<ControllerOutcome> = StormClass::ALL
        .iter()
        .map(|&storm| controller_soak(storm))
        .collect();

    let mut cells = Vec::new();
    for (si, storm) in StormClass::ALL.into_iter().enumerate() {
        for (pi, proto) in ProtocolKind::ALL.into_iter().enumerate() {
            cells.push((storm, si, proto, cell_seed(si, pi), overheads[si]));
        }
    }
    let results = par_map(&cells, |&(storm, si, proto, seed, overhead)| {
        let metrics = MetricsRegistry::enabled();
        let run = run_cell(&input, storm, proto, seed, overhead, false, &metrics);
        // Determinism gate: same seed, fresh registry → bit-identical run.
        let rerun = run_cell(
            &input,
            storm,
            proto,
            seed,
            overhead,
            false,
            &MetricsRegistry::enabled(),
        );
        let reproducible = run.bit_identical(&rerun);
        // Degradation gate: the lossless, fault-free twin bounds quality.
        let clean = run_cell(
            &input,
            storm,
            proto,
            seed,
            overhead,
            true,
            &MetricsRegistry::disabled(),
        );
        let psnr = concealed_psnr(&clip, &run.received);
        let clean_psnr = concealed_psnr(&clip, &clean.received);
        let mut durations = run.resync.durations();
        durations.sort_unstable();
        let ctl = controllers[si];
        let row = Row {
            label: format!("{}, {}", proto.label(), storm.label()),
            values: vec![
                ("sent".into(), run.sent as f64),
                ("resync episodes".into(), durations.len() as f64),
                ("recovery p50 (pkts)".into(), percentile(&durations, 0.50)),
                ("recovery p95 (pkts)".into(), percentile(&durations, 0.95)),
                ("recovery max (pkts)".into(), run.resync.max_duration() as f64),
                (
                    "recovery bounded".into(),
                    run.resync.bounded_by(bound) as u8 as f64,
                ),
                ("timeouts".into(), run.timeouts as f64),
                ("frames intact".into(), run.frames_intact() as f64),
                ("frames".into(), frames as f64),
                ("ΔPSNR vs clean (dB)".into(), clean_psnr - psnr),
                (
                    "goodput adaptive (Mbit/s)".into(),
                    run.goodput_mbps(&input, run.stall_adaptive_s),
                ),
                (
                    "goodput fixed (Mbit/s)".into(),
                    run.goodput_mbps(&input, run.stall_fixed_s),
                ),
                ("controller flaps".into(), ctl.flaps as f64),
                ("controller transitions".into(), ctl.transitions as f64),
                ("controller rung".into(), ctl.rung.index() as f64),
                ("controller settled".into(), ctl.settled as u8 as f64),
                ("reproducible".into(), reproducible as u8 as f64),
            ],
        };
        (row, metrics.snapshot())
    });
    let title = format!(
        "Chaos soak matrix — {frames}-frame clip, GOP {GOP}, recovery bound {bound} pkts"
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
            "Four fault storms × three transports, every cell self-verifying: run and \
             rerun must agree bit for bit, the lossless twin bounds PSNR from above, \
             every stale-key resync episode must close within {bound} received packets \
             (handshake {HANDSHAKE_PACKETS} + 10 GOPs), and the TCP rows replay one \
             loss trace under the fixed {FIXED_RTO_S}s RTO and the Jacobson/Karn \
             estimator (capped at the fixed value) — adaptive goodput may never trail \
             fixed, and must strictly beat it in the deep fade. Controller columns \
             come from a per-storm soak of the degradation ladder on EWMA-smoothed \
             windowed loss: zero flaps, settled rung stable at the channel's analytic \
             loss rate. Fountain ε per storm: {}.",
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

/// Assert the soak's hard guarantees on a generated table; returns the
/// violations (empty = pass). `reproduce chaos` exits nonzero on any.
pub fn verify_chaos_matrix(table: &Table) -> Vec<String> {
    let mut violations = Vec::new();
    let col = |row: &Row, name: &str| -> f64 {
        row.values
            .iter()
            .find(|(key, _)| key == name)
            .map(|(_, v)| *v)
            .unwrap_or(f64::NAN)
    };
    for row in &table.rows {
        // lint:allow(num-float-eq): indicator column stores exactly 1.0 or 0.0
        if col(row, "reproducible") != 1.0 {
            violations.push(format!("{}: run was not bit-reproducible", row.label));
        }
        // lint:allow(num-float-eq): indicator column stores exactly 1.0 or 0.0
        if col(row, "recovery bounded") != 1.0 {
            violations.push(format!(
                "{}: a resync episode exceeded the recovery bound (max {})",
                row.label,
                col(row, "recovery max (pkts)")
            ));
        }
        let delta = col(row, "ΔPSNR vs clean (dB)");
        if delta.is_nan() || delta < -1e-9 {
            violations.push(format!(
                "{}: faulty run beat its clean twin (ΔPSNR = {delta})",
                row.label
            ));
        }
        let adaptive = col(row, "goodput adaptive (Mbit/s)");
        let fixed = col(row, "goodput fixed (Mbit/s)");
        if !adaptive.is_finite() || !fixed.is_finite() {
            violations.push(format!("{}: goodput not finite", row.label));
        } else if adaptive < fixed - 1e-9 {
            violations.push(format!(
                "{}: adaptive RTO goodput {adaptive} trails fixed {fixed}",
                row.label
            ));
        }
        // lint:allow(num-float-eq): indicator column stores exactly 1.0 or 0.0
        if col(row, "controller flaps") != 0.0 {
            violations.push(format!(
                "{}: degradation controller flapped {} times",
                row.label,
                col(row, "controller flaps")
            ));
        }
        // lint:allow(num-float-eq): indicator column stores exactly 1.0 or 0.0
        if col(row, "controller settled") != 1.0 {
            violations.push(format!(
                "{}: controller settled on rung {} which is unstable at the \
                 channel's analytic loss",
                row.label,
                col(row, "controller rung")
            ));
        }
        let intact = col(row, "frames intact");
        let frames = col(row, "frames");
        if intact > frames {
            violations.push(format!("{}: more frames intact than sent", row.label));
        }
        if row.label.starts_with("HTTP/TCP") && intact != frames {
            violations.push(format!(
                "{}: reliable transport lost frames ({intact}/{frames})",
                row.label
            ));
        }
    }
    // The resync path must actually fire where stale keys are armed.
    for storm in [StormClass::KeyRotation, StormClass::Gauntlet] {
        let label = format!("{}, {}", ProtocolKind::Udp.label(), storm.label());
        match table.rows.iter().find(|r| r.label == label) {
            Some(row) if col(row, "resync episodes") < 1.0 => violations.push(format!(
                "{label}: stale-key storm produced no resync episodes"
            )),
            None => violations.push(format!("missing row {label}")),
            _ => {}
        }
    }
    // Deep fade: the adaptive RTO must strictly out-goodput the fixed one
    // (many timeouts, converged estimator — the tax gap must be visible).
    let tcp_fade = format!(
        "{}, {}",
        ProtocolKind::Tcp.label(),
        StormClass::DeepFade.label()
    );
    match table.rows.iter().find(|r| r.label == tcp_fade) {
        Some(row) => {
            let adaptive = col(row, "goodput adaptive (Mbit/s)");
            let fixed = col(row, "goodput fixed (Mbit/s)");
            // `partial_cmp` so a NaN goodput is a violation, not a pass.
            if adaptive.partial_cmp(&fixed) != Some(std::cmp::Ordering::Greater) {
                violations.push(format!(
                    "{tcp_fade}: adaptive goodput {adaptive} did not beat fixed {fixed}"
                ));
            }
            if col(row, "timeouts") < 1.0 {
                violations.push(format!("{tcp_fade}: deep fade forced no timeouts"));
            }
        }
        None => violations.push(format!("missing row {tcp_fade}")),
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
    fn matrix_covers_all_storms_and_transports() {
        let (table, metrics) = chaos_matrix(tiny());
        assert_eq!(
            table.rows.len(),
            StormClass::ALL.len() * ProtocolKind::ALL.len()
        );
        assert_eq!(metrics.cells.len(), table.rows.len());
        for storm in StormClass::ALL {
            for proto in ProtocolKind::ALL {
                let label = format!("{}, {}", proto.label(), storm.label());
                assert!(
                    table.rows.iter().any(|r| r.label == label),
                    "missing {label}"
                );
            }
        }
    }

    #[test]
    fn matrix_passes_its_own_verification() {
        let (table, _) = chaos_matrix(tiny());
        let violations = verify_chaos_matrix(&table);
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn matrix_is_deterministic_across_invocations() {
        let (a, ma) = chaos_matrix(tiny());
        let (b, mb) = chaos_matrix(tiny());
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
    fn adaptive_rto_never_stalls_longer_than_fixed() {
        let input = stream(40);
        for storm in StormClass::ALL {
            let run = run_cell(
                &input,
                storm,
                ProtocolKind::Tcp,
                7,
                0.0,
                false,
                &MetricsRegistry::disabled(),
            );
            assert!(
                run.stall_adaptive_s <= run.stall_fixed_s + 1e-12,
                "{}: adaptive {} vs fixed {}",
                storm.label(),
                run.stall_adaptive_s,
                run.stall_fixed_s
            );
        }
        // The deep fade forces enough timeouts after convergence that the
        // adaptive biller is strictly cheaper.
        let fade = run_cell(
            &input,
            StormClass::DeepFade,
            ProtocolKind::Tcp,
            7,
            0.0,
            false,
            &MetricsRegistry::disabled(),
        );
        assert!(fade.timeouts > 0, "deep fade must force timeouts");
        assert!(
            fade.stall_adaptive_s < fade.stall_fixed_s,
            "adaptive {} must beat fixed {}",
            fade.stall_adaptive_s,
            fade.stall_fixed_s
        );
    }

    #[test]
    fn controller_soaks_settle_without_flapping() {
        for storm in StormClass::ALL {
            let out = controller_soak(storm);
            assert_eq!(out.flaps, 0, "{} soak flapped", storm.label());
            assert!(out.settled, "{} soak settled on an unstable rung", storm.label());
        }
        // The deep fade must actually walk the ladder down to I-only.
        let fade = controller_soak(StormClass::DeepFade);
        assert_eq!(fade.rung, PolicyRung::IOnly);
        assert!(fade.transitions >= 2, "Full → Degraded → I-only");
        // The mild storms must stay at full quality.
        assert_eq!(controller_soak(StormClass::KeyRotation).rung, PolicyRung::Full);
    }

    #[test]
    fn key_rotation_storm_produces_bounded_resync_episodes() {
        let input = stream(80);
        let run = run_cell(
            &input,
            StormClass::KeyRotation,
            ProtocolKind::Udp,
            3,
            0.0,
            false,
            &MetricsRegistry::disabled(),
        );
        assert!(
            !run.resync.episodes.is_empty(),
            "stale-key storm must desync the receiver at least once"
        );
        let mtu = PipelineConfig::default().mtu_payload;
        let gop_packets: u64 = input
            .iter()
            .take(GOP)
            .map(|f| annex_b_len(f).div_ceil(mtu) as u64)
            .sum();
        assert!(run.resync.bounded_by(HANDSHAKE_PACKETS + 10 * gop_packets));
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[4], 0.5), 4.0);
        assert_eq!(percentile(&[1, 2, 3, 4], 0.5), 2.0);
        assert_eq!(percentile(&[1, 2, 3, 4], 0.95), 4.0);
    }
}
