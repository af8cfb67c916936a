//! The chaos soak matrix (`reproduce chaos`): fault storms × transports,
//! gated by the thrifty-recover layer's three guarantees.
//!
//! Four **storm classes** drive each of the three transports (RTP/UDP,
//! HTTP/TCP, LT-fountain) through the same seeded fault machinery the
//! fault matrix uses, and the run *verifies itself*:
//!
//! * **Bounded recovery** — with receiver-side resync armed
//!   ([`thrifty_sim::pipeline::RecoveryOptions`]), every stale-key desync
//!   must close (re-key handshake + next I-frame) within a recorded budget
//!   of received packets. The matrix reports p50/p95/max recovery time per
//!   cell and fails if any episode (or a still-open tail) exceeds the
//!   bound.
//! * **Adaptive ≥ fixed RTO** — the TCP rows replay the *same* loss trace
//!   through the fixed-RTO biller and the Jacobson/Karn [`RtoEstimator`]
//!   (capped at the fixed value, floored at the wire RTT), so the adaptive
//!   transport's goodput can never trail the fixed baseline, and in the
//!   deep fade it must strictly beat it.
//! * **No-flap degradation** — a per-storm soak feeds the
//!   [`DegradationController`] an EWMA of windowed channel loss; the
//!   controller must never flap (reverse direction inside its dwell
//!   window) and its settled rung must be stable for the channel's
//!   analytic long-run loss rate.
//!
//! The clean twin of a cell is a lossless, fault-free channel; the double
//! run, the clean twin and the per-cell telemetry come from the [matrix
//! harness](crate::matrix). The `reproduce chaos` subcommand prints the
//! matrix, records it to `BENCH_recover.json`, and exits nonzero on any
//! violation.

use rand::rngs::StdRng;
use rand::SeedableRng;
use thrifty_analytic::policy::{EncryptionMode, Policy};
use thrifty_crypto::Algorithm;
use thrifty_faults::{FaultPlan, Region};
use thrifty_net::LossChannel;
use thrifty_recover::{
    ControllerConfig, DegradationController, PolicyRung, RtoConfig, RtoEstimator,
};
use thrifty_sim::pipeline::{InputFrame, PipelineConfig, RecoveryOptions};
use thrifty_telemetry::MetricsRegistry;

use crate::matrix::{
    annex_b_len, block_symbols, mix_seed, reliable_delivery, run_matrix, run_transport,
    CellOutcome, Link, LossPoint, Matrix, MatrixReport, ProtocolKind, TransportRun, GOP,
    PHY_RATE_BPS,
};
use crate::Effort;

/// The fixed-RTO baseline the adaptive estimator is raced against, and the
/// adaptive estimator's initial/ceiling value — so the adaptive transport
/// starts from the baseline and earns its advantage from RTT samples.
const FIXED_RTO_S: f64 = 0.05;
/// Floor of the adaptive RTO (the wire RTT scale).
const MIN_RTO_S: f64 = 0.002;
/// Base propagation+processing RTT fed to the estimator on clean
/// deliveries, on top of the segment's own air time.
const BASE_RTT_S: f64 = 0.002;
/// Re-key handshake length (received packets) for the resync protocol.
const HANDSHAKE_PACKETS: u64 = 8;
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

    /// The channel point the storm rides on.
    pub fn point(self) -> LossPoint {
        match self {
            StormClass::KeyRotation | StormClass::Overflow => LossPoint::Iid,
            StormClass::DeepFade => LossPoint::DeepFade,
            StormClass::Gauntlet => LossPoint::Burst,
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
}

/// One cell: a storm over a transport.
#[derive(Debug, Clone, Copy)]
struct ChaosCell {
    storm: StormClass,
    proto: ProtocolKind,
}

/// The chaos soak matrix: storm class × transport, with the per-storm
/// controller soak folded into each row.
struct ChaosMatrix {
    frames: usize,
    /// The fountain's ε per storm, in [`StormClass::ALL`] order.
    overheads: [f64; 4],
    /// Recovery budget, received packets.
    bound: u64,
    /// The controller soak per storm, in [`StormClass::ALL`] order.
    controllers: [ControllerOutcome; 4],
}

impl Matrix for ChaosMatrix {
    type Cell = ChaosCell;
    const SALT: u64 = 0xC405_2026;

    fn new(input: &[InputFrame]) -> Self {
        let k = block_symbols(input);
        ChaosMatrix {
            frames: input.len(),
            overheads: StormClass::ALL.map(|storm| storm.point().overhead(k)),
            bound: recovery_bound(input),
            controllers: StormClass::ALL.map(controller_soak),
        }
    }

    fn title(&self) -> String {
        format!(
            "Chaos soak matrix — {}-frame clip, GOP {GOP}, recovery bound {} pkts",
            self.frames, self.bound
        )
    }

    fn caption(&self) -> String {
        let bound = self.bound;
        format!(
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
            self.overheads
                .iter()
                .map(|e| format!("{e:.2}"))
                .collect::<Vec<_>>()
                .join("/")
        )
    }

    fn cells(&self) -> Vec<(ChaosCell, Vec<usize>)> {
        let mut cells = Vec::new();
        for (si, storm) in StormClass::ALL.into_iter().enumerate() {
            for (pi, proto) in ProtocolKind::ALL.into_iter().enumerate() {
                cells.push((ChaosCell { storm, proto }, vec![si, pi]));
            }
        }
        cells
    }

    fn label(&self, cell: &ChaosCell) -> String {
        format!("{}, {}", cell.proto.label(), cell.storm.label())
    }

    /// The cell on the storm's channel, or on a lossless fault-free channel
    /// for the clean twin. RTP/UDP runs the storm's fault plan with
    /// receiver-side resync armed; HTTP/TCP and the fountain meet the storm
    /// through its channel only (TCP gets an empty plan).
    fn run(
        &self,
        input: &[InputFrame],
        cell: &ChaosCell,
        seed: u64,
        clean: bool,
        metrics: &MetricsRegistry,
    ) -> TransportRun {
        let ChaosCell { storm, proto } = *cell;
        let plan = match proto {
            ProtocolKind::Udp if clean => FaultPlan::none(seed),
            ProtocolKind::Udp => storm.plan(seed),
            ProtocolKind::Tcp | ProtocolKind::Fountain => FaultPlan::default(),
        };
        let link = Link {
            recovery: Some(RecoveryOptions {
                handshake_packets: HANDSHAKE_PACKETS,
                gop_hint: GOP,
            }),
            overhead: self.overheads[storm as usize],
            ..Link::new(soak_policy(), (!clean).then_some(storm.point()), seed)
        };
        run_transport(proto, input, link, &plan, metrics)
    }

    fn row(&self, cell: &ChaosCell, out: &CellOutcome) -> Vec<(String, f64)> {
        let run = &out.run;
        let (adaptive, fixed) = goodputs(run);
        let mut durations = run.resync.durations();
        durations.sort_unstable();
        let ctl = self.controllers[cell.storm as usize];
        vec![
            ("sent".into(), run.sent as f64),
            ("resync episodes".into(), durations.len() as f64),
            ("recovery p50 (pkts)".into(), percentile(&durations, 0.50)),
            ("recovery p95 (pkts)".into(), percentile(&durations, 0.95)),
            (
                "recovery max (pkts)".into(),
                run.resync.max_duration() as f64,
            ),
            (
                "recovery bounded".into(),
                run.resync.bounded_by(self.bound) as u8 as f64,
            ),
            ("timeouts".into(), run.timeouts() as f64),
            ("frames intact".into(), run.frames_intact() as f64),
            ("frames".into(), run.received.len() as f64),
            ("ΔPSNR vs clean (dB)".into(), out.delta_psnr),
            ("goodput adaptive (Mbit/s)".into(), adaptive),
            ("goodput fixed (Mbit/s)".into(), fixed),
            ("controller flaps".into(), ctl.flaps as f64),
            ("controller transitions".into(), ctl.transitions as f64),
            ("controller rung".into(), ctl.rung.index() as f64),
            ("controller settled".into(), ctl.settled as u8 as f64),
            ("reproducible".into(), out.reproducible as u8 as f64),
        ]
    }

    /// Bounded recovery, adaptive goodput never trailing fixed, a flap-free
    /// controller settled on a stable rung, and a complete reliable
    /// transport.
    fn invariants(&self, cell: &ChaosCell, out: &CellOutcome) -> Vec<String> {
        let run = &out.run;
        let mut violations = Vec::new();
        if !run.resync.bounded_by(self.bound) {
            violations.push(format!(
                "a resync episode exceeded the recovery bound (max {})",
                run.resync.max_duration()
            ));
        }
        let (adaptive, fixed) = goodputs(run);
        if !adaptive.is_finite() || !fixed.is_finite() {
            violations.push("goodput not finite".to_string());
        } else if adaptive < fixed - 1e-9 {
            violations.push(format!(
                "adaptive RTO goodput {adaptive} trails fixed {fixed}"
            ));
        }
        let ctl = self.controllers[cell.storm as usize];
        // `flaps` is a count: any reversal inside the dwell window fails.
        if ctl.flaps != 0 {
            violations.push(format!(
                "degradation controller flapped {} times",
                ctl.flaps
            ));
        }
        if !ctl.settled {
            violations.push(format!(
                "controller settled on rung {} which is unstable at the \
                 channel's analytic loss",
                ctl.rung.index()
            ));
        }
        violations.extend(reliable_delivery(cell.proto, run));
        violations
    }

    /// The resync path must fire where stale keys are armed, and the deep
    /// fade must force timeouts that the adaptive RTO strictly out-goodputs
    /// the fixed one on.
    fn matrix_invariants(&self, cells: &[(&ChaosCell, &CellOutcome)]) -> Vec<String> {
        let mut violations = Vec::new();
        let find = |storm: StormClass, proto: ProtocolKind| {
            let label = self.label(&ChaosCell { storm, proto });
            let out = cells
                .iter()
                .find(|(c, _)| c.storm == storm && c.proto == proto)
                .map(|&(_, out)| out);
            (label, out)
        };
        for storm in [StormClass::KeyRotation, StormClass::Gauntlet] {
            match find(storm, ProtocolKind::Udp) {
                (label, Some(out)) if out.run.resync.episodes.is_empty() => violations.push(
                    format!("{label}: stale-key storm produced no resync episodes"),
                ),
                (label, None) => violations.push(format!("missing row {label}")),
                _ => {}
            }
        }
        match find(StormClass::DeepFade, ProtocolKind::Tcp) {
            (label, Some(out)) => {
                let (adaptive, fixed) = goodputs(&out.run);
                // `partial_cmp` so a NaN goodput is a violation, not a pass.
                if adaptive.partial_cmp(&fixed) != Some(std::cmp::Ordering::Greater) {
                    violations.push(format!(
                        "{label}: adaptive goodput {adaptive} did not beat fixed {fixed}"
                    ));
                }
                if out.run.timeouts() == 0 {
                    violations.push(format!("{label}: deep fade forced no timeouts"));
                }
            }
            (label, None) => violations.push(format!("missing row {label}")),
        }
        violations
    }
}

/// Recovery budget: the handshake plus ten GOPs of received packets — far
/// above a healthy episode (one handshake + at most a few GOPs to the next
/// intact I-frame) but far below "never recovered".
fn recovery_bound(input: &[InputFrame]) -> u64 {
    let mtu = PipelineConfig::default().mtu_payload;
    let gop_packets: u64 = input
        .iter()
        .take(GOP)
        .map(|f| annex_b_len(f).div_ceil(mtu) as u64)
        .sum();
    HANDSHAKE_PACKETS + 10 * gop_packets
}

/// Bill one TCP loss trace of `(failures, attempt_bytes)` per segment under
/// both RTO disciplines: `(fixed stall s, adaptive stall s)`, zero for an
/// empty trace. Fixed: one [`FIXED_RTO_S`] idle per timeout. Adaptive: the
/// Jacobson/Karn estimator's current RTO per timeout (doubling under
/// backoff, capped at the fixed value), with segments that went through on
/// the first attempt feeding RTT samples (Karn's rule).
fn bill_stalls(trace: &[(u32, u64)]) -> (f64, f64) {
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
    (stall_fixed_s, stall_adaptive_s)
}

/// The run's goodput under both RTO bills of its loss trace, Mbit/s:
/// `(adaptive, fixed)`.
fn goodputs(run: &TransportRun) -> (f64, f64) {
    let (fixed_s, adaptive_s) = bill_stalls(&run.trace);
    (run.goodput_mbps(adaptive_s), run.goodput_mbps(fixed_s))
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
    let mut chan = storm.point().loss_model();
    let analytic_loss = 1.0 - chan.success_rate();
    let si = storm as usize;
    let mut rng = StdRng::seed_from_u64(mix_seed(0xC0DE_2026, &[si]));
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

/// Generate and verify the chaos soak matrix: storm class × transport, one
/// telemetry snapshot per cell in row order.
pub fn chaos_matrix(effort: Effort) -> MatrixReport {
    run_matrix::<ChaosMatrix>(effort)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::stream;

    /// One soak cell's faulty run from `seed`.
    fn run_cell(
        input: &[InputFrame],
        storm: StormClass,
        proto: ProtocolKind,
        seed: u64,
    ) -> TransportRun {
        let cell = ChaosCell { storm, proto };
        ChaosMatrix::new(input).run(input, &cell, seed, false, &MetricsRegistry::disabled())
    }

    #[test]
    fn adaptive_rto_never_stalls_longer_than_fixed() {
        let input = stream(40);
        for storm in StormClass::ALL {
            let (fixed, adaptive) =
                bill_stalls(&run_cell(&input, storm, ProtocolKind::Tcp, 7).trace);
            assert!(
                adaptive <= fixed + 1e-12,
                "{}: adaptive {adaptive} vs fixed {fixed}",
                storm.label()
            );
        }
        // The deep fade forces enough timeouts after convergence that the
        // adaptive biller is strictly cheaper.
        let fade = run_cell(&input, StormClass::DeepFade, ProtocolKind::Tcp, 7);
        assert!(fade.timeouts() > 0, "deep fade must force timeouts");
        let (fixed, adaptive) = bill_stalls(&fade.trace);
        assert!(
            adaptive < fixed,
            "adaptive {adaptive} must beat fixed {fixed}"
        );
    }

    #[test]
    fn controller_soaks_settle_without_flapping() {
        for storm in StormClass::ALL {
            let out = controller_soak(storm);
            assert_eq!(out.flaps, 0, "{} soak flapped", storm.label());
            assert!(
                out.settled,
                "{} soak settled on an unstable rung",
                storm.label()
            );
        }
        // The deep fade must actually walk the ladder down to I-only.
        let fade = controller_soak(StormClass::DeepFade);
        assert_eq!(fade.rung, PolicyRung::IOnly);
        assert!(fade.transitions >= 2, "Full → Degraded → I-only");
        // The mild storms must stay at full quality.
        assert_eq!(
            controller_soak(StormClass::KeyRotation).rung,
            PolicyRung::Full
        );
    }

    #[test]
    fn key_rotation_storm_produces_bounded_resync_episodes() {
        let input = stream(80);
        let run = run_cell(&input, StormClass::KeyRotation, ProtocolKind::Udp, 3);
        assert!(
            !run.resync.episodes.is_empty(),
            "stale-key storm must desync the receiver at least once"
        );
        assert!(run.resync.bounded_by(recovery_bound(&input)));
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[4], 0.5), 4.0);
        assert_eq!(percentile(&[1, 2, 3, 4], 0.5), 2.0);
        assert_eq!(percentile(&[1, 2, 3, 4], 0.95), 4.0);
    }
}
