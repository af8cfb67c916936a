//! The self-verifying matrix harness behind `reproduce faults`, `fountain`
//! and `chaos`.
//!
//! A [`Matrix`] declares four things: its cells in row order, each with the
//! coordinates its seed is mixed from; how one cell runs on a transport;
//! the row a cell renders; and the invariants its *typed* results must
//! satisfy. [`run_matrix`] owns everything else, the same way for every
//! matrix:
//!
//! * the clip and the coded input stream every cell transmits;
//! * seeding: a cell's seed is [`mix_seed`] of the matrix's salt and the
//!   cell's coordinates, so [`par_map`] evaluation cannot perturb a value
//!   and two invocations agree bit for bit;
//! * the **double run**: every cell runs twice from its seed, each time
//!   with a fresh registry (telemetry must not feed back into behaviour),
//!   and the two [`TransportRun`]s must compare equal;
//! * the **clean twin**: the same cell with `clean = true` — the matrix
//!   decides what clean means (an empty plan, a lossless channel, or both)
//!   — bounds the faulty run's PSNR from above (ΔPSNR ≥ 0, via the paper's
//!   concealment decoder of Section 4.3.2);
//! * assembly of the [`Table`] and its per-cell [`FigureMetrics`];
//! * the violation list, which `reproduce` turns into exit status 1.
//!
//! It also holds the vocabulary the matrices share: the transports
//! ([`ProtocolKind`]), the channel operating points ([`LossPoint`]) and one
//! transport dispatcher ([`run_transport`]).

use thrifty_analytic::fountain::{FountainChannel, FountainDelayModel, DEFAULT_PEELING_MARGIN};
use thrifty_analytic::policy::Policy;
use thrifty_faults::{FaultPlan, FaultStats};
use thrifty_fleet::par_map;
use thrifty_net::wire::{FRAG_HEADER_LEN, RTP_HEADER_LEN};
use thrifty_net::UDP_IP_OVERHEAD;
use thrifty_recover::RecoveryReport;
use thrifty_sim::fountain::{run_pipeline_fountain_metered, FountainConfig};
use thrifty_sim::pipeline::{
    run_pipeline_faulty, AirChannel, InputFrame, LossModel, PipelineConfig, Reconstruction,
    RecoveryOptions,
};
use thrifty_sim::tcp::{run_pipeline_tcp, TcpConfig};
use thrifty_telemetry::{MetricsRegistry, Snapshot};
use thrifty_video::nal::write_annex_b;
use thrifty_video::quality::{measure_quality, ConcealingDecoder};
use thrifty_video::scene::{SceneConfig, SceneGenerator};
use thrifty_video::yuv::YuvFrame;
use thrifty_video::{FrameType, MotionLevel};

use crate::{CellMetrics, Effort, FigureMetrics, Row, Table};

/// GOP structure of the clip every matrix transmits (one source block per
/// GOP on the fountain path).
pub(crate) const GOP: usize = 10;
/// Coded symbol payload length — small enough that a GOP block spans
/// dozens of symbols, so burst dwells average out inside one block.
const SYMBOL_LEN: usize = 500;
/// 802.11g air rate the goodput clock runs at, bits per second.
pub(crate) const PHY_RATE_BPS: f64 = 54e6;
/// The analytic decode-failure probability the ε grid search targets.
const DECODE_FAILURE_TARGET: f64 = 0.02;
/// Odd mixing constants, one per seed coordinate.
const SEED_MIX: [u64; 3] = [0x9E37_79B9_7F4A_7C15, 0xC2B2_AE3D_27D4_EB4F, 0x85EB_CA6B];

/// The three transports, in row-block order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtocolKind {
    /// The RTP/UDP real-bytes pipeline.
    Udp,
    /// The §6.4 marker-option TCP framing, retransmitting every lost
    /// segment.
    Tcp,
    /// LT fountain symbols over UDP framing (`thrifty-fec`).
    Fountain,
}

impl ProtocolKind {
    /// Every transport, in the matrices' deterministic order.
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

/// The channel operating points of the matrices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LossPoint {
    /// Independent 2% per-packet loss (eq. (20)'s assumption).
    Iid,
    /// A mild two-state Gilbert–Elliott burst channel.
    Burst,
    /// A deep fade: long bad-state dwells delivering almost nothing —
    /// the regime where ARQ pays a geometric retransmission tax.
    DeepFade,
}

impl LossPoint {
    /// Every operating point, in column order.
    pub const ALL: [LossPoint; 3] = [LossPoint::Iid, LossPoint::Burst, LossPoint::DeepFade];

    /// Row label fragment.
    pub fn label(self) -> &'static str {
        match self {
            LossPoint::Iid => "iid",
            LossPoint::Burst => "burst",
            LossPoint::DeepFade => "deep-fade",
        }
    }

    /// The air channel: the i.i.d. loss probability and the loss process.
    pub(crate) fn air(self) -> (f64, AirChannel) {
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

    /// The air channel as a packet-loss process.
    pub(crate) fn loss_model(self) -> LossModel {
        let (loss_prob, channel) = self.air();
        LossModel::try_new(loss_prob, channel).expect("matrix channel parameters are valid")
    }

    /// The analytic per-symbol delivery process (the overhead-vs-loss term).
    pub(crate) fn analytic(self) -> FountainChannel {
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

    /// Smallest grid ε (steps of 0.05 up to 3) whose analytic
    /// decode-failure probability at `k` source symbols drops below 2% on
    /// this channel — the fountain's repair overhead, driven by the term
    /// that predicts it instead of hand-tuned per cell.
    pub(crate) fn overhead(self, k: usize) -> f64 {
        let channel = self.analytic();
        for step in 1..=60 {
            let eps = step as f64 * 0.05;
            let n = FountainDelayModel::symbols_sent(k, eps);
            if channel.decode_failure_prob(k, n, DEFAULT_PEELING_MARGIN) <= DECODE_FAILURE_TARGET {
                return eps;
            }
        }
        3.0
    }
}

/// The synthetic coded stream every matrix cell transmits (deterministic).
pub(crate) fn stream(frames: usize) -> Vec<InputFrame> {
    (0..frames)
        .map(|i| {
            let ftype = if i % GOP == 0 {
                FrameType::I
            } else {
                FrameType::P
            };
            let bytes = if ftype == FrameType::I { 8000 } else { 900 };
            InputFrame::synthetic(i, ftype, bytes)
        })
        .collect()
}

/// Annex-B length of one frame — the media bytes a transport must carry.
pub(crate) fn annex_b_len(frame: &InputFrame) -> usize {
    write_annex_b(std::slice::from_ref(&frame.nal)).len()
}

/// Source symbols per full GOP block — the `k` the analytic overhead term
/// is evaluated at.
pub(crate) fn block_symbols(input: &[InputFrame]) -> usize {
    let block_len: usize = input.iter().take(GOP).map(annex_b_len).sum();
    block_len.div_ceil(SYMBOL_LEN)
}

/// A cell's seed: `salt` XOR each coordinate times its own mixing constant,
/// so no two cells share RNG streams. At most three coordinates count.
pub(crate) fn mix_seed(salt: u64, coords: &[usize]) -> u64 {
    coords
        .iter()
        .zip(SEED_MIX)
        .fold(salt, |seed, (&c, mix)| seed ^ (c as u64).wrapping_mul(mix))
}

/// Everything a cell hands the transport dispatcher besides its plan.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Link {
    /// The selection policy.
    pub(crate) policy: Policy,
    /// The air channel; `None` is a lossless channel.
    pub(crate) point: Option<LossPoint>,
    /// Seed of the run's RNG streams.
    pub(crate) seed: u64,
    /// Receiver-side resync on the RTP/UDP path.
    pub(crate) recovery: Option<RecoveryOptions>,
    /// The fountain's repair overhead ε.
    pub(crate) overhead: f64,
}

impl Link {
    /// A link with no resync and no repair overhead.
    pub(crate) fn new(policy: Policy, point: Option<LossPoint>, seed: u64) -> Self {
        Link {
            policy,
            point,
            seed,
            recovery: None,
            overhead: 0.0,
        }
    }
}

/// What one transport run produced — everything the double-run gate
/// compares and the invariants consume.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct TransportRun {
    /// UDP packets, TCP segments (first copies) or coded symbols.
    pub(crate) sent: usize,
    /// Media bytes on the air, retransmissions and repair symbols included
    /// (parameter-set lead-ins and the fountain's out-of-band frame
    /// directory are control-plane on every path).
    pub(crate) bytes_on_air: u64,
    /// Annex-B bytes of the frames recovered byte-identically.
    pub(crate) delivered_bytes: u64,
    /// What the armed fault sites did.
    pub(crate) faults: FaultStats,
    /// Packets or segments the receiver absorbed as erasures.
    pub(crate) erasures: u64,
    /// HTTP/TCP only: per segment, the attempts the channel lost and the
    /// bytes each attempt put on the air.
    pub(crate) trace: Vec<(u32, u64)>,
    /// Stale-key resync episodes (empty where resync is off).
    pub(crate) resync: RecoveryReport,
    /// Per-frame exact-recovery flags, index = frame number.
    pub(crate) received: Vec<bool>,
}

impl TransportRun {
    /// A run that recovered what `receiver` holds and recorded nothing else.
    fn received(input: &[InputFrame], receiver: &Reconstruction) -> Self {
        let mut received = vec![false; input.len()];
        for &f in &receiver.frames_ok {
            if let Some(flag) = received.get_mut(f) {
                *flag = true;
            }
        }
        let delivered_bytes = input
            .iter()
            .filter(|f| received.get(f.index).copied().unwrap_or(false))
            .map(|f| annex_b_len(f) as u64)
            .sum();
        TransportRun {
            sent: 0,
            bytes_on_air: 0,
            delivered_bytes,
            faults: FaultStats::default(),
            erasures: 0,
            trace: Vec::new(),
            resync: RecoveryReport::default(),
            received,
        }
    }

    /// Frames recovered byte-identically.
    pub(crate) fn frames_intact(&self) -> usize {
        self.received.iter().filter(|&&ok| ok).count()
    }

    /// Timeout-driven retransmissions: the TCP trace's failure total (zero
    /// on the feedback-free transports).
    pub(crate) fn timeouts(&self) -> usize {
        self.trace
            .iter()
            .map(|&(failures, _)| failures as usize)
            .sum()
    }

    /// Delivered media over bytes on the air — the byte-thrift ratio ARQ
    /// wins under mild loss (it only resends what was actually lost).
    pub(crate) fn air_efficiency(&self) -> f64 {
        self.delivered_bytes as f64 / self.bytes_on_air as f64
    }

    /// Delivered media bits per second of transfer time: the air time of
    /// every byte plus `stall_s` of sender idle.
    pub(crate) fn goodput_mbps(&self, stall_s: f64) -> f64 {
        let transfer_s = self.bytes_on_air as f64 * 8.0 / PHY_RATE_BPS + stall_s;
        self.delivered_bytes as f64 * 8.0 / transfer_s / 1e6
    }
}

/// Run `input` over one transport. RTP/UDP meets `plan` at every stage and
/// abandons lost packets. HTTP/TCP meets `plan` on its segments and
/// retransmits every lost one until it gets through. The fountain meets
/// only the channel; undecoded blocks surface as missing frames. Which plan
/// each transport sees is the calling matrix's choice.
pub(crate) fn run_transport(
    proto: ProtocolKind,
    input: &[InputFrame],
    link: Link,
    plan: &FaultPlan,
    metrics: &MetricsRegistry,
) -> TransportRun {
    let Link {
        policy,
        point,
        seed,
        recovery,
        overhead,
    } = link;
    let (loss_prob, channel) = point.map_or((0.0, AirChannel::Iid), LossPoint::air);
    match proto {
        ProtocolKind::Udp => {
            let config = PipelineConfig {
                policy,
                loss_prob,
                channel,
                seed,
                recovery,
                ..PipelineConfig::default()
            };
            let mtu = config.mtu_payload;
            let out = run_pipeline_faulty(input.to_vec(), config, plan, metrics)
                .expect("matrix plans and channels are valid; the sender is panic-free");
            // Media bytes on the air: frames the queue dropped never burn
            // air; every other frame is chunked at the MTU, each packet
            // paying the RTP + fragment headers and UDP/IP.
            let bytes_on_air = input
                .iter()
                .filter(|f| !out.frames_dropped_at_queue.contains(&f.index))
                .map(|f| {
                    let len = annex_b_len(f);
                    let packets = len.div_ceil(mtu);
                    (len + packets * (RTP_HEADER_LEN + FRAG_HEADER_LEN + UDP_IP_OVERHEAD)) as u64
                })
                .sum();
            TransportRun {
                sent: out.packets_sent,
                bytes_on_air,
                faults: out.faults,
                erasures: out.receiver_erasures.total(),
                resync: out.recovery.unwrap_or_default(),
                ..TransportRun::received(input, &out.receiver)
            }
        }
        ProtocolKind::Tcp => {
            let config = TcpConfig {
                policy,
                loss_prob,
                seed,
                channel,
            };
            let out = run_pipeline_tcp(input, &config, plan, metrics)
                .expect("matrix plans, channels and policies are valid");
            TransportRun {
                sent: out.segments_sent,
                bytes_on_air: out.bytes_on_air(),
                faults: out.faults,
                erasures: out.receiver_erasures,
                trace: out.trace,
                ..TransportRun::received(input, &out.receiver)
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
                .expect("matrix channels and policies are valid");
            TransportRun {
                sent: out.symbols_sent,
                bytes_on_air: out.bytes_on_air,
                ..TransportRun::received(input, &out.receiver)
            }
        }
    }
}

/// The reliable transport's guarantee: HTTP/TCP retransmits until every
/// frame lands.
pub(crate) fn reliable_delivery(proto: ProtocolKind, run: &TransportRun) -> Option<String> {
    let (intact, frames) = (run.frames_intact(), run.received.len());
    (proto == ProtocolKind::Tcp && intact != frames)
        .then(|| format!("reliable transport lost frames ({intact}/{frames})"))
}

/// One cell's typed results, as the harness hands them to the matrix.
#[derive(Debug, Clone)]
pub(crate) struct CellOutcome {
    /// The faulty run (metered).
    pub(crate) run: TransportRun,
    /// The clean twin: same cell and seed, `clean = true`.
    pub(crate) clean: TransportRun,
    /// A second faulty run from the same seed compared equal to `run`.
    pub(crate) reproducible: bool,
    /// Concealed PSNR of the faulty run, dB.
    pub(crate) psnr: f64,
    /// Clean twin's concealed PSNR minus the faulty run's, dB.
    pub(crate) delta_psnr: f64,
}

/// One self-verifying matrix, run by [`run_matrix`].
pub(crate) trait Matrix: Sync + Sized {
    /// A cell's coordinates.
    type Cell: Sync;
    /// Salt of every cell seed ([`mix_seed`]).
    const SALT: u64;
    /// Build the matrix for the stream its cells transmit.
    fn new(input: &[InputFrame]) -> Self;
    /// Table title.
    fn title(&self) -> String;
    /// Table caption.
    fn caption(&self) -> String;
    /// Every cell in row order, with the coordinates its seed mixes.
    fn cells(&self) -> Vec<(Self::Cell, Vec<usize>)>;
    /// The cell's row label.
    fn label(&self, cell: &Self::Cell) -> String;
    /// Run the cell from `seed`: the faulty run, or its clean twin.
    fn run(
        &self,
        input: &[InputFrame],
        cell: &Self::Cell,
        seed: u64,
        clean: bool,
        metrics: &MetricsRegistry,
    ) -> TransportRun;
    /// The cell's rendered columns.
    fn row(&self, cell: &Self::Cell, out: &CellOutcome) -> Vec<(String, f64)>;
    /// What must hold for one cell beyond the harness's own gates; each
    /// violation is reported under the cell's label.
    fn invariants(&self, cell: &Self::Cell, out: &CellOutcome) -> Vec<String>;
    /// What must hold across cells.
    fn matrix_invariants(&self, _cells: &[(&Self::Cell, &CellOutcome)]) -> Vec<String> {
        Vec::new()
    }
}

/// What one self-verifying matrix produced.
#[derive(Debug, Clone)]
pub struct MatrixReport {
    /// One row per cell, in row order.
    pub table: Table,
    /// One telemetry snapshot per cell, in row order.
    pub metrics: FigureMetrics,
    /// Every violated invariant (empty = pass).
    pub violations: Vec<String>,
}

/// Split per-cell `(row, snapshot)` results, in row order, into the table
/// and its per-cell telemetry.
pub(crate) fn assemble(
    title: String,
    caption: String,
    cells: Vec<(Row, Snapshot)>,
) -> (Table, FigureMetrics) {
    let (rows, snapshots): (Vec<Row>, Vec<Snapshot>) = cells.into_iter().unzip();
    let metrics = FigureMetrics {
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
    (
        Table {
            title,
            caption,
            rows,
        },
        metrics,
    )
}

/// PSNR of the concealed reconstruction implied by `received`, against
/// the clip (the paper's concealment decoder, eq. (28)).
fn concealed_psnr(clip: &[YuvFrame], received: &[bool]) -> f64 {
    let reconstructed = ConcealingDecoder.reconstruct(clip, received, GOP);
    measure_quality(clip, &reconstructed).psnr_of_mean_mse
}

/// The harness's own gates on one cell: the double run, the clean-twin
/// bound, and no more frames intact than sent.
fn harness_invariants(out: &CellOutcome, frames: usize) -> Vec<String> {
    let mut violations = Vec::new();
    if !out.reproducible {
        violations.push("run was not bit-reproducible".to_string());
    }
    let delta = out.delta_psnr;
    if delta.is_nan() || delta < -1e-9 {
        violations.push(format!("faulty run beat its clean twin (ΔPSNR = {delta})"));
    }
    if out.run.frames_intact() > frames {
        violations.push("more frames intact than sent".to_string());
    }
    violations
}

/// Run matrix `M` at `effort` (frames clamped to 40..=120): every cell
/// metered, run twice and against its clean twin, rendered and verified.
pub(crate) fn run_matrix<M: Matrix>(effort: Effort) -> MatrixReport {
    let frames = effort.frames.clamp(40, 120);
    let clip = SceneGenerator::new(SceneConfig::qcif(MotionLevel::High, 7)).clip(frames);
    let input = stream(frames);
    let matrix = M::new(&input);
    let cells = matrix.cells();
    let (outcomes, snapshots): (Vec<CellOutcome>, Vec<Snapshot>) =
        par_map(&cells, |(cell, coords)| {
            let seed = mix_seed(M::SALT, coords);
            let metrics = MetricsRegistry::enabled();
            let run = matrix.run(&input, cell, seed, false, &metrics);
            let rerun = matrix.run(&input, cell, seed, false, &MetricsRegistry::enabled());
            let clean = matrix.run(&input, cell, seed, true, &MetricsRegistry::disabled());
            let psnr = concealed_psnr(&clip, &run.received);
            let delta_psnr = concealed_psnr(&clip, &clean.received) - psnr;
            let out = CellOutcome {
                reproducible: run == rerun,
                run,
                clean,
                psnr,
                delta_psnr,
            };
            (out, metrics.snapshot())
        })
        .into_iter()
        .unzip();
    let mut violations = Vec::new();
    let mut rows = Vec::with_capacity(cells.len());
    for (((cell, _), out), snapshot) in cells.iter().zip(&outcomes).zip(snapshots) {
        let label = matrix.label(cell);
        for v in harness_invariants(out, frames)
            .into_iter()
            .chain(matrix.invariants(cell, out))
        {
            violations.push(format!("{label}: {v}"));
        }
        let values = matrix.row(cell, out);
        rows.push((Row { label, values }, snapshot));
    }
    let ran: Vec<(&M::Cell, &CellOutcome)> =
        cells.iter().map(|(cell, _)| cell).zip(&outcomes).collect();
    violations.extend(matrix.matrix_invariants(&ran));
    let (table, metrics) = assemble(matrix.title(), matrix.caption(), rows);
    MatrixReport {
        table,
        metrics,
        violations,
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicUsize, Ordering};

    use super::*;
    use crate::{chaos_matrix, fault_matrix, fountain_matrix, FaultClass, StormClass};

    fn tiny() -> Effort {
        Effort {
            trials: 1,
            frames: 40,
        }
    }

    /// A one-cell matrix with a scripted transport. `FLAKY`: every run
    /// reports a different packet count. Otherwise the faulty run recovers
    /// every frame while its clean twin recovers none.
    struct Toy<const FLAKY: bool> {
        frames: usize,
        runs: AtomicUsize,
    }

    impl<const FLAKY: bool> Matrix for Toy<FLAKY> {
        type Cell = ();
        const SALT: u64 = 0;

        fn new(input: &[InputFrame]) -> Self {
            Toy {
                frames: input.len(),
                runs: AtomicUsize::new(0),
            }
        }

        fn title(&self) -> String {
            "toy".into()
        }

        fn caption(&self) -> String {
            String::new()
        }

        fn cells(&self) -> Vec<((), Vec<usize>)> {
            vec![((), vec![0])]
        }

        fn label(&self, _cell: &()) -> String {
            "toy".into()
        }

        fn run(
            &self,
            _input: &[InputFrame],
            _cell: &(),
            _seed: u64,
            clean: bool,
            _metrics: &MetricsRegistry,
        ) -> TransportRun {
            let runs = self.runs.fetch_add(1, Ordering::Relaxed);
            TransportRun {
                sent: if FLAKY { runs } else { 0 },
                bytes_on_air: 0,
                delivered_bytes: 0,
                faults: FaultStats::default(),
                erasures: 0,
                trace: Vec::new(),
                resync: RecoveryReport::default(),
                received: vec![FLAKY || !clean; self.frames],
            }
        }

        fn row(&self, _cell: &(), _out: &CellOutcome) -> Vec<(String, f64)> {
            Vec::new()
        }

        fn invariants(&self, _cell: &(), _out: &CellOutcome) -> Vec<String> {
            Vec::new()
        }
    }

    #[test]
    fn a_rerun_that_differs_is_a_violation() {
        let report = run_matrix::<Toy<true>>(tiny());
        assert_eq!(report.violations, ["toy: run was not bit-reproducible"]);
    }

    #[test]
    fn a_faulty_run_beating_its_clean_twin_is_a_violation() {
        let report = run_matrix::<Toy<false>>(tiny());
        assert_eq!(report.violations.len(), 1, "{:?}", report.violations);
        assert!(
            report.violations[0].starts_with("toy: faulty run beat its clean twin (ΔPSNR = -"),
            "{:?}",
            report.violations
        );
    }

    #[test]
    fn matrices_are_reproducible_and_pass_their_invariants() {
        let matrices = [
            (
                "faults",
                fault_matrix as fn(Effort) -> MatrixReport,
                FaultClass::ALL.len() * 2 * 2,
            ),
            (
                "fountain",
                fountain_matrix,
                ProtocolKind::ALL.len() * LossPoint::ALL.len() * 4,
            ),
            (
                "chaos",
                chaos_matrix,
                StormClass::ALL.len() * ProtocolKind::ALL.len(),
            ),
        ];
        for (name, generate, cells) in matrices {
            let a = generate(tiny());
            assert!(a.violations.is_empty(), "{name}: {:?}", a.violations);
            assert_eq!(a.table.rows.len(), cells, "{name}");
            assert_eq!(a.metrics.cells.len(), cells, "{name}");
            let b = generate(tiny());
            assert_eq!(
                a.table.to_json(),
                b.table.to_json(),
                "{name}: table must be byte-stable"
            );
            assert_eq!(
                a.metrics.to_json(),
                b.metrics.to_json(),
                "{name}: telemetry must be byte-stable"
            );
        }
    }
}
