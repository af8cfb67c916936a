//! Real-bytes testbed — the Android app of Section 5 in miniature.
//!
//! Mirrors Figure 3's block diagram with actual data, as plain stage
//! functions on two threads: one for the air side, one for the receiver.
//! A spawned **sender** thread runs, per frame and in order, queue
//! admission (the plan's overflow site), the **encryptor** — fragment the
//! frame's Annex-B NAL unit to MTU-sized segments, encrypt the segments
//! selected by the policy with the real cipher (OFB per segment, exactly
//! like the paper's GPAC-based app) and set the RTP **marker bit** on
//! encrypted packets — and the **air**: loss, then the plan's in-flight
//! faults. The **eavesdropper** listens on the same thread: it hears each
//! train's survivors as the air lets them go, before they cross one
//! `std::sync::mpsc` channel as one batch to the calling thread, where the
//! **receiver** takes them in. Each observer owns its fragment store (a
//! `Reassembler`); the receiver decrypts a batch's marked packets in place,
//! the eavesdropper must treat them as erasures.
//!
//! ## Cipher work grouped across frames
//!
//! Both cipher sides group their work across frames, up to the cipher's
//! lane count ([`SegmentCipher::train_lanes`]), in a lane group: 64
//! segments on AES and on 3DES, whose bitsliced cores advance 64 OFB chains
//! at about the cost of one. The encryptor holds each train, selected or
//! clear, until the selected bodies held before and in it have been
//! encrypted; the receiver holds each batch, after reading it, until its
//! fresh marked bodies have been decrypted. A group is cut at exactly 64
//! bodies, so a train whose bodies straddle the cut waits for the next
//! group, and the remainder is flushed at the end of the stream. Under the
//! I-frame-only policy 5–6 I-frame trains of about 11 segments fill one
//! group; under full encryption, where every P-frame adds a segment, about
//! 47 frames do. Trains reach the air, and batches the eavesdropper and the
//! receiver's store, in their original order and with their original
//! boundaries, and encryption draws nothing, so the policy, queue, air,
//! fault-site, stale-key and resync streams all draw in their original
//! order and every output is byte-identical to ciphering train by train.
//!
//! The grouping is a throughput device the sim can use only because it
//! models no send timing: byte-identical outputs say nothing about when a
//! train leaves. Under the I-frame-only 3DES policy every train, clear
//! P-frames included, waits until 5–6 I-frame trains have filled the group
//! — 5–6 GOPs, so 5–6 s of video at 30-frame GOPs and 30 fps. Under the
//! all-frame AES-256 baseline a group holds about 47 frames, ≈1.6 GOPs, so
//! ≈1.6 s. A live sender, whose frames have a send deadline (the real-time
//! transfer of Figure 3), could not hold them that long; it would have to
//! cut a group at the frames its deadline allows and cipher smaller, partly
//! filled groups.
//!
//! Each observer settles the frames a batch touched right after storing
//! it, while the bytes are still in cache: a complete frame is checked in
//! place against the bytes the sender wrote ([`annex_b_matches`]) and
//! parsed only if they differ, and the store caches the verdict until a
//! later fragment of that frame arrives. After the join the stores only
//! read their verdicts — no cold pass over every stored fragment is left
//! in series behind the stream.
//!
//! ## Why two threads
//!
//! Every output is seeded and byte-compared, so the second thread buys no
//! behaviour. It buys time: the receiver's decryption runs beside the
//! sender's encryption, the one overlap that pays — most visibly under
//! 3DES, whose I-frame-only policy spends much of a run in the cipher on
//! both sides. With full 64-segment groups through the bitsliced 3DES
//! core, the perfbench `thrifty_udp` op (5000 frames, I-frames under 3DES)
//! still spends ≈46–48 ms in 3DES on *each* side on a 2-vCPU x86-64 VM,
//! which one thread would put back in series. The eavesdropper rides
//! the sender thread, beside the air it listens to, which leaves the
//! calling thread to the receiver alone: the air side encrypts and
//! eavesdrops, the receiver decrypts and scores.
//! Every stage draws from its own seeded stream, the eavesdropper copies a
//! batch before the receiver decrypts it in place, and the receiver reads
//! each batch in arrival order before decrypting it, so neither the split
//! nor the batching changes a draw or a verdict.
//!
//! ## Zero-copy packet path
//!
//! Each packet is assembled **once** into one allocation — RTP header room
//! reserved up front, fragment header and payload behind it — stamped
//! with its RTP header via [`RtpHeader::write_into`], encrypted *in place*
//! as part of one batched keystream train per lane group
//! ([`MeteredSegmentCipher::encrypt_train`](thrifty_crypto::MeteredSegmentCipher::encrypt_train),
//! byte-identical to per-segment OFB), and sent down the channel as the
//! *same allocation*, batched with the rest of its train. The receiver
//! decrypts its held batches in place as one train and moves each packet
//! into its store; the eavesdropper copies the clear RTP payloads it
//! stores.
//!
//! Fragments are carried behind a small fragmentation header
//! ([`FragmentHeader`]: frame index, fragment number, fragment count)
//! playing the role of H.264 FU-A fragmentation units.
//!
//! ## Robustness contract
//!
//! The testbed is built for hostile channels: every stage is panic-free on
//! arbitrary input. Malformed RTP, fragmentation garbage, truncated
//! packets and undecryptable payloads become **erasures** (counted in
//! [`ErasureStats`]) that flow into frame damage and from there into the
//! distortion model — never aborts. [`run_pipeline_faulty`] layers a
//! seeded [`FaultPlan`] over the air, the producer queue and the
//! receiver's key schedule; an empty plan is draw-free and byte-identical
//! to the plain path, and any armed plan is bit-reproducible from its
//! seed.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, VecDeque};
use std::sync::mpsc;
use thrifty_analytic::policy::Policy;
use thrifty_crypto::{MeteredSegmentCipher, SegmentCipher};
use thrifty_faults::{FaultPlan, FaultStats, PacketInjector, QueueFaults, ReceiverFaults};
use thrifty_net::wire::{
    FragmentHeader, RtpHeader, RtpPacket, WireError, FRAG_HEADER_LEN, RTP_HEADER_LEN,
};
use thrifty_net::{BernoulliChannel, ChannelError, GilbertElliottChannel, LossChannel};
use thrifty_recover::{DesyncKind, RecoveryReport, ResyncProtocol};
use thrifty_telemetry::{Counter, MetricsRegistry};
use thrifty_video::bitstream::{PictureParameterSet, SequenceParameterSet};
use thrifty_video::nal::{annex_b_matches, parse_annex_b, write_annex_b, NalUnit, NalUnitType};
use thrifty_video::FrameType;

/// Loss process applied on the air.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AirChannel {
    /// Independent per-packet loss with [`PipelineConfig::loss_prob`] —
    /// the i.i.d. assumption of the paper's eq. (20).
    Iid,
    /// Two-state Gilbert–Elliott bursty loss (`loss_prob` is ignored).
    Burst {
        /// P(good → bad) per packet.
        p_gb: f64,
        /// P(bad → good) per packet.
        p_bg: f64,
        /// Delivery probability in the Good state.
        good_success: f64,
        /// Delivery probability in the Bad state.
        bad_success: f64,
    },
}

/// The air's loss process, built from a transport's `(loss_prob,
/// AirChannel)` pair: the one channel type every transport and matrix
/// draws deliveries from.
#[derive(Debug, Clone)]
pub enum LossModel {
    /// i.i.d. delivery with probability `1 - loss_prob`.
    Iid(BernoulliChannel),
    /// Gilbert–Elliott bursty delivery.
    Burst(GilbertElliottChannel),
}

impl LossModel {
    /// Validate the parameters and build the channel.
    pub fn try_new(loss_prob: f64, channel: AirChannel) -> Result<Self, ChannelError> {
        match channel {
            AirChannel::Iid => BernoulliChannel::try_new(1.0 - loss_prob).map(LossModel::Iid),
            AirChannel::Burst {
                p_gb,
                p_bg,
                good_success,
                bad_success,
            } => GilbertElliottChannel::try_new(p_gb, p_bg, good_success, bad_success)
                .map(LossModel::Burst),
        }
    }
}

impl LossChannel for LossModel {
    fn transmit<R: Rng + ?Sized>(&mut self, rng: &mut R) -> bool {
        match self {
            LossModel::Iid(c) => c.transmit(rng),
            LossModel::Burst(c) => c.transmit(rng),
        }
    }

    fn success_rate(&self) -> f64 {
        match self {
            LossModel::Iid(c) => c.success_rate(),
            LossModel::Burst(c) => c.success_rate(),
        }
    }
}

/// Receiver-side recovery: turn stale-key hits into bounded re-key +
/// decoder-resync episodes instead of isolated per-packet garbage.
///
/// With recovery enabled, the first stale-key hit *desynchronises* the
/// receiver: it keeps decrypting with the out-of-date key (garbage) while a
/// re-key handshake of [`handshake_packets`](Self::handshake_packets)
/// received packets runs, then resynchronises at the next I-frame (spotted
/// from the cleartext fragment header using
/// [`gop_hint`](Self::gop_hint)). Each episode's length in received packets
/// is measured and reported in [`PipelineOutcome::recovery`].
///
/// The tracking is passive with respect to randomness — the stale-key site
/// draws exactly as without recovery — so enabling it never perturbs the
/// seeded loss/corruption streams.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryOptions {
    /// Re-key handshake length, counted in received packets (must be ≥ 1
    /// for the damaged anchor itself not to count as the resync point).
    pub handshake_packets: u64,
    /// GOP length hint for spotting I-frames (frame index ≡ 0 mod hint).
    pub gop_hint: usize,
}

impl Default for RecoveryOptions {
    fn default() -> Self {
        RecoveryOptions {
            handshake_packets: 16,
            gop_hint: 10,
        }
    }
}

/// Configuration of a pipeline run.
#[derive(Debug, Clone, Copy)]
pub struct PipelineConfig {
    /// The selection policy (cipher + packet rule).
    pub policy: Policy,
    /// Maximum RTP payload per fragment (after the fragmentation header).
    pub mtu_payload: usize,
    /// Independent per-packet loss probability on the air (used by
    /// [`AirChannel::Iid`]).
    pub loss_prob: f64,
    /// RNG seed for policy draws and losses.
    pub seed: u64,
    /// The loss process on the air.
    pub channel: AirChannel,
    /// Receiver-side recovery; `None` (the default) reproduces the
    /// historical per-packet stale-key behaviour byte for byte.
    pub recovery: Option<RecoveryOptions>,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            policy: Policy::new(
                thrifty_crypto::Algorithm::Aes256,
                thrifty_analytic::policy::EncryptionMode::IFrames,
            ),
            mtu_payload: 1452,
            loss_prob: 0.0,
            seed: 1,
            channel: AirChannel::Iid,
            recovery: None,
        }
    }
}

/// One coded frame fed to the pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InputFrame {
    /// Absolute frame number.
    pub index: usize,
    /// Frame class (decides the policy's selection rule).
    pub ftype: FrameType,
    /// The frame's NAL unit (payload carries the coded bits).
    pub nal: NalUnit,
}

impl InputFrame {
    /// Build a synthetic coded frame of `bytes` payload bytes.
    pub fn synthetic(index: usize, ftype: FrameType, bytes: usize) -> Self {
        InputFrame {
            index,
            ftype,
            nal: NalUnit::synthetic_slice(index, ftype == FrameType::I, bytes),
        }
    }
}

/// What one observer reconstructed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Reconstruction {
    /// Frames fully and correctly reassembled (payload byte-identical).
    pub frames_ok: Vec<usize>,
    /// Frames with at least one fragment missing or unusable.
    pub frames_damaged: Vec<usize>,
}

/// Hostile-input events one observer absorbed as erasures instead of
/// aborting on.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ErasureStats {
    /// Packets whose RTP header failed to parse (truncation/corruption).
    pub rtp_malformed: u64,
    /// Packets whose fragmentation header was short or geometrically
    /// impossible after (attempted) decryption.
    pub frag_malformed: u64,
    /// Marked packets the observer could not decrypt (the eavesdropper's
    /// view of every encrypted packet).
    pub marked_undecryptable: u64,
}

impl ErasureStats {
    /// Total erasure events.
    pub fn total(&self) -> u64 {
        self.rtp_malformed + self.frag_malformed + self.marked_undecryptable
    }
}

/// Why a pipeline run could not be carried out at all.
///
/// Runtime channel hostility is **not** an error — it degrades the
/// reconstruction and is reported in [`PipelineOutcome`]. Errors are
/// reserved for invalid setup and for the sender thread dying, which the
/// panic-free contract treats as a bug worth surfacing, not unwinding
/// through.
#[derive(Debug, Clone, PartialEq)]
pub enum PipelineError {
    /// The fault plan failed validation.
    InvalidPlan(thrifty_faults::PlanError),
    /// The air channel parameters failed validation.
    InvalidChannel(thrifty_net::ChannelError),
    /// The fountain configuration failed validation.
    InvalidFountain(crate::fountain::FountainConfigError),
    /// The LT coder rejected a source block's geometry.
    Fec(thrifty_fec::FecError),
    /// The cipher rejected the session key.
    KeyRejected(thrifty_crypto::CryptoError),
    /// A worker thread panicked (a bug — the stages are panic-free by
    /// contract on arbitrary channel input).
    StagePanicked {
        /// Which stage died.
        stage: &'static str,
    },
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::InvalidPlan(e) => write!(f, "invalid fault plan: {e}"),
            PipelineError::InvalidChannel(e) => write!(f, "invalid air channel: {e}"),
            PipelineError::InvalidFountain(e) => write!(f, "invalid fountain config: {e}"),
            PipelineError::Fec(e) => write!(f, "LT coder rejected a block: {e}"),
            PipelineError::KeyRejected(e) => write!(f, "cipher rejected session key: {e}"),
            PipelineError::StagePanicked { stage } => {
                write!(f, "pipeline stage '{stage}' panicked")
            }
        }
    }
}

impl std::error::Error for PipelineError {}

/// Outcome of a pipeline run.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineOutcome {
    /// Packets put on the air.
    pub packets_sent: usize,
    /// Packets flagged encrypted (marker bit set).
    pub packets_encrypted: usize,
    /// The legitimate receiver's reconstruction.
    pub receiver: Reconstruction,
    /// The eavesdropper's reconstruction.
    pub eavesdropper: Reconstruction,
    /// The SPS the receiver parsed from the lead-in parameter sets, if the
    /// packets carrying it survived the channel.
    pub receiver_sps: Option<SequenceParameterSet>,
    /// The PPS the receiver parsed, likewise.
    pub receiver_pps: Option<PictureParameterSet>,
    /// What the armed fault sites did (all zero for an empty plan).
    pub faults: FaultStats,
    /// Hostile input the receiver absorbed as erasures.
    pub receiver_erasures: ErasureStats,
    /// Hostile input the eavesdropper absorbed as erasures (its
    /// `marked_undecryptable` count is by design every encrypted packet).
    pub eavesdropper_erasures: ErasureStats,
    /// Frames dropped at the bounded queue before ever reaching the
    /// encryptor (queue-overflow fault).
    pub frames_dropped_at_queue: Vec<usize>,
    /// Stale-key recovery episodes measured at the receiver; present iff
    /// [`PipelineConfig::recovery`] was set.
    pub recovery: Option<RecoveryReport>,
}

/// Reserved fragment-header frame index carrying the SPS lead-in.
const SPS_FRAME: u32 = u32::MAX;
/// Reserved fragment-header frame index carrying the PPS lead-in.
const PPS_FRAME: u32 = u32::MAX - 1;

/// The session key of the threat model's pre-established secret (shared
/// with the fountain and TCP transports).
pub(crate) const SESSION_KEY: [u8; 32] = [0x42u8; 32];
/// An out-of-date key for the stale-key fault: same length, different bits.
pub(crate) const STALE_KEY: [u8; 32] = [0xA5u8; 32];

/// Frame index → the NAL unit the sender wrote for it: what every store
/// scores its frames against. A later input frame with the same index
/// replaces an earlier one.
pub(crate) type Originals<'a> = BTreeMap<usize, &'a NalUnit>;

/// Index `frames` by frame number.
pub(crate) fn originals(frames: &[InputFrame]) -> Originals<'_> {
    frames.iter().map(|f| (f.index, &f.nal)).collect()
}

/// One stored fragment: the packet that carried it, kept whole, and where
/// its body starts behind the [`FragmentHeader`].
#[derive(Debug)]
struct Fragment {
    packet: Vec<u8>,
    body_at: usize,
}

impl Fragment {
    fn body(&self) -> &[u8] {
        self.packet.get(self.body_at..).unwrap_or_default()
    }
}

/// Everything stored for one frame index.
#[derive(Debug, Default)]
struct FrameEntry {
    /// The fragment count announced by the latest header stored.
    total: u16,
    /// Fragment number → fragment.
    fragments: BTreeMap<u16, Fragment>,
    /// Whether the frame is intact, once settled; every insert clears it.
    verdict: Option<bool>,
}

impl FrameEntry {
    /// The stored fragment bodies, in fragment order.
    fn bodies(&self) -> impl Iterator<Item = &[u8]> {
        self.fragments.values().map(Fragment::body)
    }

    /// The stored fragments, concatenated in fragment order.
    fn annex_b(&self) -> Vec<u8> {
        let mut annex_b = Vec::with_capacity(self.bodies().map(<[u8]>::len).sum());
        for body in self.bodies() {
            annex_b.extend_from_slice(body);
        }
        annex_b
    }

    /// Whether the frame arrived complete and parses back to `original`'s
    /// payload byte for byte.
    ///
    /// Fragments that spell exactly what the sender wrote are checked in
    /// place by [`annex_b_matches`]; only the rest are concatenated and
    /// parsed, which gives the same verdict for every stream the writer did
    /// not emit (a 3-byte start code, a changed header byte) that still
    /// carries the payload.
    fn intact(&self, original: &NalUnit) -> bool {
        self.fragments.len() == usize::from(self.total)
            && (annex_b_matches(original, self.bodies()) || {
                let units = parse_annex_b(&self.annex_b());
                matches!(units.as_deref(), Ok([unit]) if unit.payload == original.payload)
            })
    }
}

/// A per-frame fragment store: the reassembly every fragment-header
/// transport shares (both RTP observers and the TCP receiver).
///
/// Each frame's verdict is cached once [`settle`](Self::settle)d, while
/// the frame's bytes are still in cache; any later insert into the frame
/// clears it, so a cached verdict always describes the frame as stored and
/// [`reconstruct`](Self::reconstruct) reads the same as if nothing had
/// been settled.
#[derive(Debug, Default)]
pub(crate) struct Reassembler {
    frames: BTreeMap<usize, FrameEntry>,
    /// Frames inserted into since the last settle (consecutive repeats
    /// folded).
    unsettled: Vec<usize>,
}

impl Reassembler {
    /// Store one packet, moved in whole: `packet[body_at..]` is a
    /// [`FragmentHeader`] followed by the fragment body. A later copy of
    /// the same fragment replaces the earlier one.
    pub(crate) fn insert(&mut self, packet: Vec<u8>, body_at: usize) -> Result<(), WireError> {
        let (header, _) = FragmentHeader::parse(packet.get(body_at..).unwrap_or_default())?;
        let frame = header.frame as usize;
        let entry = self.frames.entry(frame).or_default();
        entry.total = header.total;
        entry.verdict = None;
        entry.fragments.insert(
            header.frag,
            Fragment {
                packet,
                body_at: body_at + FRAG_HEADER_LEN,
            },
        );
        if self.unsettled.last() != Some(&frame) {
            self.unsettled.push(frame);
        }
        Ok(())
    }

    /// Cache the verdict of every frame inserted into since the last
    /// settle that has an original to be scored against.
    pub(crate) fn settle(&mut self, originals: &Originals<'_>) {
        for frame in self.unsettled.drain(..) {
            if let (Some(entry), Some(original)) =
                (self.frames.get_mut(&frame), originals.get(&frame))
            {
                if entry.verdict.is_none() {
                    entry.verdict = Some(entry.intact(original));
                }
            }
        }
    }

    /// Which of the `originals` arrived complete and parse back to their
    /// NAL payload byte for byte, in frame-index order: the settled
    /// verdicts, and the rest computed now.
    pub(crate) fn reconstruct(&self, originals: &Originals<'_>) -> Reconstruction {
        let mut rec = Reconstruction::default();
        for (&frame, original) in originals {
            let intact = self
                .frames
                .get(&frame)
                .is_some_and(|entry| entry.verdict.unwrap_or_else(|| entry.intact(original)));
            if intact {
                rec.frames_ok.push(frame);
            } else {
                rec.frames_damaged.push(frame);
            }
        }
        rec
    }

    /// The first NAL unit stored under the reserved frame index
    /// `reserved`, if its fragments parse.
    fn parameter_set(&self, reserved: u32) -> Option<NalUnit> {
        let annex_b = self.frames.get(&(reserved as usize))?.annex_b();
        parse_annex_b(&annex_b).ok()?.into_iter().next()
    }
}

/// Run the full pipeline over `frames` with real encryption and framing.
///
/// The shared symmetric key models the pre-established secret of the threat
/// model (Section 3): the receiver has it, the eavesdropper does not.
///
/// Equivalent to [`run_pipeline_metered`] with a disabled registry.
///
/// # Panics
///
/// If the air channel rejects `config` (`loss_prob` outside [0, 1] or
/// NaN, bad [`AirChannel::Burst`] parameters); [`run_pipeline_faulty`]
/// returns that as [`PipelineError::InvalidChannel`].
pub fn run_pipeline(frames: Vec<InputFrame>, config: PipelineConfig) -> PipelineOutcome {
    run_pipeline_metered(frames, config, &MetricsRegistry::disabled())
}

/// Run the full pipeline, counting traffic into `metrics`.
///
/// Counter handles are `Arc`-backed atomics, so the sender thread reports
/// without any extra synchronisation: `pipeline.packets_sent` /
/// `pipeline.packets_encrypted` from the encryptor, `net.channel.delivered`
/// / `net.channel.lost` from the air, and real
/// `crypto.{segments,bytes}_{encrypted,decrypted}.*` counts from the
/// [`MeteredSegmentCipher`]s on both sides of the channel. Spans are
/// deliberately absent here: sim-time spans belong to the discrete-event
/// side.
///
/// # Panics
///
/// As [`run_pipeline`]; [`run_pipeline_faulty`] returns the error instead.
pub fn run_pipeline_metered(
    frames: Vec<InputFrame>,
    config: PipelineConfig,
    metrics: &MetricsRegistry,
) -> PipelineOutcome {
    match run_pipeline_faulty(frames, config, &FaultPlan::default(), metrics) {
        Ok(outcome) => outcome,
        Err(e) => panic!("run_pipeline rejected its config {config:?}: {e}"),
    }
}

/// Run the full pipeline under a seeded [`FaultPlan`].
///
/// The plan's sites are threaded to the stages that own them: corruption,
/// truncation, duplication, reordering bursts and burst-loss episodes act
/// on the air; queue overflow acts at the producer's queue admission; stale
/// keys act at the receiver's decryptor. Every armed site draws from its
/// own seeded stream, so the run is **bit-reproducible** from
/// `(config.seed, plan)`; an **empty plan consumes no randomness** and the
/// outcome is byte-identical to [`run_pipeline_metered`].
///
/// Spawns exactly one thread, which carries the sender and the
/// eavesdropper; the receiver runs on the calling thread. Both observers
/// settle each batch's frames as they store it, so after the join only the
/// receiver's parameter sets and cached verdicts are read. Channel
/// hostility degrades the output (erasures → damaged frames), it never
/// panics. `Err` is returned only for invalid setup
/// ([`PipelineError::InvalidPlan`], [`PipelineError::InvalidChannel`],
/// [`PipelineError::KeyRejected`]) or a sender-thread bug
/// ([`PipelineError::StagePanicked`]).
pub fn run_pipeline_faulty(
    frames: Vec<InputFrame>,
    config: PipelineConfig,
    plan: &FaultPlan,
    metrics: &MetricsRegistry,
) -> Result<PipelineOutcome, PipelineError> {
    run_pipeline_grouped(frames, config, plan, metrics, SegmentCipher::train_lanes)
}

/// [`run_pipeline_faulty`] with both sides' lane groups cut at
/// `lanes(&cipher)` bodies: the cipher's own lane count, except in the
/// test that pins grouped ciphering against ungrouped (1).
fn run_pipeline_grouped(
    frames: Vec<InputFrame>,
    config: PipelineConfig,
    plan: &FaultPlan,
    metrics: &MetricsRegistry,
    lanes: fn(&SegmentCipher) -> usize,
) -> Result<PipelineOutcome, PipelineError> {
    plan.validate().map_err(PipelineError::InvalidPlan)?;
    // Validate the channel up front so the air cannot die on a NaN
    // probability mid-run.
    let loss = LossModel::try_new(config.loss_prob, config.channel)
        .map_err(PipelineError::InvalidChannel)?;
    let cipher = SegmentCipher::new(config.policy.algorithm, &SESSION_KEY)
        .map_err(PipelineError::KeyRejected)?;
    let stale_cipher = SegmentCipher::new(config.policy.algorithm, &STALE_KEY)
        .map_err(PipelineError::KeyRejected)?;

    let sender = Sender {
        queue: QueueFaults::new(plan, metrics),
        encryptor: Encryptor {
            group: LaneGroup::new(lanes(&cipher)),
            cipher: cipher.clone().metered(metrics),
            policy: config.policy,
            mtu_payload: config.mtu_payload,
            policy_rng: StdRng::seed_from_u64(config.seed),
            seq: 0,
            packets_sent: 0,
            packets_encrypted: 0,
            sent: metrics.counter("pipeline.packets_sent"),
            encrypted: metrics.counter("pipeline.packets_encrypted"),
        },
        air: Air {
            loss,
            loss_prob: config.loss_prob,
            rng: StdRng::seed_from_u64(config.seed ^ 0xA1B2),
            injector: PacketInjector::new(plan, RTP_HEADER_LEN, metrics),
            delivered: metrics.counter("net.channel.delivered"),
            lost: metrics.counter("net.channel.lost"),
        },
        eavesdropper: Observer::new(metrics.counter("pipeline.erasures.eavesdropper")),
    };
    let mut decryptor = Decryptor {
        group: LaneGroup::new(lanes(&cipher)),
        cipher: cipher.metered(metrics),
        stale_cipher,
        faults: ReceiverFaults::new(plan, metrics),
        resync: config.recovery.map(|opts| ResyncState {
            protocol: ResyncProtocol::new(opts.handshake_packets.max(1)),
            gop_hint: opts.gop_hint,
            tick: 0,
        }),
    };
    let mut receiver = Observer::new(metrics.counter("pipeline.erasures.receiver"));

    let (tx, rx) = mpsc::channel::<Vec<Vec<u8>>>();
    let frames = frames.as_slice();
    let originals = originals(frames);
    let originals = &originals;
    let sent = std::thread::scope(|scope| {
        let sender = scope.spawn(move || sender.run(frames, originals, &tx));
        for batch in rx {
            receiver.receive(batch, &mut decryptor, originals);
        }
        decryptor.decrypt_held(true);
        receiver.store_ready(&mut decryptor, originals);
        sender.join()
    })
    .map_err(|_| PipelineError::StagePanicked { stage: "sender" })?;

    let mut faults = sent.faults;
    faults.merge(&decryptor.faults.stats());
    let receiver_sps = receiver
        .store
        .parameter_set(SPS_FRAME)
        .filter(|u| u.unit_type == NalUnitType::Sps)
        .and_then(|u| SequenceParameterSet::from_rbsp(&u.payload).ok());
    let receiver_pps = receiver
        .store
        .parameter_set(PPS_FRAME)
        .filter(|u| u.unit_type == NalUnitType::Pps)
        .and_then(|u| PictureParameterSet::from_rbsp(&u.payload).ok());
    Ok(PipelineOutcome {
        packets_sent: sent.packets_sent,
        packets_encrypted: sent.packets_encrypted,
        receiver: receiver.store.reconstruct(originals),
        eavesdropper: sent.eavesdropper,
        receiver_sps,
        receiver_pps,
        faults,
        receiver_erasures: receiver.erasures,
        eavesdropper_erasures: sent.eavesdropper_erasures,
        frames_dropped_at_queue: sent.frames_dropped_at_queue,
        recovery: decryptor.resync.map(|rs| rs.protocol.report()),
    })
}

/// What the sender thread reports when the stream ends.
struct SenderReport {
    packets_sent: usize,
    packets_encrypted: usize,
    frames_dropped_at_queue: Vec<usize>,
    /// The queue's and the air's fault counts.
    faults: FaultStats,
    /// The eavesdropper's reconstruction.
    eavesdropper: Reconstruction,
    /// Hostile input the eavesdropper absorbed as erasures.
    eavesdropper_erasures: ErasureStats,
}

/// The sender thread's three stages, each owning its seeded stream, and
/// the eavesdropper listening to the air.
struct Sender {
    queue: QueueFaults,
    encryptor: Encryptor,
    air: Air,
    eavesdropper: Observer,
}

impl Sender {
    /// Run the stream, then report. The receiver hangs up only if the
    /// calling thread died, and then nobody is left to hear the rest.
    fn run(
        mut self,
        frames: &[InputFrame],
        originals: &Originals<'_>,
        tx: &mpsc::Sender<Vec<Vec<u8>>>,
    ) -> SenderReport {
        let mut dropped = Vec::new();
        let _hung_up = self.send(frames, originals, tx, &mut dropped);
        let mut faults = self.queue.stats();
        faults.merge(&self.air.injector.stats());
        SenderReport {
            packets_sent: self.encryptor.packets_sent,
            packets_encrypted: self.encryptor.packets_encrypted,
            frames_dropped_at_queue: dropped,
            faults,
            eavesdropper: self.eavesdropper.store.reconstruct(originals),
            eavesdropper_erasures: self.eavesdropper.erasures,
        }
    }

    /// Send the SPS/PPS lead-in, then every frame the queue admits, then
    /// flush the air's reordering buffer.
    fn send(
        &mut self,
        frames: &[InputFrame],
        originals: &Originals<'_>,
        tx: &mpsc::Sender<Vec<Vec<u8>>>,
        dropped: &mut Vec<usize>,
    ) -> Result<(), mpsc::SendError<Vec<Vec<u8>>>> {
        let lead_in = self.encryptor.lead_in();
        let batch = self.air.carry(lead_in);
        self.deliver(batch, originals, tx)?;
        for frame in frames {
            if !self.queue.admit() {
                // Producer outpaced the encryptor: the frame never reaches
                // the queue. The stream continues — graceful degradation,
                // not an abort.
                dropped.push(frame.index);
                continue;
            }
            self.encryptor.encrypt_frame(frame);
            self.transmit(originals, tx)?;
        }
        self.encryptor.encrypt_held(true);
        self.transmit(originals, tx)?;
        let drained = self.air.drain();
        self.deliver(drained, originals, tx)
    }

    /// Put the encryptor's ready trains on the air in order, one batch
    /// each.
    fn transmit(
        &mut self,
        originals: &Originals<'_>,
        tx: &mpsc::Sender<Vec<Vec<u8>>>,
    ) -> Result<(), mpsc::SendError<Vec<Vec<u8>>>> {
        while let Some((train, ())) = self.encryptor.group.pop_ready() {
            let batch = self.air.carry(train);
            self.deliver(batch, originals, tx)?;
        }
        Ok(())
    }

    /// Let the eavesdropper hear and settle one batch off the air, then
    /// hand the batch to the receiver. The eavesdropper reads the wire
    /// bytes before the receiver decrypts them in place.
    fn deliver(
        &mut self,
        batch: Vec<Vec<u8>>,
        originals: &Originals<'_>,
        tx: &mpsc::Sender<Vec<Vec<u8>>>,
    ) -> Result<(), mpsc::SendError<Vec<Vec<u8>>>> {
        self.eavesdropper.hear(&batch, originals);
        tx.send(batch)
    }
}

/// Figure 3's consumer/encryptor: fragments, stamps and encrypts.
struct Encryptor {
    cipher: MeteredSegmentCipher,
    /// Trains held until their selected bodies fill the cipher's lanes.
    group: LaneGroup<()>,
    policy: Policy,
    mtu_payload: usize,
    /// The per-frame policy draws.
    policy_rng: StdRng,
    /// The next RTP sequence number.
    seq: u16,
    packets_sent: usize,
    packets_encrypted: usize,
    sent: Counter,
    encrypted: Counter,
}

impl Encryptor {
    /// SPS and PPS as real parameter-set NAL units, one clear packet each
    /// (parameter sets must be readable before any key material applies).
    fn lead_in(&mut self) -> Vec<Vec<u8>> {
        let units = [
            (
                SPS_FRAME,
                NalUnit::new(3, NalUnitType::Sps, SequenceParameterSet::cif().to_rbsp()),
            ),
            (
                PPS_FRAME,
                NalUnit::new(
                    3,
                    NalUnitType::Pps,
                    PictureParameterSet::default_for(0).to_rbsp(),
                ),
            ),
        ];
        let mut train = Vec::with_capacity(units.len());
        for (reserved, unit) in units {
            let annex_b = write_annex_b(std::slice::from_ref(&unit));
            let mut pkt = Vec::with_capacity(RTP_HEADER_LEN + FRAG_HEADER_LEN + annex_b.len());
            pkt.resize(RTP_HEADER_LEN, 0);
            pkt.extend_from_slice(&FragmentHeader::new(reserved, 0, 1).emit());
            pkt.extend_from_slice(&annex_b);
            let stamped = RtpHeader {
                marker: false,
                payload_type: 96,
                sequence: self.seq,
                timestamp: 0,
                ssrc: 0x7E57,
            }
            .write_into(&mut pkt); // lint:allow(plaintext-escape): SPS/PPS lead-in rides in the clear by design — decoders need parameter sets before any key material applies (paper Table 1)
            debug_assert!(stamped.is_ok(), "buffer reserves header room");
            train.push(pkt);
            self.packets_sent += 1;
            self.sent.inc();
            self.seq = self.seq.wrapping_add(1);
        }
        train
    }

    /// Take in one frame's packet train: the frame serialised as a real
    /// Annex-B stream, fragmented at the MTU and stamped with RTP headers
    /// (marked if the policy draw selects it), then held in the lane
    /// group, which encrypts a selected train's bodies across frames
    /// before the train is ready for the air. Each fragment is assembled
    /// once with its header room reserved; nothing below copies payload
    /// bytes again.
    fn encrypt_frame(&mut self, frame: &InputFrame) {
        let annex_b = write_annex_b(std::slice::from_ref(&frame.nal));
        let chunks: Vec<&[u8]> = annex_b.chunks(self.mtu_payload).collect();
        let total = chunks.len() as u16;
        let unit: f64 = self.policy_rng.gen_range(0.0..1.0);
        let encrypt = self.policy.mode.should_encrypt(frame.ftype, unit);
        let seq0 = self.seq;
        let mut train: Vec<Vec<u8>> = Vec::with_capacity(chunks.len());
        for (i, chunk) in chunks.iter().enumerate() {
            let mut pkt = Vec::with_capacity(RTP_HEADER_LEN + FRAG_HEADER_LEN + chunk.len());
            pkt.resize(RTP_HEADER_LEN, 0);
            pkt.extend_from_slice(&FragmentHeader::new(frame.index as u32, i as u16, total).emit());
            pkt.extend_from_slice(chunk);
            train.push(pkt);
        }
        for (i, pkt) in train.iter_mut().enumerate() {
            let stamped = RtpHeader {
                marker: encrypt,
                payload_type: 96,
                sequence: seq0.wrapping_add(i as u16),
                timestamp: frame.index as u32 * 3000,
                ssrc: 0x7E57,
            }
            .write_into(pkt); // lint:allow(plaintext-escape): selective encryption — policy-cleared P/B-frames ride plaintext by design; the trains the policy draw selected are encrypted via encrypt_train in the lane group below before any train reaches the air (paper Table 1)
            debug_assert!(stamped.is_ok(), "buffer reserves header room");
            self.packets_sent += 1;
            self.sent.inc();
        }
        self.seq = seq0.wrapping_add(total);
        // OFB per segment, keyed by the global sequence number — the
        // receiver recovers the IV from the RTP header.
        let work: Vec<(usize, u64)> = if encrypt {
            (0..total)
                .map(|i| (usize::from(i), u64::from(seq0.wrapping_add(i))))
                .collect()
        } else {
            Vec::new()
        };
        self.packets_encrypted += work.len();
        self.encrypted.add(work.len() as u64);
        self.group.push(train, work, ());
        self.encrypt_held(false);
    }

    /// Encrypt the held bodies that fill whole lane groups; with `flush`,
    /// at the end of the stream, all of them.
    fn encrypt_held(&mut self, flush: bool) {
        let cipher = &self.cipher;
        self.group.cipher(flush, |seqs, bodies| {
            cipher.encrypt_train(seqs, bodies);
        });
    }
}

/// Cipher work held back across trains until it fills the cipher's lanes
/// ([`SegmentCipher::train_lanes`]): 64 segments on AES and 3DES, so the
/// 5–6 I-frame trains of an I-frame-only stream, or about 47 frames of a
/// fully encrypted one, go through the bitsliced core as one full train.
///
/// Each held train keeps its packets and the bodies it still owes the
/// cipher. [`cipher`](Self::cipher) ciphers the oldest held bodies in
/// whole multiples of the lane count as one keystream train — a train
/// whose bodies straddle the cut waits for the next call — and
/// [`pop_ready`](Self::pop_ready) hands back, in the order they were
/// pushed, the trains whose bodies are all done. A train with no bodies
/// waits behind the trains pushed before it, so trains leave with their
/// original order and boundaries. Per-segment OFB depends only on the
/// key, the segment number and the bytes, so the grouping changes no
/// output byte.
struct LaneGroup<T> {
    lanes: usize,
    held: VecDeque<Held<T>>,
    /// Bodies held and not yet ciphered.
    queued: usize,
}

/// One train in a [`LaneGroup`].
struct Held<T> {
    packets: Vec<Vec<u8>>,
    /// The packet index and segment number of each body to cipher, in
    /// packet order.
    work: Vec<(usize, u64)>,
    /// How many of `work`'s bodies are ciphered.
    done: usize,
    /// What the caller keeps with the train.
    tag: T,
}

impl<T> LaneGroup<T> {
    fn new(lanes: usize) -> Self {
        LaneGroup {
            lanes: lanes.max(1),
            held: VecDeque::new(),
            queued: 0,
        }
    }

    /// Hold `packets`, whose bodies (behind the RTP and fragment headers)
    /// listed in `work` still need the cipher.
    fn push(&mut self, packets: Vec<Vec<u8>>, work: Vec<(usize, u64)>, tag: T) {
        self.queued += work.len();
        self.held.push_back(Held {
            packets,
            work,
            done: 0,
            tag,
        });
    }

    /// Cipher whole lane groups of the held bodies — all of them if
    /// `flush` — through `cipher(seqs, bodies)`.
    fn cipher(&mut self, flush: bool, cipher: impl FnOnce(&[u64], &mut [&mut [u8]])) {
        let n = if flush {
            self.queued
        } else {
            self.queued - self.queued % self.lanes
        };
        if n > 0 {
            let mut seqs = Vec::with_capacity(n);
            let mut bodies = Vec::with_capacity(n);
            let mut left = n;
            for held in self.held.iter_mut() {
                let take = (held.work.len() - held.done).min(left);
                let work = &held.work[held.done..held.done + take];
                held.done += take;
                left -= take;
                let mut packets = held.packets.iter_mut().enumerate();
                for &(index, seq) in work {
                    let body = packets
                        .find(|(i, _)| *i == index)
                        .and_then(|(_, pkt)| pkt.get_mut(RTP_HEADER_LEN + FRAG_HEADER_LEN..));
                    if let Some(body) = body {
                        seqs.push(seq);
                        bodies.push(body);
                    }
                }
                if left == 0 {
                    break;
                }
            }
            cipher(&seqs, &mut bodies);
            self.queued -= n;
        }
    }

    /// The oldest held train and its tag, once all its bodies are done.
    fn pop_ready(&mut self) -> Option<(Vec<Vec<u8>>, T)> {
        let front = self.held.front()?;
        if front.done < front.work.len() {
            return None;
        }
        let held = self.held.pop_front()?;
        Some((held.packets, held.tag))
    }
}

/// Figure 3's air: one loss draw per packet, then the plan's in-flight
/// faults (corruption, truncation, duplication, reordering bursts,
/// burst-loss episodes).
struct Air {
    loss: LossModel,
    loss_prob: f64,
    rng: StdRng,
    injector: PacketInjector,
    delivered: Counter,
    lost: Counter,
}

impl Air {
    /// Put a train on the air; its survivors, in arrival order, are the
    /// batch the observers hear.
    fn carry(&mut self, train: Vec<Vec<u8>>) -> Vec<Vec<u8>> {
        let mut survivors = Vec::with_capacity(train.len());
        for pkt in train {
            let lost = match &mut self.loss {
                // The historical i.i.d. draw — no draw at all on a
                // loss-free channel, and a *loss* draw otherwise — which
                // `BernoulliChannel::transmit` does not reproduce.
                LossModel::Iid(_) => self.loss_prob > 0.0 && self.rng.gen_bool(self.loss_prob),
                LossModel::Burst(ch) => !ch.transmit(&mut self.rng),
            };
            if lost {
                self.lost.inc();
                continue;
            }
            for survivor in self.injector.on_packet(pkt) {
                self.delivered.inc();
                survivors.push(survivor);
            }
        }
        survivors
    }

    /// Flush the reordering buffer at the end of the stream.
    fn drain(&mut self) -> Vec<Vec<u8>> {
        let drained = self.injector.drain();
        self.delivered.add(drained.len() as u64);
        drained
    }
}

/// Live resync bookkeeping: the protocol plus the receive-packet clock
/// driving it (ticks are received packets, a deterministic unit).
struct ResyncState {
    protocol: ResyncProtocol,
    gop_hint: usize,
    tick: u64,
}

/// The receiver's decryption context: the session cipher, the plan's
/// stale-key site and the out-of-date cipher it swaps in on a hit.
struct Decryptor {
    cipher: MeteredSegmentCipher,
    /// Batches held, with their arrivals, until their fresh bodies fill
    /// the cipher's lanes.
    group: LaneGroup<Vec<Arrival>>,
    stale_cipher: SegmentCipher,
    faults: ReceiverFaults,
    resync: Option<ResyncState>,
}

impl Decryptor {
    /// Advance the resync clock on a received packet. The fragment header
    /// is deliberately cleartext (the cipher applies past
    /// `FRAG_HEADER_LEN`), so I-frame anchors are spotted here, before any
    /// decryption outcome.
    fn tick(&mut self, payload: &[u8]) {
        let Some(rs) = &mut self.resync else {
            return;
        };
        rs.tick += 1;
        rs.protocol.on_tick(rs.tick);
        if let Ok((fh, _)) = FragmentHeader::parse(payload) {
            let reserved = fh.frame == SPS_FRAME || fh.frame == PPS_FRAME;
            if !reserved && rs.gop_hint > 0 && (fh.frame as usize).is_multiple_of(rs.gop_hint) {
                rs.protocol.on_i_frame(rs.tick);
            }
        }
    }

    /// Whether the next marked packet decrypts under the out-of-date key:
    /// the plan's stale-key draw, then the resync protocol's verdict.
    fn stale_key(&mut self) -> bool {
        // Always drawn, so arming recovery never shifts the site's seeded
        // stream.
        let hit = self.faults.stale_hit();
        match &mut self.resync {
            None => hit,
            Some(rs) => {
                if hit {
                    rs.protocol.on_desync(DesyncKind::StaleKey, rs.tick);
                }
                // While resyncing the receiver's key material is stale for
                // *every* marked packet until the handshake completes.
                rs.protocol.is_resyncing() && !rs.protocol.key_is_fresh(rs.tick)
            }
        }
    }

    /// Decrypt the held fresh bodies that fill whole lane groups; with
    /// `flush`, at the end of the stream, all of them.
    fn decrypt_held(&mut self, flush: bool) {
        let cipher = &self.cipher;
        self.group.cipher(flush, |seqs, bodies| {
            cipher.decrypt_train(seqs, bodies);
        });
    }
}

/// What the receiver makes of one delivered packet before decrypting.
#[derive(Clone, Copy)]
enum Arrival {
    /// An erasure: nothing of it is stored.
    Erased,
    /// A clear packet, stored as heard.
    Clear,
    /// A marked packet under the session key, with its RTP sequence number.
    Fresh(u16),
    /// A marked packet under the out-of-date key (garbage once decrypted).
    Stale(u16),
}

/// One observer of the air: the receiver or the eavesdropper. Everything a
/// hostile channel can hand it — garbage RTP, mangled fragmentation
/// headers, undecryptable payloads — is absorbed as a counted erasure.
struct Observer {
    store: Reassembler,
    erasures: ErasureStats,
    erasure_counter: Counter,
}

impl Observer {
    fn new(erasure_counter: Counter) -> Self {
        Observer {
            store: Reassembler::default(),
            erasures: ErasureStats::default(),
            erasure_counter,
        }
    }

    /// The eavesdropper's ear: store a copy of each clear packet in `batch`
    /// as heard, then settle the frames it touched. Without the session
    /// key every marked packet is an erasure.
    fn hear(&mut self, batch: &[Vec<u8>], originals: &Originals<'_>) {
        for wire in batch {
            let Ok(pkt) = RtpPacket::parse(wire.as_slice()) else {
                self.erasures.rtp_malformed += 1;
                self.erasure_counter.inc();
                continue;
            };
            if pkt.header().marker {
                // Every marked packet is an erasure by construction of the
                // threat model.
                self.erasures.marked_undecryptable += 1;
                continue;
            }
            self.store_fragment(pkt.payload().to_vec(), 0);
        }
        self.store.settle(originals);
    }

    /// The receiver's ear: take in one delivered batch with the session's
    /// `decryptor`. Packets are first read in arrival order — parse, tick
    /// the resync clock, draw the stale-key site — exactly as one by one;
    /// every stale marked body is decrypted under the out-of-date key, and
    /// the batch waits in the decryptor's lane group until its fresh
    /// marked bodies have been decrypted in place, as part of one
    /// keystream train that may span batches. Each batch the group
    /// releases is then moved into the store in arrival order, and the
    /// frames it touched are settled.
    fn receive(
        &mut self,
        mut batch: Vec<Vec<u8>>,
        decryptor: &mut Decryptor,
        originals: &Originals<'_>,
    ) {
        let arrivals: Vec<Arrival> = batch
            .iter()
            .map(|wire| {
                let Ok(pkt) = RtpPacket::parse(wire.as_slice()) else {
                    self.erasures.rtp_malformed += 1;
                    self.erasure_counter.inc();
                    return Arrival::Erased;
                };
                let header = pkt.header();
                decryptor.tick(pkt.payload());
                if !header.marker {
                    Arrival::Clear
                } else if pkt.payload().len() < FRAG_HEADER_LEN {
                    // Too short to carry a fragment at all.
                    self.erasures.frag_malformed += 1;
                    self.erasure_counter.inc();
                    Arrival::Erased
                } else if decryptor.stale_key() {
                    Arrival::Stale(header.sequence)
                } else {
                    Arrival::Fresh(header.sequence)
                }
            })
            .collect();
        let mut work = Vec::new();
        for (index, (wire, &arrival)) in batch.iter_mut().zip(&arrivals).enumerate() {
            let body = wire.get_mut(RTP_HEADER_LEN + FRAG_HEADER_LEN..);
            match (arrival, body) {
                (Arrival::Fresh(sequence), Some(_)) => work.push((index, u64::from(sequence))),
                // Out-of-date key: decryption "succeeds" but produces
                // garbage, which the Annex-B reassembly rejects downstream.
                (Arrival::Stale(sequence), Some(body)) => {
                    decryptor
                        .stale_cipher
                        .decrypt_segment(u64::from(sequence), body);
                }
                _ => {}
            }
        }
        decryptor.group.push(batch, work, arrivals);
        decryptor.decrypt_held(false);
        self.store_ready(decryptor, originals);
    }

    /// Store, batch by batch, the batches the decryptor's lane group has
    /// decrypted, settling each.
    fn store_ready(&mut self, decryptor: &mut Decryptor, originals: &Originals<'_>) {
        while let Some((batch, arrivals)) = decryptor.group.pop_ready() {
            for (wire, arrival) in batch.into_iter().zip(arrivals) {
                if !matches!(arrival, Arrival::Erased) {
                    self.store_fragment(wire, RTP_HEADER_LEN);
                }
            }
            self.store.settle(originals);
        }
    }

    /// Store one packet whose fragment starts at `body_at`; a malformed
    /// one is an erasure.
    fn store_fragment(&mut self, packet: Vec<u8>, body_at: usize) {
        if self.store.insert(packet, body_at).is_err() {
            self.erasures.frag_malformed += 1;
            self.erasure_counter.inc();
        }
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use thrifty_analytic::policy::EncryptionMode;
    use thrifty_crypto::Algorithm;
    use thrifty_faults::Region;

    fn frames(n: usize, gop: usize) -> Vec<InputFrame> {
        (0..n)
            .map(|i| {
                let ftype = if i % gop == 0 {
                    FrameType::I
                } else {
                    FrameType::P
                };
                let bytes = if ftype == FrameType::I { 15000 } else { 900 };
                InputFrame::synthetic(i, ftype, bytes)
            })
            .collect()
    }

    fn config(mode: EncryptionMode, loss: f64) -> PipelineConfig {
        PipelineConfig {
            policy: Policy::new(Algorithm::Aes256, mode),
            loss_prob: loss,
            ..PipelineConfig::default()
        }
    }

    #[test]
    fn lossless_receiver_recovers_everything() {
        for mode in [
            EncryptionMode::None,
            EncryptionMode::IFrames,
            EncryptionMode::All,
        ] {
            let out = run_pipeline(frames(30, 10), config(mode, 0.0));
            assert_eq!(out.receiver.frames_ok.len(), 30, "{mode}");
            assert!(out.receiver.frames_damaged.is_empty(), "{mode}");
            assert_eq!(out.faults, thrifty_faults::FaultStats::default());
            assert_eq!(out.receiver_erasures.total(), 0);
        }
    }

    #[test]
    fn eavesdropper_loses_exactly_the_encrypted_frames() {
        let out = run_pipeline(frames(30, 10), config(EncryptionMode::IFrames, 0.0));
        // I frames at 0, 10, 20 are dark; everything else readable.
        assert_eq!(out.eavesdropper.frames_damaged, vec![0, 10, 20]);
        assert_eq!(out.eavesdropper.frames_ok.len(), 27);
        // Each encrypted packet is an eavesdropper erasure by design.
        assert_eq!(
            out.eavesdropper_erasures.marked_undecryptable,
            out.packets_encrypted as u64
        );
    }

    #[test]
    fn all_encrypted_means_eavesdropper_gets_nothing() {
        let out = run_pipeline(frames(12, 6), config(EncryptionMode::All, 0.0));
        assert!(out.eavesdropper.frames_ok.is_empty());
        assert_eq!(out.receiver.frames_ok.len(), 12);
        // Everything but the two clear parameter-set packets is encrypted.
        assert_eq!(out.packets_encrypted, out.packets_sent - 2);
    }

    #[test]
    fn receiver_parses_parameter_sets() {
        let out = run_pipeline(frames(6, 3), config(EncryptionMode::All, 0.0));
        let sps = out
            .receiver_sps
            .expect("SPS lead-in must arrive losslessly");
        assert_eq!(sps.width(), 352);
        assert_eq!(sps.height(), 288);
        let pps = out
            .receiver_pps
            .expect("PPS lead-in must arrive losslessly");
        assert_eq!(pps.sps_id, sps.sps_id);
    }

    #[test]
    fn marker_bit_counts_match_policy() {
        let out = run_pipeline(frames(30, 10), config(EncryptionMode::PFrames, 0.0));
        // P frames are 900 B → single fragment each; 27 of them.
        assert_eq!(out.packets_encrypted, 27);
        assert_eq!(out.eavesdropper.frames_damaged.len(), 27);
    }

    #[test]
    fn channel_loss_hurts_both_observers() {
        let out = run_pipeline(frames(60, 10), config(EncryptionMode::None, 0.3));
        assert!(out.receiver.frames_ok.len() < 60);
        // With no encryption both observers see the identical packet set.
        assert_eq!(out.receiver.frames_ok, out.eavesdropper.frames_ok);
    }

    #[test]
    #[should_panic(expected = "loss_prob: 1.5")]
    fn run_pipeline_panics_on_an_invalid_loss_probability() {
        run_pipeline(frames(3, 3), config(EncryptionMode::None, 1.5));
    }

    #[test]
    fn reordered_air_does_not_break_reassembly() {
        // The fragmentation header, not arrival order, drives reassembly —
        // a shuffled channel must still reconstruct everything.
        let out = run_pipeline_faulty(
            frames(30, 10),
            config(EncryptionMode::IFrames, 0.0),
            &FaultPlan::none(3).with_reordering(16),
            &metrics_off(),
        )
        .expect("reordering must be handled");
        assert!(out.faults.reordered > 0);
        assert_eq!(out.receiver.frames_ok.len(), 30);
        assert_eq!(out.eavesdropper.frames_damaged, vec![0, 10, 20]);
        assert!(out.receiver_sps.is_some());
    }

    #[test]
    fn reorder_window_larger_than_stream_drains_fully() {
        // Regression: with a reordering window at least as large as the
        // whole packet stream, every packet sits in the shuffle buffer
        // until the air's final drain — reassembly must still complete and
        // nothing may be lost or deadlock.
        let input = frames(10, 5);
        let total_payload: usize = 2 /* SPS/PPS */
            + input
                .iter()
                .map(|f| {
                    let annex_b = write_annex_b(std::slice::from_ref(&f.nal));
                    annex_b.len().div_ceil(1452)
                })
                .sum::<usize>();
        let out = run_pipeline_faulty(
            input,
            config(EncryptionMode::IFrames, 0.0),
            &FaultPlan::none(4).with_reordering(10 * total_payload), // ≫ stream length
            &metrics_off(),
        )
        .expect("reordering must be handled");
        assert_eq!(out.packets_sent, total_payload);
        assert!(out.faults.reordered > 0, "the drain must shuffle");
        assert_eq!(
            out.receiver.frames_ok.len(),
            10,
            "shuffle buffer must drain fully"
        );
        assert!(out.receiver.frames_damaged.is_empty());
        assert!(
            out.receiver_sps.is_some(),
            "lead-ins must survive the drain"
        );
    }

    #[test]
    fn metered_pipeline_counts_real_traffic() {
        use thrifty_telemetry::MetricsRegistry;
        let metrics = MetricsRegistry::enabled();
        let out = run_pipeline_metered(
            frames(30, 10),
            config(EncryptionMode::IFrames, 0.2),
            &metrics,
        );
        let snap = metrics.snapshot();
        assert_eq!(
            snap.counter("pipeline.packets_sent"),
            out.packets_sent as u64
        );
        assert_eq!(
            snap.counter("pipeline.packets_encrypted"),
            out.packets_encrypted as u64
        );
        assert_eq!(
            snap.counter("net.channel.delivered") + snap.counter("net.channel.lost"),
            out.packets_sent as u64
        );
        assert!(snap.counter("net.channel.lost") > 0, "20% loss must bite");
        // The encryptor counted real cipher work; the receiver decrypted
        // only what survived the channel.
        assert_eq!(
            snap.counter("crypto.segments_encrypted.AES256"),
            out.packets_encrypted as u64
        );
        assert!(
            snap.counter("crypto.segments_decrypted.AES256")
                <= snap.counter("crypto.segments_encrypted.AES256")
        );
        assert!(snap.counter("crypto.bytes_encrypted.AES256") > 0);
    }

    #[test]
    fn tdes_pipeline_roundtrips_too() {
        let out = run_pipeline(
            frames(10, 5),
            PipelineConfig {
                policy: Policy::new(Algorithm::TripleDes, EncryptionMode::All),
                ..PipelineConfig::default()
            },
        );
        assert_eq!(out.receiver.frames_ok.len(), 10);
        assert!(out.eavesdropper.frames_ok.is_empty());
    }

    // ---- the reassembler's verdict cache -------------------------------

    /// `frame`'s `stream` cut into `mtu`-byte fragment payloads, each behind
    /// `prefix` junk bytes and a fragment header announcing `total`.
    fn fragment_packets(frame: u32, stream: &[u8], mtu: usize, prefix: usize) -> Vec<Vec<u8>> {
        let chunks: Vec<&[u8]> = stream.chunks(mtu).collect();
        let total = chunks.len() as u16;
        chunks
            .iter()
            .enumerate()
            .map(|(i, chunk)| {
                let mut pkt = vec![0xEE; prefix];
                pkt.extend_from_slice(&FragmentHeader::new(frame, i as u16, total).emit());
                pkt.extend_from_slice(chunk);
                pkt
            })
            .collect()
    }

    fn settled_verdict(store: &Reassembler, frame: usize) -> Option<bool> {
        store.frames.get(&frame).and_then(|entry| entry.verdict)
    }

    /// One frame stored whole and settled: intact, verdict cached.
    fn settled_store(input: &[InputFrame]) -> (Reassembler, Vec<Vec<u8>>) {
        let originals = originals(input);
        let stream = write_annex_b(std::slice::from_ref(&input[0].nal));
        let packets = fragment_packets(0, &stream, 64, 0);
        let mut store = Reassembler::default();
        for pkt in &packets {
            store.insert(pkt.clone(), 0).expect("well-formed fragment");
        }
        store.settle(&originals);
        assert_eq!(settled_verdict(&store, 0), Some(true));
        (store, packets)
    }

    #[test]
    fn late_duplicate_reopens_a_settled_verdict() {
        let input = frames(1, 1);
        let originals = originals(&input);
        let (mut store, packets) = settled_store(&input);
        // A late copy of fragment 1 with one body byte flipped.
        let mut late = packets[1].clone();
        late[FRAG_HEADER_LEN] ^= 0x40;
        store.insert(late, 0).expect("well-formed fragment");
        assert_eq!(
            settled_verdict(&store, 0),
            None,
            "the insert must clear the verdict"
        );
        assert_eq!(store.reconstruct(&originals).frames_damaged, vec![0]);
        store.settle(&originals);
        assert_eq!(settled_verdict(&store, 0), Some(false));
        // The original bytes again: intact once more.
        store
            .insert(packets[1].clone(), 0)
            .expect("well-formed fragment");
        store.settle(&originals);
        assert_eq!(store.reconstruct(&originals).frames_ok, vec![0]);
    }

    #[test]
    fn changed_total_reopens_a_settled_verdict() {
        let input = frames(1, 1);
        let originals = originals(&input);
        let (mut store, packets) = settled_store(&input);
        let total = packets.len() as u16;
        let mut late = packets[0].clone();
        late[..FRAG_HEADER_LEN].copy_from_slice(&FragmentHeader::new(0, 0, total + 1).emit());
        store.insert(late, 0).expect("well-formed fragment");
        assert_eq!(
            settled_verdict(&store, 0),
            None,
            "the insert must clear the verdict"
        );
        // One fragment short of the newly announced total.
        assert_eq!(store.reconstruct(&originals).frames_damaged, vec![0]);
        store.settle(&originals);
        assert_eq!(settled_verdict(&store, 0), Some(false));
    }

    mod verdict_cache {
        use super::*;
        use proptest::prelude::*;

        /// Frame 9 has no original; frames 0–3 do.
        const STRAY_FRAME: u32 = 9;

        proptest! {
            /// Settling at any points never changes what `reconstruct`
            /// reports: a store settled along the way and one never settled
            /// agree after every settle and at the end, whatever arrives —
            /// duplicates, fragments out of order, conflicting totals, a
            /// 3-byte-start-code encoding of the frame, flipped body bytes,
            /// malformed headers, frames without an original.
            #[test]
            fn settling_never_changes_the_reconstruction(
                ops in proptest::collection::vec(
                    (0u8..12, 0usize..4, 0usize..16, any::<u8>(), 0usize..3),
                    0..160,
                ),
            ) {
                let input: Vec<InputFrame> = (0..4)
                    .map(|i| {
                        let (ftype, bytes) = if i == 0 { (FrameType::I, 300) } else { (FrameType::P, 40 + 30 * i) };
                        InputFrame::synthetic(i, ftype, bytes)
                    })
                    .collect();
                let originals = originals(&input);
                let genuine: Vec<Vec<u8>> = input
                    .iter()
                    .map(|f| write_annex_b(std::slice::from_ref(&f.nal)))
                    .collect();
                let mut settled = Reassembler::default();
                let mut fresh = Reassembler::default();
                for (kind, frame, frag, byte, prefix) in ops {
                    let stream = &genuine[frame];
                    let packets = fragment_packets(frame as u32, stream, 48, prefix);
                    let pick = |packets: &[Vec<u8>]| packets[frag % packets.len()].clone();
                    let packet = match kind {
                        0..=3 => pick(&packets),
                        // The same unit behind a 3-byte start code.
                        4 => pick(&fragment_packets(frame as u32, &stream[1..], 48, prefix)),
                        // A conflicting total (still a valid geometry).
                        5 => {
                            let mut pkt = pick(&packets);
                            let total = packets.len() as u16 + 1 + u16::from(byte % 2);
                            let frag = (frag % packets.len()) as u16;
                            pkt[prefix..prefix + FRAG_HEADER_LEN]
                                .copy_from_slice(&FragmentHeader::new(frame as u32, frag, total).emit());
                            pkt
                        }
                        // A flipped body byte.
                        6 => {
                            let mut pkt = pick(&packets);
                            let at = prefix + FRAG_HEADER_LEN
                                + usize::from(byte) % (pkt.len() - prefix - FRAG_HEADER_LEN);
                            pkt[at] ^= byte | 1;
                            pkt
                        }
                        // A malformed header: truncated, zero total, or a
                        // fragment number past the total.
                        7 => {
                            let mut pkt = pick(&packets);
                            match byte % 3 {
                                0 => pkt.truncate(prefix + usize::from(byte) % FRAG_HEADER_LEN),
                                1 => pkt[prefix + 6..prefix + 8].copy_from_slice(&[0, 0]),
                                _ => pkt[prefix + 4..prefix + 6].copy_from_slice(&[0xFF, 0xFF]),
                            }
                            pkt
                        }
                        8 => pick(&fragment_packets(STRAY_FRAME, stream, 48, prefix)),
                        _ => {
                            settled.settle(&originals);
                            let (a, b) = (settled.reconstruct(&originals), fresh.reconstruct(&originals));
                            prop_assert_eq!(&a.frames_ok, &b.frames_ok);
                            prop_assert_eq!(&a.frames_damaged, &b.frames_damaged);
                            continue;
                        }
                    };
                    let body_at = prefix;
                    prop_assert_eq!(
                        settled.insert(packet.clone(), body_at).is_ok(),
                        fresh.insert(packet, body_at).is_ok()
                    );
                }
                let (a, b) = (settled.reconstruct(&originals), fresh.reconstruct(&originals));
                prop_assert_eq!(a.frames_ok, b.frames_ok);
                prop_assert_eq!(a.frames_damaged, b.frames_damaged);
            }
        }
    }

    // ---- fault-injection behaviour -------------------------------------

    fn metrics_off() -> thrifty_telemetry::MetricsRegistry {
        thrifty_telemetry::MetricsRegistry::disabled()
    }

    #[test]
    fn empty_plan_is_byte_identical_to_plain_run() {
        let cfg = config(EncryptionMode::IFrames, 0.15);
        let plain = run_pipeline(frames(30, 10), cfg);
        let faulty = run_pipeline_faulty(frames(30, 10), cfg, &FaultPlan::none(99), &metrics_off())
            .expect("empty plan must run");
        assert_eq!(plain.receiver.frames_ok, faulty.receiver.frames_ok);
        assert_eq!(
            plain.receiver.frames_damaged,
            faulty.receiver.frames_damaged
        );
        assert_eq!(plain.eavesdropper.frames_ok, faulty.eavesdropper.frames_ok);
        assert_eq!(plain.packets_sent, faulty.packets_sent);
        assert_eq!(plain.packets_encrypted, faulty.packets_encrypted);
        assert_eq!(faulty.faults, FaultStats::default());
    }

    #[test]
    fn fault_runs_are_bit_reproducible() {
        let cfg = config(EncryptionMode::IFrames, 0.1);
        let plan = FaultPlan::none(1234)
            .with_corruption(0.2, Region::Anywhere, 8)
            .with_truncation(0.1, 4)
            .with_duplication(0.1)
            .with_reordering(8)
            .with_burst_loss(0.05, 0.25, 0.9)
            .with_stale_key(0.1)
            .with_queue_overflow(4, 0.5);
        let run = || {
            let out = run_pipeline_faulty(frames(40, 10), cfg, &plan, &metrics_off())
                .expect("fault run must complete");
            (
                out.receiver.frames_ok.clone(),
                out.receiver.frames_damaged.clone(),
                out.faults,
                out.receiver_erasures,
                out.frames_dropped_at_queue.clone(),
            )
        };
        assert_eq!(run(), run(), "same seed + plan ⇒ identical outcome");
    }

    #[test]
    fn corruption_degrades_but_never_panics() {
        let plan = FaultPlan::none(7).with_corruption(0.5, Region::Anywhere, 16);
        let out = run_pipeline_faulty(
            frames(30, 10),
            config(EncryptionMode::IFrames, 0.0),
            &plan,
            &metrics_off(),
        )
        .expect("corruption must degrade, not abort");
        assert!(out.faults.corrupted > 0);
        assert!(
            out.receiver.frames_ok.len() < 30,
            "heavy corruption must damage frames"
        );
        assert!(
            out.receiver_erasures.total() > 0 || !out.receiver.frames_damaged.is_empty(),
            "corruption surfaces as erasures or damage"
        );
    }

    #[test]
    fn truncation_becomes_erasures() {
        let plan = FaultPlan::none(8).with_truncation(0.6, 0);
        let out = run_pipeline_faulty(
            frames(20, 10),
            config(EncryptionMode::None, 0.0),
            &plan,
            &metrics_off(),
        )
        .expect("truncation must degrade, not abort");
        assert!(out.faults.truncated > 0);
        // Truncated below the RTP or fragment header ⇒ typed parse
        // failures, counted as erasures.
        assert!(out.receiver_erasures.total() > 0);
    }

    #[test]
    fn duplication_is_harmless_on_a_clean_channel() {
        let plan = FaultPlan::none(9).with_duplication(0.5);
        let out = run_pipeline_faulty(
            frames(20, 10),
            config(EncryptionMode::IFrames, 0.0),
            &plan,
            &metrics_off(),
        )
        .expect("duplication must be harmless");
        assert!(out.faults.duplicated > 0);
        assert_eq!(
            out.receiver.frames_ok.len(),
            20,
            "duplicates overwrite identical fragments — no damage"
        );
    }

    #[test]
    fn plan_reordering_bursts_do_not_break_reassembly() {
        let plan = FaultPlan::none(10).with_reordering(16);
        let out = run_pipeline_faulty(
            frames(30, 10),
            config(EncryptionMode::IFrames, 0.0),
            &plan,
            &metrics_off(),
        )
        .expect("reordering must be handled");
        assert!(out.faults.reordered > 0);
        assert_eq!(out.receiver.frames_ok.len(), 30);
    }

    #[test]
    fn stale_key_hits_surface_as_damage_not_panics() {
        let plan = FaultPlan::none(11).with_stale_key(0.5);
        let out = run_pipeline_faulty(
            frames(20, 5),
            config(EncryptionMode::All, 0.0),
            &plan,
            &metrics_off(),
        )
        .expect("stale keys must degrade, not abort");
        assert!(out.faults.stale_key_hits > 0);
        assert!(
            out.receiver.frames_ok.len() < 20,
            "garbage plaintext must damage frames"
        );
    }

    #[test]
    fn recovery_disabled_reports_nothing_and_changes_nothing() {
        let cfg = config(EncryptionMode::All, 0.1);
        let plan = FaultPlan::none(77).with_stale_key(0.2);
        let base =
            run_pipeline_faulty(frames(40, 10), cfg, &plan, &metrics_off()).expect("baseline run");
        assert!(
            base.recovery.is_none(),
            "no recovery configured, none reported"
        );
        // An empty plan with recovery armed sees no desyncs: the report is
        // present but empty, and the reconstruction matches the plain path.
        let armed = PipelineConfig {
            recovery: Some(RecoveryOptions::default()),
            ..cfg
        };
        let clean =
            run_pipeline_faulty(frames(40, 10), armed, &FaultPlan::none(77), &metrics_off())
                .expect("clean run with recovery armed");
        let plain = run_pipeline(frames(40, 10), cfg);
        let report = clean.recovery.expect("armed recovery always reports");
        assert!(report.episodes.is_empty());
        assert!(report.open.is_none());
        assert_eq!(clean.receiver.frames_ok, plain.receiver.frames_ok);
        assert_eq!(clean.receiver.frames_damaged, plain.receiver.frames_damaged);
    }

    #[test]
    fn stale_storm_with_recovery_yields_bounded_episodes() {
        let cfg = PipelineConfig {
            recovery: Some(RecoveryOptions {
                handshake_packets: 8,
                gop_hint: 10,
            }),
            ..config(EncryptionMode::All, 0.0)
        };
        let plan = FaultPlan::none(21).with_stale_key(0.05);
        let out = run_pipeline_faulty(frames(80, 10), cfg, &plan, &metrics_off())
            .expect("stale storm with recovery");
        assert!(out.faults.stale_key_hits > 0, "the storm must bite");
        let report = out.recovery.expect("recovery armed");
        assert!(
            !report.episodes.is_empty() || report.open.is_some(),
            "hits must open episodes"
        );
        // Each GOP here is one 15 kB I-frame (11 fragments) plus nine 900 B
        // P-frames: ~20 packets. A closed episode spans at most the
        // handshake plus the wait for the next anchor — bound it by two
        // full GOPs of packets plus the handshake, with margin.
        let bound = 8 + 3 * 20;
        for episode in &report.episodes {
            assert!(
                episode.duration() <= bound,
                "episode of {} packets exceeds bound {bound}",
                episode.duration()
            );
        }
        // Damage concentrates in episodes instead of isolated packets, but
        // the stream always recovers: later frames come through intact.
        assert!(!out.receiver.frames_ok.is_empty());
    }

    #[test]
    fn recovery_runs_are_bit_reproducible() {
        let cfg = PipelineConfig {
            recovery: Some(RecoveryOptions::default()),
            ..config(EncryptionMode::All, 0.05)
        };
        let plan =
            FaultPlan::none(5150)
                .with_stale_key(0.1)
                .with_corruption(0.05, Region::Anywhere, 4);
        let run = || {
            let out = run_pipeline_faulty(frames(50, 10), cfg, &plan, &metrics_off())
                .expect("recovery run");
            (
                out.receiver.frames_ok.clone(),
                out.receiver.frames_damaged.clone(),
                out.faults,
                out.recovery.clone(),
            )
        };
        assert_eq!(
            run(),
            run(),
            "same seed + plan + recovery ⇒ identical outcome"
        );
    }

    #[test]
    fn lane_groups_change_no_outcome_under_any_fault() {
        // Both sides hold trains until 64 bodies fill the cipher's lanes;
        // with one lane they cipher each train as it comes. The grouping
        // must change no outcome under any plan: trains must reach the
        // air, and batches the observers, in their original order and
        // boundaries. Ten-frame GOPs of an 11-segment I-frame and nine
        // one-segment P-frames fill a group every six GOPs under the
        // I-frame policy and every 3.2 GOPs under full encryption; both
        // clip lengths end the stream mid-group.
        let stale = FaultPlan::none(31).with_stale_key(0.05);
        let plans = [
            ("stale keys", stale, None),
            (
                "stale keys, recovery",
                stale,
                Some(RecoveryOptions::default()),
            ),
            (
                "duplication",
                FaultPlan::none(32).with_duplication(0.1),
                None,
            ),
            ("reordering", FaultPlan::none(33).with_reordering(6), None),
            (
                "corruption",
                FaultPlan::none(34).with_corruption(0.05, Region::Anywhere, 4),
                None,
            ),
            (
                "truncation",
                FaultPlan::none(35).with_truncation(0.05, 8),
                None,
            ),
            (
                "queue overflow",
                FaultPlan::none(36).with_queue_overflow(3, 0.8),
                None,
            ),
            (
                "everything",
                FaultPlan::none(37)
                    .with_stale_key(0.02)
                    .with_duplication(0.05)
                    .with_reordering(4)
                    .with_corruption(0.03, Region::Anywhere, 2)
                    .with_truncation(0.03, 8)
                    .with_burst_loss(0.02, 0.3, 0.8)
                    .with_queue_overflow(3, 0.7),
                Some(RecoveryOptions::default()),
            ),
        ];
        let policies = [
            Policy::new(Algorithm::TripleDes, EncryptionMode::IFrames),
            Policy::new(Algorithm::Aes256, EncryptionMode::IFrames),
            Policy::new(Algorithm::Aes256, EncryptionMode::All),
        ];
        for (site, plan, recovery) in plans {
            for policy in policies {
                for clip in [90, 143] {
                    let cfg = PipelineConfig {
                        policy,
                        recovery,
                        ..config(policy.mode, 0.05)
                    };
                    let run = |lanes| {
                        run_pipeline_grouped(frames(clip, 10), cfg, &plan, &metrics_off(), lanes)
                            .expect("faulty run")
                    };
                    let grouped = run(SegmentCipher::train_lanes);
                    assert!(
                        grouped.packets_encrypted > 64,
                        "{site}, {policy:?}: fill a lane group"
                    );
                    assert_eq!(
                        grouped,
                        run(|_| 1),
                        "{site}, {policy:?}, {clip} frames: lane groups changed the outcome"
                    );
                }
            }
        }
    }

    #[test]
    fn queue_overflow_drops_frames_deterministically() {
        let plan = FaultPlan::none(12).with_queue_overflow(2, 0.2);
        let out = run_pipeline_faulty(
            frames(50, 10),
            config(EncryptionMode::IFrames, 0.0),
            &plan,
            &metrics_off(),
        )
        .expect("queue overflow must degrade, not abort");
        assert!(!out.frames_dropped_at_queue.is_empty());
        assert_eq!(
            out.faults.queue_dropped as usize,
            out.frames_dropped_at_queue.len()
        );
        // Dropped frames are damaged (never transmitted); survivors are ok.
        for f in &out.frames_dropped_at_queue {
            assert!(out.receiver.frames_damaged.contains(f));
        }
    }

    #[test]
    fn burst_channel_loses_in_bursts_but_completes() {
        let out = run_pipeline_faulty(
            frames(60, 10),
            PipelineConfig {
                channel: AirChannel::Burst {
                    p_gb: 0.05,
                    p_bg: 0.2,
                    good_success: 0.99,
                    bad_success: 0.3,
                },
                ..config(EncryptionMode::IFrames, 0.0)
            },
            &FaultPlan::none(0),
            &metrics_off(),
        )
        .expect("burst channel must run");
        assert!(out.receiver.frames_ok.len() < 60, "bursty loss must bite");
        assert!(
            !out.receiver.frames_ok.is_empty(),
            "but not destroy everything"
        );
    }

    #[test]
    fn invalid_setup_is_reported_not_panicked() {
        let bad_plan = FaultPlan::none(0).with_corruption(f64::NAN, Region::Header, 1);
        let err = run_pipeline_faulty(
            frames(5, 5),
            PipelineConfig::default(),
            &bad_plan,
            &metrics_off(),
        )
        .expect_err("NaN probability must be rejected");
        assert!(matches!(err, PipelineError::InvalidPlan(_)), "{err}");

        let err = run_pipeline_faulty(
            frames(5, 5),
            PipelineConfig {
                channel: AirChannel::Burst {
                    p_gb: f64::NAN,
                    p_bg: 0.1,
                    good_success: 1.0,
                    bad_success: 0.0,
                },
                ..PipelineConfig::default()
            },
            &FaultPlan::none(0),
            &metrics_off(),
        )
        .expect_err("NaN burst parameter must be rejected");
        assert!(matches!(err, PipelineError::InvalidChannel(_)), "{err}");
        assert!(err.to_string().contains("p_gb"), "{err}");
    }

    #[test]
    fn everything_armed_at_once_still_degrades_gracefully() {
        // The full hostile-WLAN gauntlet: bursty channel plus every fault
        // site armed. The pipeline must complete without panicking or
        // deadlocking and report a consistent outcome.
        let plan = FaultPlan::none(4242)
            .with_corruption(0.3, Region::Anywhere, 32)
            .with_truncation(0.2, 0)
            .with_duplication(0.2)
            .with_reordering(12)
            .with_burst_loss(0.1, 0.2, 0.95)
            .with_stale_key(0.2)
            .with_queue_overflow(3, 0.4);
        let out = run_pipeline_faulty(
            frames(60, 10),
            PipelineConfig {
                channel: AirChannel::Burst {
                    p_gb: 0.05,
                    p_bg: 0.2,
                    good_success: 0.98,
                    bad_success: 0.4,
                },
                ..config(EncryptionMode::IFrames, 0.0)
            },
            &plan,
            &metrics_off(),
        )
        .expect("the full gauntlet must not panic");
        assert_eq!(
            out.receiver.frames_ok.len() + out.receiver.frames_damaged.len(),
            60,
            "every original frame is accounted for"
        );
        assert!(out.faults.total() > 0);
    }
}
