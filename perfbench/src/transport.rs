//! `secure_udp` and `thrifty_udp` — one synthetic clip through the
//! threaded RTP/UDP pipeline under two encryption policies — and the LT
//! fountain probe every traced run takes, the same clip through the
//! fountain transport on a deep-fade channel.

use std::collections::btree_map::Entry as MapEntry;
use std::collections::BTreeMap;
use std::marker::PhantomData;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use thrifty_analytic::fountain::{FountainChannel, FountainDelayModel, DEFAULT_PEELING_MARGIN};
use thrifty_analytic::policy::{EncryptionMode, Policy};
use thrifty_crypto::{Algorithm, SegmentCipher};
use thrifty_fec::{BlockEncoder, PeelingDecoder};
use thrifty_net::wire::{
    FountainHeader, FragmentHeader, RtpHeader, RtpPacket, FOUNTAIN_HEADER_LEN, FRAG_HEADER_LEN,
    RTP_HEADER_LEN,
};
use thrifty_net::{BernoulliChannel, GilbertElliottChannel, LossChannel, UDP_IP_OVERHEAD};
use thrifty_sim::fountain::{
    run_pipeline_fountain, run_pipeline_fountain_metered, FountainConfig, FountainOutcome,
};
use thrifty_sim::pipeline::{
    run_pipeline, run_pipeline_metered, AirChannel, ErasureStats, InputFrame, PipelineConfig,
    PipelineOutcome,
};
use thrifty_telemetry::{MetricsRegistry, Snapshot};
use thrifty_video::bitstream::{PictureParameterSet, SequenceParameterSet};
use thrifty_video::nal::{parse_annex_b, write_annex_b, NalUnit, NalUnitType};
use thrifty_video::{EncoderConfig, FrameType, MotionLevel, StatisticalEncoder};

use crate::probe::{self, Layer, Layers, Tracer};
use crate::Workload;

/// Frames in the clip: about 167 GOPs of 30, 167 s of video at 30 fps.
/// Long enough that either transport takes over 100 ms.
const CLIP_FRAMES: usize = 5000;
/// Frames per GOP.
const GOP: usize = 30;
/// The pre-shared session key `thrifty-sim` keys both transports with;
/// the replays need it to reproduce the ciphertext.
const SESSION_KEY: [u8; 32] = [0x42; 32];
/// Fragment-header frame indices of the pipeline's SPS and PPS lead-ins.
const SPS_FRAME: u32 = u32::MAX;
const PPS_FRAME: u32 = u32::MAX - 1;
/// Fountain symbol payload length: the protocol matrix's.
const SYMBOL_LEN: usize = 500;
/// The protocol matrix's deep-fade Gilbert–Elliott point (`p_gb`, `p_bg`,
/// good-state and bad-state delivery): long bad dwells that deliver almost
/// nothing.
const DEEP_FADE: (f64, f64, f64, f64) = (0.05, 0.08, 0.995, 0.05);
/// Decode-failure probability the protocol matrix sizes ε for.
const DECODE_FAILURE_TARGET: f64 = 0.02;

/// Motion level of the clip's frame-size model.
const MOTION: MotionLevel = MotionLevel::Medium;

/// The clip both transports send, its frame sizes drawn from the
/// repository's paper-calibrated `StatisticalEncoder`: at medium motion,
/// I-frames of about 15 kB span a dozen MTU fragments and P-frames of
/// about 700 B fit one, so per-packet and per-byte costs both show.
fn clip(seed: u64) -> Vec<InputFrame> {
    let mut rng = StdRng::seed_from_u64(seed);
    StatisticalEncoder::new(MOTION, GOP)
        .encode(CLIP_FRAMES, &mut rng)
        .frames
        .into_iter()
        .map(|f| InputFrame::synthetic(f.index, f.ftype, f.bytes))
        .collect()
}

/// Annex-B length of each frame: what a frame delivered intact counts as
/// work.
fn annex_b_lens(frames: &[InputFrame]) -> Vec<usize> {
    frames
        .iter()
        .map(|f| write_annex_b(std::slice::from_ref(&f.nal)).len())
        .collect()
}

fn delivered_bytes(annex_b: &[usize], frames: &[usize]) -> f64 {
    frames.iter().map(|&i| annex_b[i] as f64).sum()
}

/// Order-sensitive 64-bit digest of byte strings, to compare ciphertext
/// between replays without keeping it.
fn digest(mut h: u64, bytes: &[u8]) -> u64 {
    let mut words = bytes.chunks_exact(8);
    for word in &mut words {
        let mut w = [0u8; 8];
        w.copy_from_slice(word);
        h = (h ^ u64::from_le_bytes(w))
            .wrapping_mul(0x0100_0000_01B3)
            .rotate_left(29);
    }
    for &b in words.remainder() {
        h = (h ^ u64::from(b))
            .wrapping_mul(0x0100_0000_01B3)
            .rotate_left(29);
    }
    h
}

fn cipher(config_policy: &Policy) -> Result<SegmentCipher, String> {
    SegmentCipher::new(config_policy.algorithm, &SESSION_KEY).map_err(|e| e.to_string())
}

/// Frames reassembled intact by `ok` and damaged by `damaged` must together
/// be every frame exactly once.
fn accounts_for_all(ok: &[usize], damaged: &[usize], n: usize) -> Result<(), String> {
    let mut seen: Vec<usize> = ok.iter().chain(damaged).copied().collect();
    seen.sort_unstable();
    if seen.into_iter().eq(0..n) {
        Ok(())
    } else {
        Err("the receiver did not account for every frame exactly once".into())
    }
}

/// Counts the traced op reads from its metrics registry, which the replay
/// must reproduce: packets sent, delivered and lost, and bytes encrypted
/// and decrypted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct Counts {
    sent: u64,
    delivered: u64,
    lost: u64,
    bytes_encrypted: u64,
    bytes_decrypted: u64,
}

impl Counts {
    fn export_counts(&self, layers: &mut Layers) {
        layers.insert("net.packets_sent", self.sent as f64);
        layers.insert(
            "net.delivery_ratio",
            probe::ratio(self.delivered as f64, (self.delivered + self.lost) as f64),
        );
        layers.insert(
            "crypto.bytes",
            (self.bytes_encrypted + self.bytes_decrypted) as f64,
        );
    }
}

fn crypto_counts(snap: &Snapshot, policy: &Policy) -> (u64, u64) {
    let alg = policy.algorithm.name();
    (
        snap.counter(&format!("crypto.bytes_encrypted.{alg}")),
        snap.counter(&format!("crypto.bytes_decrypted.{alg}")),
    )
}

// ---- secure_udp and thrifty_udp ---------------------------------------

/// The comparable part of a [`PipelineOutcome`].
#[derive(Debug, Clone, PartialEq, Eq)]
struct UdpOut {
    packets_sent: usize,
    packets_encrypted: usize,
    rx_ok: Vec<usize>,
    rx_damaged: Vec<usize>,
    eve_ok: Vec<usize>,
    eve_damaged: Vec<usize>,
    rx_erasures: ErasureStats,
    eve_erasures: ErasureStats,
    parameter_sets: (bool, bool),
}

impl UdpOut {
    fn of(o: &PipelineOutcome) -> Self {
        UdpOut {
            packets_sent: o.packets_sent,
            packets_encrypted: o.packets_encrypted,
            rx_ok: o.receiver.frames_ok.clone(),
            rx_damaged: o.receiver.frames_damaged.clone(),
            eve_ok: o.eavesdropper.frames_ok.clone(),
            eve_damaged: o.eavesdropper.frames_damaged.clone(),
            rx_erasures: o.receiver_erasures,
            eve_erasures: o.eavesdropper_erasures,
            parameter_sets: (o.receiver_sps.is_some(), o.receiver_pps.is_some()),
        }
    }
}

/// The encryption policy of an RTP/UDP upload workload.
pub trait UdpPolicy {
    /// The cipher and the frames it encrypts.
    fn policy() -> Policy;
}

/// `secure_udp`'s policy: every frame under AES-256, the paper's
/// full-encryption baseline.
pub struct AllAes256;

impl UdpPolicy for AllAes256 {
    fn policy() -> Policy {
        Policy::new(Algorithm::Aes256, EncryptionMode::All)
    }
}

/// `thrifty_udp`'s policy: only the I-frames, under 3DES — the selective
/// policy the paper recommends for its most expensive cipher.
pub struct IFrames3Des;

impl UdpPolicy for IFrames3Des {
    fn policy() -> Policy {
        Policy::new(Algorithm::TripleDes, EncryptionMode::IFrames)
    }
}

/// The clip through `run_pipeline` under `P`'s policy over 2% i.i.d. loss.
pub struct UdpUpload<P> {
    frames: Vec<InputFrame>,
    annex_b: Vec<usize>,
    /// Whether the policy encrypts each frame.
    encrypted: Vec<bool>,
    config: PipelineConfig,
    policy: PhantomData<P>,
}

/// `secure_udp`: the clip with every frame AES-256 encrypted.
pub type SecureUdp = UdpUpload<AllAes256>;
/// `thrifty_udp`: the clip with its I-frames 3DES encrypted.
pub type ThriftyUdp = UdpUpload<IFrames3Des>;

/// Whether `config`'s policy encrypts each frame: one uniform draw per
/// frame from the policy stream the pipeline seeds with `config.seed`.
fn encrypted_frames(frames: &[InputFrame], config: &PipelineConfig) -> Vec<bool> {
    let mut policy_rng = StdRng::seed_from_u64(config.seed);
    frames
        .iter()
        .map(|f| {
            let unit: f64 = policy_rng.gen_range(0.0..1.0);
            config.policy.mode.should_encrypt(f.ftype, unit)
        })
        .collect()
}

impl<P: UdpPolicy> Workload for UdpUpload<P> {
    type Output = PipelineOutcome;

    fn prepare(seed: u64) -> Result<Self, String> {
        let frames = clip(seed);
        let config = PipelineConfig {
            policy: P::policy(),
            loss_prob: 0.02,
            seed,
            ..PipelineConfig::default()
        };
        Ok(UdpUpload {
            annex_b: annex_b_lens(&frames),
            encrypted: encrypted_frames(&frames, &config),
            frames,
            config,
            policy: PhantomData,
        })
    }

    /// The pipeline consumes its frames, so each op hands it a copy of the
    /// clip, as a caller that keeps its clip must.
    fn op(&self) -> PipelineOutcome {
        run_pipeline(self.frames.clone(), self.config)
    }

    fn check(&self, out: &PipelineOutcome, warm: &PipelineOutcome) -> Result<f64, String> {
        let o = UdpOut::of(out);
        accounts_for_all(&o.rx_ok, &o.rx_damaged, self.frames.len())?;
        if o.rx_ok.is_empty() {
            return Err("no frame reached the receiver".into());
        }
        // The paper's security boundary: the eavesdropper hears the same
        // packets as the receiver, so it must reconstruct exactly the
        // plain frames the receiver got intact and no encrypted one.
        let plain_ok: Vec<usize> = o
            .rx_ok
            .iter()
            .copied()
            .filter(|&i| !self.encrypted[i])
            .collect();
        if o.eve_ok != plain_ok {
            return Err(format!(
                "the eavesdropper reconstructed {} frames; the receiver got {} plain ones",
                o.eve_ok.len(),
                plain_ok.len()
            ));
        }
        // Every packet of an encrypted frame, and no other, is marked.
        let marked: usize = self
            .annex_b
            .iter()
            .zip(&self.encrypted)
            .filter(|&(_, &encrypted)| encrypted)
            .map(|(&len, _)| len.div_ceil(self.config.mtu_payload))
            .sum();
        if o.packets_encrypted != marked {
            return Err(format!(
                "{} packets marked encrypted; the policy's frames span {marked}",
                o.packets_encrypted
            ));
        }
        if o != UdpOut::of(warm) {
            return Err("outcome differs from the warm-up op's".into());
        }
        Ok(delivered_bytes(&self.annex_b, &o.rx_ok))
    }

    fn traced_iteration(&self, warm: &PipelineOutcome) -> Result<Layers, String> {
        let want = UdpOut::of(warm);
        let registry = MetricsRegistry::enabled();
        let frames = self.frames.clone();
        // The op runs on five stage threads whose work overlaps, so the
        // split closes against its CPU time over all of them, not its wall
        // time: what the replayed layers do not account for is then the
        // threads' handoffs, queue waits and copies, which overlap cannot
        // hide.
        let cpu_before = probe::process_cpu_ms()?;
        let metered = run_pipeline_metered(frames, self.config, &registry);
        let op_cpu_ms = probe::process_cpu_ms()? - cpu_before;
        if UdpOut::of(&metered) != want {
            return Err("the metered op differs from the untraced op".into());
        }
        let snap = registry.snapshot();
        let (bytes_encrypted, bytes_decrypted) = crypto_counts(&snap, &self.config.policy);
        let counts = Counts {
            sent: snap.counter("pipeline.packets_sent"),
            delivered: snap.counter("net.channel.delivered"),
            lost: snap.counter("net.channel.lost"),
            bytes_encrypted,
            bytes_decrypted,
        };
        let (off, off_ms) =
            probe::timed_ms(|| replay_udp(&self.frames, &self.config, &mut Tracer::new(false)));
        let mut tracer = Tracer::new(true);
        let (on, on_ms) = probe::timed_ms(|| replay_udp(&self.frames, &self.config, &mut tracer));
        let (off, on) = (off?, on?);
        if on.out != want || off.out != want {
            return Err("the replayed outcome differs from the op's".into());
        }
        if on.ciphertext != off.ciphertext {
            return Err("the ciphertext differs with tracing on".into());
        }
        if on.counts != counts {
            return Err(format!(
                "replay counts {:?} differ from the op's {counts:?}",
                on.counts
            ));
        }
        let mut layers = Layers::new();
        tracer.export_spans(&mut layers, &Layer::TRANSPORT);
        counts.export_counts(&mut layers);
        layers.insert("telemetry.traced_op_ms", op_cpu_ms);
        layers.insert("raw.replay_on_ms", on_ms);
        layers.insert("raw.replay_off_ms", off_ms);
        Ok(layers)
    }
}

/// What a single-threaded replay of the pipeline produced.
struct UdpReplay {
    out: UdpOut,
    ciphertext: u64,
    counts: Counts,
}

/// One observer's fragment stores and erasure counts.
struct Observer<'c> {
    /// The session cipher for the receiver; `None` for the eavesdropper.
    cipher: Option<&'c SegmentCipher>,
    fragments: BTreeMap<usize, BTreeMap<u16, Vec<u8>>>,
    totals: BTreeMap<usize, u16>,
    erasures: ErasureStats,
    bytes_decrypted: u64,
}

impl<'c> Observer<'c> {
    fn new(cipher: Option<&'c SegmentCipher>) -> Self {
        Observer {
            cipher,
            fragments: BTreeMap::new(),
            totals: BTreeMap::new(),
            erasures: ErasureStats::default(),
            bytes_decrypted: 0,
        }
    }

    /// The pipeline's observer stage over one frame's surviving packets:
    /// parse RTP, decrypt marked payloads (the eavesdropper erases them),
    /// parse the fragment header, store the body.
    fn hear(&mut self, t: &mut Tracer, packets: &[Vec<u8>]) {
        let headers: Vec<Option<RtpHeader>> = t.within(Layer::NetWire, || {
            packets
                .iter()
                .map(|p| RtpPacket::parse(p.as_slice()).ok().map(|pkt| pkt.header()))
                .collect()
        });
        let mut payloads = Vec::with_capacity(packets.len());
        for (packet, header) in packets.iter().zip(headers) {
            let Some(header) = header else {
                self.erasures.rtp_malformed += 1;
                continue;
            };
            if header.marker && self.cipher.is_none() {
                self.erasures.marked_undecryptable += 1;
                continue;
            }
            if header.marker && packet.len() < RTP_HEADER_LEN + FRAG_HEADER_LEN {
                self.erasures.frag_malformed += 1;
                continue;
            }
            payloads.push((header, packet[RTP_HEADER_LEN..].to_vec()));
        }
        if let Some(cipher) = self.cipher {
            t.within(Layer::CryptoDecrypt, || {
                for (header, payload) in payloads.iter_mut().filter(|(h, _)| h.marker) {
                    cipher.decrypt_segment(
                        u64::from(header.sequence),
                        &mut payload[FRAG_HEADER_LEN..],
                    );
                }
            });
            self.bytes_decrypted += payloads
                .iter()
                .filter(|(h, _)| h.marker)
                .map(|(_, p)| (p.len() - FRAG_HEADER_LEN) as u64)
                .sum::<u64>();
        }
        let parsed: Vec<Option<FragmentHeader>> = t.within(Layer::NetWire, || {
            payloads
                .iter()
                .map(|(_, p)| FragmentHeader::parse(p).ok().map(|(fh, _)| fh))
                .collect()
        });
        for ((_, payload), fh) in payloads.into_iter().zip(parsed) {
            let Some(fh) = fh else {
                self.erasures.frag_malformed += 1;
                continue;
            };
            self.totals.insert(fh.frame as usize, fh.total);
            self.fragments
                .entry(fh.frame as usize)
                .or_default()
                .insert(fh.frag, payload[FRAG_HEADER_LEN..].to_vec());
        }
    }

    fn annex_b(&self, frame: usize) -> Option<Vec<u8>> {
        let frags = self.fragments.get(&frame)?;
        Some(frags.values().flatten().copied().collect())
    }

    /// Frames reassembled byte-identical to the input, and the rest.
    fn reassemble(&self, t: &mut Tracer, frames: &[InputFrame]) -> (Vec<usize>, Vec<usize>) {
        let mut ok = Vec::new();
        let mut damaged = Vec::new();
        for f in frames {
            let complete = self.totals.get(&f.index).is_some_and(|&total| {
                self.fragments
                    .get(&f.index)
                    .is_some_and(|frags| frags.len() == usize::from(total))
            });
            let intact = complete
                && self.annex_b(f.index).is_some_and(|bytes| {
                    let units = t.within(Layer::VideoNal, || parse_annex_b(&bytes));
                    matches!(units.as_deref(), Ok([unit]) if unit.payload == f.nal.payload)
                });
            if intact {
                ok.push(f.index);
            } else {
                damaged.push(f.index);
            }
        }
        (ok, damaged)
    }

    /// Whether the lead-in at `reserved` arrived as a parameter set of
    /// `kind` that parses.
    fn heard_parameter_set(&self, t: &mut Tracer, reserved: u32, kind: NalUnitType) -> bool {
        let Some(bytes) = self.annex_b(reserved as usize) else {
            return false;
        };
        let unit = t
            .within(Layer::VideoNal, || parse_annex_b(&bytes))
            .ok()
            .and_then(|u| u.into_iter().next());
        match unit {
            Some(u) if u.unit_type == kind && kind == NalUnitType::Sps => {
                SequenceParameterSet::from_rbsp(&u.payload).is_ok()
            }
            Some(u) if u.unit_type == kind => PictureParameterSet::from_rbsp(&u.payload).is_ok(),
            _ => false,
        }
    }
}

/// The sender and the air of the replay.
struct UdpSender<'c> {
    cipher: &'c SegmentCipher,
    mtu: usize,
    /// The pipeline's air draws `gen_bool(loss_prob)` per packet for a
    /// *loss*; a Bernoulli channel whose success probability is the loss
    /// probability makes the identical draw, `true` meaning lost.
    loss: BernoulliChannel,
    air_rng: StdRng,
    seq: u16,
    encrypted: usize,
    ciphertext: u64,
    counts: Counts,
}

impl UdpSender<'_> {
    /// Fragment, encrypt and stamp one frame's train, put it on the air,
    /// and hand the survivors to both observers.
    fn send_frame(
        &mut self,
        t: &mut Tracer,
        frame: u32,
        annex_b: &[u8],
        encrypt: bool,
        timestamp: u32,
        observers: [&mut Observer<'_>; 2],
    ) -> Result<(), String> {
        let chunks: Vec<&[u8]> = annex_b.chunks(self.mtu).collect();
        let total = u16::try_from(chunks.len()).map_err(|_| "frame too large to fragment")?;
        let seq0 = self.seq;
        let frag_headers: Vec<[u8; FRAG_HEADER_LEN]> = t.within(Layer::NetWire, || {
            (0..total)
                .map(|i| FragmentHeader::new(frame, i, total).emit())
                .collect()
        });
        let mut train: Vec<Vec<u8>> = chunks
            .iter()
            .zip(&frag_headers)
            .map(|(chunk, fh)| {
                let mut packet = Vec::with_capacity(RTP_HEADER_LEN + FRAG_HEADER_LEN + chunk.len());
                packet.resize(RTP_HEADER_LEN, 0);
                packet.extend_from_slice(fh);
                packet.extend_from_slice(chunk);
                packet
            })
            .collect();
        if encrypt {
            let seqs: Vec<u64> = (0..total)
                .map(|i| u64::from(seq0.wrapping_add(i)))
                .collect();
            let mut bodies: Vec<&mut [u8]> = train
                .iter_mut()
                .map(|p| &mut p[RTP_HEADER_LEN + FRAG_HEADER_LEN..])
                .collect();
            let cipher = self.cipher;
            t.within(Layer::CryptoEncrypt, || {
                cipher.encrypt_train(&seqs, &mut bodies)
            });
            for body in &bodies {
                self.ciphertext = digest(self.ciphertext, body);
                self.counts.bytes_encrypted += body.len() as u64;
            }
            self.encrypted += bodies.len();
        }
        let stamped = t.within(Layer::NetWire, || {
            train.iter_mut().zip(0u16..).try_for_each(|(packet, i)| {
                RtpHeader {
                    marker: encrypt,
                    payload_type: 96,
                    sequence: seq0.wrapping_add(i),
                    timestamp,
                    ssrc: 0x7E57,
                }
                .write_into(packet)
            })
        });
        stamped.map_err(|e| e.to_string())?;
        self.seq = seq0.wrapping_add(total);
        self.counts.sent += train.len() as u64;
        let (loss, rng) = (&mut self.loss, &mut self.air_rng);
        let lost: Vec<bool> = t.within(Layer::NetChannel, || {
            train.iter().map(|_| loss.transmit(rng)).collect()
        });
        let survivors: Vec<Vec<u8>> = train
            .into_iter()
            .zip(lost)
            .filter_map(|(packet, lost)| (!lost).then_some(packet))
            .collect();
        self.counts.delivered += survivors.len() as u64;
        self.counts.lost += u64::from(total) - survivors.len() as u64;
        for observer in observers {
            observer.hear(t, &survivors);
        }
        Ok(())
    }
}

/// `run_pipeline`'s stages replayed in order on one thread — producer and
/// encryptor, air, receiver and eavesdropper, reassembly — with the same
/// calls and the same seeded draws, each layer's calls under its span.
/// The stages are batched per frame train rather than per packet; no
/// draw depends on the interleaving.
fn replay_udp(
    frames: &[InputFrame],
    config: &PipelineConfig,
    t: &mut Tracer,
) -> Result<UdpReplay, String> {
    t.open_every_layer();
    let cipher = cipher(&config.policy)?;
    let mut sender = UdpSender {
        cipher: &cipher,
        mtu: config.mtu_payload,
        loss: BernoulliChannel::try_new(config.loss_prob).map_err(|e| e.to_string())?,
        air_rng: StdRng::seed_from_u64(config.seed ^ 0xA1B2),
        seq: 0,
        encrypted: 0,
        ciphertext: 0,
        counts: Counts::default(),
    };
    let mut rx = Observer::new(Some(&cipher));
    let mut eve = Observer::new(None);
    let lead_in = [
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
    for (reserved, unit) in lead_in {
        let annex_b = t.within(Layer::VideoNal, || {
            write_annex_b(std::slice::from_ref(&unit))
        });
        sender.send_frame(t, reserved, &annex_b, false, 0, [&mut rx, &mut eve])?;
    }
    for (frame, encrypt) in frames.iter().zip(encrypted_frames(frames, config)) {
        let annex_b = t.within(Layer::VideoNal, || {
            write_annex_b(std::slice::from_ref(&frame.nal))
        });
        let index = u32::try_from(frame.index).map_err(|_| "frame index overflows u32")?;
        sender.send_frame(
            t,
            index,
            &annex_b,
            encrypt,
            index.wrapping_mul(3000),
            [&mut rx, &mut eve],
        )?;
    }
    let (rx_ok, rx_damaged) = rx.reassemble(t, frames);
    let (eve_ok, eve_damaged) = eve.reassemble(t, frames);
    let parameter_sets = (
        rx.heard_parameter_set(t, SPS_FRAME, NalUnitType::Sps),
        rx.heard_parameter_set(t, PPS_FRAME, NalUnitType::Pps),
    );
    let mut counts = sender.counts;
    counts.bytes_decrypted = rx.bytes_decrypted;
    Ok(UdpReplay {
        out: UdpOut {
            packets_sent: counts.sent as usize,
            packets_encrypted: sender.encrypted,
            rx_ok,
            rx_damaged,
            eve_ok,
            eve_damaged,
            rx_erasures: rx.erasures,
            eve_erasures: eve.erasures,
            parameter_sets,
        },
        ciphertext: sender.ciphertext,
        counts,
    })
}

// ---- the fountain probe -------------------------------------------------

/// The comparable part of a [`FountainOutcome`].
#[derive(Debug, Clone, PartialEq, Eq)]
struct FountainOut {
    symbols_sent: usize,
    symbols_lost: usize,
    blocks: usize,
    blocks_decoded: usize,
    frames_encrypted: usize,
    bytes_on_air: u64,
    rx_ok: Vec<usize>,
    rx_damaged: Vec<usize>,
    eve_ok: Vec<usize>,
    eve_damaged: Vec<usize>,
    source_unrecovered: u64,
    header_malformed: u64,
    eve_undecryptable: u64,
}

impl FountainOut {
    fn of(o: &FountainOutcome) -> Self {
        FountainOut {
            symbols_sent: o.symbols_sent,
            symbols_lost: o.symbols_lost,
            blocks: o.blocks,
            blocks_decoded: o.blocks_decoded,
            frames_encrypted: o.frames_encrypted,
            bytes_on_air: o.bytes_on_air,
            rx_ok: o.receiver.frames_ok.clone(),
            rx_damaged: o.receiver.frames_damaged.clone(),
            eve_ok: o.eavesdropper.frames_ok.clone(),
            eve_damaged: o.eavesdropper.frames_damaged.clone(),
            source_unrecovered: o.source_unrecovered,
            header_malformed: o.header_malformed,
            eve_undecryptable: o.eavesdropper_undecryptable,
        }
    }
}

/// The smallest ε on the protocol matrix's 0.05 grid whose analytic
/// decode-failure probability for a `k`-symbol block on the deep-fade
/// channel is at most [`DECODE_FAILURE_TARGET`] — the matrix's own rule.
fn deep_fade_overhead(k: usize) -> f64 {
    let (p_gb, p_bg, good_success, bad_success) = DEEP_FADE;
    let channel = FountainChannel::Burst {
        p_gb,
        p_bg,
        good_success,
        bad_success,
    };
    (1..=60)
        .map(|step| f64::from(step) * 0.05)
        .find(|&eps| {
            let n = FountainDelayModel::symbols_sent(k, eps);
            channel.decode_failure_prob(k, n, DEFAULT_PEELING_MARGIN) <= DECODE_FAILURE_TARGET
        })
        .unwrap_or(3.0)
}

/// Source symbols in a GOP block of frames of the clip model's mean
/// sizes. ε is sized for this seed-independent block, so every seed sends
/// the same share of repair symbols.
fn nominal_block_symbols() -> usize {
    let model = EncoderConfig::for_motion(MOTION, GOP);
    let len =
        |ftype, bytes: f64| annex_b_lens(&[InputFrame::synthetic(0, ftype, bytes as usize)])[0];
    (len(FrameType::I, model.i_mean) + (GOP - 1) * len(FrameType::P, model.p_mean))
        .div_ceil(SYMBOL_LEN)
}

/// The invariants of one fountain op on `frames` under the I-frames-only
/// policy: every delivered frame is byte-identical to its input payload
/// and every frame is accounted for once; as many frames are encrypted as
/// there are I-frames, and among the delivered frames the eavesdropper
/// misses exactly the I-frames — it reconstructs every delivered P-frame
/// and no I-frame.
fn check_fountain(frames: &[InputFrame], out: &FountainOutcome) -> Result<(), String> {
    for (&i, payload) in &out.delivered {
        if frames.get(i).map(|f| &f.nal.payload) != Some(payload) {
            return Err(format!(
                "delivered frame {i} differs from its input payload"
            ));
        }
    }
    let o = FountainOut::of(out);
    if !out.delivered.keys().copied().eq(o.rx_ok.iter().copied()) {
        return Err("delivered frames and receiver frames disagree".into());
    }
    accounts_for_all(&o.rx_ok, &o.rx_damaged, frames.len())?;
    let is_i = |i: usize| frames[i].ftype == FrameType::I;
    let i_frames = frames.iter().filter(|f| f.ftype == FrameType::I).count();
    if o.frames_encrypted != i_frames {
        return Err(format!(
            "{} frames encrypted, {i_frames} I-frames",
            o.frames_encrypted
        ));
    }
    if let Some(i) = o
        .rx_ok
        .iter()
        .find(|&&i| is_i(i) == o.eve_ok.binary_search(&i).is_ok())
    {
        let kind = if is_i(*i) {
            "encrypted I-frame"
        } else {
            "plain P-frame"
        };
        return Err(format!(
            "delivered {kind} {i}: the eavesdropper's view breaks the I-frames-only policy"
        ));
    }
    Ok(())
}

/// The fountain probe every traced run takes: the clip through
/// `run_pipeline_fountain`, I-frames encrypted, over the deep-fade
/// channel at the matrix's ε for the clip's GOP blocks. `fec` encoding
/// and peeling do most of its work on one thread. It reports only the
/// `fec` metrics, so the workload's own layer split is untouched.
pub struct FountainProbe {
    frames: Vec<InputFrame>,
    config: FountainConfig,
    /// The untraced op's outcome, which every traced op must equal.
    warm: FountainOut,
}

impl FountainProbe {
    /// Generate the clip from `seed`, run the untraced op once and check
    /// it.
    pub fn prepare(seed: u64) -> Result<Self, String> {
        let frames = clip(seed);
        let (p_gb, p_bg, good_success, bad_success) = DEEP_FADE;
        let config = FountainConfig {
            policy: Policy::new(Algorithm::Aes256, EncryptionMode::IFrames),
            symbol_len: SYMBOL_LEN,
            overhead: deep_fade_overhead(nominal_block_symbols()),
            loss_prob: 0.0,
            seed,
            channel: AirChannel::Burst {
                p_gb,
                p_bg,
                good_success,
                bad_success,
            },
        };
        let out = run_pipeline_fountain(&frames, &config).map_err(|e| e.to_string())?;
        check_fountain(&frames, &out).map_err(|e| format!("fountain probe: {e}"))?;
        Ok(FountainProbe {
            warm: FountainOut::of(&out),
            frames,
            config,
        })
    }

    /// One traced iteration: the op again with its counters on, and its
    /// layer calls replayed with spans off and on. Both replays must
    /// reproduce the op's outcome and counters, encrypt exactly the
    /// I-frames, and produce the same ciphertext.
    pub fn measure(&self, layers: &mut Layers) -> Result<(), String> {
        let registry = MetricsRegistry::enabled();
        let metered = run_pipeline_fountain_metered(&self.frames, &self.config, &registry)
            .map_err(|e| e.to_string())?;
        check_fountain(&self.frames, &metered)?;
        if FountainOut::of(&metered) != self.warm {
            return Err("the metered fountain op differs from the untraced op".into());
        }
        let snap = registry.snapshot();
        let (bytes_encrypted, bytes_decrypted) = crypto_counts(&snap, &self.config.policy);
        let sent = snap.counter("fountain.symbols_sent");
        let lost = snap.counter("fountain.symbols_lost");
        let counts = Counts {
            sent,
            delivered: sent - lost,
            lost,
            bytes_encrypted,
            bytes_decrypted,
        };
        let off = replay_fountain(&self.frames, &self.config, &mut Tracer::new(false))?;
        let mut tracer = Tracer::new(true);
        let on = replay_fountain(&self.frames, &self.config, &mut tracer)?;
        let i_frames: Vec<usize> = self
            .frames
            .iter()
            .filter(|f| f.ftype == FrameType::I)
            .map(|f| f.index)
            .collect();
        for replay in [&on, &off] {
            if replay.out != self.warm {
                return Err("the replayed fountain outcome differs from the op's".into());
            }
            if replay.counts != counts {
                return Err(format!(
                    "fountain replay counts {:?} differ from the op's {counts:?}",
                    replay.counts
                ));
            }
            if replay.encrypted != i_frames {
                return Err("the fountain replay encrypted other frames than the I-frames".into());
            }
        }
        if on.ciphertext != off.ciphertext {
            return Err("the fountain ciphertext differs with tracing on".into());
        }
        tracer.export_spans(layers, &Layer::FEC);
        layers.insert("fec.symbols_sent", sent as f64);
        layers.insert("fec.useful_ratio", on.useful_ratio);
        Ok(())
    }
}

/// Where one frame sits in its source block.
struct FrameSlot {
    index: usize,
    offset: usize,
    len: usize,
    encrypted: bool,
}

/// What a replay of the fountain transport produced.
struct FountainReplay {
    out: FountainOut,
    /// Indices of the frames the policy encrypted, in order.
    encrypted: Vec<usize>,
    ciphertext: u64,
    counts: Counts,
    /// Source symbols over symbols the decoders accepted.
    useful_ratio: f64,
}

/// The byte range of one frame in a decoded block, if every source
/// symbol covering it was recovered.
fn extract_range(dec: &PeelingDecoder, symbol_len: usize, slot: &FrameSlot) -> Option<Vec<u8>> {
    let first = slot.offset / symbol_len;
    let last = (slot.offset + slot.len - 1) / symbol_len;
    let mut bytes = Vec::with_capacity((last - first + 1) * symbol_len);
    for i in first..=last {
        bytes.extend_from_slice(dec.source_symbol(i)?);
    }
    let start = slot.offset - first * symbol_len;
    Some(bytes[start..start + slot.len].to_vec())
}

fn is_frame(t: &mut Tracer, annex_b: &[u8], original: &[u8]) -> bool {
    let units = t.within(Layer::VideoNal, || parse_annex_b(annex_b));
    matches!(units.as_deref(), Ok([unit]) if unit.payload == original)
}

/// `run_pipeline_fountain` replayed with its calls under spans: per GOP
/// block, encrypt and concatenate the frames, encode every symbol, emit
/// the headers, draw the channel, parse the survivors and peel; then
/// reassemble as both observers. Per block the calls are batched by
/// layer; each draw stream is consumed in the same order as the program's.
fn replay_fountain(
    frames: &[InputFrame],
    config: &FountainConfig,
    t: &mut Tracer,
) -> Result<FountainReplay, String> {
    t.open_every_layer();
    let cipher = cipher(&config.policy)?;
    let AirChannel::Burst {
        p_gb,
        p_bg,
        good_success,
        bad_success,
    } = config.channel
    else {
        return Err("the fountain replay models a burst channel".into());
    };
    let mut air = GilbertElliottChannel::try_new(p_gb, p_bg, good_success, bad_success)
        .map_err(|e| e.to_string())?;
    let mut counts = Counts::default();
    let mut ciphertext = 0u64;
    let mut frames_encrypted = 0usize;

    // One source block per GOP: a new block at every I-frame.
    let mut policy_rng = StdRng::seed_from_u64(config.seed);
    let mut blocks: Vec<(Vec<u8>, Vec<FrameSlot>)> = Vec::new();
    for frame in frames {
        if frame.ftype == FrameType::I || blocks.is_empty() {
            blocks.push((Vec::new(), Vec::new()));
        }
        let unit: f64 = policy_rng.gen_range(0.0..1.0);
        let encrypted = config.policy.mode.should_encrypt(frame.ftype, unit);
        let mut bytes = t.within(Layer::VideoNal, || {
            write_annex_b(std::slice::from_ref(&frame.nal))
        });
        if encrypted {
            t.within(Layer::CryptoEncrypt, || {
                cipher.encrypt_segment(frame.index as u64, &mut bytes)
            });
            ciphertext = digest(ciphertext, &bytes);
            counts.bytes_encrypted += bytes.len() as u64;
            frames_encrypted += 1;
        }
        let (data, slots) = blocks.last_mut().ok_or("no source block")?;
        slots.push(FrameSlot {
            index: frame.index,
            offset: data.len(),
            len: bytes.len(),
            encrypted,
        });
        data.extend_from_slice(&bytes);
    }

    let mut air_rng = StdRng::seed_from_u64(config.seed ^ 0xA1B2);
    let mut decoders: BTreeMap<u32, PeelingDecoder> = BTreeMap::new();
    let mut bytes_on_air = 0u64;
    let mut header_malformed = 0u64;
    for (block_id, (data, _)) in blocks.iter().enumerate() {
        let block_id = u32::try_from(block_id).map_err(|_| "too many blocks")?;
        let encoder = t
            .within(Layer::FecEncode, || {
                BlockEncoder::new(data, config.symbol_len, config.seed, block_id)
            })
            .map_err(|e| e.to_string())?;
        let k = encoder.k();
        let n = u32::try_from(k + (k as f64 * config.overhead).ceil() as usize)
            .map_err(|_| "too many symbols")?;
        let geometry = (
            u16::try_from(k).map_err(|_| "block too large")?,
            u16::try_from(config.symbol_len).map_err(|_| "symbol too large")?,
            u32::try_from(data.len()).map_err(|_| "block too large")?,
        );
        let symbols: Vec<Vec<u8>> = t.within(Layer::FecEncode, || {
            (0..n).map(|id| encoder.encode(id)).collect()
        });
        let headers: Vec<[u8; FOUNTAIN_HEADER_LEN]> = t.within(Layer::NetWire, || {
            (0..n)
                .map(|id| {
                    FountainHeader::new(block_id, id, geometry.0, geometry.1, geometry.2).emit()
                })
                .collect()
        });
        let wires: Vec<Vec<u8>> = headers
            .iter()
            .zip(&symbols)
            .map(|(header, symbol)| [header.as_slice(), symbol].concat())
            .collect();
        bytes_on_air += wires
            .iter()
            .map(|w| (w.len() + UDP_IP_OVERHEAD) as u64)
            .sum::<u64>();
        let delivered: Vec<bool> = t.within(Layer::NetChannel, || {
            wires.iter().map(|_| air.transmit(&mut air_rng)).collect()
        });
        counts.sent += u64::from(n);
        let survivors: Vec<&Vec<u8>> = wires
            .iter()
            .zip(&delivered)
            .filter_map(|(w, &ok)| ok.then_some(w))
            .collect();
        counts.delivered += survivors.len() as u64;
        counts.lost += u64::from(n) - survivors.len() as u64;
        let parsed: Vec<_> = t.within(Layer::NetWire, || {
            survivors
                .iter()
                .map(|w| FountainHeader::parse(w).ok())
                .collect()
        });
        let pushed: Result<(), String> = t.within(Layer::FecDecode, || {
            for symbol in &parsed {
                let Some((h, body)) = symbol else {
                    header_malformed += 1;
                    continue;
                };
                let dec = match decoders.entry(h.block) {
                    MapEntry::Occupied(e) => e.into_mut(),
                    MapEntry::Vacant(e) => e.insert(
                        PeelingDecoder::new(
                            usize::from(h.k),
                            usize::from(h.symbol_len),
                            h.block_len as usize,
                            config.seed,
                            h.block,
                        )
                        .map_err(|e| e.to_string())?,
                    ),
                };
                dec.push(h.symbol_id, body);
            }
            Ok(())
        });
        pushed?;
    }

    let mut out = FountainOut {
        symbols_sent: counts.sent as usize,
        symbols_lost: counts.lost as usize,
        blocks: blocks.len(),
        blocks_decoded: 0,
        frames_encrypted,
        bytes_on_air,
        rx_ok: Vec::new(),
        rx_damaged: Vec::new(),
        eve_ok: Vec::new(),
        eve_damaged: Vec::new(),
        source_unrecovered: 0,
        header_malformed,
        eve_undecryptable: 0,
    };
    let (mut k_total, mut accepted) = (0usize, 0u64);
    for (block_id, (data, slots)) in blocks.iter().enumerate() {
        let dec = decoders.get(&(block_id as u32));
        match dec {
            Some(d) => {
                let missing = d.missing().len();
                out.source_unrecovered += missing as u64;
                out.blocks_decoded += usize::from(d.is_complete());
                k_total += d.recovered_count() + missing;
                accepted += d.symbols_seen();
            }
            None => out.source_unrecovered += data.len().div_ceil(config.symbol_len) as u64,
        }
        for slot in slots {
            let original = &frames[slot.index].nal.payload;
            let Some(mut bytes) = dec.and_then(|d| extract_range(d, config.symbol_len, slot))
            else {
                out.rx_damaged.push(slot.index);
                out.eve_damaged.push(slot.index);
                continue;
            };
            if slot.encrypted {
                out.eve_undecryptable += 1;
                out.eve_damaged.push(slot.index);
                t.within(Layer::CryptoDecrypt, || {
                    cipher.decrypt_segment(slot.index as u64, &mut bytes)
                });
                counts.bytes_decrypted += bytes.len() as u64;
            } else if is_frame(t, &bytes, original) {
                out.eve_ok.push(slot.index);
            } else {
                out.eve_damaged.push(slot.index);
            }
            if is_frame(t, &bytes, original) {
                out.rx_ok.push(slot.index);
            } else {
                out.rx_damaged.push(slot.index);
            }
        }
    }
    let encrypted = blocks
        .iter()
        .flat_map(|(_, slots)| slots)
        .filter(|slot| slot.encrypted)
        .map(|slot| slot.index)
        .collect();
    Ok(FountainReplay {
        out,
        encrypted,
        ciphertext,
        counts,
        useful_ratio: probe::ratio(k_total as f64, accepted as f64),
    })
}
