//! HTTP/TCP transport — the paper's §6.4 scenario with real bytes.
//!
//! Each frame's Annex-B stream is cut into 1400-byte fragments behind a
//! [`FragmentHeader`]. The frames the per-frame policy draw selects are
//! encrypted per segment (OFB keyed by the segment's sequence number), and
//! every segment rides a [`TcpSegment`] whose option header carries the
//! encryption **marker bit**. Segments cross a
//! [`FaultyChannel`] under the plan: a segment the channel loses is
//! retransmitted until it gets through (reliable transport), while byte
//! damage from the plan's sites survives (it passed the checksum in this
//! model) and surfaces at the receiver as erasures. The receiver decrypts
//! marked segments — with the stale key on a plan hit — and reassembles
//! frames in the fragment store the RTP observers use too.
//!
//! The run returns the per-segment loss trace, so a caller bills
//! retransmission stalls and air bytes from one recorded trace. It is
//! single-threaded and draws only from seeded streams: `seed` for the
//! policy draws (the RTP/UDP encryptor's discipline), `seed ^ 0x7C9` for
//! the channel, and the plan's own per-site streams.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use thrifty_analytic::policy::Policy;
use thrifty_crypto::SegmentCipher;
use thrifty_faults::{FaultPlan, FaultStats, FaultyChannel, QueueFaults, ReceiverFaults};
use thrifty_net::tcp::TcpSegment;
use thrifty_net::wire::{FragmentHeader, FRAG_HEADER_LEN};
use thrifty_net::LossChannel;
use thrifty_telemetry::MetricsRegistry;
use thrifty_video::nal::write_annex_b;

use crate::pipeline::{
    originals, AirChannel, InputFrame, LossModel, PipelineError, Reassembler, Reconstruction,
    SESSION_KEY, STALE_KEY,
};

/// Fragment bytes carried per segment (after the fragmentation header).
const TCP_SEGMENT_PAYLOAD: usize = 1400;
/// TCP fixed header plus the 4-byte marker option block: the header region
/// the plan's corruption site aims at.
const TCP_HEADER_LEN: usize = 24;
/// The IP header every transmission attempt also puts on the air.
const IP_HEADER_LEN: usize = 20;
/// Source and destination port of the upload.
const TCP_PORT: u16 = 5004;

/// Configuration of an HTTP/TCP transport run.
#[derive(Debug, Clone, Copy)]
pub struct TcpConfig {
    /// The selection policy (cipher + packet rule).
    pub policy: Policy,
    /// Independent per-attempt loss probability ([`AirChannel::Iid`]).
    pub loss_prob: f64,
    /// RNG seed: policy draws use `seed`, the channel `seed ^ 0x7C9`.
    pub seed: u64,
    /// The loss process on the air.
    pub channel: AirChannel,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            policy: Policy::new(
                thrifty_crypto::Algorithm::Aes256,
                thrifty_analytic::policy::EncryptionMode::IFrames,
            ),
            loss_prob: 0.0,
            seed: 1,
            channel: AirChannel::Iid,
        }
    }
}

/// Outcome of an HTTP/TCP transport run.
#[derive(Debug, Clone)]
pub struct TcpOutcome {
    /// Segments sent, first copies only.
    pub segments_sent: usize,
    /// The receiver's reconstruction.
    pub receiver: Reconstruction,
    /// Delivered segments the receiver absorbed as erasures: an unusable
    /// TCP header, a payload too short for a fragment, or an unusable
    /// fragment header.
    pub receiver_erasures: u64,
    /// What the armed fault sites did (all zero for an empty plan).
    pub faults: FaultStats,
    /// Per segment, in send order: the attempts the channel lost before
    /// one got through, and the bytes every attempt put on the air
    /// (segment plus IP header).
    pub trace: Vec<(u32, u64)>,
}

impl TcpOutcome {
    /// Timeout-driven retransmissions: the trace's failure total.
    pub fn retransmissions(&self) -> u64 {
        self.trace
            .iter()
            .map(|&(failures, _)| u64::from(failures))
            .sum()
    }

    /// Bytes on the air, every retransmission included.
    pub fn bytes_on_air(&self) -> u64 {
        self.trace
            .iter()
            .map(|&(failures, bytes)| (u64::from(failures) + 1) * bytes)
            .sum()
    }
}

/// Run the HTTP/TCP transport over `frames` under `plan`, counting
/// retransmissions into `net.tcp.retransmissions`.
///
/// `Err` only for invalid setup: the plan, the channel parameters or the
/// session key.
pub fn run_pipeline_tcp(
    frames: &[InputFrame],
    config: &TcpConfig,
    plan: &FaultPlan,
    metrics: &MetricsRegistry,
) -> Result<TcpOutcome, PipelineError> {
    plan.validate().map_err(PipelineError::InvalidPlan)?;
    let loss = LossModel::try_new(config.loss_prob, config.channel)
        .map_err(PipelineError::InvalidChannel)?;
    let cipher = SegmentCipher::new(config.policy.algorithm, &SESSION_KEY)
        .map_err(PipelineError::KeyRejected)?;
    let stale_cipher = SegmentCipher::new(config.policy.algorithm, &STALE_KEY)
        .map_err(PipelineError::KeyRejected)?;

    let mut queue = QueueFaults::new(plan, metrics);
    let mut policy_rng = StdRng::seed_from_u64(config.seed);
    let mut wire: Vec<Vec<u8>> = Vec::new();
    for frame in frames {
        if !queue.admit() {
            continue; // dropped before transmission
        }
        let unit: f64 = policy_rng.gen_range(0.0..1.0);
        let encrypt = config.policy.mode.should_encrypt(frame.ftype, unit);
        let annex_b = write_annex_b(std::slice::from_ref(&frame.nal));
        let chunks: Vec<&[u8]> = annex_b.chunks(TCP_SEGMENT_PAYLOAD).collect();
        let total = chunks.len() as u16;
        for (i, chunk) in chunks.iter().enumerate() {
            let seq = wire.len() as u32;
            let mut payload = Vec::with_capacity(FRAG_HEADER_LEN + chunk.len());
            payload.extend_from_slice(
                &FragmentHeader::new(frame.index as u32, i as u16, total).emit(),
            );
            payload.extend_from_slice(chunk);
            if encrypt {
                cipher.encrypt_segment(u64::from(seq), &mut payload[FRAG_HEADER_LEN..]);
            }
            let segment = TcpSegment {
                src_port: TCP_PORT,
                dst_port: TCP_PORT,
                seq,
                ack: 0,
                encrypted_marker: encrypt,
                payload,
            };
            wire.push(segment.emit()); // lint:allow(plaintext-escape): selective encryption — policy-cleared frames ride plaintext by design; the frames the policy draw selected were encrypted via encrypt_segment above (paper §6.4)
        }
    }

    // The channel: a lost attempt is retransmitted until one gets through;
    // what the plan's sites do to the delivered bytes stays.
    let mut air = FaultyChannel::new(loss, plan, TCP_HEADER_LEN, metrics);
    let mut rng = StdRng::seed_from_u64(config.seed ^ 0x7C9);
    let retransmissions = metrics.counter("net.tcp.retransmissions");
    let originals = originals(frames);
    let mut receiver = TcpReceiver {
        cipher,
        stale_cipher,
        faults: ReceiverFaults::new(plan, metrics),
        store: Reassembler::default(),
        erasures: 0,
    };
    let segments_sent = wire.len();
    let mut trace = Vec::with_capacity(segments_sent);
    for segment in wire {
        let mut failures: u32 = 0;
        while !air.transmit(&mut rng) {
            failures += 1;
            retransmissions.inc();
        }
        trace.push((failures, (segment.len() + IP_HEADER_LEN) as u64));
        for delivered in air.mangle(segment) {
            receiver.hear(delivered);
        }
        receiver.store.settle(&originals);
    }
    for delivered in air.drain() {
        receiver.hear(delivered);
    }

    let mut faults = air.stats();
    faults.merge(&queue.stats());
    faults.merge(&receiver.faults.stats());
    Ok(TcpOutcome {
        segments_sent,
        receiver: receiver.store.reconstruct(&originals),
        receiver_erasures: receiver.erasures,
        faults,
        trace,
    })
}

/// The TCP receiver: decrypts marked segments, stores fragments.
struct TcpReceiver {
    cipher: SegmentCipher,
    stale_cipher: SegmentCipher,
    faults: ReceiverFaults,
    store: Reassembler,
    erasures: u64,
}

impl TcpReceiver {
    /// Take in one delivered segment; unusable bytes become an erasure.
    fn hear(&mut self, delivered: Vec<u8>) {
        let Ok(segment) = TcpSegment::parse(&delivered) else {
            self.erasures += 1;
            return;
        };
        let mut payload = segment.payload;
        let Some(body) = payload.get_mut(FRAG_HEADER_LEN..) else {
            self.erasures += 1;
            return;
        };
        if segment.encrypted_marker {
            let key = if self.faults.stale_hit() {
                &self.stale_cipher
            } else {
                &self.cipher
            };
            key.decrypt_segment(u64::from(segment.seq), body);
        }
        if self.store.insert(payload, 0).is_err() {
            self.erasures += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use thrifty_analytic::policy::EncryptionMode;
    use thrifty_crypto::Algorithm;
    use thrifty_video::FrameType;

    fn frames(n: usize) -> Vec<InputFrame> {
        (0..n)
            .map(|i| {
                let ftype = if i % 10 == 0 {
                    FrameType::I
                } else {
                    FrameType::P
                };
                let bytes = if ftype == FrameType::I { 8000 } else { 900 };
                InputFrame::synthetic(i, ftype, bytes)
            })
            .collect()
    }

    fn config(mode: EncryptionMode) -> TcpConfig {
        TcpConfig {
            policy: Policy::new(Algorithm::Aes256, mode),
            seed: 7,
            ..TcpConfig::default()
        }
    }

    #[test]
    fn lossless_run_delivers_every_frame_for_every_policy() {
        let input = frames(30);
        for mode in EncryptionMode::TABLE1 {
            let out = run_pipeline_tcp(
                &input,
                &config(mode),
                &FaultPlan::none(1),
                &MetricsRegistry::disabled(),
            )
            .expect("lossless run");
            // Reassembly compares each frame's NAL payload with its input
            // byte for byte: every frame is delivered intact.
            assert_eq!(out.receiver.frames_ok.len(), 30, "{mode}");
            assert!(out.receiver.frames_damaged.is_empty(), "{mode}");
            assert_eq!(out.receiver_erasures, 0, "{mode}");
            assert_eq!(out.retransmissions(), 0, "{mode}");
            assert_eq!(out.faults, FaultStats::default(), "{mode}");
            assert_eq!(out.trace.len(), out.segments_sent);
        }
    }

    #[test]
    fn retransmission_counter_matches_the_trace() {
        let metrics = MetricsRegistry::enabled();
        let cfg = TcpConfig {
            loss_prob: 0.3,
            ..config(EncryptionMode::IFrames)
        };
        let out =
            run_pipeline_tcp(&frames(40), &cfg, &FaultPlan::none(2), &metrics).expect("lossy run");
        assert!(out.retransmissions() > 0, "30% loss must bite");
        assert_eq!(
            metrics.snapshot().counter("net.tcp.retransmissions"),
            out.retransmissions()
        );
        assert!(out.bytes_on_air() > out.trace.iter().map(|&(_, b)| b).sum::<u64>());
        // Reliable transport: loss costs retransmissions, never frames.
        assert_eq!(out.receiver.frames_ok.len(), 40);
    }

    #[test]
    fn invalid_setup_is_reported_not_panicked() {
        let cfg = TcpConfig {
            loss_prob: f64::NAN,
            ..TcpConfig::default()
        };
        let metrics = MetricsRegistry::disabled();
        let err = run_pipeline_tcp(&frames(5), &cfg, &FaultPlan::none(0), &metrics)
            .expect_err("NaN loss must be rejected");
        assert!(matches!(err, PipelineError::InvalidChannel(_)), "{err}");
    }
}
