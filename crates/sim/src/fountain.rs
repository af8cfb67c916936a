//! Fountain-coded transport: the third protocol scenario.
//!
//! RTP/UDP abandons lost packets; HTTP/TCP retransmits them. This path
//! does neither: each GOP becomes one LT source block
//! ([`thrifty_fec::BlockEncoder`]), the sender emits `k·(1+ε)` coded
//! symbols, and the receiver peels the block back out of whatever subset
//! survives the channel ([`thrifty_fec::PeelingDecoder`]). Selective
//! encryption happens **before** coding — the policy draws per frame with
//! the same seeded stream as the RTP/UDP encryptor, so the two transports
//! make identical encrypt decisions for a given `(seed, frames)` pair and
//! can be compared differentially.
//!
//! Erasure semantics mirror the RTP/UDP testbed: a symbol whose
//! [`FountainHeader`] fails to parse is a counted erasure, and every
//! source symbol still missing when the stream ends is a counted erasure
//! feeding frame damage (and from there the distortion model). The
//! eavesdropper decodes blocks like anyone else — the code is public —
//! but recovered frames that were encrypted remain undecryptable
//! erasures, exactly as marked packets are on the RTP path.
//!
//! The run is single-threaded and draws only from seeded streams
//! (`seed` for policy draws, `seed ^ 0xA1B2` for the air, matching the
//! testbed's split), so outcomes are bit-reproducible from
//! `(config, frames)` alone.

use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::SeedableRng;
use thrifty_analytic::policy::Policy;
use thrifty_crypto::SegmentCipher;
use thrifty_fec::{BlockEncoder, PeelingDecoder};
use thrifty_net::wire::FountainHeader;
use thrifty_net::{LossChannel, UDP_IP_OVERHEAD};
use thrifty_telemetry::MetricsRegistry;
use thrifty_video::nal::{parse_annex_b, write_annex_b};
use thrifty_video::FrameType;

use crate::pipeline::{
    AirChannel, InputFrame, LossModel, PipelineError, Reconstruction, SESSION_KEY,
};

/// Configuration of a fountain transport run.
#[derive(Debug, Clone, Copy)]
pub struct FountainConfig {
    /// The selection policy (cipher + packet rule).
    pub policy: Policy,
    /// Coded symbol payload length, bytes (excluding the 16-byte header);
    /// the wire header carries it as a `u16`, so it must lie in
    /// `1..=u16::MAX`.
    pub symbol_len: usize,
    /// Repair overhead ε: the sender emits `k + ceil(k·ε)` symbols per
    /// block. `0.0` sends exactly the systematic prefix; it must be finite
    /// and non-negative.
    pub overhead: f64,
    /// Independent per-symbol loss probability ([`AirChannel::Iid`]).
    pub loss_prob: f64,
    /// RNG seed: policy draws use `seed` (same stream discipline as the
    /// RTP/UDP encryptor), the air uses `seed ^ 0xA1B2`, and symbol
    /// neighbour sets derive from `seed` via the LT coder's symbol streams.
    pub seed: u64,
    /// The loss process on the air.
    pub channel: AirChannel,
}

impl Default for FountainConfig {
    fn default() -> Self {
        FountainConfig {
            policy: Policy::new(
                thrifty_crypto::Algorithm::Aes256,
                thrifty_analytic::policy::EncryptionMode::IFrames,
            ),
            symbol_len: 1200,
            overhead: 0.25,
            loss_prob: 0.0,
            seed: 1,
            channel: AirChannel::Iid,
        }
    }
}

/// One frame's slot inside a source block (the out-of-band directory —
/// the role SPS/PPS lead-ins play on the RTP path: control metadata the
/// transport delivers reliably, outside the coded payload).
#[derive(Debug, Clone)]
struct FrameEntry {
    index: usize,
    offset: usize,
    len: usize,
    encrypted: bool,
}

/// One assembled source block: a GOP's (selectively encrypted) frames
/// concatenated, plus the directory describing where each frame sits.
#[derive(Debug, Clone)]
struct SourceBlock {
    data: Vec<u8>,
    frames: Vec<FrameEntry>,
}

/// Outcome of a fountain transport run.
#[derive(Debug, Clone)]
pub struct FountainOutcome {
    /// Coded symbols put on the air across all blocks.
    pub symbols_sent: usize,
    /// Coded symbols the channel dropped.
    pub symbols_lost: usize,
    /// Source blocks (GOPs) transmitted.
    pub blocks: usize,
    /// Blocks the receiver decoded completely.
    pub blocks_decoded: usize,
    /// Frames the policy selected for encryption.
    pub frames_encrypted: usize,
    /// Total bytes on the air (headers + payloads + UDP/IP overhead).
    pub bytes_on_air: u64,
    /// The legitimate receiver's reconstruction.
    pub receiver: Reconstruction,
    /// The eavesdropper's reconstruction (encrypted frames are erasures).
    pub eavesdropper: Reconstruction,
    /// Delivered plaintext frames at the receiver, by frame index — the
    /// differential tests compare these byte-for-byte against the RTP/UDP
    /// path's delivered payloads.
    pub delivered: BTreeMap<usize, Vec<u8>>,
    /// Source symbols still missing after peeling, across all blocks —
    /// the fountain path's erasure count feeding the distortion model.
    pub source_unrecovered: u64,
    /// Received symbols whose header failed to parse.
    pub header_malformed: u64,
    /// Recovered-but-encrypted frames at the eavesdropper.
    pub eavesdropper_undecryptable: u64,
}

/// Why a [`FountainConfig`] was rejected before any work.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FountainConfigError {
    /// `symbol_len` outside `1..=u16::MAX`: the wire header could not
    /// carry it.
    SymbolLen(usize),
    /// `overhead` negative or not finite.
    Overhead(f64),
}

impl std::fmt::Display for FountainConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FountainConfigError::SymbolLen(len) => {
                write!(f, "symbol length {len} outside 1..={}", u16::MAX)
            }
            FountainConfigError::Overhead(eps) => {
                write!(f, "repair overhead {eps} must be finite and non-negative")
            }
        }
    }
}

impl std::error::Error for FountainConfigError {}

impl FountainConfig {
    /// Check the fields the wire format and the repair count depend on.
    fn validate(&self) -> Result<(), FountainConfigError> {
        if u16::try_from(self.symbol_len).map_or(true, |len| len == 0) {
            return Err(FountainConfigError::SymbolLen(self.symbol_len));
        }
        if !self.overhead.is_finite() || self.overhead < 0.0 {
            return Err(FountainConfigError::Overhead(self.overhead));
        }
        Ok(())
    }
}

/// Group frames into source blocks: a new block starts at every I-frame
/// (the GOP boundary), so one lost block never damages two GOPs.
fn group_into_gops(frames: &[InputFrame]) -> Vec<Vec<&InputFrame>> {
    let mut blocks: Vec<Vec<&InputFrame>> = Vec::new();
    for f in frames {
        let start_new = f.ftype == FrameType::I || blocks.is_empty();
        if start_new && !blocks.last().is_some_and(|b| b.is_empty()) {
            blocks.push(Vec::new());
        }
        blocks
            .last_mut()
            .expect("a block exists after the push above")
            .push(f);
    }
    blocks.retain(|b| !b.is_empty());
    blocks
}

/// Run the fountain transport over `frames` with a disabled registry.
pub fn run_pipeline_fountain(
    frames: &[InputFrame],
    config: &FountainConfig,
) -> Result<FountainOutcome, PipelineError> {
    run_pipeline_fountain_metered(frames, config, &MetricsRegistry::disabled())
}

/// Run the fountain transport, counting traffic into `metrics`.
///
/// Counters: `fountain.symbols_sent`, `fountain.symbols_lost`,
/// `fountain.blocks_decoded`, `fountain.source_unrecovered`,
/// `fountain.header_malformed`, `fountain.frames_delivered`.
pub fn run_pipeline_fountain_metered(
    frames: &[InputFrame],
    config: &FountainConfig,
    metrics: &MetricsRegistry,
) -> Result<FountainOutcome, PipelineError> {
    config.validate().map_err(PipelineError::InvalidFountain)?;
    let cipher = SegmentCipher::new(config.policy.algorithm, &SESSION_KEY)
        .map_err(PipelineError::KeyRejected)?;
    let mut air = LossModel::try_new(config.loss_prob, config.channel)
        .map_err(PipelineError::InvalidChannel)?;

    let sent_counter = metrics.counter("fountain.symbols_sent");
    let lost_counter = metrics.counter("fountain.symbols_lost");
    let decoded_counter = metrics.counter("fountain.blocks_decoded");
    let unrecovered_counter = metrics.counter("fountain.source_unrecovered");
    let malformed_counter = metrics.counter("fountain.header_malformed");
    let delivered_counter = metrics.counter("fountain.frames_delivered");

    // Per-frame policy draws: the same seeded stream discipline as the
    // RTP/UDP encryptor, so both transports encrypt identical frame sets.
    let mut policy_rng = StdRng::seed_from_u64(config.seed);
    let mut frames_encrypted = 0usize;
    let enc_cipher = cipher.clone().metered(metrics);
    let mut originals: BTreeMap<usize, Vec<u8>> = BTreeMap::new();
    let mut blocks: Vec<SourceBlock> = Vec::new();
    for gop in group_into_gops(frames) {
        let mut data = Vec::new();
        let mut entries = Vec::new();
        for frame in gop {
            use rand::Rng;
            originals.insert(frame.index, frame.nal.payload.clone());
            let unit: f64 = policy_rng.gen_range(0.0..1.0);
            let encrypt = config.policy.mode.should_encrypt(frame.ftype, unit);
            let mut bytes = write_annex_b(std::slice::from_ref(&frame.nal));
            if encrypt {
                // OFB per frame, keyed by the absolute frame index — the
                // receiver recovers the IV from the block directory.
                enc_cipher.encrypt_segment(frame.index as u64, &mut bytes);
                frames_encrypted += 1;
            }
            entries.push(FrameEntry {
                index: frame.index,
                offset: data.len(),
                len: bytes.len(),
                encrypted: encrypt,
            });
            data.extend_from_slice(&bytes);
        }
        blocks.push(SourceBlock {
            data,
            frames: entries,
        });
    }

    // Transmit: per block, k systematic + ceil(k·ε) repair symbols
    // through the shared air channel; survivors land in a per-block
    // peeling decoder keyed by the header's own geometry fields.
    let mut air_rng = StdRng::seed_from_u64(config.seed ^ 0xA1B2);
    let mut symbols_sent = 0usize;
    let mut symbols_lost = 0usize;
    let mut bytes_on_air = 0u64;
    let mut header_malformed = 0u64;
    let mut decoders: BTreeMap<u32, PeelingDecoder> = BTreeMap::new();
    for (block_id, block) in blocks.iter().enumerate() {
        let block_id = block_id as u32;
        let encoder = BlockEncoder::new(&block.data, config.symbol_len, config.seed, block_id)
            .map_err(PipelineError::Fec)?;
        let k = encoder.k();
        let repair = (k as f64 * config.overhead).ceil() as usize;
        for symbol_id in 0..(k + repair) as u32 {
            let header = FountainHeader::new(
                block_id,
                symbol_id,
                k as u16,
                config.symbol_len as u16,
                block.data.len() as u32,
            );
            let mut wire = header.emit().to_vec();
            wire.extend_from_slice(&encoder.encode(symbol_id));
            symbols_sent += 1;
            sent_counter.inc();
            bytes_on_air += (wire.len() + UDP_IP_OVERHEAD) as u64;
            if !air.transmit(&mut air_rng) {
                symbols_lost += 1;
                lost_counter.inc();
                continue;
            }
            // Receive path: parse defensively; malformed headers are
            // counted erasures, never panics.
            match FountainHeader::parse(&wire) {
                Ok((h, body)) => {
                    let dec = match decoders.get_mut(&h.block) {
                        Some(d) => d,
                        None => {
                            let d = PeelingDecoder::new(
                                h.k as usize,
                                h.symbol_len as usize,
                                h.block_len as usize,
                                config.seed,
                                h.block,
                            )
                            .map_err(PipelineError::Fec)?;
                            decoders.entry(h.block).or_insert(d)
                        }
                    };
                    dec.push(h.symbol_id, body);
                }
                Err(_) => {
                    header_malformed += 1;
                    malformed_counter.inc();
                }
            }
        }
    }

    // Reassemble: a frame is delivered iff every source symbol covering
    // its byte range was recovered and the decrypted payload parses back
    // to the original NAL unit byte-for-byte.
    let mut receiver = Reconstruction::default();
    let mut eavesdropper = Reconstruction::default();
    let mut delivered = BTreeMap::new();
    let mut blocks_decoded = 0usize;
    let mut source_unrecovered = 0u64;
    let mut eavesdropper_undecryptable = 0u64;
    let rx_cipher = cipher.metered(metrics);
    for (block_id, block) in blocks.iter().enumerate() {
        let dec = decoders.get(&(block_id as u32));
        if let Some(d) = dec {
            source_unrecovered += d.missing().len() as u64;
            if d.is_complete() {
                blocks_decoded += 1;
                decoded_counter.inc();
            }
        } else {
            // Every symbol of the block was lost or malformed.
            source_unrecovered += block.data.len().div_ceil(config.symbol_len) as u64;
        }
        for entry in &block.frames {
            let Some(original) = originals.get(&entry.index) else {
                continue;
            };
            let recovered = dec.and_then(|d| extract_range(d, config.symbol_len, entry));
            let Some(ciphertext) = recovered else {
                receiver.frames_damaged.push(entry.index);
                eavesdropper.frames_damaged.push(entry.index);
                continue;
            };
            // Eavesdropper: public code, no key — encrypted frames stay
            // opaque exactly like marked RTP packets.
            if entry.encrypted {
                eavesdropper_undecryptable += 1;
                eavesdropper.frames_damaged.push(entry.index);
            } else if frame_matches(&ciphertext, original) {
                eavesdropper.frames_ok.push(entry.index);
            } else {
                eavesdropper.frames_damaged.push(entry.index);
            }
            // Receiver: decrypt with the session key, then verify.
            let mut plaintext = ciphertext;
            if entry.encrypted {
                rx_cipher.decrypt_segment(entry.index as u64, &mut plaintext);
            }
            match extract_payload(&plaintext, original) {
                Some(payload) => {
                    receiver.frames_ok.push(entry.index);
                    delivered_counter.inc();
                    delivered.insert(entry.index, payload);
                }
                None => receiver.frames_damaged.push(entry.index),
            }
        }
    }
    for _ in 0..source_unrecovered {
        unrecovered_counter.inc();
    }

    Ok(FountainOutcome {
        symbols_sent,
        symbols_lost,
        blocks: blocks.len(),
        blocks_decoded,
        frames_encrypted,
        bytes_on_air,
        receiver,
        eavesdropper,
        delivered,
        source_unrecovered,
        header_malformed,
        eavesdropper_undecryptable,
    })
}

/// The byte range of one frame inside a (possibly partially) decoded
/// block, if every covering source symbol was recovered.
fn extract_range(dec: &PeelingDecoder, symbol_len: usize, entry: &FrameEntry) -> Option<Vec<u8>> {
    let first = entry.offset / symbol_len;
    let last = (entry.offset + entry.len - 1) / symbol_len;
    let mut bytes = Vec::with_capacity((last - first + 1) * symbol_len);
    for i in first..=last {
        bytes.extend_from_slice(dec.source_symbol(i)?);
    }
    let start = entry.offset - first * symbol_len;
    Some(bytes[start..start + entry.len].to_vec())
}

/// Whether an Annex-B frame byte string decodes to exactly the original
/// NAL payload.
fn frame_matches(annex_b: &[u8], original: &[u8]) -> bool {
    matches!(parse_annex_b(annex_b).as_deref(), Ok([unit]) if unit.payload == original)
}

/// The decoded NAL payload, if it matches the original byte-for-byte.
fn extract_payload(annex_b: &[u8], original: &[u8]) -> Option<Vec<u8>> {
    match parse_annex_b(annex_b).ok()?.as_slice() {
        [unit] if unit.payload == original => Some(unit.payload.clone()),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use thrifty_analytic::policy::EncryptionMode;
    use thrifty_crypto::Algorithm;

    fn stream(n: usize) -> Vec<InputFrame> {
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

    fn config(mode: EncryptionMode) -> FountainConfig {
        FountainConfig {
            policy: Policy::new(Algorithm::Aes256, mode),
            seed: 7,
            ..FountainConfig::default()
        }
    }

    #[test]
    fn lossless_run_delivers_every_frame_for_every_policy() {
        for policy in EncryptionMode::TABLE1 {
            let cfg = config(policy);
            let out = run_pipeline_fountain(&stream(30), &cfg).unwrap();
            assert_eq!(out.receiver.frames_ok.len(), 30, "{policy:?}");
            assert!(out.receiver.frames_damaged.is_empty());
            assert_eq!(out.blocks, 3);
            assert_eq!(out.blocks_decoded, 3);
            assert_eq!(out.source_unrecovered, 0);
            assert_eq!(out.header_malformed, 0);
            // Delivered plaintext is byte-identical to the input.
            for f in stream(30) {
                assert_eq!(out.delivered.get(&f.index), Some(&f.nal.payload));
            }
        }
    }

    #[test]
    fn eavesdropper_sees_only_unencrypted_frames() {
        let cfg = config(EncryptionMode::IFrames);
        let out = run_pipeline_fountain(&stream(30), &cfg).unwrap();
        // 3 I-frames encrypted: eavesdropper recovers the 27 P-frames.
        assert_eq!(out.frames_encrypted, 3);
        assert_eq!(out.eavesdropper.frames_ok.len(), 27);
        assert_eq!(out.eavesdropper_undecryptable, 3);
        let all = config(EncryptionMode::All);
        let out = run_pipeline_fountain(&stream(30), &all).unwrap();
        assert!(out.eavesdropper.frames_ok.is_empty());
        assert_eq!(out.receiver.frames_ok.len(), 30);
    }

    #[test]
    fn overhead_rides_out_iid_loss() {
        let cfg = FountainConfig {
            loss_prob: 0.1,
            overhead: 0.6,
            ..config(EncryptionMode::IFrames)
        };
        let out = run_pipeline_fountain(&stream(40), &cfg).unwrap();
        assert!(out.symbols_lost > 0, "10% loss must bite");
        assert_eq!(
            out.receiver.frames_ok.len(),
            40,
            "0.6 overhead should decode through 10% iid loss (unrecovered: {})",
            out.source_unrecovered
        );
    }

    #[test]
    fn zero_overhead_under_loss_degrades_gracefully() {
        let cfg = FountainConfig {
            loss_prob: 0.25,
            overhead: 0.0,
            ..config(EncryptionMode::None)
        };
        let out = run_pipeline_fountain(&stream(40), &cfg).unwrap();
        assert!(
            out.source_unrecovered > 0,
            "no repair + loss must erase symbols"
        );
        assert!(out.receiver.frames_ok.len() < 40);
        assert!(!out.receiver.frames_damaged.is_empty());
    }

    #[test]
    fn runs_are_bit_reproducible() {
        let cfg = FountainConfig {
            loss_prob: 0.15,
            overhead: 0.3,
            ..config(EncryptionMode::PFrames)
        };
        let a = run_pipeline_fountain(&stream(50), &cfg).unwrap();
        let b = run_pipeline_fountain(&stream(50), &cfg).unwrap();
        assert_eq!(a.receiver.frames_ok, b.receiver.frames_ok);
        assert_eq!(a.symbols_lost, b.symbols_lost);
        assert_eq!(a.delivered, b.delivered);
        assert_eq!(a.bytes_on_air, b.bytes_on_air);
    }

    #[test]
    fn invalid_configs_are_rejected_before_any_work() {
        let cases = [
            (0, 0.25, "SymbolLen(0)"),
            (70_000, 0.25, "SymbolLen(70000)"),
            (1200, f64::NAN, "Overhead(NaN)"),
            (1200, -0.5, "Overhead(-0.5)"),
        ];
        for (symbol_len, overhead, want) in cases {
            let cfg = FountainConfig {
                symbol_len,
                overhead,
                ..config(EncryptionMode::IFrames)
            };
            let metrics = MetricsRegistry::enabled();
            let err = run_pipeline_fountain_metered(&stream(10), &cfg, &metrics)
                .expect_err("invalid config must be rejected");
            match err {
                PipelineError::InvalidFountain(e) => assert_eq!(format!("{e:?}"), want),
                other => panic!("{want}: expected InvalidFountain, got {other}"),
            }
            // Rejected before any work: not one symbol went on the air.
            assert_eq!(
                metrics.snapshot().counter("fountain.symbols_sent"),
                0,
                "{want}"
            );
        }
    }

    #[test]
    fn oversized_blocks_surface_the_coder_error() {
        // A 70 kB frame at one byte per symbol needs more source symbols
        // than the u16 header field can count.
        let frames = vec![InputFrame::synthetic(0, FrameType::I, 70_000)];
        let cfg = FountainConfig {
            symbol_len: 1,
            ..config(EncryptionMode::None)
        };
        let err = run_pipeline_fountain(&frames, &cfg).expect_err("block too large");
        assert!(
            matches!(
                err,
                PipelineError::Fec(thrifty_fec::FecError::TooManySymbols { .. })
            ),
            "{err}"
        );
    }

    #[test]
    fn burst_channel_runs_and_counts_consistently() {
        let cfg = FountainConfig {
            overhead: 0.5,
            channel: AirChannel::Burst {
                p_gb: 0.03,
                p_bg: 0.3,
                good_success: 0.995,
                bad_success: 0.6,
            },
            ..config(EncryptionMode::IFrames)
        };
        let out = run_pipeline_fountain(&stream(60), &cfg).unwrap();
        assert_eq!(
            out.receiver.frames_ok.len() + out.receiver.frames_damaged.len(),
            60
        );
        assert!(out.symbols_lost > 0);
        let metrics = MetricsRegistry::enabled();
        let metered = run_pipeline_fountain_metered(&stream(60), &cfg, &metrics).unwrap();
        let snap = metrics.snapshot();
        assert_eq!(
            snap.counter("fountain.symbols_sent"),
            metered.symbols_sent as u64
        );
        assert_eq!(
            snap.counter("fountain.symbols_lost"),
            metered.symbols_lost as u64
        );
        assert_eq!(
            snap.counter("fountain.frames_delivered"),
            metered.receiver.frames_ok.len() as u64
        );
        assert_eq!(
            snap.counter("fountain.source_unrecovered"),
            metered.source_unrecovered
        );
        // Metering must not change the outcome.
        assert_eq!(metered.receiver.frames_ok, out.receiver.frames_ok);
    }
}
