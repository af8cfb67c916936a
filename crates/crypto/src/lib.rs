//! # thrifty-crypto
//!
//! From-scratch implementations of the three symmetric ciphers evaluated in
//! *Papageorgiou et al., "Resource Thrifty Secure Mobile Video Transfers on
//! Open WiFi Networks"* (CoNEXT 2013): **AES-128**, **AES-256** and
//! **3DES (EDE3)**, together with the **Output Feedback (OFB)** stream mode
//! the paper applies to each video segment independently (Section 5).
//!
//! The paper encrypts the RTP payload of selected packets with one of these
//! ciphers; the relative per-byte cost of the ciphers (3DES ≫ AES-256 >
//! AES-128) is what drives the delay and energy orderings of Figures 7–11.
//! This crate provides both the real ciphers (validated against FIPS-197 and
//! NIST test vectors) and a [`CostModel`] abstraction used by the analytical
//! and energy crates to predict encryption time without running the cipher.
//!
//! ## Quick start
//!
//! ```
//! use thrifty_crypto::{Algorithm, SegmentCipher};
//!
//! let key = [0x42u8; 32];
//! let cipher = SegmentCipher::new(Algorithm::Aes256, &key).unwrap();
//! let mut payload = b"a video segment".to_vec();
//! cipher.encrypt_segment(7, &mut payload); // segment index 7 selects the IV
//! assert_ne!(&payload, b"a video segment");
//! cipher.decrypt_segment(7, &mut payload);
//! assert_eq!(&payload, b"a video segment");
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod aes;
pub mod aes_bitsliced;
pub mod aes_fast;
pub mod cost;
pub mod des;
pub mod des_bitsliced;
pub mod des_fast;
pub mod ofb;

pub use aes::{Aes128, Aes256};
pub use aes_bitsliced::AesBitsliced;
pub use aes_fast::AesFast;
pub use cost::{CostModel, CostSample};
pub use des::{Des, TripleDes};
pub use des_bitsliced::TripleDesBitsliced;
pub use des_fast::TripleDesFast;
pub use ofb::Ofb;

/// A block cipher usable in OFB mode.
///
/// Only the forward (encryption) direction is required by OFB; the inverse
/// direction is provided because the test-suite validates both directions
/// against published vectors.
pub trait BlockCipher {
    /// Block size in bytes (16 for AES, 8 for DES/3DES).
    fn block_size(&self) -> usize;

    /// Encrypt one block in place. `block.len()` must equal
    /// [`block_size`](Self::block_size); implementations panic otherwise.
    fn encrypt_block(&self, block: &mut [u8]);

    /// Decrypt one block in place. Same length contract as
    /// [`encrypt_block`](Self::encrypt_block).
    fn decrypt_block(&self, block: &mut [u8]);
}

/// The symmetric-key algorithms evaluated in the paper (Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Algorithm {
    /// AES with a 128-bit key (FIPS-197, 10 rounds).
    Aes128,
    /// AES with a 256-bit key (FIPS-197, 14 rounds).
    Aes256,
    /// Triple DES in EDE3 configuration (ANSI X9.52), 168-bit key.
    TripleDes,
}

impl Algorithm {
    /// All algorithms, in the order the paper lists them.
    pub const ALL: [Algorithm; 3] = [Algorithm::Aes128, Algorithm::Aes256, Algorithm::TripleDes];

    /// Key length in bytes.
    pub fn key_len(self) -> usize {
        match self {
            Algorithm::Aes128 => 16,
            Algorithm::Aes256 => 32,
            Algorithm::TripleDes => 24,
        }
    }

    /// Block size in bytes.
    pub fn block_size(self) -> usize {
        match self {
            Algorithm::Aes128 | Algorithm::Aes256 => 16,
            Algorithm::TripleDes => 8,
        }
    }

    /// Relative software cost per byte, normalised to AES-128 = 1.
    ///
    /// These ratios model the paper's ARMv7 devices (Galaxy S-II / HTC
    /// Amaze class, no AES-NI): AES-256 runs 14 rounds instead of 10
    /// (×1.4), and 3DES performs three full DES passes over 8-byte blocks,
    /// roughly 6× the per-byte work of AES-128. The analytic delay/energy
    /// models are calibrated against those devices, so the constants stay
    /// put even though this repo's own backends measure differently on
    /// x86 (see EXPERIMENTS.md and `BENCH_cipher.json`): the fast
    /// table-driven backend shows AES-256 ≈ 1.3× and 3DES ≈ 8×, the
    /// byte-oriented reference backend ≈ 1.4× and ≈ 28×. The AES ratio is
    /// robust across implementations; the 3DES ratio depends on how much
    /// DES per-round and per-block work is precomputed or cancelled, and
    /// the paper's 6× sits below both.
    pub fn relative_cost(self) -> f64 {
        match self {
            Algorithm::Aes128 => 1.0,
            Algorithm::Aes256 => 1.4,
            Algorithm::TripleDes => 6.0,
        }
    }

    /// Human-readable name matching the paper's figure labels.
    pub fn name(self) -> &'static str {
        match self {
            Algorithm::Aes128 => "AES128",
            Algorithm::Aes256 => "AES256",
            Algorithm::TripleDes => "3DES",
        }
    }
}

impl std::fmt::Display for Algorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Errors produced by this crate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CryptoError {
    /// The supplied key slice does not match the algorithm's key length.
    BadKeyLength {
        /// Bytes the algorithm expects.
        expected: usize,
        /// Bytes actually supplied.
        got: usize,
    },
}

impl std::fmt::Display for CryptoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CryptoError::BadKeyLength { expected, got } => {
                write!(f, "bad key length: expected {expected} bytes, got {got}")
            }
        }
    }
}

impl std::error::Error for CryptoError {}

/// Which implementation family a [`SegmentCipher`] dispatches to.
///
/// All backends are bit-exact (pinned by differential tests on FIPS/NIST
/// vectors and random inputs); they differ in speed and side-channel
/// profile:
///
/// * [`Reference`](CipherBackend::Reference) — the auditable byte/bit-level
///   implementations in [`aes`] and [`des`], whose per-round structure
///   mirrors the [`CostModel`]. Used by tests and as the differential
///   oracle.
/// * [`Fast`](CipherBackend::Fast) — the table-driven implementations in
///   [`aes_fast`] (T-tables) and [`des_fast`] (fused SP tables; OFB runs
///   in DES's permuted domain: one IP per segment, one IP⁻¹ per keystream
///   block; a train's OFB chains run interleaved) for single segments and
///   short trains. Each full 64-segment group of a train goes to the
///   bitsliced core of the same algorithm.
///   The default for every caller that moves real traffic.
/// * [`Bitsliced`](CipherBackend::Bitsliced) — the constant-time 64-lane
///   cores in [`aes_bitsliced`] and [`des_bitsliced`]: no table lookups,
///   so no cache-timing leak, and the highest throughput of the three on
///   full 64-segment packet trains ([`SegmentCipher::encrypt_train`]),
///   which is why `Fast` hands them its full groups.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CipherBackend {
    /// Byte/bit-oriented reference implementations.
    Reference,
    /// Table-driven implementations (the default).
    #[default]
    Fast,
    /// Constant-time bitsliced AES and 3DES.
    Bitsliced,
}

impl CipherBackend {
    /// Every backend, reference first.
    pub const ALL: [CipherBackend; 3] = [
        CipherBackend::Reference,
        CipherBackend::Fast,
        CipherBackend::Bitsliced,
    ];

    /// Label used in benchmark output.
    pub fn name(self) -> &'static str {
        match self {
            CipherBackend::Reference => "reference",
            CipherBackend::Fast => "fast",
            CipherBackend::Bitsliced => "bitsliced",
        }
    }
}

impl std::fmt::Display for CipherBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The keyed block-cipher instance behind a [`SegmentCipher`] — one variant
/// per (algorithm, backend) pair. Kept private so callers select through
/// [`Algorithm`] × [`CipherBackend`] only.
#[derive(Clone)]
// AES-256's key schedule dominates; one cipher per transfer makes boxing
// pointless.
#[allow(clippy::large_enum_variant)]
enum Inner {
    RefAes128(Aes128),
    RefAes256(Aes256),
    RefTripleDes(TripleDes),
    /// The table-driven core for single segments and a train's remainder,
    /// and the bitsliced one for its full lane groups.
    FastAes(AesFast, AesBitsliced),
    /// As `FastAes`, on 3DES.
    FastTripleDes(TripleDesFast, TripleDesBitsliced),
    BitslicedAes(AesBitsliced),
    BitslicedTripleDes(TripleDesBitsliced),
}

impl Inner {
    /// XOR segment `seq`'s OFB keystream over `data`. The IV is the
    /// encryption of the big-endian segment number padded into one block —
    /// unique per segment under a fixed key, and reconstructible by the
    /// receiver from the RTP sequence number alone.
    fn xor_keystream(&self, seq: u64, data: &mut [u8]) {
        let cipher: &dyn BlockCipher = match self {
            Inner::RefAes128(c) => c,
            Inner::RefAes256(c) => c,
            Inner::RefTripleDes(c) => c,
            Inner::FastAes(c, _) => c,
            Inner::FastTripleDes(c, _) => return c.ofb_xor_segment(seq, data),
            Inner::BitslicedAes(c) => c,
            Inner::BitslicedTripleDes(c) => return c.ofb_xor_train(&[seq], &mut [data]),
        };
        let mut iv = [0u8; 16];
        let iv = &mut iv[..cipher.block_size()];
        let n = iv.len();
        iv[n - 8..].copy_from_slice(&seq.to_be_bytes());
        cipher.encrypt_block(iv);
        Ofb::new(cipher, iv).apply(data);
    }
}

/// A keyed cipher that encrypts/decrypts whole video segments in OFB mode.
///
/// The paper applies OFB "to each segment separately, and therefore a
/// possible error at the receiver does not propagate to the following
/// segments" (Section 5). We derive a distinct IV for every segment from its
/// sequence number, so encryption and decryption only need `(key, seq)`.
///
/// [`new`](SegmentCipher::new) selects the [`CipherBackend::Fast`]
/// table-driven implementations; [`with_backend`](SegmentCipher::with_backend)
/// pins a specific backend (the reference one exists as a differential
/// oracle and auditable specification).
#[derive(Clone)]
pub struct SegmentCipher {
    algorithm: Algorithm,
    backend: CipherBackend,
    inner: Inner,
}

impl SegmentCipher {
    /// Create a cipher for `algorithm`, keyed with the first
    /// `algorithm.key_len()` bytes of `key`, using the default
    /// ([`Fast`](CipherBackend::Fast)) backend.
    ///
    /// # Errors
    /// [`CryptoError::BadKeyLength`] if `key` is shorter than required.
    pub fn new(algorithm: Algorithm, key: &[u8]) -> Result<Self, CryptoError> {
        Self::with_backend(algorithm, key, CipherBackend::default())
    }

    /// Create a cipher pinned to a specific backend.
    ///
    /// # Errors
    /// [`CryptoError::BadKeyLength`] if `key` is shorter than required.
    pub fn with_backend(
        algorithm: Algorithm,
        key: &[u8],
        backend: CipherBackend,
    ) -> Result<Self, CryptoError> {
        let need = algorithm.key_len();
        if key.len() < need {
            return Err(CryptoError::BadKeyLength {
                expected: need,
                got: key.len(),
            });
        }
        let key = &key[..need];
        let inner = match (algorithm, backend) {
            (Algorithm::Aes128, CipherBackend::Reference) => {
                Inner::RefAes128(Aes128::new(key.try_into().unwrap()))
            }
            (Algorithm::Aes256, CipherBackend::Reference) => {
                Inner::RefAes256(Aes256::new(key.try_into().unwrap()))
            }
            (Algorithm::TripleDes, CipherBackend::Reference) => {
                Inner::RefTripleDes(TripleDes::new(key.try_into().unwrap()))
            }
            (Algorithm::Aes128 | Algorithm::Aes256, CipherBackend::Fast) => {
                Inner::FastAes(AesFast::new(key), AesBitsliced::new(key))
            }
            (Algorithm::Aes128 | Algorithm::Aes256, CipherBackend::Bitsliced) => {
                Inner::BitslicedAes(AesBitsliced::new(key))
            }
            (Algorithm::TripleDes, CipherBackend::Fast) => {
                let key = key.try_into().unwrap();
                Inner::FastTripleDes(TripleDesFast::new(key), TripleDesBitsliced::new(key))
            }
            (Algorithm::TripleDes, CipherBackend::Bitsliced) => {
                Inner::BitslicedTripleDes(TripleDesBitsliced::new(key.try_into().unwrap()))
            }
        };
        Ok(SegmentCipher {
            algorithm,
            backend,
            inner,
        })
    }

    /// The algorithm this cipher was constructed with.
    pub fn algorithm(&self) -> Algorithm {
        self.algorithm
    }

    /// The backend this cipher dispatches to.
    pub fn backend(&self) -> CipherBackend {
        self.backend
    }

    /// How many segments one [`encrypt_train`](Self::encrypt_train) call
    /// advances side by side: 64 on the bitsliced and fast backends, 1 on
    /// the reference one, where a train is a loop over segments. A caller
    /// that can defer cipher work gains from handing it over in groups of
    /// this many segments, and from nothing larger.
    pub fn train_lanes(&self) -> usize {
        match self.inner {
            Inner::FastTripleDes(..) | Inner::BitslicedTripleDes(_) => des_bitsliced::LANES,
            Inner::FastAes(..) | Inner::BitslicedAes(_) => aes_bitsliced::LANES,
            Inner::RefAes128(_) | Inner::RefAes256(_) | Inner::RefTripleDes(_) => 1,
        }
    }

    /// Encrypt `data` in place as segment number `seq`.
    pub fn encrypt_segment(&self, seq: u64, data: &mut [u8]) {
        self.inner.xor_keystream(seq, data);
    }

    /// Decrypt `data` in place as segment number `seq`.
    ///
    /// OFB is an involution: decryption is the same keystream XOR.
    pub fn decrypt_segment(&self, seq: u64, data: &mut [u8]) {
        self.inner.xor_keystream(seq, data);
    }

    /// Encrypt a whole packet train in place: segment `k` is encrypted as
    /// segment number `seqs[k]`, exactly as `encrypt_segment(seqs[k], …)`
    /// would — byte-identical output for every backend.
    ///
    /// On the [`Bitsliced`](CipherBackend::Bitsliced) backend this is the
    /// hot path: the per-segment IV blocks are derived in one batched
    /// encryption and up to [`aes_bitsliced::LANES`] OFB chains then run in
    /// lock-step, so a train costs barely more than one segment of serial
    /// work per 16 bytes of the longest segment; bitsliced 3DES likewise
    /// runs up to [`des_bitsliced::LANES`] chains per 8-byte block. The
    /// [`Fast`](CipherBackend::Fast) backend sends each full 64-segment
    /// group through the bitsliced core of its algorithm and the
    /// remainder through its table-driven core: fast AES loops over
    /// [`encrypt_segment`](Self::encrypt_segment), fast 3DES interleaves a
    /// few OFB chains round by round. The reference backend loops over
    /// [`encrypt_segment`](Self::encrypt_segment).
    ///
    /// # Panics
    /// If `seqs.len() != segments.len()`.
    pub fn encrypt_train(&self, seqs: &[u64], segments: &mut [&mut [u8]]) {
        assert_eq!(
            seqs.len(),
            segments.len(),
            "one sequence number per segment required"
        );
        match &self.inner {
            Inner::BitslicedAes(bs) => aes_ofb_xor_train(bs, seqs, segments),
            Inner::FastAes(_, bitsliced) => {
                let full = seqs.len() - seqs.len() % aes_bitsliced::LANES;
                let (group_seqs, rest_seqs) = seqs.split_at(full);
                let (groups, rest) = segments.split_at_mut(full);
                aes_ofb_xor_train(bitsliced, group_seqs, groups);
                for (&seq, seg) in rest_seqs.iter().zip(rest.iter_mut()) {
                    self.encrypt_segment(seq, seg);
                }
            }
            Inner::FastTripleDes(fast, bitsliced) => {
                let full = seqs.len() - seqs.len() % des_bitsliced::LANES;
                let (group_seqs, rest_seqs) = seqs.split_at(full);
                let (groups, rest) = segments.split_at_mut(full);
                bitsliced.ofb_xor_train(group_seqs, groups);
                fast.ofb_xor_train(rest_seqs, rest);
            }
            Inner::BitslicedTripleDes(c) => c.ofb_xor_train(seqs, segments),
            Inner::RefAes128(_) | Inner::RefAes256(_) | Inner::RefTripleDes(_) => {
                for (&seq, seg) in seqs.iter().zip(segments.iter_mut()) {
                    self.encrypt_segment(seq, seg);
                }
            }
        }
    }

    /// Decrypt a whole packet train in place (OFB is an involution, so
    /// this is the same keystream XOR as [`encrypt_train`](Self::encrypt_train)).
    ///
    /// # Panics
    /// If `seqs.len() != segments.len()`.
    pub fn decrypt_train(&self, seqs: &[u64], segments: &mut [&mut [u8]]) {
        self.encrypt_train(seqs, segments);
    }
}

/// The bitsliced AES train: the per-segment IV blocks derived in one
/// batched encryption — the same derivation as
/// `Inner::xor_keystream`, the encryption of the padded big-endian
/// segment number — then every OFB chain run in lock-step.
fn aes_ofb_xor_train(bs: &AesBitsliced, seqs: &[u64], segments: &mut [&mut [u8]]) {
    let mut ivs: Vec<[u8; 16]> = seqs
        .iter()
        .map(|&seq| {
            let mut iv = [0u8; 16];
            iv[8..].copy_from_slice(&seq.to_be_bytes());
            iv
        })
        .collect();
    bs.encrypt_blocks(&mut ivs);
    bs.ofb_xor_train(&ivs, segments);
}

impl std::fmt::Debug for SegmentCipher {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print key material.
        write!(f, "SegmentCipher({}, {})", self.algorithm, self.backend)
    }
}

/// A [`SegmentCipher`] wrapped with telemetry counters — the instrumented
/// engine entry point the paper's Section 6 cost measurements correspond
/// to. Counter handles are acquired once at construction; each segment
/// operation then costs two relaxed atomic adds on top of the cipher work
/// (and two branches when the registry is disabled).
///
/// Counter names are keyed by algorithm so per-cipher byte totals can be
/// read straight from a snapshot, e.g. `crypto.bytes_encrypted.AES256`.
#[derive(Debug, Clone)]
pub struct MeteredSegmentCipher {
    cipher: SegmentCipher,
    segments_encrypted: thrifty_telemetry::Counter,
    bytes_encrypted: thrifty_telemetry::Counter,
    segments_decrypted: thrifty_telemetry::Counter,
    bytes_decrypted: thrifty_telemetry::Counter,
}

impl SegmentCipher {
    /// Attach telemetry counters from `metrics` to this cipher.
    pub fn metered(self, metrics: &thrifty_telemetry::MetricsRegistry) -> MeteredSegmentCipher {
        let alg = self.algorithm.name();
        MeteredSegmentCipher {
            segments_encrypted: metrics.counter(&format!("crypto.segments_encrypted.{alg}")),
            bytes_encrypted: metrics.counter(&format!("crypto.bytes_encrypted.{alg}")),
            segments_decrypted: metrics.counter(&format!("crypto.segments_decrypted.{alg}")),
            bytes_decrypted: metrics.counter(&format!("crypto.bytes_decrypted.{alg}")),
            cipher: self,
        }
    }
}

impl MeteredSegmentCipher {
    /// The wrapped cipher.
    pub fn cipher(&self) -> &SegmentCipher {
        &self.cipher
    }

    /// Encrypt `data` in place as segment `seq`, counting the work.
    pub fn encrypt_segment(&self, seq: u64, data: &mut [u8]) {
        self.cipher.encrypt_segment(seq, data);
        self.segments_encrypted.inc();
        self.bytes_encrypted.add(data.len() as u64);
    }

    /// Decrypt `data` in place as segment `seq`, counting the work.
    pub fn decrypt_segment(&self, seq: u64, data: &mut [u8]) {
        self.cipher.decrypt_segment(seq, data);
        self.segments_decrypted.inc();
        self.bytes_decrypted.add(data.len() as u64);
    }

    /// Encrypt a packet train in place, counting every segment and byte
    /// exactly as per-segment encryption would.
    ///
    /// # Panics
    /// If `seqs.len() != segments.len()`.
    pub fn encrypt_train(&self, seqs: &[u64], segments: &mut [&mut [u8]]) {
        self.cipher.encrypt_train(seqs, segments);
        self.segments_encrypted.add(segments.len() as u64);
        self.bytes_encrypted
            .add(segments.iter().map(|s| s.len() as u64).sum());
    }

    /// Decrypt a packet train in place, counting the work.
    ///
    /// # Panics
    /// If `seqs.len() != segments.len()`.
    pub fn decrypt_train(&self, seqs: &[u64], segments: &mut [&mut [u8]]) {
        self.cipher.decrypt_train(seqs, segments);
        self.segments_decrypted.add(segments.len() as u64);
        self.bytes_decrypted
            .add(segments.iter().map(|s| s.len() as u64).sum());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn algorithm_metadata_is_consistent() {
        for alg in Algorithm::ALL {
            assert!(alg.key_len() >= 16);
            assert!(alg.block_size() == 8 || alg.block_size() == 16);
            assert!(alg.relative_cost() >= 1.0);
        }
        assert!(Algorithm::TripleDes.relative_cost() > Algorithm::Aes256.relative_cost());
        assert!(Algorithm::Aes256.relative_cost() > Algorithm::Aes128.relative_cost());
    }

    #[test]
    fn segment_cipher_roundtrip_all_algorithms() {
        let key = [0x5au8; 32];
        for alg in Algorithm::ALL {
            let c = SegmentCipher::new(alg, &key).unwrap();
            let original: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
            let mut data = original.clone();
            c.encrypt_segment(3, &mut data);
            assert_ne!(data, original, "{alg} produced identity ciphertext");
            c.decrypt_segment(3, &mut data);
            assert_eq!(data, original, "{alg} roundtrip failed");
        }
    }

    #[test]
    fn different_segments_get_different_keystreams() {
        let key = [7u8; 32];
        for alg in Algorithm::ALL {
            let c = SegmentCipher::new(alg, &key).unwrap();
            let mut a = vec![0u8; 64];
            let mut b = vec![0u8; 64];
            c.encrypt_segment(1, &mut a);
            c.encrypt_segment(2, &mut b);
            assert_ne!(a, b, "{alg}: segment IVs must differ");
        }
    }

    #[test]
    fn short_key_is_rejected() {
        let key = [0u8; 8];
        for alg in Algorithm::ALL {
            let err = SegmentCipher::new(alg, &key).unwrap_err();
            assert_eq!(
                err,
                CryptoError::BadKeyLength {
                    expected: alg.key_len(),
                    got: 8
                }
            );
            // Display impl should mention both numbers.
            let s = err.to_string();
            assert!(s.contains('8'));
        }
    }

    #[test]
    fn debug_does_not_leak_key() {
        let key = [0xAAu8; 32];
        let c = SegmentCipher::new(Algorithm::Aes128, &key).unwrap();
        let dbg = format!("{c:?}");
        assert!(!dbg.contains("170")); // 0xAA
        assert!(dbg.contains("AES128"));
    }

    #[test]
    fn default_backend_is_fast() {
        let key = [1u8; 32];
        let c = SegmentCipher::new(Algorithm::Aes256, &key).unwrap();
        assert_eq!(c.backend(), CipherBackend::Fast);
        let r =
            SegmentCipher::with_backend(Algorithm::Aes256, &key, CipherBackend::Reference).unwrap();
        assert_eq!(r.backend(), CipherBackend::Reference);
    }

    #[test]
    fn backends_produce_identical_segments() {
        // The tentpole guarantee: selecting a backend changes nothing but
        // speed — same IV derivation, same keystream, same ciphertext, for
        // every algorithm, backend, segment number, and length (including
        // partial blocks).
        let key: Vec<u8> = (0..32u8)
            .map(|i| i.wrapping_mul(73).wrapping_add(9))
            .collect();
        for alg in Algorithm::ALL {
            let reference =
                SegmentCipher::with_backend(alg, &key, CipherBackend::Reference).unwrap();
            for backend in [CipherBackend::Fast, CipherBackend::Bitsliced] {
                let other = SegmentCipher::with_backend(alg, &key, backend).unwrap();
                for seq in [0u64, 1, 7, u32::MAX as u64 + 3] {
                    for len in [0usize, 1, 15, 16, 17, 100, 1452] {
                        let original: Vec<u8> = (0..len)
                            .map(|i| (i as u8).wrapping_mul(31) ^ seq as u8)
                            .collect();
                        let mut a = original.clone();
                        let mut b = original.clone();
                        other.encrypt_segment(seq, &mut a);
                        reference.encrypt_segment(seq, &mut b);
                        assert_eq!(
                            a, b,
                            "{alg}/{backend} seq={seq} len={len}: ciphertext diverged"
                        );
                        // Cross-backend decrypt closes the loop.
                        reference.decrypt_segment(seq, &mut a);
                        assert_eq!(
                            a, original,
                            "{alg}/{backend} seq={seq} len={len}: roundtrip failed"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn train_matches_sequential_segments_for_every_backend() {
        // `encrypt_train` is a pure batching API: for any backend the
        // output must equal per-segment encryption with the same sequence
        // numbers — including u16 wraparound patterns the pipeline feeds it.
        let key: Vec<u8> = (0..32u8)
            .map(|i| i.wrapping_mul(29).wrapping_add(3))
            .collect();
        let seqs: Vec<u64> = vec![0, 1, 65535, 65536, 7, u32::MAX as u64, 65534, 2, 3, 4];
        let lens = [0usize, 1, 15, 16, 17, 100, 1452, 31, 33, 64];
        for alg in Algorithm::ALL {
            for backend in CipherBackend::ALL {
                let cipher = SegmentCipher::with_backend(alg, &key, backend).unwrap();
                let originals: Vec<Vec<u8>> = lens
                    .iter()
                    .enumerate()
                    .map(|(i, &len)| (0..len).map(|j| (i + j) as u8).collect())
                    .collect();
                let mut batched = originals.clone();
                {
                    let mut views: Vec<&mut [u8]> =
                        batched.iter_mut().map(|s| s.as_mut_slice()).collect();
                    cipher.encrypt_train(&seqs, &mut views);
                }
                for (i, original) in originals.iter().enumerate() {
                    let mut expected = original.clone();
                    cipher.encrypt_segment(seqs[i], &mut expected);
                    assert_eq!(
                        batched[i], expected,
                        "{alg}/{backend} segment {i}: train diverged from sequential"
                    );
                }
                // And the train decrypts itself (involution).
                {
                    let mut views: Vec<&mut [u8]> =
                        batched.iter_mut().map(|s| s.as_mut_slice()).collect();
                    cipher.decrypt_train(&seqs, &mut views);
                }
                assert_eq!(
                    batched, originals,
                    "{alg}/{backend}: train roundtrip failed"
                );
            }
        }
    }

    #[test]
    fn lane_tails_match_reference_segments() {
        // `Fast` sends full 64-segment groups through its algorithm's
        // bitsliced core and the remainder through its table-driven core —
        // on 3DES the four-chain kernel, which refills a lane as its
        // segment ends; `Bitsliced` runs every segment through the
        // bitsliced core. Every train length from empty to past two full
        // lane groups, with ragged and empty segments around the block
        // size, must equal the reference backend's per-segment OFB on both,
        // for every algorithm — across the u16 sequence wrap the pipeline
        // feeds them. Below one lane group, where the table-driven core
        // takes the whole train on `Fast`, every rotation of the lengths
        // is run, so each ordering of long, short and empty segments meets
        // the refill; beyond it, one rotation per length.
        assert_eq!(aes_bitsliced::LANES, des_bitsliced::LANES);
        let lanes = aes_bitsliced::LANES;
        let key: Vec<u8> = (0..32u8)
            .map(|i| i.wrapping_mul(53).wrapping_add(11))
            .collect();
        let max = 2 * lanes + 2;
        let seqs: Vec<u64> = (0..max as u16)
            .map(|i| u64::from(65533u16.wrapping_add(i)))
            .collect();
        for alg in Algorithm::ALL {
            let block = alg.block_size();
            let lens = [0usize, 1, block - 1, block, block + 1, 1399, 1452];
            let reference =
                SegmentCipher::with_backend(alg, &key, CipherBackend::Reference).expect("keyed");
            // Segment `i` of a train rotated by `rotation`, and its
            // reference ciphertext: neither depends on the train's length.
            let segment = |rotation: usize, i: usize| -> Vec<u8> {
                let len = lens[(i + rotation) % lens.len()];
                (0..len).map(|j| (i * 7 + j * 13) as u8).collect()
            };
            let expected: Vec<Vec<Vec<u8>>> = (0..lens.len())
                .map(|rotation| {
                    (0..max)
                        .map(|i| {
                            let mut ct = segment(rotation, i);
                            reference.encrypt_segment(seqs[i], &mut ct);
                            ct
                        })
                        .collect()
                })
                .collect();
            for backend in [CipherBackend::Fast, CipherBackend::Bitsliced] {
                let cipher = SegmentCipher::with_backend(alg, &key, backend).expect("keyed");
                for n in 0..=max {
                    let rotations = if n < lanes {
                        0..lens.len()
                    } else {
                        n % lens.len()..n % lens.len() + 1
                    };
                    for rotation in rotations {
                        let mut train: Vec<Vec<u8>> =
                            (0..n).map(|i| segment(rotation, i)).collect();
                        let mut views: Vec<&mut [u8]> =
                            train.iter_mut().map(Vec::as_mut_slice).collect();
                        cipher.encrypt_train(&seqs[..n], &mut views);
                        for (i, got) in train.iter().enumerate() {
                            assert_eq!(
                                got, &expected[rotation][i],
                                "{alg}/{backend} train of {n}, rotation {rotation}: segment {i} diverged"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn metered_train_counts_match_sequential_metering() {
        use thrifty_telemetry::MetricsRegistry;
        let key = [0x21u8; 32];
        let metrics = MetricsRegistry::enabled();
        let c = SegmentCipher::with_backend(Algorithm::Aes128, &key, CipherBackend::Bitsliced)
            .expect("keyed")
            .metered(&metrics);
        let mut bufs: Vec<Vec<u8>> = vec![vec![1u8; 100], vec![2u8; 17], vec![3u8; 0]];
        {
            let mut views: Vec<&mut [u8]> = bufs.iter_mut().map(|s| s.as_mut_slice()).collect();
            c.encrypt_train(&[5, 6, 7], &mut views);
        }
        let snap = metrics.snapshot();
        assert_eq!(snap.counter("crypto.segments_encrypted.AES128"), 3);
        assert_eq!(snap.counter("crypto.bytes_encrypted.AES128"), 117);
    }

    #[test]
    fn metered_cipher_counts_segments_and_bytes() {
        use thrifty_telemetry::MetricsRegistry;
        let key = [9u8; 32];
        let metrics = MetricsRegistry::enabled();
        let c = SegmentCipher::new(Algorithm::Aes256, &key)
            .expect("32-byte key fits AES-256")
            .metered(&metrics);
        let mut data = vec![0u8; 100];
        c.encrypt_segment(1, &mut data);
        c.encrypt_segment(2, &mut data);
        c.decrypt_segment(2, &mut data);
        let snap = metrics.snapshot();
        assert_eq!(snap.counter("crypto.segments_encrypted.AES256"), 2);
        assert_eq!(snap.counter("crypto.bytes_encrypted.AES256"), 200);
        assert_eq!(snap.counter("crypto.segments_decrypted.AES256"), 1);
        assert_eq!(snap.counter("crypto.bytes_decrypted.AES256"), 100);
        // Metering must not change the keystream.
        let plain = SegmentCipher::new(Algorithm::Aes256, &key).expect("same key");
        let mut a = vec![7u8; 64];
        let mut b = vec![7u8; 64];
        c.encrypt_segment(5, &mut a);
        plain.encrypt_segment(5, &mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn metered_cipher_on_disabled_registry_is_silent() {
        use thrifty_telemetry::MetricsRegistry;
        let metrics = MetricsRegistry::disabled();
        let c = SegmentCipher::new(Algorithm::TripleDes, &[3u8; 32])
            .expect("32-byte key fits 3DES")
            .metered(&metrics);
        let mut data = vec![1u8; 32];
        c.encrypt_segment(0, &mut data);
        assert!(metrics.snapshot().counters.is_empty());
        assert_eq!(c.cipher().algorithm(), Algorithm::TripleDes);
    }

    #[test]
    fn backend_metadata_is_consistent() {
        assert_eq!(CipherBackend::ALL.len(), 3);
        assert_eq!(CipherBackend::Reference.to_string(), "reference");
        assert_eq!(CipherBackend::Fast.to_string(), "fast");
        assert_eq!(CipherBackend::Bitsliced.to_string(), "bitsliced");
        // Every (algorithm, backend) pair must key successfully.
        let key = [0x11u8; 32];
        for alg in Algorithm::ALL {
            for backend in CipherBackend::ALL {
                let c = SegmentCipher::with_backend(alg, &key, backend).unwrap();
                assert_eq!(c.backend(), backend);
            }
        }
    }
}
