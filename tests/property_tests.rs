//! Property-based tests (proptest) over the core data structures and
//! invariants of the whole stack.

use proptest::prelude::*;
use thrifty::analytic::policy::EncryptionMode;
use thrifty::analytic::regression::fit_polynomial;
use thrifty::crypto::{
    Aes128, Aes256, AesBitsliced, AesFast, Algorithm, BlockCipher, CipherBackend, SegmentCipher,
};
use thrifty::net::wire::{RtpHeader, RtpPacket};
use thrifty::queueing::mmpp::{Mmpp2, MmppN};
use thrifty::queueing::service::{ServiceComponent, ServiceDistribution};
use thrifty::video::nal::{parse_annex_b, write_annex_b, NalUnit, NalUnitType};
use thrifty::video::packet::Packetizer;
use thrifty::video::FrameType;

fn algorithm() -> impl Strategy<Value = Algorithm> {
    prop_oneof![
        Just(Algorithm::Aes128),
        Just(Algorithm::Aes256),
        Just(Algorithm::TripleDes),
    ]
}

fn backend() -> impl Strategy<Value = CipherBackend> {
    prop_oneof![
        Just(CipherBackend::Reference),
        Just(CipherBackend::Fast),
        Just(CipherBackend::Bitsliced),
    ]
}

/// One AES block cipher per backend, behind the common [`BlockCipher`]
/// trait — the parameterized matrix the NIST vector tests run over.
fn aes_block_cipher(backend: CipherBackend, key: &[u8]) -> Box<dyn BlockCipher> {
    match backend {
        CipherBackend::Reference => {
            if key.len() == 16 {
                let mut k = [0u8; 16];
                k.copy_from_slice(key);
                Box::new(Aes128::new(&k))
            } else {
                let mut k = [0u8; 32];
                k.copy_from_slice(key);
                Box::new(Aes256::new(&k))
            }
        }
        CipherBackend::Fast => Box::new(AesFast::new(key)),
        CipherBackend::Bitsliced => Box::new(AesBitsliced::new(key)),
    }
}

proptest! {
    /// OFB segment encryption is an involution for every cipher, key,
    /// sequence number and payload.
    #[test]
    fn segment_cipher_roundtrips(
        alg in algorithm(),
        key in proptest::array::uniform32(any::<u8>()),
        seq in any::<u64>(),
        data in proptest::collection::vec(any::<u8>(), 0..2048),
    ) {
        let cipher = SegmentCipher::new(alg, &key).unwrap();
        let mut buf = data.clone();
        cipher.encrypt_segment(seq, &mut buf);
        if data.len() >= 16 {
            // Keystream must actually change non-trivial payloads.
            prop_assert_ne!(&buf, &data);
        }
        cipher.decrypt_segment(seq, &mut buf);
        prop_assert_eq!(buf, data);
    }

    /// Three-way backend differential: the table-driven fast backend and
    /// the constant-time bitsliced backend are bit-exact with the
    /// byte-oriented reference backend — identical ciphertext for every
    /// algorithm, key, sequence number and payload length, and every
    /// backend decrypts what any other encrypted.
    #[test]
    fn cipher_backends_agree(
        alg in algorithm(),
        key in proptest::array::uniform32(any::<u8>()),
        seq in any::<u64>(),
        data in proptest::collection::vec(any::<u8>(), 0..4096),
    ) {
        let reference = SegmentCipher::with_backend(alg, &key, CipherBackend::Reference).unwrap();
        let fast = SegmentCipher::with_backend(alg, &key, CipherBackend::Fast).unwrap();
        let bitsliced = SegmentCipher::with_backend(alg, &key, CipherBackend::Bitsliced).unwrap();
        let mut ct_ref = data.clone();
        reference.encrypt_segment(seq, &mut ct_ref);
        let mut ct_fast = data.clone();
        fast.encrypt_segment(seq, &mut ct_fast);
        let mut ct_bs = data.clone();
        bitsliced.encrypt_segment(seq, &mut ct_bs);
        prop_assert_eq!(&ct_ref, &ct_fast);
        prop_assert_eq!(&ct_ref, &ct_bs);
        // Cross-backend round-trips: any backend undoes any other.
        reference.decrypt_segment(seq, &mut ct_fast);
        prop_assert_eq!(ct_fast, data.clone());
        bitsliced.decrypt_segment(seq, &mut ct_ref);
        prop_assert_eq!(ct_ref, data.clone());
        fast.decrypt_segment(seq, &mut ct_bs);
        prop_assert_eq!(ct_bs, data);
    }

    /// The batched keystream train is byte-identical to per-segment OFB
    /// for every backend, over arbitrary segment counts and ragged
    /// lengths — zero-length segments and non-multiple-of-16 tails
    /// included, trains past two full 64-segment lane groups too — and
    /// `decrypt_train` inverts it.
    #[test]
    fn batched_train_matches_sequential(
        alg in algorithm(),
        backend in backend(),
        key in proptest::array::uniform32(any::<u8>()),
        base_seq in any::<u64>(),
        lens in proptest::collection::vec(0usize..500, 0..140),
    ) {
        let cipher = SegmentCipher::with_backend(alg, &key, backend).unwrap();
        let data: Vec<Vec<u8>> = lens
            .iter()
            .enumerate()
            .map(|(i, &len)| (0..len).map(|j| (i * 31 + j * 7) as u8).collect())
            .collect();
        let seqs: Vec<u64> = (0..lens.len() as u64)
            .map(|i| base_seq.wrapping_add(i))
            .collect();
        let mut train = data.clone();
        {
            let mut views: Vec<&mut [u8]> =
                train.iter_mut().map(|v| v.as_mut_slice()).collect();
            cipher.encrypt_train(&seqs, &mut views);
        }
        let mut sequential = data.clone();
        for (seq, buf) in seqs.iter().zip(sequential.iter_mut()) {
            cipher.encrypt_segment(*seq, buf);
        }
        prop_assert_eq!(&train, &sequential);
        {
            let mut views: Vec<&mut [u8]> =
                train.iter_mut().map(|v| v.as_mut_slice()).collect();
            cipher.decrypt_train(&seqs, &mut views);
        }
        prop_assert_eq!(train, data);
    }

    /// Three-way 3DES train differential across the bitsliced lane
    /// groups: trains past two full 64-segment groups, ragged and empty
    /// segments included, give the same bytes on the reference, fast and
    /// bitsliced backends.
    #[test]
    fn tdes_trains_agree_across_backends(
        key in proptest::array::uniform32(any::<u8>()),
        base_seq in any::<u64>(),
        lens in proptest::collection::vec(0usize..200, 0..140),
    ) {
        let data: Vec<Vec<u8>> = lens
            .iter()
            .enumerate()
            .map(|(i, &len)| (0..len).map(|j| (i * 17 + j * 5) as u8).collect())
            .collect();
        let seqs: Vec<u64> = (0..lens.len() as u64)
            .map(|i| base_seq.wrapping_add(i))
            .collect();
        let trains: Vec<Vec<Vec<u8>>> = CipherBackend::ALL
            .iter()
            .map(|&backend| {
                let cipher =
                    SegmentCipher::with_backend(Algorithm::TripleDes, &key, backend).unwrap();
                let mut train = data.clone();
                let mut views: Vec<&mut [u8]> =
                    train.iter_mut().map(|v| v.as_mut_slice()).collect();
                cipher.encrypt_train(&seqs, &mut views);
                train
            })
            .collect();
        prop_assert_eq!(&trains[0], &trains[1]);
        prop_assert_eq!(&trains[0], &trains[2]);
    }

    /// Cutting a train into consecutive calls changes no byte, for every
    /// algorithm and backend: the pipeline's lane groups cut trains at
    /// 64-segment boundaries and cipher a train that straddles a cut in
    /// two calls.
    #[test]
    fn split_train_matches_whole_train(
        alg in algorithm(),
        backend in backend(),
        key in proptest::array::uniform32(any::<u8>()),
        base_seq in any::<u64>(),
        lens in proptest::collection::vec(0usize..300, 0..140),
        cuts in proptest::collection::vec(any::<u16>(), 0..5),
    ) {
        let cipher = SegmentCipher::with_backend(alg, &key, backend).unwrap();
        let data: Vec<Vec<u8>> = lens
            .iter()
            .enumerate()
            .map(|(i, &len)| (0..len).map(|j| (i * 29 + j * 3) as u8).collect())
            .collect();
        let seqs: Vec<u64> = (0..lens.len() as u64)
            .map(|i| base_seq.wrapping_add(i))
            .collect();
        let mut whole = data.clone();
        {
            let mut views: Vec<&mut [u8]> = whole.iter_mut().map(|v| v.as_mut_slice()).collect();
            cipher.encrypt_train(&seqs, &mut views);
        }
        let mut bounds: Vec<usize> = cuts
            .iter()
            .map(|&c| usize::from(c) % (lens.len() + 1))
            .collect();
        bounds.push(0);
        bounds.push(lens.len());
        bounds.sort_unstable();
        let mut split = data;
        {
            let mut views: Vec<&mut [u8]> = split.iter_mut().map(|v| v.as_mut_slice()).collect();
            for pair in bounds.windows(2) {
                cipher.encrypt_train(&seqs[pair[0]..pair[1]], &mut views[pair[0]..pair[1]]);
            }
        }
        prop_assert_eq!(whole, split);
    }

    /// Block encrypt/decrypt are inverse for random blocks and keys.
    #[test]
    fn block_ciphers_invert(
        key in proptest::array::uniform32(any::<u8>()),
        block16 in proptest::array::uniform16(any::<u8>()),
        block8 in proptest::array::uniform8(any::<u8>()),
    ) {
        let aes = thrifty::crypto::Aes256::new(&key);
        let mut b = block16;
        aes.encrypt_block(&mut b);
        aes.decrypt_block(&mut b);
        prop_assert_eq!(b, block16);

        let mut k24 = [0u8; 24];
        k24.copy_from_slice(&key[..24]);
        let tdes = thrifty::crypto::TripleDes::new(&k24);
        let mut b = block8;
        tdes.encrypt_block(&mut b);
        tdes.decrypt_block(&mut b);
        prop_assert_eq!(b, block8);
    }

    /// Annex-B serialisation round-trips arbitrary payloads, including ones
    /// full of start-code-like byte runs.
    #[test]
    fn nal_roundtrips(
        payloads in proptest::collection::vec(
            proptest::collection::vec(prop_oneof![Just(0u8), Just(1u8), Just(3u8), any::<u8>()], 0..300),
            1..8,
        ),
        ref_idc in 0u8..4,
    ) {
        let units: Vec<NalUnit> = payloads
            .iter()
            .enumerate()
            .map(|(i, p)| NalUnit::new(
                ref_idc,
                if i % 2 == 0 { NalUnitType::IdrSlice } else { NalUnitType::NonIdrSlice },
                p.clone(),
            ))
            .collect();
        let stream = write_annex_b(&units);
        let parsed = parse_annex_b(&stream).unwrap();
        prop_assert_eq!(parsed, units);
    }

    /// The in-place Annex-B check never changes a reassembly verdict:
    /// over arbitrary payloads, header bytes and fragment splits, with or
    /// without a mutation of the written stream, `annex_b_matches ||
    /// parse-and-compare` says "intact" exactly when parse-and-compare
    /// alone does — and on an unmutated stream the check itself settles
    /// it whenever the writer's stream parses back.
    #[test]
    fn annex_b_check_agrees_with_parse_and_compare(
        payload in proptest::collection::vec(
            prop_oneof![Just(0u8), Just(1u8), Just(3u8), any::<u8>()],
            0..300,
        ),
        ref_idc in 0u8..4,
        code in prop_oneof![Just(0u8), Just(1u8), Just(5u8), 0u8..32],
        splits in proptest::collection::vec(0usize..400, 0..6),
        mutation in 0usize..9,
        at in any::<usize>(),
        flip in 1u8..=255,
    ) {
        let unit = NalUnit::new(ref_idc, NalUnitType::Other(code), payload);
        let mut stream = write_annex_b(std::slice::from_ref(&unit));
        let body = 5..stream.len();
        match mutation {
            1 => stream[4] ^= flip,
            2 if !body.is_empty() => stream[body.start + at % body.len()] ^= flip,
            3 => {
                let epbs: Vec<usize> = body.filter(|&i| stream[i] == 3).collect();
                if !epbs.is_empty() {
                    stream.remove(epbs[at % epbs.len()]);
                }
            }
            4 => stream.insert(5 + at % (stream.len() - 4), 3),
            5 => {
                stream.remove(0);
            }
            6 => stream.extend(std::iter::repeat_n(0, 1 + at % 3)),
            _ => {}
        }
        let mut cuts: Vec<usize> = splits.iter().map(|&c| c.min(stream.len())).collect();
        cuts.sort_unstable();
        let mut fragments: Vec<&[u8]> = Vec::new();
        let mut from = 0;
        for cut in cuts.into_iter().chain([stream.len()]) {
            fragments.push(&stream[from..cut]);
            from = cut;
        }
        let extra = [3u8, 0, 1];
        match mutation {
            7 => {
                fragments.remove(at % fragments.len());
            }
            8 => fragments.insert(at % (fragments.len() + 1), &extra[..1 + at % 3]),
            _ => {}
        }
        let parses_back = matches!(
            parse_annex_b(&fragments.concat()).as_deref(),
            Ok([parsed]) if parsed.payload == unit.payload
        );
        let matches = thrifty::video::nal::annex_b_matches(&unit, fragments.iter().copied());
        prop_assert_eq!(matches || parses_back, parses_back);
        if mutation == 0 && parses_back {
            prop_assert!(matches, "an unmutated stream that parses back must match");
        }
    }

    /// RTP header fields survive the wire for all field values.
    #[test]
    fn rtp_roundtrips(
        marker in any::<bool>(),
        payload_type in 0u8..128,
        sequence in any::<u16>(),
        timestamp in any::<u32>(),
        ssrc in any::<u32>(),
        payload in proptest::collection::vec(any::<u8>(), 0..1500),
    ) {
        let header = RtpHeader { marker, payload_type, sequence, timestamp, ssrc };
        let wire = header.emit(&payload);
        let pkt = RtpPacket::parse(wire.as_slice()).unwrap();
        prop_assert_eq!(pkt.header(), header);
        prop_assert_eq!(pkt.payload(), payload.as_slice());
    }

    /// The packetizer conserves bytes and respects the MTU for any frame
    /// size distribution.
    #[test]
    fn packetizer_conserves_bytes(
        sizes in proptest::collection::vec(0usize..40_000, 1..60),
        mtu in 100usize..3000,
    ) {
        let frames: Vec<thrifty::video::encoder::EncodedFrame> = sizes
            .iter()
            .enumerate()
            .map(|(i, &bytes)| thrifty::video::encoder::EncodedFrame {
                index: i,
                ftype: if i % 10 == 0 { FrameType::I } else { FrameType::P },
                bytes,
            })
            .collect();
        let stream = thrifty::video::encoder::EncodedStream {
            frames,
            gop_size: 10,
            fps: 30.0,
            motion: thrifty::video::MotionLevel::Medium,
        };
        let packets = Packetizer::new(mtu).packetize(&stream);
        let total: usize = packets.iter().map(|p| p.bytes).sum();
        prop_assert_eq!(total, stream.total_bytes());
        prop_assert!(packets.iter().all(|p| p.bytes <= mtu));
        // Fragment numbering is dense per frame.
        for w in packets.windows(2) {
            if w[0].frame_index == w[1].frame_index {
                prop_assert_eq!(w[1].fragment, w[0].fragment + 1);
            }
        }
    }

    /// MMPP equilibrium is a proper distribution and a left null vector of
    /// the generator, for all positive parameters.
    #[test]
    fn mmpp_equilibrium_invariants(
        p1 in 0.01f64..1000.0,
        p2 in 0.01f64..1000.0,
        l1 in 0.0f64..10_000.0,
        l2 in 0.0f64..10_000.0,
    ) {
        let m = Mmpp2::new(p1, p2, l1, l2);
        let pi = m.equilibrium();
        prop_assert!((pi[0] + pi[1] - 1.0).abs() < 1e-9);
        prop_assert!(pi[0] >= 0.0 && pi[1] >= 0.0);
        let res = MmppN::from(m).generator.vec_mul(&pi);
        prop_assert!(res[0].abs() < 1e-6 && res[1].abs() < 1e-6);
        let rate = m.mean_rate();
        prop_assert!(rate >= l1.min(l2) - 1e-9 && rate <= l1.max(l2) + 1e-9);
    }

    /// Service distributions: LST(0) = 1, mean matches derivative, and
    /// moments are monotone under convolution.
    #[test]
    fn service_distribution_invariants(
        mean1 in 1e-5f64..1e-2,
        std1 in 0.0f64..1e-3,
        mean2 in 1e-5f64..1e-2,
        p_s in 0.3f64..1.0,
        rate in 100.0f64..100_000.0,
    ) {
        let d = ServiceDistribution::gaussian(mean1, std1)
            .plus(ServiceComponent::GaussianMixture(vec![(1.0, mean2, 0.0)]))
            .plus(ServiceComponent::GeometricExponential { success_prob: p_s, rate });
        prop_assert!((d.lst(0.0) - 1.0).abs() < 1e-9);
        // Numeric derivative of the LST at 0 equals −mean.
        let h = 1e-7 / d.mean().max(1e-6);
        let deriv = (d.lst(h) - d.lst(-h)) / (2.0 * h);
        prop_assert!((-deriv - d.mean()).abs() / d.mean() < 1e-3);
        // E[T²] ≥ E[T]² (variance nonnegative).
        prop_assert!(d.moment2() + 1e-18 >= d.mean() * d.mean());
    }

    /// Polynomial fitting interpolates exactly when exactly determined and
    /// stays finite on the fitted range.
    #[test]
    fn polynomial_fit_interpolates(
        ys in proptest::collection::vec(0.0f64..1e4, 4..10),
    ) {
        let xs: Vec<f64> = (1..=ys.len()).map(|i| i as f64).collect();
        let degree = ys.len() - 1;
        let p = fit_polynomial(&xs, &ys, degree.min(5));
        for (&x, &y) in xs.iter().zip(ys.iter()) {
            let v = p.eval(x);
            prop_assert!(v.is_finite());
            if degree <= 5 {
                prop_assert!((v - y).abs() < 1e-3 * y.abs().max(1.0),
                    "interpolation at {x}: {v} vs {y}");
            }
        }
    }

    /// Exp-Golomb codes round-trip arbitrary value sequences.
    #[test]
    fn exp_golomb_roundtrips(
        ues in proptest::collection::vec(any::<u32>(), 1..50),
        ses in proptest::collection::vec(-10_000i32..10_000, 1..50),
    ) {
        use thrifty::video::bitstream::{BitReader, BitWriter};
        let mut w = BitWriter::new();
        for &v in &ues {
            // keep within the 32-bit code budget
            w.put_ue(v / 2);
        }
        for &v in &ses {
            w.put_se(v);
        }
        w.put_trailing_bits();
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        for &v in &ues {
            prop_assert_eq!(r.ue().unwrap(), v / 2);
        }
        for &v in &ses {
            prop_assert_eq!(r.se().unwrap(), v);
        }
    }

    /// Padding policies never shrink payloads, never exceed the MTU cap,
    /// and MTU padding makes every size identical.
    #[test]
    fn padding_policy_invariants(
        sizes in proptest::collection::vec(1usize..1460, 1..100),
        quantum in 1usize..1460,
    ) {
        use thrifty::net::traffic::PaddingPolicy;
        let mtu = 1460;
        for &b in &sizes {
            for policy in [
                PaddingPolicy::None,
                PaddingPolicy::ToMtu,
                PaddingPolicy::ToMultiple(quantum),
            ] {
                let padded = policy.padded_size(b, mtu);
                prop_assert!(padded >= b, "{policy:?} shrank {b} to {padded}");
                prop_assert!(padded <= mtu.max(b));
            }
            prop_assert_eq!(PaddingPolicy::ToMtu.padded_size(b, mtu), mtu);
        }
        let overhead = PaddingPolicy::ToMultiple(quantum).overhead(&sizes, mtu);
        prop_assert!(overhead >= 0.0);
    }

    /// The waiting-time CDF from transform inversion is monotone in t for
    /// random stable queues.
    #[test]
    fn wait_cdf_is_monotone(
        lambda in 10.0f64..200.0,
        mean_service in 1e-4f64..4e-3,
    ) {
        use thrifty::queueing::inversion::WaitDistribution;
        use thrifty::queueing::mmpp::Mmpp2;
        use thrifty::queueing::service::ServiceDistribution;
        use thrifty::queueing::solver::MmppG1;
        prop_assume!(lambda * mean_service < 0.85); // keep the queue stable
        let service = ServiceDistribution::gaussian(mean_service, mean_service / 10.0);
        let queue = MmppG1::new(Mmpp2::poisson(lambda).into(), service);
        let solution = queue.solve().unwrap();
        let dist = WaitDistribution::new(&queue, &solution);
        let mut last = -1e-6;
        for t in [1e-4, 1e-3, 5e-3, 2e-2, 1e-1] {
            let f = dist.cdf(t);
            prop_assert!((0.0..=1.0).contains(&f));
            // Allow the sub-1e-3 Gibbs ripple the inversion leaves near
            // the W = 0 atom of lightly loaded queues.
            prop_assert!(f >= last - 2e-3, "CDF not monotone at t={t}");
            last = f;
        }
    }

    /// Encrypted fraction q^(P) is a probability and monotone in α.
    #[test]
    fn encrypted_fraction_is_probability(p_i in 0.0f64..=1.0, alpha in 0.0f64..=1.0) {
        for mode in [
            EncryptionMode::None,
            EncryptionMode::All,
            EncryptionMode::IFrames,
            EncryptionMode::PFrames,
            EncryptionMode::IPlusFractionP(alpha),
            EncryptionMode::FractionI(alpha),
        ] {
            let q = mode.encrypted_fraction(p_i);
            prop_assert!((0.0..=1.0).contains(&q), "{mode}: {q}");
        }
        let q1 = EncryptionMode::IPlusFractionP(alpha * 0.5).encrypted_fraction(p_i);
        let q2 = EncryptionMode::IPlusFractionP(alpha).encrypted_fraction(p_i);
        prop_assert!(q2 >= q1 - 1e-12);
    }
}

// ---- NIST AES vectors across the full backend matrix ----------------------

fn hex(s: &str) -> Vec<u8> {
    assert!(s.len().is_multiple_of(2), "odd hex string");
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).expect("hex digit"))
        .collect()
}

/// NIST SP 800-38A Appendix F.1 multi-block ECB known-answer vectors
/// (the CAVP "MMT" shape: several chained blocks under one key), run
/// against **every** backend through the shared [`BlockCipher`] matrix.
/// F.1.1 covers AES-128, F.1.5 covers AES-256.
#[test]
fn nist_sp800_38a_multiblock_vectors_hold_for_every_backend() {
    let pt = hex(concat!(
        "6bc1bee22e409f96e93d7e117393172a",
        "ae2d8a571e03ac9c9eb76fac45af8e51",
        "30c81c46a35ce411e5fbc1191a0a52ef",
        "f69f2445df4f9b17ad2b417be66c3710"
    ));
    let cases = [
        (
            // F.1.1 ECB-AES128.Encrypt
            hex("2b7e151628aed2a6abf7158809cf4f3c"),
            hex(concat!(
                "3ad77bb40d7a3660a89ecaf32466ef97",
                "f5d3d58503b9699de785895a96fdbaaf",
                "43b1cd7f598ece23881b00e3ed030688",
                "7b0c785e27e8ad3f8223207104725dd4"
            )),
        ),
        (
            // F.1.5 ECB-AES256.Encrypt
            hex(concat!(
                "603deb1015ca71be2b73aef0857d7781",
                "1f352c073b6108d72d9810a30914dff4"
            )),
            hex(concat!(
                "f3eed1bdb5d2a03c064b5a7e3db181f8",
                "591ccb10d410ed26dc5ba74a31362870",
                "b6ed21b99ca6f4f9f153e7b1beafed1d",
                "23304b7a39f9f3ff067d8d8f9e24ecc7"
            )),
        ),
    ];
    for (key, expect) in &cases {
        for backend in CipherBackend::ALL {
            let cipher = aes_block_cipher(backend, key);
            let mut got = pt.clone();
            for block in got.chunks_mut(16) {
                cipher.encrypt_block(block);
            }
            assert_eq!(
                &got,
                expect,
                "AES-{} multi-block ECB mismatch on backend {}",
                key.len() * 8,
                backend.name()
            );
            // And the inverse direction recovers the plaintext.
            for block in got.chunks_mut(16) {
                cipher.decrypt_block(block);
            }
            assert_eq!(&got, &pt, "backend {} failed to invert", backend.name());
        }
    }
}

/// The CAVP ECB Monte-Carlo schedule (inner chain of 1000 encryptions,
/// NIST key-update rule between outer rounds), run for 10 outer rounds.
/// All three backends must walk the identical chain, and the endpoint is
/// pinned to a constant produced by the FIPS-197-validated reference
/// backend — a million-block differential that would catch a key-schedule
/// or round-function slip no single-vector test reaches.
#[test]
fn nist_cavp_monte_carlo_chains_agree_across_backends() {
    fn mct(backend: CipherBackend, key_len: usize) -> ([u8; 16], Vec<u8>) {
        let mut key: Vec<u8> = (0..key_len as u8).collect();
        let mut pt = [0xA5u8; 16];
        let mut ct = [0u8; 16];
        let mut ct_prev = [0u8; 16];
        for _outer in 0..10 {
            let cipher = aes_block_cipher(backend, &key);
            for _inner in 0..1000 {
                ct_prev = ct;
                let mut block = pt;
                cipher.encrypt_block(&mut block);
                ct = block;
                pt = ct;
            }
            // CAVP key update: fold the last ciphertext(s) into the key.
            match key_len {
                16 => {
                    for (k, c) in key.iter_mut().zip(ct.iter()) {
                        *k ^= c;
                    }
                }
                _ => {
                    let feedback: Vec<u8> =
                        ct_prev.iter().chain(ct.iter()).copied().collect();
                    for (k, c) in key.iter_mut().zip(feedback.iter()) {
                        *k ^= c;
                    }
                }
            }
            pt = ct;
        }
        (ct, key)
    }
    // Endpoints pinned from the reference backend (FIPS-197 validated by
    // the crypto crate's own known-answer tests).
    let pinned: [(usize, &str, &str); 2] = [
        (
            16,
            "9e6618c616373be1c772473b3f2d257f",
            "8246f3f0d0026f858bdef42b23e3dbc4",
        ),
        (
            32,
            "b9676808c862ed1f9c657586b91ee243",
            "36968c5e950ec89b7c0f102e4898e15eeb9fb90bcd561876b09f3adbfbb62759",
        ),
    ];
    for (key_len, pin_ct, pin_key) in pinned {
        let (ref_ct, ref_key) = mct(CipherBackend::Reference, key_len);
        let to_hex =
            |b: &[u8]| b.iter().map(|x| format!("{x:02x}")).collect::<String>();
        assert_eq!(
            to_hex(&ref_ct),
            pin_ct,
            "AES-{} MCT endpoint moved (reference)",
            key_len * 8
        );
        assert_eq!(
            to_hex(&ref_key),
            pin_key,
            "AES-{} MCT final key moved (reference)",
            key_len * 8
        );
        for backend in [CipherBackend::Fast, CipherBackend::Bitsliced] {
            let (ct, key) = mct(backend, key_len);
            assert_eq!(
                (ct, &key),
                (ref_ct, &ref_key),
                "AES-{} MCT diverged on backend {}",
                key_len * 8,
                backend.name()
            );
        }
    }
}
