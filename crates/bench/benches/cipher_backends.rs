//! Reference vs fast vs bitsliced cipher backend on MTU-sized segments —
//! the measurement behind the Performance section of the README and the
//! `relative_cost` recalibration note in EXPERIMENTS.md.
//!
//! The scalar backends are timed per segment; the bitsliced backend is
//! timed per 64-segment keystream train, the unit the sim pipeline's lane
//! groups feed it.
//!
//! Besides timing each (algorithm × backend) pair, the harness ends with a
//! sanity gate: the fast backend must beat the reference one for every
//! algorithm, fast 3DES (the pair with the widest measured gap) must hold
//! at least an 8× lead, fast AES-256 must hold at least a 3.3× lead (it
//! drops under that when its T-table rounds compile to gathers), fast 3DES
//! on a 12-segment train (one I-frame) must run at least 1.5× its
//! per-segment rate, bitsliced and fast 3DES on a 64-segment train must
//! each run at least 3× the fast 3DES per-segment rate, fast AES-256 on a
//! 64-segment train must run at least 1.2× its per-segment rate, and
//! batched bitsliced AES-128 must at least match the fast T-table backend.
//! The 3DES and AES-256 train gates sample their shapes in turn, 300
//! rounds each, apart from the pair matrix. The gate runs in smoke mode
//! too, so `cargo bench -p thrifty-bench -- --test` catches a fast path
//! (or a train path) that quietly regressed.

use std::time::{Duration, Instant};

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use thrifty::crypto::aes_bitsliced::LANES;
use thrifty::crypto::{des_bitsliced, Algorithm, CipherBackend, SegmentCipher};
use thrifty_bench::{measure_cipher_throughput, SEGMENT_LEN};

fn backend_matrix(c: &mut Criterion) {
    let mut group = c.benchmark_group("cipher_backends_1452B_segment");
    let key = [7u8; 32];
    for alg in Algorithm::ALL {
        for backend in CipherBackend::ALL {
            let cipher = SegmentCipher::with_backend(alg, &key, backend).unwrap();
            if backend == CipherBackend::Bitsliced {
                // Batched train: 64 segments per call, how the pipeline
                // actually drives this backend.
                group.throughput(Throughput::Bytes((LANES * SEGMENT_LEN) as u64));
                let id = format!("{}/{}_train64", alg.name(), backend.name());
                group.bench_function(&id, |b| {
                    let mut bufs = vec![vec![0xA5u8; SEGMENT_LEN]; LANES];
                    let seqs: Vec<u64> = (0..LANES as u64).collect();
                    b.iter(|| {
                        let mut views: Vec<&mut [u8]> =
                            bufs.iter_mut().map(|v| v.as_mut_slice()).collect();
                        cipher.encrypt_train(black_box(&seqs), &mut views);
                        black_box(&bufs);
                    })
                });
            } else {
                group.throughput(Throughput::Bytes(SEGMENT_LEN as u64));
                let id = format!("{}/{}", alg.name(), backend.name());
                group.bench_function(&id, |b| {
                    let mut buf = vec![0xA5u8; SEGMENT_LEN];
                    b.iter(|| {
                        cipher.encrypt_segment(black_box(42), &mut buf);
                        black_box(&buf);
                    })
                });
            }
        }
    }
    group.finish();
}

fn backend_ratio_gate(_c: &mut Criterion) {
    let measured = measure_cipher_throughput(SEGMENT_LEN, Duration::from_millis(60));
    let rate = |alg: Algorithm, backend: CipherBackend| {
        measured
            .iter()
            .find(|m| m.algorithm == alg && m.backend == backend)
            .expect("matrix covers every pair")
            .bytes_per_sec
    };
    for alg in Algorithm::ALL {
        let fast = rate(alg, CipherBackend::Fast);
        let reference = rate(alg, CipherBackend::Reference);
        println!(
            "backend_ratio/{}: fast {:.1} MB/s vs reference {:.1} MB/s ({:.1}x)",
            alg.name(),
            fast / 1e6,
            reference / 1e6,
            fast / reference
        );
        assert!(
            fast > reference,
            "{}: fast backend ({fast:.0} B/s) must outrun reference ({reference:.0} B/s)",
            alg.name()
        );
    }
    // The widest measured gap: the permuted-domain fast core reads ≈12×
    // the reference on x86 (≈25 vs 2.0 MB/s), where the per-pass IP/FP
    // core it replaced read ≈4.6×. 8× keeps slack for timer noise yet
    // fires if the fast path slides back towards the old core.
    let fast_3des = rate(Algorithm::TripleDes, CipherBackend::Fast);
    let ref_3des = rate(Algorithm::TripleDes, CipherBackend::Reference);
    assert!(
        fast_3des >= 8.0 * ref_3des,
        "fast 3DES lost its table-driven lead: {fast_3des:.0} vs {ref_3des:.0} B/s"
    );
    // Fast AES-256 with scalar T-table rounds reads ≈3.8–4.6× the reference
    // on a 2-vCPU AVX-512 x86-64 VM; when LLVM packed the round's table
    // loads into `vpgatherdd` under `target-cpu=native` it read ≈2.7–3.0×.
    // 3.3× sits between the two, so the gate fires if the gathers return.
    let fast_256 = rate(Algorithm::Aes256, CipherBackend::Fast);
    let ref_256 = rate(Algorithm::Aes256, CipherBackend::Reference);
    assert!(
        fast_256 >= 3.3 * ref_256,
        "fast AES-256 lost its scalar-round lead: {fast_256:.0} vs {ref_256:.0} B/s"
    );
    // Fast 3DES interleaves the OFB chains of a train's segments, which a
    // single latency-bound chain leaves idle (measured ≈1.8× on a 2-vCPU
    // x86-64 VM). 1.5× keeps slack for timer noise yet fires if the lane
    // kernel is lost or compiles into something no faster than its chains.
    let tdes = tdes_train_rates();
    println!(
        "backend_ratio/3DES: fast train{I_FRAME_SEGMENTS} {:.1} MB/s vs per segment {:.1} MB/s ({:.1}x)",
        tdes.fast_i_frame / 1e6,
        tdes.per_segment / 1e6,
        tdes.fast_i_frame / tdes.per_segment
    );
    assert!(
        tdes.fast_i_frame >= 1.5 * tdes.per_segment,
        "fast 3DES lost its train lead: {:.0} vs {:.0} B/s per segment",
        tdes.fast_i_frame,
        tdes.per_segment
    );
    // A full 64-segment train, the group the pipeline feeds the cipher,
    // against fast 3DES one segment at a time: on `Bitsliced`, and on
    // `Fast`, whose train path must hand the whole group to the same
    // bitsliced core (the pipeline runs `Fast`). 3× sits below the
    // lowest read on a 2-vCPU x86-64 VM (see EXPERIMENTS.md "Cipher
    // backend recalibration") yet fires if the S-box circuits or the lane
    // layout slide back towards the four-chain table kernel (≈1.8×), or
    // if fast 3DES stops routing full groups to the bitsliced core.
    for (label, group_rate) in [
        ("bitsliced", tdes.bitsliced_group),
        ("fast", tdes.fast_group),
    ] {
        println!(
            "backend_ratio/3DES: {label} train{TDES_GROUP} {:.1} MB/s vs fast per segment {:.1} MB/s ({:.1}x)",
            group_rate / 1e6,
            tdes.per_segment / 1e6,
            group_rate / tdes.per_segment
        );
        assert!(
            group_rate >= 3.0 * tdes.per_segment,
            "{label} 3DES on a {TDES_GROUP}-segment train lost its lane lead: {group_rate:.0} vs {:.0} B/s per segment",
            tdes.per_segment
        );
    }
    // Fast AES-256 on a full 64-segment train, the group the pipeline
    // feeds the cipher, against fast AES-256 one segment at a time: the
    // train must go through the bitsliced core (≈2× the T-table rate in
    // `BENCH_cipher.json`). 1.2× keeps slack for timer noise yet fires if
    // fast AES stops routing full groups to the bitsliced core and loops
    // over its T-table segments (≈1.0×).
    let aes = SegmentCipher::new(Algorithm::Aes256, &[7u8; 32]).expect("keyed");
    let [per_segment, group] = train_rates([(&aes, 1, LANES), (&aes, LANES, 1)]);
    println!(
        "backend_ratio/AES256: fast train{LANES} {:.1} MB/s vs per segment {:.1} MB/s ({:.1}x)",
        group / 1e6,
        per_segment / 1e6,
        group / per_segment
    );
    assert!(
        group >= 1.2 * per_segment,
        "fast AES-256 on a {LANES}-segment train lost its lane lead: {group:.0} vs {per_segment:.0} B/s per segment"
    );
    // Batched bitsliced AES-128 (64-segment trains, as the pipeline runs
    // it) must at least match the fast T-table backend — its reason to
    // exist is being both constant-time *and* faster. The committed
    // BENCH_cipher.json records the full ≥2× headline; the runtime gate
    // keeps slack for loaded CI machines.
    let bitsliced_128 = rate(Algorithm::Aes128, CipherBackend::Bitsliced);
    let fast_128 = rate(Algorithm::Aes128, CipherBackend::Fast);
    println!(
        "backend_ratio/AES128: bitsliced(train) {:.1} MB/s vs fast {:.1} MB/s ({:.1}x)",
        bitsliced_128 / 1e6,
        fast_128 / 1e6,
        bitsliced_128 / fast_128
    );
    assert!(
        bitsliced_128 >= fast_128,
        "bitsliced AES-128 lost its batched lead: {bitsliced_128:.0} vs {fast_128:.0} B/s"
    );
}

/// Segments in one I-frame's packet train on the pipeline's MTU.
const I_FRAME_SEGMENTS: usize = 12;

/// Segments in one full 3DES lane group, as the pipeline cuts them.
const TDES_GROUP: usize = des_bitsliced::LANES;

/// 3DES throughput in B/s on MTU segments, in the shapes the gate
/// compares.
struct TdesRates {
    /// Fast 3DES, one segment per call.
    per_segment: f64,
    /// Fast 3DES, one I-frame train per call (the four-chain table kernel).
    fast_i_frame: f64,
    /// Fast 3DES, one full lane group per call.
    fast_group: f64,
    /// Bitsliced 3DES, one full lane group per call.
    bitsliced_group: f64,
}

/// Alternating samples [`train_rates`] takes of each shape.
const TRAIN_ROUNDS: usize = 300;

/// Measure [`TdesRates`]: each shape encrypts the same 48–64 segments per
/// sample.
fn tdes_train_rates() -> TdesRates {
    let key = [7u8; 32];
    let fast = SegmentCipher::new(Algorithm::TripleDes, &key).expect("keyed");
    let bitsliced =
        SegmentCipher::with_backend(Algorithm::TripleDes, &key, CipherBackend::Bitsliced)
            .expect("keyed");
    let [per_segment, fast_i_frame, fast_group, bitsliced_group] = train_rates([
        (&fast, 1, TDES_GROUP),
        (&fast, I_FRAME_SEGMENTS, 4),
        (&fast, TDES_GROUP, 1),
        (&bitsliced, TDES_GROUP, 1),
    ]);
    TdesRates {
        per_segment,
        fast_i_frame,
        fast_group,
        bitsliced_group,
    }
}

/// Throughput in B/s on MTU segments of each `(cipher, segments per call,
/// calls per sample)` shape, per-segment shapes with 1 segment per call.
/// The shapes are sampled in turn, [`TRAIN_ROUNDS`] times each, and each
/// keeps its best sample, so a slow phase of the host hits all of them
/// alike and the ratios between them hold.
fn train_rates<const N: usize>(shapes: [(&SegmentCipher, usize, usize); N]) -> [f64; N] {
    let most = shapes
        .iter()
        .map(|&(_, segments, calls)| segments * calls)
        .max()
        .unwrap_or(0);
    let mut bufs = vec![vec![0xA5u8; SEGMENT_LEN]; most];
    let seqs: Vec<u64> = (0..most as u64).collect();
    let mut best = [f64::INFINITY; N];
    for _ in 0..TRAIN_ROUNDS {
        for (&(cipher, segments, calls), best) in shapes.iter().zip(best.iter_mut()) {
            let start = Instant::now();
            for call in 0..calls {
                let at = call * segments;
                if segments == 1 {
                    cipher.encrypt_segment(black_box(seqs[at]), &mut bufs[at]);
                } else {
                    let mut views: Vec<&mut [u8]> = bufs[at..at + segments]
                        .iter_mut()
                        .map(|v| v.as_mut_slice())
                        .collect();
                    cipher.encrypt_train(black_box(&seqs[at..at + segments]), &mut views);
                }
            }
            black_box(&bufs);
            *best = best.min(start.elapsed().as_secs_f64() / (segments * calls) as f64);
        }
    }
    best.map(|seconds_per_segment| SEGMENT_LEN as f64 / seconds_per_segment)
}

criterion_group! {
    name = benches;
    config = Criterion::default().measurement_time(Duration::from_millis(200));
    targets = backend_matrix, backend_ratio_gate
}
criterion_main!(benches);
