//! Criterion benches for the primitives every experiment leans on:
//! cipher throughput (the quantity behind the paper's delay/energy gaps),
//! bitstream handling, packetization, and the analytic solvers.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use thrifty::analytic::params::{ScenarioParams, SAMSUNG_GALAXY_S2};
use thrifty::analytic::policy::{EncryptionMode, Policy};
use thrifty::analytic::regression::{fit_polynomial, SceneDistortion};
use thrifty::crypto::{Algorithm, SegmentCipher};
use thrifty::net::dcf::{DcfModel, PhyParams};
use thrifty::queueing::mmpp::Mmpp2;
use thrifty::queueing::service::ServiceDistribution;
use thrifty::queueing::solver::MmppG1;
use thrifty::video::motion::MotionLevel;
use thrifty::video::nal::{parse_annex_b, write_annex_b, NalUnit};
use thrifty::video::packet::Packetizer;
use thrifty::video::scene::{SceneConfig, SceneGenerator};

fn cipher_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("cipher_throughput_mtu_segment");
    group.throughput(Throughput::Bytes(1460));
    let key = [7u8; 32];
    for alg in Algorithm::ALL {
        let cipher = SegmentCipher::new(alg, &key).unwrap();
        group.bench_function(alg.name(), |b| {
            let mut buf = vec![0xA5u8; 1460];
            b.iter(|| {
                cipher.encrypt_segment(black_box(42), &mut buf);
                black_box(&buf);
            })
        });
    }
    group.finish();
}

fn nal_bitstream(c: &mut Criterion) {
    let units: Vec<NalUnit> = (0..30)
        .map(|i| NalUnit::synthetic_slice(i, i % 30 == 0, if i % 30 == 0 { 15_000 } else { 900 }))
        .collect();
    let stream = write_annex_b(&units);
    let mut group = c.benchmark_group("nal");
    group.throughput(Throughput::Bytes(stream.len() as u64));
    group.bench_function("write_annex_b_1s_of_video", |b| {
        b.iter(|| black_box(write_annex_b(black_box(&units))))
    });
    group.bench_function("parse_annex_b_1s_of_video", |b| {
        b.iter(|| black_box(parse_annex_b(black_box(&stream)).unwrap()))
    });
    group.finish();
}

fn packetizer(c: &mut Criterion) {
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(1);
    let stream = thrifty::video::encoder::StatisticalEncoder::new(MotionLevel::High, 30)
        .encode(300, &mut rng);
    c.bench_function("packetize_300_frames", |b| {
        b.iter(|| black_box(Packetizer::default().packetize(black_box(&stream))))
    });
}

fn solvers(c: &mut Criterion) {
    c.bench_function("dcf_fixed_point_n5", |b| {
        b.iter(|| black_box(DcfModel::new(5, 0.02, PhyParams::g_54mbps()).solve()))
    });
    let mmpp = Mmpp2::new(100.0, 10.0, 900.0, 60.0);
    let service = ServiceDistribution::gaussian(0.9e-3, 0.9e-4);
    c.bench_function("mmpp_g1_solver", |b| {
        b.iter(|| black_box(MmppG1::new(mmpp.into(), service.clone()).solve().unwrap()))
    });
    let params = ScenarioParams::calibrated(MotionLevel::High, 30, SAMSUNG_GALAXY_S2, 5, 0.92);
    let scene = SceneDistortion::measure(MotionLevel::High, 60, 12, 3);
    let policy = Policy::new(Algorithm::Aes256, EncryptionMode::IFrames);
    c.bench_function("distortion_state_chain", |b| {
        b.iter(|| {
            black_box(
                thrifty::analytic::distortion::DistortionModel::new(&params, &scene).predict(
                    policy,
                    thrifty::analytic::distortion::Observer::Eavesdropper,
                ),
            )
        })
    });
    let xs: Vec<f64> = (1..=12).map(|i| i as f64).collect();
    let ys: Vec<f64> = xs.iter().map(|x| 3.0 * x + 0.2 * x * x).collect();
    c.bench_function("degree5_regression", |b| {
        b.iter(|| black_box(fit_polynomial(black_box(&xs), black_box(&ys), 5)))
    });
}

fn scene_rendering(c: &mut Criterion) {
    let generator = SceneGenerator::new(SceneConfig::qcif(MotionLevel::High, 1));
    c.bench_function("render_qcif_frame", |b| {
        let mut t = 0usize;
        b.iter(|| {
            t += 1;
            black_box(generator.frame(t))
        })
    });
}

fn wait_distribution(c: &mut Criterion) {
    use thrifty::queueing::inversion::WaitDistribution;
    let queue = MmppG1::new(
        Mmpp2::new(100.0, 10.0, 900.0, 60.0).into(),
        ServiceDistribution::gaussian(0.003, 3e-4),
    );
    let solution = queue.solve().unwrap();
    let dist = WaitDistribution::new(&queue, &solution);
    c.bench_function("euler_wait_cdf_point", |b| {
        b.iter(|| black_box(dist.cdf(black_box(0.01))))
    });
    c.bench_function("wait_p95_quantile", |b| {
        b.iter(|| black_box(dist.quantile(black_box(0.95))))
    });
}

fn traffic_classifier(c: &mut Criterion) {
    use thrifty::net::traffic::SizeClassifier;
    let sizes: Vec<usize> = (0..1000)
        .map(|i| {
            if i % 30 < 10 {
                1460
            } else {
                120 + (i % 7) * 30
            }
        })
        .collect();
    c.bench_function("size_classifier_fit_1000", |b| {
        b.iter(|| black_box(SizeClassifier::fit(black_box(&sizes))))
    });
}

fn block_modes(c: &mut Criterion) {
    use thrifty::crypto::{Aes128, Ofb};
    let key = [7u8; 16];
    let cipher = Aes128::new(&key);
    let iv = [3u8; 16];
    let payload = vec![0xA5u8; 1460];
    let mut group = c.benchmark_group("aes128_modes_mtu");
    group.throughput(Throughput::Bytes(1460));
    group.bench_function("ofb", |b| {
        let mut buf = payload.clone();
        b.iter(|| Ofb::new(&cipher, &iv).apply(black_box(&mut buf)))
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = cipher_throughput, nal_bitstream, packetizer, solvers, scene_rendering,
              wait_distribution, traffic_classifier, block_modes
}
criterion_main!(benches);
