//! Criterion benches that time the regeneration of each table/figure of the
//! paper (quick effort). Besides guarding harness performance, running
//! `cargo bench -p thrifty-bench` doubles as a smoke-check that every
//! figure's pipeline executes end to end.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use thrifty_bench::*;

fn bench_figures(c: &mut Criterion) {
    let mut group = c.benchmark_group("figures");
    group.sample_size(10);
    // One trial over a short clip: these benches time the harness per
    // figure (and smoke-test every pipeline); accuracy runs use `reproduce`.
    let effort = Effort {
        trials: 1,
        frames: 60,
    };

    group.bench_function("fig2_distortion_vs_distance", |b| {
        b.iter(|| black_box(fig2()))
    });
    group.bench_function("fig4_eavesdropper_psnr_gop30", |b| {
        b.iter(|| black_box(fig4(30, effort)))
    });
    group.bench_function("fig5_mos_gop30", |b| b.iter(|| black_box(fig5(30, effort))));
    group.bench_function("fig7_delay_samsung", |b| {
        b.iter(|| {
            black_box(fig7_8(
                thrifty::analytic::params::SAMSUNG_GALAXY_S2,
                thrifty::energy::SAMSUNG_GALAXY_S2_POWER,
                effort,
            ))
        })
    });
    group.bench_function("fig9_alpha_sweep", |b| b.iter(|| black_box(fig9(effort))));
    group.bench_function("table2_delay_vs_distortion", |b| {
        b.iter(|| black_box(table2(effort)))
    });
    group.bench_function("fig10_power_samsung", |b| {
        b.iter(|| black_box(fig10_11(thrifty::energy::SAMSUNG_GALAXY_S2_POWER, effort)))
    });
    group.bench_function("fig12_tcp_delay_samsung", |b| {
        b.iter(|| {
            black_box(fig12_13(
                thrifty::analytic::params::SAMSUNG_GALAXY_S2,
                thrifty::energy::SAMSUNG_GALAXY_S2_POWER,
                effort,
            ))
        })
    });
    group.bench_function("fig14_tcp_distortion_gop30", |b| {
        b.iter(|| black_box(fig14_15(30, effort)))
    });
    group.bench_function("headline_metrics", |b| b.iter(|| black_box(headline())));
    group.finish();
}

criterion_group!(benches, bench_figures);
criterion_main!(benches);
