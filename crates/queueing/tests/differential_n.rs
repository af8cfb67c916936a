//! Differential validation of the n-state analytic solver.
//!
//! For 3- and 4-state MMPP/G/1 queues (where no closed form exists to pin
//! the answer), the [`MmppG1`] matrix-analytic solve must agree with a
//! Monte-Carlo Lindley simulation of the very same queue. The assertion is
//! a **confidence interval, not a fixed epsilon**: the simulation runs as
//! independent replications, and the analytic mean sojourn must fall inside
//! the t-based 99% CI of the replication means — so the tolerance scales
//! with the measured variance instead of being hand-tuned per case.

use rand::rngs::StdRng;
use rand::SeedableRng;
use thrifty_queueing::matrix::Matrix;
use thrifty_queueing::mmpp::MmppN;
use thrifty_queueing::service::ServiceDistribution;
use thrifty_queueing::simulate::simulate_mmpp_g1;
use thrifty_queueing::solver::MmppG1;

/// Replications per case; seeds are fixed so the suite is deterministic.
const REPS: usize = 12;
/// Packets per replication (long enough that the empty-start transient is
/// negligible against the CI width).
const PACKETS: usize = 150_000;
/// Two-sided 99% Student-t critical value for REPS − 1 = 11 degrees of
/// freedom.
const T_99_DF11: f64 = 3.106;

struct CiReport {
    mean: f64,
    half_width: f64,
}

/// Replication means of the simulated mean sojourn time.
fn replicate(mmpp: &MmppN, service: &ServiceDistribution, base_seed: u64) -> Vec<f64> {
    (0..REPS)
        .map(|r| {
            let mut rng = StdRng::seed_from_u64(base_seed.wrapping_add(1 + r as u64));
            simulate_mmpp_g1(mmpp, service, PACKETS, &mut rng).mean_sojourn_s
        })
        .collect()
}

fn ci(reps: &[f64]) -> CiReport {
    let n = reps.len() as f64;
    let mean = reps.iter().sum::<f64>() / n;
    let var = reps.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
    CiReport {
        mean,
        half_width: T_99_DF11 * (var / n).sqrt(),
    }
}

fn assert_analytic_in_ci(label: &str, mmpp: MmppN, service: ServiceDistribution, seed: u64) {
    let solution = MmppG1::new(mmpp.clone(), service.clone())
        .solve()
        .unwrap_or_else(|e| panic!("{label}: solver failed: {e:?}"));
    assert!(
        solution.rho < 0.9,
        "{label}: pick a stabler case (rho = {})",
        solution.rho
    );
    let reps = replicate(&mmpp, &service, seed);
    let report = ci(&reps);
    assert!(
        report.half_width > 0.0 && report.half_width.is_finite(),
        "{label}: degenerate CI"
    );
    let gap = (solution.mean_sojourn_s - report.mean).abs();
    assert!(
        gap <= report.half_width,
        "{label}: analytic mean sojourn {} outside the 99% CI {} ± {} \
         (gap {gap}, {REPS} reps × {PACKETS} packets)",
        solution.mean_sojourn_s,
        report.mean,
        report.half_width
    );
}

#[test]
fn three_state_solver_matches_monte_carlo() {
    // Three regimes: an intense burst phase, a paced phase, and a near-idle
    // tail — the producer shape Ablation F models.
    let gen = Matrix::from_rows(&[
        &[-40.0, 30.0, 10.0],
        &[6.0, -12.0, 6.0],
        &[8.0, 12.0, -20.0],
    ]);
    let mmpp = MmppN::new(gen, vec![700.0, 90.0, 4.0]);
    let service = ServiceDistribution::gaussian(0.0028, 0.0006);
    assert_analytic_in_ci("3-state gaussian service", mmpp, service, 0x357A7E);
}

#[test]
fn three_state_deterministic_service_matches_monte_carlo() {
    let gen = Matrix::from_rows(&[
        &[-40.0, 30.0, 10.0],
        &[6.0, -12.0, 6.0],
        &[8.0, 12.0, -20.0],
    ]);
    let mmpp = MmppN::new(gen, vec![700.0, 90.0, 4.0]);
    let service = ServiceDistribution::point(0.003);
    assert_analytic_in_ci("3-state point service", mmpp, service, 0x3D37);
}

#[test]
fn four_state_solver_matches_monte_carlo() {
    // Four phases with a cyclic bias: burst → drain → paced → idle.
    let gen = Matrix::from_rows(&[
        &[-50.0, 35.0, 10.0, 5.0],
        &[4.0, -16.0, 10.0, 2.0],
        &[3.0, 5.0, -12.0, 4.0],
        &[10.0, 5.0, 10.0, -25.0],
    ]);
    let mmpp = MmppN::new(gen, vec![900.0, 150.0, 60.0, 2.0]);
    let service = ServiceDistribution::gaussian(0.0022, 0.0005);
    assert_analytic_in_ci("4-state gaussian service", mmpp, service, 0x45747E);
}

#[test]
fn monte_carlo_replications_are_deterministic() {
    // The differential gate must be reproducible: fixed seeds, fixed reps.
    let gen = Matrix::from_rows(&[
        &[-40.0, 30.0, 10.0],
        &[6.0, -12.0, 6.0],
        &[8.0, 12.0, -20.0],
    ]);
    let mmpp = MmppN::new(gen, vec![700.0, 90.0, 4.0]);
    let service = ServiceDistribution::point(0.003);
    let a = replicate(&mmpp, &service, 0xD37);
    let b = replicate(&mmpp, &service, 0xD37);
    assert_eq!(a.len(), REPS);
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.to_bits(), y.to_bits());
    }
}
