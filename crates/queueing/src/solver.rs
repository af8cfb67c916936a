//! Matrix-analytic solution of the MMPP/G/1 queue (paper Section 4.2.3).
//!
//! The paper evaluates the mean queueing delay E\[W\] with eq. (19), quoting
//! the algorithmic solution of the n-MMPP/G/1 queue by Heffes & Lucantoni
//! \[18\] / the MMPP cookbook \[16\], which rests on Neuts' M/G/1-type theory
//! \[25\] and Ramaswami's N/G/1 analysis \[30\], and instantiates it with
//! n = 2. We implement the same machinery for any number of phases, on the
//! dense [`Matrix`] kernel:
//!
//! 1. Solve Lucantoni's matrix **G** from the fixed point
//!    `G = Ĥ(Q − Λ + Λ·G)` where `Ĥ(M) = ∫ e^{Mt} dH(t)` is the matrix LST
//!    of the service distribution, and find its stationary vector `g`.
//! 2. Expand the stationary virtual-workload transform
//!    `w̃(s)·[sI + Q − Λ + Λ·H̃(s)] = s(1−ρ)·g` in powers of `s`
//!    (Lucantoni's BMAP/G/1 workload result, of which eq. (19) is the
//!    mean): the zeroth order recovers `w̃(0) = π`, and the first order
//!    yields the mean workload vector via a group-inverse solve with
//!    `(Q + eπ)⁻¹` — the same `(R + eπ)⁻¹` appearing in eq. (19).
//! 3. The mean waiting time of an **arriving** packet is the rate-biased
//!    contraction `E\[W\] = −w₁·Λ·e / λ̄` (arrivals see the time-stationary
//!    workload weighted by the arrival rate of their phase; for the
//!    degenerate single-phase case this is PASTA and the whole computation
//!    collapses to Pollaczek–Khinchine, which the tests assert).

use crate::matrix::Matrix;
use crate::mmpp::{dot, MmppN};
use crate::service::ServiceDistribution;

/// Why the queue could not be solved.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SolveError {
    /// Offered load ρ = λ̄·E\[T\] is at or above 1.
    Unstable {
        /// The computed utilisation.
        rho: f64,
    },
    /// The G fixed point failed to converge (pathological parameters).
    NoConvergence {
        /// Residual after the final iteration.
        residual: f64,
    },
    /// A linear system the solution rests on was singular — a degenerate
    /// (reducible or ill-conditioned) arrival process.
    Singular {
        /// Which system failed, for diagnostics.
        context: &'static str,
    },
}

impl std::fmt::Display for SolveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolveError::Unstable { rho } => write!(f, "queue is unstable: rho = {rho:.4} >= 1"),
            SolveError::NoConvergence { residual } => {
                write!(
                    f,
                    "G fixed point did not converge (residual {residual:.3e})"
                )
            }
            SolveError::Singular { context } => {
                write!(f, "singular linear system: {context}")
            }
        }
    }
}

impl std::error::Error for SolveError {}

/// The MMPP/G/1 queue: arrival process plus service distribution.
#[derive(Debug, Clone)]
pub struct MmppG1 {
    /// The modulated arrival process (eq. 1).
    pub mmpp: MmppN,
    /// The per-packet service time (eqs. 3–18).
    pub service: ServiceDistribution,
}

/// Solved performance measures.
#[derive(Debug, Clone)]
pub struct QueueSolution {
    /// Utilisation ρ = λ̄ h₁.
    pub rho: f64,
    /// Long-run arrival rate λ̄.
    pub mean_rate: f64,
    /// First service moment h₁ = E\[T\].
    pub h1: f64,
    /// Mean waiting time in queue of an arriving packet, seconds — the
    /// quantity the paper's eq. (19) computes.
    pub mean_wait_s: f64,
    /// Mean sojourn (wait + service), seconds.
    pub mean_sojourn_s: f64,
    /// Mean virtual workload (time average), seconds.
    pub mean_workload_s: f64,
    /// Lucantoni's G matrix at the solution.
    pub g_matrix: Matrix,
    /// Stationary vector of G.
    pub g_stationary: Vec<f64>,
    /// Fixed-point iterations used.
    pub iterations: usize,
}

impl MmppG1 {
    /// Build a queue model.
    pub fn new(mmpp: MmppN, service: ServiceDistribution) -> Self {
        MmppG1 { mmpp, service }
    }

    /// Solve for the stationary mean delay.
    pub fn solve(&self) -> Result<QueueSolution, SolveError> {
        let n = self.mmpp.phases();
        let rates = &self.mmpp.rates;
        let h1 = self.service.mean();
        let h2 = self.service.moment2();
        let pi = self.mmpp.try_equilibrium()?;
        let lambda_bar = dot(&pi, rates);
        let rho = lambda_bar * h1;
        if rho >= 1.0 {
            return Err(SolveError::Unstable { rho });
        }
        let q = &self.mmpp.generator;
        let lam = Matrix::diag(rates);

        // --- Step 1: G fixed point -------------------------------------
        let mut g = Matrix::zeros(n, n);
        let mut iterations = 0;
        let mut residual = f64::INFINITY;
        for it in 0..2000 {
            iterations = it + 1;
            // M = Q − Λ + Λ·G
            let m = q.sub(&lam).add(&lam.mul(&g));
            let g_next = self.service.matrix_lst(&m);
            residual = g_next.sub(&g).max_abs();
            g = g_next;
            if residual < 1e-13 {
                break;
            }
        }
        if residual > 1e-8 {
            return Err(SolveError::NoConvergence { residual });
        }
        // Stationary vector of the (stochastic) matrix G: gG = g, ge = 1.
        let g_stationary =
            g.sub(&Matrix::identity(n))
                .stationary_vector()
                .ok_or(SolveError::Singular {
                    context: "stationary vector of G (bordered system)",
                })?;

        // --- Step 2: series expansion of the workload transform ---------
        // u = (1−ρ)g − π + h₁·πΛ
        let u: Vec<f64> = (0..n)
            .map(|i| (1.0 - rho) * g_stationary[i] - pi[i] + h1 * (pi[i] * rates[i]))
            .collect();
        // (Q + eπ): rank-one correction making the generator invertible.
        let mut e_pi = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                e_pi[(i, j)] = pi[j];
            }
        }
        let q_epi_inv = q.add(&e_pi).inverse().ok_or(SolveError::Singular {
            context: "(Q + eπ) group-inverse correction",
        })?;
        let a_vec = q_epi_inv.vec_mul(&u); // a = u·(Q+eπ)⁻¹  (row-vector form)
                                           // c₁ from the second-order solvability condition:
                                           // c₁ (1−ρ) = h₁·(aΛe) − (h₂/2)·λ̄
        let c1 = (h1 * dot(&a_vec, rates) - 0.5 * h2 * lambda_bar) / (1.0 - rho);
        let w1: Vec<f64> = (0..n).map(|i| a_vec[i] + c1 * pi[i]).collect();

        // --- Step 3: contract to the performance measures ----------------
        let mean_wait = -dot(&w1, rates) / lambda_bar;
        Ok(QueueSolution {
            rho,
            mean_rate: lambda_bar,
            h1,
            mean_wait_s: mean_wait,
            mean_sojourn_s: mean_wait + h1,
            mean_workload_s: -w1.iter().sum::<f64>(),
            g_matrix: g,
            g_stationary,
            iterations,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mmpp::Mmpp2;
    use crate::simulate::simulate_mmpp_g1;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn assert_rel(a: f64, b: f64, rel: f64, what: &str) {
        let denom = b.abs().max(1e-300);
        assert!((a - b).abs() / denom < rel, "{what}: {a} vs {b}");
    }

    /// Pollaczek–Khinchine mean waiting time for the M/G/1 reference case:
    /// `E[W] = λ·E[T²] / (2(1−ρ))`.
    fn pollaczek_khinchine_wait(lambda: f64, h1: f64, h2: f64) -> f64 {
        let rho = lambda * h1;
        assert!(rho < 1.0, "M/G/1 must be stable");
        lambda * h2 / (2.0 * (1.0 - rho))
    }

    #[test]
    fn degenerate_mmpp_reduces_to_pollaczek_khinchine() {
        // λ₁ = λ₂ ⇒ plain M/G/1.
        let lambda = 120.0;
        for service in [
            ServiceDistribution::point(0.004),
            ServiceDistribution::gaussian(0.005, 0.001),
        ] {
            let queue = MmppG1::new(Mmpp2::poisson(lambda).into(), service.clone());
            let sol = queue.solve().unwrap();
            let pk = pollaczek_khinchine_wait(lambda, service.mean(), service.moment2());
            assert_rel(sol.mean_wait_s, pk, 1e-6, "PK reduction");
            // With PASTA, workload mean equals waiting mean.
            assert_rel(sol.mean_workload_s, pk, 1e-6, "workload = wait under PASTA");
        }
    }

    #[test]
    fn one_state_reduces_to_pollaczek_khinchine() {
        let lambda = 80.0;
        let service = ServiceDistribution::gaussian(0.006, 6e-4);
        let mmpp = MmppN::new(Matrix::zeros(1, 1), vec![lambda]);
        let sol = MmppG1::new(mmpp, service.clone()).solve().unwrap();
        let pk = pollaczek_khinchine_wait(lambda, service.mean(), service.moment2());
        assert_rel(sol.mean_wait_s, pk, 1e-6, "n=1 vs P-K");
    }

    #[test]
    fn g_matrix_is_stochastic_at_solution() {
        let queue = MmppG1::new(
            Mmpp2::new(200.0, 6.0, 2000.0, 30.0).into(),
            ServiceDistribution::gaussian(0.002, 2e-4),
        );
        let sol = queue.solve().unwrap();
        for i in 0..2 {
            let row: f64 = sol.g_matrix[(i, 0)] + sol.g_matrix[(i, 1)];
            assert_rel(row, 1.0, 1e-8, "G row sum");
        }
        assert_rel(
            sol.g_stationary.iter().sum::<f64>(),
            1.0,
            1e-10,
            "g normalisation",
        );
        assert!(sol.iterations > 1);
    }

    #[test]
    fn matches_simulation_for_bursty_arrivals() {
        // A genuinely modulated process at moderate load.
        let mmpp: MmppN = Mmpp2::new(40.0, 8.0, 600.0, 40.0).into();
        let service = ServiceDistribution::gaussian(0.004, 4e-4);
        let sol = MmppG1::new(mmpp.clone(), service.clone()).solve().unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let sim = simulate_mmpp_g1(&mmpp, &service, 3_000_000, &mut rng);
        assert_rel(
            sol.mean_wait_s,
            sim.mean_wait_s,
            0.05,
            "analysis vs simulation",
        );
    }

    #[test]
    fn matches_simulation_with_backoff_component() {
        use crate::service::ServiceComponent;
        // Paper-shaped service: encryption mixture + geometric backoff + tx.
        let mmpp: MmppN = Mmpp2::new(100.0, 10.0, 900.0, 60.0).into();
        let service = ServiceDistribution::from_parts(vec![
            ServiceComponent::GaussianMixture(vec![(0.4, 3e-3, 3e-4), (0.6, 0.0, 0.0)]),
            ServiceComponent::GeometricExponential {
                success_prob: 0.9,
                rate: 6944.0,
            },
            ServiceComponent::GaussianMixture(vec![(0.5, 3.2e-4, 3e-5), (0.5, 1.2e-4, 1e-5)]),
        ]);
        let sol = MmppG1::new(mmpp.clone(), service.clone()).solve().unwrap();
        let mut rng = StdRng::seed_from_u64(13);
        let sim = simulate_mmpp_g1(&mmpp, &service, 3_000_000, &mut rng);
        assert_rel(
            sol.mean_wait_s,
            sim.mean_wait_s,
            0.06,
            "paper-shaped service",
        );
    }

    #[test]
    fn three_state_matches_simulation() {
        // Idle / medium / burst phases in a cycle.
        let gen = Matrix::from_rows(&[
            &[-5.0, 4.0, 1.0],
            &[10.0, -30.0, 20.0],
            &[50.0, 50.0, -100.0],
        ]);
        let rates = vec![20.0, 200.0, 1500.0];
        let mmpp = MmppN::new(gen, rates);
        let service = ServiceDistribution::gaussian(0.002, 2e-4);
        let sol = MmppG1::new(mmpp.clone(), service.clone()).solve().unwrap();
        assert!(sol.rho < 1.0);
        let mut rng = StdRng::seed_from_u64(17);
        let sim = simulate_mmpp_g1(&mmpp, &service, 2_000_000, &mut rng);
        assert_rel(sol.mean_wait_s, sim.mean_wait_s, 0.05, "n=3 vs simulation");
    }

    #[test]
    fn burstiness_raises_delay_over_poisson() {
        let service = ServiceDistribution::point(0.004);
        let poisson = MmppG1::new(Mmpp2::poisson(100.0).into(), service.clone())
            .solve()
            .unwrap();
        let bursty = MmppG1::new(Mmpp2::new(50.0, 2.75, 1000.0, 51.3).into(), service)
            .solve()
            .unwrap();
        assert!((bursty.mean_rate - poisson.mean_rate).abs() < 1.0);
        assert!(
            bursty.mean_wait_s > 1.5 * poisson.mean_wait_s,
            "bursty {} vs poisson {}",
            bursty.mean_wait_s,
            poisson.mean_wait_s
        );
    }

    #[test]
    fn relabelling_phases_is_invariant() {
        let service = ServiceDistribution::gaussian(0.003, 3e-4);
        let a = MmppG1::new(Mmpp2::new(200.0, 6.0, 2000.0, 30.0).into(), service.clone())
            .solve()
            .unwrap();
        let b = MmppG1::new(Mmpp2::new(6.0, 200.0, 30.0, 2000.0).into(), service)
            .solve()
            .unwrap();
        assert_rel(a.mean_wait_s, b.mean_wait_s, 1e-9, "phase relabelling");
        assert_rel(a.rho, b.rho, 1e-12, "rho relabelling");
    }

    #[test]
    fn unstable_queue_is_reported() {
        for (mmpp, service) in [
            (
                Mmpp2::poisson(1000.0).into(),
                ServiceDistribution::point(0.002),
            ),
            (
                MmppN::new(Matrix::zeros(1, 1), vec![1000.0]),
                ServiceDistribution::point(0.01),
            ),
        ] {
            match MmppG1::new(mmpp, service).solve() {
                Err(SolveError::Unstable { rho }) => assert!(rho >= 1.0),
                other => panic!("expected Unstable, got {other:?}"),
            }
        }
    }

    #[test]
    fn reducible_generator_reports_singular() {
        // Two absorbing phases: rows sum to zero, but π is not unique, so the
        // bordered equilibrium system is singular and solve() must say so
        // instead of panicking.
        let mmpp = MmppN::new(Matrix::zeros(2, 2), vec![10.0, 10.0]);
        assert!(matches!(
            mmpp.try_equilibrium(),
            Err(SolveError::Singular { .. })
        ));
        match MmppG1::new(mmpp, ServiceDistribution::point(0.001)).solve() {
            Err(SolveError::Singular { context }) => {
                assert!(context.contains("reducible"), "context: {context}");
            }
            other => panic!("expected Singular, got {other:?}"),
        }
    }

    #[test]
    fn sojourn_is_wait_plus_service() {
        let queue = MmppG1::new(
            Mmpp2::new(100.0, 10.0, 500.0, 50.0).into(),
            ServiceDistribution::gaussian(0.002, 2e-4),
        );
        let sol = queue.solve().unwrap();
        assert_rel(
            sol.mean_sojourn_s,
            sol.mean_wait_s + sol.h1,
            1e-12,
            "sojourn identity",
        );
        assert!(sol.mean_wait_s > 0.0);
        assert!(sol.rho < 1.0);
    }

    #[test]
    fn heavier_service_increases_wait_monotonically() {
        let mmpp: MmppN = Mmpp2::new(100.0, 10.0, 500.0, 50.0).into();
        let mut last = 0.0;
        for mean in [0.001, 0.002, 0.003, 0.004] {
            let sol = MmppG1::new(
                mmpp.clone(),
                ServiceDistribution::gaussian(mean, mean / 10.0),
            )
            .solve()
            .unwrap();
            assert!(sol.mean_wait_s > last, "wait must increase with service");
            last = sol.mean_wait_s;
        }
    }
}
