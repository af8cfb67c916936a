//! General **n-state** MMPP/G/1 solver.
//!
//! The paper's cited algorithm (Heffes & Lucantoni \[18\]) treats the
//! n-MMPP/G/1 queue; the paper itself instantiates n = 2. This module
//! generalises [`crate::solver`] to any number of phases using the same
//! derivation — G-matrix fixed point, stationary vector, and the series
//! expansion of the workload transform — with all steps running on the
//! dense [`Matrix`] kernel instead of hand-unrolled 2×2 arithmetic.
//!
//! The 2-state specialisation is kept as the primary API (it is what every
//! experiment uses and it is easier to audit); the tests here pin the two
//! implementations against each other, against Pollaczek–Khinchine at
//! n = 1, and against simulation at n = 3.

use crate::matrix::Matrix;
use crate::service::ServiceDistribution;
use crate::solver::SolveError;
use rand::Rng;

/// An n-state Markov-modulated Poisson process.
#[derive(Debug, Clone)]
pub struct MmppN {
    /// Infinitesimal generator Q (n×n; rows sum to zero).
    pub generator: Matrix,
    /// Per-phase arrival rates λ₁..λₙ.
    pub rates: Vec<f64>,
}

/// Why an [`MmppN`] was rejected by [`try_new`](MmppN::try_new).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MmppNError {
    /// The process needs at least one phase.
    NoPhases,
    /// Generator dimensions do not match the rate vector length.
    ShapeMismatch {
        /// Generator row count.
        rows: usize,
        /// Generator column count.
        cols: usize,
        /// Number of per-phase rates supplied.
        phases: usize,
    },
    /// A generator entry or arrival rate was NaN or infinite.
    NotFinite {
        /// Row (or rate index) of the offending value.
        row: usize,
        /// Column of the offending value (`usize::MAX` for a rate).
        col: usize,
    },
    /// An off-diagonal generator entry was negative.
    NegativeOffDiagonal {
        /// Row of the offending entry.
        row: usize,
        /// Column of the offending entry.
        col: usize,
    },
    /// A generator row does not sum to zero.
    RowSumNonZero(usize),
    /// A per-phase arrival rate was negative.
    NegativeRate(usize),
}

impl std::fmt::Display for MmppNError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MmppNError::NoPhases => write!(f, "need at least one phase"),
            MmppNError::ShapeMismatch { rows, cols, phases } => {
                write!(f, "generator is {rows}x{cols} but {phases} rates were supplied")
            }
            MmppNError::NotFinite { row, col } => {
                write!(f, "non-finite parameter at ({row}, {col})")
            }
            MmppNError::NegativeOffDiagonal { row, col } => {
                write!(f, "off-diagonal rate at ({row}, {col}) must be nonnegative")
            }
            MmppNError::RowSumNonZero(i) => {
                write!(f, "generator rows must sum to zero (row {i})")
            }
            MmppNError::NegativeRate(i) => write!(f, "arrival rate {i} must be nonnegative"),
        }
    }
}

impl std::error::Error for MmppNError {}

impl MmppN {
    /// Construct, validating shape, finiteness, sign constraints and the
    /// zero row-sum property with a typed error instead of a panic.
    pub fn try_new(generator: Matrix, rates: Vec<f64>) -> Result<Self, MmppNError> {
        let n = rates.len();
        if n == 0 {
            return Err(MmppNError::NoPhases);
        }
        if generator.rows() != n || generator.cols() != n {
            return Err(MmppNError::ShapeMismatch {
                rows: generator.rows(),
                cols: generator.cols(),
                phases: n,
            });
        }
        for i in 0..n {
            let mut row_sum = 0.0;
            for j in 0..n {
                let q = generator[(i, j)];
                if !q.is_finite() {
                    return Err(MmppNError::NotFinite { row: i, col: j });
                }
                if i != j && q < 0.0 {
                    return Err(MmppNError::NegativeOffDiagonal { row: i, col: j });
                }
                row_sum += q;
            }
            if row_sum.abs() >= 1e-9 {
                return Err(MmppNError::RowSumNonZero(i));
            }
            let rate = rates[i];
            if !rate.is_finite() {
                return Err(MmppNError::NotFinite {
                    row: i,
                    col: usize::MAX,
                });
            }
            if rate < 0.0 {
                return Err(MmppNError::NegativeRate(i));
            }
        }
        Ok(MmppN { generator, rates })
    }

    /// Construct and validate.
    ///
    /// # Panics
    /// On shape mismatch, non-finite/negative off-diagonals or rates, or
    /// rows that do not sum to zero. Prefer [`try_new`](Self::try_new) for
    /// untrusted input.
    pub fn new(generator: Matrix, rates: Vec<f64>) -> Self {
        match Self::try_new(generator, rates) {
            Ok(m) => m,
            Err(e) => panic!("invalid MmppN: {e}"),
        }
    }

    /// Number of phases.
    pub fn phases(&self) -> usize {
        self.rates.len()
    }

    /// The diagonal rate matrix Λ.
    pub fn rate_matrix(&self) -> Matrix {
        Matrix::diag(&self.rates)
    }

    /// Stationary phase distribution π (left null vector of Q, normalised).
    ///
    /// # Panics
    /// If the generator is reducible (no unique π).
    pub fn equilibrium(&self) -> Vec<f64> {
        self.try_equilibrium()
            .expect("irreducible generator has a unique π")
    }

    /// Stationary phase distribution π, or [`SolveError::Singular`] when the
    /// generator is reducible and the bordered system πQ = 0, πe = 1 has no
    /// unique solution.
    fn try_equilibrium(&self) -> Result<Vec<f64>, SolveError> {
        let n = self.phases();
        if n == 1 {
            return Ok(vec![1.0]);
        }
        // Solve πQ = 0, πe = 1: transpose and replace the last equation.
        let mut a = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                a[(i, j)] = self.generator[(j, i)];
            }
        }
        for j in 0..n {
            a[(n - 1, j)] = 1.0;
        }
        let mut b = vec![0.0; n];
        b[n - 1] = 1.0;
        a.solve(&b).ok_or(SolveError::Singular {
            context: "equilibrium of a reducible generator",
        })
    }

    /// Long-run mean arrival rate λ̄ = πλ.
    pub fn mean_rate(&self) -> f64 {
        self.equilibrium()
            .iter()
            .zip(self.rates.iter())
            .map(|(p, l)| p * l)
            .sum()
    }

    /// Sample `count` arrival epochs `(time, phase)` by competing
    /// exponentials, starting from the equilibrium distribution.
    pub fn sample_arrivals<R: Rng + ?Sized>(&self, count: usize, rng: &mut R) -> Vec<(f64, usize)> {
        let n = self.phases();
        let pi = self.equilibrium();
        // Draw the initial phase.
        let mut phase = 0usize;
        let mut pick: f64 = rng.gen_range(0.0..1.0);
        for (i, &p) in pi.iter().enumerate() {
            if pick < p {
                phase = i;
                break;
            }
            pick -= p;
            phase = i;
        }
        let mut t = 0.0f64;
        let mut out = Vec::with_capacity(count);
        while out.len() < count {
            // Total event rate in this phase: arrivals + all transitions out.
            let exit_rate: f64 = (0..n)
                .filter(|&j| j != phase)
                .map(|j| self.generator[(phase, j)])
                .sum();
            let total = self.rates[phase] + exit_rate;
            assert!(total > 0.0, "absorbing silent phase");
            let u: f64 = rng.gen_range(f64::EPSILON..1.0);
            t += -u.ln() / total;
            let draw: f64 = rng.gen_range(0.0..total);
            if draw < self.rates[phase] {
                out.push((t, phase));
            } else {
                // Pick the transition target proportionally.
                let mut rem = draw - self.rates[phase];
                for j in 0..n {
                    if j == phase {
                        continue;
                    }
                    let q = self.generator[(phase, j)];
                    if rem < q {
                        phase = j;
                        break;
                    }
                    rem -= q;
                }
            }
        }
        out
    }
}

/// Solved measures of the n-state queue.
#[derive(Debug, Clone)]
pub struct QueueSolutionN {
    /// Utilisation ρ.
    pub rho: f64,
    /// Mean arrival rate λ̄.
    pub mean_rate: f64,
    /// Mean waiting time in queue of an arriving packet, seconds.
    pub mean_wait_s: f64,
    /// Mean sojourn (wait + service), seconds.
    pub mean_sojourn_s: f64,
    /// Stationary vector of the G matrix.
    pub g_stationary: Vec<f64>,
    /// Fixed-point iterations used.
    pub iterations: usize,
}

/// The n-MMPP/G/1 queue.
#[derive(Debug, Clone)]
pub struct MmppNG1 {
    /// Arrival process.
    pub mmpp: MmppN,
    /// Per-packet service time.
    pub service: ServiceDistribution,
}

impl MmppNG1 {
    /// Build a queue model.
    pub fn new(mmpp: MmppN, service: ServiceDistribution) -> Self {
        MmppNG1 { mmpp, service }
    }

    /// Solve for the stationary mean waiting time (same algorithm as the
    /// 2-state [`crate::solver::MmppG1`], in general dimension).
    pub fn solve(&self) -> Result<QueueSolutionN, SolveError> {
        let n = self.mmpp.phases();
        let h1 = self.service.mean();
        let h2 = self.service.moment2();
        let pi = self.mmpp.try_equilibrium()?;
        let lambda_bar: f64 = pi
            .iter()
            .zip(self.mmpp.rates.iter())
            .map(|(p, l)| p * l)
            .sum();
        let rho = lambda_bar * h1;
        if rho >= 1.0 {
            return Err(SolveError::Unstable { rho });
        }
        let q = self.mmpp.generator.clone();
        let lam = self.mmpp.rate_matrix();

        // G fixed point.
        let mut g = Matrix::zeros(n, n);
        let mut iterations = 0;
        let mut residual = f64::INFINITY;
        for it in 0..2000 {
            iterations = it + 1;
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
        // Stationary vector of G: solve gG = g, ge = 1 (bordered system on
        // the transpose).
        let g_stationary = {
            let mut a = Matrix::zeros(n, n);
            for i in 0..n {
                for j in 0..n {
                    a[(i, j)] = g[(j, i)] - if i == j { 1.0 } else { 0.0 };
                }
            }
            for j in 0..n {
                a[(n - 1, j)] = 1.0;
            }
            let mut b = vec![0.0; n];
            b[n - 1] = 1.0;
            a.solve(&b).ok_or(SolveError::Singular {
                context: "stationary vector of G (bordered system)",
            })?
        };

        // Series expansion: u = (1−ρ)g − π + h₁πΛ; a = u(Q + eπ)⁻¹.
        let pi_lam: Vec<f64> = pi
            .iter()
            .zip(self.mmpp.rates.iter())
            .map(|(p, l)| p * l)
            .collect();
        let u: Vec<f64> = (0..n)
            .map(|i| (1.0 - rho) * g_stationary[i] - pi[i] + h1 * pi_lam[i])
            .collect();
        let mut e_pi = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                e_pi[(i, j)] = pi[j];
            }
        }
        let q_epi_inv = q.add(&e_pi).inverse().ok_or(SolveError::Singular {
            context: "(Q + eπ) group-inverse correction",
        })?;
        let a_vec = q_epi_inv.vec_mul(&u);
        let a_lam_e: f64 = a_vec
            .iter()
            .zip(self.mmpp.rates.iter())
            .map(|(a, l)| a * l)
            .sum();
        let c1 = (h1 * a_lam_e - 0.5 * h2 * lambda_bar) / (1.0 - rho);
        let w1: Vec<f64> = (0..n).map(|i| a_vec[i] + c1 * pi[i]).collect();
        let mean_wait = -w1
            .iter()
            .zip(self.mmpp.rates.iter())
            .map(|(w, l)| w * l)
            .sum::<f64>()
            / lambda_bar;

        Ok(QueueSolutionN {
            rho,
            mean_rate: lambda_bar,
            mean_wait_s: mean_wait,
            mean_sojourn_s: mean_wait + h1,
            g_stationary,
            iterations,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mmpp::Mmpp2;
    use crate::solver::{pollaczek_khinchine_wait, MmppG1};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn assert_rel(a: f64, b: f64, rel: f64, what: &str) {
        let denom = b.abs().max(1e-300);
        assert!((a - b).abs() / denom < rel, "{what}: {a} vs {b}");
    }

    #[test]
    fn try_new_rejects_hostile_parameters() {
        use MmppNError::*;
        assert_eq!(MmppN::try_new(Matrix::zeros(0, 0), vec![]).err(), Some(NoPhases));
        assert_eq!(
            MmppN::try_new(Matrix::zeros(2, 2), vec![1.0]).err(),
            Some(ShapeMismatch {
                rows: 2,
                cols: 2,
                phases: 1
            })
        );
        let nan_gen = Matrix::from_rows(&[&[f64::NAN, 0.0], &[0.0, 0.0]]);
        assert_eq!(
            MmppN::try_new(nan_gen, vec![1.0, 1.0]).err(),
            Some(NotFinite { row: 0, col: 0 })
        );
        let neg_off = Matrix::from_rows(&[&[1.0, -1.0], &[0.0, 0.0]]);
        assert_eq!(
            MmppN::try_new(neg_off, vec![1.0, 1.0]).err(),
            Some(NegativeOffDiagonal { row: 0, col: 1 })
        );
        let bad_sum = Matrix::from_rows(&[&[-1.0, 2.0], &[1.0, -1.0]]);
        assert_eq!(
            MmppN::try_new(bad_sum, vec![1.0, 1.0]).err(),
            Some(RowSumNonZero(0))
        );
        let ok_gen = Matrix::from_rows(&[&[-1.0, 1.0], &[1.0, -1.0]]);
        assert_eq!(
            MmppN::try_new(ok_gen.clone(), vec![1.0, f64::NAN]).err(),
            Some(NotFinite {
                row: 1,
                col: usize::MAX
            })
        );
        assert_eq!(
            MmppN::try_new(ok_gen.clone(), vec![1.0, -2.0]).err(),
            Some(NegativeRate(1))
        );
        assert!(MmppN::try_new(ok_gen, vec![1.0, 2.0]).is_ok());
    }

    #[test]
    fn one_state_reduces_to_pollaczek_khinchine() {
        let lambda = 80.0;
        let service = ServiceDistribution::gaussian(0.006, 6e-4);
        let mmpp = MmppN::new(Matrix::zeros(1, 1), vec![lambda]);
        let sol = MmppNG1::new(mmpp, service.clone()).solve().unwrap();
        let pk = pollaczek_khinchine_wait(lambda, service.mean(), service.moment2());
        assert_rel(sol.mean_wait_s, pk, 1e-6, "n=1 vs P-K");
    }

    #[test]
    fn two_state_matches_the_specialised_solver() {
        let (p1, p2, l1, l2) = (120.0, 9.0, 800.0, 45.0);
        let service = ServiceDistribution::gaussian(0.0035, 3.5e-4);
        let two = MmppG1::new(Mmpp2::new(p1, p2, l1, l2), service.clone())
            .solve()
            .unwrap();
        let gen = Matrix::from_rows(&[&[-p1, p1], &[p2, -p2]]);
        let n = MmppNG1::new(MmppN::new(gen, vec![l1, l2]), service)
            .solve()
            .unwrap();
        assert_rel(n.mean_wait_s, two.mean_wait_s, 1e-9, "n=2 vs 2-state solver");
        assert_rel(n.rho, two.rho, 1e-12, "rho");
        assert_rel(
            n.g_stationary[0],
            two.g_stationary[0],
            1e-8,
            "g stationary",
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
        let sol = MmppNG1::new(mmpp.clone(), service.clone()).solve().unwrap();
        assert!(sol.rho < 1.0);
        // Lindley simulation on sampled arrivals.
        let mut rng = StdRng::seed_from_u64(17);
        let arrivals = mmpp.sample_arrivals(2_000_000, &mut rng);
        let mut wait = 0.0f64;
        let mut sum = 0.0f64;
        let mut prev = arrivals[0].0;
        let mut svc = service.sample(&mut rng);
        for &(t, _) in arrivals.iter().skip(1) {
            wait = (wait + svc - (t - prev)).max(0.0);
            sum += wait;
            svc = service.sample(&mut rng);
            prev = t;
        }
        let sim = sum / (arrivals.len() - 1) as f64;
        assert_rel(sol.mean_wait_s, sim, 0.05, "n=3 vs simulation");
    }

    #[test]
    fn equilibrium_is_a_distribution() {
        let gen = Matrix::from_rows(&[
            &[-2.0, 1.0, 1.0],
            &[3.0, -4.0, 1.0],
            &[0.5, 0.5, -1.0],
        ]);
        let mmpp = MmppN::new(gen, vec![1.0, 2.0, 3.0]);
        let pi = mmpp.equilibrium();
        assert_rel(pi.iter().sum::<f64>(), 1.0, 1e-12, "normalisation");
        assert!(pi.iter().all(|&p| p > 0.0));
        // πQ = 0.
        let res = mmpp.generator.vec_mul(&pi);
        assert!(res.iter().all(|r| r.abs() < 1e-10));
    }

    #[test]
    fn sampled_rate_matches_for_three_states() {
        let gen = Matrix::from_rows(&[
            &[-1.0, 0.7, 0.3],
            &[2.0, -3.0, 1.0],
            &[4.0, 4.0, -8.0],
        ]);
        let mmpp = MmppN::new(gen, vec![30.0, 120.0, 700.0]);
        let mut rng = StdRng::seed_from_u64(3);
        let arrivals = mmpp.sample_arrivals(200_000, &mut rng);
        let rate = arrivals.len() as f64 / arrivals.last().unwrap().0;
        assert_rel(rate, mmpp.mean_rate(), 0.03, "sampled rate");
    }

    #[test]
    #[should_panic(expected = "rows must sum to zero")]
    fn invalid_generator_rejected() {
        MmppN::new(Matrix::from_rows(&[&[-1.0, 2.0], &[1.0, -1.0]]), vec![1.0, 1.0]);
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
        match MmppNG1::new(mmpp, ServiceDistribution::point(0.001)).solve() {
            Err(SolveError::Singular { context }) => {
                assert!(context.contains("reducible"), "context: {context}");
            }
            other => panic!("expected Singular, got {other:?}"),
        }
    }

    #[test]
    fn unstable_queue_reported() {
        let mmpp = MmppN::new(Matrix::zeros(1, 1), vec![1000.0]);
        match MmppNG1::new(mmpp, ServiceDistribution::point(0.01)).solve() {
            Err(SolveError::Unstable { rho }) => assert!(rho >= 1.0),
            other => panic!("expected Unstable, got {other:?}"),
        }
    }
}
