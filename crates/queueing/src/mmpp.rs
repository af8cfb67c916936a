//! Markov-modulated Poisson processes (Section 4.2.1).
//!
//! Packets of a video flow arrive in two phases: dense I-frame fragment
//! trains (phase 1, rate λ₁) and sparse P-frame packets (phase 2, rate λ₂),
//! modulated by a continuous-time Markov chain with transition rates p₁
//! (1→2) and p₂ (2→1). [`Mmpp2`] is that parameterisation: the
//! equilibrium vector π of eq. (2), the mean rate, and the moment estimator
//! used to calibrate the model from an observed, labelled arrival sequence
//! (Section 6.1). [`MmppN`] is the general n-phase process the solver, the
//! inversion and the simulator work on; an [`Mmpp2`] converts into one
//! whose generator and rates are the `R` and `Λ` of eq. (1).

use crate::matrix::Matrix;
use crate::solver::SolveError;
use rand::Rng;

/// A 2-state MMPP.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mmpp2 {
    /// Transition rate from phase 1 to phase 2 (the paper's p₁), 1/s.
    pub p1: f64,
    /// Transition rate from phase 2 to phase 1 (the paper's p₂), 1/s.
    pub p2: f64,
    /// Arrival rate in phase 1 (I-frame fragment trains), 1/s.
    pub lambda1: f64,
    /// Arrival rate in phase 2 (P-frame packets), 1/s.
    pub lambda2: f64,
}

/// Why an [`Mmpp2`] was rejected by [`try_new`](Mmpp2::try_new).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MmppError {
    /// A parameter was NaN or infinite.
    NotFinite(&'static str),
    /// A transition rate was zero or negative (the chain would not mix).
    NonPositiveTransition(&'static str),
    /// An arrival rate was negative.
    NegativeRate(&'static str),
}

impl std::fmt::Display for MmppError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MmppError::NotFinite(what) => write!(f, "{what} must be finite"),
            MmppError::NonPositiveTransition(what) => write!(f, "{what} must be > 0"),
            MmppError::NegativeRate(what) => write!(f, "{what} must be >= 0"),
        }
    }
}

impl std::error::Error for MmppError {}

impl Mmpp2 {
    /// Construct, rejecting NaN/infinite parameters, non-positive
    /// transition rates and negative arrival rates with a typed error.
    pub fn try_new(p1: f64, p2: f64, lambda1: f64, lambda2: f64) -> Result<Self, MmppError> {
        for (what, v) in [
            ("p1", p1),
            ("p2", p2),
            ("lambda1", lambda1),
            ("lambda2", lambda2),
        ] {
            if !v.is_finite() {
                return Err(MmppError::NotFinite(what));
            }
        }
        for (what, v) in [("p1", p1), ("p2", p2)] {
            if v <= 0.0 {
                return Err(MmppError::NonPositiveTransition(what));
            }
        }
        for (what, v) in [("lambda1", lambda1), ("lambda2", lambda2)] {
            if v < 0.0 {
                return Err(MmppError::NegativeRate(what));
            }
        }
        Ok(Mmpp2 {
            p1,
            p2,
            lambda1,
            lambda2,
        })
    }

    /// Construct, validating positivity; panics on invalid parameters
    /// (prefer [`try_new`](Self::try_new) for untrusted input).
    pub fn new(p1: f64, p2: f64, lambda1: f64, lambda2: f64) -> Self {
        match Self::try_new(p1, p2, lambda1, lambda2) {
            Ok(m) => m,
            Err(e) => panic!("invalid Mmpp2: {e}"),
        }
    }

    /// A degenerate MMPP that is exactly a Poisson process of rate λ
    /// (both phases identical) — used to cross-check against M/G/1.
    pub fn poisson(lambda: f64) -> Self {
        Mmpp2::new(1.0, 1.0, lambda, lambda)
    }

    /// Equilibrium phase probabilities π = (p₂, p₁)/(p₁+p₂), eq. (2).
    pub fn equilibrium(&self) -> [f64; 2] {
        let s = self.p1 + self.p2;
        [self.p2 / s, self.p1 / s]
    }

    /// Long-run mean arrival rate λ̄ = πλ.
    pub fn mean_rate(&self) -> f64 {
        let pi = self.equilibrium();
        pi[0] * self.lambda1 + pi[1] * self.lambda2
    }

    /// Estimate MMPP parameters from labelled arrivals — the calibration
    /// step of Section 6.1 ("the times of insertion of video segments into
    /// the internal queue and their type are used to estimate the 2-MMPP
    /// parameters").
    ///
    /// `arrivals` are `(time_s, is_phase1)` pairs in increasing time order:
    /// phase 1 ⇔ the packet belongs to an I-frame. Consecutive same-label
    /// runs are treated as phase sojourns. Returns `None` when either phase
    /// has fewer than two arrivals (rates unidentifiable).
    pub fn fit_labeled(arrivals: &[(f64, bool)]) -> Option<Mmpp2> {
        if arrivals.len() < 4 {
            return None;
        }
        // Decompose the labelled sequence into runs of equal labels. Within
        // a phase-j run, consecutive gaps are Exp(λⱼ + pⱼ) (the next event
        // is either another arrival or a phase switch, whichever fires
        // first), and the run length is Geometric with continuation
        // probability c = λⱼ/(λⱼ + pⱼ). Estimating the total event rate
        // μⱼ = 1/mean(gap) and c = 1 − 1/mean(run length) splits μⱼ into
        // λⱼ = c·μⱼ and pⱼ = (1−c)·μⱼ. Unlike attributing wall-clock run
        // spans to phases, this is not polluted by the (unobservable)
        // residence time of the *other* phase between runs.
        let mut gaps: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
        let mut run_lengths = [0usize; 2]; // total arrivals in runs
        let mut run_count = [0usize; 2];
        let mut run_label = arrivals[0].1;
        let mut run_len = 0usize;
        let mut prev_t = f64::NEG_INFINITY;
        for &(t, label) in arrivals {
            assert!(
                t >= prev_t || prev_t == f64::NEG_INFINITY,
                "arrivals must be time-ordered"
            );
            let idx = if label { 0 } else { 1 };
            if label == run_label && run_len > 0 {
                gaps[idx].push(t - prev_t);
                run_len += 1;
            } else {
                if run_len > 0 {
                    let prev_idx = if run_label { 0 } else { 1 };
                    run_lengths[prev_idx] += run_len;
                    run_count[prev_idx] += 1;
                }
                run_label = label;
                run_len = 1;
            }
            prev_t = t;
        }
        let last_idx = if run_label { 0 } else { 1 };
        run_lengths[last_idx] += run_len;
        run_count[last_idx] += 1;

        if gaps[0].len() < 2 || gaps[1].len() < 2 || run_count[0] == 0 || run_count[1] == 0 {
            return None;
        }
        let mut rates = [0.0f64; 2]; // λ per phase
        let mut switch = [0.0f64; 2]; // p per phase
        for idx in 0..2 {
            // Labelled runs occasionally hide a round trip through the
            // *other* phase (the excursion produced no arrival), which
            // contaminates a small fraction of within-run gaps with large
            // outliers. The median is robust to that; for Exp(μ) the median
            // is ln2/μ.
            gaps[idx].sort_by(|a, b| a.partial_cmp(b).unwrap());
            let median = gaps[idx][gaps[idx].len() / 2].max(f64::MIN_POSITIVE);
            let mu = std::f64::consts::LN_2 / median; // λ + p
            let mean_run = run_lengths[idx] as f64 / run_count[idx] as f64;
            let c = (1.0 - 1.0 / mean_run).clamp(0.0, 1.0 - 1e-9);
            rates[idx] = c * mu;
            switch[idx] = (1.0 - c) * mu;
        }
        if rates[0] <= 0.0 || rates[1] <= 0.0 {
            return None;
        }
        Some(Mmpp2::new(switch[0], switch[1], rates[0], rates[1]))
    }
}

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
                write!(
                    f,
                    "generator is {rows}x{cols} but {phases} rates were supplied"
                )
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
    pub(crate) fn try_equilibrium(&self) -> Result<Vec<f64>, SolveError> {
        self.generator
            .stationary_vector()
            .ok_or(SolveError::Singular {
                context: "equilibrium of a reducible generator",
            })
    }

    /// Long-run mean arrival rate λ̄ = πλ.
    pub fn mean_rate(&self) -> f64 {
        dot(&self.equilibrium(), &self.rates)
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

impl From<Mmpp2> for MmppN {
    /// The 2-phase process with the generator `R` and rates `Λ` of eq. (1).
    fn from(m: Mmpp2) -> Self {
        MmppN {
            generator: Matrix::from_rows(&[&[-m.p1, m.p1], &[m.p2, -m.p2]]),
            rates: vec![m.lambda1, m.lambda2],
        }
    }
}

/// The inner product `Σ aᵢ·bᵢ`.
pub(crate) fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}
#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn assert_rel(a: f64, b: f64, rel: f64, what: &str) {
        let denom = b.abs().max(1e-300);
        assert!((a - b).abs() / denom < rel, "{what}: {a} vs {b}");
    }

    fn bursty() -> Mmpp2 {
        // I-phase: 2000 pkt/s for ~5 ms bursts; P-phase: 30 pkt/s.
        Mmpp2::new(200.0, 6.0, 2000.0, 30.0)
    }

    #[test]
    fn equilibrium_matches_eq2() {
        let m = bursty();
        let pi = m.equilibrium();
        assert!((pi[0] - 6.0 / 206.0).abs() < 1e-12);
        assert!((pi[1] - 200.0 / 206.0).abs() < 1e-12);
        assert!((pi[0] + pi[1] - 1.0).abs() < 1e-12);
        // π is the left null vector of R.
        let r = MmppN::from(m).generator;
        let res = r.vec_mul(&pi);
        assert!(res[0].abs() < 1e-12 && res[1].abs() < 1e-12);
    }

    #[test]
    fn mean_rate_is_rate_weighted_equilibrium() {
        let m = bursty();
        let pi = m.equilibrium();
        let expected = pi[0] * 2000.0 + pi[1] * 30.0;
        assert!((m.mean_rate() - expected).abs() < 1e-12);
    }

    #[test]
    fn poisson_degenerate_case() {
        let m = Mmpp2::poisson(100.0);
        assert_eq!(m.mean_rate(), 100.0);
        assert_eq!(m.equilibrium(), [0.5, 0.5]);
    }

    #[test]
    fn sampled_rate_matches_analytic() {
        let m = bursty();
        let mut rng = StdRng::seed_from_u64(1);
        let n = 60_000;
        let arrivals = MmppN::from(m).sample_arrivals(n, &mut rng);
        let duration = arrivals.last().unwrap().0;
        let rate = n as f64 / duration;
        let expected = m.mean_rate();
        assert!(
            (rate - expected).abs() / expected < 0.05,
            "sampled {rate}, expected {expected}"
        );
    }

    #[test]
    fn sampled_phases_follow_labels() {
        let m = bursty();
        let mut rng = StdRng::seed_from_u64(2);
        let arrivals = MmppN::from(m).sample_arrivals(20_000, &mut rng);
        // Most arrivals should be phase-1 (index 0: I bursts dominate counts
        // even though the chain spends most time in phase 2).
        let phase1 = arrivals.iter().filter(|(_, p)| *p == 0).count();
        let frac = phase1 as f64 / arrivals.len() as f64;
        // Analytic fraction: π₁λ₁ / λ̄.
        let pi = m.equilibrium();
        let expected = pi[0] * m.lambda1 / m.mean_rate();
        assert!((frac - expected).abs() < 0.05, "frac {frac} vs {expected}");
    }

    #[test]
    fn arrivals_strictly_increase() {
        let m = bursty();
        let mut rng = StdRng::seed_from_u64(3);
        let arrivals = MmppN::from(m).sample_arrivals(5_000, &mut rng);
        for w in arrivals.windows(2) {
            assert!(w[1].0 > w[0].0);
        }
    }

    #[test]
    fn fit_recovers_parameters() {
        let truth = bursty();
        let mut rng = StdRng::seed_from_u64(4);
        let arrivals: Vec<(f64, bool)> = MmppN::from(truth)
            .sample_arrivals(120_000, &mut rng)
            .into_iter()
            .map(|(t, phase)| (t, phase == 0))
            .collect();
        let fit = Mmpp2::fit_labeled(&arrivals).unwrap();
        for (name, got, want) in [
            ("lambda1", fit.lambda1, truth.lambda1),
            ("lambda2", fit.lambda2, truth.lambda2),
            ("p1", fit.p1, truth.p1),
            ("p2", fit.p2, truth.p2),
        ] {
            assert!(
                (got - want).abs() / want < 0.25,
                "{name}: fit {got} vs truth {want}"
            );
        }
    }

    #[test]
    fn fit_rejects_degenerate_inputs() {
        assert!(Mmpp2::fit_labeled(&[]).is_none());
        assert!(Mmpp2::fit_labeled(&[(0.1, true), (0.2, true)]).is_none());
        // All one phase.
        let one_phase: Vec<(f64, bool)> = (0..100).map(|i| (i as f64, true)).collect();
        assert!(Mmpp2::fit_labeled(&one_phase).is_none());
    }

    #[test]
    fn try_new_rejects_hostile_parameters() {
        use MmppError::*;
        assert_eq!(
            Mmpp2::try_new(f64::NAN, 6.0, 2000.0, 30.0),
            Err(NotFinite("p1"))
        );
        assert_eq!(
            Mmpp2::try_new(200.0, f64::INFINITY, 2000.0, 30.0),
            Err(NotFinite("p2"))
        );
        assert_eq!(
            Mmpp2::try_new(200.0, 6.0, f64::NAN, 30.0),
            Err(NotFinite("lambda1"))
        );
        assert_eq!(
            Mmpp2::try_new(0.0, 6.0, 2000.0, 30.0),
            Err(NonPositiveTransition("p1"))
        );
        assert_eq!(
            Mmpp2::try_new(200.0, -1.0, 2000.0, 30.0),
            Err(NonPositiveTransition("p2"))
        );
        assert_eq!(
            Mmpp2::try_new(200.0, 6.0, -2000.0, 30.0),
            Err(NegativeRate("lambda1"))
        );
        assert_eq!(
            Mmpp2::try_new(200.0, 6.0, 2000.0, -30.0),
            Err(NegativeRate("lambda2"))
        );
        assert_eq!(Mmpp2::try_new(200.0, 6.0, 2000.0, 30.0), Ok(bursty()));
        // Zero arrival rates are legitimate (a silent phase).
        assert!(Mmpp2::try_new(1.0, 1.0, 0.0, 0.0).is_ok());
    }

    #[test]
    fn generator_rows_sum_to_zero() {
        let r = MmppN::from(bursty()).generator;
        for i in 0..2 {
            assert!((r[(i, 0)] + r[(i, 1)]).abs() < 1e-12);
        }
    }

    #[test]
    fn n_phase_try_new_rejects_hostile_parameters() {
        use MmppNError::*;
        assert_eq!(
            MmppN::try_new(Matrix::zeros(0, 0), vec![]).err(),
            Some(NoPhases)
        );
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
    fn equilibrium_is_a_distribution() {
        let gen = Matrix::from_rows(&[&[-2.0, 1.0, 1.0], &[3.0, -4.0, 1.0], &[0.5, 0.5, -1.0]]);
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
        let gen = Matrix::from_rows(&[&[-1.0, 0.7, 0.3], &[2.0, -3.0, 1.0], &[4.0, 4.0, -8.0]]);
        let mmpp = MmppN::new(gen, vec![30.0, 120.0, 700.0]);
        let mut rng = StdRng::seed_from_u64(3);
        let arrivals = mmpp.sample_arrivals(200_000, &mut rng);
        let rate = arrivals.len() as f64 / arrivals.last().unwrap().0;
        assert_rel(rate, mmpp.mean_rate(), 0.03, "sampled rate");
    }

    #[test]
    #[should_panic(expected = "rows must sum to zero")]
    fn invalid_generator_rejected() {
        MmppN::new(
            Matrix::from_rows(&[&[-1.0, 2.0], &[1.0, -1.0]]),
            vec![1.0, 1.0],
        );
    }
}
