//! Service-time distributions with closed-form Laplace–Stieltjes transforms.
//!
//! The paper's per-packet service time (eq. 3) is the independent sum
//! `T = T_e^(P) + T_b + T_t`:
//!
//! * `T_e` — encryption time: a two-component mixture (I-packet vs P-packet,
//!   eq. 4), each component either a constant (eq. 11) or a Gaussian around
//!   a typical value (eq. 15); the policy adds a "not encrypted ⇒ 0" atom
//!   via the probability `q^(P)`.
//! * `T_b` — MAC backoff: a geometric number of exponential waits (eq. 6),
//!   whose LST is eq. (7).
//! * `T_t` — transmission time: a two-point I/P mixture (eqs. 8, 13, 16).
//!
//! [`ServiceDistribution`] represents exactly this product form: a list of
//! independent [`ServiceComponent`]s whose LSTs multiply (eq. 10), with
//! exact first three moments, matrix LSTs (needed by the G-matrix fixed
//! point) and sampling (needed by the discrete-event validation).

use crate::matrix::Matrix;
use rand::Rng;

/// One weighted Gaussian atom of a mixture: `(weight, mean_s, std_s)`.
/// A zero `std_s` makes it a point mass.
pub type MixtureAtom = (f64, f64, f64);

/// An independent additive component of the service time.
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceComponent {
    /// Finite mixture of (truncated-at-zero) Gaussians.
    GaussianMixture(Vec<MixtureAtom>),
    /// `Σ_{j=1..K} τ_j` with `K ~ Geometric(success_prob)` counting failures
    /// before the first success and `τ_j ~ Exp(rate)` — the paper's backoff
    /// time (eqs. 6–7).
    GeometricExponential {
        /// Per-attempt success probability `p_s`.
        success_prob: f64,
        /// Rate `λ_b` of each exponential wait.
        rate: f64,
    },
}

impl ServiceComponent {
    /// First raw moment (mean).
    pub fn mean(&self) -> f64 {
        match self {
            ServiceComponent::GaussianMixture(atoms) => atoms.iter().map(|&(w, m, _)| w * m).sum(),
            ServiceComponent::GeometricExponential { success_prob, rate } => {
                (1.0 - success_prob) / (success_prob * rate)
            }
        }
    }

    /// Second raw moment `E\[X²\]`.
    pub fn moment2(&self) -> f64 {
        match self {
            ServiceComponent::GaussianMixture(atoms) => {
                atoms.iter().map(|&(w, m, s)| w * (m * m + s * s)).sum()
            }
            ServiceComponent::GeometricExponential { success_prob, rate } => {
                2.0 * (1.0 - success_prob) / (success_prob * success_prob * rate * rate)
            }
        }
    }

    /// Scalar Laplace–Stieltjes transform `E[e^{-sX}]`.
    pub fn lst(&self, s: f64) -> f64 {
        match self {
            ServiceComponent::GaussianMixture(atoms) => atoms
                .iter()
                .map(|&(w, m, sd)| w * (-m * s + 0.5 * sd * sd * s * s).exp())
                .sum(),
            ServiceComponent::GeometricExponential { success_prob, rate } => {
                // p(λ+s)/(pλ+s), the compound-geometric form of eq. (7).
                success_prob * (rate + s) / (success_prob * rate + s)
            }
        }
    }

    /// Matrix LST `E\[e^{MX}\]` (note the +M convention used by the G-matrix
    /// fixed point: `Ĥ(M) = ∫ e^{Mt} dH(t)`).
    pub fn matrix_lst(&self, m: &Matrix) -> Matrix {
        let n = m.rows();
        match self {
            ServiceComponent::GaussianMixture(atoms) => {
                let mut acc = Matrix::zeros(n, n);
                let m2 = m.mul(m);
                for &(w, mu, sd) in atoms {
                    let exponent = m.scale(mu).add(&m2.scale(0.5 * sd * sd));
                    acc = acc.add(&exponent.exp().scale(w));
                }
                acc
            }
            ServiceComponent::GeometricExponential { success_prob, rate } => {
                // E[e^{Mτ}] = λ(λI − M)^{-1}; compound geometric ⇒
                // p [I − (1−p)·λ(λI − M)^{-1}]^{-1}.
                let lam_i = Matrix::identity(n).scale(*rate);
                let inner = lam_i
                    .sub(m)
                    .inverse()
                    .expect("λI − M must be invertible (stable queue)")
                    .scale(*rate);
                let core = Matrix::identity(n)
                    .sub(&inner.scale(1.0 - success_prob))
                    .inverse()
                    .expect("geometric series must converge (p_s > 0)");
                core.scale(*success_prob)
            }
        }
    }

    /// Draw one value (truncated at zero for Gaussian atoms).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        match self {
            ServiceComponent::GaussianMixture(atoms) => {
                let total: f64 = atoms.iter().map(|a| a.0).sum();
                let mut pick = rng.gen_range(0.0..total);
                for &(w, m, s) in atoms {
                    if pick < w {
                        // lint:allow(num-float-eq): sigma exactly 0.0 encodes a point-mass atom, set by construction
                        if s == 0.0 {
                            return m.max(0.0);
                        }
                        let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
                        let u2: f64 = rng.gen_range(0.0..1.0);
                        let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
                        return (m + s * z).max(0.0);
                    }
                    pick -= w;
                }
                atoms.last().map(|&(_, m, _)| m.max(0.0)).unwrap_or(0.0)
            }
            ServiceComponent::GeometricExponential { success_prob, rate } => {
                let mut total = 0.0;
                while !rng.gen_bool(*success_prob) {
                    let u: f64 = rng.gen_range(f64::EPSILON..1.0);
                    total += -u.ln() / rate;
                }
                total
            }
        }
    }
}

/// The service time as an independent sum of components (product-form LST,
/// paper eq. 10).
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceDistribution {
    parts: Vec<ServiceComponent>,
}

impl ServiceDistribution {
    /// A deterministic service time.
    pub fn point(value: f64) -> Self {
        ServiceDistribution {
            parts: vec![ServiceComponent::GaussianMixture(vec![(1.0, value, 0.0)])],
        }
    }

    /// A single Gaussian service time.
    pub fn gaussian(mean: f64, std: f64) -> Self {
        ServiceDistribution {
            parts: vec![ServiceComponent::GaussianMixture(vec![(1.0, mean, std)])],
        }
    }

    /// Build from explicit components.
    pub fn from_parts(parts: Vec<ServiceComponent>) -> Self {
        assert!(!parts.is_empty(), "service needs at least one component");
        ServiceDistribution { parts }
    }

    /// The independent components.
    pub fn parts(&self) -> &[ServiceComponent] {
        &self.parts
    }

    /// Append an independent additive component.
    pub fn plus(mut self, part: ServiceComponent) -> Self {
        self.parts.push(part);
        self
    }

    /// Mean `h₁ = E\[T\]`.
    pub fn mean(&self) -> f64 {
        self.parts.iter().map(|p| p.mean()).sum()
    }

    /// Second raw moment `h₂ = E\[T²\]`, from part moments:
    /// `Var` adds across independent parts.
    pub fn moment2(&self) -> f64 {
        let mean = self.mean();
        let var: f64 = self
            .parts
            .iter()
            .map(|p| p.moment2() - p.mean() * p.mean())
            .sum();
        var + mean * mean
    }

    /// Scalar LST `H̃(s) = Π H̃ᵢ(s)` (eq. 10).
    pub fn lst(&self, s: f64) -> f64 {
        self.parts.iter().map(|p| p.lst(s)).product()
    }

    /// Matrix LST `Ĥ(M) = Π Ĥᵢ(M)` (components commute with a common M).
    pub fn matrix_lst(&self, m: &Matrix) -> Matrix {
        let mut acc = Matrix::identity(m.rows());
        for p in &self.parts {
            acc = acc.mul(&p.matrix_lst(m));
        }
        acc
    }

    /// Sample one service time.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.parts.iter().map(|p| p.sample(rng)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    impl ServiceComponent {
        /// Third raw moment `E\[X³\]`.
        fn moment3(&self) -> f64 {
            match self {
                ServiceComponent::GaussianMixture(atoms) => atoms
                    .iter()
                    .map(|&(w, m, s)| w * (m * m * m + 3.0 * m * s * s))
                    .sum(),
                ServiceComponent::GeometricExponential { success_prob, rate } => {
                    6.0 * (1.0 - success_prob) / (success_prob.powi(3) * rate.powi(3))
                }
            }
        }
    }

    impl ServiceDistribution {
        /// Third raw moment `E\[T³\]`, from additive central third moments.
        fn moment3(&self) -> f64 {
            let mean = self.mean();
            let var: f64 = self
                .parts
                .iter()
                .map(|p| p.moment2() - p.mean() * p.mean())
                .sum();
            let mu3: f64 = self
                .parts
                .iter()
                .map(|p| {
                    let m = p.mean();
                    let m2 = p.moment2();
                    let m3 = p.moment3();
                    m3 - 3.0 * m * m2 + 2.0 * m * m * m
                })
                .sum();
            mu3 + 3.0 * mean * var + mean.powi(3)
        }
    }

    fn assert_close(a: f64, b: f64, rel: f64) {
        let denom = b.abs().max(1e-300);
        assert!((a - b).abs() / denom < rel, "{a} vs {b}");
    }

    #[test]
    fn point_mass_moments_and_lst() {
        let d = ServiceDistribution::point(2.0);
        assert_eq!(d.mean(), 2.0);
        assert_eq!(d.moment2(), 4.0);
        assert_eq!(d.moment3(), 8.0);
        assert_close(d.lst(1.0), (-2.0f64).exp(), 1e-12);
        assert_eq!(d.lst(0.0), 1.0);
    }

    #[test]
    fn gaussian_moments() {
        let d = ServiceDistribution::gaussian(3.0, 0.5);
        assert_eq!(d.mean(), 3.0);
        assert_close(d.moment2(), 9.0 + 0.25, 1e-12);
        // E[X³] for Normal(μ,σ²) = μ³ + 3μσ².
        assert_close(d.moment3(), 27.0 + 3.0 * 3.0 * 0.25, 1e-12);
    }

    #[test]
    fn geometric_exponential_moments_match_lst_derivatives() {
        let p = 0.7;
        let lam = 100.0;
        let c = ServiceComponent::GeometricExponential {
            success_prob: p,
            rate: lam,
        };
        // Numeric derivatives of the LST at 0.
        let h = 1e-4;
        let lst = |s: f64| c.lst(s);
        let d1 = (lst(h) - lst(-h)) / (2.0 * h);
        let d2 = (lst(h) - 2.0 * lst(0.0) + lst(-h)) / (h * h);
        assert_close(-d1, c.mean(), 1e-4);
        assert_close(d2, c.moment2(), 1e-3);
    }

    #[test]
    fn mixture_mean_is_weighted() {
        let d = ServiceDistribution::from_parts(vec![ServiceComponent::GaussianMixture(vec![
            (0.3, 10.0, 1.0),
            (0.7, 2.0, 0.5),
        ])]);
        assert_close(d.mean(), 0.3 * 10.0 + 0.7 * 2.0, 1e-12);
        assert_close(d.moment2(), 0.3 * (100.0 + 1.0) + 0.7 * (4.0 + 0.25), 1e-12);
    }

    #[test]
    fn sampling_matches_analytic_moments() {
        // Paper-like service: encryption mixture + backoff + transmission.
        let service = ServiceDistribution::from_parts(vec![
            ServiceComponent::GaussianMixture(vec![
                (0.3, 5e-3, 5e-4), // I-packet encrypted
                (0.7, 0.0, 0.0),   // not encrypted
            ]),
            ServiceComponent::GeometricExponential {
                success_prob: 0.9,
                rate: 7000.0,
            },
            ServiceComponent::GaussianMixture(vec![(0.4, 3e-4, 3e-5), (0.6, 1e-4, 1e-5)]),
        ]);
        let mut rng = StdRng::seed_from_u64(7);
        let n = 400_000;
        let samples: Vec<f64> = (0..n).map(|_| service.sample(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let m2 = samples.iter().map(|x| x * x).sum::<f64>() / n as f64;
        assert_close(mean, service.mean(), 0.02);
        assert_close(m2, service.moment2(), 0.05);
    }

    #[test]
    fn matrix_lst_reduces_to_scalar_for_1x1() {
        let service = ServiceDistribution::from_parts(vec![
            ServiceComponent::GaussianMixture(vec![(0.5, 2e-3, 1e-4), (0.5, 1e-3, 0.0)]),
            ServiceComponent::GeometricExponential {
                success_prob: 0.8,
                rate: 5000.0,
            },
        ]);
        for s in [0.0, 10.0, 100.0] {
            let m = Matrix::from_rows(&[&[-s]]);
            let scalar = service.lst(s);
            let matrix = service.matrix_lst(&m);
            assert_close(matrix[(0, 0)], scalar, 1e-9);
        }
    }

    #[test]
    fn lst_at_zero_is_one() {
        let service = ServiceDistribution::gaussian(1e-3, 1e-4).plus(
            ServiceComponent::GeometricExponential {
                success_prob: 0.6,
                rate: 1000.0,
            },
        );
        assert_close(service.lst(0.0), 1.0, 1e-12);
        let m = Matrix::zeros(2, 2);
        let ml = service.matrix_lst(&m);
        assert_close(ml[(0, 0)], 1.0, 1e-10);
        assert_close(ml[(1, 1)], 1.0, 1e-10);
        assert!(ml[(0, 1)].abs() < 1e-10);
    }

    #[test]
    fn geometric_exponential_zero_loss_is_zero_backoff() {
        let c = ServiceComponent::GeometricExponential {
            success_prob: 1.0,
            rate: 1000.0,
        };
        assert_eq!(c.mean(), 0.0);
        assert_eq!(c.moment2(), 0.0);
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(c.sample(&mut rng), 0.0);
        assert_eq!(c.lst(5.0), 1.0);
    }
}
