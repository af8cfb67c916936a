//! Waiting-time **distribution** of the MMPP/G/1 queue by numerical
//! transform inversion.
//!
//! The paper quotes the Heffes–Lucantoni algorithm as computing "the
//! distribution function and the moments of the delay seen by the video
//! packets"; [`crate::solver`] produces the moments, and this module
//! recovers the distribution: the waiting-time LST of an arriving packet,
//!
//! `Ŵ(s) = (1/λ̄) · s(1−ρ)·g·[sI + Q − Λ(1 − H̃(s))]⁻¹ · Λ·e`,
//!
//! is inverted with the Abate–Whitt **Euler algorithm** (Euler-summed
//! Bromwich trapezoid), giving `P{W ≤ t}` and delay percentiles — the p95
//! and p99 latencies a streaming deployment actually cares about.

use crate::mmpp::Mmpp2;
use crate::service::{ServiceComponent, ServiceDistribution};
use crate::solver::QueueSolution;

/// Minimal complex arithmetic (no external crates).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

#[allow(clippy::should_implement_trait)] // named methods keep call chains
impl Complex {
    /// Construct from parts.
    pub fn new(re: f64, im: f64) -> Self {
        Complex { re, im }
    }

    /// The real number `x`.
    fn real(x: f64) -> Self {
        Complex { re: x, im: 0.0 }
    }

    /// Complex sum.
    pub fn add(self, o: Complex) -> Complex {
        Complex::new(self.re + o.re, self.im + o.im)
    }

    /// Complex difference.
    pub fn sub(self, o: Complex) -> Complex {
        Complex::new(self.re - o.re, self.im - o.im)
    }

    /// Complex product.
    pub fn mul(self, o: Complex) -> Complex {
        Complex::new(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )
    }

    /// Scale by a real factor.
    pub fn scale(self, k: f64) -> Complex {
        Complex::new(self.re * k, self.im * k)
    }

    /// Complex quotient.
    fn div(self, o: Complex) -> Complex {
        let d = o.re * o.re + o.im * o.im;
        Complex::new(
            (self.re * o.re + self.im * o.im) / d,
            (self.im * o.re - self.re * o.im) / d,
        )
    }

    /// Complex exponential.
    pub fn exp(self) -> Complex {
        let m = self.re.exp();
        Complex::new(m * self.im.cos(), m * self.im.sin())
    }
}

fn component_lst_c(c: &ServiceComponent, s: Complex) -> Complex {
    match c {
        ServiceComponent::GaussianMixture(atoms) => {
            let mut acc = Complex::real(0.0);
            for &(w, mu, sd) in atoms {
                // e^{−μs + σ²s²/2}
                let exponent = s.scale(-mu).add(s.mul(s).scale(0.5 * sd * sd));
                acc = acc.add(exponent.exp().scale(w));
            }
            acc
        }
        ServiceComponent::GeometricExponential { success_prob, rate } => {
            // p(λ+s)/(pλ+s)
            let num = Complex::new(rate + s.re, s.im).scale(*success_prob);
            let den = Complex::new(success_prob * rate + s.re, s.im);
            num.div(den)
        }
    }
}

/// Service LST at a complex argument: product over independent parts.
fn service_lst_c(service: &ServiceDistribution, s: Complex) -> Complex {
    let mut acc = Complex::real(1.0);
    for part in service.parts() {
        acc = acc.mul(component_lst_c(part, s));
    }
    acc
}

/// The waiting-time LST `Ŵ(s)` of an arriving packet, evaluated at complex
/// `s`, given a solved queue (for ρ and g).
fn wait_lst_c(
    mmpp: &Mmpp2,
    service: &ServiceDistribution,
    solution: &QueueSolution,
    s: Complex,
) -> Complex {
    let h = service_lst_c(service, s);
    let one_minus_h = Complex::real(1.0).sub(h);
    // M = sI + Q − Λ(1 − H̃(s)) for the 2-state chain, inverted in closed form.
    let m11 = s
        .add(Complex::real(-mmpp.p1))
        .sub(one_minus_h.scale(mmpp.lambda1));
    let m12 = Complex::real(mmpp.p1);
    let m21 = Complex::real(mmpp.p2);
    let m22 = s
        .add(Complex::real(-mmpp.p2))
        .sub(one_minus_h.scale(mmpp.lambda2));
    let det = m11.mul(m22).sub(m12.mul(m21));
    // inverse = [[m22, −m12], [−m21, m11]] / det
    let g = solution.g_stationary;
    // w̃(s) = s(1−ρ) · g · M⁻¹  (row vector times matrix inverse)
    let pref = s.scale(1.0 - solution.rho);
    let w1 = pref
        .mul(
            Complex::real(g[0])
                .mul(m22)
                .sub(Complex::real(g[1]).mul(m21)),
        )
        .div(det);
    let w2 = pref
        .mul(
            Complex::real(g[1])
                .mul(m11)
                .sub(Complex::real(g[0]).mul(m12)),
        )
        .div(det);
    // Ŵ(s) = w̃(s)·Λ·e / λ̄ — arrivals weight phases by their rates.
    w1.scale(mmpp.lambda1)
        .add(w2.scale(mmpp.lambda2))
        .scale(1.0 / solution.mean_rate)
}

/// Abate–Whitt Euler inversion of a probability CDF from its LST.
///
/// `lst(s)` must return the LST of the *distribution* (`E[e^{−sX}]`); the
/// function inverts `lst(s)/s` — the transform of the CDF — at `t > 0`.
fn euler_invert_cdf(lst: impl Fn(Complex) -> Complex, t: f64) -> f64 {
    assert!(t > 0.0, "CDF inversion needs t > 0");
    // Standard Euler parameters: A controls discretisation error (~1e-8),
    // N regular terms, M Euler-averaged tail terms.
    const A: f64 = 18.4;
    const N: usize = 38;
    const M: usize = 14;
    let f = |s: Complex| lst(s).div(s); // transform of the CDF
    let half = 0.5 * f(Complex::real(A / (2.0 * t))).re;
    let mut partial_sums = Vec::with_capacity(N + M + 1);
    let mut acc = half;
    for k in 1..=(N + M) {
        let s = Complex::new(A / (2.0 * t), k as f64 * std::f64::consts::PI / t);
        let term = f(s).re * if k % 2 == 0 { 1.0 } else { -1.0 };
        acc += term;
        if k >= N {
            partial_sums.push(acc);
        }
    }
    // Euler (binomial) averaging of the last M+1 partial sums.
    let mut euler = 0.0;
    let mut binom = 1.0f64; // C(M, j)
    for (j, &sum) in partial_sums.iter().enumerate().take(M + 1) {
        euler += binom * sum;
        binom = binom * (M - j) as f64 / (j + 1) as f64;
    }
    euler /= 2f64.powi(M as i32);
    ((A / 2.0).exp() / t * euler).clamp(0.0, 1.0)
}

/// Waiting-time distribution of a solved MMPP/G/1 queue.
#[derive(Debug, Clone)]
pub struct WaitDistribution<'a> {
    mmpp: &'a Mmpp2,
    service: &'a ServiceDistribution,
    solution: &'a QueueSolution,
}

impl<'a> WaitDistribution<'a> {
    /// Bind to a solved queue.
    pub fn new(
        mmpp: &'a Mmpp2,
        service: &'a ServiceDistribution,
        solution: &'a QueueSolution,
    ) -> Self {
        WaitDistribution {
            mmpp,
            service,
            solution,
        }
    }

    /// The exact probability mass at `W = 0` (an arriving packet finds the
    /// system idle): `w(0) = (1−ρ)·g`, rate-biased over phases.
    fn atom_at_zero(&self) -> f64 {
        let g = self.solution.g_stationary;
        (1.0 - self.solution.rho) * (g[0] * self.mmpp.lambda1 + g[1] * self.mmpp.lambda2)
            / self.solution.mean_rate
    }

    /// Smallest `t` the Bromwich contour can evaluate: the Gaussian service
    /// atoms have LST `e^{−μs + σ²s²/2}`, which (as an artifact of Gaussian
    /// support on all of ℝ) explodes on the real axis once
    /// `s > 2μ/σ²`; the contour abscissa is `A/(2t)`, so `t` must stay
    /// above `A·σ²/(4μ)` for every atom. Continuous waiting-time mass below
    /// this floor is negligible (it is ≪ the smallest service time).
    fn t_floor(&self) -> f64 {
        const A: f64 = 18.4;
        let mut floor = 0.0f64;
        for part in self.service.parts() {
            if let ServiceComponent::GaussianMixture(atoms) = part {
                for &(w, mu, sd) in atoms {
                    if w > 0.0 && sd > 0.0 && mu > 0.0 {
                        floor = floor.max(A * sd * sd / (4.0 * mu) * 2.0);
                    }
                }
            }
        }
        floor
    }

    /// `P{W ≤ t}` for an arriving packet.
    ///
    /// The atom at zero is handled analytically (`atom_at_zero`) and only
    /// the continuous part goes through the Euler inversion — without the
    /// split, the constant term dominates the Bromwich sum at small `t` and
    /// the result loses several digits. Below [`t_floor`](Self::t_floor)
    /// the contour is invalid and the CDF is reported as the atom alone.
    pub fn cdf(&self, t: f64) -> f64 {
        if t <= 0.0 {
            return 0.0;
        }
        let atom = self.atom_at_zero();
        if t < self.t_floor() {
            return atom;
        }
        let continuous = euler_invert_cdf(
            |s| {
                wait_lst_c(self.mmpp, self.service, self.solution, s)
                    .sub(Complex::real(atom))
            },
            t,
        );
        (atom + continuous).clamp(atom, 1.0)
    }

    /// The `p`-quantile of the waiting time (e.g. `0.95` for p95 latency),
    /// by bisection on the CDF.
    pub fn quantile(&self, p: f64) -> f64 {
        assert!((0.0..1.0).contains(&p), "quantile level must be in [0, 1)");
        // Bracket: mean/1000 .. mean * 1000 (the CDF is smooth and monotone).
        let mut lo = self.solution.mean_wait_s.max(1e-12) * 1e-3;
        let mut hi = self.solution.mean_wait_s.max(1e-9) * 1e3;
        if self.cdf(lo) > p {
            return lo;
        }
        for _ in 0..200 {
            let mid = 0.5 * (lo + hi);
            if self.cdf(mid) < p {
                lo = mid;
            } else {
                hi = mid;
            }
            if hi - lo < 1e-9 * hi {
                break;
            }
        }
        0.5 * (lo + hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulate::simulate_mmpp_g1;
    use crate::solver::MmppG1;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn md1() -> (Mmpp2, ServiceDistribution, QueueSolution) {
        let mmpp = Mmpp2::poisson(50.0);
        let service = ServiceDistribution::point(0.01); // ρ = 0.5
        let solution = MmppG1::new(mmpp, service.clone()).solve().unwrap();
        (mmpp, service, solution)
    }

    #[test]
    fn complex_arithmetic() {
        let a = Complex::new(1.0, 2.0);
        let b = Complex::new(3.0, -1.0);
        let p = a.mul(b);
        assert!((p.re - 5.0).abs() < 1e-12 && (p.im - 5.0).abs() < 1e-12);
        let q = p.div(b);
        assert!((q.re - a.re).abs() < 1e-12 && (q.im - a.im).abs() < 1e-12);
        let e = Complex::new(0.0, std::f64::consts::PI).exp();
        assert!((e.re + 1.0).abs() < 1e-12 && e.im.abs() < 1e-12);
    }

    #[test]
    fn euler_inverts_exponential_cdf() {
        // X ~ Exp(3): LST 3/(3+s); CDF 1 − e^{−3t}.
        let lst = |s: Complex| Complex::real(3.0).div(Complex::new(3.0 + s.re, s.im));
        for t in [0.05, 0.2, 0.5, 1.0, 2.0] {
            let got = euler_invert_cdf(lst, t);
            let want = 1.0 - (-3.0 * t).exp();
            assert!((got - want).abs() < 1e-6, "t={t}: {got} vs {want}");
        }
    }

    #[test]
    fn euler_inverts_point_mass() {
        // X ≡ 1: CDF is a step at 1. Away from the jump the inversion is sharp.
        let lst = |s: Complex| s.scale(-1.0).exp();
        assert!(euler_invert_cdf(lst, 0.5) < 0.02);
        assert!(euler_invert_cdf(lst, 2.0) > 0.98);
    }

    #[test]
    fn md1_atom_at_zero_is_one_minus_rho() {
        // For M/G/1, P(W = 0) = 1 − ρ; the CDF just above zero shows it.
        let (mmpp, service, solution) = md1();
        let dist = WaitDistribution::new(&mmpp, &service, &solution);
        let near_zero = dist.cdf(1e-5);
        assert!(
            (near_zero - 0.5).abs() < 0.03,
            "P(W≈0) = {near_zero}, expected ≈ 1 − ρ = 0.5"
        );
    }

    #[test]
    fn cdf_is_monotone_and_saturates() {
        let (mmpp, service, solution) = md1();
        let dist = WaitDistribution::new(&mmpp, &service, &solution);
        let mut last = 0.0;
        for t in [1e-4, 1e-3, 3e-3, 0.01, 0.03, 0.1, 0.3] {
            let f = dist.cdf(t);
            assert!(f + 1e-6 >= last, "CDF must be nondecreasing at t={t}");
            last = f;
        }
        assert!(last > 0.999, "CDF should saturate: {last}");
    }

    #[test]
    fn cdf_mean_matches_solver_mean() {
        // E[W] = ∫ (1 − F) dt, integrated numerically.
        let (mmpp, service, solution) = md1();
        let dist = WaitDistribution::new(&mmpp, &service, &solution);
        let dt = 2e-4;
        let mut mean = 0.0;
        let mut t = dt / 2.0;
        while t < 0.3 {
            mean += (1.0 - dist.cdf(t)) * dt;
            t += dt;
        }
        assert!(
            (mean - solution.mean_wait_s).abs() / solution.mean_wait_s < 0.02,
            "integrated {mean} vs solver {}",
            solution.mean_wait_s
        );
    }

    #[test]
    fn cdf_matches_simulation_for_bursty_mmpp() {
        let mmpp = Mmpp2::new(100.0, 10.0, 900.0, 60.0);
        let service = ServiceDistribution::gaussian(0.003, 3e-4);
        let solution = MmppG1::new(mmpp, service.clone()).solve().unwrap();
        let dist = WaitDistribution::new(&mmpp, &service, &solution);
        // Empirical CDF from the validated simulator.
        let mut rng = StdRng::seed_from_u64(77);
        let arrivals = mmpp.sample_arrivals(400_000, &mut rng);
        let mut wait = 0.0f64;
        let mut waits = Vec::with_capacity(arrivals.len());
        let mut prev = arrivals[0].0;
        let mut svc = service.sample(&mut rng);
        for &(t, _) in arrivals.iter().skip(1) {
            wait = (wait + svc - (t - prev)).max(0.0);
            waits.push(wait);
            svc = service.sample(&mut rng);
            prev = t;
        }
        waits.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let empirical = |t: f64| {
            let idx = waits.partition_point(|&w| w <= t);
            idx as f64 / waits.len() as f64
        };
        for t in [0.002, 0.005, 0.01, 0.02, 0.05] {
            let analytic = dist.cdf(t);
            let sim = empirical(t);
            assert!(
                (analytic - sim).abs() < 0.03,
                "t={t}: analytic {analytic} vs sim {sim}"
            );
        }
        let _ = simulate_mmpp_g1(&mmpp, &service, 1000, &mut rng); // keep helper hot
    }

    #[test]
    fn quantiles_bracket_the_mean() {
        let (mmpp, service, solution) = md1();
        let dist = WaitDistribution::new(&mmpp, &service, &solution);
        let p50 = dist.quantile(0.50);
        let p95 = dist.quantile(0.95);
        let p99 = dist.quantile(0.99);
        assert!(p50 < p95 && p95 < p99, "{p50} {p95} {p99}");
        // Waiting time is right-skewed: median below the mean, p95 above.
        assert!(p50 < solution.mean_wait_s);
        assert!(p95 > solution.mean_wait_s);
        // Quantiles are consistent with the CDF.
        assert!((dist.cdf(p95) - 0.95).abs() < 0.01);
    }
}
