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

use crate::mmpp::dot;
use crate::service::{ServiceComponent, ServiceDistribution};
use crate::solver::{MmppG1, QueueSolution};

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

    /// Squared modulus `|z|²`.
    fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
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

/// Solve the augmented system `[A | b]` (row-major n×(n+1)) by Gaussian
/// elimination with partial pivoting.
fn solve_augmented(mut a: Vec<Complex>, n: usize) -> Vec<Complex> {
    let w = n + 1;
    for col in 0..n {
        let pivot = (col..n)
            .max_by(|&x, &y| {
                a[x * w + col]
                    .norm_sqr()
                    .total_cmp(&a[y * w + col].norm_sqr())
            })
            .unwrap_or(col);
        for k in 0..w {
            a.swap(col * w + k, pivot * w + k);
        }
        let p = a[col * w + col];
        for r in col + 1..n {
            let f = a[r * w + col].div(p);
            for k in col..w {
                a[r * w + k] = a[r * w + k].sub(f.mul(a[col * w + k]));
            }
        }
    }
    let mut x = vec![Complex::real(0.0); n];
    for i in (0..n).rev() {
        let mut acc = a[i * w + n];
        for j in i + 1..n {
            acc = acc.sub(a[i * w + j].mul(x[j]));
        }
        x[i] = acc.div(a[i * w + i]);
    }
    x
}

/// The waiting-time LST `Ŵ(s)` of an arriving packet, evaluated at complex
/// `s`, given a solved queue (for ρ, λ̄ and g).
fn wait_lst_c(queue: &MmppG1, solution: &QueueSolution, s: Complex) -> Complex {
    let mmpp = &queue.mmpp;
    let n = mmpp.phases();
    let one_minus_h = Complex::real(1.0).sub(service_lst_c(&queue.service, s));
    // w̃(s) = s(1−ρ) · x with x·M = g for M = sI + Q − Λ(1 − H̃(s)):
    // solve Mᵀ·xᵀ = gᵀ, built directly as the augmented [Mᵀ | g].
    let w = n + 1;
    let mut a = vec![Complex::real(0.0); n * w];
    for i in 0..n {
        for j in 0..n {
            a[j * w + i] = Complex::real(mmpp.generator[(i, j)]);
        }
        a[i * w + i] = a[i * w + i].add(s).sub(one_minus_h.scale(mmpp.rates[i]));
        a[i * w + n] = Complex::real(solution.g_stationary[i]);
    }
    // Ŵ(s) = w̃(s)·Λ·e / λ̄ — arrivals weight phases by their rates.
    let mut acc = Complex::real(0.0);
    for (xi, &rate) in solve_augmented(a, n).iter().zip(&mmpp.rates) {
        acc = acc.add(xi.scale(rate));
    }
    acc.mul(s.scale(1.0 - solution.rho))
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
    queue: &'a MmppG1,
    solution: &'a QueueSolution,
}

impl<'a> WaitDistribution<'a> {
    /// Bind to a queue and its solution.
    pub fn new(queue: &'a MmppG1, solution: &'a QueueSolution) -> Self {
        WaitDistribution { queue, solution }
    }

    /// The exact probability mass at `W = 0` (an arriving packet finds the
    /// system idle): `w(0) = (1−ρ)·g`, rate-biased over phases.
    fn atom_at_zero(&self) -> f64 {
        (1.0 - self.solution.rho) * dot(&self.solution.g_stationary, &self.queue.mmpp.rates)
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
        for part in self.queue.service.parts() {
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
    /// the result loses several digits. At `t = 0` the CDF is the atom;
    /// below [`t_floor`](Self::t_floor) the contour is invalid and the CDF
    /// is reported as the atom alone.
    pub fn cdf(&self, t: f64) -> f64 {
        if t < 0.0 {
            return 0.0;
        }
        let atom = self.atom_at_zero();
        if t <= 0.0 || t < self.t_floor() {
            return atom;
        }
        let continuous = euler_invert_cdf(
            |s| wait_lst_c(self.queue, self.solution, s).sub(Complex::real(atom)),
            t,
        );
        (atom + continuous).clamp(atom, 1.0)
    }

    /// The `p`-quantile of the waiting time (e.g. `0.95` for p95 latency),
    /// by bisection on the CDF: `0` when the atom at zero already holds
    /// mass `p`.
    pub fn quantile(&self, p: f64) -> f64 {
        assert!((0.0..1.0).contains(&p), "quantile level must be in [0, 1)");
        if p <= self.atom_at_zero() {
            return 0.0;
        }
        // Bracket: mean/1000 .. mean * 1000 (the CDF is smooth and monotone).
        let mut lo = self.solution.mean_wait_s.max(1e-12) * 1e-3;
        let mut hi = self.solution.mean_wait_s.max(1e-9) * 1e3;
        if self.cdf(lo) > p {
            (lo, hi) = (0.0, lo);
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
    use crate::matrix::Matrix;
    use crate::mmpp::{Mmpp2, MmppN};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn solved(mmpp: MmppN, service: ServiceDistribution) -> (MmppG1, QueueSolution) {
        let queue = MmppG1::new(mmpp, service);
        let solution = queue.solve().unwrap();
        (queue, solution)
    }

    fn md1() -> (MmppG1, QueueSolution) {
        // ρ = 0.5
        solved(
            Mmpp2::poisson(50.0).into(),
            ServiceDistribution::point(0.01),
        )
    }

    /// The differential suite's 3-state case: burst, paced and near-idle
    /// phases, deterministic service.
    fn three_state() -> (MmppG1, QueueSolution) {
        let gen = Matrix::from_rows(&[
            &[-40.0, 30.0, 10.0],
            &[6.0, -12.0, 6.0],
            &[8.0, 12.0, -20.0],
        ]);
        solved(
            MmppN::new(gen, vec![700.0, 90.0, 4.0]),
            ServiceDistribution::point(0.003),
        )
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
        let (queue, solution) = md1();
        let dist = WaitDistribution::new(&queue, &solution);
        let near_zero = dist.cdf(1e-5);
        assert!(
            (near_zero - 0.5).abs() < 0.03,
            "P(W≈0) = {near_zero}, expected ≈ 1 − ρ = 0.5"
        );
        // P{W ≤ 0} is the atom itself; nothing lies below zero.
        assert!(
            (dist.cdf(0.0) - 0.5).abs() < 1e-9,
            "cdf(0) = {}",
            dist.cdf(0.0)
        );
        assert_eq!(dist.cdf(-1e-3), 0.0);
    }

    #[test]
    fn cdf_is_monotone_and_saturates() {
        for (queue, solution) in [md1(), three_state()] {
            let dist = WaitDistribution::new(&queue, &solution);
            let mut last = 0.0;
            for t in [1e-4, 1e-3, 3e-3, 0.01, 0.03, 0.1, 0.3] {
                let f = dist.cdf(t);
                assert!(f + 1e-6 >= last, "CDF must be nondecreasing at t={t}");
                last = f;
            }
            assert!(last > 0.999, "CDF should saturate: {last}");
        }
    }

    #[test]
    fn cdf_mean_matches_solver_mean() {
        // E[W] = ∫ (1 − F) dt, integrated numerically.
        for (queue, solution) in [md1(), three_state()] {
            let dist = WaitDistribution::new(&queue, &solution);
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
    }

    #[test]
    fn cdf_matches_simulation_for_bursty_mmpp() {
        let (queue, solution) = solved(
            Mmpp2::new(100.0, 10.0, 900.0, 60.0).into(),
            ServiceDistribution::gaussian(0.003, 3e-4),
        );
        let dist = WaitDistribution::new(&queue, &solution);
        // Empirical CDF from a Lindley recursion over sampled arrivals.
        let mut rng = StdRng::seed_from_u64(77);
        let arrivals = queue.mmpp.sample_arrivals(400_000, &mut rng);
        let mut wait = 0.0f64;
        let mut waits = Vec::with_capacity(arrivals.len());
        let mut prev = arrivals[0].0;
        let mut svc = queue.service.sample(&mut rng);
        for &(t, _) in arrivals.iter().skip(1) {
            wait = (wait + svc - (t - prev)).max(0.0);
            waits.push(wait);
            svc = queue.service.sample(&mut rng);
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
    }

    #[test]
    fn quantiles_bracket_the_mean() {
        let (queue, solution) = md1();
        let dist = WaitDistribution::new(&queue, &solution);
        let p50 = dist.quantile(0.50);
        let p95 = dist.quantile(0.95);
        let p99 = dist.quantile(0.99);
        assert!(p50 < p95 && p95 < p99, "{p50} {p95} {p99}");
        // Waiting time is right-skewed: median below the mean, p95 above.
        assert!(p50 < solution.mean_wait_s);
        assert!(p95 > solution.mean_wait_s);
        // Quantiles are consistent with the CDF.
        assert!((dist.cdf(p95) - 0.95).abs() < 0.01);
        // Levels inside the atom P{W = 0} = 0.5 have quantile 0.
        assert_eq!(dist.quantile(0.3), 0.0);
    }
}
