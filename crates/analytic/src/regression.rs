//! Polynomial regression of distortion vs reference distance (Figure 2).
//!
//! Section 4.3.2: "we approximate the observed curves with polynomials of
//! degree 5 using a multinomial regression … D(d) = Σᵢ aᵢ dⁱ". The observed
//! curves come from [`thrifty_video::quality::distortion_vs_distance`] on
//! our synthetic clips; the least-squares fit is solved with the normal
//! equations on the small Vandermonde system.

use thrifty_queueing::matrix::Matrix;
use thrifty_video::motion::MotionLevel;
use thrifty_video::quality::distortion_vs_distance;
use thrifty_video::scene::{SceneConfig, SceneGenerator};

/// A fitted distortion-vs-distance polynomial `D(d) = Σ aᵢ dⁱ`.
///
/// Evaluation saturates beyond the largest fitted distance: polynomial
/// extrapolation diverges, while physical distortion plateaus once the
/// reference frame shares nothing with the shown one.
#[derive(Debug, Clone, PartialEq)]
pub struct DistancePolynomial {
    /// Coefficients a₀..a_degree.
    pub coefficients: Vec<f64>,
    /// Largest distance used in the fit; evaluation clamps here.
    pub max_distance: f64,
}

impl DistancePolynomial {
    /// Evaluate `D(d)`, clamped to the fitted range and floored at zero.
    pub fn eval(&self, distance: f64) -> f64 {
        let d = distance.clamp(0.0, self.max_distance);
        let mut acc = 0.0;
        let mut pow = 1.0;
        for &a in &self.coefficients {
            acc += a * pow;
            pow *= d;
        }
        acc.max(0.0)
    }

    /// Degree of the polynomial.
    pub fn degree(&self) -> usize {
        self.coefficients.len().saturating_sub(1)
    }
}

/// Least-squares fit of a degree-`degree` polynomial through
/// `(x, y)` points via the normal equations.
///
/// # Panics
/// If fewer than `degree + 1` points are supplied or lengths mismatch.
pub fn fit_polynomial(xs: &[f64], ys: &[f64], degree: usize) -> DistancePolynomial {
    assert_eq!(xs.len(), ys.len(), "x/y length mismatch");
    assert!(
        xs.len() > degree,
        "need more points than the polynomial degree"
    );
    let n = degree + 1;
    // Normal equations: (VᵀV) a = Vᵀy with V the Vandermonde matrix.
    let mut vtv = Matrix::zeros(n, n);
    let mut vty = vec![0.0; n];
    for (&x, &y) in xs.iter().zip(ys.iter()) {
        let mut powers = vec![1.0; n];
        for i in 1..n {
            powers[i] = powers[i - 1] * x;
        }
        for i in 0..n {
            vty[i] += powers[i] * y;
            for j in 0..n {
                vtv[(i, j)] += powers[i] * powers[j];
            }
        }
    }
    let coefficients = vtv
        .solve(&vty)
        .expect("normal equations are solvable for distinct distances");
    let max_distance = xs.iter().fold(0.0f64, |m, &x| m.max(x));
    DistancePolynomial {
        coefficients,
        max_distance,
    }
}

/// Everything the distortion model needs to turn a reference distance into
/// an MSE, measured from one motion class's content.
///
/// Beyond the fitted distances the polynomial would extrapolate wildly,
/// while physical distortion saturates; and a decoder that never received
/// *any* frame (paper Case 3, "the distortion is maximized") shows black.
/// Both asymptotes are therefore **measured** from the clip rather than
/// extrapolated.
#[derive(Debug, Clone, PartialEq)]
pub struct SceneDistortion {
    /// The Figure 2 degree-5 fit over small distances.
    pub polynomial: DistancePolynomial,
    /// Mean MSE between frames far enough apart to be decorrelated — the
    /// saturation level for large staleness.
    pub far_mse: f64,
    /// Mean MSE between a frame and a black screen — Case 3 distortion.
    pub black_mse: f64,
    /// e-folding scale (frames) of the approach from the fitted range to
    /// `far_mse`.
    pub decorrelation_frames: f64,
}

impl SceneDistortion {
    /// Measure a motion class: fit the polynomial over `1..=max_distance`
    /// and measure the two saturation levels on the same clip.
    pub fn measure(motion: MotionLevel, frames: usize, max_distance: usize, seed: u64) -> Self {
        assert!(
            frames > 2 * max_distance + 10,
            "clip too short to measure saturation"
        );
        let generator = SceneGenerator::new(SceneConfig::new(motion, seed));
        let clip = generator.clip(frames);
        let mse = distortion_vs_distance(&clip, max_distance);
        let xs: Vec<f64> = (1..=max_distance).map(|d| d as f64).collect();
        let degree = 5.min(max_distance - 1).max(1);
        let polynomial = fit_polynomial(&xs, &mse, degree);
        // Far MSE: compare frames a large, fixed stride apart.
        let stride = frames - max_distance - 1;
        let mut far_acc = 0.0;
        let mut far_n = 0usize;
        for i in stride..frames {
            far_acc += clip[i].mse(&clip[i - stride]);
            far_n += 1;
        }
        let far_mse = (far_acc / far_n as f64).max(polynomial.eval(max_distance as f64));
        // Black MSE: what a never-fed decoder displays.
        let black = thrifty_video::yuv::YuvFrame::black(clip[0].resolution);
        let black_mse =
            clip.iter().map(|f| f.mse(&black)).sum::<f64>() / clip.len() as f64;
        SceneDistortion {
            polynomial,
            far_mse,
            black_mse,
            decorrelation_frames: 30.0,
        }
    }

    /// MSE of showing a reference `distance` frames stale: the Figure 2
    /// polynomial inside the fitted range, saturating exponentially toward
    /// [`far_mse`](Self::far_mse) beyond it.
    pub fn distance_mse(&self, distance: f64) -> f64 {
        let d_max = self.polynomial.max_distance;
        if distance <= d_max {
            return self.polynomial.eval(distance);
        }
        let edge = self.polynomial.eval(d_max);
        let gap = (self.far_mse - edge).max(0.0);
        edge + gap * (1.0 - (-(distance - d_max) / self.decorrelation_frames).exp())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fits_exact_polynomial() {
        // y = 2 + 3x − x²
        let xs: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|&x| 2.0 + 3.0 * x - x * x).collect();
        let p = fit_polynomial(&xs, &ys, 2);
        assert!((p.coefficients[0] - 2.0).abs() < 1e-8);
        assert!((p.coefficients[1] - 3.0).abs() < 1e-8);
        assert!((p.coefficients[2] + 1.0).abs() < 1e-8);
        assert_eq!(p.degree(), 2);
    }

    #[test]
    fn degree_five_interpolates_six_points() {
        let xs: Vec<f64> = (1..=6).map(|i| i as f64).collect();
        let ys = vec![5.0, 9.0, 10.0, 14.0, 14.5, 16.0];
        let p = fit_polynomial(&xs, &ys, 5);
        for (&x, &y) in xs.iter().zip(ys.iter()) {
            assert!((p.eval(x) - y).abs() < 1e-6, "interpolation at {x}");
        }
    }

    #[test]
    fn eval_clamps_beyond_fit_range() {
        let xs: Vec<f64> = (1..=6).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|&x| x * 10.0).collect();
        let p = fit_polynomial(&xs, &ys, 2);
        assert!((p.eval(100.0) - p.eval(6.0)).abs() < 1e-9);
        assert!(p.eval(-5.0) >= 0.0);
    }

    #[test]
    #[should_panic(expected = "need more points")]
    fn underdetermined_fit_panics() {
        fit_polynomial(&[1.0, 2.0], &[1.0, 2.0], 5);
    }

    #[test]
    fn scene_distortion_asymptotes_are_ordered() {
        for motion in [MotionLevel::Low, MotionLevel::High] {
            let sd = SceneDistortion::measure(motion, 60, 12, 9);
            // Near distortion < far distortion < black screen.
            assert!(sd.polynomial.eval(1.0) < sd.far_mse, "{motion}");
            assert!(sd.far_mse < sd.black_mse, "{motion}: far {} black {}", sd.far_mse, sd.black_mse);
            // Saturation is monotone and approaches far_mse.
            let a = sd.distance_mse(12.0);
            let b = sd.distance_mse(40.0);
            let c = sd.distance_mse(400.0);
            assert!(a <= b + 1e-9 && b <= c + 1e-9);
            assert!((c - sd.far_mse).abs() / sd.far_mse < 0.01);
        }
    }

    #[test]
    fn scene_distortion_continuous_at_fit_edge() {
        let sd = SceneDistortion::measure(MotionLevel::Medium, 60, 10, 2);
        let inside = sd.distance_mse(10.0);
        let outside = sd.distance_mse(10.0 + 1e-6);
        assert!((inside - outside).abs() < 1e-3 * inside.max(1.0));
    }

    #[test]
    fn black_screen_is_catastrophic() {
        let sd = SceneDistortion::measure(MotionLevel::Low, 60, 8, 5);
        // Black-screen PSNR lands near the paper's ~10 dB floor.
        let psnr = thrifty_video::yuv::psnr_from_mse(sd.black_mse);
        assert!(psnr < 15.0, "black PSNR {psnr}");
    }
}
