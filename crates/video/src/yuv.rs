//! Planar YUV 4:2:0 frame buffers and pixel-level error metrics.
//!
//! The paper's quality pipeline starts from uncompressed YUV CIF clips
//! (ITU-R BT.601) and measures distortion as the mean square error between
//! the decoded and the original luma planes, mapped to PSNR by eq. (28).
//! This module provides the frame type and those metrics.

/// A video resolution in pixels. Both dimensions must be even (4:2:0 chroma
/// subsampling halves each).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Resolution {
    /// Width in pixels.
    pub width: usize,
    /// Height in pixels.
    pub height: usize,
}

impl Resolution {
    /// CIF, 352×288 — the resolution of every clip in the paper (Table 1).
    pub const CIF: Resolution = Resolution {
        width: 352,
        height: 288,
    };

    /// QCIF, 176×144 — used by fast unit tests.
    pub const QCIF: Resolution = Resolution {
        width: 176,
        height: 144,
    };

    /// Luma plane size in bytes.
    pub fn luma_len(self) -> usize {
        self.width * self.height
    }

    /// Each chroma plane size in bytes (quarter of luma for 4:2:0).
    fn chroma_len(self) -> usize {
        (self.width / 2) * (self.height / 2)
    }
}

/// One uncompressed planar YUV 4:2:0 frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct YuvFrame {
    /// Frame resolution.
    pub resolution: Resolution,
    /// Luma plane, `width × height` bytes, row-major.
    pub y: Vec<u8>,
    /// Cb plane, quarter size.
    pub u: Vec<u8>,
    /// Cr plane, quarter size.
    pub v: Vec<u8>,
}

impl YuvFrame {
    /// An all-black frame (Y=16, U=V=128, the BT.601 black point).
    pub fn black(resolution: Resolution) -> Self {
        assert!(
            resolution.width.is_multiple_of(2) && resolution.height.is_multiple_of(2),
            "4:2:0 requires even dimensions"
        );
        YuvFrame {
            resolution,
            y: vec![16; resolution.luma_len()],
            u: vec![128; resolution.chroma_len()],
            v: vec![128; resolution.chroma_len()],
        }
    }

    /// Set the luma sample at `(x, y)`.
    #[inline]
    pub fn set_luma(&mut self, x: usize, yy: usize, value: u8) {
        self.y[yy * self.resolution.width + x] = value;
    }

    /// Mean square error between the luma planes of two frames.
    ///
    /// # Panics
    /// If resolutions differ.
    pub fn mse(&self, other: &YuvFrame) -> f64 {
        assert_eq!(self.resolution, other.resolution, "MSE needs equal sizes");
        let mut acc: u64 = 0;
        for (&a, &b) in self.y.iter().zip(other.y.iter()) {
            let d = a as i64 - b as i64;
            acc += (d * d) as u64;
        }
        acc as f64 / self.y.len() as f64
    }

    /// Mean absolute luma difference — the residual-energy proxy used by the
    /// encoder model and the motion analyzer.
    pub fn mean_abs_diff(&self, other: &YuvFrame) -> f64 {
        assert_eq!(self.resolution, other.resolution, "MAD needs equal sizes");
        let mut acc: u64 = 0;
        for (&a, &b) in self.y.iter().zip(other.y.iter()) {
            acc += (a as i64 - b as i64).unsigned_abs();
        }
        acc as f64 / self.y.len() as f64
    }

    /// Fraction of luma pixels whose difference exceeds `threshold` — the
    /// AForge-style "motion amount" measure.
    pub fn changed_fraction(&self, other: &YuvFrame, threshold: u8) -> f64 {
        assert_eq!(self.resolution, other.resolution);
        let changed = self
            .y
            .iter()
            .zip(other.y.iter())
            .filter(|(&a, &b)| (a as i16 - b as i16).unsigned_abs() > threshold as u16)
            .count();
        changed as f64 / self.y.len() as f64
    }

    /// Serialise the frame as binary PGM (luma only) for eyeballing
    /// reconstructions, like the paper's Figure 6 screenshots.
    pub fn to_pgm(&self) -> Vec<u8> {
        let mut out = format!(
            "P5\n{} {}\n255\n",
            self.resolution.width, self.resolution.height
        )
        .into_bytes();
        out.extend_from_slice(&self.y);
        out
    }
}

/// Serialise a clip as a YUV4MPEG2 (`.y4m`) stream — playable with
/// `mpv`/`ffplay`, the closest artefact to the paper's EvalVid-reconstructed
/// videos. All frames must share one resolution.
pub fn clip_to_y4m(frames: &[YuvFrame], fps: u32) -> Vec<u8> {
    assert!(!frames.is_empty(), "cannot serialise an empty clip");
    let res = frames[0].resolution;
    let mut out = format!(
        "YUV4MPEG2 W{} H{} F{}:1 Ip A1:1 C420jpeg\n",
        res.width, res.height, fps
    )
    .into_bytes();
    for f in frames {
        assert_eq!(f.resolution, res, "mixed resolutions in clip");
        out.extend_from_slice(b"FRAME\n");
        out.extend_from_slice(&f.y);
        out.extend_from_slice(&f.u);
        out.extend_from_slice(&f.v);
    }
    out
}

/// PSNR in dB for a given luma MSE, paper eq. (28):
/// `PSNR = 20·log₁₀(255 / √MSE)`.
///
/// A zero MSE (identical frames) is capped at 100 dB, matching EvalVid's
/// convention for lossless reconstruction.
pub fn psnr_from_mse(mse: f64) -> f64 {
    if mse <= 0.0 {
        return 100.0;
    }
    (20.0 * (255.0 / mse.sqrt()).log10()).min(100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Resolution {
        /// Total frame size in bytes (Y + U + V).
        pub fn frame_len(self) -> usize {
            self.luma_len() + 2 * self.chroma_len()
        }
    }

    #[test]
    fn resolution_arithmetic() {
        assert_eq!(Resolution::CIF.luma_len(), 352 * 288);
        assert_eq!(Resolution::CIF.chroma_len(), 176 * 144);
        assert_eq!(Resolution::CIF.frame_len(), 352 * 288 * 3 / 2);
    }

    #[test]
    fn black_frame_is_uniform() {
        let f = YuvFrame::black(Resolution::QCIF);
        assert!(f.y.iter().all(|&b| b == 16));
        assert!(f.u.iter().all(|&b| b == 128));
        assert_eq!(f.mse(&f), 0.0);
        assert_eq!(psnr_from_mse(f.mse(&f)), 100.0);
    }

    #[test]
    fn mse_counts_luma_differences() {
        let a = YuvFrame::black(Resolution::QCIF);
        let mut b = a.clone();
        // Change one pixel by 255-16=239: MSE = 239² / N.
        b.set_luma(0, 0, 255);
        let n = Resolution::QCIF.luma_len() as f64;
        let expected = 239.0f64 * 239.0 / n;
        assert!((a.mse(&b) - expected).abs() < 1e-9);
    }

    #[test]
    fn psnr_matches_hand_computation() {
        // MSE = 255² → PSNR = 0 dB. MSE = 1 → 20 log10 255 ≈ 48.13 dB.
        assert!((psnr_from_mse(255.0 * 255.0) - 0.0).abs() < 1e-9);
        assert!((psnr_from_mse(1.0) - 48.1308).abs() < 1e-3);
        // Larger error ⇒ lower PSNR.
        assert!(psnr_from_mse(100.0) < psnr_from_mse(10.0));
    }

    #[test]
    fn changed_fraction_threshold_behaviour() {
        let a = YuvFrame::black(Resolution::QCIF);
        let mut b = a.clone();
        for x in 0..10 {
            b.set_luma(x, 0, 16 + 50);
        }
        let n = Resolution::QCIF.luma_len() as f64;
        assert!((a.changed_fraction(&b, 10) - 10.0 / n).abs() < 1e-12);
        // Threshold above the change: nothing counts.
        assert_eq!(a.changed_fraction(&b, 60), 0.0);
    }

    #[test]
    fn pgm_header_is_wellformed() {
        let f = YuvFrame::black(Resolution::QCIF);
        let pgm = f.to_pgm();
        assert!(pgm.starts_with(b"P5\n176 144\n255\n"));
        assert_eq!(pgm.len(), 15 + Resolution::QCIF.luma_len());
    }

    #[test]
    fn y4m_serialisation_is_wellformed() {
        let clip = vec![YuvFrame::black(Resolution::QCIF); 3];
        let y4m = clip_to_y4m(&clip, 30);
        assert!(y4m.starts_with(b"YUV4MPEG2 W176 H144 F30:1"));
        let frame_len = Resolution::QCIF.frame_len() + 6; // "FRAME\n"
        let header_len = y4m.iter().position(|&b| b == b'\n').unwrap() + 1;
        assert_eq!(y4m.len(), header_len + 3 * frame_len);
        // Each frame chunk starts with the FRAME marker.
        assert_eq!(&y4m[header_len..header_len + 6], b"FRAME\n");
    }

    #[test]
    #[should_panic(expected = "cannot serialise an empty clip")]
    fn empty_y4m_rejected() {
        clip_to_y4m(&[], 30);
    }

    #[test]
    #[should_panic(expected = "4:2:0 requires even dimensions")]
    fn odd_resolution_rejected() {
        YuvFrame::black(Resolution {
            width: 3,
            height: 4,
        });
    }
}
