//! Video quality measurement — the EvalVid substitute.
//!
//! Implements the paper's decoder/concealment model (Section 4.3.2) and the
//! two quality metrics of the evaluation: **PSNR** (eq. 28) and the
//! **Mean Opinion Score** as EvalVid derives it (per-frame PSNR mapped to a
//! 1–5 class, averaged over the clip — this is why the paper reports
//! fractional MOS values like 1.26 in Table 2).

use crate::gop_position;
use crate::yuv::{psnr_from_mse, YuvFrame};

/// Re-export of eq. (28): PSNR in dB from a mean-square error.
pub fn psnr_db(mse: f64) -> f64 {
    psnr_from_mse(mse)
}

/// EvalVid's PSNR→MOS class mapping.
///
/// | PSNR (dB) | MOS |
/// |-----------|-----|
/// | > 37      | 5   |
/// | 31–37     | 4   |
/// | 25–31     | 3   |
/// | 20–25     | 2   |
/// | < 20      | 1   |
pub fn mos_class(psnr: f64) -> u8 {
    if psnr > 37.0 {
        5
    } else if psnr > 31.0 {
        4
    } else if psnr > 25.0 {
        3
    } else if psnr > 20.0 {
        2
    } else {
        1
    }
}

/// Aggregate quality of a reconstructed clip.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mos {
    /// Mean of per-frame MOS classes (1.0..=5.0).
    pub score: f64,
    /// Mean of per-frame PSNR values, dB.
    pub mean_psnr: f64,
    /// PSNR of the mean MSE (the paper's eq. 28 applied to average
    /// distortion) — the quantity plotted in Figures 4 and 14.
    pub psnr_of_mean_mse: f64,
    /// Mean per-frame luma MSE.
    pub mean_mse: f64,
}

/// Compute [`Mos`] between an original clip and its reconstruction.
///
/// # Panics
/// If the clips have different lengths or are empty.
pub fn measure_quality(original: &[YuvFrame], reconstructed: &[YuvFrame]) -> Mos {
    assert_eq!(original.len(), reconstructed.len(), "clip length mismatch");
    assert!(!original.is_empty(), "cannot measure an empty clip");
    let mut sum_mse = 0.0;
    let mut sum_psnr = 0.0;
    let mut sum_class = 0.0;
    for (a, b) in original.iter().zip(reconstructed.iter()) {
        let mse = a.mse(b);
        let psnr = psnr_from_mse(mse);
        sum_mse += mse;
        sum_psnr += psnr;
        sum_class += mos_class(psnr) as f64;
    }
    let n = original.len() as f64;
    Mos {
        score: sum_class / n,
        mean_psnr: sum_psnr / n,
        psnr_of_mean_mse: psnr_from_mse(sum_mse / n),
        mean_mse: sum_mse / n,
    }
}

/// The paper's predictive-decoding concealment model.
///
/// Within a GOP: once a frame is unrecoverable, it **and every successor in
/// the GOP** are replaced by the last correctly decoded frame. If the GOP's
/// I-frame is unrecoverable the whole GOP is replaced by the most recent
/// good frame of any previous GOP; if no frame was ever received the decoder
/// shows black.
#[derive(Debug, Clone, Copy, Default)]
pub struct ConcealingDecoder;

impl ConcealingDecoder {
    /// Reconstruct a clip.
    ///
    /// `received[f]` says whether frame `f` was received *and decodable*
    /// (all required packets present and decryptable). `original` provides
    /// the pixels of correctly decoded frames (our toy codec is lossless).
    ///
    /// # Panics
    /// If lengths differ or `gop_size == 0`.
    pub fn reconstruct(
        &self,
        original: &[YuvFrame],
        received: &[bool],
        gop_size: usize,
    ) -> Vec<YuvFrame> {
        assert_eq!(original.len(), received.len(), "flag/frame length mismatch");
        assert!(gop_size > 0, "GOP size must be positive");
        let mut out: Vec<YuvFrame> = Vec::with_capacity(original.len());
        // The frame currently shown when data is missing.
        let mut last_good: Option<YuvFrame> = None;
        let mut gop_broken = false;
        for (f, frame) in original.iter().enumerate() {
            let pos = gop_position(f, gop_size);
            if pos.index_in_gop == 0 {
                // New GOP: the chain resets; an I-frame is independently
                // decodable, so only its own reception matters.
                gop_broken = !received[f];
            } else if !received[f] {
                gop_broken = true;
            }
            if gop_broken {
                match &last_good {
                    Some(g) => out.push(g.clone()),
                    None => out.push(YuvFrame::black(frame.resolution)),
                }
            } else {
                out.push(frame.clone());
                last_good = Some(frame.clone());
            }
        }
        out
    }
}

/// Concealment decoder with P-frame intra-refresh.
///
/// Real P slices contain intra-coded macroblocks, so a decoder that misses
/// the GOP's I-frame but keeps receiving P-frames progressively repaints
/// the picture — the reason the paper's fast-motion eavesdropper still saw
/// recognisable content under the I-only policy (Table 2's MOS 1.71) while
/// a slow-motion eavesdropper saw nothing. `refresh_fraction` is the
/// fraction of the picture a decoded-but-referenceless frame repaints
/// (take it from [`MotionLevel::p_refresh_fraction`]); 0.0 reduces exactly
/// to [`ConcealingDecoder`].
///
/// [`MotionLevel::p_refresh_fraction`]: crate::motion::MotionLevel::p_refresh_fraction
#[derive(Debug, Clone, Copy)]
pub struct RefreshingDecoder {
    /// Picture fraction repainted per decoded chain-broken frame.
    pub refresh_fraction: f64,
}

impl RefreshingDecoder {
    /// Build a decoder; the fraction must be in [0, 1].
    pub fn new(refresh_fraction: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&refresh_fraction),
            "refresh fraction must be in [0, 1]"
        );
        RefreshingDecoder { refresh_fraction }
    }

    /// Reconstruct a clip (same contract as [`ConcealingDecoder::reconstruct`]).
    pub fn reconstruct(
        &self,
        original: &[YuvFrame],
        received: &[bool],
        gop_size: usize,
    ) -> Vec<YuvFrame> {
        assert_eq!(original.len(), received.len(), "flag/frame length mismatch");
        assert!(gop_size > 0, "GOP size must be positive");
        let mut out: Vec<YuvFrame> = Vec::with_capacity(original.len());
        let mut display: Option<YuvFrame> = None; // what the screen shows
        let mut gop_broken = false;
        for (f, frame) in original.iter().enumerate() {
            let pos = gop_position(f, gop_size);
            if pos.index_in_gop == 0 {
                gop_broken = !received[f];
            } else if !received[f] {
                gop_broken = true;
            }
            let shown = if !gop_broken {
                frame.clone()
            } else {
                let mut stale = display
                    .clone()
                    .unwrap_or_else(|| YuvFrame::black(frame.resolution));
                if received[f] && self.refresh_fraction > 0.0 {
                    blend_into(&mut stale, frame, self.refresh_fraction);
                }
                stale
            };
            display = Some(shown.clone());
            out.push(shown);
        }
        out
    }
}

/// In-place luma blend: `base ← base·(1−w) + target·w`.
fn blend_into(base: &mut YuvFrame, target: &YuvFrame, w: f64) {
    for (b, &t) in base.y.iter_mut().zip(target.y.iter()) {
        *b = ((*b as f64) * (1.0 - w) + (t as f64) * w)
            .round()
            .clamp(0.0, 255.0) as u8;
    }
}

/// Measure the Figure 2 curve: mean luma MSE between each frame and the
/// frame `d` positions earlier, for `d in 1..=max_distance`.
///
/// This is exactly the paper's procedure of "artificially creating video
/// frame losses in order to achieve reference frame substitutions from
/// various distances" and measuring the resulting distortion.
pub fn distortion_vs_distance(clip: &[YuvFrame], max_distance: usize) -> Vec<f64> {
    assert!(
        clip.len() > max_distance,
        "clip too short for requested distance"
    );
    (1..=max_distance)
        .map(|d| {
            let mut acc = 0.0;
            let mut count = 0usize;
            for i in d..clip.len() {
                acc += clip[i].mse(&clip[i - d]);
                count += 1;
            }
            acc / count as f64
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scene::{SceneConfig, SceneGenerator};
    use crate::yuv::Resolution;
    use crate::MotionLevel;

    fn clip(motion: MotionLevel, n: usize) -> Vec<YuvFrame> {
        SceneGenerator::new(SceneConfig::qcif(motion, 21)).clip(n)
    }

    #[test]
    fn perfect_reception_is_lossless() {
        let original = clip(MotionLevel::Medium, 12);
        let received = vec![true; 12];
        let rec = ConcealingDecoder.reconstruct(&original, &received, 6);
        assert_eq!(rec, original);
        let q = measure_quality(&original, &rec);
        assert_eq!(q.score, 5.0);
        assert_eq!(q.mean_mse, 0.0);
        assert_eq!(q.psnr_of_mean_mse, 100.0);
    }

    #[test]
    fn lost_p_frame_freezes_rest_of_gop() {
        let original = clip(MotionLevel::Medium, 12);
        let mut received = vec![true; 12];
        received[3] = false; // frame 3 in GOP 0 (gop_size 6)
        let rec = ConcealingDecoder.reconstruct(&original, &received, 6);
        // Frames 0..3 intact, 3..6 frozen at frame 2, GOP 1 (frames 6..12) intact.
        assert_eq!(rec[2], original[2]);
        assert_eq!(rec[3], original[2]);
        assert_eq!(rec[4], original[2]);
        assert_eq!(rec[5], original[2]);
        assert_eq!(rec[6], original[6]);
    }

    #[test]
    fn received_frame_after_loss_is_still_frozen() {
        // Predictive chain is broken: receiving frame 4 does not help once
        // frame 3 is gone.
        let original = clip(MotionLevel::Medium, 6);
        let mut received = vec![true; 6];
        received[3] = false;
        let rec = ConcealingDecoder.reconstruct(&original, &received, 6);
        assert_eq!(rec[4], original[2]);
    }

    #[test]
    fn lost_i_frame_freezes_whole_gop_at_previous_gop() {
        let original = clip(MotionLevel::Medium, 12);
        let mut received = vec![true; 12];
        received[6] = false; // I-frame of GOP 1
        let rec = ConcealingDecoder.reconstruct(&original, &received, 6);
        for (f, frame) in rec.iter().enumerate().skip(6) {
            assert_eq!(*frame, original[5], "frame {f} must freeze at frame 5");
        }
    }

    #[test]
    fn nothing_received_shows_black() {
        let original = clip(MotionLevel::Low, 6);
        let received = vec![false; 6];
        let rec = ConcealingDecoder.reconstruct(&original, &received, 6);
        let black = YuvFrame::black(Resolution::QCIF);
        for f in rec {
            assert_eq!(f, black);
        }
    }

    #[test]
    fn next_gop_recovers_after_disaster() {
        let original = clip(MotionLevel::Medium, 12);
        let mut received = vec![false; 12];
        for r in received.iter_mut().skip(6) {
            *r = true;
        }
        let rec = ConcealingDecoder.reconstruct(&original, &received, 6);
        for f in 6..12 {
            assert_eq!(rec[f], original[f]);
        }
    }

    #[test]
    fn mos_class_boundaries() {
        assert_eq!(mos_class(40.0), 5);
        assert_eq!(mos_class(37.0), 4);
        assert_eq!(mos_class(31.0), 3);
        assert_eq!(mos_class(25.0), 2);
        assert_eq!(mos_class(20.0), 1);
        assert_eq!(mos_class(5.0), 1);
    }

    #[test]
    fn distortion_grows_with_distance_and_motion() {
        let slow = clip(MotionLevel::Low, 40);
        let fast = clip(MotionLevel::High, 40);
        let d_slow = distortion_vs_distance(&slow, 4);
        let d_fast = distortion_vs_distance(&fast, 4);
        // Monotone (at least non-strictly) in distance.
        for w in d_fast.windows(2) {
            assert!(
                w[1] >= w[0] * 0.9,
                "fast-motion distortion should grow: {d_fast:?}"
            );
        }
        // Fast motion dominates slow at every distance (Figure 2's ordering).
        for (s, f) in d_slow.iter().zip(d_fast.iter()) {
            assert!(f > s);
        }
    }

    #[test]
    fn freezing_hurts_fast_motion_more() {
        // The same loss pattern must cost more PSNR on a fast clip — the
        // root cause of the paper's slow-vs-fast asymmetry.
        let mut received = vec![true; 12];
        received[2] = false;
        let slow = clip(MotionLevel::Low, 12);
        let fast = clip(MotionLevel::High, 12);
        let q_slow = measure_quality(&slow, &ConcealingDecoder.reconstruct(&slow, &received, 12));
        let q_fast = measure_quality(&fast, &ConcealingDecoder.reconstruct(&fast, &received, 12));
        assert!(q_fast.psnr_of_mean_mse < q_slow.psnr_of_mean_mse);
    }

    #[test]
    #[should_panic(expected = "clip length mismatch")]
    fn mismatched_lengths_panic() {
        let a = clip(MotionLevel::Low, 3);
        let b = clip(MotionLevel::Low, 4);
        measure_quality(&a, &b);
    }

    #[test]
    fn zero_refresh_matches_concealing_decoder() {
        let original = clip(MotionLevel::Medium, 12);
        let mut received = vec![true; 12];
        received[0] = false; // lost I: whole first GOP dark
        received[8] = false;
        let a = ConcealingDecoder.reconstruct(&original, &received, 6);
        let b = RefreshingDecoder::new(0.0).reconstruct(&original, &received, 6);
        assert_eq!(a, b);
    }

    #[test]
    fn refresh_recovers_picture_without_i_frames() {
        // Every I lost, every P received: with refresh the display converges
        // toward the content; without it the screen stays black.
        let original = clip(MotionLevel::High, 24);
        let received: Vec<bool> = (0..24).map(|f| f % 12 != 0).collect();
        let frozen = ConcealingDecoder.reconstruct(&original, &received, 12);
        let refreshed = RefreshingDecoder::new(0.2).reconstruct(&original, &received, 12);
        let q_frozen = measure_quality(&original, &frozen);
        let q_refreshed = measure_quality(&original, &refreshed);
        assert!(
            q_refreshed.psnr_of_mean_mse > q_frozen.psnr_of_mean_mse + 3.0,
            "refresh {} vs frozen {}",
            q_refreshed.psnr_of_mean_mse,
            q_frozen.psnr_of_mean_mse
        );
        // But it never reaches the intact-chain quality.
        assert!(q_refreshed.psnr_of_mean_mse < 45.0);
    }

    #[test]
    fn refresh_needs_received_frames() {
        // Nothing received: refresh cannot help; screen stays black.
        let original = clip(MotionLevel::High, 8);
        let received = vec![false; 8];
        let rec = RefreshingDecoder::new(0.5).reconstruct(&original, &received, 4);
        let black = YuvFrame::black(Resolution::QCIF);
        assert!(rec.iter().all(|f| *f == black));
    }

    #[test]
    #[should_panic(expected = "refresh fraction must be in")]
    fn invalid_refresh_fraction_rejected() {
        RefreshingDecoder::new(1.5);
    }
}
