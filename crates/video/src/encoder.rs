//! Toy predictive encoder — the x264 substitute.
//!
//! The analytical framework never looks inside coded frames; it consumes
//! only the *GOP structure* and the *frame size statistics*: I-frames are
//! large (the paper notes "an I-frame can be 100 times larger than a
//! P-frame") and fragment into MTU trains, while P-frame sizes scale with
//! the motion level ("tens to hundreds of bytes" for slow motion, larger
//! for fast motion; Section 6.1). Two encoders produce streams with exactly
//! those statistics:
//!
//! * [`StatisticalEncoder`] — draws frame sizes from per-type Gaussian
//!   models parameterised by motion level; cheap, used by most experiments.
//! * [`PixelEncoder`] — derives P-frame sizes from the actual luma residual
//!   of a synthetic [`SceneGenerator`](crate::scene::SceneGenerator) clip,
//!   closing the loop between pixels and packet sizes.

use crate::motion::MotionLevel;
use crate::yuv::YuvFrame;
use crate::{frame_type_at, FrameType};
use rand::Rng;

/// One coded frame: its position, type and payload size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EncodedFrame {
    /// Absolute frame number within the stream.
    pub index: usize,
    /// I or P (IPP…P structure).
    pub ftype: FrameType,
    /// Coded payload size in bytes (before NAL/RTP overhead).
    pub bytes: usize,
}

/// A coded video stream: an ordered list of frames plus stream metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct EncodedStream {
    /// Coded frames in decoding order.
    pub frames: Vec<EncodedFrame>,
    /// Distance between consecutive I-frames (30 or 50 in the paper).
    pub gop_size: usize,
    /// Frames per second.
    pub fps: f64,
    /// Motion level of the underlying content.
    pub motion: MotionLevel,
}

impl EncodedStream {
    /// Total coded bytes across all frames.
    pub fn total_bytes(&self) -> usize {
        self.frames.iter().map(|f| f.bytes).sum()
    }

    /// Stream duration in seconds.
    pub fn duration_s(&self) -> f64 {
        self.frames.len() as f64 / self.fps
    }
}

/// Frame-size distribution parameters for one motion level.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EncoderConfig {
    /// GOP size (I-frame spacing).
    pub gop_size: usize,
    /// Frames per second.
    pub fps: f64,
    /// Mean I-frame size, bytes.
    pub i_mean: f64,
    /// Standard deviation of I-frame sizes.
    pub i_std: f64,
    /// Mean P-frame size, bytes.
    pub p_mean: f64,
    /// Standard deviation of P-frame sizes.
    pub p_std: f64,
}

impl EncoderConfig {
    /// Paper-calibrated CIF defaults for a motion level and GOP size.
    ///
    /// Slow motion: P ≈ 150 B (I/P ratio ≈ 100×, as the paper states);
    /// fast motion: P ≈ 2 KB.
    pub fn for_motion(motion: MotionLevel, gop_size: usize) -> Self {
        let (p_mean, p_std) = match motion {
            MotionLevel::Low => (150.0, 45.0),
            MotionLevel::Medium => (700.0, 180.0),
            MotionLevel::High => (2000.0, 450.0),
        };
        EncoderConfig {
            gop_size,
            fps: 30.0,
            i_mean: 15_000.0,
            i_std: 1_500.0,
            p_mean,
            p_std,
        }
    }
}

/// Draw from `Normal(mean, std)` truncated at `min`, via Box–Muller
/// (rand 0.8 ships no Gaussian distribution and extra crates are off-limits).
fn sample_gaussian<R: Rng + ?Sized>(rng: &mut R, mean: f64, std: f64, min: f64) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
    (mean + std * z).max(min)
}

/// Encoder that draws frame sizes from the configured distributions.
#[derive(Debug, Clone)]
pub struct StatisticalEncoder {
    config: EncoderConfig,
    motion: MotionLevel,
}

impl StatisticalEncoder {
    /// Build an encoder for `motion` with paper-default sizes.
    pub fn new(motion: MotionLevel, gop_size: usize) -> Self {
        StatisticalEncoder {
            config: EncoderConfig::for_motion(motion, gop_size),
            motion,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &EncoderConfig {
        &self.config
    }

    /// Produce an `n_frames`-frame coded stream using `rng` for sizes.
    pub fn encode<R: Rng + ?Sized>(&self, n_frames: usize, rng: &mut R) -> EncodedStream {
        let frames = (0..n_frames)
            .map(|index| {
                let ftype = frame_type_at(index, self.config.gop_size);
                let bytes = match ftype {
                    FrameType::I => {
                        sample_gaussian(rng, self.config.i_mean, self.config.i_std, 1000.0)
                    }
                    FrameType::P => {
                        sample_gaussian(rng, self.config.p_mean, self.config.p_std, 24.0)
                    }
                } as usize;
                EncodedFrame {
                    index,
                    ftype,
                    bytes,
                }
            })
            .collect();
        EncodedStream {
            frames,
            gop_size: self.config.gop_size,
            fps: self.config.fps,
            motion: self.motion,
        }
    }
}

/// Encoder that derives sizes from pixel residuals of real (synthetic)
/// frames: `P bytes = base + k · MAD(prev, cur) · pixels`, calibrated so a
/// CIF slow-motion clip lands near the paper's "tens to hundreds of bytes".
#[derive(Debug, Clone, Copy)]
pub struct PixelEncoder {
    /// GOP size.
    pub gop_size: usize,
    /// Frames per second.
    pub fps: f64,
    /// Fixed per-P-frame overhead, bytes (slice headers etc.).
    pub p_base_bytes: f64,
    /// Bytes of coded residual per unit of (mean-abs-diff × pixel).
    pub residual_bytes_per_mad_pixel: f64,
    /// I-frame bytes per pixel (intra coding cost).
    pub i_bytes_per_pixel: f64,
}

impl PixelEncoder {
    /// CIF-calibrated defaults.
    pub fn new(gop_size: usize) -> Self {
        PixelEncoder {
            gop_size,
            fps: 30.0,
            p_base_bytes: 40.0,
            residual_bytes_per_mad_pixel: 0.002,
            i_bytes_per_pixel: 0.148, // ≈ 15 KB at CIF
        }
    }

    /// Encode a clip of decoded frames, classifying its motion with the
    /// default [`MotionAnalyzer`](crate::motion::MotionAnalyzer).
    pub fn encode(&self, clip: &[YuvFrame]) -> EncodedStream {
        let motion = crate::motion::MotionAnalyzer::default().classify(clip);
        let frames = clip
            .iter()
            .enumerate()
            .map(|(index, frame)| {
                let ftype = frame_type_at(index, self.gop_size);
                let bytes = match ftype {
                    FrameType::I => {
                        (self.i_bytes_per_pixel * frame.resolution.luma_len() as f64) as usize
                    }
                    FrameType::P => {
                        let mad = frame.mean_abs_diff(&clip[index - 1]);
                        (self.p_base_bytes
                            + self.residual_bytes_per_mad_pixel
                                * mad
                                * frame.resolution.luma_len() as f64)
                            as usize
                    }
                };
                EncodedFrame {
                    index,
                    ftype,
                    bytes,
                }
            })
            .collect();
        EncodedStream {
            frames,
            gop_size: self.gop_size,
            fps: self.fps,
            motion,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scene::{SceneConfig, SceneGenerator};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    impl EncodedStream {
        /// Number of complete or partial GOPs in the stream.
        pub fn gop_count(&self) -> usize {
            self.frames.len().div_ceil(self.gop_size)
        }

        /// Mean coded size of frames of the given type; `None` if there are none.
        pub fn mean_size(&self, ftype: FrameType) -> Option<f64> {
            let sizes: Vec<usize> = self
                .frames
                .iter()
                .filter(|f| f.ftype == ftype)
                .map(|f| f.bytes)
                .collect();
            if sizes.is_empty() {
                None
            } else {
                Some(sizes.iter().sum::<usize>() as f64 / sizes.len() as f64)
            }
        }
    }

    #[test]
    fn statistical_encoder_respects_gop_structure() {
        let mut rng = StdRng::seed_from_u64(1);
        let s = StatisticalEncoder::new(MotionLevel::Low, 30).encode(300, &mut rng);
        assert_eq!(s.frames.len(), 300);
        assert_eq!(s.gop_count(), 10);
        for f in &s.frames {
            assert_eq!(f.ftype, frame_type_at(f.index, 30));
        }
        let i_count = s.frames.iter().filter(|f| f.ftype == FrameType::I).count();
        assert_eq!(i_count, 10);
    }

    #[test]
    fn i_frames_dwarf_p_frames_for_slow_motion() {
        let mut rng = StdRng::seed_from_u64(2);
        let s = StatisticalEncoder::new(MotionLevel::Low, 30).encode(300, &mut rng);
        let i_mean = s.mean_size(FrameType::I).unwrap();
        let p_mean = s.mean_size(FrameType::P).unwrap();
        // Paper: "an I-frame can be 100 times larger than a P-frame".
        assert!(
            i_mean / p_mean > 50.0,
            "I/P ratio too small: {i_mean}/{p_mean}"
        );
    }

    #[test]
    fn fast_motion_p_frames_are_larger() {
        let mut rng = StdRng::seed_from_u64(3);
        let slow = StatisticalEncoder::new(MotionLevel::Low, 30).encode(300, &mut rng);
        let fast = StatisticalEncoder::new(MotionLevel::High, 30).encode(300, &mut rng);
        assert!(
            fast.mean_size(FrameType::P).unwrap() > 5.0 * slow.mean_size(FrameType::P).unwrap()
        );
    }

    #[test]
    fn stream_metadata_and_totals() {
        let mut rng = StdRng::seed_from_u64(4);
        let s = StatisticalEncoder::new(MotionLevel::Medium, 50).encode(100, &mut rng);
        assert_eq!(s.gop_size, 50);
        assert_eq!(s.gop_count(), 2);
        assert!((s.duration_s() - 100.0 / 30.0).abs() < 1e-12);
        assert_eq!(
            s.total_bytes(),
            s.frames.iter().map(|f| f.bytes).sum::<usize>()
        );
        assert!(s.total_bytes() > 0);
    }

    #[test]
    fn pixel_encoder_scales_with_motion() {
        let enc = PixelEncoder::new(30);
        let slow_clip = SceneGenerator::new(SceneConfig::qcif(MotionLevel::Low, 7)).clip(31);
        let fast_clip = SceneGenerator::new(SceneConfig::qcif(MotionLevel::High, 7)).clip(31);
        let slow = enc.encode(&slow_clip);
        let fast = enc.encode(&fast_clip);
        assert!(
            fast.mean_size(FrameType::P).unwrap() > slow.mean_size(FrameType::P).unwrap(),
            "pixel P sizes must grow with motion"
        );
        assert_eq!(slow.frames[0].ftype, FrameType::I);
        assert_eq!(slow.motion, MotionLevel::Low);
        assert_eq!(fast.motion, MotionLevel::High);
    }

    #[test]
    fn gop_size_one_is_all_intra() {
        let mut rng = StdRng::seed_from_u64(9);
        let s = StatisticalEncoder::new(MotionLevel::Low, 1).encode(20, &mut rng);
        assert!(s.frames.iter().all(|f| f.ftype == FrameType::I));
        assert_eq!(s.gop_count(), 20);
        assert!(s.mean_size(FrameType::P).is_none());
    }

    #[test]
    fn gaussian_sampler_is_roughly_unbiased() {
        let mut rng = StdRng::seed_from_u64(5);
        let n = 20_000;
        let mean: f64 = (0..n)
            .map(|_| sample_gaussian(&mut rng, 100.0, 10.0, 0.0))
            .sum::<f64>()
            / n as f64;
        assert!((mean - 100.0).abs() < 0.5, "sample mean {mean}");
    }

    #[test]
    fn gaussian_sampler_respects_floor() {
        let mut rng = StdRng::seed_from_u64(6);
        for _ in 0..1000 {
            assert!(sample_gaussian(&mut rng, 0.0, 100.0, 24.0) >= 24.0);
        }
    }
}
