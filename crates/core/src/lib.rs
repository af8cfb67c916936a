//! # thrifty — resource-thrifty secure mobile video transfers
//!
//! A full reproduction of *Papageorgiou, Gasparis, Krishnamurthy, Govindan,
//! La Porta: "Resource Thrifty Secure Mobile Video Transfers on Open WiFi
//! Networks"* (ACM CoNEXT 2013), as a reusable Rust library.
//!
//! The paper's thesis: you do not need to encrypt a whole video flow to
//! keep an open-WiFi eavesdropper from using it — encrypting the right
//! *subset* of packets (all I-frame packets, plus a content-dependent
//! fraction of P-frame packets) preserves confidentiality while cutting
//! encryption delay by up to 75% and energy by up to 92%.
//!
//! ## Crate map
//!
//! | Layer | Crate | Paper counterpart |
//! |---|---|---|
//! | Ciphers (AES-128/256, 3DES, OFB) | [`thrifty_crypto`] | GPAC crypto |
//! | Video (scenes, GOPs, NAL, quality) | [`thrifty_video`] | x264 + EvalVid + AForge + CIF clips |
//! | Network (DCF, channels, RTP/UDP/TCP) | [`thrifty_net`] | live 802.11g WLAN + tcpdump |
//! | Queueing (n-phase MMPP/G/1 solver) | [`thrifty_queueing`] | Heffes–Lucantoni / MMPP cookbook |
//! | Analytics (delay + distortion models) | [`thrifty_analytic`] | Section 4 |
//! | Energy (device power model) | [`thrifty_energy`] | Monsoon monitor |
//! | Testbed (simulated experiments) | [`thrifty_sim`] | Android app, Section 5–6 |
//!
//! ## The Figure 1 workflow
//!
//! ```
//! use thrifty::{PolicyAdvisor, PrivacyPreference};
//! use thrifty::analytic::params::SAMSUNG_GALAXY_S2;
//! use thrifty::video::MotionLevel;
//! use thrifty::crypto::Algorithm;
//!
//! // The user shoots a clip; the advisor calibrates the model from minimal
//! // measurements and picks the cheapest policy that still blinds an
//! // eavesdropper.
//! let advisor = PolicyAdvisor::calibrate(
//!     MotionLevel::Low, 30, SAMSUNG_GALAXY_S2, Algorithm::Aes256);
//! let rec = advisor.recommend(PrivacyPreference::Balanced);
//! assert!(rec.distortion.psnr_db <= advisor.psnr_threshold_db);
//! println!("{}: eavesdropper MOS {:.2}, delay {:.2} ms",
//!          rec.policy, rec.distortion.mos, rec.delay.mean_delay_s * 1e3);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod advisor;
pub mod headline;

/// The paper's analytical framework (Section 4).
pub use thrifty_analytic as analytic;
/// Cipher implementations (AES-128/256, 3DES, OFB).
pub use thrifty_crypto as crypto;
/// Device power model (Section 6.3 substitute).
pub use thrifty_energy as energy;
/// Network substrate (DCF model, channels, wire formats, capture).
pub use thrifty_net as net;
/// MMPP and MMPP/G/1 queueing machinery.
pub use thrifty_queueing as queueing;
/// The simulated testbed (Sections 5–6 substitute).
pub use thrifty_sim as sim;
/// Video substrate (scenes, encoder model, NAL, packetizer, quality).
pub use thrifty_video as video;

pub use advisor::{PolicyAdvisor, PrivacyPreference, Recommendation};
pub use headline::{headline_metrics, HeadlineMetrics};
pub use thrifty_analytic::policy::{EncryptionMode, Policy};
