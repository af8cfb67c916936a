//! # thrifty-analytic
//!
//! The paper's analytical framework (Section 4): given an encryption policy,
//! wireless channel parameters, and the video content type, predict
//!
//! * the **per-packet delay** at the sender — by assembling the service-time
//!   mixture of eqs. (3)–(18) and solving the 2-MMPP/G/1 queue of
//!   Section 4.2.3 (via [`thrifty_queueing`]), and
//! * the **distortion at an eavesdropper** — frame success probabilities
//!   (eq. 20), intra-GOP distortion (eqs. 21–22), inter-GOP distortion with
//!   the motion-dependent distance polynomial of Figure 2 (fit by
//!   [`regression`]), the GOP state chain (eqs. 23–27), and the PSNR/MOS
//!   mappings (eq. 28).
//!
//! The module split mirrors the paper:
//!
//! * [`policy`] — encryption policies 𝒫 (cipher + packet-selection rule).
//! * [`params`] — scenario parameters estimated from minimal measurements
//!   (Fig. 1 "model calibration"): MMPP arrivals, encryption/transmission
//!   cost models, packet statistics, channel operating point.
//! * [`delay`] — Section 4.2: the service-time mixture and E\[W\].
//! * [`distortion`] — Section 4.3: frame success rate → expected distortion
//!   → PSNR → MOS, for both the legitimate receiver and the eavesdropper.
//! * [`regression`] — Section 4.3.2's degree-5 polynomial fit of distortion
//!   vs reference distance, per motion class (Figure 2).

#![forbid(unsafe_code)]
#![deny(missing_docs)]

//! * [`fountain`] — the fountain transport's overhead-vs-loss term: the
//!   exact delivered-symbol distribution per channel (binomial / GE
//!   dynamic program) thresholded at a calibrated peeling margin, and the
//!   renewal-reward delay of spraying `k(1+ε)` symbols per block.

pub mod delay;
pub mod distortion;
pub mod fountain;
pub mod params;
pub mod policy;
pub mod regression;

pub use delay::{DelayModel, DelayPrediction};
pub use fountain::{FountainChannel, FountainDelayModel, DEFAULT_PEELING_MARGIN};
pub use distortion::{DistortionModel, DistortionPrediction, Observer};
pub use params::{Measurements, ScenarioParams};
pub use policy::{EncryptionMode, Policy};
pub use regression::{fit_polynomial, DistancePolynomial, SceneDistortion};
