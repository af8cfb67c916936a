//! # thrifty-queueing
//!
//! Markov-modulated Poisson processes and the matrix-analytic
//! **MMPP/G/1 queue** solver behind the paper's delay analysis
//! (Section 4.2.3). The paper takes the algorithmic solution of the
//! n-MMPP/G/1 queue from Heffes & Lucantoni \[18\] as refined by the
//! Fischer–Meier-Hellstern "MMPP cookbook" \[16\] and uses it with n = 2; we
//! implement the same machinery from scratch, for any n, with one numerics
//! path under every delay, percentile and ablation:
//!
//! * [`matrix`] — small dense-matrix kernel: products, inverses, and the
//!   matrix exponential (scaling-and-squaring) used by the G-matrix fixed
//!   point.
//! * [`mmpp`] — the paper's 2-state MMPP of Section 4.2.1 (equilibrium
//!   vector π of eq. 2, mean rate, and parameter estimation from labelled
//!   arrivals — the model-calibration step of Section 6.1), and the general
//!   n-state process it converts into: generator, rates and exact sampling.
//! * [`service`] — service-time distributions as Gaussian/point mixtures
//!   with closed-form Laplace–Stieltjes transforms (eqs. 10–18), moments,
//!   matrix LSTs and sampling.
//! * [`solver`] — the MMPP/G/1 solution: Lucantoni's matrix **G** via fixed
//!   point, the stationary vector g, and the exact mean waiting time of an
//!   arriving packet (the quantity eq. 19 evaluates), via a series expansion
//!   of the virtual-workload transform. Cross-validated against
//!   Pollaczek–Khinchine and against discrete-event simulation.
//! * [`simulate`] — a compact Lindley-recursion MMPP/G/1 simulator used to
//!   validate the solver.
//! * [`inversion`] — the waiting-time *distribution* (CDF and percentiles)
//!   by Abate–Whitt Euler inversion of the workload transform.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod inversion;
pub mod matrix;
pub mod mmpp;
pub mod service;
pub mod simulate;
pub mod solver;

pub use inversion::{Complex, WaitDistribution};
pub use matrix::Matrix;
pub use mmpp::{Mmpp2, MmppError, MmppN, MmppNError};
pub use service::{ServiceComponent, ServiceDistribution};
pub use simulate::{simulate_mmpp_g1, SimulatedQueueStats};
pub use solver::{MmppG1, QueueSolution};
