//! # thrifty-queueing
//!
//! Markov-modulated Poisson processes and the matrix-analytic
//! **MMPP/G/1 queue** solver behind the paper's delay analysis
//! (Section 4.2.3). The paper takes the algorithmic solution of the
//! n-MMPP/G/1 queue from Heffes & Lucantoni \[18\] as refined by the
//! Fischer–Meier-Hellstern "MMPP cookbook" \[16\] for n = 2; we implement the
//! same machinery from scratch:
//!
//! * [`matrix`] — small dense-matrix kernel: products, inverses, and the
//!   matrix exponential (scaling-and-squaring) used by the G-matrix fixed
//!   point.
//! * [`mmpp`] — the 2-state MMPP of Section 4.2.1: infinitesimal generator
//!   `R`, rate matrix `Λ` (eq. 1), equilibrium vector π (eq. 2), exact
//!   sampling, and parameter estimation from labelled arrivals (the paper's
//!   model-calibration step in Section 6.1).
//! * [`service`] — service-time distributions as Gaussian/point mixtures
//!   with closed-form Laplace–Stieltjes transforms (eqs. 10–18), moments,
//!   matrix LSTs and sampling.
//! * [`solver`] — the MMPP/G/1 solution: Lucantoni's matrix **G** via fixed
//!   point, the stationary vector g, and the exact mean waiting time of an
//!   arriving packet (the quantity eq. 19 evaluates), via a series expansion
//!   of the virtual-workload transform. Cross-validated against
//!   Pollaczek–Khinchine and against discrete-event simulation.
//! * [`simulate`] — a compact event-driven MMPP/G/1 simulator used to
//!   validate the solver and reused by the testbed crate.
//! * [`inversion`] — the waiting-time *distribution* (CDF and percentiles)
//!   by Abate–Whitt Euler inversion of the workload transform.
//! * [`solver_n`] — the general n-state MMPP/G/1 solver (the full scope of
//!   the cited \[18\]), cross-checked against the 2-state specialisation.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod inversion;
pub mod matrix;
pub mod mmpp;
pub mod service;
pub mod simulate;
pub mod solver;
pub mod solver_n;

pub use inversion::{Complex, WaitDistribution};
pub use matrix::Matrix;
pub use mmpp::{Mmpp2, MmppError};
pub use service::{ServiceComponent, ServiceDistribution};
pub use simulate::{simulate_mmpp_g1, SimulatedQueueStats};
pub use solver::{MmppG1, QueueSolution};
pub use solver_n::{MmppN, MmppNError, MmppNG1, QueueSolutionN};
