//! # thrifty-recover
//!
//! The recovery half of the fault subsystem: where `thrifty-faults`
//! *injects* hostile behaviour, this crate *reacts* to it — and does so
//! deterministically, so every closed loop built on top of it stays
//! bit-reproducible from its seeds.
//!
//! Three pieces, all pure state machines with no clock, no RNG and no
//! allocation beyond episode bookkeeping:
//!
//! * [`RtoEstimator`] — Jacobson/Karn smoothed-RTT retransmission-timeout
//!   estimation with capped exponential backoff, replacing the fixed RTO
//!   the TCP latency model and the ARQ stall tax used before. Time is
//!   whatever unit the caller feeds in (the sim engines feed sim-seconds),
//!   so determinism is inherited, not asserted.
//! * [`ResyncProtocol`] — turns stale-key and lost-I-frame desyncs into
//!   bounded, *measured* [`Episode`]s: a re-key handshake of a known
//!   length, then decoder resync at the next I-frame. What used to be an
//!   unbounded erasure run becomes a recovery time you can put in a table.
//! * [`DegradationController`] — the per-GOP policy ladder
//!   (full → I+P% → I-only) with a hysteresis band and a minimum dwell, so
//!   the encryption policy tracks channel distress without flapping. The
//!   no-flap invariant is pinned by a proptest suite and re-checked live
//!   by the `reproduce chaos` soak matrix.
//!
//! Determinism survives the closed loop because every input these
//! machines consume (RTT samples, desync events, distress signals) is
//! itself derived from seeded streams, and every transition is a pure
//! function of (state, input). See DESIGN.md §11.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod controller;
pub mod resync;
pub mod rto;

pub use controller::{ControllerConfig, ControllerConfigError, DegradationController, PolicyRung};
pub use resync::{DesyncKind, Episode, RecoveryReport, ResyncProtocol};
pub use rto::{RtoConfig, RtoConfigError, RtoEstimator};
