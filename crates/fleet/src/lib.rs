//! # thrifty-fleet
//!
//! Multi-flow contention engine: simulate **N concurrent video uploaders**
//! contending for one access point, the scale-out serving shape the ROADMAP
//! asks for. The paper models a *single* uploader as a 2-MMPP/G/1 queue
//! whose service time already folds in 802.11 DCF contention from `n`
//! stations (Section 4.1, eqs. 4–9); this crate runs N such uploaders at
//! once, coupling them through that same channel: the **live station count**
//! (background stations + N flows) feeds [`DcfModel::solve`], and the
//! resulting operating point `(p_s, λ_b)` parameterises every flow's sender
//! pipeline and analytic prediction.
//!
//! Design invariants:
//!
//! * **Deterministic per-flow RNG streams** — each flow's draws derive from
//!   `(master seed, flow id)` alone via the FNV-1a + SplitMix64 discipline
//!   of `thrifty-faults`, so adding flows or changing the shard count never
//!   perturbs another flow's trajectory.
//! * **Memoized solves** — DCF fixed points and MMPP/G/1 delay predictions
//!   are cached per (policy × station count × PHY) in a [`SolveCache`];
//!   the per-flow hot
//!   loop only ever performs cache lookups after the first flow warms each
//!   key, and the hit/miss counters land in telemetry.
//! * **Bit-reproducible metered runs** — every flow owns its own
//!   `MetricsRegistry`; snapshots merge in fixed flow-id order, so an
//!   N-flow metered run is byte-identical across invocations and across
//!   shard counts.
//!
//! With `n_flows = 1` and the default background of 4 stations the engine
//! reproduces the existing single-sender experiment path (5 contending
//! stations, the `ExperimentConfig::paper_cell` default) **bit for bit** —
//! the property `reproduce fleet` self-verifies.
//!
//! [`DcfModel::solve`]: thrifty_net::dcf::DcfModel::solve

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod cache;
pub mod engine;
pub mod parallel;
pub mod rng;
pub mod scale;

pub use cache::SolveCache;
pub use engine::{single_sender_reference, FleetConfig, FleetEngine, FleetResult, FlowOutcome};
pub use parallel::{par_flat_map, par_map};
pub use rng::{flow_rng, flow_substream};
pub use scale::{DelayHistogram, ScaleConfig, ScaleEngine, ScaleResult};
