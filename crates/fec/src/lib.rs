//! `thrifty-fec` — a from-scratch LT fountain codec.
//!
//! Rateless erasure coding for the third protocol scenario: instead of
//! retransmitting lost packets (TCP) or abandoning them (UDP), the sender
//! emits a stream of XOR-coded symbols until the receiver has enough to
//! peel the source block back out. See DESIGN.md §10 for the degree
//! distribution, the ripple invariant, and the deterministic decode order.
//!
//! The crate is deliberately transport-agnostic: [`lt::BlockEncoder`] /
//! [`lt::PeelingDecoder`] speak `(seed, block, symbol_id)` coordinates, and
//! `thrifty-net`'s `FountainHeader` carries exactly those coordinates on
//! the wire. It is covered by the workspace determinism lint tier: no wall
//! clocks, ambient RNGs, or hash-ordered collections in non-test code.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod degree;
pub mod lt;

pub use degree::{RobustSoliton, SolitonError};
pub use lt::{BlockEncoder, FecError, PeelingDecoder};
