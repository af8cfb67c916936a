//! # thrifty-sim
//!
//! The experiment testbed — everything the paper measured on real phones,
//! reproduced as a simulation (the "Experiment" bars of Figures 4–15):
//!
//! * [`stats`] — sample means with the paper's 95% confidence intervals
//!   (each experiment is repeated and averaged, Section 6.1).
//! * [`sender`] — the sender pipeline of Figure 3 as a packet-level
//!   simulation: stream-structured arrivals (I-fragment bursts, paced P
//!   packets), per-packet encryption/backoff/transmission service, FIFO
//!   queue, channel delivery, and the eavesdropper's capture.
//! * [`experiment`] — full experiment harness: a (motion, GOP, device,
//!   policy, transport) configuration run over multiple trials, producing
//!   delay, PSNR, MOS and power rows directly comparable to the analytic
//!   predictions.
//! * [`pipeline`] — the *real-bytes* RTP/UDP testbed mirroring the Android
//!   app's Figure 3 design (queue admission, encryptor, RTP packetisation,
//!   air and eavesdropper on a sender thread; the receiver on the
//!   caller's) using the actual ciphers and NAL bitstreams, plus the loss
//!   model and fragment reassembler every transport shares.
//! * [`tcp`] — the HTTP/TCP scenario with real bytes: marker-option
//!   segments, retransmission until delivery, and the per-segment loss
//!   trace callers bill stalls from.
//! * [`fountain`] — the third protocol scenario: each GOP rides LT
//!   fountain symbols (`thrifty-fec`) instead of RTP/UDP or HTTP/TCP;
//!   undecoded source symbols become counted erasures feeding the
//!   distortion model.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod experiment;
pub mod fountain;
pub mod pipeline;
pub mod sender;
pub mod stats;
pub mod tcp;

pub use experiment::{Experiment, ExperimentConfig, ExperimentResult, Transport};
pub use fountain::{
    run_pipeline_fountain, run_pipeline_fountain_metered, FountainConfig, FountainOutcome,
};
pub use sender::{PacketRecord, SenderSim, SenderSummary};
pub use stats::Summary;
pub use tcp::{run_pipeline_tcp, TcpConfig, TcpOutcome};
