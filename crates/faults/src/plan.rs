//! The declarative fault plan.
//!
//! A [`FaultPlan`] names which fault sites are armed and with what
//! parameters. Plans are plain data: validated once ([`FaultPlan::validate`])
//! and then handed to the runtime injectors, which derive one RNG stream per
//! armed site from the plan's master seed. `FaultPlan::default()` arms
//! nothing and is the exact identity on the pipeline.

/// Which bytes of a packet a corruption may touch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Region {
    /// Only the protocol header (first `header_len` bytes on the wire).
    Header,
    /// Only the payload after the protocol header.
    Payload,
    /// Any byte of the packet.
    Anywhere,
}

/// Per-packet bit corruption.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CorruptionFault {
    /// Probability a given packet is corrupted.
    pub probability: f64,
    /// Where the flipped bits land.
    pub region: Region,
    /// Bits flipped per corrupted packet (1..=64), drawn uniformly.
    pub max_bit_flips: u32,
}

/// Per-packet duplication (MAC-layer retransmit duplicates).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DuplicationFault {
    /// Probability a given packet is delivered twice.
    pub probability: f64,
}

/// Per-packet truncation (interference clipping the tail of a frame).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TruncationFault {
    /// Probability a given packet is truncated.
    pub probability: f64,
    /// Minimum number of leading bytes kept (the cut point is drawn
    /// uniformly from `min_keep..len`).
    pub min_keep: usize,
}

/// Reordering bursts: packets are released from a shuffle buffer of
/// `window` slots in a random order drawn from the site's own stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReorderingFault {
    /// Shuffle-buffer size; larger windows produce deeper reordering.
    pub window: usize,
}

/// Burst-loss episodes layered **on top of** whatever loss the underlying
/// channel already applies: a two-state (quiet/burst) overlay in the spirit
/// of Gilbert–Elliott, so i.i.d. channels can be stressed with exactly the
/// correlated losses eq. (20) of the paper assumes away.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BurstLossFault {
    /// P(quiet → burst) per packet.
    pub p_enter: f64,
    /// P(burst → quiet) per packet.
    pub p_exit: f64,
    /// Per-packet loss probability while inside a burst episode.
    pub loss_in_burst: f64,
}

impl BurstLossFault {
    /// Stationary probability of being inside a burst episode.
    fn stationary_burst(&self) -> f64 {
        self.p_enter / (self.p_enter + self.p_exit)
    }

    /// Long-run per-packet survival probability of the overlay alone.
    pub fn survival_rate(&self) -> f64 {
        1.0 - self.stationary_burst() * self.loss_in_burst
    }
}

/// Bounded-queue overflow: the producer outpaces the encryptor.
///
/// The overlay keeps a simulated queue occupancy: each produced frame first
/// gives the encryptor a chance to drain one slot (probability
/// `drain_prob`), then the frame is admitted if the occupancy is below
/// `capacity` and dropped otherwise. Low drain probabilities model a
/// saturated cipher stage and produce bursty head-drops, deterministically
/// from the site's stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueueOverflowFault {
    /// Simulated queue capacity (frames).
    pub capacity: usize,
    /// Probability the encryptor drains one queued frame per produced frame.
    pub drain_prob: f64,
}

/// Stale/mismatched-key decryption: with the given probability the receiver
/// decrypts a marked packet with an out-of-date key, producing garbage that
/// must surface as an erasure — never a panic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StaleKeyFault {
    /// Probability a marked packet is decrypted with the stale key.
    pub probability: f64,
}

/// A composable, validated description of every armed fault site.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaultPlan {
    /// Master seed; each armed site derives its own stream from it.
    pub seed: u64,
    /// Per-packet bit corruption.
    pub corruption: Option<CorruptionFault>,
    /// Per-packet duplication.
    pub duplication: Option<DuplicationFault>,
    /// Per-packet truncation.
    pub truncation: Option<TruncationFault>,
    /// Reordering bursts.
    pub reordering: Option<ReorderingFault>,
    /// Burst-loss episodes.
    pub burst_loss: Option<BurstLossFault>,
    /// Bounded-queue overflow.
    pub queue_overflow: Option<QueueOverflowFault>,
    /// Stale-key decryption.
    pub stale_key: Option<StaleKeyFault>,
}

/// Why a [`FaultPlan`] was rejected.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanError {
    /// A probability parameter was NaN or outside `[0, 1]`.
    BadProbability {
        /// Which parameter.
        what: &'static str,
        /// The offending value.
        value: f64,
    },
    /// A structural parameter (window, capacity, bit count) was zero.
    ZeroParameter {
        /// Which parameter.
        what: &'static str,
    },
    /// The burst overlay chain is not irreducible (`p_enter + p_exit = 0`).
    DegenerateBurstChain,
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::BadProbability { what, value } => {
                write!(
                    f,
                    "fault plan: {what} = {value} is not a probability in [0, 1]"
                )
            }
            PlanError::ZeroParameter { what } => {
                write!(f, "fault plan: {what} must be non-zero")
            }
            PlanError::DegenerateBurstChain => {
                write!(f, "fault plan: burst overlay needs p_enter + p_exit > 0")
            }
        }
    }
}

impl std::error::Error for PlanError {}

fn check_prob(what: &'static str, value: f64) -> Result<(), PlanError> {
    // `contains` is false for NaN, so this rejects NaN as well as
    // out-of-range values — but spell the check out so the error message
    // names the value instead of an assert line.
    if !(0.0..=1.0).contains(&value) {
        return Err(PlanError::BadProbability { what, value });
    }
    Ok(())
}

impl FaultPlan {
    /// A plan with nothing armed — the exact identity on the pipeline.
    pub fn none(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..FaultPlan::default()
        }
    }

    /// True if no fault site is armed.
    pub fn is_empty(&self) -> bool {
        self.corruption.is_none()
            && self.duplication.is_none()
            && self.truncation.is_none()
            && self.reordering.is_none()
            && self.burst_loss.is_none()
            && self.queue_overflow.is_none()
            && self.stale_key.is_none()
    }

    /// Validate every armed site's parameters.
    pub fn validate(&self) -> Result<(), PlanError> {
        if let Some(c) = &self.corruption {
            check_prob("corruption.probability", c.probability)?;
            if c.max_bit_flips == 0 || c.max_bit_flips > 64 {
                return Err(PlanError::ZeroParameter {
                    what: "corruption.max_bit_flips (1..=64)",
                });
            }
        }
        if let Some(d) = &self.duplication {
            check_prob("duplication.probability", d.probability)?;
        }
        if let Some(t) = &self.truncation {
            check_prob("truncation.probability", t.probability)?;
        }
        if let Some(r) = &self.reordering {
            if r.window == 0 {
                return Err(PlanError::ZeroParameter {
                    what: "reordering.window",
                });
            }
        }
        if let Some(b) = &self.burst_loss {
            check_prob("burst_loss.p_enter", b.p_enter)?;
            check_prob("burst_loss.p_exit", b.p_exit)?;
            check_prob("burst_loss.loss_in_burst", b.loss_in_burst)?;
            if b.p_enter + b.p_exit <= 0.0 {
                return Err(PlanError::DegenerateBurstChain);
            }
        }
        if let Some(q) = &self.queue_overflow {
            check_prob("queue_overflow.drain_prob", q.drain_prob)?;
            if q.capacity == 0 {
                return Err(PlanError::ZeroParameter {
                    what: "queue_overflow.capacity",
                });
            }
        }
        if let Some(s) = &self.stale_key {
            check_prob("stale_key.probability", s.probability)?;
        }
        Ok(())
    }

    /// Builder: arm per-packet corruption.
    pub fn with_corruption(mut self, probability: f64, region: Region, max_bit_flips: u32) -> Self {
        self.corruption = Some(CorruptionFault {
            probability,
            region,
            max_bit_flips,
        });
        self
    }

    /// Builder: arm per-packet duplication.
    pub fn with_duplication(mut self, probability: f64) -> Self {
        self.duplication = Some(DuplicationFault { probability });
        self
    }

    /// Builder: arm per-packet truncation.
    pub fn with_truncation(mut self, probability: f64, min_keep: usize) -> Self {
        self.truncation = Some(TruncationFault {
            probability,
            min_keep,
        });
        self
    }

    /// Builder: arm reordering bursts.
    pub fn with_reordering(mut self, window: usize) -> Self {
        self.reordering = Some(ReorderingFault { window });
        self
    }

    /// Builder: arm burst-loss episodes.
    pub fn with_burst_loss(mut self, p_enter: f64, p_exit: f64, loss_in_burst: f64) -> Self {
        self.burst_loss = Some(BurstLossFault {
            p_enter,
            p_exit,
            loss_in_burst,
        });
        self
    }

    /// Builder: arm bounded-queue overflow.
    pub fn with_queue_overflow(mut self, capacity: usize, drain_prob: f64) -> Self {
        self.queue_overflow = Some(QueueOverflowFault {
            capacity,
            drain_prob,
        });
        self
    }

    /// Builder: arm stale-key decryption.
    pub fn with_stale_key(mut self, probability: f64) -> Self {
        self.stale_key = Some(StaleKeyFault { probability });
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_is_empty_and_valid() {
        let plan = FaultPlan::none(7);
        assert!(plan.is_empty());
        assert_eq!(plan.validate(), Ok(()));
    }

    #[test]
    fn builders_arm_sites() {
        let plan = FaultPlan::none(1)
            .with_corruption(0.1, Region::Payload, 3)
            .with_duplication(0.05)
            .with_truncation(0.02, 4)
            .with_reordering(8)
            .with_burst_loss(0.05, 0.2, 0.9)
            .with_queue_overflow(16, 0.8)
            .with_stale_key(0.01);
        assert!(!plan.is_empty());
        assert_eq!(plan.validate(), Ok(()));
    }

    #[test]
    fn nan_probability_rejected_with_named_site() {
        let plan = FaultPlan::none(1).with_corruption(f64::NAN, Region::Header, 1);
        match plan.validate() {
            Err(PlanError::BadProbability { what, value }) => {
                assert_eq!(what, "corruption.probability");
                assert!(value.is_nan());
            }
            other => panic!("expected BadProbability, got {other:?}"),
        }
    }

    #[test]
    fn out_of_range_and_degenerate_parameters_rejected() {
        assert!(FaultPlan::none(0).with_duplication(1.5).validate().is_err());
        assert!(FaultPlan::none(0).with_reordering(0).validate().is_err());
        assert!(FaultPlan::none(0)
            .with_corruption(0.5, Region::Anywhere, 0)
            .validate()
            .is_err());
        assert_eq!(
            FaultPlan::none(0).with_burst_loss(0.0, 0.0, 0.5).validate(),
            Err(PlanError::DegenerateBurstChain)
        );
        assert!(FaultPlan::none(0)
            .with_queue_overflow(0, 0.5)
            .validate()
            .is_err());
    }

    #[test]
    fn errors_display_descriptively() {
        let e = FaultPlan::none(0)
            .with_stale_key(-0.5)
            .validate()
            .unwrap_err();
        let msg = e.to_string();
        assert!(msg.contains("stale_key.probability"), "{msg}");
        assert!(msg.contains("-0.5"), "{msg}");
    }
}
