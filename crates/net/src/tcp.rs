//! Simplified TCP for the HTTP/TCP experiments (paper Section 6.4).
//!
//! Two pieces:
//!
//! * [`TcpSegment`] — a real TCP header encoding carrying the paper's
//!   encryption **marker bit as a TCP option** ("A Marker bit is used again
//!   (in the option header) to indicate whether or not a packet is
//!   encrypted").
//! * [`TcpLatencyModel`] — a loss/retransmission latency model: lost
//!   segments are retransmitted after an exponentially backed-off RTO, and
//!   because of cumulative ACKs a loss stalls the in-order delivery of the
//!   segments behind it. This reproduces the Figure 12–13 observation that
//!   TCP latencies are noticeably higher than UDP's but follow the same
//!   policy ordering.

use rand::Rng;

/// TCP option kind we use for the encryption marker (experimental range).
const MARKER_OPTION_KIND: u8 = 0xFE;

/// Errors from TCP segment parsing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TcpError {
    /// Buffer shorter than the advertised header.
    Truncated {
        /// Required bytes.
        need: usize,
        /// Available bytes.
        got: usize,
    },
    /// data_offset field below the 5-word minimum.
    BadDataOffset(u8),
}

impl std::fmt::Display for TcpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TcpError::Truncated { need, got } => {
                write!(f, "truncated TCP segment: need {need}, got {got}")
            }
            TcpError::BadDataOffset(v) => write!(f, "invalid TCP data offset {v}"),
        }
    }
}

impl std::error::Error for TcpError {}

/// A decoded (subset of a) TCP segment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TcpSegment {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Sequence number (byte offset of the first payload byte).
    pub seq: u32,
    /// Acknowledgement number.
    pub ack: u32,
    /// Encryption marker from the option header.
    pub encrypted_marker: bool,
    /// Payload bytes.
    pub payload: Vec<u8>,
}

impl TcpSegment {
    /// Serialise with a 4-byte option block carrying the marker.
    pub fn emit(&self) -> Vec<u8> {
        // 20 fixed + 4 option bytes = 24 ⇒ data offset 6 words.
        let mut out = Vec::with_capacity(24 + self.payload.len());
        out.extend_from_slice(&self.src_port.to_be_bytes());
        out.extend_from_slice(&self.dst_port.to_be_bytes());
        out.extend_from_slice(&self.seq.to_be_bytes());
        out.extend_from_slice(&self.ack.to_be_bytes());
        out.push(6 << 4); // data offset = 6 words, reserved = 0
        out.push(0x18); // PSH|ACK
        out.extend_from_slice(&u16::to_be_bytes(65_535)); // window
        out.extend_from_slice(&[0, 0, 0, 0]); // checksum + urgent (unused)
        // Option: kind, length=3, marker value, then 1 byte padding (NOP=1).
        out.push(MARKER_OPTION_KIND);
        out.push(3);
        out.push(self.encrypted_marker as u8);
        out.push(1);
        out.extend_from_slice(&self.payload);
        out
    }

    /// Parse a segment produced by [`emit`](Self::emit) (or any segment with
    /// a ≥5-word header; unknown options are skipped).
    pub fn parse(buffer: &[u8]) -> Result<TcpSegment, TcpError> {
        if buffer.len() < 20 {
            return Err(TcpError::Truncated {
                need: 20,
                got: buffer.len(),
            });
        }
        let data_offset_words = buffer[12] >> 4;
        if data_offset_words < 5 {
            return Err(TcpError::BadDataOffset(data_offset_words));
        }
        let header_len = data_offset_words as usize * 4;
        if buffer.len() < header_len {
            return Err(TcpError::Truncated {
                need: header_len,
                got: buffer.len(),
            });
        }
        // Walk the options looking for the marker.
        let mut encrypted_marker = false;
        let mut i = 20;
        while i < header_len {
            match buffer[i] {
                0 => break,             // end of options
                1 => i += 1,            // NOP
                kind => {
                    if i + 1 >= header_len {
                        break;
                    }
                    let len = buffer[i + 1] as usize;
                    if len < 2 || i + len > header_len {
                        break;
                    }
                    if kind == MARKER_OPTION_KIND && len >= 3 {
                        encrypted_marker = buffer[i + 2] != 0;
                    }
                    i += len;
                }
            }
        }
        Ok(TcpSegment {
            src_port: u16::from_be_bytes([buffer[0], buffer[1]]),
            dst_port: u16::from_be_bytes([buffer[2], buffer[3]]),
            seq: u32::from_be_bytes([buffer[4], buffer[5], buffer[6], buffer[7]]),
            ack: u32::from_be_bytes([buffer[8], buffer[9], buffer[10], buffer[11]]),
            encrypted_marker,
            payload: buffer[header_len..].to_vec(),
        })
    }
}

/// Why a [`TcpLatencyModel`] was rejected by
/// [`try_new`](TcpLatencyModel::try_new).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TcpModelError {
    /// Loss probability was NaN or outside `[0, 1)`.
    BadLossProbability(f64),
    /// RTO was NaN, infinite, zero or negative.
    BadRto(f64),
}

impl std::fmt::Display for TcpModelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TcpModelError::BadLossProbability(v) => {
                write!(f, "segment loss probability {v} must be in [0, 1)")
            }
            TcpModelError::BadRto(v) => write!(f, "RTO {v} must be finite and > 0"),
        }
    }
}

impl std::error::Error for TcpModelError {}

/// Loss/retransmission latency model for a TCP transfer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TcpLatencyModel {
    /// Probability a segment transmission is lost (1 − p_s).
    pub loss_prob: f64,
    /// Base retransmission timeout, seconds.
    pub rto_s: f64,
    /// Maximum number of RTO doublings.
    pub max_backoff: u32,
}

impl TcpLatencyModel {
    /// Build a model, rejecting NaN/out-of-range parameters with a typed
    /// error instead of a panic.
    pub fn try_new(loss_prob: f64, rto_s: f64) -> Result<Self, TcpModelError> {
        if !loss_prob.is_finite() || !(0.0..1.0).contains(&loss_prob) {
            return Err(TcpModelError::BadLossProbability(loss_prob));
        }
        if !rto_s.is_finite() || rto_s <= 0.0 {
            return Err(TcpModelError::BadRto(rto_s));
        }
        Ok(TcpLatencyModel {
            loss_prob,
            rto_s,
            max_backoff: 6,
        })
    }

    /// Build a model; panics on invalid parameters (prefer
    /// [`try_new`](Self::try_new) for untrusted input).
    pub fn new(loss_prob: f64, rto_s: f64) -> Self {
        match Self::try_new(loss_prob, rto_s) {
            Ok(model) => model,
            Err(e) => panic!("invalid TcpLatencyModel: {e}"),
        }
    }

    /// Expected extra delay per segment due to retransmissions:
    /// `Σ_k P(K = k) · Σ_{i<k} RTO·2^i` where `K ~ Geometric(loss)` is the
    /// number of lost attempts (backoff capped at `max_backoff` doublings).
    pub fn expected_extra_delay_s(&self) -> f64 {
        let q = self.loss_prob;
        let p = 1.0 - q;
        let mut expected = 0.0;
        // Truncate the series when the tail probability is negligible.
        let mut tail = 1.0;
        for k in 1..200u32 {
            tail *= q;
            let prob_k = tail * p; // exactly k losses then a success
            let mut wait = 0.0;
            for i in 0..k {
                wait += self.rto_s * 2f64.powi(i.min(self.max_backoff) as i32);
            }
            expected += prob_k * wait;
            if tail < 1e-15 {
                break;
            }
        }
        expected
    }

    /// Sample the extra delay of a single segment.
    pub fn sample_extra_delay_s<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let mut delay = 0.0;
        let mut attempt = 0u32;
        while rng.gen_bool(self.loss_prob) {
            delay += self.rto_s * 2f64.powi(attempt.min(self.max_backoff) as i32);
            attempt += 1;
            if attempt > 50 {
                break; // pathological RNG stream; cap for safety
            }
        }
        delay
    }
}

/// A [`TcpLatencyModel`] wrapper that meters retransmission behaviour:
/// every lost attempt bumps the `net.tcp.retransmissions` counter and each
/// segment's total extra delay is recorded as a
/// [`Stage::TcpRetransmit`](thrifty_telemetry::Stage::TcpRetransmit) span.
///
/// [`sample_extra_delay_s`](Self::sample_extra_delay_s) consumes **exactly**
/// the RNG draw sequence of the unmetered
/// [`TcpLatencyModel::sample_extra_delay_s`], so switching metering on never
/// changes a seeded experiment's figures.
#[derive(Debug, Clone)]
pub struct MeteredTcp<'a> {
    model: TcpLatencyModel,
    metrics: &'a thrifty_telemetry::MetricsRegistry,
    retransmissions: thrifty_telemetry::Counter,
}

impl<'a> MeteredTcp<'a> {
    /// Wrap `model`, reporting into `metrics` (the counter handle is
    /// acquired once here, not per segment).
    pub fn new(model: TcpLatencyModel, metrics: &'a thrifty_telemetry::MetricsRegistry) -> Self {
        MeteredTcp {
            model,
            metrics,
            retransmissions: metrics.counter("net.tcp.retransmissions"),
        }
    }

    /// The wrapped latency model.
    pub fn model(&self) -> &TcpLatencyModel {
        &self.model
    }

    /// Sample one segment's extra delay, mirroring
    /// [`TcpLatencyModel::sample_extra_delay_s`] draw-for-draw while
    /// counting retransmissions and recording the span.
    pub fn sample_extra_delay_s<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let mut delay = 0.0;
        let mut attempt = 0u32;
        while rng.gen_bool(self.model.loss_prob) {
            delay += self.model.rto_s * 2f64.powi(attempt.min(self.model.max_backoff) as i32);
            attempt += 1;
            self.retransmissions.inc();
            if attempt > 50 {
                break; // pathological RNG stream; cap for safety
            }
        }
        self.metrics
            .record_span(thrifty_telemetry::Stage::TcpRetransmit, delay);
        delay
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn segment(marker: bool) -> TcpSegment {
        TcpSegment {
            src_port: 80,
            dst_port: 54321,
            seq: 1_000_000,
            ack: 555,
            encrypted_marker: marker,
            payload: b"http chunk".to_vec(),
        }
    }

    #[test]
    fn segment_roundtrip_with_marker() {
        for marker in [false, true] {
            let s = segment(marker);
            let wire = s.emit();
            let parsed = TcpSegment::parse(&wire).unwrap();
            assert_eq!(parsed, s);
        }
    }

    #[test]
    fn header_length_is_24_bytes() {
        let wire = segment(true).emit();
        assert_eq!(wire.len(), 24 + 10);
        assert_eq!(wire[12] >> 4, 6);
    }

    #[test]
    fn parser_skips_unknown_options() {
        // Hand-build a segment with a NOP and an unknown option before ours.
        let mut wire = segment(true).emit();
        // Grow header: rewrite options area as NOP, unknown(kind 9, len 2), marker.
        // Simpler: verify our parser handles NOP already present (last byte).
        let parsed = TcpSegment::parse(&wire).unwrap();
        assert!(parsed.encrypted_marker);
        // Corrupt the marker option kind: marker should default to false.
        wire[20] = 0x42;
        let parsed = TcpSegment::parse(&wire).unwrap();
        assert!(!parsed.encrypted_marker);
    }

    #[test]
    fn truncated_and_malformed_rejected() {
        assert!(TcpSegment::parse(&[0u8; 10]).is_err());
        let mut wire = segment(false).emit();
        wire[12] = 4 << 4; // data offset below minimum
        assert_eq!(TcpSegment::parse(&wire), Err(TcpError::BadDataOffset(4)));
    }

    #[test]
    fn no_loss_means_no_extra_delay() {
        let m = TcpLatencyModel::new(0.0, 0.2);
        assert_eq!(m.expected_extra_delay_s(), 0.0);
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(m.sample_extra_delay_s(&mut rng), 0.0);
    }

    #[test]
    fn expected_delay_matches_monte_carlo() {
        let m = TcpLatencyModel::new(0.2, 0.1);
        let mut rng = StdRng::seed_from_u64(2);
        let n = 200_000;
        let mean: f64 = (0..n)
            .map(|_| m.sample_extra_delay_s(&mut rng))
            .sum::<f64>()
            / n as f64;
        let analytic = m.expected_extra_delay_s();
        assert!(
            (mean - analytic).abs() / analytic < 0.05,
            "MC {mean} vs analytic {analytic}"
        );
    }

    #[test]
    fn delay_grows_with_loss() {
        let low = TcpLatencyModel::new(0.05, 0.1).expected_extra_delay_s();
        let high = TcpLatencyModel::new(0.3, 0.1).expected_extra_delay_s();
        assert!(high > low);
    }

    /// Differential test of `expected_extra_delay_s` against a Monte-Carlo
    /// mean of `sample_extra_delay_s`, with `max_backoff` tightened so the
    /// RTO-doubling **cap branch** (`attempt.min(max_backoff)`) is hit on
    /// most samples — at 50% loss, one in eight segments sees three or more
    /// retransmissions and saturates a cap of 2.
    #[test]
    fn expected_delay_matches_monte_carlo_at_backoff_cap() {
        let mut m = TcpLatencyModel::new(0.5, 0.05);
        m.max_backoff = 2;
        let mut rng = StdRng::seed_from_u64(42);
        let n = 150_000;
        let mean: f64 = (0..n)
            .map(|_| m.sample_extra_delay_s(&mut rng))
            .sum::<f64>()
            / n as f64;
        let analytic = m.expected_extra_delay_s();
        // With the cap at 2 the per-segment delay variance is modest; 150k
        // draws bound the relative MC error far below the 3% gate.
        assert!(
            (mean - analytic).abs() / analytic < 0.03,
            "MC {mean} vs analytic {analytic}"
        );
        // Sanity: the cap actually binds — the uncapped model must expect
        // strictly more delay at the same loss rate.
        let uncapped = TcpLatencyModel::new(0.5, 0.05).expected_extra_delay_s();
        assert!(uncapped > analytic);
    }

    #[test]
    fn try_new_rejects_hostile_parameters() {
        assert!(matches!(
            TcpLatencyModel::try_new(f64::NAN, 0.1),
            Err(TcpModelError::BadLossProbability(v)) if v.is_nan()
        ));
        assert_eq!(
            TcpLatencyModel::try_new(1.0, 0.1),
            Err(TcpModelError::BadLossProbability(1.0))
        );
        assert_eq!(
            TcpLatencyModel::try_new(-0.1, 0.1),
            Err(TcpModelError::BadLossProbability(-0.1))
        );
        assert!(matches!(
            TcpLatencyModel::try_new(0.1, f64::NAN),
            Err(TcpModelError::BadRto(v)) if v.is_nan()
        ));
        assert_eq!(
            TcpLatencyModel::try_new(0.1, f64::INFINITY),
            Err(TcpModelError::BadRto(f64::INFINITY))
        );
        assert_eq!(TcpLatencyModel::try_new(0.1, 0.0), Err(TcpModelError::BadRto(0.0)));
        assert_eq!(TcpLatencyModel::try_new(0.2, 0.1), Ok(TcpLatencyModel::new(0.2, 0.1)));
    }

    #[test]
    fn metered_tcp_matches_unmetered_draw_for_draw() {
        use thrifty_telemetry::{MetricsRegistry, Stage};
        let model = TcpLatencyModel::new(0.3, 0.1);
        let n = 20_000;
        let mut rng = StdRng::seed_from_u64(9);
        let reference: Vec<f64> = (0..n).map(|_| model.sample_extra_delay_s(&mut rng)).collect();

        let metrics = MetricsRegistry::enabled();
        let metered = MeteredTcp::new(model, &metrics);
        let mut rng = StdRng::seed_from_u64(9);
        let observed: Vec<f64> = (0..n).map(|_| metered.sample_extra_delay_s(&mut rng)).collect();
        assert_eq!(observed, reference, "metering must not perturb the RNG");

        let snap = metrics.snapshot();
        let span = snap.span(Stage::TcpRetransmit).expect("span recorded");
        assert_eq!(span.count, n as u64);
        let total: f64 = reference.iter().sum();
        assert!((span.total_s - total).abs() < 1e-9);
        assert!(snap.counter("net.tcp.retransmissions") > 0);
        assert_eq!(metered.model(), &model);
    }
}
