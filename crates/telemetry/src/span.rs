//! Sim-time spans keyed by pipeline stage.
//!
//! A span records how long a packet spent in one stage of the sender
//! pipeline, in **simulation seconds** (never wall clock). Stages are a
//! closed enum so the per-stage accumulators live in a fixed array of
//! atomics — recording is lock- and allocation-free.

use std::sync::atomic::{AtomicU64, Ordering};

/// The instrumented stages of the transfer pipeline (Figure 3 of the
/// paper, plus the TCP retransmission stage of Section 6.4 and the
/// end-to-end total the figures report).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Stage {
    /// OFB encryption of the packets the policy selects.
    Encrypt = 0,
    /// Waiting in the sender's FIFO queue (Lindley wait).
    Enqueue = 1,
    /// 802.11 DCF contention backoff before the transmission attempt.
    DcfBackoff = 2,
    /// Frame airtime including the SIFS/ACK exchange.
    Transmit = 3,
    /// Extra head-of-line latency from TCP retransmissions (HTTP/TCP
    /// transport only).
    TcpRetransmit = 4,
    /// Total per-packet delay (enqueue + service) — the quantity plotted
    /// in Figures 7–8 and 12–13.
    EndToEnd = 5,
}

impl Stage {
    /// Number of stages (size of the registry's span slot array).
    pub const COUNT: usize = 6;

    /// Every stage, in slot order.
    pub const ALL: [Stage; Stage::COUNT] = [
        Stage::Encrypt,
        Stage::Enqueue,
        Stage::DcfBackoff,
        Stage::Transmit,
        Stage::TcpRetransmit,
        Stage::EndToEnd,
    ];

    /// Stable snake_case name used as the snapshot key.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Encrypt => "encrypt",
            Stage::Enqueue => "enqueue",
            Stage::DcfBackoff => "dcf_backoff",
            Stage::Transmit => "transmit",
            Stage::TcpRetransmit => "tcp_retransmit",
            Stage::EndToEnd => "end_to_end",
        }
    }
}

impl std::fmt::Display for Stage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Lock-free accumulator for one stage: sum, count and max of the recorded
/// durations. Float sum/max are stored as `f64` bit patterns in atomics and
/// updated by CAS loops.
#[derive(Debug, Default)]
pub(crate) struct SpanCell {
    sum_bits: AtomicU64,
    count: AtomicU64,
    max_bits: AtomicU64,
}

/// Add `v` into an atomic holding `f64` bits.
fn fetch_add_f64(cell: &AtomicU64, v: f64) {
    let mut cur = cell.load(Ordering::Relaxed);
    loop {
        let next = (f64::from_bits(cur) + v).to_bits();
        match cell.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(seen) => cur = seen,
        }
    }
}

/// Raise an atomic `f64`-bits cell to at least `v`.
fn fetch_max_f64(cell: &AtomicU64, v: f64) {
    let mut cur = cell.load(Ordering::Relaxed);
    while v > f64::from_bits(cur) {
        match cell.compare_exchange_weak(cur, v.to_bits(), Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(seen) => cur = seen,
        }
    }
}

impl SpanCell {
    pub(crate) fn record(&self, duration_s: f64) {
        debug_assert!(duration_s >= 0.0, "span durations are non-negative");
        fetch_add_f64(&self.sum_bits, duration_s);
        fetch_max_f64(&self.max_bits, duration_s);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn snapshot(&self) -> SpanSnapshot {
        SpanSnapshot {
            count: self.count.load(Ordering::Relaxed),
            total_s: f64::from_bits(self.sum_bits.load(Ordering::Relaxed)),
            max_s: f64::from_bits(self.max_bits.load(Ordering::Relaxed)),
        }
    }
}

/// Frozen statistics of one stage.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SpanSnapshot {
    /// Number of recorded intervals.
    pub count: u64,
    /// Sum of all recorded durations, sim seconds.
    pub total_s: f64,
    /// Largest single recorded duration, sim seconds.
    pub max_s: f64,
}

impl SpanSnapshot {
    /// Mean duration per recorded interval (0 when empty).
    pub fn mean_s(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_s / self.count as f64
        }
    }

    /// Fold another snapshot of the same stage into this one.
    pub fn merge(&mut self, other: &SpanSnapshot) {
        self.count += other.count;
        self.total_s += other.total_s;
        self.max_s = self.max_s.max(other.max_s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_slots_are_dense_and_named() {
        for (i, stage) in Stage::ALL.iter().enumerate() {
            assert_eq!(*stage as usize, i, "{stage} slot index");
            assert!(!stage.name().is_empty());
        }
        assert_eq!(Stage::ALL.len(), Stage::COUNT);
    }

    #[test]
    fn cell_tracks_sum_count_max() {
        let cell = SpanCell::default();
        for v in [0.5, 0.25, 1.5, 0.0] {
            cell.record(v);
        }
        let s = cell.snapshot();
        assert_eq!(s.count, 4);
        assert!((s.total_s - 2.25).abs() < 1e-15);
        assert!((s.max_s - 1.5).abs() < 1e-15);
        assert!((s.mean_s() - 0.5625).abs() < 1e-15);
    }

    #[test]
    fn merge_combines_snapshots() {
        let mut a = SpanSnapshot {
            count: 2,
            total_s: 1.0,
            max_s: 0.75,
        };
        let b = SpanSnapshot {
            count: 1,
            total_s: 2.0,
            max_s: 2.0,
        };
        a.merge(&b);
        assert_eq!(a.count, 3);
        assert!((a.total_s - 3.0).abs() < 1e-15);
        assert!((a.max_s - 2.0).abs() < 1e-15);
    }

    #[test]
    fn empty_snapshot_mean_is_zero() {
        assert_eq!(SpanSnapshot::default().mean_s(), 0.0);
    }
}
