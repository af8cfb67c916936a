//! # thrifty-telemetry
//!
//! A from-scratch, dependency-free observability layer for the simulated
//! video-transfer stack. The paper's evaluation (Section 6) is built on
//! per-packet delay and per-stage cost measurements taken on an
//! instrumented Android sender; this crate is the reproduction's equivalent
//! of that instrumentation, shared by the simulator, the network models and
//! the cipher engine so every figure's delay decomposition comes from one
//! substrate instead of ad-hoc arithmetic.
//!
//! Three primitives:
//!
//! * **Spans** ([`Stage`], [`MetricsRegistry::record_span`]) — per-stage
//!   sim-time durations keyed by a fixed pipeline stage enum (encrypt,
//!   enqueue, DCF backoff, transmit, TCP retransmit, end-to-end). Stage
//!   slots are a fixed array of atomics: recording is branch + CAS, no
//!   locks, no allocation.
//! * **Counters** ([`Counter`]) — named monotonic `u64` counters (packets
//!   by frame type, bytes encrypted per cipher, losses, retransmissions,
//!   GOPs dropped at the eavesdropper). Handles are acquired once and are
//!   a single relaxed `fetch_add` per event.
//! * **Histograms** ([`Histogram`]) — fixed-bucket base-2 log-scale
//!   histograms with exact, enumerable bucket bounds (and therefore exact
//!   quantile *bounds* rather than interpolated estimates).
//!
//! Everything is driven by the **simulation clock** — no wall-clock reads
//! anywhere — so an instrumented run is bit-reproducible: the same seed
//! yields byte-identical [`Snapshot`] JSON. A registry built with
//! [`MetricsRegistry::disabled`] hands out no-op handles and compiles the
//! hot paths down to a predictable branch, cheap enough to leave the
//! instrumentation on in production-style runs.
//!
//! ## Quick start
//!
//! ```
//! use thrifty_telemetry::{MetricsRegistry, Stage};
//!
//! let metrics = MetricsRegistry::enabled();
//! let packets = metrics.counter("sim.packets.I");
//! let delays = metrics.histogram("sim.packet_delay_s");
//!
//! // ... inside the per-packet loop, driven by sim time ...
//! packets.inc();
//! metrics.record_span(Stage::Encrypt, 1.2e-4);
//! metrics.record_span(Stage::Transmit, 3.4e-4);
//! delays.record(4.6e-4);
//!
//! let snap = metrics.snapshot();
//! assert_eq!(snap.counter("sim.packets.I"), 1);
//! assert!(snap.span(Stage::Encrypt).is_some());
//! println!("{}", snap.to_json());
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod counter;
pub mod histogram;
pub mod snapshot;
pub mod span;

pub use counter::Counter;
pub use histogram::{Histogram, HistogramSnapshot};
pub use snapshot::Snapshot;
pub use span::{SpanSnapshot, Stage};

use counter::CounterCell;
use histogram::HistogramCell;
use span::SpanCell;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// The central handle registry: spans in fixed stage slots, counters and
/// histograms by name.
///
/// A registry is either **enabled** (all primitives live) or **disabled**
/// (every handle is a no-op and [`record_span`](Self::record_span) returns
/// after one branch). The registry is `Sync`; handles are `Clone + Send`,
/// so worker threads can record into the same registry — counters and
/// histogram buckets are integer atomics (order-independent, deterministic
/// under any interleaving), while span sums use a CAS float accumulator
/// and should be written from one thread per registry when byte-exact
/// reproducibility across runs matters (the simulator records spans from
/// its single event loop; fan-out code uses one registry per cell and
/// merges snapshots in a fixed order).
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    enabled: bool,
    spans: [SpanCell; Stage::COUNT],
    counters: Mutex<BTreeMap<String, Arc<CounterCell>>>,
    histograms: Mutex<BTreeMap<String, Arc<HistogramCell>>>,
}

impl MetricsRegistry {
    /// Build a registry, live or no-op.
    pub fn new(enabled: bool) -> Self {
        MetricsRegistry {
            enabled,
            ..Default::default()
        }
    }

    /// A live registry.
    pub fn enabled() -> Self {
        Self::new(true)
    }

    /// A no-op registry: handles do nothing, spans cost one branch.
    pub fn disabled() -> Self {
        Self::new(false)
    }

    /// Accumulate `duration_s` (sim-time seconds) under `stage`.
    #[inline]
    pub fn record_span(&self, stage: Stage, duration_s: f64) {
        if !self.enabled {
            return;
        }
        self.spans[stage as usize].record(duration_s);
    }

    /// A handle to the named counter (created on first use). On a disabled
    /// registry the handle is a no-op and nothing is allocated.
    pub fn counter(&self, name: &str) -> Counter {
        if !self.enabled {
            return Counter::noop();
        }
        let mut map = self.counters.lock().expect("counter registry poisoned");
        let cell = map
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(CounterCell::new()));
        Counter::live(Arc::clone(cell))
    }

    /// A handle to the named histogram (created on first use). No-op and
    /// allocation-free on a disabled registry.
    pub fn histogram(&self, name: &str) -> Histogram {
        if !self.enabled {
            return Histogram::noop();
        }
        let mut map = self.histograms.lock().expect("histogram registry poisoned");
        let cell = map
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(HistogramCell::new()));
        Histogram::live(Arc::clone(cell))
    }

    /// Freeze the current state into a plain-data [`Snapshot`]
    /// (deterministically ordered; serialisable with
    /// [`Snapshot::to_json`]).
    pub fn snapshot(&self) -> Snapshot {
        let mut snap = Snapshot::default();
        if !self.enabled {
            return snap;
        }
        for stage in Stage::ALL {
            let cell = &self.spans[stage as usize];
            let s = cell.snapshot();
            if s.count > 0 {
                snap.spans.insert(stage.name().to_string(), s);
            }
        }
        for (name, cell) in self
            .counters
            .lock()
            .expect("counter registry poisoned")
            .iter()
        {
            snap.counters.insert(name.clone(), cell.get());
        }
        for (name, cell) in self
            .histograms
            .lock()
            .expect("histogram registry poisoned")
            .iter()
        {
            snap.histograms.insert(name.clone(), cell.snapshot());
        }
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_registry_records_nothing() {
        let m = MetricsRegistry::disabled();
        let c = m.counter("x");
        c.add(5);
        assert_eq!(c.get(), 0);
        let h = m.histogram("y");
        h.record(1.0);
        m.record_span(Stage::Encrypt, 1.0);
        let snap = m.snapshot();
        assert!(snap.spans.is_empty());
        assert!(snap.counters.is_empty());
        assert!(snap.histograms.is_empty());
    }

    #[test]
    fn counters_accumulate_and_share_by_name() {
        let m = MetricsRegistry::enabled();
        let a = m.counter("pkts");
        let b = m.counter("pkts");
        a.inc();
        b.add(4);
        assert_eq!(m.snapshot().counter("pkts"), 5);
    }

    #[test]
    fn spans_accumulate_sum_count_max() {
        let m = MetricsRegistry::enabled();
        m.record_span(Stage::Transmit, 0.25);
        m.record_span(Stage::Transmit, 0.5);
        let snap = m.snapshot();
        let s = snap.span(Stage::Transmit).expect("transmit span recorded");
        assert_eq!(s.count, 2);
        assert!((s.total_s - 0.75).abs() < 1e-15);
        assert!((s.max_s - 0.5).abs() < 1e-15);
        assert!(snap.span(Stage::Encrypt).is_none());
    }

    #[test]
    fn snapshot_roundtrips_through_threads() {
        // Counter handles can be cloned into worker threads; the totals are
        // exact regardless of interleaving.
        let m = std::sync::Arc::new(MetricsRegistry::enabled());
        let c = m.counter("thread.events");
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let c = c.clone();
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        c.inc();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("worker finished");
        }
        assert_eq!(m.snapshot().counter("thread.events"), 4000);
    }

    #[test]
    fn enabled_snapshot_is_deterministic_json() {
        let build = || {
            let m = MetricsRegistry::enabled();
            m.counter("b").add(2);
            m.counter("a").add(1);
            m.record_span(Stage::Encrypt, 0.5);
            m.histogram("h").record(1e-3);
            m.snapshot().to_json()
        };
        assert_eq!(build(), build());
        // BTreeMap ordering: "a" serialises before "b".
        let json = build();
        assert!(json.find("\"a\"").expect("a present") < json.find("\"b\"").expect("b present"));
    }
}
