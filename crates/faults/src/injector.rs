//! Runtime fault injectors, split along the pipeline's stages.
//!
//! The real-bytes transports consume faults in three places: the **air**
//! (corruption, truncation, duplication, reordering, burst loss), the
//! **receiver** (stale-key decryption) and the **producer** (bounded-queue
//! overflow). Each part owns the RNG streams of exactly the sites it
//! applies, so every stream is consumed by one stage in arrival order and
//! a run is bit-reproducible from `(seed, plan)`.
//!
//! All injectors are draw-free when their sites are unarmed: an empty
//! [`FaultPlan`] makes every method the identity without touching an RNG,
//! which is what makes the empty-plan pipeline byte-identical to the
//! un-instrumented path.

use crate::plan::{
    BurstLossFault, CorruptionFault, DuplicationFault, FaultPlan, QueueOverflowFault, Region,
    ReorderingFault, StaleKeyFault, TruncationFault,
};
use crate::rng::{site_rng, FaultSite};
use rand::rngs::StdRng;
use rand::Rng;

/// Plain counts of what the injectors did, mergeable across threads.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Packets with at least one flipped bit.
    pub corrupted: u64,
    /// Packets delivered twice.
    pub duplicated: u64,
    /// Packets with their tail cut off.
    pub truncated: u64,
    /// Packets released from the shuffle buffer out of arrival order.
    pub reordered: u64,
    /// Packets swallowed by a burst-loss episode.
    pub burst_lost: u64,
    /// Frames dropped at the bounded queue (producer outpaced encryptor).
    pub queue_dropped: u64,
    /// Marked packets decrypted with the stale key.
    pub stale_key_hits: u64,
}

impl FaultStats {
    /// Sum another half's counts into this one.
    pub fn merge(&mut self, other: &FaultStats) {
        self.corrupted += other.corrupted;
        self.duplicated += other.duplicated;
        self.truncated += other.truncated;
        self.reordered += other.reordered;
        self.burst_lost += other.burst_lost;
        self.queue_dropped += other.queue_dropped;
        self.stale_key_hits += other.stale_key_hits;
    }

    /// Total number of fault events.
    pub fn total(&self) -> u64 {
        self.corrupted
            + self.duplicated
            + self.truncated
            + self.reordered
            + self.burst_lost
            + self.queue_dropped
            + self.stale_key_hits
    }
}

struct BurstState {
    cfg: BurstLossFault,
    rng: StdRng,
    in_burst: bool,
}

struct ReorderState {
    cfg: ReorderingFault,
    rng: StdRng,
    /// `(arrival_sequence, packet)` so out-of-order releases are countable.
    buffer: Vec<(u64, Vec<u8>)>,
    next_arrival: u64,
    next_release: u64,
}

/// Air-side injector: everything that happens to bytes in flight.
///
/// Apply order per packet: burst loss (the packet may vanish entirely),
/// then corruption, truncation and duplication of the surviving bytes,
/// then the reordering shuffle buffer. Call
/// [`drain`](PacketInjector::drain) after the last packet to flush the
/// buffer.
pub struct PacketInjector {
    corruption: Option<(CorruptionFault, StdRng)>,
    duplication: Option<(DuplicationFault, StdRng)>,
    truncation: Option<(TruncationFault, StdRng)>,
    reorder: Option<ReorderState>,
    burst: Option<BurstState>,
    header_len: usize,
    stats: FaultStats,
    c_corrupted: thrifty_telemetry::Counter,
    c_duplicated: thrifty_telemetry::Counter,
    c_truncated: thrifty_telemetry::Counter,
    c_reordered: thrifty_telemetry::Counter,
    c_burst_lost: thrifty_telemetry::Counter,
}

impl PacketInjector {
    /// Build the air half from a plan.
    ///
    /// `header_len` is the wire-format header length the corruption
    /// [`Region`] boundary refers to (e.g. `RTP_HEADER_LEN`).
    ///
    /// # Panics
    /// If the plan fails [`FaultPlan::validate`] — validate first when the
    /// plan comes from untrusted input.
    pub fn new(
        plan: &FaultPlan,
        header_len: usize,
        metrics: &thrifty_telemetry::MetricsRegistry,
    ) -> Self {
        if let Err(e) = plan.validate() {
            panic!("invalid fault plan: {e}");
        }
        PacketInjector {
            corruption: plan
                .corruption
                .map(|c| (c, site_rng(plan.seed, FaultSite::Corruption))),
            duplication: plan
                .duplication
                .map(|d| (d, site_rng(plan.seed, FaultSite::Duplication))),
            truncation: plan
                .truncation
                .map(|t| (t, site_rng(plan.seed, FaultSite::Truncation))),
            reorder: plan.reordering.map(|cfg| ReorderState {
                cfg,
                rng: site_rng(plan.seed, FaultSite::Reordering),
                buffer: Vec::with_capacity(cfg.window + 1),
                next_arrival: 0,
                next_release: 0,
            }),
            burst: plan.burst_loss.map(|cfg| BurstState {
                cfg,
                rng: site_rng(plan.seed, FaultSite::BurstLoss),
                in_burst: false,
            }),
            header_len,
            stats: FaultStats::default(),
            c_corrupted: metrics.counter("faults.corrupted"),
            c_duplicated: metrics.counter("faults.duplicated"),
            c_truncated: metrics.counter("faults.truncated"),
            c_reordered: metrics.counter("faults.reordered"),
            c_burst_lost: metrics.counter("faults.burst_lost"),
        }
    }

    /// Counts so far (the reorder buffer may still hold packets).
    pub fn stats(&self) -> FaultStats {
        self.stats
    }

    fn corrupt(&mut self, pkt: &mut [u8]) -> bool {
        let Some((cfg, rng)) = &mut self.corruption else {
            return false;
        };
        if !rng.gen_bool(cfg.probability) {
            return false;
        }
        let (lo, hi) = match cfg.region {
            Region::Header => (0, self.header_len.min(pkt.len())),
            Region::Payload => (self.header_len.min(pkt.len()), pkt.len()),
            Region::Anywhere => (0, pkt.len()),
        };
        if lo >= hi {
            return false; // region empty on this packet; nothing to flip
        }
        let flips = rng.gen_range(1..=cfg.max_bit_flips);
        for _ in 0..flips {
            let byte = rng.gen_range(lo..hi);
            let bit = rng.gen_range(0u32..8);
            pkt[byte] ^= 1 << bit;
        }
        true
    }

    fn truncate(&mut self, pkt: &mut Vec<u8>) -> bool {
        let Some((cfg, rng)) = &mut self.truncation else {
            return false;
        };
        if !rng.gen_bool(cfg.probability) {
            return false;
        }
        if pkt.len() <= cfg.min_keep {
            return false; // already shorter than the floor; leave it
        }
        let keep = rng.gen_range(cfg.min_keep..pkt.len());
        pkt.truncate(keep);
        true
    }

    fn duplicate(&mut self) -> bool {
        match &mut self.duplication {
            Some((cfg, rng)) => rng.gen_bool(cfg.probability),
            None => false,
        }
    }

    fn burst_swallows(&mut self) -> bool {
        let Some(b) = &mut self.burst else {
            return false;
        };
        // Transition first, then a loss draw in the (possibly new) state.
        let flip = if b.in_burst {
            b.cfg.p_exit
        } else {
            b.cfg.p_enter
        };
        if b.rng.gen_bool(flip) {
            b.in_burst = !b.in_burst;
        }
        b.in_burst && b.rng.gen_bool(b.cfg.loss_in_burst)
    }

    fn reorder_push(&mut self, pkt: Vec<u8>, released: &mut Vec<Vec<u8>>) {
        let Some(r) = &mut self.reorder else {
            released.push(pkt);
            return;
        };
        r.buffer.push((r.next_arrival, pkt));
        r.next_arrival += 1;
        if r.buffer.len() > r.cfg.window {
            let idx = r.rng.gen_range(0..r.buffer.len());
            let (arrival, pkt) = r.buffer.swap_remove(idx);
            if arrival != r.next_release {
                self.stats.reordered += 1;
                self.c_reordered.inc();
            }
            r.next_release = r.next_release.max(arrival + 1);
            released.push(pkt);
        }
    }

    /// Pass one packet through every armed air-side site.
    ///
    /// Returns the packets released downstream **now**: possibly none (the
    /// packet was swallowed or parked in the shuffle buffer), possibly
    /// several (a duplicate, or a shuffle release on top of the new
    /// arrival). With no site armed this is exactly `vec![pkt]`.
    pub fn on_packet(&mut self, mut pkt: Vec<u8>) -> Vec<Vec<u8>> {
        let mut released = Vec::with_capacity(1);
        if self.burst_swallows() {
            self.stats.burst_lost += 1;
            self.c_burst_lost.inc();
            return released;
        }
        if self.corrupt(&mut pkt) {
            self.stats.corrupted += 1;
            self.c_corrupted.inc();
        }
        if self.truncate(&mut pkt) {
            self.stats.truncated += 1;
            self.c_truncated.inc();
        }
        let duplicate = self.duplicate();
        if duplicate {
            self.stats.duplicated += 1;
            self.c_duplicated.inc();
            self.reorder_push(pkt.clone(), &mut released);
        }
        self.reorder_push(pkt, &mut released);
        released
    }

    /// Flush the reordering shuffle buffer after the last packet.
    pub fn drain(&mut self) -> Vec<Vec<u8>> {
        let mut released = Vec::new();
        let Some(r) = &mut self.reorder else {
            return released;
        };
        while !r.buffer.is_empty() {
            let idx = r.rng.gen_range(0..r.buffer.len());
            let (arrival, pkt) = r.buffer.swap_remove(idx);
            if arrival != r.next_release {
                self.stats.reordered += 1;
                self.c_reordered.inc();
            }
            r.next_release = r.next_release.max(arrival + 1);
            released.push(pkt);
        }
        released
    }
}

/// Receiver-side injector: stale/mismatched-key decryption.
pub struct ReceiverFaults {
    stale: Option<(StaleKeyFault, StdRng)>,
    stats: FaultStats,
    c_stale: thrifty_telemetry::Counter,
}

impl ReceiverFaults {
    /// Build the receiver half from a plan.
    ///
    /// # Panics
    /// If the plan fails [`FaultPlan::validate`].
    pub fn new(plan: &FaultPlan, metrics: &thrifty_telemetry::MetricsRegistry) -> Self {
        if let Err(e) = plan.validate() {
            panic!("invalid fault plan: {e}");
        }
        ReceiverFaults {
            stale: plan
                .stale_key
                .map(|s| (s, site_rng(plan.seed, FaultSite::StaleKey))),
            stats: FaultStats::default(),
            c_stale: metrics.counter("faults.stale_key_hits"),
        }
    }

    /// Decide whether the next marked packet is decrypted with the stale
    /// key. Draw-free (always `false`) when the site is unarmed.
    pub fn stale_hit(&mut self) -> bool {
        let Some((cfg, rng)) = &mut self.stale else {
            return false;
        };
        let hit = rng.gen_bool(cfg.probability);
        if hit {
            self.stats.stale_key_hits += 1;
            self.c_stale.inc();
        }
        hit
    }

    /// Counts so far.
    pub fn stats(&self) -> FaultStats {
        self.stats
    }
}

/// Producer-side injector: bounded-queue overflow.
pub struct QueueFaults {
    cfg: Option<(QueueOverflowFault, StdRng)>,
    occupancy: usize,
    stats: FaultStats,
    c_dropped: thrifty_telemetry::Counter,
}

impl QueueFaults {
    /// Build the producer half from a plan.
    ///
    /// # Panics
    /// If the plan fails [`FaultPlan::validate`].
    pub fn new(plan: &FaultPlan, metrics: &thrifty_telemetry::MetricsRegistry) -> Self {
        if let Err(e) = plan.validate() {
            panic!("invalid fault plan: {e}");
        }
        QueueFaults {
            cfg: plan
                .queue_overflow
                .map(|q| (q, site_rng(plan.seed, FaultSite::QueueOverflow))),
            occupancy: 0,
            stats: FaultStats::default(),
            c_dropped: metrics.counter("faults.queue_dropped"),
        }
    }

    /// Decide whether the next produced frame is admitted to the queue.
    ///
    /// Models producer-outpaces-encryptor deterministically: the simulated
    /// encryptor drains one slot with `drain_prob` per produced frame, and
    /// a frame arriving at a full queue is dropped. Always `true` (and
    /// draw-free) when the site is unarmed.
    pub fn admit(&mut self) -> bool {
        let Some((cfg, rng)) = &mut self.cfg else {
            return true;
        };
        if self.occupancy > 0 && rng.gen_bool(cfg.drain_prob) {
            self.occupancy -= 1;
        }
        if self.occupancy >= cfg.capacity {
            self.stats.queue_dropped += 1;
            self.c_dropped.inc();
            return false;
        }
        self.occupancy += 1;
        true
    }

    /// Counts so far.
    pub fn stats(&self) -> FaultStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use thrifty_telemetry::MetricsRegistry;

    fn pkt(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i % 251) as u8).collect()
    }

    #[test]
    fn empty_plan_is_the_identity() {
        let metrics = MetricsRegistry::disabled();
        let mut inj = PacketInjector::new(&FaultPlan::none(1), 12, &metrics);
        for n in [0usize, 1, 12, 1500] {
            let out = inj.on_packet(pkt(n));
            assert_eq!(out, vec![pkt(n)]);
        }
        assert!(inj.drain().is_empty());
        assert_eq!(inj.stats(), FaultStats::default());
    }

    #[test]
    fn corruption_respects_the_region() {
        let metrics = MetricsRegistry::disabled();
        // A single guaranteed flip per packet: never self-cancelling, so
        // the mangled region is provably different on every packet.
        let plan = FaultPlan::none(3).with_corruption(1.0, Region::Payload, 1);
        let mut inj = PacketInjector::new(&plan, 12, &metrics);
        for _ in 0..50 {
            let original = pkt(100);
            let out = inj.on_packet(original.clone());
            assert_eq!(out.len(), 1);
            assert_eq!(&out[0][..12], &original[..12], "header must stay intact");
            assert_ne!(&out[0][12..], &original[12..], "payload must be mangled");
        }
        assert_eq!(inj.stats().corrupted, 50);

        let plan = FaultPlan::none(3).with_corruption(1.0, Region::Header, 1);
        let mut inj = PacketInjector::new(&plan, 12, &metrics);
        for _ in 0..50 {
            let original = pkt(100);
            let out = inj.on_packet(original.clone());
            assert_eq!(&out[0][12..], &original[12..], "payload must stay intact");
            assert_ne!(&out[0][..12], &original[..12], "header must be mangled");
        }
    }

    #[test]
    fn truncation_keeps_at_least_min_keep() {
        let metrics = MetricsRegistry::disabled();
        let plan = FaultPlan::none(5).with_truncation(1.0, 8);
        let mut inj = PacketInjector::new(&plan, 12, &metrics);
        for _ in 0..100 {
            let out = inj.on_packet(pkt(200));
            assert_eq!(out.len(), 1);
            assert!(out[0].len() >= 8 && out[0].len() < 200, "{}", out[0].len());
        }
        // Packets at or below the floor are left alone.
        let out = inj.on_packet(pkt(8));
        assert_eq!(out[0].len(), 8);
    }

    #[test]
    fn duplication_doubles_packets() {
        let metrics = MetricsRegistry::disabled();
        let plan = FaultPlan::none(9).with_duplication(1.0);
        let mut inj = PacketInjector::new(&plan, 12, &metrics);
        let out = inj.on_packet(pkt(40));
        assert_eq!(out, vec![pkt(40), pkt(40)]);
        assert_eq!(inj.stats().duplicated, 1);
    }

    #[test]
    fn reordering_permutes_but_conserves_packets() {
        let metrics = MetricsRegistry::disabled();
        let plan = FaultPlan::none(11).with_reordering(8);
        let mut inj = PacketInjector::new(&plan, 12, &metrics);
        let mut released: Vec<Vec<u8>> = Vec::new();
        let sent: Vec<Vec<u8>> = (0..100).map(|i| vec![i as u8; 16]).collect();
        for p in &sent {
            released.extend(inj.on_packet(p.clone()));
        }
        released.extend(inj.drain());
        assert_eq!(released.len(), sent.len(), "no packet may vanish");
        assert_ne!(released, sent, "a window of 8 must actually reorder");
        let mut a = released.clone();
        let mut b = sent.clone();
        a.sort();
        b.sort();
        assert_eq!(a, b, "released multiset equals sent multiset");
        assert!(inj.stats().reordered > 0);
    }

    #[test]
    fn burst_loss_swallows_runs_of_packets() {
        let metrics = MetricsRegistry::disabled();
        let plan = FaultPlan::none(13).with_burst_loss(0.05, 0.2, 1.0);
        let mut inj = PacketInjector::new(&plan, 12, &metrics);
        let n = 20_000;
        let mut survived = 0usize;
        let mut loss_runs: Vec<usize> = Vec::new();
        let mut run = 0usize;
        for _ in 0..n {
            if inj.on_packet(pkt(16)).is_empty() {
                run += 1;
            } else {
                survived += 1;
                if run > 0 {
                    loss_runs.push(run);
                    run = 0;
                }
            }
        }
        let cfg = plan.burst_loss.expect("armed");
        let expect = cfg.survival_rate();
        let got = survived as f64 / n as f64;
        assert!((got - expect).abs() < 0.02, "survival {got} vs {expect}");
        let mean_run = loss_runs.iter().sum::<usize>() as f64 / loss_runs.len() as f64;
        assert!(mean_run > 1.5, "losses must be bursty, mean run {mean_run}");
    }

    #[test]
    fn injector_is_bit_reproducible() {
        let metrics = MetricsRegistry::disabled();
        let plan = FaultPlan::none(77)
            .with_corruption(0.3, Region::Anywhere, 8)
            .with_truncation(0.2, 4)
            .with_duplication(0.1)
            .with_reordering(4)
            .with_burst_loss(0.05, 0.3, 0.8);
        let run = || {
            let mut inj = PacketInjector::new(&plan, 12, &metrics);
            let mut out: Vec<Vec<u8>> = Vec::new();
            for i in 0..500 {
                out.extend(inj.on_packet(pkt(20 + i % 64)));
            }
            out.extend(inj.drain());
            (out, inj.stats())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn arming_one_site_does_not_perturb_another() {
        // Corruption draws with and without duplication armed must be
        // identical: per-site streams are independent.
        let metrics = MetricsRegistry::disabled();
        let just_corrupt = FaultPlan::none(21).with_corruption(0.5, Region::Anywhere, 2);
        let both = just_corrupt.with_duplication(0.5);
        let corrupt_pattern = |plan: &FaultPlan| {
            let mut inj = PacketInjector::new(plan, 12, &metrics);
            (0..200)
                .map(|_| inj.on_packet(pkt(32)))
                .map(|v| v.first().cloned())
                .collect::<Vec<_>>()
        };
        let a: Vec<Vec<u8>> = corrupt_pattern(&just_corrupt)
            .into_iter()
            .flatten()
            .collect();
        let b: Vec<Vec<u8>> = corrupt_pattern(&both).into_iter().flatten().collect();
        assert_eq!(a, b, "duplication must not shift the corruption stream");
    }

    #[test]
    fn queue_faults_drop_when_producer_outpaces() {
        let metrics = MetricsRegistry::disabled();
        // Capacity 4, encryptor drains only 30% of the time → overflow.
        let plan = FaultPlan::none(31).with_queue_overflow(4, 0.3);
        let mut q = QueueFaults::new(&plan, &metrics);
        let admitted = (0..1000).filter(|_| q.admit()).count();
        assert!(admitted < 1000, "a saturated queue must drop");
        assert_eq!(q.stats().queue_dropped, 1000 - admitted as u64);
        // Fast drain → everything admitted.
        let plan = FaultPlan::none(31).with_queue_overflow(64, 1.0);
        let mut q = QueueFaults::new(&plan, &metrics);
        assert_eq!((0..1000).filter(|_| q.admit()).count(), 1000);
    }

    #[test]
    fn receiver_faults_hit_at_the_configured_rate() {
        let metrics = MetricsRegistry::disabled();
        let plan = FaultPlan::none(41).with_stale_key(0.25);
        let mut r = ReceiverFaults::new(&plan, &metrics);
        let n = 20_000;
        let hits = (0..n).filter(|_| r.stale_hit()).count();
        let rate = hits as f64 / n as f64;
        assert!((rate - 0.25).abs() < 0.02, "rate {rate}");
        assert_eq!(r.stats().stale_key_hits, hits as u64);
        // Unarmed: never hits, no draws.
        let mut r = ReceiverFaults::new(&FaultPlan::none(41), &metrics);
        assert!((0..100).all(|_| !r.stale_hit()));
    }

    #[test]
    fn telemetry_counters_mirror_stats() {
        let metrics = MetricsRegistry::enabled();
        let plan = FaultPlan::none(51)
            .with_corruption(0.5, Region::Anywhere, 2)
            .with_duplication(0.2)
            .with_truncation(0.3, 2);
        let mut inj = PacketInjector::new(&plan, 12, &metrics);
        for _ in 0..300 {
            inj.on_packet(pkt(64));
        }
        let stats = inj.stats();
        let snap = metrics.snapshot();
        assert_eq!(snap.counter("faults.corrupted"), stats.corrupted);
        assert_eq!(snap.counter("faults.duplicated"), stats.duplicated);
        assert_eq!(snap.counter("faults.truncated"), stats.truncated);
    }

    #[test]
    #[should_panic(expected = "invalid fault plan")]
    fn invalid_plan_panics_descriptively() {
        let metrics = MetricsRegistry::disabled();
        let plan = FaultPlan::none(0).with_corruption(2.0, Region::Header, 1);
        let _ = PacketInjector::new(&plan, 12, &metrics);
    }

    #[test]
    fn stats_merge_and_total() {
        let mut a = FaultStats {
            corrupted: 1,
            duplicated: 2,
            ..FaultStats::default()
        };
        let b = FaultStats {
            truncated: 3,
            stale_key_hits: 4,
            ..FaultStats::default()
        };
        a.merge(&b);
        assert_eq!(a.total(), 10);
        assert_eq!(a.truncated, 3);
    }
}
