//! The million-flow scale path: O(1) per-flow state on the event calendar.
//!
//! The full-fidelity [`FleetEngine`](crate::engine::FleetEngine) keeps
//! per-packet records, a capture, a telemetry registry and a PSNR scoring
//! pass per flow — the right cost at the paper's fleet sizes (N ≤ 100),
//! and far too much state at N = 10^5–10^6. [`ScaleEngine`] is the lean
//! sibling, and it runs the **same physics code**: each flow steps the
//! sender's own [`ArrivalClock`] and [`SenderQueue`] against one shared
//! [`SenderPhysics`] (MMPP-paced arrivals over the real packetized stream,
//! policy-selected encryption, DCF backoff, airtime, Lindley queue,
//! Bernoulli delivery), and keeps only its RNG substreams and a few
//! counters. Nothing is retained per packet, and a lean flow touches no
//! metrics registry.
//!
//! Two differences from the full engine remain, neither in the physics:
//!
//! * **RNG discipline.** The classic sender draws the whole arrival batch
//!   from its one stream first, then the service draws — impossible in O(1)
//!   memory. Each scale flow instead owns two independent streams
//!   ([`flow_substream`]`(seed, flow, "scale.arrivals" | "scale.service")`),
//!   so arrivals are generated lazily, one draw per event. Feed a lean flow
//!   the classic flow's stream for arrivals and the same stream advanced
//!   past its arrival draws for service, and it reproduces
//!   `SenderSim::run` bit for bit —
//!   `aligned_streams_reproduce_the_classic_sender_bit_for_bit` proves it
//!   under four policies.
//! * **Independent cells.** A million uploaders cannot share one AP; the
//!   Bianchi fixed point at 10^6 contenders drives the per-packet success
//!   probability to zero and the geometric backoff loop to astronomical
//!   lengths. The scale fleet therefore models N flows spread across
//!   independent WLAN cells, each cell at the paper's contention level
//!   ([`ScaleConfig::flows_per_cell`] uploaders + background stations), and
//!   all cells share the one cached DCF operating point.
//!
//! Aggregation is built to be shard-invariant without per-flow registries:
//! per-packet delays land in a shared [`DelayHistogram`] (u64 log₂ buckets;
//! integer adds commute, so the merged histogram is independent of shard
//! layout and dispatch interleaving), and the few per-flow `f64` sums are
//! folded after the drain in global flow-id order. `run` is therefore
//! bit-reproducible across runs *and* shard counts — the property
//! `reproduce fleet` gates on before recording throughput numbers into
//! `BENCH_fleet.json`.

use rand::rngs::StdRng;
use rand::SeedableRng;
use thrifty_analytic::params::{DeviceSpec, ScenarioParams, SAMSUNG_GALAXY_S2};
use thrifty_analytic::policy::Policy;
use thrifty_des::{EventKey, Executor, FlowMachine, Schedule, SimTime};
use thrifty_net::dcf::{DcfModel, PhyParams};
use thrifty_sim::sender::{ArrivalClock, SenderPhysics, SenderQueue};
use thrifty_telemetry::MetricsRegistry;
use thrifty_video::encoder::{EncodedStream, StatisticalEncoder};
use thrifty_video::motion::MotionLevel;
use thrifty_video::packet::{Packetizer, VideoPacket};

use crate::cache::SolveCache;
use crate::parallel::{par_map, shard_ranges};
use crate::rng::flow_substream;

/// Configuration of one scale sweep cell: N lean flows across independent
/// WLAN cells.
#[derive(Debug, Clone, Copy)]
pub struct ScaleConfig {
    /// Number of flows in the fleet.
    pub n_flows: usize,
    /// The selection policy every flow runs.
    pub policy: Policy,
    /// Content motion class.
    pub motion: MotionLevel,
    /// GOP size.
    pub gop_size: usize,
    /// Device running each sender.
    pub device: DeviceSpec,
    /// Non-uploader stations per WLAN cell.
    pub background_stations: usize,
    /// Uploader flows per WLAN cell; with the background stations this
    /// fixes the DCF operating point every cell runs at (the fleet spans
    /// `n_flows / flows_per_cell` cells, all statistically identical).
    pub flows_per_cell: usize,
    /// Utilisation target for producer pacing.
    pub target_rho: f64,
    /// Frames per clip (shorter than the full engine's default — the scale
    /// story is flow count, not clip length).
    pub frames: usize,
    /// Master RNG seed; flow `f` draws from
    /// `flow_substream(seed, f, "scale.arrivals" / "scale.service")`.
    pub seed: u64,
    /// Shard count for the thread fan-out; `0` picks a default. Results
    /// are invariant to this value.
    pub shards: usize,
}

impl ScaleConfig {
    /// Paper-cell defaults at scale: each cell is the single-sender paper
    /// setting (1 uploader + 4 background = 5 stations), one GOP per clip.
    pub fn paper_scale(n_flows: usize, policy: Policy) -> Self {
        ScaleConfig {
            n_flows,
            policy,
            motion: MotionLevel::High,
            gop_size: 30,
            device: SAMSUNG_GALAXY_S2,
            background_stations: 4,
            flows_per_cell: 1,
            target_rho: 0.92,
            frames: 30,
            seed: 7,
            shards: 0,
        }
    }

    /// Station count of one WLAN cell — what the DCF fixed point is solved
    /// for (NOT `n_flows`; see the module docs).
    pub fn cell_stations(&self) -> usize {
        self.background_stations + self.flows_per_cell
    }
}

/// Fixed-shape log₂ histogram of per-packet delays, in nanoseconds.
///
/// Bucket 0 holds sub-nanosecond delays; bucket `b ≥ 1` holds delays in
/// `[2^(b-1), 2^b)` ns. Recording is one integer increment, merging is an
/// elementwise add — both commutative and associative, so the merged
/// histogram is identical for every shard layout and dispatch order. The
/// price is quantization: percentiles read from the histogram are bucket
/// lower bounds (≤ 2× relative error), which the scale table reports as
/// such.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DelayHistogram {
    buckets: [u64; 65],
}

impl Default for DelayHistogram {
    fn default() -> Self {
        DelayHistogram { buckets: [0; 65] }
    }
}

impl DelayHistogram {
    /// Record one delay (seconds).
    pub fn record(&mut self, delay_s: f64) {
        // f64→u64 casts saturate, so any finite delay lands in a bucket.
        let ns = (delay_s * 1e9) as u64;
        let b = if ns == 0 { 0 } else { ns.ilog2() as usize + 1 };
        self.buckets[b] += 1;
    }

    /// Elementwise accumulate `other` into `self`.
    pub fn merge(&mut self, other: &DelayHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
    }

    /// Total recorded delays.
    pub fn total(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Raw bucket counts (index 0 = sub-ns, index b = `[2^(b-1), 2^b)` ns).
    pub fn counts(&self) -> &[u64; 65] {
        &self.buckets
    }

    /// Nearest-rank percentile, quantized to the bucket lower bound,
    /// seconds. `NaN` when empty.
    pub fn percentile(&self, p: f64) -> f64 {
        let total = self.total();
        if total == 0 {
            return f64::NAN;
        }
        let rank = ((p * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (b, &count) in self.buckets.iter().enumerate() {
            seen += count;
            if seen >= rank {
                return if b == 0 {
                    0.0
                } else {
                    2f64.powi(b as i32 - 1) / 1e9
                };
            }
        }
        unreachable!("rank is clamped to the total count")
    }
}

/// One lean flow: the shared physics, its arrival clock and queue, two RNG
/// substreams and its counters — every field O(1) in clip length and fleet
/// size.
struct ScaleFlow<'a> {
    physics: &'a SenderPhysics,
    packets: &'a [VideoPacket],
    clock: ArrivalClock,
    queue: SenderQueue,
    arrival_rng: StdRng,
    service_rng: StdRng,
    totals: FlowTotals,
}

/// A flow's counters, folded across the fleet in flow-id order.
#[derive(Debug, Clone, Copy, Default)]
struct FlowTotals {
    packets: u64,
    delivered: u64,
    delivered_bits: f64,
    sum_delay: f64,
}

impl ScaleFlow<'_> {
    /// Schedule packet `seq` at its arrival, drawn from the arrival
    /// substream; past the last packet, schedule nothing.
    fn schedule(&mut self, seq: u64, sched: &mut Schedule<'_, ()>) {
        if let Some(pkt) = self.packets.get(seq as usize) {
            let t = self.clock.next(self.physics, pkt, &mut self.arrival_rng);
            sched.at(SimTime::from_s(t), seq, ());
        }
    }
}

impl FlowMachine for ScaleFlow<'_> {
    type Event = ();
    type Ctx = DelayHistogram;

    fn start(&mut self, sched: &mut Schedule<'_, ()>, _hist: &mut DelayHistogram) {
        self.schedule(0, sched);
    }

    fn on_event(
        &mut self,
        key: EventKey,
        _event: (),
        sched: &mut Schedule<'_, ()>,
        hist: &mut DelayHistogram,
    ) {
        let pkt = &self.packets[key.seq as usize];
        let out = self
            .queue
            .step(self.physics, pkt, key.time.as_s(), &mut self.service_rng);
        let totals = &mut self.totals;
        totals.packets += 1;
        totals.sum_delay += out.delay_s();
        if out.delivered {
            totals.delivered += 1;
            totals.delivered_bits += pkt.bytes as f64 * 8.0;
        }
        hist.record(out.delay_s());
        self.schedule(key.seq + 1, sched);
    }
}

/// One shard's drain: each flow's totals and makespan (the departure of
/// its last packet, seconds) in flow-id order, the shard's histogram and
/// its dispatched event count.
struct ShardOut {
    flows: Vec<(FlowTotals, f64)>,
    hist: DelayHistogram,
    events: u64,
}

/// Aggregate outcome of one scale cell.
#[derive(Debug, Clone)]
pub struct ScaleResult {
    /// Flow count of the run.
    pub flows: usize,
    /// Station count per WLAN cell the DCF point was solved for.
    pub cell_stations: usize,
    /// Total packets stepped through the pipeline.
    pub packets: u64,
    /// Calendar events dispatched (one per packet — asserted in tests).
    pub events: u64,
    /// Packets the channel delivered.
    pub delivered: u64,
    /// Mean per-packet delay over all packets of all flows, seconds
    /// (exact: folded from per-flow sums in flow-id order).
    pub mean_delay_s: f64,
    /// Median delay, histogram-quantized (bucket lower bound), seconds.
    pub p50_delay_s: f64,
    /// 95th percentile, histogram-quantized, seconds.
    pub p95_delay_s: f64,
    /// 99th percentile, histogram-quantized, seconds.
    pub p99_delay_s: f64,
    /// Fleet makespan (all flows start at t = 0), seconds.
    pub makespan_s: f64,
    /// Aggregate delivered goodput over the makespan, bits/s.
    pub aggregate_throughput_bps: f64,
    /// The merged delay histogram.
    pub histogram: DelayHistogram,
}

impl ScaleResult {
    /// Bit-level equality — the double-run / shard-invariance relation.
    pub fn bit_identical(&self, other: &ScaleResult) -> bool {
        self.flows == other.flows
            && self.cell_stations == other.cell_stations
            && self.packets == other.packets
            && self.events == other.events
            && self.delivered == other.delivered
            && self.mean_delay_s.to_bits() == other.mean_delay_s.to_bits()
            && self.p50_delay_s.to_bits() == other.p50_delay_s.to_bits()
            && self.p95_delay_s.to_bits() == other.p95_delay_s.to_bits()
            && self.p99_delay_s.to_bits() == other.p99_delay_s.to_bits()
            && self.makespan_s.to_bits() == other.makespan_s.to_bits()
            && self.aggregate_throughput_bps.to_bits() == other.aggregate_throughput_bps.to_bits()
            && self.histogram == other.histogram
    }
}

/// A prepared scale cell: one cached DCF solve, one calibrated scenario,
/// one coded stream and one packetization shared (immutably) by every flow.
pub struct ScaleEngine {
    config: ScaleConfig,
    physics: SenderPhysics,
    packets: Vec<VideoPacket>,
}

impl ScaleEngine {
    /// Prepare the cell. The DCF solve goes through `cache` (so sweeps
    /// reuse it across N) and its hit/miss counters land in `metrics`.
    pub fn prepare(config: ScaleConfig, cache: &SolveCache, metrics: &MetricsRegistry) -> Self {
        assert!(config.n_flows >= 1, "a fleet needs at least one flow");
        let (params, stream) = Self::cell(&config, cache, metrics);
        let packets = Packetizer::default().packetize(&stream);
        ScaleEngine {
            physics: SenderPhysics::new(&params, config.policy, &stream, packets.len()),
            config,
            packets,
        }
    }

    /// The calibrated scenario and coded stream every flow of the cell
    /// shares.
    fn cell(
        config: &ScaleConfig,
        cache: &SolveCache,
        metrics: &MetricsRegistry,
    ) -> (ScenarioParams, EncodedStream) {
        let dcf_model = DcfModel::new(
            config.cell_stations(),
            thrifty_analytic::params::DEFAULT_CHANNEL_PER,
            PhyParams::g_54mbps(),
        );
        let dcf = cache
            .dcf(&dcf_model, metrics)
            .expect("cell station counts are >= 1 with a valid PER");
        let params = ScenarioParams::calibrated_with_dcf(
            config.motion,
            config.gop_size,
            config.device,
            dcf,
            config.target_rho,
        );
        let mut rng = StdRng::seed_from_u64(config.seed);
        let stream =
            StatisticalEncoder::new(config.motion, config.gop_size).encode(config.frames, &mut rng);
        (params, stream)
    }

    /// The engine's configuration.
    pub fn config(&self) -> &ScaleConfig {
        &self.config
    }

    /// Packets each flow pushes (the shared packetization's length).
    pub fn packets_per_flow(&self) -> usize {
        self.packets.len()
    }

    /// A lean flow drawing arrivals from `arrival_rng` and service from
    /// `service_rng`.
    fn flow(&self, arrival_rng: StdRng, service_rng: StdRng) -> ScaleFlow<'_> {
        ScaleFlow {
            physics: &self.physics,
            packets: &self.packets,
            clock: ArrivalClock::default(),
            queue: SenderQueue::default(),
            arrival_rng,
            service_rng,
            totals: FlowTotals::default(),
        }
    }

    /// Drain `flows` on one calendar whose first flow has global id
    /// `first_flow`.
    fn drain(&self, first_flow: usize, flows: Vec<ScaleFlow<'_>>) -> ShardOut {
        let mut exec = Executor::new(flows, first_flow as u64);
        let mut hist = DelayHistogram::default();
        let events = exec.run(&mut hist);
        ShardOut {
            flows: exec
                .into_machines()
                .into_iter()
                .map(|m| (m.totals, m.queue.clear_at()))
                .collect(),
            hist,
            events,
        }
    }

    /// One shard of the fleet, each flow on its own split substreams.
    fn run_shard(&self, range: std::ops::Range<usize>) -> ShardOut {
        let seed = self.config.seed;
        let flows = range
            .clone()
            .map(|flow| {
                self.flow(
                    flow_substream(seed, flow as u64, "scale.arrivals"),
                    flow_substream(seed, flow as u64, "scale.service"),
                )
            })
            .collect();
        self.drain(range.start, flows)
    }

    /// Run the fleet: contiguous shards across threads, one calendar per
    /// shard, per-flow `f64` sums folded in global flow-id order and
    /// histograms merged with integer adds — bit-identical across runs and
    /// shard counts.
    pub fn run(&self) -> ScaleResult {
        let cfg = &self.config;
        let shards = shard_ranges(cfg.n_flows, cfg.shards);
        let shard_outs = par_map(&shards, |range| self.run_shard(range.clone()));

        // Fold in global flow-id order (shards are contiguous ascending
        // ranges), so the f64 sums are independent of the shard layout.
        let mut events = 0u64;
        let mut fleet = FlowTotals::default();
        let mut makespan = 0.0f64;
        let mut hist = DelayHistogram::default();
        for out in &shard_outs {
            events += out.events;
            hist.merge(&out.hist);
            for (flow, flow_makespan) in &out.flows {
                fleet.packets += flow.packets;
                fleet.delivered += flow.delivered;
                fleet.delivered_bits += flow.delivered_bits;
                fleet.sum_delay += flow.sum_delay;
                makespan = makespan.max(*flow_makespan);
            }
        }
        ScaleResult {
            flows: cfg.n_flows,
            cell_stations: cfg.cell_stations(),
            packets: fleet.packets,
            events,
            delivered: fleet.delivered,
            mean_delay_s: fleet.sum_delay / fleet.packets.max(1) as f64,
            p50_delay_s: hist.percentile(0.50),
            p95_delay_s: hist.percentile(0.95),
            p99_delay_s: hist.percentile(0.99),
            makespan_s: makespan,
            aggregate_throughput_bps: fleet.delivered_bits / makespan.max(f64::MIN_POSITIVE),
            histogram: hist,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use thrifty_analytic::policy::EncryptionMode;
    use thrifty_crypto::Algorithm;

    fn cfg(n: usize) -> ScaleConfig {
        ScaleConfig::paper_scale(n, Policy::new(Algorithm::Aes256, EncryptionMode::IFrames))
    }

    fn run(cfg: ScaleConfig) -> ScaleResult {
        let cache = SolveCache::new();
        let metrics = MetricsRegistry::enabled();
        ScaleEngine::prepare(cfg, &cache, &metrics).run()
    }

    #[test]
    fn histogram_buckets_and_percentiles() {
        let mut h = DelayHistogram::default();
        assert!(h.percentile(0.5).is_nan());
        h.record(0.0); // bucket 0
        h.record(3e-9); // [2,4) ns -> bucket 2
        h.record(3e-9);
        h.record(1.0); // 1e9 ns -> bucket ilog2(1e9)+1 = 30
        assert_eq!(h.total(), 4);
        assert_eq!(h.counts()[0], 1);
        assert_eq!(h.counts()[2], 2);
        assert_eq!(h.counts()[30], 1);
        assert_eq!(h.percentile(0.25), 0.0);
        assert_eq!(h.percentile(0.5), 2e-9); // lower bound of bucket 2
        assert!((h.percentile(1.0) - 2f64.powi(29) / 1e9).abs() < 1e-12);
        let mut h2 = DelayHistogram::default();
        h2.record(1.0);
        h2.merge(&h);
        assert_eq!(h2.total(), 5);
        assert_eq!(h2.counts()[30], 2);
    }

    #[test]
    fn merging_empty_shards_is_the_identity() {
        // An idle shard (zero packets) must not perturb the merged
        // histogram in either merge direction.
        let mut loaded = DelayHistogram::default();
        loaded.record(3e-9);
        loaded.record(1.0);
        let before = loaded.clone();
        loaded.merge(&DelayHistogram::default());
        assert_eq!(loaded, before, "merging an empty shard changed counts");
        let mut empty = DelayHistogram::default();
        empty.merge(&before);
        assert_eq!(empty, before, "merging into an empty shard is not a copy");
        // Empty ⊕ empty stays empty, percentiles stay NaN.
        let mut both = DelayHistogram::default();
        both.merge(&DelayHistogram::default());
        assert_eq!(both.total(), 0);
        assert!(both.percentile(0.5).is_nan());
    }

    #[test]
    fn single_bucket_shards_merge_to_exact_percentiles() {
        // Degenerate shards whose mass sits in one bucket each: the merge
        // is an elementwise add, so counts and every percentile are exact.
        let mut a = DelayHistogram::default();
        for _ in 0..3 {
            a.record(3e-9); // bucket 2: [2, 4) ns
        }
        let mut b = DelayHistogram::default();
        b.record(1.0); // bucket 30
        let mut merged = DelayHistogram::default();
        merged.merge(&a);
        merged.merge(&b);
        assert_eq!(merged.total(), 4);
        assert_eq!(merged.counts()[2], 3);
        assert_eq!(merged.counts()[30], 1);
        // 3 of 4 samples in bucket 2: p75 reads its lower bound, p100 the
        // lone tail bucket — merge order must not matter.
        assert_eq!(merged.percentile(0.75), 2e-9);
        assert!((merged.percentile(1.0) - 2f64.powi(29) / 1e9).abs() < 1e-12);
        let mut swapped = DelayHistogram::default();
        swapped.merge(&b);
        swapped.merge(&a);
        assert_eq!(swapped, merged, "histogram merge must commute");
    }

    #[test]
    fn double_run_is_bit_identical_at_ten_thousand_flows() {
        let c = cfg(10_000);
        let a = run(c);
        let b = run(c);
        assert!(a.bit_identical(&b), "double run diverged at N=10^4");
        assert_eq!(a.events, a.packets, "one event per packet");
        assert_eq!(a.flows, 10_000);
    }

    #[test]
    fn shard_count_does_not_change_results() {
        let mut a_cfg = cfg(97); // awkward size: uneven shard split
        a_cfg.shards = 1;
        let mut b_cfg = cfg(97);
        b_cfg.shards = 5;
        let a = run(a_cfg);
        let b = run(b_cfg);
        assert!(a.bit_identical(&b), "shard layout changed the scale result");
    }

    #[test]
    fn seeds_matter_and_flows_scale_packets() {
        let a = run(cfg(20));
        let mut c = cfg(20);
        c.seed = 8;
        let b = run(c);
        assert!(!a.bit_identical(&b), "seed must matter");
        let big = run(cfg(40));
        assert_eq!(big.packets, 2 * a.packets, "per-flow packet count is fixed");
        assert!(big.delivered <= big.packets);
        assert_eq!(big.histogram.total(), big.packets);
    }

    #[test]
    fn delays_are_physical_and_percentiles_ordered() {
        let r = run(cfg(50));
        assert!(r.mean_delay_s > 0.0 && r.mean_delay_s.is_finite());
        assert!(r.p50_delay_s <= r.p95_delay_s);
        assert!(r.p95_delay_s <= r.p99_delay_s);
        // Histogram quantization stays within 2x of the exact mean's
        // magnitude for the median: the median bucket's lower bound cannot
        // exceed the true p50, and the mean sits between p50 and p99 here.
        assert!(r.p50_delay_s <= r.mean_delay_s * 2.0);
        assert!(r.makespan_s > 0.0 && r.aggregate_throughput_bps > 0.0);
    }

    /// The cell's scenario and stream, rebuilt exactly as `prepare` builds
    /// them, for driving the classic sender on the same cell.
    fn classic_cell(cfg: &ScaleConfig) -> (ScenarioParams, EncodedStream) {
        ScaleEngine::cell(cfg, &SolveCache::new(), &MetricsRegistry::disabled())
    }

    fn mean_delay(t: &FlowTotals) -> f64 {
        t.sum_delay / t.packets.max(1) as f64
    }

    #[test]
    fn aligned_streams_reproduce_the_classic_sender_bit_for_bit() {
        // One physics, two RNG disciplines. Give each lean flow the classic
        // flow's stream for arrivals, and for service the same stream
        // advanced past its arrival draws (one per packet): the classic
        // sender draws exactly that sequence, so every flow's mean delay,
        // makespan and delivered count must match `SenderSim::run` bit for
        // bit.
        use thrifty_sim::sender::SenderSim;
        for mode in [
            EncryptionMode::None,
            EncryptionMode::IFrames,
            EncryptionMode::IPlusFractionP(0.2),
            EncryptionMode::All,
        ] {
            let cfg = ScaleConfig::paper_scale(20, Policy::new(Algorithm::Aes256, mode));
            let engine =
                ScaleEngine::prepare(cfg, &SolveCache::new(), &MetricsRegistry::disabled());
            let (params, stream) = classic_cell(&cfg);
            let flows = (0..cfg.n_flows)
                .map(|f| {
                    let arrivals = crate::rng::flow_rng(cfg.seed, f);
                    let mut service = arrivals.clone();
                    let mut clock = ArrivalClock::default();
                    for pkt in &engine.packets {
                        clock.next(&engine.physics, pkt, &mut service);
                    }
                    engine.flow(arrivals, service)
                })
                .collect();
            let lean = engine.drain(0, flows);
            assert_eq!(
                lean.events,
                (cfg.n_flows * engine.packets_per_flow()) as u64
            );
            for (f, (totals, makespan)) in lean.flows.iter().enumerate() {
                let classic = SenderSim::new(&params, cfg.policy)
                    .run(&stream, &mut crate::rng::flow_rng(cfg.seed, f));
                let delivered = classic.records.iter().filter(|r| r.delivered).count();
                assert_eq!(totals.packets as usize, classic.records.len());
                assert_eq!(totals.delivered as usize, delivered, "{mode:?} flow {f}");
                assert_eq!(
                    mean_delay(totals).to_bits(),
                    classic.mean_delay_s.to_bits(),
                    "{mode:?} flow {f}: mean delay"
                );
                assert_eq!(
                    makespan.to_bits(),
                    classic.duration_s.to_bits(),
                    "{mode:?} flow {f}: makespan"
                );
            }
        }
    }

    #[test]
    fn split_substreams_agree_with_the_classic_sender_in_distribution() {
        // With split substreams the two engines agree in distribution, not
        // in bits. Compare K = 1600 per-flow mean delays from each engine
        // on the same cell with a two-sample z statistic. Each side's
        // standard error is ≈ 0.8% of the mean here, so |z| ≤ 4 bounds the
        // disagreement at ≈ 4.5% relative; under agreement a two-sided
        // |z| > 4 has probability 6.3e-5 per policy (≈ 2e-4 over the
        // three).
        use thrifty_sim::sender::SenderSim;
        const K: usize = 1600;
        let moments = |xs: &[f64]| {
            let n = xs.len() as f64;
            let mean = xs.iter().sum::<f64>() / n;
            let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
            (mean, var / n)
        };
        for mode in [
            EncryptionMode::All,
            EncryptionMode::IFrames,
            EncryptionMode::IPlusFractionP(0.2),
        ] {
            let cfg = ScaleConfig::paper_scale(K, Policy::new(Algorithm::Aes256, mode));
            let engine =
                ScaleEngine::prepare(cfg, &SolveCache::new(), &MetricsRegistry::disabled());
            let lean: Vec<f64> = engine
                .run_shard(0..K)
                .flows
                .iter()
                .map(|(totals, _)| mean_delay(totals))
                .collect();
            let (params, stream) = classic_cell(&cfg);
            let sim = SenderSim::new(&params, cfg.policy);
            let classic: Vec<f64> = (0..K)
                .map(|f| {
                    sim.run(&stream, &mut crate::rng::flow_rng(cfg.seed, f))
                        .mean_delay_s
                })
                .collect();
            let ((m_lean, se2_lean), (m_classic, se2_classic)) =
                (moments(&lean), moments(&classic));
            let z = (m_lean - m_classic) / (se2_lean + se2_classic).sqrt();
            assert!(
                z.abs() <= 4.0,
                "{mode:?}: scale mean {m_lean} vs classic mean {m_classic} (z = {z})"
            );
        }
    }
}
