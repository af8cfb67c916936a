//! The sharded N-flow engine.
//!
//! One [`FleetEngine`] run simulates `n_flows` uploaders pushing the same
//! reference clip through one AP, all starting at t = 0 on the shared sim
//! clock. Contention is coupled the way the paper couples it (Section 4.1,
//! eqs. 4–9): the **live station count** — `background_stations + n_flows`
//! — feeds the Bianchi DCF fixed point, and the resulting `(p_s, λ_b)`
//! parameterises every flow's per-packet backoff as well as the analytic
//! prediction. Flows are partitioned into contiguous shards fanned across
//! threads with [`par_map`]; each shard drains its flows as state machines
//! on one `thrifty-des` calendar keyed by global flow id, each flow draws
//! from its own [`flow_rng`] stream and owns its own `MetricsRegistry`,
//! and the final merge walks flows in fixed flow-id order — so the result
//! is bit-identical across invocations *and* across shard counts, and
//! bit-identical to the retained sequential loop (the test oracle
//! `FleetEngine::run_reference` in this module's tests).

use rand::rngs::StdRng;
use rand::SeedableRng;
use thrifty_analytic::delay::DelayPrediction;
use thrifty_analytic::params::{
    DeviceSpec, ScenarioParams, DEFAULT_CHANNEL_PER, SAMSUNG_GALAXY_S2,
};
use thrifty_analytic::policy::Policy;
use thrifty_des::Executor;
use thrifty_net::dcf::{DcfModel, PhyParams};
use thrifty_sim::sender::{SenderSim, SenderSummary};
use thrifty_telemetry::{MetricsRegistry, Snapshot};
use thrifty_video::encoder::{EncodedStream, StatisticalEncoder};
use thrifty_video::packet::Packetizer;
use thrifty_video::motion::MotionLevel;
use thrifty_video::quality::{measure_quality, RefreshingDecoder};
use thrifty_video::scene::{SceneConfig, SceneGenerator};
use thrifty_video::yuv::{Resolution, YuvFrame};

use crate::cache::SolveCache;
use crate::parallel::{par_map, shard_ranges};
use crate::rng::flow_rng;

/// Configuration of one fleet cell: N flows under one policy on one AP.
#[derive(Debug, Clone, Copy)]
pub struct FleetConfig {
    /// Number of concurrent uploader flows.
    pub n_flows: usize,
    /// The selection policy every flow runs.
    pub policy: Policy,
    /// Content motion class of the uploaded clips.
    pub motion: MotionLevel,
    /// GOP size.
    pub gop_size: usize,
    /// Device running each sender.
    pub device: DeviceSpec,
    /// Non-uploader stations contending on the WLAN (AP neighbourhood).
    pub background_stations: usize,
    /// Utilisation target for the heaviest policy (producer pacing).
    pub target_rho: f64,
    /// Frames per clip.
    pub frames: usize,
    /// Clip resolution.
    pub resolution: Resolution,
    /// Master RNG seed; flow `f` draws from `flow_rng(seed, f)`.
    pub seed: u64,
    /// Shard count for the thread fan-out; `0` picks a default. Results
    /// are invariant to this value.
    pub shards: usize,
}

impl FleetConfig {
    /// Paper-style defaults: fast-motion GOP-30 clips on the Samsung, 4
    /// background stations — so `n_flows = 1` contends with 5 stations,
    /// exactly the `ExperimentConfig::paper_cell` single-sender setting.
    pub fn paper_fleet(n_flows: usize, policy: Policy) -> Self {
        FleetConfig {
            n_flows,
            policy,
            motion: MotionLevel::High,
            gop_size: 30,
            device: SAMSUNG_GALAXY_S2,
            background_stations: 4,
            target_rho: 0.92,
            frames: 120,
            resolution: Resolution::QCIF,
            seed: 7,
            shards: 0,
        }
    }

    /// The live station count the DCF model sees: every uploader flow plus
    /// the background stations.
    pub fn stations(&self) -> usize {
        self.background_stations + self.n_flows
    }
}

/// What happened to one flow of the fleet.
#[derive(Debug, Clone)]
pub struct FlowOutcome {
    /// Flow id (0-based, stable across shard counts).
    pub flow: usize,
    /// Packets the flow transmitted.
    pub packets: usize,
    /// Packets the channel delivered.
    pub delivered: usize,
    /// Mean per-packet delay, seconds.
    pub mean_delay_s: f64,
    /// Median per-packet delay, seconds.
    pub p50_delay_s: f64,
    /// 95th-percentile per-packet delay, seconds.
    pub p95_delay_s: f64,
    /// 99th-percentile per-packet delay, seconds.
    pub p99_delay_s: f64,
    /// Delivered goodput of the flow, bits/s over its transfer duration.
    pub throughput_bps: f64,
    /// Eavesdropper PSNR of the flow's clip, dB.
    pub psnr_eve_db: f64,
    /// Transfer duration on the sim clock, seconds.
    pub duration_s: f64,
    /// The flow's own telemetry snapshot (spans, counters, histograms).
    pub snapshot: Snapshot,
}

impl FlowOutcome {
    /// Bit-level equality: every float compared by bit pattern and the
    /// telemetry snapshot compared by its canonical JSON — the relation the
    /// N = 1 / single-sender and double-run guarantees are stated in.
    pub fn bit_identical(&self, other: &FlowOutcome) -> bool {
        self.flow == other.flow
            && self.packets == other.packets
            && self.delivered == other.delivered
            && self.mean_delay_s.to_bits() == other.mean_delay_s.to_bits()
            && self.p50_delay_s.to_bits() == other.p50_delay_s.to_bits()
            && self.p95_delay_s.to_bits() == other.p95_delay_s.to_bits()
            && self.p99_delay_s.to_bits() == other.p99_delay_s.to_bits()
            && self.throughput_bps.to_bits() == other.throughput_bps.to_bits()
            && self.psnr_eve_db.to_bits() == other.psnr_eve_db.to_bits()
            && self.duration_s.to_bits() == other.duration_s.to_bits()
            && self.snapshot.to_json() == other.snapshot.to_json()
    }
}

/// Aggregated outcome of one fleet cell.
#[derive(Debug, Clone)]
pub struct FleetResult {
    /// Station count the DCF operating point was solved for.
    pub stations: usize,
    /// Per-flow outcomes in flow-id order.
    pub flows: Vec<FlowOutcome>,
    /// Analytic per-packet delay prediction (MMPP/G/1, eq. 19).
    pub analytic: DelayPrediction,
    /// Mean per-packet delay over all packets of all flows, seconds.
    pub mean_delay_s: f64,
    /// Fleet-wide per-packet delay percentiles, seconds.
    pub p50_delay_s: f64,
    /// 95th percentile over all packets, seconds.
    pub p95_delay_s: f64,
    /// 99th percentile over all packets, seconds.
    pub p99_delay_s: f64,
    /// Aggregate delivered goodput: total delivered bits over the fleet
    /// makespan (all flows start at t = 0), bits/s.
    pub aggregate_throughput_bps: f64,
    /// Mean eavesdropper PSNR over flows, dB.
    pub psnr_eve_db: f64,
    /// Per-flow snapshots merged in flow-id order.
    pub merged: Snapshot,
}

impl FleetResult {
    /// Bit-level equality of two results (every flow, every aggregate, the
    /// merged snapshot).
    pub fn bit_identical(&self, other: &FleetResult) -> bool {
        self.stations == other.stations
            && self.flows.len() == other.flows.len()
            && self
                .flows
                .iter()
                .zip(other.flows.iter())
                .all(|(a, b)| a.bit_identical(b))
            && self.mean_delay_s.to_bits() == other.mean_delay_s.to_bits()
            && self.p50_delay_s.to_bits() == other.p50_delay_s.to_bits()
            && self.p95_delay_s.to_bits() == other.p95_delay_s.to_bits()
            && self.p99_delay_s.to_bits() == other.p99_delay_s.to_bits()
            && self.aggregate_throughput_bps.to_bits() == other.aggregate_throughput_bps.to_bits()
            && self.psnr_eve_db.to_bits() == other.psnr_eve_db.to_bits()
            && self.analytic.mean_delay_s.to_bits() == other.analytic.mean_delay_s.to_bits()
            && self.merged.to_json() == other.merged.to_json()
    }
}

/// Nearest-rank percentile of an ascending-sorted slice.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

struct FlowRun {
    outcome: FlowOutcome,
    delays: Vec<f64>,
}

/// A prepared fleet cell: calibrated scenario, coded stream and pixel clip
/// shared (immutably) by every flow.
pub struct FleetEngine {
    config: FleetConfig,
    params: ScenarioParams,
    stream: EncodedStream,
    clip: Vec<YuvFrame>,
}

impl FleetEngine {
    /// Prepare the cell: solve (or recall) the DCF operating point for the
    /// live station count, calibrate the shared scenario with it, encode
    /// the reference stream and render the clip.
    pub fn prepare(config: FleetConfig, cache: &SolveCache, metrics: &MetricsRegistry) -> Self {
        assert!(config.n_flows >= 1, "a fleet needs at least one flow");
        let dcf = cache
            .dcf(&Self::dcf_model(&config), metrics)
            .expect("fleet station counts are >= 1 with a valid PER");
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
        let scene = SceneGenerator::new(SceneConfig {
            resolution: config.resolution,
            motion: config.motion,
            seed: config.seed,
            fps: 30.0,
        });
        let clip = scene.clip(config.frames);
        FleetEngine {
            config,
            params,
            stream,
            clip,
        }
    }

    fn dcf_model(config: &FleetConfig) -> DcfModel {
        DcfModel::new(config.stations(), DEFAULT_CHANNEL_PER, PhyParams::g_54mbps())
    }

    /// The calibrated scenario shared by all flows.
    pub fn params(&self) -> &ScenarioParams {
        &self.params
    }

    /// The engine's configuration.
    pub fn config(&self) -> &FleetConfig {
        &self.config
    }

    /// Run every flow, fanning contiguous shards across threads, and merge
    /// deterministically. `metrics` receives the cell-level counters (cache
    /// hits/misses, flow count); each flow's spans and histograms land in
    /// its own snapshot and merge in flow-id order.
    ///
    /// Since the calendar port each shard is one discrete-event drain: the
    /// shard's flows become [`thrifty_sim::sender::SenderFlowMachine`]s on
    /// one `thrifty-des` calendar (keyed by **global** flow id), and events
    /// interleave across the shard's flows in global sim-time order. Each
    /// machine draws only from its own [`flow_rng`] stream and writes only
    /// its own registry, so the result is bit-identical to the retained
    /// per-flow loop (the tests' `run_reference` oracle) — a relation the
    /// engine tests assert for N ∈ {1, 2, 5}.
    pub fn run(&self, cache: &SolveCache, metrics: &MetricsRegistry) -> FleetResult {
        let shards = shard_ranges(self.config.n_flows, self.config.shards);
        metrics.counter("fleet.flows").add(self.config.n_flows as u64);
        metrics.counter("fleet.shards").add(shards.len() as u64);
        let shard_runs: Vec<Vec<FlowRun>> =
            par_map(&shards, |range| self.run_shard(range.clone(), cache, metrics));
        self.merge(shard_runs, cache, metrics)
    }

    fn merge(
        &self,
        shard_runs: Vec<Vec<FlowRun>>,
        cache: &SolveCache,
        metrics: &MetricsRegistry,
    ) -> FleetResult {
        let cfg = &self.config;
        let mut flows = Vec::with_capacity(cfg.n_flows);
        let mut all_delays = Vec::new();
        let mut merged = Snapshot::default();
        let mut delivered_bits = 0.0f64;
        let mut makespan = 0.0f64;
        let mut psnr_sum = 0.0f64;
        for run in shard_runs.into_iter().flatten() {
            all_delays.extend_from_slice(&run.delays);
            merged.merge(&run.outcome.snapshot);
            delivered_bits += run.outcome.throughput_bps * run.outcome.duration_s;
            makespan = makespan.max(run.outcome.duration_s);
            psnr_sum += run.outcome.psnr_eve_db;
            flows.push(run.outcome);
        }
        all_delays.sort_by(f64::total_cmp);
        let packet_count = all_delays.len().max(1) as f64;
        let mean_delay_s = all_delays.iter().sum::<f64>() / packet_count;

        let stations = cfg.stations();
        let analytic = cache
            .delay(&self.params, stations, cfg.policy, metrics)
            .expect("calibration keeps the fleet policy stable");

        FleetResult {
            stations,
            analytic,
            mean_delay_s,
            p50_delay_s: percentile(&all_delays, 0.50),
            p95_delay_s: percentile(&all_delays, 0.95),
            p99_delay_s: percentile(&all_delays, 0.99),
            aggregate_throughput_bps: delivered_bits / makespan.max(f64::MIN_POSITIVE),
            psnr_eve_db: psnr_sum / flows.len().max(1) as f64,
            merged,
            flows,
        }
    }

    /// Per-flow cache traffic and stream setup, shared by both paths: the
    /// flow's two solve queries, DCF and delay (all hits after warm-up —
    /// nothing here re-solves), the flow's calibrated
    /// parameters with the cell's DCF operating point written in
    /// explicitly — so the coupling "live station count → every flow's
    /// backoff" stays visible in the flow setup itself — and the flow's
    /// own RNG stream and registry.
    fn flow_setup(
        &self,
        flow: usize,
        cache: &SolveCache,
        metrics: &MetricsRegistry,
    ) -> (ScenarioParams, StdRng, MetricsRegistry) {
        let cfg = &self.config;
        let dcf = cache
            .dcf(&Self::dcf_model(cfg), metrics)
            .expect("validated at prepare");
        let _ = cache.delay(&self.params, cfg.stations(), cfg.policy, metrics);
        let mut params = self.params.clone();
        params.dcf = dcf;
        (params, flow_rng(cfg.seed, flow), MetricsRegistry::enabled())
    }

    /// One shard as a discrete-event drain: build a [`SenderFlowMachine`]
    /// per flow (drawing each flow's arrival process from its own stream,
    /// in flow order — exactly what the sequential loop drew first), then
    /// run them all on one calendar keyed by global flow id.
    ///
    /// [`SenderFlowMachine`]: thrifty_sim::sender::SenderFlowMachine
    fn run_shard(
        &self,
        range: std::ops::Range<usize>,
        cache: &SolveCache,
        metrics: &MetricsRegistry,
    ) -> Vec<FlowRun> {
        let cfg = &self.config;
        let mut params_v = Vec::with_capacity(range.len());
        let mut rngs = Vec::with_capacity(range.len());
        let mut registries = Vec::with_capacity(range.len());
        for flow in range.clone() {
            let (params, rng, registry) = self.flow_setup(flow, cache, metrics);
            params_v.push(params);
            rngs.push(rng);
            registries.push(registry);
        }
        // One packetization per shard; it is a pure function of the shared
        // stream, so every flow sees identical packets.
        let packets = Packetizer::default().packetize(&self.stream);
        let machines = params_v
            .iter()
            .zip(rngs.iter_mut())
            .zip(registries.iter())
            .map(|((params, rng), registry)| {
                SenderSim::new(params, cfg.policy)
                    .flow_machine(&self.stream, &packets, rng, registry)
            })
            .collect();
        let mut exec = Executor::new(machines, range.start as u64);
        exec.run(&mut ());
        exec.into_machines()
            .into_iter()
            .zip(range)
            .zip(registries.iter())
            .map(|((machine, flow), registry)| {
                self.outcome_of(flow, &machine.finish(), registry.snapshot())
            })
            .collect()
    }

    fn outcome_of(&self, flow: usize, summary: &SenderSummary, snapshot: Snapshot) -> FlowRun {
        let cfg = &self.config;
        let sens = cfg.motion.sensitivity_fraction();
        let decoder = RefreshingDecoder::new(cfg.motion.p_refresh_fraction());
        let eve_flags = summary.eavesdropper_frame_flags(cfg.frames, sens);
        let eve_rec = decoder.reconstruct(&self.clip, &eve_flags, cfg.gop_size);
        let eve_q = measure_quality(&self.clip, &eve_rec);

        let mut delays: Vec<f64> = summary.records.iter().map(|r| r.delay_s()).collect();
        delays.sort_by(f64::total_cmp);
        let delivered = summary.records.iter().filter(|r| r.delivered).count();
        let delivered_bits: f64 = summary
            .records
            .iter()
            .filter(|r| r.delivered)
            .map(|r| r.bytes as f64 * 8.0)
            .sum();
        let duration = summary.duration_s.max(f64::MIN_POSITIVE);
        let outcome = FlowOutcome {
            flow,
            packets: summary.records.len(),
            delivered,
            mean_delay_s: summary.mean_delay_s,
            p50_delay_s: percentile(&delays, 0.50),
            p95_delay_s: percentile(&delays, 0.95),
            p99_delay_s: percentile(&delays, 0.99),
            throughput_bps: delivered_bits / duration,
            psnr_eve_db: eve_q.psnr_of_mean_mse,
            duration_s: summary.duration_s,
            snapshot,
        };
        FlowRun { outcome, delays }
    }
}

/// The **pre-fleet, pre-calendar single-sender path**, bypassing every
/// fleet mechanism: plain [`ScenarioParams::calibrated`] (which runs its
/// own DCF solve), the sequential legacy [`SenderSim`] loop on
/// `flow_rng(seed, 0)`, no cache, no shards, no calendar, no merge.
/// `reproduce fleet` asserts the engine's N = 1 cell — which runs
/// event-driven — reproduces this outcome bit for bit, making the gate a
/// standing equivalence proof between the two execution engines at the
/// full paper configuration.
pub fn single_sender_reference(config: &FleetConfig) -> FlowOutcome {
    let params = ScenarioParams::calibrated(
        config.motion,
        config.gop_size,
        config.device,
        config.stations(),
        config.target_rho,
    );
    let mut rng = StdRng::seed_from_u64(config.seed);
    let stream =
        StatisticalEncoder::new(config.motion, config.gop_size).encode(config.frames, &mut rng);
    let scene = SceneGenerator::new(SceneConfig {
        resolution: config.resolution,
        motion: config.motion,
        seed: config.seed,
        fps: 30.0,
    });
    let clip = scene.clip(config.frames);

    let registry = MetricsRegistry::enabled();
    let mut rng = flow_rng(config.seed, 0);
    let summary =
        SenderSim::new(&params, config.policy).run_metered_reference(&stream, &mut rng, &registry);

    // Same scoring arithmetic as the engine, restated independently.
    let engine = FleetEngine {
        config: *config,
        params,
        stream,
        clip,
    };
    engine.outcome_of(0, &summary, registry.snapshot()).outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use thrifty_analytic::policy::EncryptionMode;
    use thrifty_crypto::Algorithm;

    impl FleetEngine {
        /// The retained pre-calendar fleet path: identical shard partition and
        /// merge, but every flow runs the legacy sequential per-packet loop.
        /// Kept as the oracle [`run`](Self::run) is proven against.
        fn run_reference(&self, cache: &SolveCache, metrics: &MetricsRegistry) -> FleetResult {
            let shards = shard_ranges(self.config.n_flows, self.config.shards);
            metrics
                .counter("fleet.flows")
                .add(self.config.n_flows as u64);
            metrics.counter("fleet.shards").add(shards.len() as u64);
            let shard_runs: Vec<Vec<FlowRun>> = par_map(&shards, |range| {
                range
                    .clone()
                    .map(|flow| self.run_flow_reference(flow, cache, metrics))
                    .collect()
            });
            self.merge(shard_runs, cache, metrics)
        }

        /// One flow through the retained sequential loop — the pre-calendar
        /// hot path, kept verbatim for [`run_reference`](Self::run_reference).
        fn run_flow_reference(
            &self,
            flow: usize,
            cache: &SolveCache,
            metrics: &MetricsRegistry,
        ) -> FlowRun {
            let (params, mut rng, registry) = self.flow_setup(flow, cache, metrics);
            let summary = SenderSim::new(&params, self.config.policy).run_metered_reference(
                &self.stream,
                &mut rng,
                &registry,
            );
            self.outcome_of(flow, &summary, registry.snapshot())
        }
    }

    fn small(n_flows: usize) -> FleetConfig {
        let mut cfg = FleetConfig::paper_fleet(
            n_flows,
            Policy::new(Algorithm::Aes256, EncryptionMode::IFrames),
        );
        cfg.frames = 60;
        cfg
    }

    fn run(cfg: FleetConfig) -> FleetResult {
        let cache = SolveCache::new();
        let metrics = MetricsRegistry::enabled();
        FleetEngine::prepare(cfg, &cache, &metrics).run(&cache, &metrics)
    }

    #[test]
    fn n1_is_bit_identical_to_the_single_sender_path() {
        let cfg = small(1);
        let fleet = run(cfg);
        let reference = single_sender_reference(&cfg);
        assert_eq!(fleet.flows.len(), 1);
        assert!(
            fleet.flows[0].bit_identical(&reference),
            "fleet N=1 {:?} vs single-sender {:?}",
            fleet.flows[0].mean_delay_s,
            reference.mean_delay_s
        );
    }

    #[test]
    fn event_engine_matches_reference_engine() {
        // The calendar drain against the retained sequential loop, at the
        // flow counts the issue pins: every flow, every aggregate and the
        // merged snapshot bit-identical.
        for n in [1usize, 2, 5] {
            let cfg = small(n);
            let run_with = |event: bool| {
                let cache = SolveCache::new();
                let metrics = MetricsRegistry::enabled();
                let engine = FleetEngine::prepare(cfg, &cache, &metrics);
                if event {
                    engine.run(&cache, &metrics)
                } else {
                    engine.run_reference(&cache, &metrics)
                }
            };
            let event = run_with(true);
            let reference = run_with(false);
            assert!(
                event.bit_identical(&reference),
                "event vs reference diverged at N={n}"
            );
        }
    }

    #[test]
    fn shard_count_does_not_change_results() {
        let mut a_cfg = small(6);
        a_cfg.shards = 1;
        let mut b_cfg = small(6);
        b_cfg.shards = 3;
        let a = run(a_cfg);
        let b = run(b_cfg);
        assert!(a.bit_identical(&b), "sharding changed the outcome");
    }

    #[test]
    fn same_seed_runs_are_bit_identical() {
        let a = run(small(5));
        let b = run(small(5));
        assert!(a.bit_identical(&b));
        assert_eq!(a.merged.to_json(), b.merged.to_json());
    }

    #[test]
    fn different_seeds_differ() {
        let mut cfg = small(3);
        let a = run(cfg);
        cfg.seed = 8;
        let b = run(cfg);
        assert!(!a.bit_identical(&b), "seed must matter");
    }

    #[test]
    fn contention_grows_with_fleet_size() {
        let small_fleet = run(small(2));
        let big_fleet = run(small(25));
        assert_eq!(small_fleet.stations, 6);
        assert_eq!(big_fleet.stations, 29);
        // More contenders -> worse channel -> higher analytic delay, and
        // each flow's goodput shrinks.
        assert!(
            big_fleet.analytic.mean_delay_s > small_fleet.analytic.mean_delay_s,
            "analytic {} vs {}",
            big_fleet.analytic.mean_delay_s,
            small_fleet.analytic.mean_delay_s
        );
        let mean_tp = |r: &FleetResult| {
            r.flows.iter().map(|f| f.throughput_bps).sum::<f64>() / r.flows.len() as f64
        };
        assert!(mean_tp(&big_fleet) < mean_tp(&small_fleet));
    }

    #[test]
    fn cache_traffic_is_deterministic_and_mostly_hits() {
        let cfg = small(8);
        let cache = SolveCache::new();
        let metrics = MetricsRegistry::enabled();
        let engine = FleetEngine::prepare(cfg, &cache, &metrics);
        engine.run(&cache, &metrics);
        let snap = metrics.snapshot();
        // prepare: 1 dcf miss. flows: 8 x (dcf + delay) = 16 queries, of
        // which delay misses once. run(): 1 more hit for the result field.
        assert_eq!(snap.counter(SolveCache::MISSES), 2);
        assert_eq!(snap.counter(SolveCache::HITS), 16);
        let rate = SolveCache::hit_rate(&snap).unwrap();
        assert!(rate > 0.85, "hit rate {rate}");
    }

    #[test]
    fn cache_capacity_changes_no_figure_value() {
        // Two cells with different station counts sharing one capacity-1
        // cache: the second cell's keys evict the first's in every family,
        // and re-preparing the first cell re-solves from scratch — yet
        // every value (flows, aggregates, merged snapshots) stays
        // bit-identical to fresh unbounded-cache runs, because solves are
        // pure and the eviction counters land in the cell registry, not in
        // any flow's snapshot.
        let cell_a = small(4);
        let cell_b = small(6); // different live station count -> new keys
        let baseline = |cfg: FleetConfig| {
            let cache = SolveCache::new();
            let metrics = MetricsRegistry::enabled();
            FleetEngine::prepare(cfg, &cache, &metrics).run(&cache, &metrics)
        };
        let (base_a, base_b) = (baseline(cell_a), baseline(cell_b));

        let shared = SolveCache::with_capacity(1);
        let metrics = MetricsRegistry::enabled();
        let tight_a = FleetEngine::prepare(cell_a, &shared, &metrics).run(&shared, &metrics);
        let tight_b = FleetEngine::prepare(cell_b, &shared, &metrics).run(&shared, &metrics);
        // Cell A again: its keys were evicted by B, forcing re-solves.
        let tight_a2 = FleetEngine::prepare(cell_a, &shared, &metrics).run(&shared, &metrics);

        assert!(tight_a.bit_identical(&base_a), "capacity changed cell A");
        assert!(tight_b.bit_identical(&base_b), "capacity changed cell B");
        assert!(tight_a2.bit_identical(&base_a), "re-solve changed cell A");
        let snap = metrics.snapshot();
        assert!(
            snap.counter(SolveCache::EVICTIONS) > 0,
            "a shared capacity-1 cache across cells must evict"
        );
    }

    #[test]
    fn merged_snapshot_accumulates_every_flow() {
        let r = run(small(4));
        let per_flow: u64 = r
            .flows
            .iter()
            .map(|f| f.snapshot.counter("sim.packets.I") + f.snapshot.counter("sim.packets.P"))
            .sum();
        let merged = r.merged.counter("sim.packets.I") + r.merged.counter("sim.packets.P");
        assert_eq!(per_flow, merged);
        assert_eq!(
            r.flows.iter().map(|f| f.packets).sum::<usize>() as u64,
            merged
        );
    }

    #[test]
    fn percentiles_are_ordered() {
        let r = run(small(3));
        assert!(r.p50_delay_s <= r.p95_delay_s);
        assert!(r.p95_delay_s <= r.p99_delay_s);
        for f in &r.flows {
            assert!(f.p50_delay_s <= f.p95_delay_s && f.p95_delay_s <= f.p99_delay_s);
            assert!(f.mean_delay_s > 0.0 && f.throughput_bps > 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "at least one flow")]
    fn zero_flows_rejected() {
        let cfg = small(0);
        let cache = SolveCache::new();
        let metrics = MetricsRegistry::enabled();
        let _ = FleetEngine::prepare(cfg, &cache, &metrics);
    }
}
