//! The calendar and fleet layer probes every traced run takes: the
//! 10⁵-flow `ScaleEngine` run split against one of its shards on one
//! thread, and the calendar and histogram at that shard's depth.

use std::hint::black_box;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use thrifty_analytic::policy::{EncryptionMode, Policy};
use thrifty_crypto::Algorithm;
use thrifty_des::{EventKey, Executor, FlowMachine, Schedule, SimTime};
use thrifty_fleet::{DelayHistogram, ScaleConfig, ScaleEngine, SolveCache};
use thrifty_telemetry::MetricsRegistry;

use crate::probe::{self, Layers};

/// Flows in the fleet.
const FLOWS: usize = 100_000;

/// Shards `ScaleEngine` splits a fleet into when its config leaves the
/// count at 0; the probes run at one shard's calendar depth.
const DEFAULT_SHARDS: usize = 8;

fn scale_config(seed: u64, n_flows: usize) -> ScaleConfig {
    let policy = Policy::new(Algorithm::Aes256, EncryptionMode::IFrames);
    ScaleConfig {
        seed,
        ..ScaleConfig::paper_scale(n_flows, policy)
    }
}

/// Prepare `config` and run it once, checking that it dispatched one
/// event per packet of every flow; the result's event count and wall time
/// in milliseconds.
fn run_fleet(config: ScaleConfig) -> Result<(u64, f64), String> {
    let flows = config.n_flows;
    let engine = ScaleEngine::prepare(config, &SolveCache::new(), &MetricsRegistry::disabled());
    let expected = (flows * engine.packets_per_flow()) as u64;
    let (result, ms) = probe::timed_ms(|| engine.run());
    if result.events != result.packets || result.packets != expected {
        return Err(format!(
            "{flows}-flow fleet: {} events and {} packets, expected {expected} of each",
            result.events, result.packets
        ));
    }
    Ok((result.events, ms))
}

/// Measure the calendar and fleet layers: one shard's flows on one thread
/// through `ScaleEngine`, a `des::Executor` of trivial machines at that
/// calendar depth and at depth one, `DelayHistogram::record` once per
/// event, and the 10⁵-flow fleet on its default shards. The single-shard
/// cost per event, spread over the workers, is the fleet run's layer
/// time; the rest of its wall time is unattributed (fan-out, merge and
/// imbalance).
pub fn layer_probes(seed: u64, layers: &mut Layers) -> Result<(), String> {
    let flows = FLOWS.div_ceil(DEFAULT_SHARDS);
    let (events, run_ms) = run_fleet(ScaleConfig {
        shards: 1,
        ..scale_config(seed, flows)
    })?;
    let per_flow = events / flows as u64;
    let events_per_s_1shard = events as f64 / (run_ms / 1e3);
    layers.insert("fleet.events_per_s_1shard", events_per_s_1shard);
    layers.insert(
        "des.dispatch_ns_per_event.deep",
        dispatch_ns(flows, per_flow)?,
    );
    layers.insert("des.dispatch_ns_per_event.shallow", dispatch_ns(1, events)?);
    layers.insert("fleet.hist_ns_per_event", histogram_ns(seed, events)?);

    let (fleet_events, fleet_ms) = run_fleet(scale_config(seed, FLOWS))?;
    let workers = probe::par_map_workers(DEFAULT_SHARDS) as f64;
    let layer_ms = probe::ratio(fleet_events as f64, events_per_s_1shard) * 1e3 / workers;
    layers.insert(
        "fleet.parallel_efficiency",
        probe::ratio(
            fleet_events as f64 / (fleet_ms / 1e3),
            workers * events_per_s_1shard,
        ),
    );
    layers.insert("fleet.unattributed_ms", fleet_ms - layer_ms);
    Ok(())
}

/// A flow that does nothing but reschedule itself `left` times, each after
/// a gap drawn from its own linear congruential generator, so flows
/// interleave on the calendar as the fleet's do.
struct Ticker {
    left: u64,
    state: u64,
}

impl Ticker {
    fn gap_s(&mut self) -> f64 {
        self.state = self
            .state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (self.state >> 11) as f64 / (1u64 << 53) as f64 * 2e-3
    }
}

impl FlowMachine for Ticker {
    type Event = ();
    type Ctx = u64;

    fn start(&mut self, sched: &mut Schedule<'_, ()>, _handled: &mut u64) {
        if self.left > 0 {
            let gap = self.gap_s();
            sched.at(SimTime::from_s(gap), 0, ());
        }
    }

    fn on_event(
        &mut self,
        key: EventKey,
        _event: (),
        sched: &mut Schedule<'_, ()>,
        handled: &mut u64,
    ) {
        *handled += 1;
        self.left -= 1;
        if self.left > 0 {
            let gap = self.gap_s();
            sched.at(SimTime::from_s(key.time.as_s() + gap), key.seq + 1, ());
        }
    }
}

/// Calendar dispatch cost per event with `flows` flows pending at once.
fn dispatch_ns(flows: usize, per_flow: u64) -> Result<f64, String> {
    let machines = (0..flows as u64)
        .map(|flow| Ticker {
            left: per_flow,
            state: flow ^ 0x9E37_79B9_7F4A_7C15,
        })
        .collect();
    let mut exec = Executor::new(machines, 0);
    let mut handled = 0u64;
    let (events, ms) = probe::timed_ms(|| exec.run(&mut handled));
    let want = flows as u64 * per_flow;
    if events != want || handled != want {
        return Err(format!(
            "calendar probe dispatched {events} of {want} events"
        ));
    }
    Ok(ms * 1e6 / events as f64)
}

/// `DelayHistogram::record` cost per call, over delays of 0.1–50 ms.
fn histogram_ns(seed: u64, n: u64) -> Result<f64, String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let delays: Vec<f64> = (0..n).map(|_| rng.gen_range(1e-4..5e-2)).collect();
    let mut hist = DelayHistogram::default();
    let ((), ms) = probe::timed_ms(|| {
        for &d in &delays {
            hist.record(black_box(d));
        }
    });
    if black_box(&hist).total() != n {
        return Err("histogram probe lost records".into());
    }
    Ok(ms * 1e6 / n as f64)
}
