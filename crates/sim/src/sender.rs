//! Packet-level simulation of the sender pipeline (Figure 3).
//!
//! Unlike the analytic side — which *models* arrivals as a 2-MMPP — the
//! simulation replays the actual structure of the coded stream: for every
//! GOP the producer thread reads the I-frame and enqueues its fragment
//! train at the disk-burst rate, then paces the P packets out at the read
//! rate. Service is sampled per packet: encryption (if the policy selects
//! the packet), DCF backoff, airtime. The queue is FIFO and work-conserving
//! (Lindley recursion). Every transmitted packet then crosses the loss
//! channel once for the receiver and is simultaneously overheard by the
//! eavesdropper's capture.
//!
//! The per-packet physics — [`SenderPhysics`], [`ArrivalClock`] and
//! [`SenderQueue`] — is the one copy both fleet engines run: [`SenderSim`]
//! layers records, capture and telemetry on it, and the fleet's scale path
//! steps it bare.

use rand::Rng;
use thrifty_analytic::params::ScenarioParams;
use thrifty_analytic::policy::Policy;
use thrifty_des::{EventKey, Executor, FlowMachine, Schedule, SimTime};
use thrifty_net::capture::{CapturedPacket, PacketCapture};
use thrifty_video::encoder::EncodedStream;
use thrifty_video::packet::{Packetizer, VideoPacket};
use thrifty_video::FrameType;

/// Everything that happened to one packet on its way out.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PacketRecord {
    /// Wire sequence number.
    pub seq: usize,
    /// Frame the packet belongs to.
    pub frame_index: usize,
    /// Frame class.
    pub ftype: FrameType,
    /// Payload bytes.
    pub bytes: usize,
    /// Whether the policy selected it for encryption.
    pub encrypted: bool,
    /// Arrival time into the sender queue, seconds.
    pub arrival_s: f64,
    /// Time spent waiting in the queue, seconds.
    pub wait_s: f64,
    /// Service time (encryption + backoff + airtime), seconds.
    pub service_s: f64,
    /// Whether the channel delivered it (after MAC retries).
    pub delivered: bool,
}

impl PacketRecord {
    /// Total per-packet delay (queueing + service) — the paper's metric.
    pub fn delay_s(&self) -> f64 {
        self.wait_s + self.service_s
    }
}

/// Aggregate outcome of one sender run.
#[derive(Debug, Clone)]
pub struct SenderSummary {
    /// Per-packet records in transmission order.
    pub records: Vec<PacketRecord>,
    /// The eavesdropper's capture of the same transmissions.
    pub capture: PacketCapture,
    /// Mean per-packet delay, seconds.
    pub mean_delay_s: f64,
    /// Mean per-packet encryption time, seconds.
    pub mean_encryption_s: f64,
    /// Total simulated duration, seconds.
    pub duration_s: f64,
}

impl SenderSummary {
    /// Per-frame delivery flags for the **receiver**: a frame is decodable
    /// iff its first packet arrived and at least `s` of the remaining did
    /// (eq. 20's criterion, applied to the realised loss pattern).
    pub fn receiver_frame_flags(&self, n_frames: usize, sensitivity_frac: f64) -> Vec<bool> {
        self.frame_flags(n_frames, sensitivity_frac, false)
    }

    /// Per-frame delivery flags for the **eavesdropper**: encrypted packets
    /// count as erasures on top of channel losses.
    pub fn eavesdropper_frame_flags(&self, n_frames: usize, sensitivity_frac: f64) -> Vec<bool> {
        self.frame_flags(n_frames, sensitivity_frac, true)
    }

    fn frame_flags(
        &self,
        n_frames: usize,
        sensitivity_frac: f64,
        strip_encrypted: bool,
    ) -> Vec<bool> {
        #[derive(Default, Clone)]
        struct FrameAcc {
            first_ok: bool,
            rest_ok: usize,
            rest_total: usize,
        }
        // The packetizer emits fragments in order, so the first record seen
        // for a frame is its fragment 0 (which carries the slice header).
        let mut first_seen = vec![false; n_frames];
        let mut acc = vec![FrameAcc::default(); n_frames];
        for r in &self.records {
            if r.frame_index >= n_frames {
                continue;
            }
            let usable = r.delivered && !(strip_encrypted && r.encrypted);
            let a = &mut acc[r.frame_index];
            if !first_seen[r.frame_index] {
                first_seen[r.frame_index] = true;
                a.first_ok = usable;
            } else {
                a.rest_total += 1;
                if usable {
                    a.rest_ok += 1;
                }
            }
        }
        acc.iter()
            .zip(first_seen.iter())
            .map(|(a, &seen)| {
                if !seen || !a.first_ok {
                    return false;
                }
                let s = (sensitivity_frac * a.rest_total as f64).ceil() as usize;
                a.rest_ok >= s
            })
            .collect()
    }
}

/// The sender simulation for one (scenario, policy) pair.
#[derive(Debug, Clone)]
pub struct SenderSim<'a> {
    params: &'a ScenarioParams,
    policy: Policy,
    /// Backpressure bound: when `Some(b)`, the producer blocks once the
    /// queue holds more than `b` seconds of unfinished work — the bounded
    /// in-memory queue of the paper's Figure 3, where the producer thread
    /// cannot outrun the consumer indefinitely. `None` models an open-loop
    /// producer (the 2-MMPP assumption).
    backlog_bound_s: Option<f64>,
}

impl<'a> SenderSim<'a> {
    /// Bind a calibrated scenario and a policy (open-loop producer).
    pub fn new(params: &'a ScenarioParams, policy: Policy) -> Self {
        SenderSim {
            params,
            policy,
            backlog_bound_s: None,
        }
    }

    /// Switch to a closed-loop producer with the given backlog bound.
    pub fn with_backlog_bound(mut self, bound_s: f64) -> Self {
        assert!(bound_s > 0.0, "backlog bound must be positive");
        self.backlog_bound_s = Some(bound_s);
        self
    }

    /// Run the pipeline over a coded stream.
    ///
    /// Equivalent to [`run_metered`](Self::run_metered) with a disabled
    /// registry: same RNG draws, same records, no metrics.
    pub fn run<R: Rng + ?Sized>(&self, stream: &EncodedStream, rng: &mut R) -> SenderSummary {
        self.run_metered(stream, rng, &thrifty_telemetry::MetricsRegistry::disabled())
    }

    /// Run the pipeline, reporting per-stage spans and counters into
    /// `metrics`.
    ///
    /// Since the calendar port this is the **event-driven** path: the run
    /// builds one [`SenderFlowMachine`] and drains it on a private
    /// `thrifty-des` calendar — each packet is one event, dispatched at its
    /// effective arrival time. The machine steps the same `PipelineCore`
    /// the retained reference loop
    /// ([`run_metered_reference`](Self::run_metered_reference)) steps, so
    /// the two paths share every RNG draw and every arithmetic operation
    /// and produce bit-identical summaries.
    ///
    /// Every packet contributes one interval to each of the `Enqueue`,
    /// `Encrypt`, `DcfBackoff` and `Transmit` spans, and those four
    /// intervals sum **exactly** to the packet's queueing + service delay —
    /// the decomposition the figure-level telemetry cross-checks against
    /// the reported means. Metering draws nothing from `rng`, so a seeded
    /// run is bit-identical with metrics on or off.
    pub fn run_metered<R: Rng + ?Sized>(
        &self,
        stream: &EncodedStream,
        rng: &mut R,
        metrics: &thrifty_telemetry::MetricsRegistry,
    ) -> SenderSummary {
        let packets = Packetizer::default().packetize(stream);
        let machine = self.flow_machine(stream, &packets, rng, metrics);
        let mut exec = Executor::new(vec![machine], 0);
        exec.run(&mut ());
        let machine = exec
            .into_machines()
            .pop()
            .expect("executor was built with exactly one machine");
        machine.finish()
    }

    /// The retained per-packet loop — the pre-calendar implementation, kept
    /// as the oracle the event-driven path is proven against (see the
    /// `event_run_matches_reference_*` tests and the fleet engine's
    /// `run_reference`). Identical draws, identical arithmetic, no
    /// calendar.
    pub fn run_metered_reference<R: Rng + ?Sized>(
        &self,
        stream: &EncodedStream,
        rng: &mut R,
        metrics: &thrifty_telemetry::MetricsRegistry,
    ) -> SenderSummary {
        let packets = Packetizer::default().packetize(stream);
        let mut core = PipelineCore::new(self, stream, &packets, metrics);
        let arrivals = core.physics.arrival_times(&packets, rng);
        for (pkt, &nominal_arrival) in packets.iter().zip(arrivals.iter()) {
            let arrival = core.effective_arrival(nominal_arrival);
            core.step(pkt, arrival, rng);
        }
        core.finish()
    }

    /// Build this sender as a [`FlowMachine`] for an external calendar.
    ///
    /// Draws the flow's arrival process from `rng` up front (exactly what
    /// the reference loop draws first), then yields a machine that replays
    /// one packet per event. The fleet engine schedules many of these on
    /// one per-shard calendar; because each machine draws only from its own
    /// `rng` and writes only to its own `metrics`, interleaving flows on
    /// the global clock changes no per-flow result bit.
    pub fn flow_machine<'m, R: Rng + ?Sized>(
        &self,
        stream: &EncodedStream,
        packets: &'m [VideoPacket],
        rng: &'m mut R,
        metrics: &'m thrifty_telemetry::MetricsRegistry,
    ) -> SenderFlowMachine<'m, R> {
        let core = PipelineCore::new(self, stream, packets, metrics);
        let arrivals = core.physics.arrival_times(packets, rng);
        SenderFlowMachine {
            core,
            packets,
            arrivals,
            rng,
        }
    }
}

/// The calibrated constants of one sender's per-packet process — the delay
/// model of Section 4: 2-MMPP arrivals paced in GOP slots, then optional
/// encryption, DCF backoff and airtime feeding a Lindley queue, then a
/// Bernoulli delivery.
///
/// This is the one copy of that physics. The classic sender owns one per
/// run; the fleet's scale path builds one per engine and every lean flow
/// borrows it. A flow's mutable state is an [`ArrivalClock`] and a
/// [`SenderQueue`], both O(1).
#[derive(Debug, Clone, Copy)]
pub struct SenderPhysics {
    policy: Policy,
    delivery: f64,
    cost: thrifty_crypto::CostModel,
    jitter: f64,
    p_s: f64,
    backoff_rate: f64,
    phy: thrifty_net::PhyParams,
    lambda1: f64,
    lambda2: f64,
    gop_period: f64,
    gop_size: usize,
}

impl SenderPhysics {
    /// Calibrate `policy` under `params` for the `n_packets` packets of
    /// `stream`.
    pub fn new(
        params: &ScenarioParams,
        policy: Policy,
        stream: &EncodedStream,
        n_packets: usize,
    ) -> Self {
        let mmpp = &params.mmpp;
        // The calibrated read speedup is implied by the MMPP's mean rate
        // relative to the stream's natural (real-time) packet rate; the
        // producer's GOP slot shrinks by the same factor.
        let natural_rate = n_packets as f64 / stream.duration_s();
        let speedup = mmpp.mean_rate() / natural_rate;
        SenderPhysics {
            policy,
            delivery: params.delivery_rate(),
            cost: params.cost_model(policy.algorithm),
            jitter: params.jitter_rel,
            p_s: params.dcf.packet_success_rate,
            backoff_rate: params.dcf.backoff_rate_hz,
            phy: params.phy,
            lambda1: mmpp.lambda1,
            lambda2: mmpp.lambda2,
            gop_period: stream.gop_size as f64 / stream.fps / speedup,
            gop_size: stream.gop_size,
        }
    }

    /// The whole arrival process of `packets`, drawn as one batch.
    fn arrival_times<R: Rng + ?Sized>(&self, packets: &[VideoPacket], rng: &mut R) -> Vec<f64> {
        let mut clock = ArrivalClock::default();
        packets
            .iter()
            .map(|pkt| clock.next(self, pkt, rng))
            .collect()
    }
}

/// Stream-structured arrivals, one packet at a time: per GOP, an I-fragment
/// burst at the disk rate followed by P packets paced at the read rate —
/// the process the 2-MMPP of Section 4.2.1 models.
#[derive(Debug, Clone, Copy)]
pub struct ArrivalClock {
    t: f64,
    last_gop: usize,
}

impl Default for ArrivalClock {
    fn default() -> Self {
        ArrivalClock {
            t: 0.0,
            last_gop: usize::MAX,
        }
    }
}

impl ArrivalClock {
    /// Arrival time of `pkt`, the stream's next packet, in seconds: the
    /// GOP-slot floor, then an exponential gap at the frame class's MMPP
    /// rate. Exactly one draw from `rng`.
    pub fn next<R: Rng + ?Sized>(
        &mut self,
        physics: &SenderPhysics,
        pkt: &VideoPacket,
        rng: &mut R,
    ) -> f64 {
        let gop = pkt.frame_index / physics.gop_size;
        if gop != self.last_gop {
            // Producer starts reading this GOP no earlier than its slot.
            self.t = self.t.max(gop as f64 * physics.gop_period);
            self.last_gop = gop;
        }
        let rate = match pkt.ftype {
            FrameType::I => physics.lambda1,
            FrameType::P => physics.lambda2,
        };
        self.t += exponential(rng, rate);
        self.t
    }
}

/// What the service process did to one packet.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PacketOutcome {
    /// Whether the policy selected it for encryption.
    pub encrypted: bool,
    /// Encryption time, seconds (0 when sent in the clear).
    pub encrypt_s: f64,
    /// DCF backoff, seconds.
    pub backoff_s: f64,
    /// Airtime, seconds.
    pub transmit_s: f64,
    /// Time spent waiting in the queue, seconds.
    pub wait_s: f64,
    /// Service time (encryption + backoff + airtime), seconds.
    pub service_s: f64,
    /// Whether the channel delivered it (after MAC retries).
    pub delivered: bool,
}

impl PacketOutcome {
    /// Total per-packet delay (queueing + service) — the paper's metric.
    pub fn delay_s(&self) -> f64 {
        self.wait_s + self.service_s
    }
}

/// One sender's FIFO, work-conserving queue: the Lindley recursion's state.
#[derive(Debug, Clone, Copy, Default)]
pub struct SenderQueue {
    clear_at: f64,
}

impl SenderQueue {
    /// When the server frees up: the departure time of the last packet
    /// stepped, seconds.
    pub fn clear_at(&self) -> f64 {
        self.clear_at
    }

    /// One packet arriving at `arrival` through encrypt → backoff →
    /// transmit → channel, with the Lindley update. Draws, in order: the
    /// policy's unit, the encryption gaussian (encrypted packets only), the
    /// backoff loop, the airtime gaussian and the delivery.
    pub fn step<R: Rng + ?Sized>(
        &mut self,
        physics: &SenderPhysics,
        pkt: &VideoPacket,
        arrival: f64,
        rng: &mut R,
    ) -> PacketOutcome {
        let unit: f64 = rng.gen_range(0.0..1.0);
        let encrypted = physics.policy.mode.should_encrypt(pkt.ftype, unit);
        let encrypt_s = if encrypted {
            let mean = physics.cost.mean_time(pkt.bytes);
            gaussian(rng, mean, physics.jitter * mean)
        } else {
            0.0
        };
        let mut backoff_s = 0.0;
        while !rng.gen_bool(physics.p_s) {
            backoff_s += exponential(rng, physics.backoff_rate);
        }
        let tx_mean = physics.phy.tx_time_s(pkt.bytes + 40);
        let transmit_s = gaussian(rng, tx_mean, physics.jitter * tx_mean);
        let service_s = encrypt_s + backoff_s + transmit_s;

        let start = self.clear_at.max(arrival);
        self.clear_at = start + service_s;
        PacketOutcome {
            encrypted,
            encrypt_s,
            backoff_s,
            transmit_s,
            wait_s: start - arrival,
            service_s,
            delivered: rng.gen_bool(physics.delivery),
        }
    }
}

/// Per-run telemetry and record-keeping layered on the shared physics, for
/// both the event-driven drain and the reference loop.
///
/// Both paths advance a packet with [`step`](PipelineCore::step), so every
/// RNG draw and every floating-point operation is common code — which is
/// what makes the calendar port bit-identical to the legacy loop rather
/// than merely close. The struct owns its copy of the calibrated constants
/// (all `Copy`), so machines built from it hold no borrow of the scenario.
struct PipelineCore<'a> {
    physics: SenderPhysics,
    queue: SenderQueue,
    backlog_bound_s: Option<f64>,
    metrics: &'a thrifty_telemetry::MetricsRegistry,
    // Counter handles are acquired once; per-packet cost is a relaxed
    // atomic add (nothing at all when the registry is disabled).
    packets_i: thrifty_telemetry::Counter,
    packets_p: thrifty_telemetry::Counter,
    packets_encrypted: thrifty_telemetry::Counter,
    packets_delivered: thrifty_telemetry::Counter,
    packets_lost: thrifty_telemetry::Counter,
    bytes_encrypted: thrifty_telemetry::Counter,
    records: Vec<PacketRecord>,
    capture: PacketCapture,
    sum_delay: f64,
    sum_enc: f64,
}

impl<'a> PipelineCore<'a> {
    fn new(
        sim: &SenderSim<'_>,
        stream: &EncodedStream,
        packets: &[VideoPacket],
        metrics: &'a thrifty_telemetry::MetricsRegistry,
    ) -> Self {
        PipelineCore {
            physics: SenderPhysics::new(sim.params, sim.policy, stream, packets.len()),
            queue: SenderQueue::default(),
            backlog_bound_s: sim.backlog_bound_s,
            metrics,
            packets_i: metrics.counter("sim.packets.I"),
            packets_p: metrics.counter("sim.packets.P"),
            packets_encrypted: metrics.counter("sim.packets.encrypted"),
            packets_delivered: metrics.counter("sim.packets.delivered"),
            packets_lost: metrics.counter("sim.packets.lost"),
            bytes_encrypted: metrics.counter(&format!(
                "sim.bytes_encrypted.{}",
                sim.policy.algorithm.name()
            )),
            records: Vec::with_capacity(packets.len()),
            capture: PacketCapture::new(),
            sum_delay: 0.0,
            sum_enc: 0.0,
        }
    }

    /// Closed-loop producer: an enqueue cannot happen while the queue
    /// already holds more than the bound's worth of unfinished work (both
    /// terms are nondecreasing, so arrivals stay ordered — and so the
    /// event a handler schedules from this time is never in its past).
    fn effective_arrival(&self, nominal: f64) -> f64 {
        match self.backlog_bound_s {
            Some(bound) => nominal.max(self.queue.clear_at() - bound),
            None => nominal,
        }
    }

    /// One packet through the shared physics, then its telemetry, record
    /// and capture. `arrival` must come from
    /// [`effective_arrival`](Self::effective_arrival) evaluated under the
    /// queue state left by the previous packet.
    fn step<R: Rng + ?Sized>(&mut self, pkt: &VideoPacket, arrival: f64, rng: &mut R) {
        use thrifty_telemetry::Stage;
        let out = self.queue.step(&self.physics, pkt, arrival, rng);
        self.sum_delay += out.delay_s();
        self.sum_enc += out.encrypt_s;
        self.metrics.record_span(Stage::Enqueue, out.wait_s);
        self.metrics.record_span(Stage::Encrypt, out.encrypt_s);
        self.metrics.record_span(Stage::DcfBackoff, out.backoff_s);
        self.metrics.record_span(Stage::Transmit, out.transmit_s);
        match pkt.ftype {
            FrameType::I => self.packets_i.inc(),
            FrameType::P => self.packets_p.inc(),
        }
        if out.encrypted {
            self.packets_encrypted.inc();
            self.bytes_encrypted.add(pkt.bytes as u64);
        }
        if out.delivered {
            self.packets_delivered.inc();
        } else {
            self.packets_lost.inc();
        }
        self.capture.record(CapturedPacket {
            seq: pkt.seq,
            frame_index: pkt.frame_index,
            bytes: pkt.bytes,
            encrypted: out.encrypted,
            time_s: self.queue.clear_at(),
        });
        self.records.push(PacketRecord {
            seq: pkt.seq,
            frame_index: pkt.frame_index,
            ftype: pkt.ftype,
            bytes: pkt.bytes,
            encrypted: out.encrypted,
            arrival_s: arrival,
            wait_s: out.wait_s,
            service_s: out.service_s,
            delivered: out.delivered,
        });
    }

    fn finish(self) -> SenderSummary {
        let n = self.records.len().max(1) as f64;
        SenderSummary {
            mean_delay_s: self.sum_delay / n,
            mean_encryption_s: self.sum_enc / n,
            duration_s: self.queue.clear_at(),
            records: self.records,
            capture: self.capture,
        }
    }
}

/// One sender flow as a calendar state machine: each event is one packet,
/// keyed by its wire seq and dispatched at its **effective** arrival time.
///
/// The handler steps the shared `PipelineCore` and schedules the next
/// packet at its effective arrival — which is computable the moment the
/// current packet leaves the Lindley recursion, and never earlier than the
/// event being handled (effective arrivals are nondecreasing), so the
/// schedule is causal by construction. Draws come only from the machine's
/// own `rng`, in packet-seq order — the exact order of the reference loop —
/// so the dispatch interleaving across flows on a shared calendar cannot
/// perturb any flow's stream.
pub struct SenderFlowMachine<'m, R: Rng + ?Sized> {
    core: PipelineCore<'m>,
    packets: &'m [VideoPacket],
    arrivals: Vec<f64>,
    rng: &'m mut R,
}

impl<R: Rng + ?Sized> SenderFlowMachine<'_, R> {
    /// Consume the machine after the drain and produce the run's summary.
    pub fn finish(self) -> SenderSummary {
        self.core.finish()
    }
}

impl<R: Rng + ?Sized> FlowMachine for SenderFlowMachine<'_, R> {
    type Event = ();
    type Ctx = ();

    fn start(&mut self, sched: &mut Schedule<'_, ()>, _ctx: &mut ()) {
        if !self.packets.is_empty() {
            let t = self.core.effective_arrival(self.arrivals[0]);
            sched.at(SimTime::from_s(t), 0, ());
        }
    }

    fn on_event(&mut self, key: EventKey, _event: (), sched: &mut Schedule<'_, ()>, _ctx: &mut ()) {
        let i = key.seq as usize;
        self.core.step(&self.packets[i], key.time.as_s(), self.rng);
        if i + 1 < self.packets.len() {
            let t = self.core.effective_arrival(self.arrivals[i + 1]);
            sched.at(SimTime::from_s(t), key.seq + 1, ());
        }
    }
}

/// Inverse-CDF exponential draw — the arrival/backoff sampler.
fn exponential<R: Rng + ?Sized>(rng: &mut R, rate: f64) -> f64 {
    let u: f64 = rng.gen_range(f64::EPSILON..1.0);
    -u.ln() / rate
}

/// Box–Muller gaussian draw truncated at zero; degenerate `std <= 0`
/// returns the (clamped) mean without consuming the stream.
fn gaussian<R: Rng + ?Sized>(rng: &mut R, mean: f64, std: f64) -> f64 {
    if std <= 0.0 {
        return mean.max(0.0);
    }
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
    (mean + std * z).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use thrifty_analytic::params::SAMSUNG_GALAXY_S2;
    use thrifty_analytic::policy::EncryptionMode;
    use thrifty_crypto::Algorithm;
    use thrifty_video::encoder::StatisticalEncoder;
    use thrifty_video::motion::MotionLevel;

    fn setup(mode: EncryptionMode) -> (ScenarioParams, EncodedStream, Policy) {
        let params = ScenarioParams::calibrated(MotionLevel::High, 30, SAMSUNG_GALAXY_S2, 5, 0.9);
        let mut rng = StdRng::seed_from_u64(3);
        let stream = StatisticalEncoder::new(MotionLevel::High, 30).encode(300, &mut rng);
        (params, stream, Policy::new(Algorithm::Aes256, mode))
    }

    #[test]
    fn run_covers_all_packets_in_order() {
        let (params, stream, policy) = setup(EncryptionMode::IFrames);
        let mut rng = StdRng::seed_from_u64(4);
        let summary = SenderSim::new(&params, policy).run(&stream, &mut rng);
        let n_expected = Packetizer::default().packetize(&stream).len();
        assert_eq!(summary.records.len(), n_expected);
        assert_eq!(summary.capture.len(), n_expected);
        for w in summary.records.windows(2) {
            assert!(w[1].arrival_s >= w[0].arrival_s, "arrivals ordered");
        }
        assert!(summary.duration_s > 0.0);
    }

    #[test]
    fn policy_selects_the_right_packets() {
        let (params, stream, policy) = setup(EncryptionMode::IFrames);
        let mut rng = StdRng::seed_from_u64(5);
        let summary = SenderSim::new(&params, policy).run(&stream, &mut rng);
        for r in &summary.records {
            match r.ftype {
                FrameType::I => assert!(r.encrypted),
                FrameType::P => assert!(!r.encrypted),
            }
        }
        // Encrypted fraction matches the analytic q.
        let q = summary.capture.encrypted_fraction();
        let expected = policy.mode.encrypted_fraction(params.packet_stats.p_i);
        assert!((q - expected).abs() < 0.02, "q {q} vs {expected}");
    }

    #[test]
    fn fractional_policy_hits_alpha() {
        let (params, stream, policy) = setup(EncryptionMode::IPlusFractionP(0.2));
        let mut rng = StdRng::seed_from_u64(6);
        let summary = SenderSim::new(&params, policy).run(&stream, &mut rng);
        let p_encrypted = summary
            .records
            .iter()
            .filter(|r| r.ftype == FrameType::P && r.encrypted)
            .count();
        let p_total = summary
            .records
            .iter()
            .filter(|r| r.ftype == FrameType::P)
            .count();
        let alpha = p_encrypted as f64 / p_total as f64;
        assert!((alpha - 0.2).abs() < 0.03, "alpha {alpha}");
    }

    #[test]
    fn encryption_increases_delay() {
        let (params, stream, _) = setup(EncryptionMode::None);
        let mut rng = StdRng::seed_from_u64(7);
        let none = SenderSim::new(
            &params,
            Policy::new(Algorithm::TripleDes, EncryptionMode::None),
        )
        .run(&stream, &mut rng)
        .mean_delay_s;
        let all = SenderSim::new(
            &params,
            Policy::new(Algorithm::TripleDes, EncryptionMode::All),
        )
        .run(&stream, &mut rng)
        .mean_delay_s;
        assert!(all > 1.5 * none, "all {all} vs none {none}");
    }

    #[test]
    fn receiver_decodes_more_frames_than_eavesdropper() {
        let (params, stream, policy) = setup(EncryptionMode::IFrames);
        let mut rng = StdRng::seed_from_u64(8);
        let summary = SenderSim::new(&params, policy).run(&stream, &mut rng);
        let sens = params.motion.sensitivity_fraction();
        let rx = summary.receiver_frame_flags(300, sens);
        let eve = summary.eavesdropper_frame_flags(300, sens);
        let rx_ok = rx.iter().filter(|&&b| b).count();
        let eve_ok = eve.iter().filter(|&&b| b).count();
        assert!(rx_ok > eve_ok, "rx {rx_ok} vs eve {eve_ok}");
        // Under the I policy, no I-frame is decodable by the eavesdropper.
        for (f, ok) in eve.iter().enumerate() {
            if f % 30 == 0 {
                assert!(!ok, "I frame {f} must be dark for the eavesdropper");
            }
        }
    }

    #[test]
    fn delivery_rate_is_respected() {
        let (params, stream, policy) = setup(EncryptionMode::None);
        let mut rng = StdRng::seed_from_u64(9);
        let summary = SenderSim::new(&params, policy).run(&stream, &mut rng);
        let delivered = summary.records.iter().filter(|r| r.delivered).count();
        let rate = delivered as f64 / summary.records.len() as f64;
        assert!(
            (rate - params.delivery_rate()).abs() < 0.02,
            "delivery {rate} vs {}",
            params.delivery_rate()
        );
    }

    #[test]
    fn closed_loop_producer_bounds_waiting() {
        let (params, stream, policy) = setup(EncryptionMode::All);
        let mut rng = StdRng::seed_from_u64(21);
        let bound = 2e-3;
        let summary = SenderSim::new(&params, policy)
            .with_backlog_bound(bound)
            .run(&stream, &mut rng);
        for r in &summary.records {
            assert!(
                r.wait_s <= bound + 1e-9,
                "wait {} exceeds backlog bound {bound}",
                r.wait_s
            );
        }
    }

    #[test]
    fn closed_loop_restores_slow_motion_p_above_i() {
        // Open loop: encrypting the hot I-burst inflates I-policy delay
        // (EXPERIMENTS.md deviation 1). With the bounded Figure 3 queue the
        // burst backlog is capped, and the paper's experimental ordering
        // delay(P) > delay(I) reappears for slow motion.
        let params = ScenarioParams::calibrated(MotionLevel::Low, 30, SAMSUNG_GALAXY_S2, 5, 0.9);
        let mut rng = StdRng::seed_from_u64(22);
        let stream = StatisticalEncoder::new(MotionLevel::Low, 30).encode(300, &mut rng);
        let mean = |mode, rng: &mut StdRng| {
            let sim = SenderSim::new(&params, Policy::new(Algorithm::Aes256, mode))
                .with_backlog_bound(0.5e-3);
            let mut acc = 0.0;
            for _ in 0..6 {
                acc += sim.run(&stream, rng).mean_delay_s;
            }
            acc / 6.0
        };
        let i = mean(EncryptionMode::IFrames, &mut rng);
        let p = mean(EncryptionMode::PFrames, &mut rng);
        assert!(p > i, "closed loop: P {p} should exceed I {i}");
    }

    #[test]
    fn metered_run_is_bit_identical_to_unmetered() {
        use thrifty_telemetry::MetricsRegistry;
        let (params, stream, policy) = setup(EncryptionMode::IFrames);
        let mut rng = StdRng::seed_from_u64(31);
        let plain = SenderSim::new(&params, policy).run(&stream, &mut rng);
        let metrics = MetricsRegistry::enabled();
        let mut rng = StdRng::seed_from_u64(31);
        let metered = SenderSim::new(&params, policy).run_metered(&stream, &mut rng, &metrics);
        assert_eq!(metered.records, plain.records);
        assert_eq!(metered.mean_delay_s.to_bits(), plain.mean_delay_s.to_bits());
    }

    #[test]
    fn span_decomposition_sums_to_the_reported_delay() {
        use thrifty_telemetry::{MetricsRegistry, Stage};
        let (params, stream, policy) = setup(EncryptionMode::IPlusFractionP(0.4));
        let metrics = MetricsRegistry::enabled();
        let mut rng = StdRng::seed_from_u64(32);
        let summary = SenderSim::new(&params, policy).run_metered(&stream, &mut rng, &metrics);
        let snap = metrics.snapshot();
        let stage_total: f64 = [
            Stage::Enqueue,
            Stage::Encrypt,
            Stage::DcfBackoff,
            Stage::Transmit,
        ]
        .iter()
        .map(|&s| snap.span(s).map_or(0.0, |sp| sp.total_s))
        .sum();
        let n = summary.records.len() as f64;
        assert!(
            (stage_total / n - summary.mean_delay_s).abs() < 1e-9,
            "per-stage sum {} vs mean delay {}",
            stage_total / n,
            summary.mean_delay_s
        );
        // Counter cross-checks against the record vector.
        let enc = summary.records.iter().filter(|r| r.encrypted).count() as u64;
        assert_eq!(snap.counter("sim.packets.encrypted"), enc);
        assert_eq!(
            snap.counter("sim.packets.I") + snap.counter("sim.packets.P"),
            summary.records.len() as u64
        );
        let lost = summary.records.iter().filter(|r| !r.delivered).count() as u64;
        assert_eq!(snap.counter("sim.packets.lost"), lost);
        let enc_bytes: u64 = summary
            .records
            .iter()
            .filter(|r| r.encrypted)
            .map(|r| r.bytes as u64)
            .sum();
        assert_eq!(snap.counter("sim.bytes_encrypted.AES256"), enc_bytes);
    }

    #[test]
    fn event_run_matches_reference_bit_for_bit() {
        // The calendar port against the retained per-packet loop: same
        // seed, same records (bit-level), same capture, same telemetry.
        use thrifty_telemetry::MetricsRegistry;
        for mode in [
            EncryptionMode::None,
            EncryptionMode::IFrames,
            EncryptionMode::IPlusFractionP(0.3),
            EncryptionMode::All,
        ] {
            let (params, stream, policy) = setup(mode);
            let sim = SenderSim::new(&params, policy);
            let event_metrics = MetricsRegistry::enabled();
            let mut rng = StdRng::seed_from_u64(41);
            let event = sim.run_metered(&stream, &mut rng, &event_metrics);
            let ref_metrics = MetricsRegistry::enabled();
            let mut rng = StdRng::seed_from_u64(41);
            let reference = sim.run_metered_reference(&stream, &mut rng, &ref_metrics);
            assert_eq!(event.records, reference.records, "mode {mode:?}");
            assert_eq!(
                event.mean_delay_s.to_bits(),
                reference.mean_delay_s.to_bits()
            );
            assert_eq!(
                event.mean_encryption_s.to_bits(),
                reference.mean_encryption_s.to_bits()
            );
            assert_eq!(event.duration_s.to_bits(), reference.duration_s.to_bits());
            assert_eq!(event.capture.len(), reference.capture.len());
            assert_eq!(
                event_metrics.snapshot().to_json(),
                ref_metrics.snapshot().to_json(),
                "telemetry must not depend on the execution engine"
            );
        }
    }

    #[test]
    fn event_run_matches_reference_closed_loop() {
        // The backlog bound couples each arrival to the queue state, so it
        // exercises the handler-schedules-next-arrival path hardest.
        let (params, stream, policy) = setup(EncryptionMode::All);
        let sim = SenderSim::new(&params, policy).with_backlog_bound(1e-3);
        let mut rng = StdRng::seed_from_u64(42);
        let event = sim.run(&stream, &mut rng);
        let mut rng = StdRng::seed_from_u64(42);
        let reference = sim.run_metered_reference(
            &stream,
            &mut rng,
            &thrifty_telemetry::MetricsRegistry::disabled(),
        );
        assert_eq!(event.records, reference.records);
        assert_eq!(event.duration_s.to_bits(), reference.duration_s.to_bits());
    }

    #[test]
    fn mean_delay_tracks_analytic_prediction() {
        // The "Analysis" and "Experiment" bars of Figure 7 must agree.
        use thrifty_analytic::delay::DelayModel;
        let (params, stream, policy) = setup(EncryptionMode::IFrames);
        let model = DelayModel::new(&params).predict(policy).unwrap();
        let mut delays = Vec::new();
        for seed in 0..8 {
            let mut rng = StdRng::seed_from_u64(100 + seed);
            let s = SenderSim::new(&params, policy).run(&stream, &mut rng);
            delays.push(s.mean_delay_s);
        }
        let sim_mean: f64 = delays.iter().sum::<f64>() / delays.len() as f64;
        let rel = (sim_mean - model.mean_delay_s).abs() / model.mean_delay_s;
        assert!(
            rel < 0.35,
            "sim {sim_mean} vs analysis {} (rel {rel})",
            model.mean_delay_s
        );
    }
}
