//! Measurement plumbing: the span tracer, process counters read from
//! `/proc`, order statistics and the result line.

use std::collections::BTreeMap;
use std::time::Instant;

/// Measurements of one traced iteration, keyed by metric name. Keys that
/// start with `raw.` feed derived metrics and are not reported.
pub type Layers = BTreeMap<&'static str, f64>;

/// The layers the traced replays record spans for.
#[derive(Debug, Clone, Copy)]
pub enum Layer {
    /// `SceneGenerator::clip`.
    VideoSynth,
    /// `StatisticalEncoder::encode`.
    VideoEncode,
    /// `RefreshingDecoder::reconstruct`.
    VideoConceal,
    /// `measure_quality`.
    VideoPsnr,
    /// `write_annex_b` and `parse_annex_b`.
    VideoNal,
    /// `SegmentCipher` encryption.
    CryptoEncrypt,
    /// `SegmentCipher` decryption.
    CryptoDecrypt,
    /// RTP, fragment and fountain header emit and parse.
    NetWire,
    /// `LossChannel::transmit`.
    NetChannel,
    /// `ScenarioParams::calibrated` and `DelayModel::predict`.
    AnalyticSolve,
    /// `SenderSim::run`, the TCP delay draws and the per-trial frame flags.
    SimSender,
    /// `BlockEncoder::new` and `BlockEncoder::encode`.
    FecEncode,
    /// `PeelingDecoder::new` and `PeelingDecoder::push`.
    FecDecode,
}

impl Layer {
    /// Every layer, in report order.
    pub const ALL: [Layer; 13] = [
        Layer::VideoSynth,
        Layer::VideoEncode,
        Layer::VideoConceal,
        Layer::VideoPsnr,
        Layer::VideoNal,
        Layer::CryptoEncrypt,
        Layer::CryptoDecrypt,
        Layer::NetWire,
        Layer::NetChannel,
        Layer::AnalyticSolve,
        Layer::SimSender,
        Layer::FecEncode,
        Layer::FecDecode,
    ];

    /// The layers the timed workloads' replays call; their span times and
    /// the workload's unattributed remainder make up its traced op.
    pub const TRANSPORT: [Layer; 5] = [
        Layer::VideoNal,
        Layer::CryptoEncrypt,
        Layer::CryptoDecrypt,
        Layer::NetWire,
        Layer::NetChannel,
    ];

    /// The layers the paper-grid probe reports.
    pub const GRID: [Layer; 6] = [
        Layer::VideoSynth,
        Layer::VideoEncode,
        Layer::VideoConceal,
        Layer::VideoPsnr,
        Layer::AnalyticSolve,
        Layer::SimSender,
    ];

    /// The layers the fountain probe reports.
    pub const FEC: [Layer; 2] = [Layer::FecEncode, Layer::FecDecode];

    /// The per-layer metric this layer's span time is reported as.
    pub fn metric(self) -> &'static str {
        match self {
            Layer::VideoSynth => "video.synth_ms",
            Layer::VideoEncode => "video.encode_ms",
            Layer::VideoConceal => "video.conceal_ms",
            Layer::VideoPsnr => "video.psnr_ms",
            Layer::VideoNal => "video.nal_ms",
            Layer::CryptoEncrypt => "crypto.encrypt_ms",
            Layer::CryptoDecrypt => "crypto.decrypt_ms",
            Layer::NetWire => "net.wire_ms",
            Layer::NetChannel => "net.channel_ms",
            Layer::AnalyticSolve => "analytic.solve_ms",
            Layer::SimSender => "sim.sender_ms",
            Layer::FecEncode => "fec.encode_ms",
            Layer::FecDecode => "fec.decode_ms",
        }
    }
}

/// Every per-layer metric a traced run reports, with its unit.
pub const PER_LAYER: [(&str, &str); 34] = [
    ("video.synth_ms", "ms"),
    ("video.encode_ms", "ms"),
    ("video.conceal_ms", "ms"),
    ("video.psnr_ms", "ms"),
    ("video.frames_scored", "count"),
    ("video.nal_ms", "ms"),
    ("crypto.encrypt_ms", "ms"),
    ("crypto.decrypt_ms", "ms"),
    ("crypto.bytes", "bytes"),
    ("crypto.mb_per_s", "MB/s"),
    ("net.wire_ms", "ms"),
    ("net.channel_ms", "ms"),
    ("net.packets_sent", "count"),
    ("net.delivery_ratio", "ratio"),
    ("analytic.solve_ms", "ms"),
    ("analytic.solves", "count"),
    ("sim.sender_ms", "ms"),
    ("sim.packets_simulated", "count"),
    ("sim.unattributed_ms", "ms"),
    ("des.dispatch_ns_per_event.deep", "ns"),
    ("des.dispatch_ns_per_event.shallow", "ns"),
    ("des.events", "count"),
    ("fleet.physics_ns_per_event", "ns"),
    ("fleet.hist_ns_per_event", "ns"),
    ("fleet.events_per_s_1shard", "1/s"),
    ("fleet.parallel_efficiency", "ratio"),
    ("fleet.unattributed_ms", "ms"),
    ("fleet.par_map_efficiency", "ratio"),
    ("fec.encode_ms", "ms"),
    ("fec.decode_ms", "ms"),
    ("fec.symbols_sent", "count"),
    ("fec.useful_ratio", "ratio"),
    ("telemetry.trace_overhead_ratio", "ratio"),
    ("telemetry.traced_op_ms", "ms"),
];

/// Sums span durations per layer. A disabled tracer runs the wrapped
/// calls and reads no clock.
pub struct Tracer {
    on: bool,
    ns: [u128; Layer::ALL.len()],
}

impl Tracer {
    /// A tracer that records spans when `on`.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            ns: [0; Layer::ALL.len()],
        }
    }

    /// Run `f` as one span of `layer`.
    pub fn within<R>(&mut self, layer: Layer, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let start = Instant::now();
        let out = f();
        self.ns[layer as usize] += start.elapsed().as_nanos();
        out
    }

    /// Open one empty span per layer, so a layer the workload never calls
    /// reports the cost of one span (tens of nanoseconds) instead of a
    /// constant zero.
    pub fn open_every_layer(&mut self) {
        for layer in Layer::ALL {
            self.within(layer, || ());
        }
    }

    /// Record the span time of each of `which`, in milliseconds.
    pub fn export_spans(&self, layers: &mut Layers, which: &[Layer]) {
        for &layer in which {
            layers.insert(layer.metric(), self.ns[layer as usize] as f64 / 1e6);
        }
    }
}

/// Run `f` and return its result with its wall time in milliseconds.
pub fn timed_ms<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64() * 1e3)
}

/// `num / den`, or 0 when the denominator is not positive.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Threads `par_map` runs `items` work items on.
pub fn par_map_workers(items: usize) -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(items)
        .max(1)
}

/// `USER_HZ`: the clock ticks per second of `/proc/self/stat`'s CPU fields.
const TICKS_PER_S: f64 = 100.0;

/// User plus system CPU time of the whole process, threads that have
/// already exited included, in milliseconds.
pub fn process_cpu_ms() -> Result<f64, String> {
    let stat = std::fs::read_to_string("/proc/self/stat")
        .map_err(|e| format!("reading /proc/self/stat: {e}"))?;
    // The command name is parenthesised and may hold spaces; the fields
    // after it start at field 3 (state), so utime (14) and stime (15) are
    // the 12th and 13th.
    let fields: Vec<&str> = stat
        .rsplit_once(')')
        .map_or("", |(_, rest)| rest)
        .split_whitespace()
        .collect();
    let ticks = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .ok_or_else(|| "malformed /proc/self/stat".to_string())
    };
    Ok((ticks(11)? + ticks(12)?) / TICKS_PER_S * 1e3)
}

/// Reset the process's peak resident set size to its current one, so the
/// next [`peak_rss_mib`] reads the peak since this call.
pub fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("resetting the peak RSS through /proc/self/clear_refs: {e}"))
}

/// Peak resident set size of the process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// The `q` quantile of `values`, interpolating linearly between closest
/// ranks; 0 for an empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let Some(last) = sorted.len().checked_sub(1) else {
        return 0.0;
    };
    let pos = q * last as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Per-key medians over traced iterations.
pub fn medians(iterations: &[Layers]) -> Layers {
    let mut samples: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for layers in iterations {
        for (&name, &value) in layers {
            samples.entry(name).or_default().push(value);
        }
    }
    samples
        .into_iter()
        .map(|(name, values)| (name, quantile(&values, 0.5)))
        .collect()
}

/// Metrics every workload derives the same way from the medians: the
/// calendar-free share of a fleet event, the cipher rate, the tracing
/// overhead and the unattributed remainder of the traced op.
pub fn derive_common(layers: &mut Layers) {
    let get = |name: &str| layers.get(name).copied().unwrap_or(0.0);
    let ns_per_event_1shard = ratio(1e9, get("fleet.events_per_s_1shard"));
    let physics = ns_per_event_1shard
        - get("des.dispatch_ns_per_event.deep")
        - get("fleet.hist_ns_per_event");
    let cipher_ms = get("crypto.encrypt_ms") + get("crypto.decrypt_ms");
    let mb_per_s = ratio(get("crypto.bytes") / 1e6, cipher_ms / 1e3);
    let overhead = ratio(get("raw.replay_on_ms"), get("raw.replay_off_ms"));
    let spans: f64 = Layer::TRANSPORT.iter().map(|l| get(l.metric())).sum();
    let unattributed = get("telemetry.traced_op_ms") - spans;
    layers.insert("fleet.physics_ns_per_event", physics);
    layers.insert("crypto.mb_per_s", mb_per_s);
    layers.insert("telemetry.trace_overhead_ratio", overhead);
    layers.insert("sim.unattributed_ms", unattributed);
}

/// The result of one run: correctness, op counts and named metrics.
pub struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    /// An empty report.
    pub fn new(correct: bool, attempted: u64, failed: u64) -> Self {
        Report {
            correct,
            attempted,
            failed,
            metrics: Vec::new(),
        }
    }

    /// Add one metric.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    /// Print the metrics as a table on standard error, then the JSON object
    /// as the last line of standard output. A non-finite value marks the
    /// run incorrect and prints as 0.
    pub fn print(&self) {
        let mut correct = self.correct;
        let mut fields = Vec::new();
        for &(name, value, unit) in &self.metrics {
            eprintln!("{name:>34} {value:>18.6} {unit}");
            if !value.is_finite() {
                eprintln!("perfbench: {name} is not finite");
                correct = false;
            }
            let value = if value.is_finite() { value } else { 0.0 };
            fields.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            fields.join(", ")
        );
    }
}
