//! Layered benchmark of the secure video transfer workspace.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! A run generates its workload's inputs from `--seed` and sets the
//! workload up: input generation, engine preparation and one checked
//! warm-up op. With `--trace 0` it then drives checked ops in a closed
//! loop (one caller, one op in flight) for `--seconds` of op time, sets
//! the workload up again at even intervals among them (see
//! [`MIN_SETUPS`]), and reports the end-to-end metrics, with the median
//! set-up time as `setup_s`. With `--trace 1` it runs traced iterations
//! for `--seconds` after the one set-up instead and reports the per-layer
//! split, with the paper-grid probe, the LT fountain probe and the
//! calendar and fleet probes (among them `ScaleEngine` at 10⁵ flows) taken
//! in every iteration. A table of the metrics goes to standard error; the
//! last line of standard output is one JSON object. `README.md` beside
//! `Cargo.toml` documents the workloads and the metrics.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod fleet;
mod grid;
mod probe;
mod transport;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use probe::{Layers, Report};

/// A timed run sets up as many times as its first set-up fits into
/// `SETUP_BUDGET`, at least `MIN_SETUPS` and at most `MAX_SETUPS`;
/// `setup_s` is their median. Workloads that set up in a fraction of a
/// second thus take the median of more samples. The first set-up comes
/// before the timed ops and the others are spread evenly among them, so
/// the samples see the same machine phases the ops do.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 9;
const SETUP_BUDGET: Duration = Duration::from_secs(2);

/// The seed a run uses when `--seed` is absent. At this seed the traced
/// run's paper-grid probe also checks its cells against the figure tables
/// `reproduce` prints.
pub const DEFAULT_SEED: u64 = 7;

/// One benchmark workload.
pub trait Workload: Sized {
    /// What one op returns; every op's output is checked against the
    /// warm-up op's.
    type Output;

    /// Generate the inputs from `seed` and prepare the engine.
    fn prepare(seed: u64) -> Result<Self, String>;

    /// One op: a call into the program's public API.
    fn op(&self) -> Self::Output;

    /// Check `out` — the invariants every seed must meet, and equality
    /// with the warm-up op's `warm` — and return the work it completed.
    fn check(&self, out: &Self::Output, warm: &Self::Output) -> Result<f64, String>;

    /// One traced iteration: the op again with its counters on, and its
    /// layer calls replayed under spans. Records the op's process CPU time
    /// over all its threads as `telemetry.traced_op_ms`, the time the
    /// layer split closes against.
    fn traced_iteration(&self, warm: &Self::Output) -> Result<Layers, String>;
}

/// Command-line arguments.
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10,
        trace: false,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let result = parse_args().and_then(|args| match args.workload.as_str() {
        "secure_udp" => run::<transport::SecureUdp>(&args),
        "thrifty_udp" => run::<transport::ThriftyUdp>(&args),
        other => Err(format!(
            "unknown workload {other}; expected secure_udp or thrifty_udp"
        )),
    });
    match result {
        Ok(report) => {
            report.print();
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Prepare the workload, run its warm-up op and check it; the workload
/// and the op's output, with the set-up's time in seconds.
fn set_up<W: Workload>(seed: u64) -> Result<(W, W::Output, f64), String> {
    let start = Instant::now();
    let workload = W::prepare(seed)?;
    let warm = workload.op();
    workload
        .check(&warm, &warm)
        .map_err(|e| format!("warm-up op: {e}"))?;
    Ok((workload, warm, start.elapsed().as_secs_f64()))
}

fn run<W: Workload>(args: &Args) -> Result<Report, String> {
    let (workload, warm, first_setup_s) = set_up::<W>(args.seed)?;
    let budget = Duration::from_secs(args.seconds);
    if args.trace {
        return traced(&workload, &warm, budget, args.seed);
    }
    let setups =
        ((SETUP_BUDGET.as_secs_f64() / first_setup_s) as usize).clamp(MIN_SETUPS, MAX_SETUPS);
    let mut setup_s = vec![first_setup_s];
    let mut report = timed(&workload, &warm, budget, |op_share| {
        // The next set-up is due once the ops have used its share of the
        // budget. Its warm-up op must equal the first one's.
        if setup_s.len() >= setups || op_share < setup_s.len() as f64 / setups as f64 {
            return Ok(());
        }
        let (again, out, s) = set_up::<W>(args.seed)?;
        again
            .check(&out, &warm)
            .map_err(|e| format!("set-up {}: {e}", setup_s.len() + 1))?;
        setup_s.push(s);
        Ok(())
    })?;
    report.metric("setup_s", probe::quantile(&setup_s, 0.5), "s");
    Ok(report)
}

/// Drive checked ops until they have taken `budget`, calling `between`
/// before each with the share of the budget used so far.
fn timed<W: Workload>(
    workload: &W,
    warm: &W::Output,
    budget: Duration,
    mut between: impl FnMut(f64) -> Result<(), String>,
) -> Result<Report, String> {
    let mut latency_ms = Vec::new();
    let mut peak_rss_mib = Vec::new();
    let mut cpu_ms = 0.0;
    let mut work = 0.0;
    let mut failed = 0u64;
    let budget_ms = budget.as_secs_f64() * 1e3;
    let mut busy_ms = 0.0;
    while latency_ms.is_empty() || busy_ms < budget_ms {
        between(busy_ms / budget_ms)?;
        probe::reset_peak_rss()?;
        let cpu_before = probe::process_cpu_ms()?;
        let (out, wall_ms) = probe::timed_ms(|| workload.op());
        cpu_ms += probe::process_cpu_ms()? - cpu_before;
        peak_rss_mib.push(probe::peak_rss_mib()?);
        latency_ms.push(wall_ms);
        busy_ms += wall_ms;
        match workload.check(&out, warm) {
            Ok(units) => work += units,
            Err(e) => {
                failed += 1;
                eprintln!("perfbench: op {} failed: {e}", latency_ms.len());
            }
        }
    }
    let ops = latency_ms.len();
    let q = |p: f64| probe::quantile(&latency_ms, p);
    eprintln!(
        "op latency over {ops} ops (ms): q1 {:.3}, median {:.3}, q3 {:.3}, p90 {:.3}, max {:.3}",
        q(0.25),
        q(0.5),
        q(0.75),
        q(0.9),
        q(1.0)
    );
    // Throughput and CPU are totals over the run, not medians: the host
    // alternates fast and slow phases lasting seconds, and a total moves
    // smoothly with the share of slow time where a median jumps between
    // the two modes. CPU time is read in 10 ms ticks, which the total
    // also smooths out.
    let mut report = Report::new(failed == 0, ops as u64, failed);
    report.metric("work_per_s", probe::ratio(work, busy_ms / 1e3), "1/s");
    report.metric("op_p50_ms", q(0.5), "ms");
    report.metric("op_p90_ms", q(0.9), "ms");
    report.metric("cpu_ms_per_op", cpu_ms / ops as f64, "ms");
    report.metric("peak_rss_mb", probe::quantile(&peak_rss_mib, 0.5), "MiB");
    Ok(report)
}

fn traced<W: Workload>(
    workload: &W,
    warm: &W::Output,
    budget: Duration,
    seed: u64,
) -> Result<Report, String> {
    let grid = grid::GridProbe::prepare(seed)?;
    let fountain = transport::FountainProbe::prepare(seed)?;
    let mut iterations = Vec::new();
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let start = Instant::now();
    while attempted == 0 || start.elapsed() < budget {
        attempted += 1;
        let traced = workload.traced_iteration(warm).and_then(|mut layers| {
            grid.measure(&mut layers)?;
            fountain.measure(&mut layers)?;
            fleet::layer_probes(seed, &mut layers)?;
            Ok(layers)
        });
        match traced {
            Ok(layers) => iterations.push(layers),
            Err(e) => {
                failed += 1;
                eprintln!("perfbench: traced iteration {attempted} failed: {e}");
            }
        }
    }
    let mut layers = probe::medians(&iterations);
    probe::derive_common(&mut layers);
    let mut report = Report::new(failed == 0, attempted, failed);
    for (name, unit) in probe::PER_LAYER {
        report.metric(name, layers.get(name).copied().unwrap_or(0.0), unit);
    }
    Ok(report)
}
