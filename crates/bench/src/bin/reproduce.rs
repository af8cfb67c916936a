//! Regenerate every table and figure of the paper's evaluation.
//!
//! ```text
//! reproduce [--full] [--json] [--no-bench-json] [--quick] [--metrics <path>]
//!           [fig2 fig4 fig5 fig6 fig7 fig8 fig9 table2 fig10 fig11 fig12
//!            fig13 fig14 fig15 headline ablations faults fleet fountain
//!            chaos | all]
//! ```
//!
//! `--full` runs at the paper's scale (10 trials × 300 frames); the default
//! quick mode uses 3 trials × 120 frames. `--quick` is the CI smoke
//! setting of `chaos` and `fleet` (see below). Output is Markdown, ready to
//! be pasted into EXPERIMENTS.md; `--json` emits one JSON object per table
//! for machine consumption instead. Figure 6 (screenshots) is not
//! computed: `fig6` prints how to regenerate it with
//! `cargo run --release --example eavesdropper_view`.
//!
//! `--metrics <path>` switches the delay-reporting figures (7, 8, 12, 13
//! and Table 2) to their metered variants and writes one JSON telemetry
//! snapshot per figure to `<path>`: per-stage sim-time spans, traffic
//! counters and the per-packet delay histogram, per cell and merged.
//! Metering consumes no RNG draws, so the printed tables are bit-identical
//! with or without it.
//!
//! `faults` runs the robustness fault matrix (every fault class × both
//! channel models × both transports, see EXPERIMENTS.md "Fault matrix") and
//! **exits non-zero** if any cell violates the hard guarantees (a run that
//! is not bit-reproducible from its seed, or a faulty run that beats its
//! clean twin). It is excluded from `all` — it validates the testbed, not
//! the paper — and with `--metrics <path>` its per-cell snapshots are
//! written alongside the figures'.
//!
//! `fleet` runs the multi-flow scaling sweep (N ∈ {1…100} concurrent
//! uploaders × three policies via `thrifty-fleet`, see EXPERIMENTS.md
//! "Fleet scaling") and **exits non-zero** if any cell violates its
//! guarantees: N=1 byte-identity with the single-sender path, same-seed
//! bit-reproducibility, or a solve-cache hit rate ≤ 90% at N=100. Also excluded from `all`. It then drives the
//! lean event-calendar scale path out to N = 10^5 flows (10^6 with
//! `--full`) and writes `BENCH_fleet.json` — events/sec and peak RSS per N
//! (the only place wall-clock numbers appear; stdout stays byte-stable so
//! a double run diffs clean). `fleet --quick` is the CI smoke gate: the
//! N = 10^4 scale cell only, verified, under `timeout` in scripts/check.sh.
//!
//! `fountain` runs the third-protocol matrix (RTP/UDP vs HTTP/TCP vs
//! LT-fountain × the Table 1 policies × iid/burst/deep-fade loss, see
//! EXPERIMENTS.md "Fountain vs ARQ") and **exits non-zero** on any
//! violated guarantee: bit-reproducibility from the cell seed, the
//! lossless-twin ΔPSNR bound, goodput sanity, TCP completeness, and the
//! deep-fade crossover where rateless coding must reach ARQ goodput.
//! Also excluded from `all`.
//!
//! `chaos` runs the recovery soak matrix (four fault storms × three
//! transports, see EXPERIMENTS.md "Chaos soak") gated by the
//! thrifty-recover guarantees: bounded stale-key resync episodes, a
//! degradation controller that never flaps and settles on an
//! analytically stable rung, and adaptive-RTO goodput that never trails
//! (and in the deep fade strictly beats) the fixed-RTO baseline — plus
//! the usual bit-reproducibility and clean-twin ΔPSNR gates. **Exits
//! non-zero** on any violation, writes the matrix to `BENCH_recover.json`
//! (skipped by `--no-bench-json`), honours `--quick` as the CI smoke
//! setting (1 trial × 40 frames), and is excluded from `all`.
//!
//! Unknown subcommands or flags are rejected with the usage text on
//! stderr and a non-zero exit — a typo must fail loudly, not silently
//! skip the figure it meant to run.
//!
//! Every run also writes `BENCH_cipher.json` to the working directory:
//! measured OFB throughput (bytes/sec) for each cipher × backend pair plus
//! the wall time each regenerated figure took (pass `--no-bench-json` to
//! skip it, e.g. in read-only checkouts).

use std::time::{Duration, Instant};

use thrifty_bench::*;

/// Every figure/table selector the binary understands.
const SUBCOMMANDS: [&str; 21] = [
    "fig2",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "table2",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "fig15",
    "headline",
    "ablations",
    "faults",
    "fleet",
    "fountain",
    "chaos",
    "all",
];

/// Every flag the binary understands (`--metrics` takes a path value).
const FLAGS: [&str; 5] = [
    "--full",
    "--json",
    "--no-bench-json",
    "--quick",
    "--metrics",
];

fn usage() -> String {
    format!(
        "usage: reproduce [--full] [--json] [--no-bench-json] [--quick] \
         [--metrics <path>] [{} | all]",
        SUBCOMMANDS[..SUBCOMMANDS.len() - 1].join(" ")
    )
}

/// Write one output document, reporting the outcome on stderr.
fn write_artifact(path: &str, doc: &str) {
    match std::fs::write(path, doc) {
        Ok(()) => eprintln!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

/// Print every violation on stderr under `what` and exit 1 if there is any.
fn exit_on_violations(what: &str, violations: &[String]) {
    if violations.is_empty() {
        return;
    }
    for v in violations {
        eprintln!("{what} violation: {v}");
    }
    std::process::exit(1);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let full = args.iter().any(|a| a == "--full");
    let json = args.iter().any(|a| a == "--json");
    let skip_bench_json = args.iter().any(|a| a == "--no-bench-json");
    let metrics_value_idx = args.iter().position(|a| a == "--metrics").map(|i| i + 1);
    let metrics_path: Option<String> =
        metrics_value_idx.map(|i| match args.get(i).filter(|a| !a.starts_with("--")) {
            Some(path) => path.clone(),
            None => {
                eprintln!("--metrics requires a file path argument");
                std::process::exit(2);
            }
        });
    let metrics_on = metrics_path.is_some();
    // Reject anything the binary does not understand: a typo must fail
    // loudly instead of silently skipping the figure it meant to run.
    for (i, arg) in args.iter().enumerate() {
        if Some(i) == metrics_value_idx {
            continue;
        }
        if arg.starts_with("--") {
            if !FLAGS.contains(&arg.as_str()) {
                eprintln!("unknown flag: {arg}\n{}", usage());
                std::process::exit(2);
            }
        } else if !SUBCOMMANDS.contains(&arg.as_str()) {
            eprintln!("unknown subcommand: {arg}\n{}", usage());
            std::process::exit(2);
        }
    }
    let effort = if full {
        Effort::full()
    } else {
        Effort::quick()
    };
    let emit = |t: &Table| {
        if json {
            println!("{}", t.to_json());
        } else {
            print!("{}", t.to_markdown());
        }
    };
    let wanted: Vec<&str> = args
        .iter()
        .enumerate()
        .filter(|&(i, a)| !a.starts_with("--") && Some(i) != metrics_value_idx)
        .map(|(_, a)| a.as_str())
        .collect();
    let all = wanted.is_empty() || wanted.contains(&"all");
    let want = |name: &str| all || wanted.contains(&name);
    // (figure name, wall seconds) for BENCH_cipher.json.
    let mut timings: Vec<(String, f64)> = Vec::new();
    // One telemetry document per metered figure, in emission order.
    let mut figure_metrics: Vec<FigureMetrics> = Vec::new();

    println!(
        "# Reproduction run ({} mode: {} trials × {} frames)\n",
        if full { "full" } else { "quick" },
        effort.trials,
        effort.frames
    );

    let timed = |name: &str, timings: &mut Vec<(String, f64)>, f: &mut dyn FnMut()| {
        // lint:allow(det-wall-clock): wall-clock only annotates BENCH_cipher.json timings; figure values are sim-time deterministic
        let start = Instant::now();
        f();
        timings.push((name.to_string(), start.elapsed().as_secs_f64()));
    };

    if want("fig2") {
        timed("fig2", &mut timings, &mut || emit(&fig2()));
    }
    if want("fig4") {
        timed("fig4", &mut timings, &mut || {
            for gop in GOPS {
                emit(&fig4(gop, effort));
            }
        });
    }
    if want("fig5") {
        timed("fig5", &mut timings, &mut || {
            for gop in GOPS {
                emit(&fig5(gop, effort));
            }
        });
    }
    if want("fig6") || all {
        println!(
            "### Figure 6 — eavesdropper screenshots\n\nRegenerate with \
             `cargo run --release --example eavesdropper_view` (PGM files under \
             `target/eavesdropper_view/`).\n"
        );
    }
    if want("fig7") {
        timed("fig7", &mut timings, &mut || {
            let (t, m) = fig7_8_with(
                thrifty::analytic::params::SAMSUNG_GALAXY_S2,
                thrifty::energy::SAMSUNG_GALAXY_S2_POWER,
                effort,
                metrics_on,
            );
            emit(&t);
            figure_metrics.extend(m);
        });
    }
    if want("fig8") {
        timed("fig8", &mut timings, &mut || {
            let (t, m) = fig7_8_with(
                thrifty::analytic::params::HTC_AMAZE_4G,
                thrifty::energy::HTC_AMAZE_4G_POWER,
                effort,
                metrics_on,
            );
            emit(&t);
            figure_metrics.extend(m);
        });
    }
    if want("fig9") {
        timed("fig9", &mut timings, &mut || emit(&fig9(effort)));
    }
    if want("table2") {
        timed("table2", &mut timings, &mut || {
            let (t, m) = table2_with(effort, metrics_on);
            emit(&t);
            figure_metrics.extend(m);
        });
    }
    if want("fig10") {
        timed("fig10", &mut timings, &mut || {
            emit(&fig10_11(thrifty::energy::SAMSUNG_GALAXY_S2_POWER, effort))
        });
    }
    if want("fig11") {
        timed("fig11", &mut timings, &mut || {
            emit(&fig10_11(thrifty::energy::HTC_AMAZE_4G_POWER, effort))
        });
    }
    if want("fig12") {
        timed("fig12", &mut timings, &mut || {
            let (t, m) = fig12_13_with(
                thrifty::analytic::params::SAMSUNG_GALAXY_S2,
                thrifty::energy::SAMSUNG_GALAXY_S2_POWER,
                effort,
                metrics_on,
            );
            emit(&t);
            figure_metrics.extend(m);
        });
    }
    if want("fig13") {
        timed("fig13", &mut timings, &mut || {
            let (t, m) = fig12_13_with(
                thrifty::analytic::params::HTC_AMAZE_4G,
                thrifty::energy::HTC_AMAZE_4G_POWER,
                effort,
                metrics_on,
            );
            emit(&t);
            figure_metrics.extend(m);
        });
    }
    if want("fig14") || want("fig15") {
        timed("fig14_15", &mut timings, &mut || {
            for gop in GOPS {
                emit(&fig14_15(gop, effort));
            }
        });
    }
    if want("headline") {
        timed("headline", &mut timings, &mut || emit(&headline()));
    }
    // The testbed validators (`fleet`, then the `fountain`, `chaos` and
    // `faults` matrices) validate the engine rather than a paper figure, so
    // they run only when named, in this fixed order, and each exits 1
    // after printing its violations, if it has any.
    let quick = args.iter().any(|a| a == "--quick");
    // `fleet` scales the testbed out to N concurrent uploaders and
    // self-verifies its determinism/caching guarantees: an N=1 cell that
    // diverges from the single-sender path, a same-seed metered run that is
    // not bit-reproducible, or a solve-cache hit rate ≤ 90% on the 100-flow
    // cells are violations.
    if wanted.contains(&"fleet") {
        let mut violations = Vec::new();
        if !quick {
            timed("fleet", &mut timings, &mut || {
                let report = fleet_sweep(effort);
                emit(&report.table);
                violations = report.violations;
                if metrics_on {
                    figure_metrics.push(report.metrics);
                }
            });
        }
        // The event-calendar scale path. `--quick` is the CI smoke gate
        // (one N = 10^4 cell under `timeout` in scripts/check.sh); the
        // default sweeps to 10^5 and `--full` adds the 10^6 point.
        let scale_sizes: Vec<usize> = if quick {
            vec![10_000]
        } else {
            let mut sizes = SCALE_SIZES.to_vec();
            if full {
                sizes.push(SCALE_SIZE_FULL);
            }
            sizes
        };
        let mut scale_bench = Vec::new();
        timed("fleet-scale", &mut timings, &mut || {
            let report = scale_sweep(&scale_sizes);
            emit(&report.table);
            violations.extend(report.violations);
            scale_bench = report.bench;
        });
        if !skip_bench_json {
            write_artifact("BENCH_fleet.json", &bench_fleet_json(&scale_bench));
        }
        exit_on_violations("fleet-sweep", &violations);
    }
    // The self-verifying matrices (see the module docs above for what each
    // one checks). `chaos` honours `--quick` and records its table to
    // BENCH_recover.json.
    let matrices = [
        (
            "fountain",
            "fountain-matrix",
            fountain_matrix as fn(Effort) -> MatrixReport,
        ),
        ("chaos", "chaos-matrix", chaos_matrix),
        ("faults", "fault-matrix", fault_matrix),
    ];
    for (name, what, generate) in matrices {
        if !wanted.contains(&name) {
            continue;
        }
        let matrix_effort = if name == "chaos" && quick {
            Effort {
                trials: 1,
                frames: 40,
            }
        } else {
            effort
        };
        let mut report = None;
        timed(name, &mut timings, &mut || {
            let r = generate(matrix_effort);
            emit(&r.table);
            report = Some(r);
        });
        let Some(report) = report else { continue };
        if metrics_on {
            figure_metrics.push(report.metrics);
        }
        if name == "chaos" && !skip_bench_json {
            let doc = format!("{}\n", report.table.to_json());
            write_artifact("BENCH_recover.json", &doc);
        }
        exit_on_violations(what, &report.violations);
    }
    if want("ablations") {
        timed("ablations", &mut timings, &mut || {
            emit(&ablation_arrival_model(effort));
            emit(&ablation_refresh(effort));
            emit(&ablation_channel_burstiness());
            emit(&ablation_percentiles());
            emit(&ablation_producer_loop(effort));
            emit(&ablation_three_phase(effort));
        });
    }

    if let Some(path) = &metrics_path {
        let figures: Vec<String> = figure_metrics.iter().map(|m| m.to_json()).collect();
        let doc = format!("{{\"figures\": [{}]}}\n", figures.join(", "));
        write_artifact(path, &doc);
    }

    if !skip_bench_json {
        let ciphers = measure_cipher_throughput(SEGMENT_LEN, Duration::from_millis(120));
        let doc = bench_cipher_json(&ciphers, &timings);
        // Shape-check before writing: the freshly measured document must
        // cover every (algorithm × backend) pair with every schema key, so
        // the artifact on disk can never lag behind the workspace again.
        match validate_bench_cipher_schema(&doc) {
            Ok(()) => match std::fs::write("BENCH_cipher.json", &doc) {
                Ok(()) => eprintln!("wrote BENCH_cipher.json"),
                Err(e) => eprintln!("could not write BENCH_cipher.json: {e}"),
            },
            Err(e) => {
                eprintln!("refusing to write stale/malformed BENCH_cipher.json: {e}");
                std::process::exit(1);
            }
        }
    }
}
