//! # thrifty-bench
//!
//! Regeneration harness for **every table and figure** in the paper's
//! evaluation (Section 6). Each `figN`/`tableN` function computes the rows
//! the corresponding plot shows — "Analysis" from the analytical framework,
//! "Experiment" from the simulated testbed — and the `reproduce` binary
//! prints them as Markdown tables (see EXPERIMENTS.md for the recorded
//! output and the paper-vs-measured commentary).
//!
//! Absolute numbers are not expected to match the paper — the substrate is
//! a simulator, not two 2011 Android phones on a live WLAN — but the
//! *shape* is: who wins, by roughly what factor, and where the crossovers
//! fall.
//!
//! Every table is a cartesian product of independent cells (each cell seeds
//! its own RNG), so the generators evaluate cells through [`par_map`] and a
//! multi-core host fills a table in roughly the wall time of its slowest
//! cell — without changing a single output value.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod chaos;
pub mod faults;
pub mod fleet;
pub mod fountain;
pub mod golden;
mod matrix;
pub mod throughput;

pub use chaos::{chaos_matrix, StormClass};
pub use faults::{fault_matrix, FaultClass};
pub use fleet::{
    bench_fleet_json, fleet_sweep, scale_sweep, ScaleBench, ScaleReport, SCALE_SIZES,
    SCALE_SIZE_FULL,
};
pub use fountain::fountain_matrix;
pub use golden::{diff_against_golden, golden_figures, parse_table_json};
pub use matrix::{LossPoint, MatrixReport, ProtocolKind};
pub use throughput::{
    bench_cipher_json, measure_cipher_throughput, validate_bench_cipher_schema, CipherThroughput,
    SEGMENT_LEN,
};

use thrifty::analytic::delay::DelayModel;
use thrifty::analytic::distortion::{DistortionModel, Observer};
use thrifty::analytic::params::{DeviceSpec, HTC_AMAZE_4G, SAMSUNG_GALAXY_S2};
use thrifty::analytic::policy::{EncryptionMode, Policy};
use thrifty::analytic::regression::SceneDistortion;
use thrifty::crypto::Algorithm;
use thrifty::energy::{CryptoLoad, PowerProfile, HTC_AMAZE_4G_POWER, SAMSUNG_GALAXY_S2_POWER};
use thrifty::sim::experiment::{Experiment, ExperimentConfig, Transport};
use thrifty::video::motion::MotionLevel;
use thrifty::video::quality::distortion_vs_distance;
use thrifty::video::scene::{SceneConfig, SceneGenerator};
use thrifty::{headline_metrics, PolicyAdvisor, PrivacyPreference};
use thrifty_fleet::{par_flat_map, par_map};
use thrifty_telemetry::{MetricsRegistry, Snapshot};

/// How many trials and frames the regeneration runs use. The paper uses 20
/// trials over 300-frame CIF clips; `quick()` keeps CI fast while `full()`
/// matches the paper's scale.
#[derive(Debug, Clone, Copy)]
pub struct Effort {
    /// Repetitions per experiment cell.
    pub trials: usize,
    /// Frames per clip.
    pub frames: usize,
}

impl Effort {
    /// Fast setting for tests and benches.
    pub fn quick() -> Self {
        Effort {
            trials: 3,
            frames: 120,
        }
    }

    /// Paper-scale setting for the recorded EXPERIMENTS.md run.
    pub fn full() -> Self {
        Effort {
            trials: 10,
            frames: 300,
        }
    }
}

/// The two content classes of the evaluation, labelled like the figures.
pub const MOTIONS: [(&str, MotionLevel); 2] =
    [("slow", MotionLevel::Low), ("fast", MotionLevel::High)];

/// The two GOP sizes of Table 1.
pub const GOPS: [usize; 2] = [30, 50];

fn cell(
    motion: MotionLevel,
    gop: usize,
    policy: Policy,
    device: DeviceSpec,
    power: PowerProfile,
    transport: Transport,
    effort: Effort,
) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::paper_cell(motion, gop, policy);
    cfg.device = device;
    cfg.power = power;
    cfg.transport = transport;
    cfg.trials = effort.trials;
    cfg.frames = effort.frames;
    cfg
}

/// One generic output row: a label plus named values, printable as Markdown.
#[derive(Debug, Clone)]
pub struct Row {
    /// Row label (left column).
    pub label: String,
    /// `(column name, value)` pairs.
    pub values: Vec<(String, f64)>,
}

/// A printable table with a title and caption.
#[derive(Debug, Clone)]
pub struct Table {
    /// Identifier, e.g. "Figure 4a".
    pub title: String,
    /// What the paper's version shows and what to compare.
    pub caption: String,
    /// Data rows.
    pub rows: Vec<Row>,
}

impl Table {
    /// Render as a Markdown table.
    pub fn to_markdown(&self) -> String {
        let mut out = format!("### {}\n\n{}\n\n", self.title, self.caption);
        if self.rows.is_empty() {
            return out;
        }
        let headers: Vec<&str> = self.rows[0]
            .values
            .iter()
            .map(|(h, _)| h.as_str())
            .collect();
        out.push_str(&format!("| | {} |\n", headers.join(" | ")));
        out.push_str(&format!("|---|{}\n", "---|".repeat(headers.len())));
        for row in &self.rows {
            let cells: Vec<String> = row.values.iter().map(|(_, v)| format_value(*v)).collect();
            out.push_str(&format!("| {} | {} |\n", row.label, cells.join(" | ")));
        }
        out.push('\n');
        out
    }
}

impl Table {
    /// Render as a JSON object (hand-rolled: the values are numbers and the
    /// labels are plain strings, so escaping only needs quotes/backslashes).
    pub fn to_json(&self) -> String {
        fn esc(s: &str) -> String {
            s.replace('\\', "\\\\").replace('"', "\\\"")
        }
        let rows: Vec<String> = self
            .rows
            .iter()
            .map(|r| {
                let vals: Vec<String> = r
                    .values
                    .iter()
                    .map(|(k, v)| {
                        let num = if v.is_finite() {
                            format!("{v}")
                        } else {
                            "null".into()
                        };
                        format!("\"{}\": {}", esc(k), num)
                    })
                    .collect();
                format!("{{\"label\": \"{}\", {}}}", esc(&r.label), vals.join(", "))
            })
            .collect();
        format!(
            "{{\"title\": \"{}\", \"rows\": [{}]}}",
            esc(&self.title),
            rows.join(", ")
        )
    }
}

fn format_value(v: f64) -> String {
    // lint:allow(num-float-eq): exact zero picks the "0" rendering; near-zero values format normally
    if v == 0.0 {
        "0".into()
    } else if v.abs() >= 100.0 {
        format!("{v:.1}")
    } else if v.abs() >= 0.01 {
        format!("{v:.3}")
    } else {
        format!("{v:.3e}")
    }
}

/// Telemetry captured while regenerating one experiment cell of a figure.
#[derive(Debug, Clone)]
pub struct CellMetrics {
    /// The cell's row label (matches the figure's row).
    pub label: String,
    /// The cell's full metrics snapshot (spans, counters, histograms).
    pub snapshot: Snapshot,
}

/// Telemetry for a whole regenerated figure: one snapshot per cell, each
/// from its own [`MetricsRegistry`], so the parallel fan-out cannot
/// interleave float accumulation — merging in fixed cell order keeps the
/// combined snapshot bit-reproducible.
#[derive(Debug, Clone)]
pub struct FigureMetrics {
    /// The figure's title (matches [`Table::title`]).
    pub title: String,
    /// One entry per cell, in the figure's deterministic row order.
    pub cells: Vec<CellMetrics>,
}

impl FigureMetrics {
    /// Fold every cell snapshot into one figure-level snapshot,
    /// deterministically (cells merge in row order).
    pub fn merged(&self) -> Snapshot {
        let mut out = Snapshot::default();
        for cell in &self.cells {
            out.merge(&cell.snapshot);
        }
        out
    }

    /// Deterministic JSON: the figure title, each cell's snapshot, and the
    /// merged figure-level snapshot.
    pub fn to_json(&self) -> String {
        fn esc(s: &str) -> String {
            s.replace('\\', "\\\\").replace('"', "\\\"")
        }
        let cells: Vec<String> = self
            .cells
            .iter()
            .map(|c| {
                format!(
                    "{{\"label\": \"{}\", \"metrics\": {}}}",
                    esc(&c.label),
                    c.snapshot.to_json()
                )
            })
            .collect();
        format!(
            "{{\"title\": \"{}\", \"cells\": [{}], \"merged\": {}}}",
            esc(&self.title),
            cells.join(", "),
            self.merged().to_json()
        )
    }
}

/// Figure 2: average distortion (MSE) vs reference distance for the three
/// motion classes, with the degree-5 fit beside the measurement.
pub fn fig2() -> Table {
    let rows = par_flat_map(&MotionLevel::ALL, |&motion| {
        let clip = SceneGenerator::new(SceneConfig::new(motion, 42)).clip(60);
        let measured = distortion_vs_distance(&clip, 4);
        let scene = SceneDistortion::measure(motion, 60, 4, 42);
        measured
            .iter()
            .enumerate()
            .map(|(i, &mse)| {
                let d = (i + 1) as f64;
                Row {
                    label: format!("{motion} motion, distance {d}"),
                    values: vec![
                        ("measured MSE".into(), mse),
                        ("degree-5 fit".into(), scene.polynomial.eval(d)),
                    ],
                }
            })
            .collect()
    });
    Table {
        title: "Figure 2 — distortion vs reference distance".into(),
        caption: "Paper: distortion grows with substitution distance and with motion level; \
                  a degree-5 polynomial tracks the curve."
            .into(),
        rows,
    }
}

/// Figures 4a–4d: eavesdropper PSNR per policy, analysis vs experiment.
pub fn fig4(gop: usize, effort: Effort) -> Table {
    let cells: Vec<_> = MOTIONS
        .iter()
        .flat_map(|&(label, motion)| {
            EncryptionMode::TABLE1
                .into_iter()
                .map(move |mode| (label, motion, mode))
        })
        .collect();
    let rows = par_map(&cells, |&(label, motion, mode)| {
        let scene = SceneDistortion::measure(motion, 60, 12, 11);
        let policy = Policy::new(Algorithm::Aes256, mode);
        let cfg = cell(
            motion,
            gop,
            policy,
            SAMSUNG_GALAXY_S2,
            SAMSUNG_GALAXY_S2_POWER,
            Transport::RtpUdp,
            effort,
        );
        let exp = Experiment::prepare(cfg);
        let analysis =
            DistortionModel::new(&exp.params, &scene).predict(policy, Observer::Eavesdropper);
        let result = exp.run();
        Row {
            label: format!("{label}, {}", mode.label()),
            values: vec![
                ("analysis PSNR (dB)".into(), analysis.psnr_db),
                ("experiment PSNR (dB)".into(), result.psnr_eve_db.mean),
                ("±95% CI".into(), result.psnr_eve_db.ci95),
            ],
        }
    });
    Table {
        title: format!("Figure 4 — eavesdropper distortion, GOP={gop}"),
        caption: "Paper: I-encryption floors slow-motion quality (≈80% drop) and hurts \
                  fast motion less (≈30%); P-encryption does the opposite; analysis \
                  tracks experiment."
            .into(),
        rows,
    }
}

/// Figure 5: eavesdropper MOS per policy (experiment, like the paper).
pub fn fig5(gop: usize, effort: Effort) -> Table {
    let cells: Vec<_> = MOTIONS
        .iter()
        .flat_map(|&(label, motion)| {
            EncryptionMode::TABLE1
                .into_iter()
                .map(move |mode| (label, motion, mode))
        })
        .collect();
    let rows = par_map(&cells, |&(label, motion, mode)| {
        let policy = Policy::new(Algorithm::Aes256, mode);
        let cfg = cell(
            motion,
            gop,
            policy,
            SAMSUNG_GALAXY_S2,
            SAMSUNG_GALAXY_S2_POWER,
            Transport::RtpUdp,
            effort,
        );
        let result = Experiment::prepare(cfg).run();
        Row {
            label: format!("{label}, {}", mode.label()),
            values: vec![
                ("MOS".into(), result.mos_eve.mean),
                ("±95% CI".into(), result.mos_eve.ci95),
            ],
        }
    });
    Table {
        title: format!("Figure 5 — eavesdropper Mean Opinion Score, GOP={gop}"),
        caption: "Paper: MOS drops to ≈1 (unviewable) for every partially encrypted flow.".into(),
        rows,
    }
}

/// Figures 7 (Samsung) and 8 (HTC): per-packet delay, analysis vs
/// experiment, for AES-256 and 3DES at both GOP sizes.
pub fn fig7_8(device: DeviceSpec, power: PowerProfile, effort: Effort) -> Table {
    fig7_8_with(device, power, effort, false).0
}

/// [`fig7_8`] with optional telemetry: when `metrics` is on, every cell runs
/// against its own registry and the per-cell snapshots come back alongside
/// the table (in row order). With `metrics` off the table is bit-identical
/// to [`fig7_8`]'s — metering consumes no RNG draws.
pub fn fig7_8_with(
    device: DeviceSpec,
    power: PowerProfile,
    effort: Effort,
    metrics: bool,
) -> (Table, Option<FigureMetrics>) {
    let mut cells = Vec::new();
    for alg in [Algorithm::Aes256, Algorithm::TripleDes] {
        for gop in GOPS {
            for (label, motion) in MOTIONS {
                for mode in EncryptionMode::TABLE1 {
                    cells.push((alg, gop, label, motion, mode));
                }
            }
        }
    }
    let results = par_map(&cells, |&(alg, gop, label, motion, mode)| {
        let policy = Policy::new(alg, mode);
        let cfg = cell(
            motion,
            gop,
            policy,
            device,
            power,
            Transport::RtpUdp,
            effort,
        );
        let exp = Experiment::prepare(cfg);
        let analysis = DelayModel::new(&exp.params).predict(policy).unwrap();
        let registry = MetricsRegistry::new(metrics);
        let result = exp.run_metered(&registry);
        let row = Row {
            label: format!("{alg}, GOP {gop}, {label}, {}", mode.label()),
            values: vec![
                ("analysis delay (ms)".into(), analysis.mean_delay_s * 1e3),
                ("experiment delay (ms)".into(), result.delay_s.mean * 1e3),
                ("±95% CI (ms)".into(), result.delay_s.ci95 * 1e3),
            ],
        };
        (row, registry.snapshot())
    });
    let title = format!("Figures 7/8 — per-packet delay on the {}", device.name);
    let (rows, snapshots): (Vec<Row>, Vec<Snapshot>) = results.into_iter().unzip();
    let figure_metrics = metrics.then(|| FigureMetrics {
        title: title.clone(),
        cells: rows
            .iter()
            .zip(snapshots)
            .map(|(row, snapshot)| CellMetrics {
                label: row.label.clone(),
                snapshot,
            })
            .collect(),
    });
    let table = Table {
        title,
        caption: "Paper: delay(none) < delay(I) < delay(P) ≤ delay(all); 3DES dominates \
                  AES-256; the faster HTC sits below the Samsung."
            .into(),
        rows,
    };
    (table, figure_metrics)
}

/// Figure 9a: delay vs fraction α of P packets encrypted on top of I.
pub fn fig9(effort: Effort) -> Table {
    let mut cells = Vec::new();
    for (dev, pow) in [
        (SAMSUNG_GALAXY_S2, SAMSUNG_GALAXY_S2_POWER),
        (HTC_AMAZE_4G, HTC_AMAZE_4G_POWER),
    ] {
        for alg in Algorithm::ALL {
            for alpha in [0.10, 0.15, 0.20, 0.25, 0.30, 0.50] {
                cells.push((dev, pow, alg, alpha));
            }
        }
    }
    let rows = par_map(&cells, |&(dev, pow, alg, alpha)| {
        let policy = Policy::new(alg, EncryptionMode::IPlusFractionP(alpha));
        let cfg = cell(
            MotionLevel::High,
            30,
            policy,
            dev,
            pow,
            Transport::RtpUdp,
            effort,
        );
        let result = Experiment::prepare(cfg).run();
        Row {
            label: format!("{}, {alg}, α={:.0}%", dev.name, alpha * 100.0),
            values: vec![("delay (ms)".into(), result.delay_s.mean * 1e3)],
        }
    });
    Table {
        title: "Figure 9a — upload latency, I + α·P encryption (fast motion, GOP 30)".into(),
        caption: "Paper: latency grows gently with α; 3DES > AES256 > AES128; \
                  HTC below Samsung."
            .into(),
        rows,
    }
}

/// Table 2: delay / PSNR / MOS for I and I+α%P on the Samsung (fast, GOP 30).
pub fn table2(effort: Effort) -> Table {
    table2_with(effort, false).0
}

/// [`table2`] with optional telemetry (see [`fig7_8_with`]).
pub fn table2_with(effort: Effort, metrics: bool) -> (Table, Option<FigureMetrics>) {
    let alphas = [0.0, 0.10, 0.15, 0.20, 0.25, 0.30, 0.50];
    let results = par_map(&alphas, |&alpha| {
        // lint:allow(num-float-eq): alpha 0.0 is an exact grid point selecting the I-frames-only mode
        let mode = if alpha == 0.0 {
            EncryptionMode::IFrames
        } else {
            EncryptionMode::IPlusFractionP(alpha)
        };
        let policy = Policy::new(Algorithm::Aes256, mode);
        let cfg = cell(
            MotionLevel::High,
            30,
            policy,
            SAMSUNG_GALAXY_S2,
            SAMSUNG_GALAXY_S2_POWER,
            Transport::RtpUdp,
            effort,
        );
        let registry = MetricsRegistry::new(metrics);
        let result = Experiment::prepare(cfg).run_metered(&registry);
        let row = Row {
            label: mode.label(),
            values: vec![
                ("delay (ms)".into(), result.delay_s.mean * 1e3),
                ("eavesdropper PSNR (dB)".into(), result.psnr_eve_db.mean),
                ("eavesdropper MOS".into(), result.mos_eve.mean),
            ],
        };
        (row, registry.snapshot())
    });
    let title = "Table 2 — delay vs distortion, I + α·P (Samsung, fast, GOP 30)".to_string();
    let (rows, snapshots): (Vec<Row>, Vec<Snapshot>) = results.into_iter().unzip();
    let figure_metrics = metrics.then(|| FigureMetrics {
        title: title.clone(),
        cells: rows
            .iter()
            .zip(snapshots)
            .map(|(row, snapshot)| CellMetrics {
                label: row.label.clone(),
                snapshot,
            })
            .collect(),
    });
    let table = Table {
        title,
        caption: "Paper: delay creeps from 48→62 ms while PSNR falls 20.7→16.0 dB and \
                  MOS 1.71→1.14; α = 20% already gives near-complete obfuscation."
            .into(),
        rows,
    };
    (table, figure_metrics)
}

/// Figures 10 (Samsung) and 11 (HTC): power per policy/GOP/motion/cipher.
pub fn fig10_11(power: PowerProfile, effort: Effort) -> Table {
    let mut cells = Vec::new();
    for (label, motion) in MOTIONS {
        for alg in [Algorithm::Aes256, Algorithm::TripleDes] {
            for gop in GOPS {
                for mode in EncryptionMode::TABLE1 {
                    cells.push((label, motion, alg, gop, mode));
                }
            }
        }
    }
    let rows = par_map(&cells, |&(label, motion, alg, gop, mode)| {
        let policy = Policy::new(alg, mode);
        // Power needs only the stream + policy, not trials.
        let cfg = cell(
            motion,
            gop,
            policy,
            SAMSUNG_GALAXY_S2,
            power,
            Transport::RtpUdp,
            effort,
        );
        let exp = Experiment::prepare(cfg);
        let load = CryptoLoad::from_stream(exp.stream(), policy);
        Row {
            label: format!("{label}, {alg}, GOP {gop}, {}", mode.label()),
            values: vec![
                ("power (W)".into(), power.power_w(&load)),
                (
                    "increase vs none (%)".into(),
                    power.relative_increase(&load) * 100.0,
                ),
            ],
        }
    });
    Table {
        title: format!("Figures 10/11 — power consumption on the {}", power.name),
        caption: "Paper: none < I < P < all; Samsung slow-motion worst case +140% (all) vs \
                  +11% (I-only); HTC increases flatter (≤50%)."
            .into(),
        rows,
    }
}

/// Figures 12/13: per-packet delay with HTTP/TCP.
pub fn fig12_13(device: DeviceSpec, power: PowerProfile, effort: Effort) -> Table {
    fig12_13_with(device, power, effort, false).0
}

/// [`fig12_13`] with optional telemetry (see [`fig7_8_with`]). On this
/// transport the snapshots also carry the `tcp_retransmit` span and the
/// `net.tcp.retransmissions` counter.
pub fn fig12_13_with(
    device: DeviceSpec,
    power: PowerProfile,
    effort: Effort,
    metrics: bool,
) -> (Table, Option<FigureMetrics>) {
    let mut cells = Vec::new();
    for alg in [Algorithm::Aes256, Algorithm::TripleDes] {
        for gop in GOPS {
            for (label, motion) in MOTIONS {
                for mode in EncryptionMode::TABLE1 {
                    cells.push((alg, gop, label, motion, mode));
                }
            }
        }
    }
    let results = par_map(&cells, |&(alg, gop, label, motion, mode)| {
        let policy = Policy::new(alg, mode);
        let cfg = cell(
            motion,
            gop,
            policy,
            device,
            power,
            Transport::HttpTcp,
            effort,
        );
        let registry = MetricsRegistry::new(metrics);
        let result = Experiment::prepare(cfg).run_metered(&registry);
        let row = Row {
            label: format!("{alg}, GOP {gop}, {label}, {}", mode.label()),
            values: vec![
                ("delay (ms)".into(), result.delay_s.mean * 1e3),
                ("±95% CI (ms)".into(), result.delay_s.ci95 * 1e3),
            ],
        };
        (row, registry.snapshot())
    });
    let title = format!("Figures 12/13 — HTTP/TCP delay on the {}", device.name);
    let (rows, snapshots): (Vec<Row>, Vec<Snapshot>) = results.into_iter().unzip();
    let figure_metrics = metrics.then(|| FigureMetrics {
        title: title.clone(),
        cells: rows
            .iter()
            .zip(snapshots)
            .map(|(row, snapshot)| CellMetrics {
                label: row.label.clone(),
                snapshot,
            })
            .collect(),
    });
    let table = Table {
        title,
        caption: "Paper: same ordering as RTP/UDP with slightly higher latency from \
                  TCP retransmissions."
            .into(),
        rows,
    };
    (table, figure_metrics)
}

/// Figures 14/15: eavesdropper distortion and MOS with HTTP/TCP.
pub fn fig14_15(gop: usize, effort: Effort) -> Table {
    let cells: Vec<_> = MOTIONS
        .iter()
        .flat_map(|&(label, motion)| {
            EncryptionMode::TABLE1
                .into_iter()
                .map(move |mode| (label, motion, mode))
        })
        .collect();
    let rows = par_map(&cells, |&(label, motion, mode)| {
        let policy = Policy::new(Algorithm::Aes256, mode);
        let cfg = cell(
            motion,
            gop,
            policy,
            SAMSUNG_GALAXY_S2,
            SAMSUNG_GALAXY_S2_POWER,
            Transport::HttpTcp,
            effort,
        );
        let result = Experiment::prepare(cfg).run();
        Row {
            label: format!("{label}, {}", mode.label()),
            values: vec![
                ("eavesdropper PSNR (dB)".into(), result.psnr_eve_db.mean),
                ("eavesdropper MOS".into(), result.mos_eve.mean),
                ("receiver PSNR (dB)".into(), result.psnr_rx_db.mean),
            ],
        }
    });
    Table {
        title: format!("Figures 14/15 — HTTP/TCP distortion and MOS, GOP={gop}"),
        caption: "Paper: the RTP/UDP distortion trends persist over TCP; reliable \
                  delivery only helps whoever can decrypt."
            .into(),
        rows,
    }
}

/// The abstract's headline numbers, recomputed (Section 1 / 6.3).
pub fn headline() -> Table {
    let cells: Vec<_> = MOTIONS
        .iter()
        .flat_map(|&(label, motion)| {
            [Algorithm::Aes256, Algorithm::TripleDes]
                .into_iter()
                .map(move |alg| (label, motion, alg))
        })
        .collect();
    let rows = par_map(&cells, |&(label, motion, alg)| {
        let advisor = PolicyAdvisor::calibrate(motion, 30, SAMSUNG_GALAXY_S2, alg);
        let h = headline_metrics(motion, &advisor);
        let rec = advisor.recommend(PrivacyPreference::Balanced);
        Row {
            label: format!("{label}, {alg} → {}", rec.policy.mode.label()),
            values: vec![
                ("delay reduction (%)".into(), h.delay_reduction * 100.0),
                ("energy savings (%)".into(), h.energy_savings * 100.0),
                ("eavesdropper MOS".into(), h.balanced_mos),
            ],
        }
    });
    Table {
        title: "Headline results — savings of the recommended policy vs encrypt-all".into(),
        caption: "Paper: delay reduced by as much as 75%, energy by as much as 92%, while \
                  the eavesdropper's stream stays unviewable."
            .into(),
        rows,
    }
}

/// Ablation A — arrival model: what MMPP burstiness buys over a Poisson fit
/// of the same mean rate (why Section 4.2.1 bothers with a 2-MMPP).
pub fn ablation_arrival_model(effort: Effort) -> Table {
    use thrifty::queueing::mmpp::Mmpp2;
    use thrifty::queueing::solver::MmppG1;
    let rows = par_map(&MOTIONS, |&(label, motion)| {
        let policy = Policy::new(Algorithm::Aes256, EncryptionMode::IFrames);
        let cfg = cell(
            motion,
            30,
            policy,
            SAMSUNG_GALAXY_S2,
            SAMSUNG_GALAXY_S2_POWER,
            Transport::RtpUdp,
            effort,
        );
        let exp = Experiment::prepare(cfg);
        let model = DelayModel::new(&exp.params);
        let mmpp_delay = model.predict(policy).unwrap().mean_delay_s;
        // Same service, Poisson arrivals at the same mean rate.
        let service = model.service_distribution(policy);
        let poisson = MmppG1::new(Mmpp2::poisson(exp.params.mmpp.mean_rate()).into(), service)
            .solve()
            .unwrap();
        let sim_delay = exp.run().delay_s.mean;
        Row {
            label: label.into(),
            values: vec![
                ("MMPP model (ms)".into(), mmpp_delay * 1e3),
                ("Poisson model (ms)".into(), poisson.mean_sojourn_s * 1e3),
                ("simulation (ms)".into(), sim_delay * 1e3),
            ],
        }
    });
    Table {
        title: "Ablation A — 2-MMPP vs Poisson arrival model (AES256/I, GOP 30)".into(),
        caption: "A Poisson fit of the same mean rate ignores the I-fragment bursts and \
                  underestimates the delay; the MMPP tracks the simulation."
            .into(),
        rows,
    }
}

/// Ablation B — P-frame intra refresh: the paper's pure frame-copy
/// concealment (r = 0) vs our refresh extension, against the experiment.
pub fn ablation_refresh(effort: Effort) -> Table {
    let rows = par_map(&MOTIONS, |&(label, motion)| {
        let policy = Policy::new(Algorithm::Aes256, EncryptionMode::IFrames);
        let scene = SceneDistortion::measure(motion, 60, 12, 11);
        let cfg = cell(
            motion,
            30,
            policy,
            SAMSUNG_GALAXY_S2,
            SAMSUNG_GALAXY_S2_POWER,
            Transport::RtpUdp,
            effort,
        );
        let exp = Experiment::prepare(cfg);
        let mut frozen = DistortionModel::new(&exp.params, &scene);
        frozen.refresh_override = Some(0.0);
        let with_refresh = DistortionModel::new(&exp.params, &scene);
        let measured = exp.run().psnr_eve_db.mean;
        Row {
            label: format!("{label}, I policy"),
            values: vec![
                (
                    "frame-copy model PSNR (dB)".into(),
                    frozen.predict(policy, Observer::Eavesdropper).psnr_db,
                ),
                (
                    "refresh model PSNR (dB)".into(),
                    with_refresh.predict(policy, Observer::Eavesdropper).psnr_db,
                ),
                ("experiment PSNR (dB)".into(), measured),
            ],
        }
    });
    Table {
        title: "Ablation B — P-frame intra refresh in the distortion model".into(),
        caption: "Pure frame-copy concealment predicts fast-motion I-only as dark as slow \
                  motion; modelling the picture P-frames repaint recovers the paper's \
                  Table 2 observation that fast/I stays partly viewable."
            .into(),
        rows,
    }
}

/// Ablation C — channel burstiness: eq. (20) assumes i.i.d. losses; measure
/// frame success under a Gilbert–Elliott channel of the same mean loss.
pub fn ablation_channel_burstiness() -> Table {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use thrifty::net::channel::{BernoulliChannel, GilbertElliottChannel, LossChannel};
    let params = thrifty::analytic::params::ScenarioParams::calibrated(
        MotionLevel::High,
        30,
        SAMSUNG_GALAXY_S2,
        5,
        0.92,
    );
    let scene = SceneDistortion::measure(MotionLevel::High, 60, 12, 11);
    let model = DistortionModel::new(&params, &scene);
    let policy = Policy::new(Algorithm::Aes256, EncryptionMode::None);
    let (pred_i, _) = model.frame_success_rates(policy, Observer::Receiver);
    let p_d = params.delivery_rate();
    let n = params.packet_stats.mean_fragments_i.round() as usize;
    let sens = params.motion.sensitivity_fraction();
    let s_min = (sens * (n - 1) as f64).ceil() as usize;
    let trials = 200_000;
    let mut rng = StdRng::seed_from_u64(31);
    let mut measure = |ch: &mut dyn FnMut(&mut StdRng) -> bool| {
        let mut ok = 0usize;
        for _ in 0..trials {
            let first = ch(&mut rng);
            let rest = (0..n - 1).filter(|_| ch(&mut rng)).count();
            if first && rest >= s_min {
                ok += 1;
            }
        }
        ok as f64 / trials as f64
    };
    let mut bern = BernoulliChannel::new(p_d);
    let bern_rate = measure(&mut |r| bern.transmit(r));
    // Bursty channel with the same long-run delivery rate.
    let mut ge = GilbertElliottChannel::new(0.02, 0.2, 0.995, p_d_bad(p_d));
    let ge_mean = ge.success_rate();
    let ge_rate = measure(&mut |r| ge.transmit(r));
    Table {
        title: "Ablation C — i.i.d. vs bursty (Gilbert–Elliott) channel losses".into(),
        caption: format!(
            "Eq. (20) assumes independent losses. At the same mean delivery rate \
             (iid {p_d:.3} vs GE {ge_mean:.3}), burstiness changes the I-frame \
             success probability — the gap bounds the model bias on bursty channels."
        ),
        rows: vec![Row {
            label: "I-frame success".into(),
            values: vec![
                ("eq. (20) prediction".into(), pred_i),
                ("iid channel (MC)".into(), bern_rate),
                ("Gilbert–Elliott (MC)".into(), ge_rate),
            ],
        }],
    }
}

/// Pick the GE bad-state delivery so the long-run rate matches `target`.
fn p_d_bad(target: f64) -> f64 {
    // stationary_good = p_bg/(p_gb+p_bg) = 0.2/0.22 ≈ 0.909 with good 0.995:
    // solve 0.909·0.995 + 0.0909·x = target.
    let pg = 0.2 / 0.22;
    (((target - pg * 0.995) / (1.0 - pg)).clamp(0.0, 1.0) * 1000.0).round() / 1000.0
}

/// Ablation D — delay percentiles per policy (the tail the mean hides),
/// from the Euler-inverted waiting-time distribution.
pub fn ablation_percentiles() -> Table {
    let params = thrifty::analytic::params::ScenarioParams::calibrated(
        MotionLevel::High,
        30,
        SAMSUNG_GALAXY_S2,
        5,
        0.92,
    );
    let model = DelayModel::new(&params);
    let mut rows = Vec::new();
    for mode in EncryptionMode::TABLE1 {
        let policy = Policy::new(Algorithm::TripleDes, mode);
        let q = model
            .predict_percentiles(policy, &[0.5, 0.95, 0.99])
            .expect("stable");
        let mean = model.predict(policy).unwrap().mean_delay_s;
        rows.push(Row {
            label: mode.label(),
            values: vec![
                ("mean (ms)".into(), mean * 1e3),
                ("p50 (ms)".into(), q[0] * 1e3),
                ("p95 (ms)".into(), q[1] * 1e3),
                ("p99 (ms)".into(), q[2] * 1e3),
            ],
        });
    }
    Table {
        title: "Ablation D — delay percentiles (3DES, fast, GOP 30)".into(),
        caption: "The waiting-time distribution (Abate–Whitt inversion of the workload \
                  transform): encryption-heavy policies stretch the tail far more than \
                  the mean suggests."
            .into(),
        rows,
    }
}

/// Ablation E — open-loop vs closed-loop producer: capping the Figure 3
/// queue (producer backpressure) removes the service/arrival-phase
/// correlation that inverts the slow-motion P-vs-I experiment bars
/// (EXPERIMENTS.md deviation 1).
pub fn ablation_producer_loop(effort: Effort) -> Table {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use thrifty::sim::sender::SenderSim;
    use thrifty::video::encoder::StatisticalEncoder;
    // Within one motion class the open/closed-loop runs share a single RNG
    // stream, so the fan-out is across motion labels only; each motion
    // re-seeds from 97 and stays bit-identical to the sequential loop.
    let rows = par_flat_map(&MOTIONS, |&(label, motion)| {
        let params = thrifty::analytic::params::ScenarioParams::calibrated(
            motion,
            30,
            SAMSUNG_GALAXY_S2,
            5,
            0.92,
        );
        let mut rng = StdRng::seed_from_u64(97);
        let stream = StatisticalEncoder::new(motion, 30).encode(effort.frames, &mut rng);
        let mean = |mode, closed: bool, rng: &mut StdRng| {
            let mut sim = SenderSim::new(&params, Policy::new(Algorithm::Aes256, mode));
            if closed {
                sim = sim.with_backlog_bound(0.5e-3);
            }
            let mut acc = 0.0;
            for _ in 0..effort.trials.max(3) {
                acc += sim.run(&stream, rng).mean_delay_s;
            }
            acc / effort.trials.max(3) as f64 * 1e3
        };
        [("open loop", false), ("closed loop", true)]
            .into_iter()
            .map(|(loop_label, closed)| Row {
                label: format!("{label}, {loop_label}"),
                values: vec![
                    (
                        "I delay (ms)".into(),
                        mean(EncryptionMode::IFrames, closed, &mut rng),
                    ),
                    (
                        "P delay (ms)".into(),
                        mean(EncryptionMode::PFrames, closed, &mut rng),
                    ),
                ],
            })
            .collect()
    });
    Table {
        title: "Ablation E — open-loop vs closed-loop producer (AES256, GOP 30)".into(),
        caption: "With an unbounded queue, encrypting the hot I-fragment burst compounds \
                  with its own queueing and slow-motion I can cost more than P; bounding \
                  the producer (the real app's bounded in-memory queue) restores the \
                  paper's delay(P) > delay(I)."
            .into(),
        rows,
    }
}

/// Ablation F — 2-phase vs 3-phase arrival model: the simulated producer
/// actually has *three* regimes (I-fragment burst, paced P packets, and an
/// idle wait for the next GOP slot). The MMPP/G/1 solver
/// ([`thrifty::queueing::solver`]) takes any number of phases, so it models
/// all three; this table shows what the extra phase buys over the paper's
/// 2-MMPP.
pub fn ablation_three_phase(effort: Effort) -> Table {
    use thrifty::queueing::matrix::Matrix;
    use thrifty::queueing::mmpp::MmppN;
    use thrifty::queueing::solver::MmppG1;
    let rows = par_map(&MOTIONS, |&(label, motion)| {
        let policy = Policy::new(Algorithm::Aes256, EncryptionMode::IFrames);
        let cfg = cell(
            motion,
            30,
            policy,
            SAMSUNG_GALAXY_S2,
            SAMSUNG_GALAXY_S2_POWER,
            Transport::RtpUdp,
            effort,
        );
        let exp = Experiment::prepare(cfg);
        let model = DelayModel::new(&exp.params);
        let two_phase = model.predict(policy).unwrap().mean_delay_s;

        // Split the paper's P phase into "P packets flowing" and a silent
        // idle tail (producer waiting for the next GOP slot), keeping the
        // long-run rate fixed. The idle fraction concentrates the P traffic
        // and is swept to show the model's sensitivity to phase structure;
        // the 2-MMPP is the 0%-idle limit.
        let m2 = exp.params.mmpp;
        let stats = &exp.params.packet_stats;
        let dur1 = 1.0 / m2.p1; // I-burst duration (unchanged)
        let dur_total = 1.0 / m2.p2; // the 2-phase model's whole P phase
        let service = model.service_distribution(policy);
        let three_phase = |idle_frac: f64| {
            let dur_p = dur_total * (1.0 - idle_frac);
            let dur_idle = dur_total * idle_frac;
            let lambda_p = stats.mean_fragments_p * 29.0 / dur_p;
            let gen = Matrix::from_rows(&[
                &[-1.0 / dur1, 1.0 / dur1, 0.0],
                &[0.0, -1.0 / dur_p, 1.0 / dur_p],
                &[1.0 / dur_idle, 0.0, -1.0 / dur_idle],
            ]);
            let three = MmppN::new(gen, vec![m2.lambda1, lambda_p, 0.0]);
            MmppG1::new(three, service.clone())
                .solve()
                .expect("3-phase model stable")
                .mean_sojourn_s
        };
        let sim = exp.run().delay_s.mean;
        Row {
            label: label.into(),
            values: vec![
                ("2-phase model (ms)".into(), two_phase * 1e3),
                ("3-phase, 10% idle (ms)".into(), three_phase(0.10) * 1e3),
                ("3-phase, 50% idle (ms)".into(), three_phase(0.50) * 1e3),
                ("simulation (ms)".into(), sim * 1e3),
            ],
        }
    });
    Table {
        title: "Ablation F — 2-phase vs 3-phase arrival model (AES256/I, GOP 30)".into(),
        caption: "Splitting the P phase into traffic + idle (long-run rate fixed) \
                  concentrates the P packets and raises the predicted delay; the \
                  simulation sits near the low-idle limit, supporting the paper's \
                  2-phase simplification of the producer."
            .into(),
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use thrifty_telemetry::Stage;

    /// The two sides of the span-decomposition identity for one snapshot.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct DelayDecomposition {
        /// Mean per-packet delay from the `end_to_end` span, seconds.
        pub end_to_end_mean_s: f64,
        /// The five pipeline-stage span totals (enqueue + encrypt + DCF backoff
        /// + transmit + TCP retransmit) divided by the end-to-end count, seconds.
        pub stage_sum_mean_s: f64,
    }

    impl DelayDecomposition {
        /// Absolute disagreement between the two sides, seconds.
        pub fn residual_s(&self) -> f64 {
            (self.end_to_end_mean_s - self.stage_sum_mean_s).abs()
        }
    }

    /// Check the decomposition identity on a snapshot: the per-stage span
    /// totals must re-assemble the end-to-end delay the figures report.
    /// `None` when the snapshot recorded no end-to-end span.
    pub fn delay_decomposition(snap: &Snapshot) -> Option<DelayDecomposition> {
        let e2e = snap.span(Stage::EndToEnd)?;
        if e2e.count == 0 {
            return None;
        }
        let stage_total: f64 = [
            Stage::Enqueue,
            Stage::Encrypt,
            Stage::DcfBackoff,
            Stage::Transmit,
            Stage::TcpRetransmit,
        ]
        .iter()
        .map(|&s| snap.span(s).map_or(0.0, |sp| sp.total_s))
        .sum();
        Some(DelayDecomposition {
            end_to_end_mean_s: e2e.mean_s(),
            stage_sum_mean_s: stage_total / e2e.count as f64,
        })
    }

    #[test]
    fn fig2_rows_cover_three_motions_and_four_distances() {
        let t = fig2();
        assert_eq!(t.rows.len(), 12);
        // Fit tracks measurement within 25% at every point.
        for row in &t.rows {
            let measured = row.values[0].1;
            let fitted = row.values[1].1;
            assert!(
                (measured - fitted).abs() <= 0.25 * measured.max(1.0),
                "{}: {measured} vs {fitted}",
                row.label
            );
        }
    }

    #[test]
    fn fig4_quick_has_expected_shape() {
        let t = fig4(30, Effort::quick());
        assert_eq!(t.rows.len(), 8);
        let find = |l: &str| {
            t.rows
                .iter()
                .find(|r| r.label == l)
                .unwrap_or_else(|| panic!("row {l}"))
                .values[1]
                .1
        };
        // slow: I-policy at the encrypt-all floor, P much higher.
        assert!(find("slow, I") < find("slow, P"));
        assert!(find("slow, none") > find("slow, I") + 5.0);
        // fast: every encrypted mode is below the clear baseline.
        assert!(find("fast, all") <= find("fast, none"));
    }

    #[test]
    fn table2_is_monotone_in_alpha() {
        let t = table2(Effort::quick());
        assert_eq!(t.rows.len(), 7);
        for w in t.rows.windows(2) {
            let (d0, d1) = (w[0].values[0].1, w[1].values[0].1);
            assert!(d1 >= d0 * 0.9, "delay should broadly grow with α");
        }
        // PSNR at α=50% below PSNR at α=0.
        assert!(t.rows.last().unwrap().values[1].1 < t.rows[0].values[1].1);
    }

    #[test]
    fn markdown_rendering_is_wellformed() {
        let md = headline().to_markdown();
        assert!(md.starts_with("### Headline results"));
        assert!(md.contains("| delay reduction (%)"));
        assert!(md.lines().filter(|l| l.starts_with('|')).count() >= 6);
    }

    #[test]
    fn json_rendering_is_wellformed() {
        let t = Table {
            title: "A \"quoted\" title".into(),
            caption: String::new(),
            rows: vec![Row {
                label: "slow, I".into(),
                values: vec![("PSNR (dB)".into(), 7.5), ("bad".into(), f64::NAN)],
            }],
        };
        let json = t.to_json();
        assert!(json.contains("\"title\": \"A \\\"quoted\\\" title\""));
        assert!(json.contains("\"label\": \"slow, I\""));
        assert!(json.contains("\"PSNR (dB)\": 7.5"));
        assert!(json.contains("\"bad\": null"));
        // Braces balance.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn ablation_a_poisson_underestimates() {
        let t = ablation_arrival_model(Effort::quick());
        for row in &t.rows {
            let mmpp = row.values[0].1;
            let poisson = row.values[1].1;
            assert!(
                poisson < mmpp,
                "{}: Poisson {poisson} should sit below MMPP {mmpp}",
                row.label
            );
        }
    }

    #[test]
    fn ablation_b_refresh_separates_fast_from_slow() {
        let t = ablation_refresh(Effort::quick());
        let fast = t.rows.iter().find(|r| r.label.starts_with("fast")).unwrap();
        let frame_copy = fast.values[0].1;
        let refresh = fast.values[1].1;
        assert!(
            refresh > frame_copy + 3.0,
            "refresh must lift fast/I PSNR: {frame_copy} -> {refresh}"
        );
        let slow = t.rows.iter().find(|r| r.label.starts_with("slow")).unwrap();
        assert!(
            (slow.values[0].1 - slow.values[1].1).abs() < 1.0,
            "slow barely moves"
        );
    }

    #[test]
    fn ablation_c_iid_matches_eq20() {
        let t = ablation_channel_burstiness();
        let row = &t.rows[0];
        let pred = row.values[0].1;
        let iid = row.values[1].1;
        assert!(
            (pred - iid).abs() < 0.02,
            "Monte-Carlo iid {iid} must validate eq. 20 {pred}"
        );
    }

    #[test]
    fn ablation_d_tails_widen_with_load() {
        let t = ablation_percentiles();
        let p99 = |label: &str| t.rows.iter().find(|r| r.label == label).unwrap().values[3].1;
        assert!(p99("none") < p99("I"));
        assert!(p99("I") < p99("all"));
        // p99 exceeds the mean for every policy.
        for row in &t.rows {
            assert!(row.values[3].1 > row.values[0].1, "{}", row.label);
        }
    }

    #[test]
    fn ablation_f_idle_concentration_raises_delay() {
        let t = ablation_three_phase(Effort::quick());
        for row in &t.rows {
            let low_idle = row.values[1].1;
            let high_idle = row.values[2].1;
            assert!(
                high_idle > low_idle,
                "{}: concentrating P traffic must raise delay ({low_idle} -> {high_idle})",
                row.label
            );
        }
    }

    /// Acceptance check: for every metered cell, the per-stage span totals
    /// must re-assemble the mean end-to-end delay the figure reports, to
    /// within 1e-9 s.
    fn assert_decomposition(table: &Table, metrics: &FigureMetrics, delay_col: usize) {
        assert_eq!(metrics.cells.len(), table.rows.len());
        for (row, cell) in table.rows.iter().zip(&metrics.cells) {
            assert_eq!(row.label, cell.label);
            let d = delay_decomposition(&cell.snapshot)
                .unwrap_or_else(|| panic!("{}: no end-to-end span", row.label));
            assert!(
                d.residual_s() < 1e-9,
                "{}: stages {} vs end-to-end {}",
                row.label,
                d.stage_sum_mean_s,
                d.end_to_end_mean_s
            );
            let reported_s = row.values[delay_col].1 / 1e3;
            assert!(
                (d.end_to_end_mean_s - reported_s).abs() < 1e-9,
                "{}: span mean {} vs reported {}",
                row.label,
                d.end_to_end_mean_s,
                reported_s
            );
        }
    }

    #[test]
    fn table2_metrics_decompose_the_reported_delay() {
        let (table, metrics) = table2_with(Effort::quick(), true);
        let metrics = metrics.expect("metrics requested");
        assert_decomposition(&table, &metrics, 0);
        // The merged figure-level snapshot preserves the identity too.
        let merged = delay_decomposition(&metrics.merged()).expect("merged span");
        assert!(merged.residual_s() < 1e-9);
    }

    #[test]
    fn fig12_13_metrics_decompose_under_tcp() {
        let effort = Effort {
            trials: 2,
            frames: 90,
        };
        let (table, metrics) =
            fig12_13_with(SAMSUNG_GALAXY_S2, SAMSUNG_GALAXY_S2_POWER, effort, true);
        let metrics = metrics.expect("metrics requested");
        assert_decomposition(&table, &metrics, 0);
        // TCP cells must carry retransmission telemetry.
        let merged = metrics.merged();
        assert!(merged.counter("net.tcp.retransmissions") > 0);
        assert!(
            merged
                .span(thrifty_telemetry::Stage::TcpRetransmit)
                .is_some(),
            "TCP transport must record the retransmit span"
        );
    }

    #[test]
    fn metered_figure_json_is_deterministic_and_wellformed() {
        let effort = Effort {
            trials: 2,
            frames: 60,
        };
        let (_, m) = table2_with(effort, true);
        let json = m.expect("metrics requested").to_json();
        assert!(json.starts_with("{\"title\": \"Table 2"));
        assert!(json.contains("\"merged\": {"));
        assert!(json.contains("\"end_to_end\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        let (_, m2) = table2_with(effort, true);
        assert_eq!(
            json,
            m2.expect("metrics").to_json(),
            "byte-identical reruns"
        );
    }

    #[test]
    fn metrics_off_returns_no_snapshots() {
        let effort = Effort {
            trials: 1,
            frames: 60,
        };
        let (table, metrics) = table2_with(effort, false);
        assert!(metrics.is_none());
        assert_eq!(table.rows.len(), 7);
    }

    #[test]
    fn parallel_generators_are_deterministic() {
        // Two runs of a par_map-backed generator must agree bit for bit:
        // the fan-out may not perturb cell seeding or row order.
        let a = fig10_11(SAMSUNG_GALAXY_S2_POWER, Effort::quick());
        let b = fig10_11(SAMSUNG_GALAXY_S2_POWER, Effort::quick());
        assert_eq!(a.rows.len(), b.rows.len());
        for (ra, rb) in a.rows.iter().zip(&b.rows) {
            assert_eq!(ra.label, rb.label);
            for ((ka, va), (kb, vb)) in ra.values.iter().zip(&rb.values) {
                assert_eq!(ka, kb);
                assert_eq!(va.to_bits(), vb.to_bits(), "{}/{ka}", ra.label);
            }
        }
    }

    #[test]
    fn power_table_shows_the_samsung_contrast() {
        let t = fig10_11(SAMSUNG_GALAXY_S2_POWER, Effort::quick());
        let find = |l: &str| {
            t.rows
                .iter()
                .find(|r| r.label == l)
                .unwrap_or_else(|| panic!("row {l}"))
                .values[1]
                .1
        };
        let i_only = find("slow, 3DES, GOP 30, I");
        let all = find("slow, 3DES, GOP 30, all");
        assert!(i_only < 25.0, "I-only increase {i_only}% (paper: 11%)");
        assert!(all > 100.0, "all increase {all}% (paper: 140%)");
    }
}
