//! The paper-grid probe every traced run takes: the quick-effort cells of
//! Figures 7 and 12 on the Samsung, fanned out through `par_map` as the
//! figure generators do, and replayed under spans for the `video`,
//! `analytic` and `sim` layers.

use rand::rngs::StdRng;
use rand::SeedableRng;
use thrifty_analytic::delay::DelayModel;
use thrifty_analytic::params::{ScenarioParams, SAMSUNG_GALAXY_S2};
use thrifty_analytic::policy::{EncryptionMode, Policy};
use thrifty_bench::{fig12_13_with, fig7_8_with, Effort, GOPS, MOTIONS};
use thrifty_crypto::Algorithm;
use thrifty_energy::{CryptoLoad, SAMSUNG_GALAXY_S2_POWER};
use thrifty_fleet::par_map;
use thrifty_net::tcp::{MeteredTcp, TcpLatencyModel};
use thrifty_sim::experiment::{Experiment, ExperimentConfig, ExperimentResult, Transport};
use thrifty_sim::{SenderSim, Summary};
use thrifty_telemetry::MetricsRegistry;
use thrifty_video::encoder::StatisticalEncoder;
use thrifty_video::quality::{measure_quality, RefreshingDecoder};
use thrifty_video::scene::{SceneConfig, SceneGenerator};

use crate::probe::{self, Layer, Layers, Tracer};
use crate::DEFAULT_SEED;

/// The grid: every Figure 7 cell (RTP/UDP) followed by every Figure 12
/// cell (HTTP/TCP), each in its figure's row order.
pub struct GridProbe {
    cells: Vec<ExperimentConfig>,
    /// The untraced op's cells as bits, which every traced op must equal.
    want: Vec<Vec<u64>>,
}

/// One cell's analytic delay prediction and experiment result.
#[derive(Debug, Clone)]
pub struct CellOut {
    predicted_delay_s: f64,
    result: ExperimentResult,
}

impl CellOut {
    /// Every number of the cell as bits: what the equality checks compare.
    fn bits(&self) -> Vec<u64> {
        let r = &self.result;
        let mut bits = vec![
            self.predicted_delay_s.to_bits(),
            r.power_w.to_bits(),
            r.encrypted_fraction.to_bits(),
        ];
        for s in [
            &r.delay_s,
            &r.psnr_eve_db,
            &r.mos_eve,
            &r.psnr_rx_db,
            &r.mos_rx,
            &r.encryption_s,
        ] {
            bits.extend([
                s.n as u64,
                s.mean.to_bits(),
                s.std_dev.to_bits(),
                s.ci95.to_bits(),
            ]);
        }
        bits
    }
}

/// One op's cells, in grid order.
pub type GridOut = Vec<Result<CellOut, String>>;

fn grid_bits(out: &GridOut) -> Result<Vec<Vec<u64>>, String> {
    out.iter()
        .enumerate()
        .map(|(i, cell)| {
            cell.as_ref()
                .map(CellOut::bits)
                .map_err(|e| format!("cell {i}: {e}"))
        })
        .collect()
}

/// `Experiment::prepare` + `DelayModel::predict` + `Experiment::run`, the
/// per-cell work of the figure generators; metered into `metrics` when
/// given.
fn run_cell(cfg: &ExperimentConfig, metrics: Option<&MetricsRegistry>) -> Result<CellOut, String> {
    let exp = Experiment::prepare(*cfg);
    let predicted_delay_s = DelayModel::new(&exp.params)
        .predict(cfg.policy)
        .map_err(|e| format!("delay model: {e:?}"))?
        .mean_delay_s;
    let result = match metrics {
        Some(registry) => exp.run_metered(registry),
        None => exp.run(),
    };
    Ok(CellOut {
        predicted_delay_s,
        result,
    })
}

impl GridProbe {
    /// Build the grid from `seed`, run the untraced op once and check it:
    /// every cell finite and, at the default seed, every cell equal bit for
    /// bit to the row values of the figure tables `reproduce` prints.
    pub fn prepare(seed: u64) -> Result<Self, String> {
        let effort = Effort::quick();
        let mut cells = Vec::new();
        for transport in [Transport::RtpUdp, Transport::HttpTcp] {
            for alg in [Algorithm::Aes256, Algorithm::TripleDes] {
                for gop in GOPS {
                    for (_, motion) in MOTIONS {
                        for mode in EncryptionMode::TABLE1 {
                            let mut cfg =
                                ExperimentConfig::paper_cell(motion, gop, Policy::new(alg, mode));
                            cfg.transport = transport;
                            cfg.trials = effort.trials;
                            cfg.frames = effort.frames;
                            cfg.seed = seed;
                            cells.push(cfg);
                        }
                    }
                }
            }
        }
        let warm = par_map(&cells, |cfg| run_cell(cfg, None));
        let want = grid_bits(&warm).map_err(|e| format!("paper grid: {e}"))?;
        if want.len() != cells.len() {
            return Err(format!(
                "paper grid: {} cells for a {}-cell grid",
                want.len(),
                cells.len()
            ));
        }
        if let Some(i) = want
            .iter()
            .position(|c| !c.iter().all(|&b| f64::from_bits(b).is_finite()))
        {
            return Err(format!("paper grid: cell {i} holds a non-finite value"));
        }
        if seed == DEFAULT_SEED {
            same_as_figures(&warm).map_err(|e| format!("paper grid: {e}"))?;
        }
        Ok(GridProbe { cells, want })
    }

    /// One traced iteration: the op again with its counters on, and its
    /// layer calls replayed under spans. Both must reproduce the untraced
    /// op's cells bit for bit. Records the grid's layers and counts, and
    /// `par_map`'s efficiency on its uneven cells: the single-threaded
    /// replay's time over the op's wall time on every worker.
    pub fn measure(&self, layers: &mut Layers) -> Result<(), String> {
        let (metered, real_ms) = probe::timed_ms(|| {
            par_map(&self.cells, |cfg| {
                let registry = MetricsRegistry::enabled();
                let out = run_cell(cfg, Some(&registry));
                (out, registry.snapshot())
            })
        });
        let (cells, snapshots): (GridOut, Vec<_>) = metered.into_iter().unzip();
        if grid_bits(&cells)? != self.want {
            return Err("the metered grid differs from the untraced grid".into());
        }
        let packets: u64 = snapshots
            .iter()
            .map(|s| s.counter("sim.packets.I") + s.counter("sim.packets.P"))
            .sum();
        let mut tracer = Tracer::new(true);
        let (on, on_ms) = probe::timed_ms(|| replay(&self.cells, &mut tracer));
        if grid_bits(&on)? != self.want {
            return Err("the replayed grid differs from the untraced grid".into());
        }
        tracer.export_spans(layers, &Layer::GRID);
        let scored: usize = self.cells.iter().map(|c| 2 * c.frames * c.trials).sum();
        let workers = probe::par_map_workers(self.cells.len()) as f64;
        layers.insert("video.frames_scored", scored as f64);
        layers.insert("analytic.solves", (2 * self.cells.len()) as f64);
        // The sender dispatches one calendar event per simulated packet.
        layers.insert("sim.packets_simulated", packets as f64);
        layers.insert("des.events", packets as f64);
        layers.insert(
            "fleet.par_map_efficiency",
            probe::ratio(on_ms, workers * real_ms),
        );
        Ok(())
    }
}

/// At the default seed the grid is exactly the two figures `reproduce`
/// prints: every row value must match bit for bit.
fn same_as_figures(warm: &GridOut) -> Result<(), String> {
    let effort = Effort::quick();
    let fig7 = fig7_8_with(SAMSUNG_GALAXY_S2, SAMSUNG_GALAXY_S2_POWER, effort, false).0;
    let fig12 = fig12_13_with(SAMSUNG_GALAXY_S2, SAMSUNG_GALAXY_S2_POWER, effort, false).0;
    if fig7.rows.len() + fig12.rows.len() != warm.len() {
        return Err("the grid and the figures have different cell counts".into());
    }
    let (udp, tcp) = warm.split_at(fig7.rows.len());
    for (row, cell) in fig7.rows.iter().zip(udp) {
        let c = cell.as_ref()?;
        let d = &c.result.delay_s;
        let want = [c.predicted_delay_s * 1e3, d.mean * 1e3, d.ci95 * 1e3];
        same_row(&row.label, &row.values, &want)?;
    }
    for (row, cell) in fig12.rows.iter().zip(tcp) {
        let d = &cell.as_ref()?.result.delay_s;
        same_row(&row.label, &row.values, &[d.mean * 1e3, d.ci95 * 1e3])?;
    }
    Ok(())
}

fn same_row(label: &str, values: &[(String, f64)], want: &[f64]) -> Result<(), String> {
    let got: Vec<u64> = values.iter().map(|(_, v)| v.to_bits()).collect();
    let want: Vec<u64> = want.iter().map(|v| v.to_bits()).collect();
    if got == want {
        Ok(())
    } else {
        Err(format!("row '{label}' differs from the grid cell"))
    }
}

fn replay(cells: &[ExperimentConfig], tracer: &mut Tracer) -> GridOut {
    tracer.open_every_layer();
    cells.iter().map(|cfg| replay_cell(cfg, tracer)).collect()
}

/// One cell with `Experiment::prepare` and `Experiment::run` unrolled into
/// the public calls they make, each under its layer's span. Same calls,
/// same seeds, so the same bits as [`run_cell`].
fn replay_cell(cfg: &ExperimentConfig, t: &mut Tracer) -> Result<CellOut, String> {
    let params = t.within(Layer::AnalyticSolve, || {
        ScenarioParams::calibrated(
            cfg.motion,
            cfg.gop_size,
            cfg.device,
            cfg.stations,
            cfg.target_rho,
        )
    });
    let stream = t.within(Layer::VideoEncode, || {
        StatisticalEncoder::new(cfg.motion, cfg.gop_size)
            .encode(cfg.frames, &mut StdRng::seed_from_u64(cfg.seed))
    });
    let clip = t.within(Layer::VideoSynth, || {
        SceneGenerator::new(SceneConfig {
            resolution: cfg.resolution,
            motion: cfg.motion,
            seed: cfg.seed,
            fps: 30.0,
        })
        .clip(cfg.frames)
    });
    let predicted_delay_s = t
        .within(Layer::AnalyticSolve, || {
            DelayModel::new(&params).predict(cfg.policy)
        })
        .map_err(|e| format!("delay model: {e:?}"))?
        .mean_delay_s;

    let disabled = MetricsRegistry::disabled();
    let mut run_params = params.clone();
    let tcp = match cfg.transport {
        Transport::RtpUdp => None,
        Transport::HttpTcp => {
            run_params.mac_retries = 7;
            let loss = 1.0 - params.delivery_rate();
            Some(MeteredTcp::new(TcpLatencyModel::new(loss, 0.01), &disabled))
        }
    };
    let sensitivity = cfg.motion.sensitivity_fraction();
    let decoder = RefreshingDecoder::new(cfg.motion.p_refresh_fraction());
    let mut delays = Vec::with_capacity(cfg.trials);
    let mut enc_times = Vec::with_capacity(cfg.trials);
    let (mut psnr_eve, mut mos_eve, mut psnr_rx, mut mos_rx) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut encrypted = 0.0;
    for trial in 0..cfg.trials {
        let mut rng = StdRng::seed_from_u64(cfg.seed + 1000 + trial as u64);
        let (summary, rx_flags, eve_flags) = t.within(Layer::SimSender, || {
            let mut summary = SenderSim::new(&run_params, cfg.policy).run(&stream, &mut rng);
            if let Some(model) = &tcp {
                for r in summary.records.iter_mut() {
                    r.service_s += model.sample_extra_delay_s(&mut rng);
                }
                let n = summary.records.len().max(1) as f64;
                summary.mean_delay_s = summary.records.iter().map(|r| r.delay_s()).sum::<f64>() / n;
            }
            let rx = summary.receiver_frame_flags(cfg.frames, sensitivity);
            let eve = summary.eavesdropper_frame_flags(cfg.frames, sensitivity);
            (summary, rx, eve)
        });
        delays.push(summary.mean_delay_s);
        enc_times.push(summary.mean_encryption_s);
        encrypted += summary.capture.encrypted_fraction();
        let (rx_rec, eve_rec) = t.within(Layer::VideoConceal, || {
            (
                decoder.reconstruct(&clip, &rx_flags, cfg.gop_size),
                decoder.reconstruct(&clip, &eve_flags, cfg.gop_size),
            )
        });
        let (rx_q, eve_q) = t.within(Layer::VideoPsnr, || {
            (
                measure_quality(&clip, &rx_rec),
                measure_quality(&clip, &eve_rec),
            )
        });
        psnr_rx.push(rx_q.psnr_of_mean_mse);
        mos_rx.push(rx_q.score);
        psnr_eve.push(eve_q.psnr_of_mean_mse);
        mos_eve.push(eve_q.score);
    }
    let load = CryptoLoad::from_stream(&stream, cfg.policy);
    Ok(CellOut {
        predicted_delay_s,
        result: ExperimentResult {
            delay_s: Summary::of(&delays),
            psnr_eve_db: Summary::of(&psnr_eve),
            mos_eve: Summary::of(&mos_eve),
            psnr_rx_db: Summary::of(&psnr_rx),
            mos_rx: Summary::of(&mos_rx),
            power_w: cfg.power.power_w(&load),
            encrypted_fraction: encrypted / cfg.trials as f64,
            encryption_s: Summary::of(&enc_times),
        },
    })
}
