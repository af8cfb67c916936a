//! IEEE 802.11 DCF fixed-point model and 802.11g airtime arithmetic.
//!
//! The paper computes its packet success rate `p_s` with the fixed-point
//! MAC/PHY model of Baras et al. \[13\]; that technical report is not
//! publicly archived, so we substitute the canonical fixed-point analysis
//! of the same protocol — Bianchi's saturated DCF model (IEEE JSAC 2000) —
//! which exposes exactly the quantities Section 4 consumes:
//!
//! * the conditional collision probability `p` and attempt rate `τ`,
//!   solved as a fixed point;
//! * the **packet success rate** `p_s = (1 − τ)^{n−1} · (1 − PER)`
//!   (no collision with the other `n − 1` stations, no channel error);
//! * the mean contention-window wait, from which the paper's exponential
//!   backoff rate `λ_b` (eq. 7) is derived;
//! * 802.11g frame airtime for the transmission time `T_t` (eqs. 13, 16).

/// PHY/MAC timing and rate parameters (defaults: 802.11g, ERP-OFDM).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhyParams {
    /// Data rate for the payload portion, bits/s.
    pub data_rate_bps: f64,
    /// Control-response (ACK) rate, bits/s.
    pub basic_rate_bps: f64,
    /// Slot time, seconds.
    pub slot_s: f64,
    /// SIFS, seconds.
    pub sifs_s: f64,
    /// DIFS, seconds.
    pub difs_s: f64,
    /// PHY preamble + header time per frame, seconds.
    pub phy_overhead_s: f64,
    /// MAC header + FCS bytes added to each data frame.
    pub mac_overhead_bytes: usize,
    /// ACK frame length, bytes.
    pub ack_bytes: usize,
    /// Minimum contention window (W₀ slots).
    pub cw_min: u32,
    /// Number of backoff stages (CWmax = 2^m · CWmin).
    pub backoff_stages: u32,
}

impl PhyParams {
    /// IEEE 802.11g defaults at 54 Mbit/s (the paper's testbed, Table 1).
    pub fn g_54mbps() -> Self {
        PhyParams {
            data_rate_bps: 54e6,
            basic_rate_bps: 24e6,
            slot_s: 9e-6,
            sifs_s: 10e-6,
            difs_s: 28e-6,
            phy_overhead_s: 20e-6,
            mac_overhead_bytes: 28, // 24-byte MAC header + 4-byte FCS
            ack_bytes: 14,
            cw_min: 16,
            backoff_stages: 6,
        }
    }

    /// Airtime of one data frame carrying `payload_bytes` (RTP/UDP/IP
    /// payload included by the caller), including the SIFS + ACK exchange.
    pub fn tx_time_s(&self, payload_bytes: usize) -> f64 {
        let data_bits = 8.0 * (payload_bytes + self.mac_overhead_bytes) as f64;
        let ack_bits = 8.0 * self.ack_bytes as f64;
        self.difs_s
            + self.phy_overhead_s
            + data_bits / self.data_rate_bps
            + self.sifs_s
            + self.phy_overhead_s
            + ack_bits / self.basic_rate_bps
    }
}

/// Solved operating point of the DCF fixed point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DcfSolution {
    /// Per-slot transmission attempt probability of a station (τ).
    pub tau: f64,
    /// Conditional collision probability seen by an attempt (p).
    pub collision_prob: f64,
    /// Packet success rate `p_s` including channel errors — the paper's key
    /// network parameter (Section 4.1).
    pub packet_success_rate: f64,
    /// Mean single backoff wait after a collision, seconds.
    pub mean_backoff_wait_s: f64,
    /// Rate `λ_b` of the exponential backoff-interval model in eq. (7).
    pub backoff_rate_hz: f64,
}

/// Why a DCF model could not be built or solved.
///
/// The model's fields are public (so calibrated scenarios can be edited in
/// place); a struct assembled with degenerate values used to drive the
/// fixed-point iteration into `powf` of a negative base — a NaN that then
/// leaked into every downstream delay figure. [`DcfModel::try_solve`]
/// reports these inputs as errors instead.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DcfError {
    /// `stations = 0`: the model needs at least the sender itself.
    NoStations,
    /// The channel PER is outside `[0, 1)` (1.0 means no packet ever
    /// succeeds — the saturation point where `p_s = 0` and the mean backoff
    /// time diverges).
    InvalidPer(f64),
    /// A PHY timing/window parameter is non-finite or non-positive.
    InvalidPhy,
}

impl std::fmt::Display for DcfError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DcfError::NoStations => write!(f, "need at least the sender itself"),
            DcfError::InvalidPer(per) => write!(f, "PER must be in [0, 1), got {per}"),
            DcfError::InvalidPhy => write!(f, "PHY parameters must be finite and positive"),
        }
    }
}

impl std::error::Error for DcfError {}

/// Bianchi DCF model: `n` contending stations plus a channel packet error
/// rate (PER) for non-collision losses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DcfModel {
    /// Number of contending stations on the WLAN (≥ 1).
    pub stations: usize,
    /// Packet error rate of the radio channel itself (0..1).
    pub channel_per: f64,
    /// PHY parameters.
    pub phy: PhyParams,
}

impl DcfModel {
    /// Build a model; panics on nonsensical inputs.
    pub fn new(stations: usize, channel_per: f64, phy: PhyParams) -> Self {
        match Self::try_new(stations, channel_per, phy) {
            Ok(m) => m,
            Err(DcfError::NoStations) => panic!("need at least the sender itself"),
            Err(DcfError::InvalidPer(_)) => panic!("PER must be in [0, 1)"),
            Err(e) => panic!("{e}"),
        }
    }

    /// Build a model, reporting degenerate inputs as [`DcfError`]s.
    pub fn try_new(stations: usize, channel_per: f64, phy: PhyParams) -> Result<Self, DcfError> {
        let model = DcfModel {
            stations,
            channel_per,
            phy,
        };
        model.validate()?;
        Ok(model)
    }

    fn validate(&self) -> Result<(), DcfError> {
        if self.stations == 0 {
            return Err(DcfError::NoStations);
        }
        if !(0.0..1.0).contains(&self.channel_per) {
            return Err(DcfError::InvalidPer(self.channel_per));
        }
        let phy = &self.phy;
        let times_finite = [
            phy.data_rate_bps,
            phy.basic_rate_bps,
            phy.slot_s,
            phy.sifs_s,
            phy.difs_s,
            phy.phy_overhead_s,
        ]
        .iter()
        .all(|t| t.is_finite() && *t > 0.0);
        if !times_finite || phy.cw_min == 0 {
            return Err(DcfError::InvalidPhy);
        }
        Ok(())
    }

    /// Bianchi's τ(p): attempt probability given collision probability.
    fn tau_of_p(&self, p: f64) -> f64 {
        let w = self.phy.cw_min as f64;
        let m = self.phy.backoff_stages as f64;
        if p >= 1.0 {
            return 0.0;
        }
        let num = 2.0 * (1.0 - 2.0 * p);
        let den = (1.0 - 2.0 * p) * (w + 1.0) + p * w * (1.0 - (2.0 * p).powf(m));
        num / den
    }

    /// Solve the fixed point `p = 1 − (1 − τ(p))^{n−1}` by damped iteration.
    ///
    /// Panics if the model's (public) fields were edited into a degenerate
    /// state after construction; use [`try_solve`](Self::try_solve) to get a
    /// `Result` instead. Never returns NaN.
    pub fn solve(&self) -> DcfSolution {
        self.try_solve()
            .unwrap_or_else(|e| panic!("DCF model is degenerate: {e}"))
    }

    /// Solve the fixed point, validating the model first so degenerate
    /// inputs (`stations = 0`, `channel_per ≥ 1`, broken PHY timings)
    /// surface as [`DcfError`]s rather than NaN operating points.
    pub fn try_solve(&self) -> Result<DcfSolution, DcfError> {
        self.validate()?;
        let n = self.stations as f64;
        let mut p = 0.1;
        for _ in 0..10_000 {
            let tau = self.tau_of_p(p);
            let p_next = 1.0 - (1.0 - tau).powf(n - 1.0);
            let p_new = 0.5 * p + 0.5 * p_next;
            if (p_new - p).abs() < 1e-12 {
                p = p_new;
                break;
            }
            p = p_new;
        }
        let tau = self.tau_of_p(p);
        let collision = 1.0 - (1.0 - tau).powf(n - 1.0);
        let p_s = (1.0 - collision) * (1.0 - self.channel_per);
        // After a collision the station draws a fresh backoff uniform in
        // [0, CW). Averaged over the (geometric) stage distribution the mean
        // wait is well approximated by the stage-1 window; the paper only
        // needs an exponential with matching mean.
        let mean_cw_slots = self.phy.cw_min as f64; // E[U(0, 2·CWmin)] = CWmin
        let mean_backoff_wait_s = mean_cw_slots * self.phy.slot_s;
        Ok(DcfSolution {
            tau,
            collision_prob: collision,
            packet_success_rate: p_s,
            mean_backoff_wait_s,
            backoff_rate_hz: 1.0 / mean_backoff_wait_s,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(n: usize) -> DcfModel {
        DcfModel::new(n, 0.0, PhyParams::g_54mbps())
    }

    #[test]
    fn single_station_never_collides() {
        let s = model(1).solve();
        assert!(s.collision_prob.abs() < 1e-9);
        assert!((s.packet_success_rate - 1.0).abs() < 1e-9);
    }

    #[test]
    fn collision_probability_grows_with_contention() {
        let mut last = -1.0;
        for n in [1usize, 2, 5, 10, 20, 50] {
            let s = model(n).solve();
            assert!(
                s.collision_prob > last,
                "p must grow with n: n={n}, p={}",
                s.collision_prob
            );
            assert!((0.0..1.0).contains(&s.collision_prob));
            last = s.collision_prob;
        }
    }

    #[test]
    fn fixed_point_is_consistent() {
        for n in [2usize, 5, 15] {
            let m = model(n);
            let s = m.solve();
            let p_implied = 1.0 - (1.0 - s.tau).powf(n as f64 - 1.0);
            assert!(
                (p_implied - s.collision_prob).abs() < 1e-8,
                "fixed point violated at n={n}"
            );
        }
    }

    #[test]
    fn bianchi_known_ballpark() {
        // For n=10, CWmin=16 (802.11g class parameters) Bianchi's model gives
        // τ in the few-percent range and p around 0.3–0.5.
        let s = model(10).solve();
        assert!(s.tau > 0.01 && s.tau < 0.1, "tau={}", s.tau);
        assert!(
            s.collision_prob > 0.2 && s.collision_prob < 0.6,
            "p={}",
            s.collision_prob
        );
    }

    #[test]
    fn channel_per_multiplies_success() {
        let no_err = DcfModel::new(5, 0.0, PhyParams::g_54mbps()).solve();
        let with_err = DcfModel::new(5, 0.2, PhyParams::g_54mbps()).solve();
        let ratio = with_err.packet_success_rate / no_err.packet_success_rate;
        assert!((ratio - 0.8).abs() < 1e-9);
    }

    #[test]
    fn tx_time_increases_with_size_and_is_physical() {
        let phy = PhyParams::g_54mbps();
        let t_small = phy.tx_time_s(100);
        let t_big = phy.tx_time_s(1460);
        assert!(t_big > t_small);
        // A 1460-byte frame at 54 Mbps ≈ 0.22 ms payload + ~90 µs overheads.
        assert!(t_big > 200e-6 && t_big < 600e-6, "t_big={t_big}");
        // Marginal cost of 1360 extra bytes ≈ 1360·8/54e6 ≈ 201 µs.
        assert!(((t_big - t_small) - 1360.0 * 8.0 / 54e6).abs() < 1e-9);
    }

    #[test]
    fn backoff_rate_matches_mean() {
        let s = model(5).solve();
        assert!((s.backoff_rate_hz * s.mean_backoff_wait_s - 1.0).abs() < 1e-12);
        // CWmin=16 slots of 9µs ⇒ 144 µs mean wait.
        assert!((s.mean_backoff_wait_s - 144e-6).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "need at least the sender")]
    fn zero_stations_rejected() {
        DcfModel::new(0, 0.0, PhyParams::g_54mbps());
    }

    #[test]
    #[should_panic(expected = "PER must be in")]
    fn bad_per_rejected() {
        DcfModel::new(2, 1.0, PhyParams::g_54mbps());
    }

    #[test]
    fn per_packet_contention_cost_is_monotone_in_stations() {
        // The service-time ingredient the queue consumes — expected backoff
        // before success — must not decrease when contenders join, and the
        // success rate must not increase.
        let mut last_cost = -1.0;
        let mut last_ps = 2.0;
        for n in 1..=120usize {
            let s = model(n).solve();
            // (1/p_s − 1) failed attempts, each followed by a mean wait.
            let cost = (1.0 / s.packet_success_rate - 1.0) * s.mean_backoff_wait_s;
            assert!(
                cost >= last_cost,
                "backoff cost dropped at n={n}: {cost} after {last_cost}"
            );
            assert!(
                s.packet_success_rate <= last_ps,
                "p_s rose at n={n}: {} after {last_ps}",
                s.packet_success_rate
            );
            assert!(cost.is_finite() && s.packet_success_rate.is_finite());
            last_cost = cost;
            last_ps = s.packet_success_rate;
        }
    }

    #[test]
    fn degenerate_structs_error_instead_of_nan() {
        // The fields are public, so a struct literal can bypass `new`;
        // before `try_solve` validated, `stations = 0` drove the fixed point
        // through powf of a negative base and returned NaN.
        let zero_stations = DcfModel {
            stations: 0,
            channel_per: 0.0,
            phy: PhyParams::g_54mbps(),
        };
        assert_eq!(zero_stations.try_solve(), Err(DcfError::NoStations));

        let saturated = DcfModel {
            stations: 5,
            channel_per: 1.0,
            phy: PhyParams::g_54mbps(),
        };
        assert_eq!(saturated.try_solve(), Err(DcfError::InvalidPer(1.0)));

        let nan_per = DcfModel {
            stations: 5,
            channel_per: f64::NAN,
            phy: PhyParams::g_54mbps(),
        };
        assert!(matches!(nan_per.try_solve(), Err(DcfError::InvalidPer(_))));

        let mut broken_phy = PhyParams::g_54mbps();
        broken_phy.slot_s = f64::NAN;
        let bad_phy = DcfModel {
            stations: 5,
            channel_per: 0.02,
            phy: broken_phy,
        };
        assert_eq!(bad_phy.try_solve(), Err(DcfError::InvalidPhy));
    }

    #[test]
    #[should_panic(expected = "DCF model is degenerate")]
    fn solve_panics_rather_than_returning_nan() {
        let m = DcfModel {
            stations: 0,
            channel_per: 0.0,
            phy: PhyParams::g_54mbps(),
        };
        let _ = m.solve();
    }

    #[test]
    fn try_new_matches_new() {
        let a = DcfModel::try_new(5, 0.02, PhyParams::g_54mbps()).unwrap();
        let b = DcfModel::new(5, 0.02, PhyParams::g_54mbps());
        assert_eq!(a, b);
        assert_eq!(a.try_solve().unwrap(), b.solve());
    }
}
