//! The graceful-degradation controller: a per-GOP policy ladder with a
//! hysteresis band.
//!
//! The paper's Table 2 picks one static policy per (motion, channel)
//! cell. This controller closes the loop instead: once per GOP it reads a
//! *distress* signal in `[0, 1]` (the chaos harness derives it from the
//! telemetry channel counters — lost / offered) and walks a three-rung
//! ladder:
//!
//! ```text
//! Full (encrypt everything)  ⇄  Degraded (I + α·P)  ⇄  IOnly
//! ```
//!
//! Each boundary has an **enter** threshold (step down when distress
//! reaches it) strictly above its **exit** threshold (step back up only
//! when distress falls to it). Signals inside the open band
//! `(exit, enter)` change nothing — that is the hysteresis invariant the
//! proptest suite pins: an arbitrary bounded in-band sequence never moves
//! the rung, so the controller cannot flap on noise. A minimum dwell adds
//! a second guard: after any transition the rung holds for `min_dwell`
//! observations regardless of the signal.
//!
//! The controller is a pure state machine — no clock, no RNG — so a
//! closed loop driving it from seeded simulation signals remains
//! bit-reproducible end to end.

/// One rung of the degradation ladder, most protective first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum PolicyRung {
    /// Encrypt every frame (the `All` policy).
    Full,
    /// Encrypt I-frames plus a fraction of P-frames (`I + α·P`).
    Degraded,
    /// Encrypt I-frames only.
    IOnly,
}

impl PolicyRung {
    /// Position on the ladder: 0 = Full, 2 = IOnly.
    pub fn index(self) -> usize {
        match self {
            PolicyRung::Full => 0,
            PolicyRung::Degraded => 1,
            PolicyRung::IOnly => 2,
        }
    }

    /// Human label for tables.
    pub fn label(self) -> &'static str {
        match self {
            PolicyRung::Full => "full",
            PolicyRung::Degraded => "I+P%",
            PolicyRung::IOnly => "I-only",
        }
    }

    fn from_index(i: usize) -> PolicyRung {
        match i {
            0 => PolicyRung::Full,
            1 => PolicyRung::Degraded,
            _ => PolicyRung::IOnly,
        }
    }
}

/// Why a [`ControllerConfig`] was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ControllerConfigError {
    /// A threshold was NaN or outside `[0, 1]`.
    OutOfRange(&'static str),
    /// An enter threshold does not sit strictly above its exit threshold
    /// (the hysteresis band would be empty or inverted).
    EmptyBand(&'static str),
    /// The two boundaries are not ordered along the ladder
    /// (`enter_degraded ≤ enter_ionly`, `exit_degraded ≤ exit_ionly`).
    UnorderedLadder,
    /// `min_dwell` must be at least 1 observation.
    ZeroDwell,
}

impl std::fmt::Display for ControllerConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ControllerConfigError::OutOfRange(what) => {
                write!(f, "{what} must be a finite value in [0, 1]")
            }
            ControllerConfigError::EmptyBand(which) => {
                write!(f, "hysteresis band at the {which} boundary is empty: enter must exceed exit")
            }
            ControllerConfigError::UnorderedLadder => {
                write!(f, "boundary thresholds must be ordered along the ladder")
            }
            ControllerConfigError::ZeroDwell => write!(f, "min_dwell must be >= 1"),
        }
    }
}

impl std::error::Error for ControllerConfigError {}

/// Validated thresholds of a [`DegradationController`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ControllerConfig {
    /// Distress at or above this steps Full → Degraded.
    pub enter_degraded: f64,
    /// Distress at or below this steps Degraded → Full.
    pub exit_degraded: f64,
    /// Distress at or above this steps Degraded → IOnly.
    pub enter_ionly: f64,
    /// Distress at or below this steps IOnly → Degraded.
    pub exit_ionly: f64,
    /// Observations a rung is held after any transition.
    pub min_dwell: u32,
}

impl ControllerConfig {
    /// Build a config, rejecting NaN/out-of-range thresholds, empty
    /// hysteresis bands, unordered boundaries and a zero dwell.
    pub fn try_new(
        enter_degraded: f64,
        exit_degraded: f64,
        enter_ionly: f64,
        exit_ionly: f64,
        min_dwell: u32,
    ) -> Result<Self, ControllerConfigError> {
        for (what, v) in [
            ("enter_degraded", enter_degraded),
            ("exit_degraded", exit_degraded),
            ("enter_ionly", enter_ionly),
            ("exit_ionly", exit_ionly),
        ] {
            if !v.is_finite() || !(0.0..=1.0).contains(&v) {
                return Err(ControllerConfigError::OutOfRange(what));
            }
        }
        if exit_degraded >= enter_degraded {
            return Err(ControllerConfigError::EmptyBand("Full/Degraded"));
        }
        if exit_ionly >= enter_ionly {
            return Err(ControllerConfigError::EmptyBand("Degraded/IOnly"));
        }
        if enter_degraded > enter_ionly || exit_degraded > exit_ionly {
            return Err(ControllerConfigError::UnorderedLadder);
        }
        if min_dwell == 0 {
            return Err(ControllerConfigError::ZeroDwell);
        }
        Ok(ControllerConfig {
            enter_degraded,
            exit_degraded,
            enter_ionly,
            exit_ionly,
            min_dwell,
        })
    }

    /// Whether `rung` is *stable* under a constant distress `d`: the
    /// controller, once on `rung`, would never leave it. Hysteresis makes
    /// stability a set, not a point — for `d` inside a band, two adjacent
    /// rungs are both stable and history picks between them. This is the
    /// per-cell analytic optimum the chaos matrix validates against.
    pub fn is_stable(&self, rung: PolicyRung, d: f64) -> bool {
        match rung {
            PolicyRung::Full => d < self.enter_degraded,
            PolicyRung::Degraded => d < self.enter_ionly && d > self.exit_degraded,
            PolicyRung::IOnly => d > self.exit_ionly,
        }
    }
}

impl Default for ControllerConfig {
    /// Bands tuned for per-GOP packet-loss fractions: degrade past 10%
    /// loss (recover below 4%), fall back to I-only past 35% (recover
    /// below 20%), hold each rung for 2 GOPs.
    fn default() -> Self {
        ControllerConfig {
            enter_degraded: 0.10,
            exit_degraded: 0.04,
            enter_ionly: 0.35,
            exit_ionly: 0.20,
            min_dwell: 2,
        }
    }
}

/// The closed-loop ladder controller.
#[derive(Debug, Clone)]
pub struct DegradationController {
    config: ControllerConfig,
    rung: usize,
    /// Observations since the last transition (starts saturated so the
    /// first observation may transition).
    since_change: u32,
    /// Direction of the last transition: +1 down-ladder, -1 up-ladder.
    last_direction: i8,
    transitions: u32,
    flaps: u32,
    observations: u64,
}

/// A reversal counts as a flap when it undoes the previous transition
/// within this many observations of it (in units of `min_dwell`).
const FLAP_WINDOW_DWELLS: u32 = 2;

impl DegradationController {
    /// A controller starting at [`PolicyRung::Full`].
    pub fn new(config: ControllerConfig) -> Self {
        DegradationController {
            config,
            rung: 0,
            since_change: config.min_dwell,
            last_direction: 0,
            transitions: 0,
            flaps: 0,
            observations: 0,
        }
    }

    /// The validated thresholds.
    pub fn config(&self) -> &ControllerConfig {
        &self.config
    }

    /// The rung currently in force.
    pub fn rung(&self) -> PolicyRung {
        PolicyRung::from_index(self.rung)
    }

    /// Ladder transitions so far.
    pub fn transitions(&self) -> u32 {
        self.transitions
    }

    /// Direction reversals within the flap window — zero by construction
    /// for signals respecting the hysteresis band; the chaos soak gate
    /// fails if this ever reads nonzero.
    pub fn flaps(&self) -> u32 {
        self.flaps
    }

    /// Total observations consumed.
    pub fn observations(&self) -> u64 {
        self.observations
    }

    /// Feed one distress observation (clamped to `[0, 1]`; NaN is treated
    /// as full distress — a sensor that died is not good news) and return
    /// the rung to use for the next GOP. At most one ladder step per
    /// observation, and none within `min_dwell` of the last transition.
    pub fn observe(&mut self, distress: f64) -> PolicyRung {
        let d = if distress.is_nan() { 1.0 } else { distress.clamp(0.0, 1.0) };
        self.observations += 1;
        if self.since_change < self.config.min_dwell {
            self.since_change += 1;
            return self.rung();
        }
        let step: i8 = match PolicyRung::from_index(self.rung) {
            PolicyRung::Full => {
                if d >= self.config.enter_degraded {
                    1
                } else {
                    0
                }
            }
            PolicyRung::Degraded => {
                if d >= self.config.enter_ionly {
                    1
                } else if d <= self.config.exit_degraded {
                    -1
                } else {
                    0
                }
            }
            PolicyRung::IOnly => {
                if d <= self.config.exit_ionly {
                    -1
                } else {
                    0
                }
            }
        };
        if step == 0 {
            self.since_change = self.since_change.saturating_add(1);
            return self.rung();
        }
        if step == -self.last_direction
            && self.since_change < self.config.min_dwell * (1 + FLAP_WINDOW_DWELLS)
        {
            self.flaps += 1;
        }
        self.rung = (self.rung as i64 + step as i64).clamp(0, 2) as usize;
        self.last_direction = step;
        self.transitions += 1;
        self.since_change = 0;
        self.rung()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl PolicyRung {
        /// The ladder, top to bottom.
        pub const LADDER: [PolicyRung; 3] =
            [PolicyRung::Full, PolicyRung::Degraded, PolicyRung::IOnly];
    }

    fn cfg() -> ControllerConfig {
        ControllerConfig::default()
    }

    #[test]
    fn default_config_is_valid() {
        let c = cfg();
        assert_eq!(
            ControllerConfig::try_new(
                c.enter_degraded,
                c.exit_degraded,
                c.enter_ionly,
                c.exit_ionly,
                c.min_dwell
            ),
            Ok(c)
        );
    }

    #[test]
    fn try_new_rejects_hostile_parameters() {
        use ControllerConfigError::*;
        assert_eq!(
            ControllerConfig::try_new(f64::NAN, 0.04, 0.35, 0.20, 2),
            Err(OutOfRange("enter_degraded"))
        );
        assert_eq!(
            ControllerConfig::try_new(0.1, -0.1, 0.35, 0.20, 2),
            Err(OutOfRange("exit_degraded"))
        );
        assert_eq!(
            ControllerConfig::try_new(0.1, 0.04, 1.5, 0.20, 2),
            Err(OutOfRange("enter_ionly"))
        );
        assert_eq!(
            ControllerConfig::try_new(0.1, 0.1, 0.35, 0.2, 2),
            Err(EmptyBand("Full/Degraded"))
        );
        assert_eq!(
            ControllerConfig::try_new(0.1, 0.04, 0.2, 0.2, 2),
            Err(EmptyBand("Degraded/IOnly"))
        );
        assert_eq!(
            ControllerConfig::try_new(0.5, 0.04, 0.35, 0.2, 2),
            Err(UnorderedLadder)
        );
        assert_eq!(
            ControllerConfig::try_new(0.1, 0.04, 0.35, 0.2, 0),
            Err(ZeroDwell)
        );
    }

    #[test]
    fn sustained_distress_walks_the_ladder_down() {
        let mut c = DegradationController::new(cfg());
        assert_eq!(c.rung(), PolicyRung::Full);
        let mut seen = vec![c.rung()];
        for _ in 0..10 {
            seen.push(c.observe(0.5));
        }
        assert_eq!(c.rung(), PolicyRung::IOnly);
        // One step at a time, never skipping Degraded.
        assert!(seen.contains(&PolicyRung::Degraded));
        assert_eq!(c.flaps(), 0, "monotone descent cannot flap");
    }

    #[test]
    fn calm_signal_walks_back_up() {
        let mut c = DegradationController::new(cfg());
        for _ in 0..10 {
            c.observe(0.9);
        }
        assert_eq!(c.rung(), PolicyRung::IOnly);
        for _ in 0..12 {
            c.observe(0.01);
        }
        assert_eq!(c.rung(), PolicyRung::Full);
        // Full descent then full ascent is adaptation, each leg far apart.
        assert_eq!(c.transitions(), 4);
    }

    #[test]
    fn in_band_noise_never_moves_the_rung() {
        // Distress oscillating inside (exit_degraded, enter_degraded) —
        // the band is exactly the region where nothing happens.
        let mut c = DegradationController::new(cfg());
        for i in 0..100 {
            let d = if i % 2 == 0 { 0.05 } else { 0.09 };
            assert_eq!(c.observe(d), PolicyRung::Full);
        }
        assert_eq!(c.transitions(), 0);
        assert_eq!(c.flaps(), 0);
    }

    #[test]
    fn dwell_holds_the_rung_after_a_transition() {
        let mut c = DegradationController::new(cfg());
        c.observe(0.2); // Full → Degraded
        assert_eq!(c.rung(), PolicyRung::Degraded);
        // Even a calm signal cannot step back during the dwell.
        assert_eq!(c.observe(0.0), PolicyRung::Degraded);
        assert_eq!(c.observe(0.0), PolicyRung::Degraded);
        // Dwell over: now it may.
        assert_eq!(c.observe(0.0), PolicyRung::Full);
    }

    #[test]
    fn immediate_reversal_is_counted_as_a_flap() {
        let mut c = DegradationController::new(cfg());
        c.observe(0.2); // down
        c.observe(0.0); // held (dwell)
        c.observe(0.0); // held (dwell)
        c.observe(0.0); // up — undoes the previous step within the window
        assert_eq!(c.rung(), PolicyRung::Full);
        assert_eq!(c.flaps(), 1);
    }

    #[test]
    fn nan_distress_reads_as_full_distress() {
        let mut c = DegradationController::new(cfg());
        c.observe(f64::NAN);
        assert_eq!(c.rung(), PolicyRung::Degraded);
    }

    #[test]
    fn stability_sets_match_the_bands() {
        let c = cfg();
        // Calm: only Full is stable.
        assert!(c.is_stable(PolicyRung::Full, 0.0));
        assert!(!c.is_stable(PolicyRung::Degraded, 0.0));
        assert!(!c.is_stable(PolicyRung::IOnly, 0.0));
        // Inside the Full/Degraded band both neighbours are stable.
        assert!(c.is_stable(PolicyRung::Full, 0.07));
        assert!(c.is_stable(PolicyRung::Degraded, 0.07));
        // Collapse: only IOnly is stable.
        assert!(c.is_stable(PolicyRung::IOnly, 0.4));
        assert!(!c.is_stable(PolicyRung::Degraded, 0.4));
        assert!(!c.is_stable(PolicyRung::Full, 0.4));
    }

    #[test]
    fn ladder_metadata_is_consistent() {
        for (i, rung) in PolicyRung::LADDER.into_iter().enumerate() {
            assert_eq!(rung.index(), i);
            assert!(!rung.label().is_empty());
        }
    }
}
