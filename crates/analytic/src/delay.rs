//! The delay model of Section 4.2.
//!
//! For a policy 𝒫 the per-packet service time is the independent sum
//! `T = T_e^(𝒫) + T_b + T_t` (eq. 3):
//!
//! * `T_e^(𝒫)` — the encryption-time mixture of eq. (4), Gaussian variant
//!   of eqs. (15)/(17): with probability `q_I·p_I` the packet is an
//!   encrypted I fragment (mean `μ_eI`), with probability `q_P·(1−p_I)` an
//!   encrypted P packet (mean `μ_eP`), otherwise a zero atom.
//! * `T_b` — the geometric-exponential backoff of eqs. (6)–(7) with the
//!   channel's `(p_s, λ_b)`.
//! * `T_t` — the transmission-time mixture of eqs. (16)/(18).
//!
//! The resulting [`ServiceDistribution`] and the scenario's 2-MMPP feed the
//! MMPP/G/1 solver (Section 4.2.3 / eq. 19) to produce the expected
//! per-packet delay.

use crate::params::ScenarioParams;
use crate::policy::Policy;
use thrifty_queueing::inversion::WaitDistribution;
use thrifty_queueing::service::{ServiceComponent, ServiceDistribution};
use thrifty_queueing::solver::{MmppG1, SolveError};
use thrifty_video::FrameType;

/// Predicted delay figures for one (scenario, policy) pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DelayPrediction {
    /// Mean queueing delay E\[W\] (eq. 19), seconds.
    pub mean_wait_s: f64,
    /// Mean total per-packet delay (wait + service), seconds — the quantity
    /// plotted in Figures 7–8.
    pub mean_delay_s: f64,
    /// Mean service time E\[T\], seconds.
    pub mean_service_s: f64,
    /// Mean encryption time E[T_e^(𝒫)], seconds.
    pub mean_encryption_s: f64,
    /// Utilisation ρ.
    pub rho: f64,
    /// Fraction of packets encrypted, `q^(𝒫)`.
    pub encrypted_fraction: f64,
}

/// Builds service-time distributions and solves the queue.
#[derive(Debug, Clone)]
pub struct DelayModel<'a> {
    params: &'a ScenarioParams,
}

impl<'a> DelayModel<'a> {
    /// Attach the model to a calibrated scenario.
    pub fn new(params: &'a ScenarioParams) -> Self {
        DelayModel { params }
    }

    /// The encryption-time component `T_e^(𝒫)` (eqs. 4, 15, 17).
    fn encryption_component(&self, policy: Policy) -> ServiceComponent {
        let p = self.params;
        let p_i = p.packet_stats.p_i;
        let q_i = policy.mode.encrypt_prob(FrameType::I);
        let q_p = policy.mode.encrypt_prob(FrameType::P);
        let mu_i = p.enc_mean_i(policy.algorithm);
        let mu_p = p.enc_mean_p(policy.algorithm);
        let w_i = q_i * p_i;
        let w_p = q_p * (1.0 - p_i);
        let w_zero = (1.0 - w_i - w_p).max(0.0);
        ServiceComponent::GaussianMixture(vec![
            (w_i, mu_i, p.jitter_rel * mu_i),
            (w_p, mu_p, p.jitter_rel * mu_p),
            (w_zero, 0.0, 0.0),
        ])
    }

    /// The backoff component `T_b` (eqs. 6–7).
    fn backoff_component(&self) -> ServiceComponent {
        ServiceComponent::GeometricExponential {
            success_prob: self.params.dcf.packet_success_rate,
            rate: self.params.dcf.backoff_rate_hz,
        }
    }

    /// The transmission component `T_t` (eqs. 8, 16, 18).
    fn transmission_component(&self) -> ServiceComponent {
        let p = self.params;
        let p_i = p.packet_stats.p_i;
        let mu_i = p.tx_mean_i();
        let mu_p = p.tx_mean_p();
        ServiceComponent::GaussianMixture(vec![
            (p_i, mu_i, p.jitter_rel * mu_i),
            (1.0 - p_i, mu_p, p.jitter_rel * mu_p),
        ])
    }

    /// The full service-time distribution `T` for a policy (eq. 3 / 10).
    pub fn service_distribution(&self, policy: Policy) -> ServiceDistribution {
        ServiceDistribution::from_parts(vec![
            self.encryption_component(policy),
            self.backoff_component(),
            self.transmission_component(),
        ])
    }

    /// Waiting-time percentiles for a policy (e.g. `&[0.5, 0.95, 0.99]`),
    /// via Euler inversion of the workload transform — the tail latencies
    /// the mean in Figures 7–8 hides.
    pub fn predict_percentiles(
        &self,
        policy: Policy,
        levels: &[f64],
    ) -> Result<Vec<f64>, SolveError> {
        let queue = MmppG1::new(self.params.mmpp.into(), self.service_distribution(policy));
        let solution = queue.solve()?;
        let dist = WaitDistribution::new(&queue, &solution);
        Ok(levels
            .iter()
            .map(|&p| dist.quantile(p) + solution.h1) // wait + mean service
            .collect())
    }

    /// Predict the delay for a policy over HTTP/TCP (Section 6.4): the
    /// RTP/UDP prediction plus the expected per-segment retransmission
    /// latency of a TCP stack seeing the residual (post-MAC-retry) loss.
    pub fn predict_tcp(
        &self,
        policy: Policy,
        rto_s: f64,
    ) -> Result<DelayPrediction, SolveError> {
        let mut pred = self.predict(policy)?;
        let tcp_loss = 1.0 - self.params.delivery_rate();
        let extra = thrifty_net::tcp::TcpLatencyModel::new(tcp_loss, rto_s)
            .expected_extra_delay_s();
        pred.mean_delay_s += extra;
        pred.mean_service_s += extra;
        Ok(pred)
    }

    /// Predict the delay for a policy by solving the MMPP/G/1 queue.
    pub fn predict(&self, policy: Policy) -> Result<DelayPrediction, SolveError> {
        let service = self.service_distribution(policy);
        let enc_mean = self.encryption_component(policy).mean();
        let solution = MmppG1::new(self.params.mmpp.into(), service).solve()?;
        Ok(DelayPrediction {
            mean_wait_s: solution.mean_wait_s,
            mean_delay_s: solution.mean_sojourn_s,
            mean_service_s: solution.h1,
            mean_encryption_s: enc_mean,
            rho: solution.rho,
            encrypted_fraction: policy.mode.encrypted_fraction(self.params.packet_stats.p_i),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{ScenarioParams, HTC_AMAZE_4G, SAMSUNG_GALAXY_S2};
    use crate::policy::EncryptionMode;
    use thrifty_crypto::Algorithm;
    use thrifty_video::motion::MotionLevel;

    fn scenario(motion: MotionLevel, gop: usize) -> ScenarioParams {
        ScenarioParams::calibrated(motion, gop, SAMSUNG_GALAXY_S2, 5, 0.92)
    }

    fn policy(alg: Algorithm, mode: EncryptionMode) -> Policy {
        Policy::new(alg, mode)
    }

    #[test]
    fn all_policies_solve_and_are_stable() {
        for motion in [MotionLevel::Low, MotionLevel::High] {
            for gop in [30usize, 50] {
                let s = scenario(motion, gop);
                let model = DelayModel::new(&s);
                for p in Policy::all_table1() {
                    let pred = model.predict(p).unwrap_or_else(|e| {
                        panic!("{motion}/{gop}/{p}: {e}");
                    });
                    assert!(pred.rho < 1.0);
                    assert!(pred.mean_delay_s > 0.0);
                }
            }
        }
    }

    #[test]
    fn delay_ordering_matches_figure7() {
        // none < I < P ≤ all, for fast motion where P packets dominate.
        let s = scenario(MotionLevel::High, 30);
        let model = DelayModel::new(&s);
        let d = |mode| {
            model
                .predict(policy(Algorithm::Aes256, mode))
                .unwrap_or_else(|e| panic!("AES-256/{mode} on fast/GOP-30 must be stable: {e}"))
                .mean_delay_s
        };
        let none = d(EncryptionMode::None);
        let i = d(EncryptionMode::IFrames);
        let p = d(EncryptionMode::PFrames);
        let all = d(EncryptionMode::All);
        assert!(none < i, "none {none} < I {i}");
        assert!(i < p, "I {i} < P {p}");
        assert!(p <= all, "P {p} <= all {all}");
    }

    #[test]
    fn i_only_delay_is_close_to_none() {
        // Paper: "the delay in the case where the I-frame packets are
        // selected for encryption is small and close to the delay when none
        // of the packets are encrypted".
        let s = scenario(MotionLevel::Low, 30);
        let model = DelayModel::new(&s);
        let none = model
            .predict(policy(Algorithm::Aes256, EncryptionMode::None))
            .expect("AES-256/none on slow/GOP-30 must be stable")
            .mean_delay_s;
        let i = model
            .predict(policy(Algorithm::Aes256, EncryptionMode::IFrames))
            .expect("AES-256/I on slow/GOP-30 must be stable")
            .mean_delay_s;
        let all = model
            .predict(policy(Algorithm::Aes256, EncryptionMode::All))
            .expect("AES-256/all on slow/GOP-30 must be stable")
            .mean_delay_s;
        assert!((i - none) < 0.35 * (all - none), "I≈none: {none} {i} {all}");
    }

    #[test]
    fn tdes_slower_than_aes() {
        let s = scenario(MotionLevel::High, 30);
        let model = DelayModel::new(&s);
        for mode in [EncryptionMode::All, EncryptionMode::PFrames] {
            let aes = model
                .predict(policy(Algorithm::Aes256, mode))
                .unwrap_or_else(|e| panic!("AES-256/{mode} on fast/GOP-30 must be stable: {e}"));
            let tdes = model
                .predict(policy(Algorithm::TripleDes, mode))
                .unwrap_or_else(|e| panic!("3DES/{mode} on fast/GOP-30 must be stable: {e}"));
            assert!(
                tdes.mean_delay_s > aes.mean_delay_s,
                "{mode}: 3DES {} vs AES {}",
                tdes.mean_delay_s,
                aes.mean_delay_s
            );
        }
    }

    #[test]
    fn htc_faster_than_samsung() {
        // Figure 8 vs Figure 7: the HTC's faster CPU yields lower delays
        // under encryption-heavy policies.
        let s2 = ScenarioParams::calibrated(MotionLevel::High, 30, SAMSUNG_GALAXY_S2, 5, 0.92);
        let mut htc = ScenarioParams::calibrated(MotionLevel::High, 30, HTC_AMAZE_4G, 5, 0.92);
        // Compare at the same arrival pacing.
        htc.mmpp = s2.mmpp;
        let p = policy(Algorithm::TripleDes, EncryptionMode::All);
        let d_s2 = DelayModel::new(&s2)
            .predict(p)
            .expect("3DES/all on the Samsung must be stable")
            .mean_delay_s;
        let d_htc = DelayModel::new(&htc)
            .predict(p)
            .expect("3DES/all on the HTC must be stable")
            .mean_delay_s;
        assert!(d_htc < d_s2, "HTC {d_htc} vs S2 {d_s2}");
    }

    #[test]
    fn alpha_sweep_is_monotone() {
        // Figure 9a: delay grows with the fraction of P packets encrypted.
        let s = scenario(MotionLevel::High, 30);
        let model = DelayModel::new(&s);
        let mut last = 0.0;
        for alpha in [0.0, 0.1, 0.2, 0.3, 0.5, 1.0] {
            let pred = model
                .predict(policy(
                    Algorithm::Aes256,
                    EncryptionMode::IPlusFractionP(alpha),
                ))
                .unwrap_or_else(|e| panic!("AES-256/I+{alpha}P on fast/GOP-30 must be stable: {e}"));
            assert!(
                pred.mean_delay_s >= last,
                "alpha {alpha}: {} after {last}",
                pred.mean_delay_s
            );
            last = pred.mean_delay_s;
        }
    }

    #[test]
    fn encryption_mean_matches_mixture_arithmetic() {
        let s = scenario(MotionLevel::Low, 30);
        let model = DelayModel::new(&s);
        let p = policy(Algorithm::Aes256, EncryptionMode::IFrames);
        let pred = model
            .predict(p)
            .expect("AES-256/I on slow/GOP-30 must be stable");
        let expected = s.packet_stats.p_i * s.enc_mean_i(Algorithm::Aes256);
        assert!((pred.mean_encryption_s - expected).abs() / expected < 1e-9);
    }

    #[test]
    fn percentiles_are_ordered_and_above_the_mean_tail() {
        let s = scenario(MotionLevel::High, 30);
        let model = DelayModel::new(&s);
        let p = policy(Algorithm::Aes256, EncryptionMode::IFrames);
        let mean = model
            .predict(p)
            .expect("AES-256/I on fast/GOP-30 must be stable")
            .mean_delay_s;
        let q = model
            .predict_percentiles(p, &[0.5, 0.95, 0.99])
            .expect("waiting-time inversion for AES-256/I must converge");
        assert!(q[0] < q[1] && q[1] < q[2], "{q:?}");
        // Right-skewed delay: median below mean, p95 above.
        assert!(q[0] < mean, "median {} < mean {mean}", q[0]);
        assert!(q[1] > mean, "p95 {} > mean {mean}", q[1]);
    }

    #[test]
    fn heavier_policies_have_heavier_tails() {
        let s = scenario(MotionLevel::High, 30);
        let model = DelayModel::new(&s);
        let p95 = |mode| {
            model
                .predict_percentiles(policy(Algorithm::TripleDes, mode), &[0.95])
                .unwrap_or_else(|e| panic!("p95 inversion for 3DES/{mode} must converge: {e}"))[0]
        };
        assert!(p95(EncryptionMode::None) < p95(EncryptionMode::IFrames));
        assert!(p95(EncryptionMode::IFrames) < p95(EncryptionMode::All));
    }

    #[test]
    fn tcp_prediction_adds_retransmission_latency() {
        let s = scenario(MotionLevel::High, 30);
        let model = DelayModel::new(&s);
        let p = policy(Algorithm::Aes256, EncryptionMode::IFrames);
        let udp = model
            .predict(p)
            .expect("AES-256/I over UDP must be stable")
            .mean_delay_s;
        let tcp = model
            .predict_tcp(p, 0.01)
            .expect("AES-256/I over TCP must be stable")
            .mean_delay_s;
        assert!(tcp > udp);
        // The ordering across modes is preserved under TCP.
        let tcp_all = model
            .predict_tcp(policy(Algorithm::Aes256, EncryptionMode::All), 0.01)
            .expect("AES-256/all over TCP must be stable")
            .mean_delay_s;
        assert!(tcp_all > tcp);
    }

    #[test]
    fn encrypted_fraction_reported() {
        let s = scenario(MotionLevel::High, 30);
        let model = DelayModel::new(&s);
        let pred = model
            .predict(policy(Algorithm::Aes128, EncryptionMode::All))
            .expect("AES-128/all on fast/GOP-30 must be stable");
        assert_eq!(pred.encrypted_fraction, 1.0);
        let pred = model
            .predict(policy(Algorithm::Aes128, EncryptionMode::None))
            .expect("AES-128/none on fast/GOP-30 must be stable");
        assert_eq!(pred.encrypted_fraction, 0.0);
    }
}
