//! Discrete-event MMPP/G/1 queue simulation.
//!
//! A compact Lindley-recursion simulator used to validate the analytical
//! solver ([`crate::solver`]). Packets arrive according to an [`MmppN`],
//! each draws an i.i.d. service time from a [`ServiceDistribution`], and a
//! single FIFO server works at unit rate — exactly the queueing picture of
//! paper Section 4.2.3.

use crate::mmpp::MmppN;
use crate::service::ServiceDistribution;
use rand::Rng;

/// Summary statistics of a simulated queue run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimulatedQueueStats {
    /// Number of packets simulated.
    pub packets: usize,
    /// Mean waiting time in queue (before service starts), seconds.
    pub mean_wait_s: f64,
    /// Mean sojourn time (wait + service), seconds.
    pub mean_sojourn_s: f64,
    /// Mean sampled service time, seconds.
    pub mean_service_s: f64,
    /// Empirical utilisation (busy fraction of the simulated horizon).
    pub utilization: f64,
}

/// Simulate `packets` arrivals through the queue and report time averages.
///
/// Uses the Lindley recursion `W_{k+1} = max(0, W_k + S_k − A_{k+1})` where
/// `A` are interarrival gaps, so no event calendar is needed.
pub fn simulate_mmpp_g1<R: Rng + ?Sized>(
    mmpp: &MmppN,
    service: &ServiceDistribution,
    packets: usize,
    rng: &mut R,
) -> SimulatedQueueStats {
    assert!(packets > 0, "need at least one packet");
    let arrivals = mmpp.sample_arrivals(packets, rng);
    let mut wait = 0.0f64;
    let mut sum_wait = 0.0f64;
    let mut sum_service = 0.0f64;
    let mut prev_arrival = arrivals[0].0;
    // First packet arrives to an empty system.
    let mut service_time = service.sample(rng);
    sum_service += service_time;
    for &(t, _) in arrivals.iter().skip(1) {
        let gap = t - prev_arrival;
        wait = (wait + service_time - gap).max(0.0);
        sum_wait += wait;
        service_time = service.sample(rng);
        sum_service += service_time;
        prev_arrival = t;
    }
    let horizon = arrivals.last().unwrap().0.max(f64::MIN_POSITIVE);
    let mean_wait = sum_wait / packets as f64;
    let mean_service = sum_service / packets as f64;
    SimulatedQueueStats {
        packets,
        mean_wait_s: mean_wait,
        mean_sojourn_s: mean_wait + mean_service,
        mean_service_s: mean_service,
        utilization: (sum_service / horizon).min(1.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mmpp::Mmpp2;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn empty_queue_when_service_is_instant() {
        let mmpp = Mmpp2::poisson(100.0).into();
        let service = ServiceDistribution::point(0.0);
        let mut rng = StdRng::seed_from_u64(1);
        let stats = simulate_mmpp_g1(&mmpp, &service, 10_000, &mut rng);
        assert_eq!(stats.mean_wait_s, 0.0);
        assert_eq!(stats.mean_service_s, 0.0);
    }

    #[test]
    fn md1_matches_pollaczek_khinchine() {
        // M/D/1: E[W] = ρ·D / (2(1−ρ)).
        let lambda = 50.0;
        let d = 0.01; // ρ = 0.5
        let mmpp = Mmpp2::poisson(lambda).into();
        let service = ServiceDistribution::point(d);
        let mut rng = StdRng::seed_from_u64(2);
        let stats = simulate_mmpp_g1(&mmpp, &service, 2_000_000, &mut rng);
        let rho = lambda * d;
        let expected = rho * d / (2.0 * (1.0 - rho));
        assert!(
            (stats.mean_wait_s - expected).abs() / expected < 0.03,
            "sim {} vs PK {}",
            stats.mean_wait_s,
            expected
        );
        assert!((stats.utilization - rho).abs() < 0.02);
    }

    #[test]
    fn heavier_load_waits_longer() {
        let mut rng = StdRng::seed_from_u64(3);
        let light = simulate_mmpp_g1(
            &Mmpp2::poisson(20.0).into(),
            &ServiceDistribution::point(0.01),
            200_000,
            &mut rng,
        );
        let heavy = simulate_mmpp_g1(
            &Mmpp2::poisson(80.0).into(),
            &ServiceDistribution::point(0.01),
            200_000,
            &mut rng,
        );
        assert!(heavy.mean_wait_s > 3.0 * light.mean_wait_s);
    }

    #[test]
    fn sojourn_is_wait_plus_service() {
        let mut rng = StdRng::seed_from_u64(4);
        let stats = simulate_mmpp_g1(
            &Mmpp2::poisson(10.0).into(),
            &ServiceDistribution::gaussian(0.02, 0.002),
            50_000,
            &mut rng,
        );
        assert!((stats.mean_sojourn_s - stats.mean_wait_s - stats.mean_service_s).abs() < 1e-12);
    }

    #[test]
    fn burstiness_increases_waiting() {
        // Same mean rate and service, but bursty MMPP vs Poisson.
        let mut rng = StdRng::seed_from_u64(5);
        let service = ServiceDistribution::point(0.004);
        let poisson = Mmpp2::poisson(100.0);
        // Bursty: phase 1 at 1000/s, phase 2 at ~51/s, stationary mix ⇒ 100/s.
        let bursty = Mmpp2::new(50.0, 2.75, 1000.0, 51.3);
        assert!((bursty.mean_rate() - poisson.mean_rate()).abs() < 1.0);
        let w_poisson = simulate_mmpp_g1(&poisson.into(), &service, 500_000, &mut rng).mean_wait_s;
        let w_bursty = simulate_mmpp_g1(&bursty.into(), &service, 500_000, &mut rng).mean_wait_s;
        assert!(
            w_bursty > 1.5 * w_poisson,
            "bursty {w_bursty} vs poisson {w_poisson}"
        );
    }
}
