//! Overhead-vs-loss term for the fountain transport scenario.
//!
//! A rateless sender spends a fixed overhead ε — it emits `n = k + ⌈k·ε⌉`
//! coded symbols per `k`-symbol block — and in exchange never retransmits.
//! The question the analytic layer must answer is where that trade wins:
//! given the channel's loss process, what is the probability the receiver
//! fails to decode, and what does a delivered block cost in delay?
//!
//! Both questions reduce to the distribution of `R`, the number of symbols
//! delivered out of `n` sent. This module computes that distribution
//! **exactly** — a binomial for i.i.d. loss, and a dynamic program over
//! (Gilbert–Elliott state × delivered count) for bursty loss, started from
//! the stationary state distribution — and thresholds it with a calibrated
//! peeling margin:
//!
//! The systematic LT code decodes when the received symbols cover the
//! source through peeling. With `ℓ` systematic symbols lost, the peeler
//! must recover `ℓ` sources from the received repair symbols, which costs
//! a margin `m` of extra repair beyond `ℓ` (robust-soliton ripple slack).
//! Under symbol-exchangeable loss `ℓ ≈ (k/n)(n−R)`, giving the decode
//! threshold `R* = k·n·(1+m) / (n + m·k)` — exactly `k` when `n = k`
//! (pure systematic: every symbol must arrive) and `k(1+m)` as `n → ∞`
//! (the classic LT overhead). [`DEFAULT_PEELING_MARGIN`] is calibrated
//! against the simulator in the workspace differential tests.

/// Peeling margin `m` calibrated against `thrifty-sim`'s fountain path:
/// the repair slack (fraction of the lost-source count) the belief-
/// propagation peeler needs beyond erasure-counting to keep its ripple
/// alive at the block sizes the pipeline uses (k ≈ 10–60).
pub const DEFAULT_PEELING_MARGIN: f64 = 0.35;

/// The per-symbol delivery process the fountain stream rides on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FountainChannel {
    /// Independent per-symbol delivery with probability `1 − loss`.
    Iid {
        /// Per-symbol loss probability.
        loss: f64,
    },
    /// Two-state Gilbert–Elliott bursty loss (the PR 3 fault matrix's
    /// burst channel), started in the stationary state mix.
    Burst {
        /// P(good → bad) per symbol.
        p_gb: f64,
        /// P(bad → good) per symbol.
        p_bg: f64,
        /// Delivery probability in the Good state.
        good_success: f64,
        /// Delivery probability in the Bad state.
        bad_success: f64,
    },
}

impl FountainChannel {
    /// Long-run per-symbol delivery probability.
    pub fn success_rate(&self) -> f64 {
        match *self {
            FountainChannel::Iid { loss } => 1.0 - loss,
            FountainChannel::Burst {
                p_gb,
                p_bg,
                good_success,
                bad_success,
            } => {
                let pi_good = p_bg / (p_gb + p_bg);
                pi_good * good_success + (1.0 - pi_good) * bad_success
            }
        }
    }

    /// Exact distribution of the delivered-symbol count `R` out of `n`
    /// sent: `dist[r] = P(R = r)`, length `n + 1`.
    fn delivered_distribution(&self, n: usize) -> Vec<f64> {
        match *self {
            FountainChannel::Iid { loss } => {
                let p = 1.0 - loss;
                // Binomial via the same forward DP shape as the GE case —
                // numerically benign for the n ≤ a few hundred we model.
                let mut dist = vec![0.0; n + 1];
                dist[0] = 1.0;
                for i in 0..n {
                    for r in (0..=i).rev() {
                        let mass = dist[r];
                        dist[r] = mass * (1.0 - p);
                        dist[r + 1] += mass * p;
                    }
                }
                dist
            }
            FountainChannel::Burst {
                p_gb,
                p_bg,
                good_success,
                bad_success,
            } => {
                let pi_good = p_bg / (p_gb + p_bg);
                // f[state][r] = P(after i symbols: chain in `state`, r delivered).
                let mut good = vec![0.0f64; n + 1];
                let mut bad = vec![0.0f64; n + 1];
                good[0] = pi_good;
                bad[0] = 1.0 - pi_good;
                for _ in 0..n {
                    let mut next_good = vec![0.0f64; n + 1];
                    let mut next_bad = vec![0.0f64; n + 1];
                    for r in 0..n {
                        // Per symbol: deliver with the state's success
                        // probability, then transition the chain.
                        let g = good[r];
                        if g > 0.0 {
                            for (delivered, p_del) in
                                [(true, good_success), (false, 1.0 - good_success)]
                            {
                                let r2 = if delivered { r + 1 } else { r };
                                next_good[r2] += g * p_del * (1.0 - p_gb);
                                next_bad[r2] += g * p_del * p_gb;
                            }
                        }
                        let b = bad[r];
                        if b > 0.0 {
                            for (delivered, p_del) in
                                [(true, bad_success), (false, 1.0 - bad_success)]
                            {
                                let r2 = if delivered { r + 1 } else { r };
                                next_bad[r2] += b * p_del * (1.0 - p_bg);
                                next_good[r2] += b * p_del * p_bg;
                            }
                        }
                    }
                    good = next_good;
                    bad = next_bad;
                }
                (0..=n).map(|r| good[r] + bad[r]).collect()
            }
        }
    }

    /// The decode threshold `R*` for a `k`-source block sent as `n`
    /// symbols with peeling margin `m` (see the module docs): the least
    /// delivered count from which peeling completes.
    fn decode_threshold(k: usize, n: usize, margin: f64) -> usize {
        let kf = k as f64;
        let nf = n as f64;
        let r_star = kf * nf * (1.0 + margin) / (nf + margin * kf);
        (r_star.ceil() as usize).clamp(k, n.max(k))
    }

    /// P(the receiver fails to decode a `k`-source block sent as `n`
    /// symbols), thresholding the exact delivered distribution at the
    /// margin-`m` decode threshold. 1.0 whenever `n` cannot reach the
    /// threshold at all.
    pub fn decode_failure_prob(&self, k: usize, n: usize, margin: f64) -> f64 {
        if n < k {
            return 1.0;
        }
        let threshold = Self::decode_threshold(k, n, margin);
        if threshold > n {
            return 1.0;
        }
        let dist = self.delivered_distribution(n);
        dist[..threshold].iter().sum::<f64>().clamp(0.0, 1.0)
    }
}

/// The fountain transport's delay term: symbols serialise at a fixed
/// per-symbol service time, the overhead multiplies the airtime, and a
/// failed block costs a full re-spray (renewal-reward).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FountainDelayModel {
    /// Per-symbol service time at the sender, seconds (from the Section 4
    /// service mixture: encryption + backoff + transmission of one
    /// symbol-sized packet).
    pub symbol_service_s: f64,
    /// The delivery process under the stream.
    pub channel: FountainChannel,
    /// Peeling margin (see [`DEFAULT_PEELING_MARGIN`]).
    pub margin: f64,
}

impl FountainDelayModel {
    /// Symbols sent for a `k`-source block at overhead ε.
    pub fn symbols_sent(k: usize, overhead: f64) -> usize {
        k + (k as f64 * overhead).ceil() as usize
    }

    /// Airtime to spray one block once: `n · symbol_service_s`.
    fn spray_delay_s(&self, k: usize, overhead: f64) -> f64 {
        Self::symbols_sent(k, overhead) as f64 * self.symbol_service_s
    }

    /// P(decode failure) for one spray of a `k`-source block.
    pub fn decode_failure_prob(&self, k: usize, overhead: f64) -> f64 {
        self.channel
            .decode_failure_prob(k, Self::symbols_sent(k, overhead), self.margin)
    }

    /// Expected delay to *deliver* a block: each spray costs
    /// `n·symbol_service_s` and succeeds with probability `1 − p_fail`,
    /// so the renewal-reward mean is `n·t / (1 − p_fail)`. Infinite when
    /// the overhead cannot beat the loss rate at all (`p_fail = 1`).
    pub fn expected_delay_s(&self, k: usize, overhead: f64) -> f64 {
        let p_fail = self.decode_failure_prob(k, overhead);
        let spray = self.spray_delay_s(k, overhead);
        if p_fail >= 1.0 {
            f64::INFINITY
        } else {
            spray / (1.0 - p_fail)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use thrifty_net::channel::{GilbertElliottChannel, LossChannel};

    const BURST: FountainChannel = FountainChannel::Burst {
        p_gb: 0.03,
        p_bg: 0.3,
        good_success: 0.995,
        bad_success: 0.6,
    };

    #[test]
    fn delivered_distribution_is_a_probability_distribution() {
        for chan in [FountainChannel::Iid { loss: 0.1 }, BURST] {
            for n in [0usize, 1, 7, 40] {
                let dist = chan.delivered_distribution(n);
                assert_eq!(dist.len(), n + 1);
                let total: f64 = dist.iter().sum();
                assert!((total - 1.0).abs() < 1e-9, "mass {total} at n={n}");
                assert!(dist.iter().all(|&p| (0.0..=1.0 + 1e-12).contains(&p)));
            }
        }
    }

    #[test]
    fn iid_distribution_matches_binomial_moments() {
        let chan = FountainChannel::Iid { loss: 0.2 };
        let n = 50;
        let dist = chan.delivered_distribution(n);
        let mean: f64 = dist.iter().enumerate().map(|(r, p)| r as f64 * p).sum();
        assert!((mean - 40.0).abs() < 1e-9, "binomial mean {mean}");
        let var: f64 = dist
            .iter()
            .enumerate()
            .map(|(r, p)| (r as f64 - mean).powi(2) * p)
            .sum();
        assert!((var - 50.0 * 0.8 * 0.2).abs() < 1e-9, "binomial var {var}");
    }

    #[test]
    fn burst_mean_matches_stationary_success_rate() {
        let n = 200;
        let dist = BURST.delivered_distribution(n);
        let mean: f64 = dist.iter().enumerate().map(|(r, p)| r as f64 * p).sum();
        assert!(
            (mean / n as f64 - BURST.success_rate()).abs() < 1e-9,
            "stationary start ⇒ mean delivery = stationary rate, got {}",
            mean / n as f64
        );
    }

    #[test]
    fn burst_has_fatter_low_tail_than_iid_at_equal_rate() {
        // Same long-run success rate, but bursts concentrate failures:
        // the probability of losing many symbols is higher under GE.
        let iid = FountainChannel::Iid {
            loss: 1.0 - BURST.success_rate(),
        };
        let n = 60;
        let lo = n / 2;
        let tail = |d: &[f64]| d[..lo].iter().sum::<f64>();
        let ge_tail = tail(&BURST.delivered_distribution(n));
        let iid_tail = tail(&iid.delivered_distribution(n));
        assert!(
            ge_tail > iid_tail,
            "GE low tail {ge_tail:e} must exceed iid {iid_tail:e}"
        );
    }

    #[test]
    fn decode_threshold_interpolates_k_to_k_times_margin() {
        let k = 40;
        assert_eq!(FountainChannel::decode_threshold(k, k, 0.35), k);
        let far = FountainChannel::decode_threshold(k, 100 * k, 0.35);
        assert!((far as f64 - k as f64 * 1.35).abs() <= 1.0, "far {far}");
        let mid = FountainChannel::decode_threshold(k, 2 * k, 0.35);
        assert!(mid > k && mid < (k as f64 * 1.35).ceil() as usize + 1);
    }

    #[test]
    fn failure_prob_decreases_with_overhead_and_hits_edges() {
        let chan = BURST;
        let k = 40;
        let p0 = chan.decode_failure_prob(k, k, DEFAULT_PEELING_MARGIN);
        let p1 = chan.decode_failure_prob(k, k + k / 4, DEFAULT_PEELING_MARGIN);
        let p2 = chan.decode_failure_prob(k, 2 * k, DEFAULT_PEELING_MARGIN);
        assert!(p0 > p1 && p1 > p2, "monotone in overhead: {p0} {p1} {p2}");
        assert!((0.0..=1.0).contains(&p2));
        assert_eq!(chan.decode_failure_prob(k, k - 1, 0.35), 1.0);
        // Lossless channel at zero overhead decodes surely.
        let clean = FountainChannel::Iid { loss: 0.0 };
        assert_eq!(clean.decode_failure_prob(k, k, DEFAULT_PEELING_MARGIN), 0.0);
    }

    #[test]
    fn delay_model_charges_overhead_and_failures() {
        let model = FountainDelayModel {
            symbol_service_s: 1e-3,
            channel: FountainChannel::Iid { loss: 0.1 },
            margin: DEFAULT_PEELING_MARGIN,
        };
        let k = 40;
        assert_eq!(FountainDelayModel::symbols_sent(k, 0.25), 50);
        assert!((model.spray_delay_s(k, 0.25) - 0.05).abs() < 1e-12);
        let d_low = model.expected_delay_s(k, 0.5);
        let d_high = model.expected_delay_s(k, 1.0);
        assert!(d_low.is_finite() && d_high.is_finite());
        // More overhead costs more airtime once failures are rare.
        assert!(d_high > d_low);
        // Overhead below the loss floor cannot deliver: infinite delay.
        let doomed = FountainDelayModel {
            symbol_service_s: 1e-3,
            channel: FountainChannel::Iid { loss: 1.0 },
            margin: DEFAULT_PEELING_MARGIN,
        };
        assert!(doomed.expected_delay_s(k, 0.5).is_infinite());
    }

    #[test]
    fn matches_metered_simulation_of_the_channel() {
        // The GE DP must agree with brute-force simulation of the same
        // chain (tie to the net-layer channel implementation).
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let n = 30;
        let trials = 20_000;
        let mut rng = StdRng::seed_from_u64(99);
        let mut counts = vec![0u64; n + 1];
        for _ in 0..trials {
            let mut chan = GilbertElliottChannel::new(0.03, 0.3, 0.995, 0.6);
            let mut r = 0usize;
            for _ in 0..n {
                if chan.transmit(&mut rng) {
                    r += 1;
                }
            }
            counts[r] += 1;
        }
        let dist = BURST.delivered_distribution(n);
        let mean_dp: f64 = dist.iter().enumerate().map(|(r, p)| r as f64 * p).sum();
        let mean_sim: f64 = counts
            .iter()
            .enumerate()
            .map(|(r, &c)| r as f64 * c as f64)
            .sum::<f64>()
            / trials as f64;
        assert!(
            (mean_dp - mean_sim).abs() < 0.15,
            "DP mean {mean_dp} vs sim mean {mean_sim}"
        );
    }
}
