//! Packet-loss models.
//!
//! The paper injects loss with Linux traffic control ("a FIFO queue ... was
//! configured to drop packets at a defined rate", §VI.A.2) at rates of
//! 0.1 %, 0.5 %, 1 % and 5 % — chosen to match observed intra-US, EU–US and
//! intercontinental WAN loss. [`LossModel::Bernoulli`] reproduces that
//! i.i.d. drop behaviour. [`LossModel::GilbertElliott`] adds the bursty
//! two-state model real WANs exhibit, used by the extension benchmarks.

use rand::rngs::SmallRng;
use rand::Rng;

/// A packet-loss process. Stateless variants are `Copy`-cheap; the
/// Gilbert–Elliott model carries its current state in [`LossState`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum LossModel {
    /// No loss (the paper's baseline LAN conditions).
    None,
    /// Independent drop with probability `rate` per wire packet.
    Bernoulli {
        /// Drop probability in `[0, 1]`.
        rate: f64,
    },
    /// Two-state Markov (Gilbert–Elliott) burst-loss model.
    GilbertElliott {
        /// P(good → bad) per packet.
        p_gb: f64,
        /// P(bad → good) per packet.
        p_bg: f64,
        /// Drop probability while in the good state.
        loss_good: f64,
        /// Drop probability while in the bad state.
        loss_bad: f64,
    },
}

impl LossModel {
    /// Bernoulli model with the given drop rate (clamped to `[0, 1]`).
    #[must_use]
    pub fn bernoulli(rate: f64) -> Self {
        LossModel::Bernoulli {
            rate: rate.clamp(0.0, 1.0),
        }
    }

    /// A bursty model with the given average loss rate and mean burst
    /// length (in packets). `loss_good` is 0; the bad state always drops.
    #[must_use]
    pub fn bursty(avg_rate: f64, mean_burst: f64) -> Self {
        let mean_burst = mean_burst.max(1.0);
        let p_bg = 1.0 / mean_burst;
        // Stationary P(bad) = p_gb / (p_gb + p_bg); avg loss = P(bad)·1.
        let p_bad = avg_rate.clamp(0.0, 0.99);
        let p_gb = p_bad * p_bg / (1.0 - p_bad);
        LossModel::GilbertElliott {
            p_gb,
            p_bg,
            loss_good: 0.0,
            loss_bad: 1.0,
        }
    }

    /// The long-run average drop probability of this model.
    #[must_use]
    pub fn average_rate(&self) -> f64 {
        match *self {
            LossModel::None => 0.0,
            LossModel::Bernoulli { rate } => rate,
            LossModel::GilbertElliott {
                p_gb,
                p_bg,
                loss_good,
                loss_bad,
            } => {
                if p_gb + p_bg == 0.0 {
                    loss_good
                } else {
                    let p_bad = p_gb / (p_gb + p_bg);
                    (1.0 - p_bad) * loss_good + p_bad * loss_bad
                }
            }
        }
    }
}

/// Mutable state accompanying a [`LossModel`] (Markov state).
#[derive(Clone, Copy, Debug, Default)]
pub struct LossState {
    in_bad: bool,
}

impl LossState {
    /// Decides whether the next packet is dropped.
    pub fn should_drop(&mut self, model: &LossModel, rng: &mut SmallRng) -> bool {
        match *model {
            LossModel::None => false,
            LossModel::Bernoulli { rate } => rate > 0.0 && rng.gen_bool(rate),
            LossModel::GilbertElliott {
                p_gb,
                p_bg,
                loss_good,
                loss_bad,
            } => {
                // Transition first, then sample the (possibly new) state.
                if self.in_bad {
                    if p_bg > 0.0 && rng.gen_bool(p_bg.min(1.0)) {
                        self.in_bad = false;
                    }
                } else if p_gb > 0.0 && rng.gen_bool(p_gb.min(1.0)) {
                    self.in_bad = true;
                }
                let p = if self.in_bad { loss_bad } else { loss_good };
                p > 0.0 && rng.gen_bool(p.min(1.0))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iwarp_common::rng::{small_rng, test_rng};

    #[test]
    fn none_never_drops() {
        let mut rng = small_rng(1);
        let mut st = LossState::default();
        assert!((0..10_000).all(|_| !st.should_drop(&LossModel::None, &mut rng)));
    }

    #[test]
    fn bernoulli_rate_matches() {
        let mut rng = small_rng(2);
        let mut st = LossState::default();
        let model = LossModel::bernoulli(0.05);
        let n = 200_000;
        let drops = (0..n).filter(|_| st.should_drop(&model, &mut rng)).count();
        let rate = drops as f64 / f64::from(n);
        assert!((rate - 0.05).abs() < 0.005, "rate={rate}");
    }

    #[test]
    fn bernoulli_clamps() {
        assert_eq!(LossModel::bernoulli(2.0).average_rate(), 1.0);
        assert_eq!(LossModel::bernoulli(-1.0).average_rate(), 0.0);
    }

    #[test]
    fn bursty_average_rate() {
        let model = LossModel::bursty(0.01, 5.0);
        assert!((model.average_rate() - 0.01).abs() < 1e-9);
        let mut rng = small_rng(3);
        let mut st = LossState::default();
        let n = 500_000;
        let drops = (0..n).filter(|_| st.should_drop(&model, &mut rng)).count();
        let rate = drops as f64 / f64::from(n);
        assert!((rate - 0.01).abs() < 0.003, "rate={rate}");
    }

    #[test]
    fn bursty_produces_bursts() {
        // With mean burst 10, consecutive drops should be common relative
        // to a Bernoulli process of the same average rate.
        let model = LossModel::bursty(0.02, 10.0);
        let mut rng = small_rng(4);
        let mut st = LossState::default();
        let seq: Vec<bool> = (0..200_000)
            .map(|_| st.should_drop(&model, &mut rng))
            .collect();
        let drops = seq.iter().filter(|&&d| d).count().max(1);
        let pairs = seq.windows(2).filter(|w| w[0] && w[1]).count();
        // P(drop | previous drop) should be far above the 2% base rate.
        let cond = pairs as f64 / drops as f64;
        assert!(cond > 0.5, "conditional drop rate {cond}");
    }

    /// 10⁶-packet statistical audit of [`LossModel::bursty`]: the
    /// empirical drop rate must land within ±10% of
    /// [`LossModel::average_rate`], and the mean observed burst length
    /// within ±15% of the requested mean (burst lengths are geometric
    /// with mean `mean_burst` because the bad state always drops and
    /// exits with probability `1/mean_burst`).
    #[test]
    fn bursty_million_packet_statistics() {
        for (avg_rate, mean_burst, seed) in [
            (0.01, 5.0, 0xB0A1u64),
            (0.05, 8.0, 0xB0A2),
            (0.02, 3.0, 0xB0A3),
        ] {
            let model = LossModel::bursty(avg_rate, mean_burst);
            assert!(
                (model.average_rate() - avg_rate).abs() < 1e-9,
                "closed-form average_rate off for avg={avg_rate}"
            );
            let mut rng = test_rng(seed);
            let mut st = LossState::default();
            let n = 1_000_000u32;
            let mut drops = 0u64;
            let mut bursts = 0u64;
            let mut prev = false;
            for _ in 0..n {
                let d = st.should_drop(&model, &mut rng);
                if d {
                    drops += 1;
                    if !prev {
                        bursts += 1;
                    }
                }
                prev = d;
            }
            let rate = drops as f64 / f64::from(n);
            assert!(
                (rate - avg_rate).abs() <= 0.10 * avg_rate,
                "seed {seed:#x}: empirical rate {rate} vs nominal {avg_rate} (±10%)"
            );
            let mean = drops as f64 / bursts.max(1) as f64;
            assert!(
                (mean - mean_burst).abs() <= 0.15 * mean_burst,
                "seed {seed:#x}: mean burst {mean} vs nominal {mean_burst} (±15%)"
            );
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let model = LossModel::bernoulli(0.3);
        let run = |seed| -> Vec<bool> {
            let mut rng = small_rng(seed);
            let mut st = LossState::default();
            (0..64).map(|_| st.should_drop(&model, &mut rng)).collect()
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
    }
}
