//! RFC-6298-style round-trip-time estimation.
//!
//! Maintains SRTT/RTTVAR with the standard exponential smoothing and
//! derives the retransmission timeout as `SRTT + 4·RTTVAR`, clamped to a
//! configurable `[min, max]` band. Timeout backoff doubles the RTO per
//! consecutive expiry (Karn's algorithm: the backoff only unwinds once a
//! *fresh* sample arrives or the cumulative ACK advances). Samples are
//! expected to be Karn-filtered by the caller — the
//! [`crate::engine::RecoveryEngine`] only samples segments that were
//! transmitted exactly once, so retransmission ambiguity never pollutes
//! the estimate.

use std::time::Duration;

/// Smoothed RTT state plus the derived, backed-off RTO.
#[derive(Clone, Debug)]
pub struct RttEstimator {
    srtt: Option<Duration>,
    rttvar: Duration,
    /// RTO before backoff, clamped to `[min, max]`.
    base_rto: Duration,
    /// Consecutive-timeout exponent (0 = no backoff).
    backoff: u32,
    min: Duration,
    max: Duration,
    /// When false the RTO never backs off (the legacy fixed-timer
    /// discipline `CcAlgo::Fixed` preserves for `rdgram`).
    backoff_enabled: bool,
}

impl RttEstimator {
    /// A fresh estimator starting from `initial` RTO, clamped to
    /// `[min, max]` once samples arrive.
    #[must_use]
    pub fn new(initial: Duration, min: Duration, max: Duration, backoff_enabled: bool) -> Self {
        let max = max.max(min);
        Self {
            srtt: None,
            rttvar: Duration::ZERO,
            base_rto: initial.clamp(min, max),
            backoff: 0,
            min,
            max,
            backoff_enabled,
        }
    }

    /// Feeds one Karn-clean RTT sample (RFC 6298 §2) and unwinds any
    /// timeout backoff.
    pub fn on_sample(&mut self, rtt: Duration) {
        match self.srtt {
            None => {
                self.srtt = Some(rtt);
                self.rttvar = rtt / 2;
            }
            Some(srtt) => {
                let delta = srtt.abs_diff(rtt);
                self.rttvar = (self.rttvar * 3 + delta) / 4;
                self.srtt = Some((srtt * 7 + rtt) / 8);
            }
        }
        let srtt = self.srtt.expect("just set");
        self.base_rto = (srtt + self.rttvar * 4).clamp(self.min, self.max);
        self.backoff = 0;
    }

    /// Doubles the RTO after a timeout (no-op when backoff is disabled).
    pub fn on_backoff(&mut self) {
        if self.backoff_enabled {
            self.backoff = (self.backoff + 1).min(16);
        }
    }

    /// Unwinds the backoff without a sample (cumulative-ACK progress —
    /// the retransmission worked, even if Karn filtering discarded its
    /// timing).
    pub fn reset_backoff(&mut self) {
        self.backoff = 0;
    }

    /// The current (backed-off, clamped) retransmission timeout.
    #[must_use]
    pub fn rto(&self) -> Duration {
        self.base_rto
            .saturating_mul(1u32 << self.backoff.min(16))
            .min(self.max)
    }

    /// The smoothed RTT, once at least one sample has arrived.
    #[must_use]
    pub fn srtt(&self) -> Option<Duration> {
        self.srtt
    }

    /// The smoothed RTT deviation.
    #[must_use]
    pub fn rttvar(&self) -> Duration {
        self.rttvar
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: Duration = Duration::from_millis(1);

    #[test]
    fn first_sample_seeds_srtt_and_rto() {
        let mut e = RttEstimator::new(20 * MS, MS, Duration::from_secs(1), true);
        assert_eq!(e.rto(), 20 * MS);
        e.on_sample(8 * MS);
        assert_eq!(e.srtt(), Some(8 * MS));
        // RTO = srtt + 4*rttvar = 8 + 4*4 = 24 ms.
        assert_eq!(e.rto(), 24 * MS);
    }

    #[test]
    fn smoothing_converges_toward_stable_rtt() {
        let mut e = RttEstimator::new(20 * MS, MS, Duration::from_secs(1), true);
        for _ in 0..64 {
            e.on_sample(5 * MS);
        }
        let srtt = e.srtt().unwrap();
        assert!(
            (srtt.as_micros() as i64 - 5_000).abs() < 200,
            "srtt={srtt:?}"
        );
        // rttvar decays toward 0, so rto approaches srtt (clamped at min).
        assert!(e.rto() < 8 * MS, "rto={:?}", e.rto());
    }

    #[test]
    fn backoff_doubles_and_sample_resets() {
        let mut e = RttEstimator::new(10 * MS, MS, Duration::from_secs(1), true);
        e.on_backoff();
        assert_eq!(e.rto(), 20 * MS);
        e.on_backoff();
        assert_eq!(e.rto(), 40 * MS);
        e.on_sample(10 * MS);
        assert_eq!(e.rto(), 30 * MS); // 10 + 4*5, backoff unwound
    }

    #[test]
    fn backoff_respects_max_and_disabled_mode() {
        let mut fixed = RttEstimator::new(10 * MS, 10 * MS, Duration::from_secs(1), false);
        for _ in 0..8 {
            fixed.on_backoff();
        }
        assert_eq!(
            fixed.rto(),
            10 * MS,
            "disabled backoff must hold the RTO fixed"
        );

        let mut e = RttEstimator::new(100 * MS, MS, 300 * MS, true);
        for _ in 0..8 {
            e.on_backoff();
        }
        assert_eq!(e.rto(), 300 * MS);
    }

    #[test]
    fn rto_clamped_to_min() {
        let mut e = RttEstimator::new(20 * MS, 5 * MS, Duration::from_secs(1), true);
        for _ in 0..32 {
            e.on_sample(Duration::from_micros(50));
        }
        assert_eq!(e.rto(), 5 * MS);
    }
}
