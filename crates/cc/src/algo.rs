//! The [`CongestionControl`] trait and its two implementations.
//!
//! Controllers are deliberately *dumb*: they see a stream of events
//! (acks, SACK-detected gaps, timeouts) from the
//! [`crate::engine::RecoveryEngine`] and maintain only a congestion
//! window and slow-start threshold. All scoreboard bookkeeping — which
//! sequences are outstanding, sacked, or lost, when to fire the RTO,
//! what to retransmit — lives in the engine, so every algorithm shares
//! one recovery discipline and differs only in how aggressively it
//! ramps the window.
//!
//! Everything is measured in abstract *units* (bytes for the byte
//! stream, messages for `rdgram`); `quantum` is the unit equivalent of
//! one MSS so window arithmetic is path-agnostic. Controllers hold no
//! RNG and no wall-clock reads — state is a pure function of the event
//! sequence fed in, which is what keeps seeded chaos runs replayable.

use std::fmt;
use std::time::Duration;

/// Which congestion-control algorithm a reliable path runs
/// (`StreamConfig::cc`, `RdConfig::cc`, [`crate::RecoveryConfig::algo`]).
/// There is no enum-level default: each config writes its own.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CcAlgo {
    /// Fixed window, fixed (non-adaptive) retransmission timer. The
    /// legacy behavior.
    Fixed,
    /// NewReno-style slow start / congestion avoidance / fast recovery
    /// with an RFC-6298 adaptive RTO.
    NewReno,
}

impl CcAlgo {
    /// Every algorithm, in sweep order.
    pub const ALL: [CcAlgo; 2] = [CcAlgo::Fixed, CcAlgo::NewReno];

    /// Parses the `--cc` CLI spelling.
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "fixed" => Some(Self::Fixed),
            "newreno" => Some(Self::NewReno),
            _ => None,
        }
    }
}

impl fmt::Display for CcAlgo {
    /// The `--cc` CLI spelling.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.pad(match self {
            Self::Fixed => "fixed",
            Self::NewReno => "newreno",
        })
    }
}

/// Sizing parameters shared by every controller.
#[derive(Clone, Copy, Debug)]
pub struct CcConfig {
    /// One MSS-equivalent in engine units (bytes for streams, 1 for
    /// message-sequenced paths).
    pub quantum: u64,
    /// Initial congestion window, in units (adaptive algorithms).
    pub init_cwnd: u64,
    /// The constant window [`Fixed`] holds forever, in units.
    pub fixed_window: u64,
    /// Hard upper bound on the congestion window, in units.
    pub max_cwnd: u64,
}

/// A congestion controller: consumes recovery events, produces a window.
///
/// `t` is the event's time on the owning engine's caller's clock (a
/// [`Duration`], not an `Instant`, so unit tests can fabricate timelines
/// without sleeping).
pub trait CongestionControl: Send + fmt::Debug {
    /// Short algorithm name for telemetry/bench labels.
    fn name(&self) -> &'static str;
    /// `acked` units left the network via cumulative ACK; `rtt` is a
    /// Karn-clean sample when one was available.
    fn on_ack(&mut self, t: Duration, acked: u64, rtt: Option<Duration>);
    /// Loss inferred from SACK gaps / duplicate ACKs (fast recovery —
    /// called once per recovery episode, not per lost segment).
    /// `in_flight` is the unsacked outstanding volume at detection time.
    fn on_sack_gap(&mut self, t: Duration, in_flight: u64);
    /// Retransmission timeout fired: collapse to one quantum.
    fn on_rto(&mut self, t: Duration);
    /// Current congestion window, in units.
    fn cwnd(&self) -> u64;
    /// Current slow-start threshold, in units (`u64::MAX` = uncapped).
    fn ssthresh(&self) -> u64;
}

/// Builds the controller for `algo`.
#[must_use]
pub fn build_cc(algo: CcAlgo, cfg: &CcConfig) -> Box<dyn CongestionControl> {
    match algo {
        CcAlgo::Fixed => Box::new(Fixed {
            window: cfg.fixed_window.max(cfg.quantum),
        }),
        CcAlgo::NewReno => Box::new(NewReno::new(cfg)),
    }
}

/// The legacy baseline: a constant window, no reaction to loss.
#[derive(Debug)]
pub struct Fixed {
    window: u64,
}

impl CongestionControl for Fixed {
    fn name(&self) -> &'static str {
        "fixed"
    }
    fn on_ack(&mut self, _t: Duration, _acked: u64, _rtt: Option<Duration>) {}
    fn on_sack_gap(&mut self, _t: Duration, _in_flight: u64) {}
    fn on_rto(&mut self, _t: Duration) {}
    fn cwnd(&self) -> u64 {
        self.window
    }
    fn ssthresh(&self) -> u64 {
        u64::MAX
    }
}

/// NewReno: exponential slow start below `ssthresh`, additive increase
/// above it, multiplicative decrease on loss (halve on a SACK gap,
/// collapse to one quantum on RTO).
#[derive(Debug)]
pub struct NewReno {
    q: f64,
    cwnd: f64,
    ssthresh: f64,
    max: f64,
}

impl NewReno {
    fn new(cfg: &CcConfig) -> Self {
        let q = cfg.quantum.max(1) as f64;
        Self {
            q,
            cwnd: (cfg.init_cwnd.max(cfg.quantum)) as f64,
            ssthresh: f64::INFINITY,
            max: cfg.max_cwnd.max(cfg.quantum) as f64,
        }
    }

    fn clamp(&mut self) {
        self.cwnd = self.cwnd.clamp(self.q, self.max);
    }
}

impl CongestionControl for NewReno {
    fn name(&self) -> &'static str {
        "newreno"
    }

    fn on_ack(&mut self, _t: Duration, acked: u64, _rtt: Option<Duration>) {
        let acked = acked as f64;
        if self.cwnd < self.ssthresh {
            // Slow start: grow by the acked volume (capped at 2 quanta
            // per ACK, RFC 3465 L=2, so stretch ACKs don't burst).
            self.cwnd += acked.min(2.0 * self.q);
        } else {
            // Congestion avoidance: ~one quantum per RTT.
            self.cwnd += self.q * acked / self.cwnd;
        }
        self.clamp();
    }

    fn on_sack_gap(&mut self, _t: Duration, in_flight: u64) {
        self.ssthresh = (in_flight as f64 / 2.0).max(2.0 * self.q);
        self.cwnd = self.ssthresh;
        self.clamp();
    }

    fn on_rto(&mut self, _t: Duration) {
        self.ssthresh = (self.cwnd / 2.0).max(2.0 * self.q);
        self.cwnd = self.q;
        self.clamp();
    }

    fn cwnd(&self) -> u64 {
        self.cwnd as u64
    }

    fn ssthresh(&self) -> u64 {
        if self.ssthresh.is_finite() {
            self.ssthresh as u64
        } else {
            u64::MAX
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: Duration = Duration::from_millis(1);

    fn cfg() -> CcConfig {
        CcConfig {
            quantum: 1,
            init_cwnd: 2,
            fixed_window: 64,
            max_cwnd: 1 << 20,
        }
    }

    #[test]
    fn algo_parse_roundtrip() {
        for algo in CcAlgo::ALL {
            assert_eq!(CcAlgo::parse(&algo.to_string()), Some(algo));
            assert_eq!(build_cc(algo, &cfg()).name(), algo.to_string());
        }
        assert_eq!(CcAlgo::parse("reno"), None);
    }

    #[test]
    fn fixed_ignores_everything() {
        let mut cc = build_cc(CcAlgo::Fixed, &cfg());
        assert_eq!(cc.cwnd(), 64);
        cc.on_rto(MS);
        cc.on_sack_gap(MS, 32);
        cc.on_ack(MS, 16, Some(MS));
        assert_eq!(cc.cwnd(), 64);
    }

    #[test]
    fn newreno_slow_start_doubles_then_halves_on_gap() {
        let mut cc = build_cc(CcAlgo::NewReno, &cfg());
        let start = cc.cwnd();
        // One window acked in quantum-sized ACKs ≈ doubles cwnd.
        for _ in 0..start {
            cc.on_ack(MS, 1, None);
        }
        assert_eq!(cc.cwnd(), 2 * start);
        let before = cc.cwnd();
        cc.on_sack_gap(MS, before);
        assert_eq!(cc.cwnd(), (before / 2).max(2));
        assert_eq!(cc.ssthresh(), cc.cwnd());
        // Congestion avoidance: a full window of ACKs adds ~1 quantum.
        let ca = cc.cwnd();
        for _ in 0..ca {
            cc.on_ack(MS, 1, None);
        }
        assert!(cc.cwnd() >= ca && cc.cwnd() <= ca + 2, "cwnd={}", cc.cwnd());
    }

    #[test]
    fn newreno_rto_collapses_to_one_quantum() {
        let mut cc = build_cc(CcAlgo::NewReno, &cfg());
        for _ in 0..100 {
            cc.on_ack(MS, 4, None);
        }
        assert!(cc.cwnd() > 8);
        cc.on_rto(MS);
        assert_eq!(cc.cwnd(), 1);
        assert!(cc.ssthresh() >= 2);
    }
}
