//! `iwarp-cc`: unified loss recovery and congestion control for the
//! reliable paths.
//!
//! Before this crate, `simnet::stream` and `simnet::rdgram` each carried
//! their own ad-hoc retransmission logic — hard-coded timers, a fixed
//! 64-sequence SACK horizon, go-back-nothing window accounting — and
//! neither adapted to path conditions. This crate factors the common
//! machinery into one place:
//!
//! * [`engine::RecoveryEngine`] — a selective-repeat sender scoreboard
//!   (in-flight / SACKed / lost ranges partitioning the outstanding
//!   window), BDP-bounded send window, fast retransmit on duplicate-ACK
//!   and SACK evidence (RFC 6675 *IsLost*), and a bounded retransmit
//!   queue. Both reliable conduits are refactored onto it.
//! * [`rtt::RttEstimator`] — RFC-6298 SRTT/RTTVAR with Karn filtering
//!   and exponential RTO backoff, replacing the fixed retransmit timers.
//! * [`algo`] — the [`algo::CongestionControl`] trait
//!   (`on_ack` / `on_sack_gap` / `on_rto` / `on_send` → cwnd + pacing)
//!   with three implementations: [`algo::Fixed`] (the legacy
//!   fixed-window baseline), [`algo::NewReno`], and [`algo::Cubic`].
//!   Selection rides the [`algo::CcAlgo`] config field, whose default
//!   each config writes itself (RD: `NewReno`; stream: `Fixed`).
//!
//! Everything here is deterministic and RNG-free: engine state is a pure
//! function of the event sequence, so seeded chaos replays stay
//! byte-identical (DESIGN.md §8 documents the boundary). Telemetry is
//! exported under `cc.*` when a [`iwarp_telemetry::Telemetry`] domain is
//! attached.

#![warn(missing_docs)]

pub mod algo;
pub mod engine;
pub mod rtt;

pub use algo::{build_cc, CcAlgo, CcConfig, CongestionControl};
pub use engine::{AckEvent, RecoveryConfig, RecoveryEngine, SegState, SweepEvent};
pub use rtt::RttEstimator;
