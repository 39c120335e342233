//! Property tests for the recovery engine's scoreboard invariant.
//!
//! The engine promises that at every point in its lifetime, the tracked
//! segments — in-flight ∪ sacked ∪ lost — exactly partition the
//! outstanding sequence range `[una, nxt)`: no gaps, no overlaps, in
//! every congestion-control mode, under any interleaving of sends,
//! cumulative ACKs (including partial ACKs that split segments), SACK
//! ranges, duplicate ACKs, timer sweeps and retransmit pops. These tests
//! drive random event sequences and call `check_partition` after every
//! single step.

use std::time::Duration;

use iwarp_cc::{CcAlgo, RecoveryConfig, RecoveryEngine};
use proptest::prelude::*;

/// One randomly generated engine event.
#[derive(Clone, Copy, Debug)]
enum Ev {
    /// Send `len` fresh units.
    Send(u64),
    /// Cumulative-ACK a fraction of the outstanding range (scaled 0..=64
    /// over `[una, nxt]`, so partial-ACK splits get exercised).
    CumAck(u8),
    /// SACK a sub-range of the outstanding span (fractions of 64).
    Sack(u8, u8),
    /// A duplicate cumulative ACK.
    DupAck,
    /// Run gap-based loss detection.
    Detect,
    /// Advance time to the timer deadline and sweep.
    Rto,
    /// Drain one retransmission.
    PopRtx,
}

prop_compose! {
    fn ev_send()(len in 1u64..12) -> Ev { Ev::Send(len) }
}
prop_compose! {
    fn ev_cum_ack()(f in 0u8..=64) -> Ev { Ev::CumAck(f) }
}
prop_compose! {
    fn ev_sack()(a in 0u8..=64, b in 0u8..=64) -> Ev { Ev::Sack(a.min(b), a.max(b)) }
}

fn ev_strategy() -> impl Strategy<Value = Ev> {
    prop_oneof![
        ev_send(),
        ev_cum_ack(),
        ev_sack(),
        Just(Ev::DupAck),
        Just(Ev::Detect),
        Just(Ev::Rto),
        Just(Ev::PopRtx),
    ]
}

/// Maps a 0..=64 fraction onto the current outstanding range.
fn scale(una: u64, nxt: u64, f: u8) -> u64 {
    una + (nxt - una) * u64::from(f) / 64
}

fn run_events(algo: CcAlgo, events: &[Ev]) -> Result<(), TestCaseError> {
    let cfg = RecoveryConfig {
        algo,
        quantum: 1,
        init_cwnd: 4,
        fixed_window: 32,
        bdp_cap: 128,
        initial_rto: Duration::from_millis(10),
        min_rto: Duration::from_millis(1),
        max_rto: Duration::from_millis(200),
        backoff: true,
        max_retries: 4,
        dup_threshold: 2,
        rtx_queue_cap: 8, // small, so overflow + requeue paths run
        paced: false,
    };
    let mut e = RecoveryEngine::new_at(cfg, 1);
    let mut t = Duration::ZERO;
    for (i, ev) in events.iter().enumerate() {
        t += Duration::from_micros(250);
        match *ev {
            Ev::Send(len) => {
                if e.can_send(len, u64::MAX) {
                    e.on_send(t, len);
                }
            }
            Ev::CumAck(f) => {
                e.on_cum_ack(t, scale(e.una(), e.nxt(), f));
            }
            Ev::Sack(lo, hi) => {
                let (l, h) = (scale(e.una(), e.nxt(), lo), scale(e.una(), e.nxt(), hi));
                e.on_sack_range(t, l, h);
            }
            Ev::DupAck => e.on_dup_ack(t),
            Ev::Detect => {
                e.detect_losses(t);
            }
            Ev::Rto => {
                if let Some(d) = e.rto_deadline() {
                    t = t.max(d);
                    e.sweep(t);
                }
            }
            Ev::PopRtx => {
                e.pop_rtx(t);
            }
        }
        if let Err(msg) = e.check_partition() {
            return Err(TestCaseError::fail(format!(
                "after event #{i} {ev:?} (algo {algo}): {msg}"
            )));
        }
        // The scoreboard totals must account for the whole span.
        let (inf, sack, lost) = e.scoreboard();
        prop_assert_eq!(
            inf + sack + lost,
            e.outstanding(),
            "scoreboard totals diverged after event #{} {:?}",
            i,
            ev
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The partition invariant holds for every algorithm under random
    /// event interleavings.
    #[test]
    fn scoreboard_partitions_outstanding_range(
        events in proptest::collection::vec(ev_strategy(), 1..120),
        algo_idx in 0usize..3,
    ) {
        run_events(CcAlgo::ALL[algo_idx], &events)?;
    }

    /// Determinism: feeding the same event sequence twice produces the
    /// same scoreboard (the engine holds no RNG / hidden clock state).
    #[test]
    fn same_events_same_scoreboard(
        events in proptest::collection::vec(ev_strategy(), 1..80),
        algo_idx in 0usize..3,
    ) {
        let algo = CcAlgo::ALL[algo_idx];
        let run = |events: &[Ev]| {
            let cfg = RecoveryConfig {
                algo,
                quantum: 1,
                init_cwnd: 4,
                fixed_window: 32,
                bdp_cap: 128,
                initial_rto: Duration::from_millis(10),
                min_rto: Duration::from_millis(1),
                max_rto: Duration::from_millis(200),
                backoff: true,
                max_retries: 4,
                dup_threshold: 2,
                rtx_queue_cap: 8,
                paced: false,
            };
            let mut e = RecoveryEngine::new_at(cfg, 1);
            let mut t = Duration::ZERO;
            let mut pops = Vec::new();
            for ev in events {
                t += Duration::from_micros(250);
                match *ev {
                    Ev::Send(len) => {
                        if e.can_send(len, u64::MAX) {
                            e.on_send(t, len);
                        }
                    }
                    Ev::CumAck(f) => {
                        e.on_cum_ack(t, scale(e.una(), e.nxt(), f));
                    }
                    Ev::Sack(lo, hi) => {
                        let (l, h) = (scale(e.una(), e.nxt(), lo), scale(e.una(), e.nxt(), hi));
                        e.on_sack_range(t, l, h);
                    }
                    Ev::DupAck => e.on_dup_ack(t),
                    Ev::Detect => {
                        e.detect_losses(t);
                    }
                    Ev::Rto => {
                        if let Some(d) = e.rto_deadline() {
                            t = t.max(d);
                            e.sweep(t);
                        }
                    }
                    Ev::PopRtx => pops.push(e.pop_rtx(t)),
                }
            }
            (e.una(), e.nxt(), e.cwnd(), e.scoreboard(), e.is_dead(), pops)
        };
        prop_assert_eq!(run(&events), run(&events));
    }
}
