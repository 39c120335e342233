//! Property-based tests for the selective-signaling placement policy
//! ([`iwarp::signal::place_signals`]) plus the legacy-equivalence
//! regression for the default all-signaled path.
//!
//! The properties regression-lock the unsignaled-chain-on-full-CQ
//! hazard: for arbitrary WR chains × CQ depths × occupancies, the
//! chosen signal positions (a) never let *forced* signals overflow the
//! CQ, (b) never strand a chain without a completion while budget
//! remains, and (c) leave application-requested signals and the
//! all-signaled default untouched.

use std::time::Duration;

use bytes::Bytes;
use proptest::prelude::*;

use iwarp::signal::{max_unsignaled_run, place_signals};
use iwarp::{Access, Cq, Cqe, CqeOpcode, CqeStatus, Device, QpConfig, SendWr};
use iwarp::wr::RecvWr;
use simnet::{Fabric, NodeId};

proptest! {
    /// Shape and monotonicity: same length, application signals
    /// preserved, only additions.
    #[test]
    fn app_signals_are_preserved(app in proptest::collection::vec(any::<bool>(), 0..64),
                                 capacity in 1usize..128, occupied in 0usize..160) {
        let out = place_signals(&app, capacity, occupied);
        prop_assert_eq!(out.len(), app.len());
        for (a, o) in app.iter().zip(&out) {
            prop_assert!(!a || *o, "an app-requested signal was dropped");
        }
    }

    /// Forced signals fit the CQ's free slots: pushing one CQE per
    /// *added* signal into a CQ with `occupied` entries never overflows.
    #[test]
    fn forced_signals_never_overflow(app in proptest::collection::vec(any::<bool>(), 0..64),
                                     capacity in 1usize..32, occupied in 0usize..40) {
        let out = place_signals(&app, capacity, occupied);
        let added = out
            .iter()
            .zip(&app)
            .filter(|(o, a)| **o && !**a)
            .count();
        prop_assert!(added <= capacity.saturating_sub(occupied));

        // Replay against a real CQ: pre-fill `occupied` entries, then
        // push the forced completions. None may be dropped.
        let cq = Cq::new(capacity);
        for _ in 0..occupied.min(capacity) {
            cq.push(Cqe::default());
        }
        for _ in 0..added {
            cq.push(Cqe::default());
        }
        prop_assert_eq!(cq.overflows(), 0);
    }

    /// A full CQ means no forced signals at all.
    #[test]
    fn full_cq_forces_nothing(app in proptest::collection::vec(any::<bool>(), 0..64),
                              capacity in 1usize..32, extra in 0usize..8) {
        let out = place_signals(&app, capacity, capacity + extra);
        prop_assert_eq!(out, app);
    }

    /// While budget remains, unsignaled runs are bounded and the chain
    /// ends signaled — a waiter always has a completion to poll for.
    #[test]
    fn chains_always_surface_a_completion(len in 1usize..64, capacity in 1usize..32) {
        // Worst case: an all-unsignaled chain against an empty CQ.
        let out = place_signals(&vec![false; len], capacity, 0);
        let budget = capacity; // all slots free
        let added = out.iter().filter(|&&s| s).count();
        prop_assert!(added >= 1, "an unsignaled chain must gain a signal");
        prop_assert!(added <= budget);
        prop_assert!(*out.last().unwrap() || added == budget,
                     "last WR signaled unless the budget ran dry first");
        // Run bound honored up to budget exhaustion.
        let bound = max_unsignaled_run(capacity);
        let mut run = 0usize;
        let mut spent = 0usize;
        for &s in &out {
            if s {
                run = 0;
                spent += 1;
            } else {
                run += 1;
                prop_assert!(run < bound || spent >= budget,
                             "run {run} exceeds bound {bound} with budget left");
            }
        }
    }

    /// The legacy default (every WR signaled) is returned untouched for
    /// any capacity/occupancy.
    #[test]
    fn all_signaled_is_identity(len in 0usize..64, capacity in 1usize..64,
                                occupied in 0usize..80) {
        let app = vec![true; len];
        prop_assert_eq!(place_signals(&app, capacity, occupied), app);
    }

    /// Idempotence while budget remains: if the first pass did not
    /// exhaust its CQ budget, its output already satisfies the
    /// run/termination rules and a second pass adds nothing. (When the
    /// budget runs dry the pass stops early by design, leaving an
    /// unsignaled tail that a fresh budget would revisit — so the
    /// property is scoped to the non-exhausted case.)
    #[test]
    fn placement_is_idempotent_below_budget(app in proptest::collection::vec(any::<bool>(), 0..64),
                                            capacity in 1usize..32, occupied in 0usize..40) {
        let once = place_signals(&app, capacity, occupied);
        let added = once.iter().zip(&app).filter(|(o, a)| **o && !**a).count();
        if added < capacity.saturating_sub(occupied) {
            let twice = place_signals(&once, capacity, occupied);
            prop_assert_eq!(once, twice);
        }
    }
}

/// Satellite regression: with the default `signaled = true`, the CQE
/// stream of `post_send_batch` is bit-for-bit identical to the legacy
/// per-WR path — same wr_ids, same order, same statuses, same lengths —
/// on both the burst and per-packet datapaths.
#[test]
fn legacy_cqe_streams_are_identical() {
    use iwarp::BurstPath;

    let collect = |burst: BurstPath| -> Vec<(u64, CqeOpcode, CqeStatus, u32)> {
        let fab = Fabric::loopback();
        let a = Device::new(&fab, NodeId(0));
        let b = Device::new(&fab, NodeId(1));
        let send_cq = Cq::new(256);
        let cfg = QpConfig {
            burst_path: burst,
            ..QpConfig::default()
        };
        let qa = a
            .create_ud_qp(None, &send_cq, &Cq::new(256), cfg.clone())
            .unwrap();
        let qb = b
            .create_ud_qp(None, &Cq::new(256), &Cq::new(256), cfg)
            .unwrap();
        let sink = b.register(1 << 20, Access::Local);
        for i in 0..32 {
            qb.post_recv(RecvWr::whole(i, &sink)).unwrap();
        }
        let wrs: Vec<SendWr> = (0..16)
            .map(|i| SendWr::new(i, Bytes::from(vec![i as u8; 100 + i as usize * 37]), qb.dest()))
            .collect();
        qa.post_send_batch(&wrs).unwrap();
        let mut out = Vec::new();
        for _ in 0..16 {
            let c = send_cq.poll_timeout(Duration::from_secs(5)).unwrap();
            out.push((c.wr_id, c.opcode, c.status, c.byte_len));
        }
        assert_eq!(send_cq.unsignaled_retired(), 0, "default WRs are signaled");
        out
    };

    let per_packet = collect(BurstPath::PerPacket);
    let burst = collect(BurstPath::Burst);
    assert_eq!(per_packet, burst);
    assert_eq!(per_packet.len(), 16);
    for (i, (wr_id, op, status, len)) in per_packet.iter().enumerate() {
        assert_eq!(*wr_id, i as u64);
        assert_eq!(*op, CqeOpcode::Send);
        assert_eq!(*status, CqeStatus::Success);
        assert_eq!(*len as usize, 100 + i * 37);
    }
}

/// Unsignaled WRs in a batch retire silently on both datapaths, with
/// identical effective-signal decisions (the placement policy runs at
/// doorbell time on both).
#[test]
fn unsignaled_batch_retires_identically_on_both_paths() {
    use iwarp::BurstPath;

    let collect = |burst: BurstPath| -> (Vec<u64>, u64) {
        let fab = Fabric::loopback();
        let a = Device::new(&fab, NodeId(0));
        let b = Device::new(&fab, NodeId(1));
        let send_cq = Cq::new(64);
        let cfg = QpConfig {
            burst_path: burst,
            ..QpConfig::default()
        };
        let qa = a
            .create_ud_qp(None, &send_cq, &Cq::new(64), cfg.clone())
            .unwrap();
        let qb = b
            .create_ud_qp(None, &Cq::new(64), &Cq::new(64), cfg)
            .unwrap();
        // 8 unsignaled WRs against a capacity-64 CQ: run bound 32, so
        // only the trailing WR is force-signaled.
        let wrs: Vec<SendWr> = (0..8)
            .map(|i| SendWr::new(i, Bytes::from(vec![0u8; 64]), qb.dest()).unsignaled())
            .collect();
        qa.post_send_batch(&wrs).unwrap();
        let mut got = Vec::new();
        while let Ok(c) = send_cq.poll_timeout(Duration::from_millis(200)) {
            got.push(c.wr_id);
        }
        (got, send_cq.unsignaled_retired())
    };

    let (pp_ids, pp_retired) = collect(BurstPath::PerPacket);
    let (b_ids, b_retired) = collect(BurstPath::Burst);
    assert_eq!(pp_ids, vec![7], "only the forced trailing signal CQEs");
    assert_eq!(b_ids, pp_ids);
    assert_eq!(pp_retired, 7);
    assert_eq!(b_retired, pp_retired);
}
