//! Concurrency stress over the sharded datapath: M sender threads hammer
//! K receive QPs that share one device's shard engines, then the chaos
//! crate's invariant oracle audits the wreckage (conservation, CQ
//! uniqueness, per-flow ordering, receive accounting).
//!
//! The bounded runs are tier-1. The heavyweight soak lives behind
//! `#[ignore]`; run it with
//! `cargo test --test scale_stress -- --include-ignored` (nightly).

use std::collections::HashMap;
use std::time::{Duration, Instant};

use datagram_iwarp::chaos::invariants::{
    check_conservation, check_cq_discipline, check_recv_accounting,
};
use datagram_iwarp::net::{Fabric, LossModel, NodeId, WireConfig};
use datagram_iwarp::verbs::wr::RecvWr;
use datagram_iwarp::verbs::{
    Access, Cq, CqeStatus, Device, DeviceConfig, QpConfig, ShardConfig, UdDest,
};

const SLOT: usize = 256;

/// Payload: `[sender, qp_idx, seq:4le, fill...]` — self-describing so any
/// received datagram can be attributed and sequence-checked.
fn payload(sender: u8, qp_idx: u8, seq: u32) -> Vec<u8> {
    let mut p = vec![0u8; 64];
    p[0] = sender;
    p[1] = qp_idx;
    p[2..6].copy_from_slice(&seq.to_le_bytes());
    for (i, b) in p.iter_mut().enumerate().skip(6) {
        *b = (i as u8) ^ sender ^ qp_idx ^ (seq as u8);
    }
    p
}

struct StressParams {
    senders: usize,
    qps: usize,
    msgs_per_qp_per_sender: u32,
    shards: usize,
    loss: Option<f64>,
}

/// Runs one stress round and audits it. Returns total CQEs consumed.
fn run_stress(p: &StressParams) -> usize {
    let cfg = WireConfig {
        loss: p.loss.map_or(LossModel::None, LossModel::bernoulli),
        seed: 0x5CA1E,
        ..WireConfig::default()
    };
    let fab = Fabric::new(cfg);
    let server = Device::with_config(
        &fab,
        NodeId(1),
        DeviceConfig {
            shard: ShardConfig::with_shards(p.shards),
            ..DeviceConfig::default()
        },
    );
    assert_eq!(server.sharded(), p.shards > 0);

    // K receive QPs, all serviced by the device's shard pool.
    let per_qp = p.senders * p.msgs_per_qp_per_sender as usize;
    let mut qps = Vec::new();
    for _ in 0..p.qps {
        let send_cq = Cq::new(8);
        let recv_cq = Cq::new(per_qp + 8);
        let qp = server
            .create_ud_qp(None, &send_cq, &recv_cq, QpConfig::default())
            .unwrap();
        assert_eq!(
            qp.is_sharded(),
            p.shards > 0,
            "UD QP must follow device sharding"
        );
        let mr = server.register(per_qp * SLOT, Access::Local);
        for i in 0..per_qp {
            qp.post_recv(RecvWr {
                wr_id: i as u64,
                mr: mr.clone(),
                offset: (i * SLOT) as u64,
                len: SLOT as u32,
            })
            .unwrap();
        }
        qps.push((qp, recv_cq, mr));
    }
    let dests: Vec<UdDest> = qps.iter().map(|(qp, _, _)| qp.dest()).collect();

    // M sender threads, one device each, interleaving across all K QPs so
    // every shard inbox sees concurrent producers.
    std::thread::scope(|s| {
        for t in 0..p.senders {
            let dests = dests.clone();
            let fab = fab.clone();
            s.spawn(move || {
                let dev = Device::new(&fab, NodeId(10 + t as u16));
                let send_cq = Cq::new(64);
                let recv_cq = Cq::new(8);
                let qp = dev
                    .create_ud_qp(
                        None,
                        &send_cq,
                        &recv_cq,
                        QpConfig {
                            poll_mode: true, // sender only; no RX engine needed
                            ..QpConfig::default()
                        },
                    )
                    .unwrap();
                for seq in 0..p.msgs_per_qp_per_sender {
                    for (qi, dest) in dests.iter().enumerate() {
                        qp.post_send(u64::from(seq), payload(t as u8, qi as u8, seq), *dest)
                            .unwrap();
                        while send_cq.poll().is_some() {}
                    }
                }
            });
        }
    });

    // Drain every QP until its CQ goes quiet (loss-free runs must see the
    // full count; lossy runs whatever survived).
    let mut total = 0usize;
    let mut violations = Vec::new();
    for (qi, (qp, recv_cq, mr)) in qps.iter().enumerate() {
        let mut cqes = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(30);
        while cqes.len() < per_qp && Instant::now() < deadline {
            match recv_cq.poll_timeout(Duration::from_millis(200)) {
                Ok(cqe) => cqes.push(cqe),
                Err(_) => {
                    if p.loss.is_some() {
                        break; // quiet period: the rest was lost
                    }
                }
            }
        }
        if p.loss.is_none() {
            assert_eq!(
                cqes.len(),
                per_qp,
                "qp #{qi}: loss-free run must complete every posted receive"
            );
        }
        // Per-CQE payload attribution + per-(sender) FIFO ordering: the
        // fabric, conduit queue, and shard drain are all FIFO per flow, so
        // a sender's sequence numbers arrive monotonically at each QP.
        let mut last_seq: HashMap<u8, u32> = HashMap::new();
        for cqe in &cqes {
            assert_eq!(cqe.status, CqeStatus::Success);
            let off = cqe.wr_id * SLOT as u64;
            let data = mr.read_vec(off, cqe.byte_len as usize).unwrap();
            let (sender, qp_idx) = (data[0], data[1]);
            let seq = u32::from_le_bytes(data[2..6].try_into().unwrap());
            assert_eq!(qp_idx as usize, qi, "datagram delivered to the wrong QP");
            assert_eq!(
                data,
                payload(sender, qp_idx, seq),
                "payload corrupted under contention"
            );
            if let Some(prev) = last_seq.insert(sender, seq) {
                assert!(
                    seq > prev,
                    "qp #{qi}: sender {sender} seq {seq} after {prev} — per-flow FIFO broken"
                );
            }
        }
        let posted_ids: Vec<u64> = (0..per_qp as u64).collect();
        violations.extend(check_cq_discipline(&cqes, &posted_ids, &[], &[]));
        violations.extend(check_recv_accounting(per_qp, cqes.len(), qp.posted_recvs()));
        total += cqes.len();
    }
    violations.extend(check_conservation(&fab));
    assert!(
        violations.is_empty(),
        "invariant violations: {violations:?}"
    );
    total
}

/// Bounded tier-1 round: 4 threads × 12 QPs over 2 shards, loss-free —
/// every message must land exactly once, in per-flow order.
#[test]
fn contended_shards_lose_nothing() {
    let got = run_stress(&StressParams {
        senders: 4,
        qps: 12,
        msgs_per_qp_per_sender: 24,
        shards: 2,
        loss: None,
    });
    assert_eq!(got, 4 * 12 * 24);
}

/// Same contention with 10 % Bernoulli loss: whatever arrives must still
/// be attributable, unique, ordered per flow, and conserved by the fabric.
#[test]
fn contended_shards_uphold_invariants_under_loss() {
    let got = run_stress(&StressParams {
        senders: 4,
        qps: 8,
        msgs_per_qp_per_sender: 16,
        shards: 2,
        loss: Some(0.10),
    });
    // Statistically impossible to lose everything (or nothing) at 10 %.
    assert!(got > 0, "lossy run delivered nothing");
    assert!(got < 4 * 8 * 16, "10 % loss model dropped nothing");
}

/// A single shard serializing many contended QPs must behave identically
/// (the degenerate pool is the determinism anchor).
#[test]
fn single_shard_serializes_correctly() {
    let got = run_stress(&StressParams {
        senders: 3,
        qps: 9,
        msgs_per_qp_per_sender: 16,
        shards: 1,
        loss: None,
    });
    assert_eq!(got, 3 * 9 * 16);
}

/// Nightly soak: an order of magnitude more traffic, repeated, alternating
/// shard counts. `cargo test --test scale_stress -- --include-ignored`.
#[test]
#[ignore = "long soak; run nightly with --include-ignored"]
fn soak_many_threads_many_qps() {
    for round in 0..3u32 {
        let shards = [1, 2, 4][round as usize % 3];
        let got = run_stress(&StressParams {
            senders: 8,
            qps: 48,
            msgs_per_qp_per_sender: 50,
            shards,
            loss: None,
        });
        assert_eq!(got, 8 * 48 * 50, "round {round} (shards={shards})");
    }
}
