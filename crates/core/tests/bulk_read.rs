//! End-to-end tests of the streaming bulk-read engine: batching, the
//! selective-signal discipline, loss recovery through the cc scoreboard,
//! and the error-surfacing contract for unsignaled reads.

use std::time::Duration;

use iwarp::read::{BulkRead, BulkReadConfig, RecoveryConfig, SignalInterval};
use iwarp::{Access, Cq, CqeStatus, Device, QpConfig};
use simnet::{Fabric, LossModel, NodeId, WireConfig};

fn pattern(n: usize) -> Vec<u8> {
    (0..n).map(|i| (i % 251) as u8).collect()
}

fn poll_cfg() -> QpConfig {
    QpConfig {
        poll_mode: true,
        read_ttl: Duration::from_secs(10),
        ..QpConfig::default()
    }
}

/// A poll-mode requester/responder pair; the requester's receive CQ is
/// deliberately small so the signaling admission rule is live.
fn read_pair(fab: &Fabric, recv_cq_cap: usize) -> (iwarp::UdQp, iwarp::UdQp, Device, Device, Cq) {
    let a = Device::new(fab, NodeId(0));
    let b = Device::new(fab, NodeId(1));
    let a_recv = Cq::new(recv_cq_cap);
    let qa = a
        .create_ud_qp(None, &Cq::new(1024), &a_recv, poll_cfg())
        .unwrap();
    let qb = b
        .create_ud_qp(None, &Cq::new(1024), &Cq::new(1024), poll_cfg())
        .unwrap();
    (qa, qb, a, b, a_recv)
}

#[test]
fn lossless_lastonly_transfer_is_complete_and_quiet() {
    let fab = Fabric::loopback();
    let (qa, qb, a, b, a_recv) = read_pair(&fab, 4);

    let data = pattern(1 << 20);
    let src = b.register_with(&data, Access::RemoteRead);
    let sink = a.register(data.len(), Access::Local);

    let cfg = BulkReadConfig {
        batch_bytes: 64 * 1024,
        window: 8,
        signal: SignalInterval::LastOnly,
        ..BulkReadConfig::default()
    };
    let mut xfer = BulkRead::new(cfg, &sink, 0, data.len() as u64, qb.dest(), src.stag(), 0);
    let report = xfer
        .run(&qa, &qb, Duration::from_secs(30))
        .expect("transfer");

    assert!(!report.dead);
    assert_eq!(report.bytes, data.len() as u64);
    assert_eq!(report.batches, 16);
    assert_eq!(report.reposts, 0, "loopback is lossless");
    assert_eq!(sink.read_vec(0, data.len()).unwrap(), data);
    // All but the final batch retired silently.
    assert_eq!(a_recv.unsignaled_retired(), 15);
    assert_eq!(a_recv.overflows(), 0);
    xfer.check_scoreboard().unwrap();
}

#[test]
fn every_batch_signaled_never_overflows_a_tiny_cq() {
    let fab = Fabric::loopback();
    let (qa, qb, a, b, a_recv) = read_pair(&fab, 2);

    let data = pattern(256 * 1024);
    let src = b.register_with(&data, Access::RemoteRead);
    let sink = a.register(data.len(), Access::Local);

    let cfg = BulkReadConfig {
        batch_bytes: 16 * 1024,
        window: 16,
        signal: SignalInterval::Every(1),
        ..BulkReadConfig::default()
    };
    let mut xfer = BulkRead::new(cfg, &sink, 0, data.len() as u64, qb.dest(), src.stag(), 0);
    let report = xfer
        .run(&qa, &qb, Duration::from_secs(30))
        .expect("transfer");

    assert!(!report.dead);
    assert_eq!(sink.read_vec(0, data.len()).unwrap(), data);
    // The admission rule kept outstanding signaled reads within the CQ:
    // nothing was ever dropped.
    assert_eq!(a_recv.overflows(), 0);
    assert_eq!(a_recv.unsignaled_retired(), 0);
}

#[test]
fn lossy_transfer_recovers_through_the_scoreboard() {
    let fab = Fabric::new(WireConfig {
        loss: LossModel::Bernoulli { rate: 0.02 },
        seed: 0xB17C_4EAD,
        ..WireConfig::default()
    });
    let (qa, qb, a, b, _a_recv) = read_pair(&fab, 8);

    let data = pattern(512 * 1024);
    let src = b.register_with(&data, Access::RemoteRead);
    let sink = a.register(data.len(), Access::Local);

    let cfg = BulkReadConfig {
        batch_bytes: 16 * 1024,
        window: 8,
        signal: SignalInterval::Every(2),
        recovery: RecoveryConfig {
            initial_rto: Duration::from_millis(30),
            min_rto: Duration::from_millis(10),
            ..RecoveryConfig::default()
        },
        ..BulkReadConfig::default()
    };
    let mut xfer = BulkRead::new(cfg, &sink, 0, data.len() as u64, qb.dest(), src.stag(), 0);
    let report = xfer
        .run(&qa, &qb, Duration::from_secs(60))
        .expect("transfer survives 2% loss");

    assert!(!report.dead);
    assert_eq!(report.bytes, data.len() as u64);
    assert!(report.reposts >= 1, "2% loss over ~360 datagrams must hit");
    assert_eq!(sink.read_vec(0, data.len()).unwrap(), data);
    xfer.check_scoreboard().unwrap();
}

#[test]
fn dead_peer_is_reported_not_spun_on() {
    // Requests vanish into a fully lossy wire: every batch exhausts its
    // retry budget and the transfer must finish with `dead`.
    let fab = Fabric::new(WireConfig {
        loss: LossModel::Bernoulli { rate: 1.0 },
        seed: 1,
        ..WireConfig::default()
    });
    let (qa, qb, a, b, _a_recv) = read_pair(&fab, 4);
    let src = b.register_with(&pattern(64 * 1024), Access::RemoteRead);
    let sink = a.register(64 * 1024, Access::Local);

    let cfg = BulkReadConfig {
        batch_bytes: 16 * 1024,
        window: 4,
        signal: SignalInterval::LastOnly,
        recovery: RecoveryConfig {
            initial_rto: Duration::from_millis(5),
            min_rto: Duration::from_millis(5),
            max_rto: Duration::from_millis(20),
            max_retries: 4,
            ..RecoveryConfig::default()
        },
        ..BulkReadConfig::default()
    };
    let mut xfer = BulkRead::new(cfg, &sink, 0, 64 * 1024, qb.dest(), src.stag(), 0);
    let report = xfer
        .run(&qa, &qb, Duration::from_secs(30))
        .expect("terminates");
    assert!(report.dead);
    assert!(report.bytes < 64 * 1024);
}

#[test]
fn unsignaled_read_expiry_still_surfaces_a_cqe() {
    // The error-surfacing contract: an unsignaled read whose response
    // never comes must NOT vanish silently — expiry always CQEs.
    let fab = Fabric::loopback();
    let a = Device::new(&fab, NodeId(0));
    let b = Device::new(&fab, NodeId(1));
    let a_recv = Cq::new(16);
    let cfg = QpConfig {
        read_ttl: Duration::from_millis(100),
        ..QpConfig::default()
    };
    let qa = a
        .create_ud_qp(None, &Cq::new(16), &a_recv, cfg.clone())
        .unwrap();
    let qb = b
        .create_ud_qp(None, &Cq::new(16), &Cq::new(16), cfg)
        .unwrap();

    // Local-only region: the responder denies the read, no response.
    let src = b.register(1024, Access::Local);
    let sink = a.register(1024, Access::Local);
    qa.post_read_unsignaled(42, &sink, 0, 512, qb.dest(), src.stag(), 0)
        .unwrap();
    // A cancelled read is the one exception: the caller disowned it.
    qa.post_read_unsignaled(43, &sink, 512, 512, qb.dest(), src.stag(), 0)
        .unwrap();
    assert_eq!(qa.cancel_reads(43, 44), 1);

    let cqe = a_recv.poll_timeout(Duration::from_secs(5)).unwrap();
    assert_eq!(cqe.wr_id, 42);
    assert_eq!(cqe.status, CqeStatus::Expired);
    assert!(qa.take_retired_reads().is_empty(), "expiry is not a success");
    assert!(
        a_recv.poll().is_none(),
        "the cancelled read must not expire visibly"
    );
    assert_eq!(qa.cancel_reads(0, u64::MAX), 0);
}

#[test]
fn unsignaled_read_success_retires_without_cqe() {
    let fab = Fabric::loopback();
    let a = Device::new(&fab, NodeId(0));
    let b = Device::new(&fab, NodeId(1));
    let a_recv = Cq::new(16);
    let qa = a
        .create_ud_qp(None, &Cq::new(16), &a_recv, QpConfig::default())
        .unwrap();
    let qb = b
        .create_ud_qp(None, &Cq::new(16), &Cq::new(16), QpConfig::default())
        .unwrap();

    let data = pattern(10_000);
    let src = b.register_with(&data, Access::RemoteRead);
    let sink = a.register(16 * 1024, Access::Local);
    qa.post_read_unsignaled(7, &sink, 0, data.len() as u32, qb.dest(), src.stag(), 0)
        .unwrap();

    // Threaded QPs: wait for the retirement to show up.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    let mut retired = Vec::new();
    while retired.is_empty() && std::time::Instant::now() < deadline {
        retired = qa.take_retired_reads();
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(retired, vec![7]);
    assert_eq!(sink.read_vec(0, data.len()).unwrap(), data);
    assert!(a_recv.poll().is_none(), "no CQE for an unsignaled success");
    assert_eq!(a_recv.unsignaled_retired(), 1);
}

#[test]
fn a_finished_transfer_leaves_nothing_for_the_next_to_reap() {
    // A host pause longer than the RTO makes transfer 1 repost its head
    // batch; the duplicate read is still pending, its response still
    // queued, when the last batch lands. Transfer 2 reuses the QPs and
    // the default `base_wr_id`, and must not take that completion for
    // its own.
    let fab = Fabric::loopback();
    let (qa, qb, a, b, _a_recv) = read_pair(&fab, 64);
    let len = 4 << 20;
    let data_a = pattern(len);
    let data_b: Vec<u8> = data_a.iter().map(|x| !x).collect();
    let src_a = b.register_with(&data_a, Access::RemoteRead);
    let src_b = b.register_with(&data_b, Access::RemoteRead);
    let sink = a.register(len, Access::Local);
    let cfg = BulkReadConfig {
        batch_bytes: 256 * 1024,
        window: 32,
        signal: SignalInterval::LastOnly,
        ..BulkReadConfig::default()
    };

    let drive = |stag: u32, pause: bool| {
        let mut xfer = BulkRead::new(cfg.clone(), &sink, 0, len as u64, qb.dest(), stag, 0);
        let mut now = Duration::ZERO;
        let mut paused = !pause;
        for _ in 0..1_000_000 {
            qb.progress(Duration::ZERO);
            qa.progress(Duration::ZERO);
            now += Duration::from_micros(10);
            if !paused && xfer.completed() >= 3 {
                paused = true;
                now += Duration::from_millis(500);
            }
            if xfer.step(&qa, now).expect("step") {
                return (xfer.report(), sink.read_vec(0, len).unwrap());
            }
        }
        panic!("transfer did not finish: {:?}", xfer.report());
    };

    let (first, got) = drive(src_a.stag(), true);
    assert!(!first.dead);
    assert_eq!(first.reposts, 1, "the pause fires exactly one spurious RTO");
    assert!(got == data_a);

    let (second, got) = drive(src_b.stag(), false);
    assert!(!second.dead);
    assert_eq!(second.bytes, len as u64);
    assert_eq!(second.reposts, 0, "loopback is lossless: {second:?}");
    assert!(
        got == data_b,
        "sink must hold source B when step returns true"
    );
}
