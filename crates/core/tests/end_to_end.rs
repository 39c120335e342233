//! End-to-end tests of the datagram-iWARP stack over the simulated fabric:
//! two devices ("nodes") exchanging verbs traffic in all three QP modes.

use std::collections::HashSet;
use std::time::Duration;

use bytes::Bytes;
use iwarp::wr::{RecvWr, UdDest};
use iwarp::{
    Access, Cq, CqeOpcode, CqeStatus, Device, DeviceConfig, IwarpError, QpConfig, SendWr,
    ShardConfig,
};
use simnet::rdgram::RdConfig;
use simnet::{Addr, Fabric, LossModel, NetError, NodeId, WireConfig};

const TIMEOUT: Duration = Duration::from_secs(5);

fn two_devices(fab: &Fabric) -> (Device, Device) {
    (Device::new(fab, NodeId(0)), Device::new(fab, NodeId(1)))
}

fn cqs() -> (Cq, Cq) {
    (Cq::new(1024), Cq::new(1024))
}

fn pattern(n: usize) -> Vec<u8> {
    (0..n).map(|i| (i % 251) as u8).collect()
}

#[test]
fn ud_send_recv_small() {
    let fab = Fabric::loopback();
    let (a, b) = two_devices(&fab);
    let (a_send, a_recv) = cqs();
    let (b_send, b_recv) = cqs();
    let qa = a
        .create_ud_qp(None, &a_send, &a_recv, QpConfig::default())
        .unwrap();
    let qb = b
        .create_ud_qp(None, &b_send, &b_recv, QpConfig::default())
        .unwrap();

    let sink = b.register(4096, Access::Local);
    qb.post_recv(RecvWr::whole(11, &sink)).unwrap();

    qa.post_send(22, Bytes::from_static(b"hello datagram iwarp"), qb.dest())
        .unwrap();

    let send_cqe = a_send.poll_timeout(TIMEOUT).unwrap();
    assert_eq!(send_cqe.wr_id, 22);
    assert_eq!(send_cqe.opcode, CqeOpcode::Send);
    assert_eq!(send_cqe.status, CqeStatus::Success);

    let cqe = b_recv.poll_timeout(TIMEOUT).unwrap();
    assert_eq!(cqe.wr_id, 11);
    assert_eq!(cqe.status, CqeStatus::Success);
    assert_eq!(cqe.byte_len, 20);
    // Datagram completions must report the traffic source.
    let src = cqe.src.expect("UD completions carry the source");
    assert_eq!(src.addr, qa.local_addr());
    assert_eq!(src.qpn, qa.qpn());

    assert_eq!(sink.read_vec(0, 20).unwrap(), b"hello datagram iwarp");
}

#[test]
fn ud_send_recv_multi_datagram() {
    // 300 KiB message: several 64 KiB datagrams, reassembled at the target.
    let fab = Fabric::loopback();
    let (a, b) = two_devices(&fab);
    let (a_send, a_recv) = cqs();
    let (b_send, b_recv) = cqs();
    let qa = a
        .create_ud_qp(None, &a_send, &a_recv, QpConfig::default())
        .unwrap();
    let qb = b
        .create_ud_qp(None, &b_send, &b_recv, QpConfig::default())
        .unwrap();

    let data = pattern(300 * 1024);
    let sink = b.register(512 * 1024, Access::Local);
    qb.post_recv(RecvWr::whole(1, &sink)).unwrap();
    qa.post_send(2, data.clone(), qb.dest()).unwrap();

    let cqe = b_recv.poll_timeout(TIMEOUT).unwrap();
    assert_eq!(cqe.status, CqeStatus::Success);
    assert_eq!(cqe.byte_len as usize, data.len());
    assert_eq!(sink.read_vec(0, data.len()).unwrap(), data);
}

#[test]
fn ud_empty_message() {
    let fab = Fabric::loopback();
    let (a, b) = two_devices(&fab);
    let (a_send, a_recv) = cqs();
    let (b_send, b_recv) = cqs();
    let qa = a
        .create_ud_qp(None, &a_send, &a_recv, QpConfig::default())
        .unwrap();
    let qb = b
        .create_ud_qp(None, &b_send, &b_recv, QpConfig::default())
        .unwrap();
    let sink = b.register(16, Access::Local);
    qb.post_recv(RecvWr::whole(1, &sink)).unwrap();
    qa.post_send(2, Bytes::new(), qb.dest()).unwrap();
    let cqe = b_recv.poll_timeout(TIMEOUT).unwrap();
    assert_eq!(cqe.byte_len, 0);
    assert_eq!(cqe.status, CqeStatus::Success);
}

#[test]
fn ud_recv_too_small_completes_with_error() {
    let fab = Fabric::loopback();
    let (a, b) = two_devices(&fab);
    let (a_send, a_recv) = cqs();
    let (b_send, b_recv) = cqs();
    let qa = a
        .create_ud_qp(None, &a_send, &a_recv, QpConfig::default())
        .unwrap();
    let qb = b
        .create_ud_qp(None, &b_send, &b_recv, QpConfig::default())
        .unwrap();
    let sink = b.register(64, Access::Local);
    qb.post_recv(RecvWr::whole(9, &sink)).unwrap();
    qa.post_send(1, pattern(1000), qb.dest()).unwrap();
    let cqe = b_recv.poll_timeout(TIMEOUT).unwrap();
    assert_eq!(cqe.wr_id, 9);
    assert_eq!(cqe.status, CqeStatus::RecvTooSmall);
    assert_eq!(cqe.byte_len, 1000);
}

#[test]
fn ud_write_record_single_segment() {
    let fab = Fabric::loopback();
    let (a, b) = two_devices(&fab);
    let (a_send, a_recv) = cqs();
    let (b_send, b_recv) = cqs();
    let qa = a
        .create_ud_qp(None, &a_send, &a_recv, QpConfig::default())
        .unwrap();
    let qb = b
        .create_ud_qp(None, &b_send, &b_recv, QpConfig::default())
        .unwrap();

    // Target advertises a remote-writable region (stag + offset).
    let sink = b.register(8192, Access::RemoteWrite);
    qa.post_write_record(
        5,
        Bytes::from_static(b"one-sided!"),
        qb.dest(),
        sink.stag(),
        100,
    )
    .unwrap();

    // Source completes immediately (data handed to LLP)...
    let s = a_send.poll_timeout(TIMEOUT).unwrap();
    assert_eq!(s.opcode, CqeOpcode::RdmaWrite);

    // ...and the *target* gets an unsolicited Write-Record completion,
    // with no posted receive consumed.
    let cqe = b_recv.poll_timeout(TIMEOUT).unwrap();
    assert_eq!(cqe.opcode, CqeOpcode::WriteRecord);
    assert_eq!(cqe.status, CqeStatus::Success);
    assert_eq!(cqe.byte_len, 10);
    let info = cqe.write_record.expect("write-record info");
    assert_eq!(info.stag, sink.stag());
    assert_eq!(info.base_to, 100);
    assert!(info.is_complete());
    assert_eq!(info.absolute_runs(), vec![(100, 110)]);
    assert_eq!(sink.read_vec(100, 10).unwrap(), b"one-sided!");
}

#[test]
fn ud_write_record_large_message() {
    let fab = Fabric::loopback();
    let (a, b) = two_devices(&fab);
    let (a_send, a_recv) = cqs();
    let (b_send, b_recv) = cqs();
    let qa = a
        .create_ud_qp(None, &a_send, &a_recv, QpConfig::default())
        .unwrap();
    let qb = b
        .create_ud_qp(None, &b_send, &b_recv, QpConfig::default())
        .unwrap();

    let data = pattern(500 * 1024);
    let sink = b.register(1024 * 1024, Access::RemoteWrite);
    qa.post_write_record(1, data.clone(), qb.dest(), sink.stag(), 0)
        .unwrap();

    let cqe = b_recv.poll_timeout(TIMEOUT).unwrap();
    assert_eq!(cqe.status, CqeStatus::Success);
    assert_eq!(cqe.byte_len as usize, data.len());
    assert!(cqe.write_record.unwrap().is_complete());
    assert_eq!(sink.read_vec(0, data.len()).unwrap(), data);
}

#[test]
fn ud_write_record_denied_without_permission() {
    let fab = Fabric::loopback();
    let (a, b) = two_devices(&fab);
    let (a_send, a_recv) = cqs();
    let (b_send, b_recv) = cqs();
    let qa = a
        .create_ud_qp(None, &a_send, &a_recv, QpConfig::default())
        .unwrap();
    let qb = b
        .create_ud_qp(None, &b_send, &b_recv, QpConfig::default())
        .unwrap();

    // Region is local-only: remote writes must be refused, but the UD QP
    // must NOT enter an error state (paper §IV.B item 2).
    let sink = b.register(4096, Access::Local);
    qa.post_write_record(1, Bytes::from_static(b"nope"), qb.dest(), sink.stag(), 0)
        .unwrap();
    assert!(b_recv.poll_timeout(Duration::from_millis(200)).is_err());
    assert!(
        qb.stats()
            .access_violations
            .load(std::sync::atomic::Ordering::Relaxed)
            >= 1
    );

    // The QP still works afterwards.
    let ok_sink = b.register(4096, Access::RemoteWrite);
    qa.post_write_record(2, Bytes::from_static(b"yes"), qb.dest(), ok_sink.stag(), 0)
        .unwrap();
    let cqe = b_recv.poll_timeout(TIMEOUT).unwrap();
    assert_eq!(cqe.status, CqeStatus::Success);
}

#[test]
fn ud_read_extension_roundtrip() {
    let fab = Fabric::loopback();
    let (a, b) = two_devices(&fab);
    let (a_send, a_recv) = cqs();
    let (b_send, b_recv) = cqs();
    let qa = a
        .create_ud_qp(None, &a_send, &a_recv, QpConfig::default())
        .unwrap();
    let qb = b
        .create_ud_qp(None, &b_send, &b_recv, QpConfig::default())
        .unwrap();
    let _ = &b_send;

    let data = pattern(100_000);
    let remote_src = b.register_with(&data, Access::RemoteRead);
    let sink = a.register(128 * 1024, Access::Local);

    qa.post_read(
        7,
        &sink,
        0,
        data.len() as u32,
        qb.dest(),
        remote_src.stag(),
        0,
    )
    .unwrap();
    let cqe = a_recv.poll_timeout(TIMEOUT).unwrap();
    assert_eq!(cqe.wr_id, 7);
    assert_eq!(cqe.opcode, CqeOpcode::RdmaRead);
    assert_eq!(cqe.status, CqeStatus::Success);
    assert_eq!(sink.read_vec(0, data.len()).unwrap(), data);
}

#[test]
fn ud_read_denied_by_permissions_expires() {
    // No response ever arrives, so on a sharded requester the `Expired`
    // CQE can only come from the shard worker's idle tick and sweep.
    for shard in [ShardConfig::default(), ShardConfig::with_shards(1)] {
        let fab = Fabric::loopback();
        let sharded = shard.shards > 0;
        let a_cfg = DeviceConfig {
            shard,
            ..DeviceConfig::default()
        };
        let a = Device::with_config(&fab, NodeId(0), a_cfg);
        let b = Device::new(&fab, NodeId(1));
        let (a_send, a_recv) = cqs();
        let (b_send, b_recv) = cqs();
        let cfg = QpConfig {
            read_ttl: Duration::from_millis(100),
            ..QpConfig::default()
        };
        let qa = a.create_ud_qp(None, &a_send, &a_recv, cfg.clone()).unwrap();
        let qb = b.create_ud_qp(None, &b_send, &b_recv, cfg).unwrap();
        assert_eq!(qa.is_sharded(), sharded);

        let remote_src = b.register(1024, Access::Local); // not remote-readable
        let sink = a.register(1024, Access::Local);
        qa.post_read(8, &sink, 0, 512, qb.dest(), remote_src.stag(), 0)
            .unwrap();
        let cqe = a_recv.poll_timeout(TIMEOUT).unwrap();
        assert_eq!(cqe.wr_id, 8, "sharded={sharded}");
        assert_eq!(cqe.status, CqeStatus::Expired, "sharded={sharded}");
    }
}

#[test]
fn busy_shard_still_expires_a_quiet_qps_read() {
    use std::sync::atomic::{AtomicBool, Ordering};

    // A sibling on the same (single) shard receives about one datagram
    // per millisecond, so its worker never sees an idle tick; the denied
    // read on the quiet QP must still expire.
    let fab = Fabric::loopback();
    let a = Device::with_config(
        &fab,
        NodeId(0),
        DeviceConfig {
            shard: ShardConfig::with_shards(1),
            ..DeviceConfig::default()
        },
    );
    let b = Device::new(&fab, NodeId(1));
    let read_ttl = Duration::from_millis(100);
    let cfg = QpConfig {
        read_ttl,
        ..QpConfig::default()
    };
    let (a_send, a_recv) = cqs();
    let (s_send, s_recv) = cqs();
    let (b_send, b_recv) = cqs();
    let qa = a.create_ud_qp(None, &a_send, &a_recv, cfg.clone()).unwrap();
    let sibling = a.create_ud_qp(None, &s_send, &s_recv, cfg.clone()).unwrap();
    let qb = b.create_ud_qp(None, &b_send, &b_recv, cfg).unwrap();
    assert!(qa.is_sharded() && sibling.is_sharded());

    let stop = AtomicBool::new(false);
    let cqe = std::thread::scope(|s| {
        s.spawn(|| {
            while !stop.load(Ordering::Relaxed) {
                qb.post_send(0, Bytes::from_static(b"busy"), sibling.dest())
                    .unwrap();
                while b_send.poll().is_some() {}
                std::thread::sleep(Duration::from_millis(1));
            }
        });
        // The shard is draining the flood before the read goes out.
        while sibling.stats().rx_segments.load(Ordering::Relaxed) < 10 {
            std::thread::yield_now();
        }
        let remote_src = b.register(1024, Access::Local); // not remote-readable
        let sink = a.register(1024, Access::Local);
        qa.post_read(8, &sink, 0, 512, qb.dest(), remote_src.stag(), 0)
            .unwrap();
        let cqe = a_recv.poll_timeout(read_ttl + Duration::from_secs(1));
        stop.store(true, Ordering::Relaxed);
        cqe
    });
    let cqe = cqe.expect("the quiet QP's read never expired while its sibling was busy");
    assert_eq!(cqe.wr_id, 8);
    assert_eq!(cqe.status, CqeStatus::Expired);
}

#[test]
fn ud_send_batch_is_one_fabric_burst_by_default() {
    let fab = Fabric::loopback();
    let (a, b) = two_devices(&fab);
    let (a_send, a_recv) = cqs();
    let (b_send, b_recv) = cqs();
    let qa = a
        .create_ud_qp(None, &a_send, &a_recv, QpConfig::default())
        .unwrap();
    let qb = b
        .create_ud_qp(None, &b_send, &b_recv, QpConfig::default())
        .unwrap();
    let sink = b.register(32 * 64, Access::Local);
    for i in 0..32u64 {
        qb.post_recv(RecvWr {
            wr_id: i,
            mr: sink.clone(),
            offset: i * 64,
            len: 64,
        })
        .unwrap();
    }
    let payload = |i: u64| vec![i as u8; 64];
    let wrs: Vec<SendWr> = (0..32)
        .map(|i| SendWr::new(i, payload(i), qb.dest()))
        .collect();

    let bursts = || {
        fab.telemetry()
            .snapshot()
            .get("core.qp.tx_bursts")
            .unwrap_or(0)
    };
    let before = bursts();
    qa.post_send_batch(&wrs).unwrap();
    assert_eq!(
        bursts() - before,
        1,
        "32 WRs to one destination are one burst"
    );

    for i in 0..32 {
        let c = a_send.poll_timeout(TIMEOUT).unwrap();
        assert_eq!((c.wr_id, c.status), (i, CqeStatus::Success));
    }
    for i in 0..32 {
        let c = b_recv.poll_timeout(TIMEOUT).unwrap();
        assert_eq!((c.wr_id, c.status, c.byte_len), (i, CqeStatus::Success, 64));
        assert_eq!(sink.read_vec(i * 64, 64).unwrap(), payload(i));
    }
}

#[test]
fn ud_recv_expires_under_loss() {
    // 2% wire loss: most multi-datagram messages arrive incompletely
    // (some 64 KiB datagram loses a fragment), so their posted receives
    // must be recovered with Expired status. Messages that lose *every*
    // datagram never consume a receive at all — that buffer stays posted.
    let fab = Fabric::new(WireConfig {
        loss: LossModel::bernoulli(0.02),
        seed: 1234,
        ..WireConfig::default()
    });
    let (a, b) = two_devices(&fab);
    let (a_send, a_recv) = cqs();
    let (b_send, b_recv) = cqs();
    let cfg = QpConfig {
        recv_ttl: Duration::from_millis(150),
        ..QpConfig::default()
    };
    let qa = a.create_ud_qp(None, &a_send, &a_recv, cfg.clone()).unwrap();
    let qb = b.create_ud_qp(None, &b_send, &b_recv, cfg).unwrap();

    let sink = b.register(512 * 1024, Access::Local);
    let n = 24u64;
    for wr_id in 0..n {
        qb.post_recv(RecvWr::whole(wr_id, &sink)).unwrap();
    }
    for i in 0..n {
        qa.post_send(i, pattern(300 * 1024), qb.dest()).unwrap();
    }
    // Collect completions until quiescent (expiry fires at 150 ms).
    let mut completed = 0u64;
    let mut expired = 0u64;
    while let Ok(cqe) = b_recv.poll_timeout(Duration::from_millis(600)) {
        match cqe.status {
            CqeStatus::Success => completed += 1,
            CqeStatus::Expired => expired += 1,
            other => panic!("unexpected status {other:?}"),
        }
    }
    // Accounting must balance exactly: every posted receive was either
    // completed, expired, or never consumed.
    assert_eq!(
        completed + expired + qb.posted_recvs() as u64,
        n,
        "receive accounting leaked (completed={completed}, expired={expired})"
    );
    assert!(expired > 0, "expected expired receives at 2% loss");
}

#[test]
fn ud_write_record_partial_under_loss() {
    // Large Write-Record messages under loss: completions may be Partial
    // (some 64 KiB chunks lost) but every declared run must hold the
    // correct bytes.
    let fab = Fabric::new(WireConfig {
        loss: LossModel::bernoulli(0.02),
        seed: 77,
        ..WireConfig::default()
    });
    let (a, b) = two_devices(&fab);
    let (a_send, a_recv) = cqs();
    let (b_send, b_recv) = cqs();
    let qa = a
        .create_ud_qp(None, &a_send, &a_recv, QpConfig::default())
        .unwrap();
    let qb = b
        .create_ud_qp(None, &b_send, &b_recv, QpConfig::default())
        .unwrap();

    let data = pattern(512 * 1024);
    let sink = b.register(512 * 1024, Access::RemoteWrite);
    let attempts = 30;
    for i in 0..attempts {
        qa.post_write_record(i, data.clone(), qb.dest(), sink.stag(), 0)
            .unwrap();
    }
    let mut complete = 0u32;
    let mut partial = 0u32;
    while let Ok(cqe) = b_recv.poll_timeout(Duration::from_millis(500)) {
        let info = cqe.write_record.expect("record info");
        match cqe.status {
            CqeStatus::Success => {
                assert!(info.is_complete());
                complete += 1;
            }
            CqeStatus::Partial => {
                assert!(!info.is_complete());
                assert!(info.valid_bytes() < data.len() as u64);
                // Verify every declared-valid run content-matches.
                for run in info.validity.runs() {
                    let got = sink
                        .read_vec(info.base_to + run.start, (run.end - run.start) as usize)
                        .unwrap();
                    assert_eq!(got, data[run.start as usize..run.end as usize]);
                }
                partial += 1;
            }
            other => panic!("unexpected status {other:?}"),
        }
    }
    // With 2% wire loss and ~44 packets per 64 KiB chunk, partial
    // completions must appear, and some messages may vanish entirely
    // (lost final segment). At least a few must be declared.
    assert!(complete + partial > 0, "no completions at all");
    assert!(partial > 0, "expected partial placements at 2% loss");
}

#[test]
fn rc_connect_send_recv() {
    let fab = Fabric::loopback();
    let (a, b) = two_devices(&fab);
    let (a_send, a_recv) = cqs();
    let (b_send, b_recv) = cqs();
    let listener = b.rc_listen(4000).unwrap();

    std::thread::scope(|s| {
        let srv = s.spawn(|| {
            listener
                .accept(TIMEOUT, &b_send, &b_recv, QpConfig::default())
                .unwrap()
        });
        let qa = a
            .rc_connect(Addr::new(1, 4000), &a_send, &a_recv, QpConfig::default())
            .unwrap();
        let qb = srv.join().unwrap();
        assert_eq!(qa.peer_qpn(), qb.qpn());
        assert_eq!(qb.peer_qpn(), qa.qpn());

        let sink = b.register(64 * 1024, Access::Local);
        qb.post_recv(RecvWr::whole(1, &sink)).unwrap();
        let data = pattern(50_000);
        qa.post_send(2, data.clone()).unwrap();
        let cqe = b_recv.poll_timeout(TIMEOUT).unwrap();
        assert_eq!(cqe.status, CqeStatus::Success);
        assert_eq!(cqe.byte_len as usize, data.len());
        assert_eq!(sink.read_vec(0, data.len()).unwrap(), data);
    });
}

#[test]
fn rc_rdma_write_with_send_notification() {
    // The paper's Fig. 3 (top): RC RDMA Write is silent at the target; a
    // follow-up send tells the application the data is valid.
    let fab = Fabric::loopback();
    let (a, b) = two_devices(&fab);
    let (a_send, a_recv) = cqs();
    let (b_send, b_recv) = cqs();
    let listener = b.rc_listen(4001).unwrap();
    std::thread::scope(|s| {
        let srv = s.spawn(|| {
            listener
                .accept(TIMEOUT, &b_send, &b_recv, QpConfig::default())
                .unwrap()
        });
        let qa = a
            .rc_connect(Addr::new(1, 4001), &a_send, &a_recv, QpConfig::default())
            .unwrap();
        let qb = srv.join().unwrap();

        let sink = b.register(128 * 1024, Access::RemoteWrite);
        let notify_sink = b.register(16, Access::Local);
        qb.post_recv(RecvWr::whole(1, &notify_sink)).unwrap();

        let data = pattern(100_000);
        qa.post_rdma_write(2, data.clone(), sink.stag(), 0).unwrap();
        qa.post_send(3, Bytes::from_static(b"done")).unwrap();

        // Target sees ONLY the send completion; the write placed silently.
        let cqe = b_recv.poll_timeout(TIMEOUT).unwrap();
        assert_eq!(cqe.wr_id, 1);
        assert_eq!(cqe.opcode, CqeOpcode::Recv);
        assert_eq!(sink.read_vec(0, data.len()).unwrap(), data);
        assert!(b_recv.poll().is_none());
    });
}

#[test]
fn rc_rdma_read() {
    let fab = Fabric::loopback();
    let (a, b) = two_devices(&fab);
    let (a_send, a_recv) = cqs();
    let (b_send, b_recv) = cqs();
    let listener = b.rc_listen(4002).unwrap();
    std::thread::scope(|s| {
        let srv = s.spawn(|| {
            listener
                .accept(TIMEOUT, &b_send, &b_recv, QpConfig::default())
                .unwrap()
        });
        let qa = a
            .rc_connect(Addr::new(1, 4002), &a_send, &a_recv, QpConfig::default())
            .unwrap();
        let _qb = srv.join().unwrap();

        let data = pattern(80_000);
        let src_mr = b.register_with(&data, Access::RemoteRead);
        let sink = a.register(128 * 1024, Access::Local);
        qa.post_read(4, &sink, 1000, data.len() as u32, src_mr.stag(), 0)
            .unwrap();
        let cqe = a_recv.poll_timeout(TIMEOUT).unwrap();
        assert_eq!(cqe.wr_id, 4);
        assert_eq!(cqe.status, CqeStatus::Success);
        assert_eq!(sink.read_vec(1000, data.len()).unwrap(), data);
    });
}

#[test]
fn rc_write_record_notifies_target() {
    let fab = Fabric::loopback();
    let (a, b) = two_devices(&fab);
    let (a_send, a_recv) = cqs();
    let (b_send, b_recv) = cqs();
    let listener = b.rc_listen(4003).unwrap();
    std::thread::scope(|s| {
        let srv = s.spawn(|| {
            listener
                .accept(TIMEOUT, &b_send, &b_recv, QpConfig::default())
                .unwrap()
        });
        let qa = a
            .rc_connect(Addr::new(1, 4003), &a_send, &a_recv, QpConfig::default())
            .unwrap();
        let _qb = srv.join().unwrap();

        let sink = b.register(8192, Access::RemoteWrite);
        qa.post_write_record(9, pattern(5000), sink.stag(), 0)
            .unwrap();
        let cqe = b_recv.poll_timeout(TIMEOUT).unwrap();
        assert_eq!(cqe.opcode, CqeOpcode::WriteRecord);
        assert_eq!(cqe.status, CqeStatus::Success);
        assert!(cqe.write_record.unwrap().is_complete());
    });
}

#[test]
fn rd_mode_reliable_under_loss() {
    // RD mode: 3% wire loss, yet every message must arrive intact.
    let fab = Fabric::new(WireConfig {
        loss: LossModel::bernoulli(0.03),
        seed: 55,
        ..WireConfig::default()
    });
    let (a, b) = two_devices(&fab);
    let (a_send, a_recv) = cqs();
    let (b_send, b_recv) = cqs();
    let qa = a
        .create_rd_qp(None, &a_send, &a_recv, QpConfig::default())
        .unwrap();
    let qb = b
        .create_rd_qp(None, &b_send, &b_recv, QpConfig::default())
        .unwrap();
    assert!(qa.is_reliable());

    let sink = b.register(64 * 1024, Access::Local);
    let n = 40;
    for i in 0..n {
        qb.post_recv(RecvWr::whole(i, &sink)).unwrap();
    }
    for i in 0..n {
        qa.post_send(i, pattern(10_000), qb.dest()).unwrap();
    }
    for _ in 0..n {
        let cqe = b_recv.poll_timeout(TIMEOUT).unwrap();
        assert_eq!(cqe.status, CqeStatus::Success);
        assert_eq!(cqe.byte_len, 10_000);
    }
}

/// Thread ids in this process whose name is `comm`.
fn tids_named(comm: &str) -> HashSet<String> {
    std::fs::read_dir("/proc/self/task")
        .unwrap()
        .filter_map(|e| {
            let tid = e.ok()?.file_name().into_string().ok()?;
            let name = std::fs::read_to_string(format!("/proc/self/task/{tid}/comm")).ok()?;
            (name.trim_end() == comm).then_some(tid)
        })
        .collect()
}

/// CPU ticks (user + system) thread `tid` has used; 0 once it has exited.
fn cpu_ticks(tid: &str) -> u64 {
    let Ok(stat) = std::fs::read_to_string(format!("/proc/self/task/{tid}/stat")) else {
        return 0;
    };
    // Fields after the parenthesised name start at field 3 (state);
    // utime and stime are fields 14 and 15.
    let fields: Vec<&str> = stat[stat.rfind(')').unwrap() + 2..].split(' ').collect();
    fields[11].parse::<u64>().unwrap() + fields[12].parse::<u64>().unwrap()
}

#[test]
fn rd_reset_flushes_receives_and_ends_the_engine_thread() {
    // A peer that never answers exhausts the RD retry budget; the conduit
    // then reports `Reset` on every call. The QP must treat that as
    // terminal like the RC engine does: flush its posted receives and
    // stop, rather than spin on the error.
    let fab = Fabric::loopback();
    let rd = RdConfig {
        rto: Duration::from_millis(2),
        max_retries: 4,
        ..RdConfig::default()
    };
    let dev_cfg = DeviceConfig {
        rd,
        ..DeviceConfig::default()
    };
    let dev = Device::with_config(&fab, NodeId(0), dev_cfg);
    let (send_cq, recv_cq) = cqs();
    let before = tids_named("iwarp-dgqp-1");
    let qp = dev
        .create_rd_qp(None, &send_cq, &recv_cq, QpConfig::default())
        .unwrap();
    assert_eq!(qp.qpn(), 1);
    // A new thread names itself once it runs, so wait for the name.
    let deadline = std::time::Instant::now() + TIMEOUT;
    let engine: Vec<String> = loop {
        let new: Vec<String> = tids_named("iwarp-dgqp-1")
            .difference(&before)
            .cloned()
            .collect();
        if !new.is_empty() {
            break new;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "no engine thread found for the RD QP"
        );
        std::thread::sleep(Duration::from_millis(1));
    };

    let sink = dev.register(1024, Access::Local);
    qp.post_recv(RecvWr::whole(1, &sink)).unwrap();
    let void = UdDest {
        addr: Addr::new(9, 9),
        qpn: 1,
    };
    qp.post_send(2, Bytes::from_static(b"void"), void).unwrap();

    let flushed = recv_cq.poll_timeout(Duration::from_secs(2));
    let t0: u64 = engine.iter().map(|t| cpu_ticks(t)).sum();
    std::thread::sleep(Duration::from_millis(500));
    let burned = engine
        .iter()
        .map(|t| cpu_ticks(t))
        .sum::<u64>()
        .saturating_sub(t0);
    assert!(
        matches!(&flushed, Ok(c) if c.wr_id == 1 && c.status == CqeStatus::Flushed),
        "posted receive not flushed after the reset: {flushed:?} (engine burned {burned} ticks)"
    );
    assert!(
        burned <= 2,
        "engine thread burned {burned} CPU ticks in 500 ms after the reset"
    );
    // The one send error contract, on the only reachable send failure:
    // a failed flush completes the WRs it carried with `Error`, ends the
    // call (WR 5 is never flushed and gets no CQE) and returns the error.
    let reset = |r: Result<(), IwarpError>| matches!(r, Err(IwarpError::Net(NetError::Reset)));
    assert!(reset(qp.post_send(3, Bytes::from_static(b"x"), void)));
    let batch = [
        SendWr::new(4, Bytes::from_static(b"y"), void),
        SendWr::new(5, Bytes::from_static(b"z"), void),
    ];
    assert!(reset(qp.post_send_batch(&batch)));
    let w = Bytes::from_static(b"w");
    assert!(reset(qp.post_write_record(6, w, void, 0x100, 0)));
    let mut cqes = Vec::new();
    while let Some(c) = send_cq.poll() {
        cqes.push((c.wr_id, c.opcode, c.status));
    }
    assert_eq!(
        cqes,
        vec![
            (2, CqeOpcode::Send, CqeStatus::Success),
            (3, CqeOpcode::Send, CqeStatus::Error),
            (4, CqeOpcode::Send, CqeStatus::Error),
            (6, CqeOpcode::RdmaWrite, CqeStatus::Error),
        ]
    );
}

#[test]
fn one_ud_qp_serves_many_clients() {
    // The scalability pitch: ONE datagram QP serves any number of peers;
    // completions identify each sender.
    let fab = Fabric::loopback();
    let server_dev = Device::new(&fab, NodeId(0));
    let (s_send, s_recv) = cqs();
    let server = server_dev
        .create_ud_qp(Some(9000), &s_send, &s_recv, QpConfig::default())
        .unwrap();
    let sink = server_dev.register(1 << 20, Access::Local);
    let n_clients = 16u16;
    for i in 0..u64::from(n_clients) {
        server
            .post_recv(RecvWr {
                wr_id: i,
                mr: sink.clone(),
                offset: i * 1024,
                len: 1024,
            })
            .unwrap();
    }

    let mut clients = Vec::new();
    for c in 0..n_clients {
        let dev = Device::new(&fab, NodeId(c + 1));
        let (cs, cr) = cqs();
        let qp = dev
            .create_ud_qp(None, &cs, &cr, QpConfig::default())
            .unwrap();
        qp.post_send(0, vec![c as u8; 100], server.dest()).unwrap();
        clients.push((dev, qp, cs, cr));
    }

    let mut seen = std::collections::HashSet::new();
    for _ in 0..n_clients {
        let cqe = s_recv.poll_timeout(TIMEOUT).unwrap();
        assert_eq!(cqe.status, CqeStatus::Success);
        let src = cqe.src.unwrap();
        assert!(seen.insert(src.addr), "duplicate source {:?}", src.addr);
    }
}

#[test]
fn garbage_datagrams_do_not_kill_ud_qp() {
    let fab = Fabric::loopback();
    let (a, b) = two_devices(&fab);
    let (a_send, a_recv) = cqs();
    let (b_send, b_recv) = cqs();
    let qa = a
        .create_ud_qp(None, &a_send, &a_recv, QpConfig::default())
        .unwrap();
    let qb = b
        .create_ud_qp(None, &b_send, &b_recv, QpConfig::default())
        .unwrap();

    // Blast raw junk at the QP's conduit address.
    let junk = simnet::DgramConduit::bind_ephemeral(&fab, NodeId(2)).unwrap();
    for i in 0..20u8 {
        junk.send_to(qb.local_addr(), Bytes::from(vec![i; 100]))
            .unwrap();
    }
    // A corrupted-but-plausible segment: valid-looking length, bad CRC.
    junk.send_to(qb.local_addr(), Bytes::from(vec![0x10; 60]))
        .unwrap();

    // QP must keep working.
    let sink = b.register(1024, Access::Local);
    qb.post_recv(RecvWr::whole(1, &sink)).unwrap();
    qa.post_send(2, Bytes::from_static(b"still alive"), qb.dest())
        .unwrap();
    let cqe = b_recv.poll_timeout(TIMEOUT).unwrap();
    assert_eq!(cqe.status, CqeStatus::Success);
    let stats = qb.stats();
    use std::sync::atomic::Ordering;
    assert!(stats.malformed.load(Ordering::Relaxed) + stats.crc_errors.load(Ordering::Relaxed) > 0);
}

#[test]
fn qp_drop_flushes_posted_receives() {
    let fab = Fabric::loopback();
    let (_, b) = two_devices(&fab);
    let (b_send, b_recv) = cqs();
    let qb = b
        .create_ud_qp(None, &b_send, &b_recv, QpConfig::default())
        .unwrap();
    let sink = b.register(1024, Access::Local);
    qb.post_recv(RecvWr::whole(1, &sink)).unwrap();
    qb.post_recv(RecvWr::whole(2, &sink)).unwrap();
    drop(qb);
    let c1 = b_recv.poll().unwrap();
    let c2 = b_recv.poll().unwrap();
    assert_eq!(c1.status, CqeStatus::Flushed);
    assert_eq!(c2.status, CqeStatus::Flushed);
}

#[test]
fn ud_write_with_immediate_consumes_receive() {
    // The InfiniBand-style comparison point (paper §IV.B.3): data is
    // placed one-sided but the immediate consumes a posted receive.
    let fab = Fabric::loopback();
    let (a, b) = two_devices(&fab);
    let (a_send, a_recv) = cqs();
    let (b_send, b_recv) = cqs();
    let qa = a
        .create_ud_qp(None, &a_send, &a_recv, QpConfig::default())
        .unwrap();
    let qb = b
        .create_ud_qp(None, &b_send, &b_recv, QpConfig::default())
        .unwrap();

    let sink = b.register(4096, Access::RemoteWrite);
    let notify_sink = b.register(16, Access::Local);
    qb.post_recv(RecvWr::whole(77, &notify_sink)).unwrap();
    assert_eq!(qb.posted_recvs(), 1);

    qa.post_write_imm(1, pattern(1000), qb.dest(), sink.stag(), 0, 0xCAFE_F00D)
        .unwrap();
    let cqe = b_recv.poll_timeout(TIMEOUT).unwrap();
    assert_eq!(cqe.wr_id, 77, "write-imm must consume the posted receive");
    assert_eq!(cqe.opcode, CqeOpcode::Recv);
    assert_eq!(cqe.imm, Some(0xCAFE_F00D));
    assert!(cqe.solicited);
    assert_eq!(cqe.byte_len, 1000);
    assert_eq!(qb.posted_recvs(), 0);
    assert_eq!(sink.read_vec(0, 1000).unwrap(), pattern(1000));

    // Without a posted receive the data still places, but the
    // notification is lost (counted) — exactly what Write-Record fixes.
    qa.post_write_imm(2, pattern(100), qb.dest(), sink.stag(), 2000, 7)
        .unwrap();
    assert!(b_recv.poll_timeout(Duration::from_millis(150)).is_err());
    assert!(
        qb.stats()
            .dropped_no_rq
            .load(std::sync::atomic::Ordering::Relaxed)
            >= 1
    );
    assert_eq!(sink.read_vec(2000, 100).unwrap(), pattern(100));
}

#[test]
fn solicited_send_wakes_solicited_waiters() {
    let fab = Fabric::loopback();
    let (a, b) = two_devices(&fab);
    let (a_send, a_recv) = cqs();
    let (b_send, b_recv) = cqs();
    let qa = a
        .create_ud_qp(None, &a_send, &a_recv, QpConfig::default())
        .unwrap();
    let qb = b
        .create_ud_qp(None, &b_send, &b_recv, QpConfig::default())
        .unwrap();
    let sink = b.register(1024, Access::Local);
    qb.post_recv(RecvWr::whole(1, &sink)).unwrap();
    qb.post_recv(RecvWr::whole(2, &sink)).unwrap();

    // An ordinary send must NOT wake solicited waiters...
    qa.post_send(1, Bytes::from_static(b"plain"), qb.dest())
        .unwrap();
    assert!(b_recv.wait_solicited(Duration::from_millis(150)).is_err());
    // ...a solicited send must.
    qa.post_send_solicited(2, Bytes::from_static(b"urgent"), qb.dest())
        .unwrap();
    b_recv.wait_solicited(TIMEOUT).unwrap();
    // Both completions are in the queue, in order, with flags set right.
    let c1 = b_recv.poll_timeout(TIMEOUT).unwrap();
    let c2 = b_recv.poll_timeout(TIMEOUT).unwrap();
    assert!(!c1.solicited);
    assert!(c2.solicited);
}

#[test]
fn rc_write_with_immediate() {
    let fab = Fabric::loopback();
    let (a, b) = two_devices(&fab);
    let (a_send, a_recv) = cqs();
    let (b_send, b_recv) = cqs();
    let listener = b.rc_listen(4005).unwrap();
    std::thread::scope(|s| {
        let srv = s.spawn(|| {
            listener
                .accept(TIMEOUT, &b_send, &b_recv, QpConfig::default())
                .unwrap()
        });
        let qa = a
            .rc_connect(Addr::new(1, 4005), &a_send, &a_recv, QpConfig::default())
            .unwrap();
        let qb = srv.join().unwrap();
        let sink = b.register(64 * 1024, Access::RemoteWrite);
        let notify_sink = b.register(16, Access::Local);
        qb.post_recv(RecvWr::whole(5, &notify_sink)).unwrap();
        qa.post_write_imm(1, pattern(50_000), sink.stag(), 0, 42)
            .unwrap();
        let cqe = b_recv.poll_timeout(TIMEOUT).unwrap();
        assert_eq!(cqe.wr_id, 5);
        assert_eq!(cqe.imm, Some(42));
        assert_eq!(cqe.byte_len, 50_000);
        assert_eq!(sink.read_vec(0, 50_000).unwrap(), pattern(50_000));
    });
}
