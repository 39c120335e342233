//! Edge-case tests for the verbs layer: error paths, limits, teardown.

use std::sync::atomic::Ordering;
use std::time::Duration;

use bytes::Bytes;
use iwarp::cm::mpa_connect;
use iwarp::mpa::MpaConfig;
use iwarp::wr::RecvWr;
use iwarp::{Access, Cq, CqeOpcode, CqeStatus, Device, DeviceConfig, IwarpError, QpConfig, RcQp};
use simnet::stream::StreamConfig;
use simnet::{Addr, Fabric, FaultPlan, NetError, NodeId, PartitionWindow, StreamConduit};

const TO: Duration = Duration::from_secs(5);

#[test]
fn oversized_message_rejected_at_post() {
    let fab = Fabric::loopback();
    let dev = Device::new(&fab, NodeId(0));
    let (s, r) = (Cq::new(16), Cq::new(16));
    let cfg = QpConfig {
        max_msg_size: 1024,
        ..QpConfig::default()
    };
    let qp = dev.create_ud_qp(None, &s, &r, cfg).unwrap();
    let err = qp.post_send(1, vec![0u8; 2048], qp.dest()).unwrap_err();
    assert!(matches!(
        err,
        IwarpError::MessageTooLong {
            len: 2048,
            max: 1024
        }
    ));
    let err = qp
        .post_write_record(1, vec![0u8; 2048], qp.dest(), 0x100, 0)
        .unwrap_err();
    assert!(matches!(err, IwarpError::MessageTooLong { .. }));
}

#[test]
fn fixed_port_conflict_is_reported() {
    let fab = Fabric::loopback();
    let dev = Device::new(&fab, NodeId(0));
    let (s, r) = (Cq::new(16), Cq::new(16));
    let _qp = dev
        .create_ud_qp(Some(4444), &s, &r, QpConfig::default())
        .unwrap();
    let err = dev
        .create_ud_qp(Some(4444), &s, &r, QpConfig::default())
        .unwrap_err();
    assert!(matches!(err, IwarpError::Net(NetError::AddrInUse(_))));
}

#[test]
fn write_record_to_invalid_stag_is_counted_not_fatal() {
    let fab = Fabric::loopback();
    let a = Device::new(&fab, NodeId(0));
    let b = Device::new(&fab, NodeId(1));
    let (a_s, a_r) = (Cq::new(16), Cq::new(16));
    let (b_s, b_r) = (Cq::new(16), Cq::new(16));
    let qa = a
        .create_ud_qp(None, &a_s, &a_r, QpConfig::default())
        .unwrap();
    let qb = b
        .create_ud_qp(None, &b_s, &b_r, QpConfig::default())
        .unwrap();
    qa.post_write_record(1, &b"ghost"[..], qb.dest(), 0xDEAD_BEEF, 0)
        .unwrap();
    assert!(b_r.poll_timeout(Duration::from_millis(150)).is_err());
    assert!(
        qb.stats()
            .access_violations
            .load(std::sync::atomic::Ordering::Relaxed)
            >= 1
    );
}

#[test]
fn rc_posts_fail_after_peer_disappears() {
    let fab = Fabric::loopback();
    let a = Device::new(&fab, NodeId(0));
    let b = Device::new(&fab, NodeId(1));
    let (a_s, a_r) = (Cq::new(16), Cq::new(16));
    let (b_s, b_r) = (Cq::new(16), Cq::new(16));
    let listener = b.rc_listen(4700).unwrap();
    let (qa, qb) = std::thread::scope(|s| {
        let srv = s.spawn(|| {
            listener
                .accept(TO, &b_s, &b_r, QpConfig::default())
                .unwrap()
        });
        let qa = a
            .rc_connect(Addr::new(1, 4700), &a_s, &a_r, QpConfig::default())
            .unwrap();
        (qa, srv.join().unwrap())
    });
    drop(qb); // peer tears down: FIN reaches qa's engine
    let deadline = std::time::Instant::now() + TO;
    loop {
        match qa.post_send(1, Bytes::from_static(b"x")) {
            Err(_) => break, // error state reached
            Ok(()) => {
                assert!(std::time::Instant::now() < deadline, "QP never errored");
                std::thread::sleep(Duration::from_millis(10));
            }
        }
    }
}

/// A dying connection completes its outstanding RDMA Read with
/// `Flushed`: RC never expires a read, so without the flush it would
/// vanish without a completion.
#[test]
fn rc_read_is_flushed_when_the_responder_goes_away() {
    let fab = Fabric::loopback();
    let a = Device::new(&fab, NodeId(0));
    let b = Device::new(&fab, NodeId(1));
    let cfg = QpConfig {
        poll_mode: true,
        ..QpConfig::default()
    };
    let (a_s, a_r) = (Cq::new(16), Cq::new(16));
    let (b_s, b_r) = (Cq::new(16), Cq::new(16));
    let listener = b.rc_listen(4720).unwrap();
    let (qa, qb) = std::thread::scope(|s| {
        let srv = s.spawn(|| listener.accept(TO, &b_s, &b_r, cfg.clone()).unwrap());
        let qa = a
            .rc_connect(Addr::new(1, 4720), &a_s, &a_r, cfg.clone())
            .unwrap();
        (qa, srv.join().unwrap())
    });
    let source = b.register_with(&[7u8; 4096], Access::RemoteRead);
    let sink = a.register(4096, Access::Local);
    qa.post_read(42, &sink, 0, 4096, source.stag(), 0).unwrap();
    // The responder never drives its engine, so the request goes
    // unanswered; then its QP goes away.
    drop(qb);
    let deadline = std::time::Instant::now() + Duration::from_secs(3);
    let cqe = loop {
        qa.progress(Duration::from_millis(5));
        if let Some(c) = a_r.poll() {
            break c;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "the outstanding read vanished without a completion"
        );
    };
    assert_eq!(cqe.wr_id, 42);
    assert_eq!(cqe.opcode, CqeOpcode::RdmaRead);
    assert_eq!(cqe.status, CqeStatus::Flushed);
    for _ in 0..10 {
        qa.progress(Duration::from_millis(1));
    }
    drop(qa);
    assert!(a_r.poll().is_none(), "the read completed twice");
}

/// An accept timeout bounds only the wait for a connection. A client whose
/// MPA request comes later than that still gets its QP; the listener must
/// not drop the stream half-open (the SIP server polls with 1 ms).
#[test]
fn slow_mpa_request_survives_a_short_accept_timeout() {
    let fab = Fabric::loopback();
    let server = Device::new(&fab, NodeId(1));
    let listener = server.rc_listen(4710).unwrap();
    let (s, r) = (Cq::new(16), Cq::new(16));
    std::thread::scope(|sc| {
        let client = sc.spawn(|| {
            let stream = StreamConduit::connect(
                &fab,
                NodeId(0),
                Addr::new(1, 4710),
                StreamConfig::default(),
            )
            .unwrap();
            std::thread::sleep(Duration::from_millis(50));
            mpa_connect(&stream, 99, MpaConfig::default(), TO).map(|(peer, _)| peer)
        });
        let deadline = std::time::Instant::now() + TO;
        let qp = loop {
            match listener.accept(Duration::from_millis(1), &s, &r, QpConfig::default()) {
                Ok(qp) => break qp,
                Err(e) => assert!(
                    std::time::Instant::now() < deadline,
                    "no connection accepted: {e}"
                ),
            }
        };
        assert_eq!(qp.peer_qpn(), 99);
        assert_eq!(client.join().unwrap().unwrap(), qp.qpn());
    });
}

#[test]
fn ud_read_of_oversized_sink_range_rejected_locally() {
    let fab = Fabric::loopback();
    let dev = Device::new(&fab, NodeId(0));
    let (s, r) = (Cq::new(16), Cq::new(16));
    let qp = dev.create_ud_qp(None, &s, &r, QpConfig::default()).unwrap();
    let sink = dev.register(100, Access::Local);
    let err = qp
        .post_read(1, &sink, 50, 100, qp.dest(), 0x100, 0)
        .unwrap_err();
    assert!(matches!(err, IwarpError::AccessViolation { .. }));
}

#[test]
fn duplicate_datagrams_complete_receive_once() {
    // Two identical single-segment messages consume two receives (UDP
    // duplication is the application's problem), but a *duplicated wire
    // segment* of one message must not double-complete.
    let fab = Fabric::loopback();
    let a = Device::new(&fab, NodeId(0));
    let b = Device::new(&fab, NodeId(1));
    let (a_s, a_r) = (Cq::new(16), Cq::new(16));
    let (b_s, b_r) = (Cq::new(16), Cq::new(16));
    let qa = a
        .create_ud_qp(None, &a_s, &a_r, QpConfig::default())
        .unwrap();
    let qb = b
        .create_ud_qp(None, &b_s, &b_r, QpConfig::default())
        .unwrap();
    let sink = b.register(1024, Access::Local);
    qb.post_recv(RecvWr::whole(1, &sink)).unwrap();
    qa.post_send(2, &b"once"[..], qb.dest()).unwrap();
    let cqe = b_r.poll_timeout(TO).unwrap();
    assert_eq!(cqe.status, CqeStatus::Success);
    assert!(b_r.poll_timeout(Duration::from_millis(100)).is_err());
}

#[test]
fn send_cq_and_recv_cq_can_be_shared() {
    // One CQ for everything: a common verbs pattern.
    let fab = Fabric::loopback();
    let a = Device::new(&fab, NodeId(0));
    let b = Device::new(&fab, NodeId(1));
    let shared_a = Cq::new(64);
    let shared_b = Cq::new(64);
    let qa = a
        .create_ud_qp(None, &shared_a, &shared_a, QpConfig::default())
        .unwrap();
    let qb = b
        .create_ud_qp(None, &shared_b, &shared_b, QpConfig::default())
        .unwrap();
    let sink = b.register(64, Access::Local);
    qb.post_recv(RecvWr::whole(1, &sink)).unwrap();
    qa.post_send(2, &b"shared"[..], qb.dest()).unwrap();
    // qa's shared CQ sees the send completion...
    let send_cqe = shared_a.poll_timeout(TO).unwrap();
    assert_eq!(send_cqe.opcode, CqeOpcode::Send);
    // ...and qb's sees the receive.
    let recv_cqe = shared_b.poll_timeout(TO).unwrap();
    assert_eq!(recv_cqe.opcode, CqeOpcode::Recv);
}

#[test]
fn poll_mode_qp_progress_drives_everything() {
    let fab = Fabric::loopback();
    let a = Device::new(&fab, NodeId(0));
    let b = Device::new(&fab, NodeId(1));
    let (a_s, a_r) = (Cq::new(16), Cq::new(16));
    let (b_s, b_r) = (Cq::new(16), Cq::new(16));
    let cfg = QpConfig {
        poll_mode: true,
        ..QpConfig::default()
    };
    let qa = a.create_ud_qp(None, &a_s, &a_r, cfg.clone()).unwrap();
    let qb = b.create_ud_qp(None, &b_s, &b_r, cfg).unwrap();
    let sink = b.register(64, Access::Local);
    qb.post_recv(RecvWr::whole(1, &sink)).unwrap();
    qa.post_send(2, &b"poll"[..], qb.dest()).unwrap();
    // Nothing arrives until someone drives the engine.
    assert!(b_r.poll().is_none());
    qb.progress(Duration::from_millis(100));
    let cqe = b_r.poll().expect("progress performed placement");
    assert_eq!(cqe.status, CqeStatus::Success);
}

#[test]
fn rd_rx_backlog_counts_messages_already_delivered_in_order() {
    // One drive step drains the whole delivery ring into RD's in-order
    // queue, but `progress` hands the engine one message per call: the
    // backlog must still count the rest, or a caller draining to
    // quiescence would stop with messages waiting.
    let fab = Fabric::loopback();
    let a = Device::new(&fab, NodeId(0));
    let b = Device::new(&fab, NodeId(1));
    let (a_s, a_r) = (Cq::new(16), Cq::new(16));
    let (b_s, b_r) = (Cq::new(16), Cq::new(16));
    let cfg = QpConfig {
        poll_mode: true,
        ..QpConfig::default()
    };
    let qa = a.create_rd_qp(None, &a_s, &a_r, cfg.clone()).unwrap();
    let qb = b.create_rd_qp(None, &b_s, &b_r, cfg).unwrap();
    let sink = b.register(3 * 64, Access::Local);
    for i in 0..3u64 {
        qb.post_recv(RecvWr {
            wr_id: i,
            mr: sink.clone(),
            offset: i * 64,
            len: 64,
        })
        .unwrap();
        qa.post_send(i, &i.to_le_bytes()[..], qb.dest()).unwrap();
    }
    assert_eq!(qb.rx_backlog(), 3, "the loopback fabric delivers on send");
    qb.progress(Duration::ZERO);
    assert_eq!(qb.rx_backlog(), 2);
    qb.progress(Duration::ZERO);
    qb.progress(Duration::ZERO);
    assert_eq!(qb.rx_backlog(), 0);
    let ids: Vec<u64> = std::iter::from_fn(|| b_r.poll()).map(|c| c.wr_id).collect();
    assert_eq!(ids, [0, 1, 2]);
}

#[test]
fn rd_qp_read_extension_works_reliably() {
    let fab = Fabric::new(simnet::WireConfig::with_loss(0.02, 9));
    let a = Device::new(&fab, NodeId(0));
    let b = Device::new(&fab, NodeId(1));
    let (a_s, a_r) = (Cq::new(16), Cq::new(16));
    let (b_s, b_r) = (Cq::new(16), Cq::new(16));
    let qa = a
        .create_rd_qp(None, &a_s, &a_r, QpConfig::default())
        .unwrap();
    let qb = b
        .create_rd_qp(None, &b_s, &b_r, QpConfig::default())
        .unwrap();
    let _ = (&b_s, &b_r);
    let data: Vec<u8> = (0..40_000u32).map(|i| (i % 251) as u8).collect();
    let remote = b.register_with(&data, Access::RemoteRead);
    let sink = a.register(64 * 1024, Access::Local);
    qa.post_read(1, &sink, 0, data.len() as u32, qb.dest(), remote.stag(), 0)
        .unwrap();
    // Reliable datagrams: the read must complete despite 2% wire loss.
    let cqe = a_r.poll_timeout(Duration::from_secs(20)).unwrap();
    assert_eq!(cqe.status, CqeStatus::Success);
    assert_eq!(sink.read_vec(0, data.len()).unwrap(), data);
}

#[test]
fn ud_multicast_send_reaches_every_member_qp() {
    // The paper's motivation: "a multicast capable iWARP solution would
    // be useful in providing high bandwidth media" (§IV.A). One send,
    // every member QP completes a receive.
    let fab = Fabric::loopback();
    let group = Addr {
        node: Fabric::MCAST_NODE,
        port: 50,
    };
    let sender_dev = Device::new(&fab, NodeId(0));
    let (s_cq, r_cq) = (Cq::new(16), Cq::new(16));
    let sender = sender_dev
        .create_ud_qp(None, &s_cq, &r_cq, QpConfig::default())
        .unwrap();

    let mut members = Vec::new();
    for n in 1..=5u16 {
        let dev = Device::new(&fab, NodeId(n));
        let (scq, rcq) = (Cq::new(16), Cq::new(16));
        let qp = dev
            .create_ud_qp(None, &scq, &rcq, QpConfig::default())
            .unwrap();
        qp.join_multicast(group).unwrap();
        let sink = dev.register(1024, Access::Local);
        qp.post_recv(RecvWr::whole(1, &sink)).unwrap();
        members.push((dev, qp, rcq, sink));
    }

    sender
        .post_send(
            1,
            &b"one datagram, many receivers"[..],
            iwarp::UdDest {
                addr: group,
                qpn: 0,
            },
        )
        .unwrap();

    for (i, (_, _, rcq, sink)) in members.iter().enumerate() {
        let cqe = rcq.poll_timeout(TO).unwrap();
        assert_eq!(cqe.status, CqeStatus::Success, "member {i}");
        assert_eq!(
            sink.read_vec(0, cqe.byte_len as usize).unwrap(),
            b"one datagram, many receivers"
        );
    }

    // RD QPs refuse multicast.
    let rd_dev = Device::new(&fab, NodeId(20));
    let (scq, rcq) = (Cq::new(4), Cq::new(4));
    let rd = rd_dev
        .create_rd_qp(None, &scq, &rcq, QpConfig::default())
        .unwrap();
    assert!(rd.join_multicast(group).is_err());
}

/// An RC connection from device `a` to a listener on `b`'s `port`, both
/// QPs built with `cfg`: `(client, server, [c_send, c_recv, s_send,
/// s_recv])`.
fn rc_pair(
    a: &Device,
    b: &Device,
    port: u16,
    cfg: &QpConfig,
    cq_depth: usize,
) -> (RcQp, RcQp, [Cq; 4]) {
    let cqs = [(); 4].map(|()| Cq::new(cq_depth));
    let listener = b.rc_listen(port).unwrap();
    let (client, server) = std::thread::scope(|s| {
        let srv = s.spawn(|| listener.accept(TO, &cqs[2], &cqs[3], cfg.clone()).unwrap());
        let client = a
            .rc_connect(listener.local_addr(), &cqs[0], &cqs[1], cfg.clone())
            .unwrap();
        (client, srv.join().unwrap())
    });
    (client, server, cqs)
}

/// RC's share of the one send error contract: a flush that fails while
/// the QP has not yet seen the error completes the WR it carried with
/// `Error` and returns the error. The wire is partitioned and the message
/// is larger than the send buffer, so the post itself waits for ACKs that
/// never come until the stream's retries run out. A poll-mode QP nobody
/// drives has not seen that; once its engine has, a post is refused
/// before any flush and leaves no CQE.
#[test]
fn rc_failed_flush_completes_its_wr_with_error() {
    let fab = Fabric::loopback();
    let dev_cfg = DeviceConfig {
        stream: StreamConfig {
            rto_initial: Duration::from_millis(2),
            rto_max: Duration::from_millis(4),
            max_retries: 3,
            ..StreamConfig::default()
        },
        ..DeviceConfig::default()
    };
    let cfg = QpConfig {
        poll_mode: true,
        ..QpConfig::default()
    };
    let a = Device::with_config(&fab, NodeId(0), dev_cfg.clone());
    let b = Device::with_config(&fab, NodeId(1), dev_cfg.clone());
    let (qa, _qb, [a_s, ..]) = rc_pair(&a, &b, 4730, &cfg, 16);
    fab.install_fault_plan(FaultPlan {
        partitions: vec![PartitionWindow {
            start: 0,
            end: u64::MAX,
        }],
        ..FaultPlan::quiet(1)
    });

    let big = vec![0x5Au8; 4 * dev_cfg.stream.snd_buf];
    let err = qa.post_send(7, big).unwrap_err();
    assert!(matches!(err, IwarpError::Net(NetError::Reset)), "{err:?}");
    let cqe = a_s
        .poll()
        .expect("the WR the failed flush carried completes");
    assert_eq!(
        (cqe.wr_id, cqe.opcode, cqe.status, cqe.byte_len),
        (7, CqeOpcode::Send, CqeStatus::Error, 0)
    );
    assert!(a_s.poll().is_none());

    qa.progress(Duration::ZERO);
    assert!(qa.post_send(8, &b"x"[..]).is_err());
    assert!(a_s.poll().is_none(), "a refused post left a CQE");
}

/// Two threads posting sends on one threaded RC QP: every message arrives
/// whole, in each thread's order, with no MPA CRC or marker error. MPA
/// markers sit at fixed stream positions, so a call must frame its FPDUs
/// and write them under one hold of the MPA sender lock; a write that let
/// the other thread's FPDUs in between would put markers where the
/// receiver does not expect them and fail the connection.
#[test]
fn concurrent_rc_posters_keep_the_stream_framed() {
    const PER_THREAD: u32 = 1500;
    const SLOTS: u64 = 64;
    const SLOT: usize = 4096;
    let payload = |t: u8, seq: u32| -> Vec<u8> {
        let len = 8 + (seq as usize * 997 + usize::from(t) * 331) % 3000;
        let mut p: Vec<u8> = (0..len)
            .map(|i| (i as u32 ^ seq.wrapping_mul(31)) as u8 ^ t)
            .collect();
        p[0] = t;
        p[1..5].copy_from_slice(&seq.to_le_bytes());
        p
    };
    let fab = Fabric::loopback();
    let (a, b) = (Device::new(&fab, NodeId(0)), Device::new(&fab, NodeId(1)));
    let (qa, qb, [a_s, _, _, b_r]) = rc_pair(&a, &b, 4740, &QpConfig::default(), 4096);
    let sink = b.register(SLOTS as usize * SLOT, Access::Local);
    let recv = |slot: u64| RecvWr {
        wr_id: slot,
        mr: sink.clone(),
        offset: slot * SLOT as u64,
        len: SLOT as u32,
    };
    for slot in 0..SLOTS {
        qb.post_recv(recv(slot)).unwrap();
    }
    std::thread::scope(|s| {
        for t in 0..2u8 {
            let qa = &qa;
            s.spawn(move || {
                for seq in 0..PER_THREAD {
                    qa.post_send(u64::from(seq), payload(t, seq)).unwrap();
                }
            });
        }
        let mut next = [0u32; 2];
        for _ in 0..2 * PER_THREAD {
            let c = b_r.poll_timeout(TO).unwrap_or_else(|e| {
                panic!(
                    "delivery stopped at {next:?}: {e:?}, stats {:?}",
                    qb.stats()
                )
            });
            assert_eq!(c.status, CqeStatus::Success, "{c:?}");
            let got = sink
                .read_vec(c.wr_id * SLOT as u64, c.byte_len as usize)
                .unwrap();
            let t = got[0];
            let seq = u32::from_le_bytes(got[1..5].try_into().unwrap());
            assert_eq!(seq, next[usize::from(t)], "thread {t} out of order");
            assert_eq!(got, payload(t, seq), "thread {t} message {seq}");
            next[usize::from(t)] += 1;
            qb.post_recv(recv(c.wr_id)).unwrap();
        }
    });
    let stats = qb.stats();
    assert_eq!(stats.crc_errors.load(Ordering::Relaxed), 0);
    assert_eq!(stats.malformed.load(Ordering::Relaxed), 0);
    let sends = std::iter::from_fn(|| a_s.poll()).count();
    assert_eq!(sends, 2 * PER_THREAD as usize);
}
