//! Cross-crate integration tests: whole-system scenarios through the
//! umbrella crate, spanning fabric → conduits → verbs → sockets → apps.

use std::time::Duration;

use datagram_iwarp::apps::media::{run_udp_session, MediaConfig};
use datagram_iwarp::apps::sip::{
    run_sip_load, SipLoadConfig, SipServer, SipServerConfig, SipTransport,
};
use datagram_iwarp::common::memacct::MemRegistry;
use datagram_iwarp::net::{Addr, Fabric, LossModel, NodeId, WireConfig};
use datagram_iwarp::sockets::{DgramMode, SocketConfig, SocketStack};
use datagram_iwarp::verbs::wr::RecvWr;
use datagram_iwarp::verbs::{Access, Cq, CqeStatus, Device, QpConfig, UdDest};

const TO: Duration = Duration::from_secs(5);

/// A raw verbs QP and a shim datagram socket speak the same wire protocol.
#[test]
fn verbs_qp_interoperates_with_socket_shim() {
    let fab = Fabric::loopback();
    // One side: plain socket through the shim.
    let stack = SocketStack::new(&fab, NodeId(0));
    let sock = stack.dgram_bound(6000).unwrap();
    // Other side: hand-rolled verbs.
    let dev = Device::new(&fab, NodeId(1));
    let (scq, rcq) = (Cq::new(64), Cq::new(64));
    let qp = dev.create_ud_qp(None, &scq, &rcq, QpConfig::default()).unwrap();

    // Verbs → socket.
    qp.post_send(
        1,
        &b"from raw verbs"[..],
        UdDest {
            addr: sock.local_addr(),
            qpn: 0,
        },
    )
    .unwrap();
    let mut buf = [0u8; 64];
    let (n, src) = sock.recv_from(&mut buf, TO).unwrap();
    assert_eq!(&buf[..n], b"from raw verbs");
    assert_eq!(src, qp.local_addr());

    // Socket → verbs.
    let sink = dev.register(1024, Access::Local);
    qp.post_recv(RecvWr::whole(2, &sink)).unwrap();
    sock.send_to(b"from the shim", src).unwrap();
    let cqe = rcq.poll_timeout(TO).unwrap();
    assert_eq!(cqe.status, CqeStatus::Success);
    assert_eq!(sink.read_vec(0, cqe.byte_len as usize).unwrap(), b"from the shim");
}

/// Media streaming with `deliver_partial`: under loss, Write-Record mode
/// hands loss-tolerant applications the valid prefixes of damaged
/// messages instead of dropping them (paper §IV.B.4).
#[test]
fn media_partial_delivery_under_loss() {
    let fab = Fabric::new(WireConfig {
        loss: LossModel::bernoulli(0.01),
        seed: 99,
        ..WireConfig::default()
    });
    let cfg_sock = SocketConfig {
        mode: DgramMode::WriteRecord,
        recv_slots: 64,
        slot_size: 16 * 1024,
        deliver_partial: true,
        ..SocketConfig::default()
    };
    let sa = SocketStack::with_config(&fab, NodeId(0), Default::default(), cfg_sock.clone());
    let sb = SocketStack::with_config(&fab, NodeId(1), Default::default(), cfg_sock);
    let cfg = MediaConfig {
        chunk_size: 8 * 1024, // multi-MTU chunks: loss produces partials
        total_bytes: 1 << 20,
        bitrate_bps: 300_000_000,
        prebuffer_bytes: 128 * 1024,
        idle_timeout: Duration::from_millis(400),
    };
    let m = run_udp_session(&sa, &sb, &cfg).unwrap();
    assert!(m.bytes_received > 0, "nothing delivered at 1% loss");
    assert!(m.chunks_received > 0);
}

/// SIP and media workloads share one fabric concurrently without
/// interference (distinct ports, one switch).
#[test]
fn sip_and_media_share_a_fabric() {
    let fab = Fabric::loopback();
    let poll_qp = QpConfig {
        poll_mode: true,
        ..QpConfig::default()
    };
    let sip_sock = SocketConfig {
        recv_slots: 8,
        slot_size: 2048,
        qp: poll_qp,
        ..SocketConfig::default()
    };
    let sip_server_stack =
        SocketStack::with_config(&fab, NodeId(2), Default::default(), sip_sock.clone());
    let sip_client_stack =
        SocketStack::with_config(&fab, NodeId(3), Default::default(), sip_sock);
    let server = SipServer::spawn(
        sip_server_stack,
        SipServerConfig {
            transport: SipTransport::Ud,
            port: 5060,
            call_state_bytes: 256,
        },
    )
    .unwrap();

    std::thread::scope(|s| {
        let media = s.spawn(|| {
            let media_sock = SocketConfig {
                recv_slots: 128,
                slot_size: 2048,
                ..SocketConfig::default()
            };
            let ma = SocketStack::with_config(&fab, NodeId(0), Default::default(), media_sock.clone());
            let mb = SocketStack::with_config(&fab, NodeId(1), Default::default(), media_sock);
            run_udp_session(
                &ma,
                &mb,
                &MediaConfig {
                    chunk_size: 1316,
                    total_bytes: 256 * 1024,
                    bitrate_bps: 100_000_000,
                    prebuffer_bytes: 64 * 1024,
                    idle_timeout: Duration::from_millis(400),
                },
            )
        });
        let report = run_sip_load(
            &sip_client_stack,
            &SipLoadConfig {
                calls: 20,
                transport: SipTransport::Ud,
                server_addr: Addr::new(2, 5060),
                timeout: TO,
                call_state_bytes: 256,
            },
        )
        .unwrap();
        assert_eq!(report.calls_established, 20);
        let metrics = media.join().unwrap().unwrap();
        assert_eq!(metrics.bytes_received, 256 * 1024);
    });
    server.stop().unwrap();
}

/// All instrumented memory is released when every stateful object drops —
/// nothing in the stack leaks accounting (and therefore state).
#[test]
fn memory_fully_released_after_teardown() {
    let reg = MemRegistry::new();
    let fab = Fabric::loopback();
    {
        let dev_cfg = datagram_iwarp::verbs::DeviceConfig {
            mem: Some(reg.clone()),
            ..Default::default()
        };
        let sa = SocketStack::with_config(&fab, NodeId(0), dev_cfg.clone(), SocketConfig::default());
        let sb = SocketStack::with_config(&fab, NodeId(1), dev_cfg, SocketConfig::default());
        let d1 = sa.dgram().unwrap();
        let d2 = sb.dgram().unwrap();
        d1.send_to(b"x", d2.local_addr()).unwrap();
        let mut buf = [0u8; 8];
        d2.recv_from(&mut buf, TO).unwrap();
        let listener = sb.listen(7500).unwrap();
        let (c, srv) = std::thread::scope(|s| {
            let h = s.spawn(|| listener.accept(TO).unwrap());
            let c = sa.connect(Addr::new(1, 7500)).unwrap();
            (c, h.join().unwrap())
        });
        c.send(b"hello").unwrap();
        let mut buf = [0u8; 5];
        srv.recv_exact(&mut buf, TO).unwrap();
        assert!(reg.total_current() > 0, "accounting never engaged");
    }
    assert_eq!(
        reg.total_current(),
        0,
        "leaked accounting: {:?}",
        reg.snapshot()
    );
}

/// Poll-mode scalability smoke: hundreds of concurrent RC connections on
/// a machine with one core, zero engine threads.
#[test]
fn hundreds_of_poll_mode_rc_connections() {
    let fab = Fabric::loopback();
    let cfg = SocketConfig {
        recv_slots: 4,
        slot_size: 1024,
        qp: QpConfig {
            poll_mode: true,
            ..QpConfig::default()
        },
        ..SocketConfig::default()
    };
    let stream = datagram_iwarp::net::stream::StreamConfig {
        snd_buf: 2048,
        rcv_buf: 2048,
        poll_mode: true,
        ..Default::default()
    };
    let mk = |node: u16| {
        SocketStack::with_config(
            &fab,
            NodeId(node),
            datagram_iwarp::verbs::DeviceConfig {
                stream: stream.clone(),
                ..Default::default()
            },
            cfg.clone(),
        )
    };
    let server_stack = mk(1);
    let client_stack = mk(0);
    let listener = server_stack.listen(7600).unwrap();
    std::thread::scope(|s| {
        let srv = s.spawn(|| {
            let mut conns = Vec::new();
            for _ in 0..300 {
                conns.push(listener.accept(Duration::from_secs(30)).unwrap());
            }
            // Echo one message on each.
            for c in &conns {
                let mut buf = [0u8; 4];
                c.recv_exact(&mut buf, Duration::from_secs(30)).unwrap();
                c.send(&buf).unwrap();
            }
            conns.len()
        });
        let mut clients = Vec::new();
        for i in 0..300u32 {
            let c = client_stack.connect(Addr::new(1, 7600)).unwrap();
            c.send(&i.to_be_bytes()).unwrap();
            clients.push((i, c));
        }
        for (i, c) in &clients {
            let mut buf = [0u8; 4];
            c.recv_exact(&mut buf, Duration::from_secs(30)).unwrap();
            assert_eq!(u32::from_be_bytes(buf), *i);
        }
        assert_eq!(srv.join().unwrap(), 300);
    });
}

/// Loss decisions are seed-deterministic: two identical runs deliver the
/// identical set of messages.
#[test]
fn loss_pattern_is_deterministic_per_seed() {
    // Returns (delivered byte lengths, cumulative wire drops after each
    // message). The drop pattern identifies the seed's RNG stream even
    // when two seeds coincidentally deliver the same message count.
    let run = |seed: u64| -> (Vec<u64>, Vec<u64>) {
        let fab = Fabric::new(WireConfig {
            loss: LossModel::bernoulli(0.05),
            seed,
            ..WireConfig::default()
        });
        let dev_a = Device::new(&fab, NodeId(0));
        let dev_b = Device::new(&fab, NodeId(1));
        let (a_s, a_r) = (Cq::new(256), Cq::new(256));
        let (b_s, b_r) = (Cq::new(256), Cq::new(256));
        let qa = dev_a.create_ud_qp(None, &a_s, &a_r, QpConfig::default()).unwrap();
        let qb = dev_b.create_ud_qp(None, &b_s, &b_r, QpConfig::default()).unwrap();
        let sink = dev_b.register(8 * 1024, Access::RemoteWrite);
        // Single-segment messages: delivery set depends only on the
        // wire-loss RNG, which is seeded.
        let mut drops = Vec::new();
        for i in 0..100u64 {
            qa.post_write_record(i, vec![i as u8; 4096], qb.dest(), sink.stag(), 0)
                .unwrap();
            while qa.send_cq().poll().is_some() {}
            // Loss is applied inline at transmit time, so this cumulative
            // count is seed-deterministic per message.
            drops.push(
                fab.stats()
                    .dropped_loss
                    .load(std::sync::atomic::Ordering::Relaxed),
            );
        }
        let mut delivered = Vec::new();
        while let Ok(cqe) = b_r.poll_timeout(Duration::from_millis(300)) {
            if cqe.status == CqeStatus::Success {
                delivered.push(u64::from(cqe.byte_len));
            }
        }
        (delivered, drops)
    };
    let a = run(1234);
    let b = run(1234);
    let c = run(5678);
    assert_eq!(a, b, "same seed must reproduce the same delivery set");
    assert!(!a.0.is_empty());
    // Different seeds almost surely produce different drop patterns
    // (300 independent Bernoulli trials each).
    assert!(a.1 != c.1 || a.1.last() == Some(&0));
}

/// Memory regression gate (paper Fig. 11 axis): with the slab/arena
/// compaction in place, the *instrumented* server-side cost of holding a
/// SIP call must stay within the 6 KiB/call budget at 1k concurrent
/// calls — the pre-compaction baseline was ~18 KiB/call. Sampled at
/// peak concurrency (all calls established and held), on the threaded
/// (event-notified) server stack the 100k ramp uses.
#[test]
fn per_call_memory_stays_within_compaction_budget() {
    const CALLS: usize = 1000;
    const BUDGET_BYTES_PER_CALL: u64 = 6144;

    let fab = Fabric::new(WireConfig::default());
    let reg = MemRegistry::new();
    let server_cfg = SocketConfig {
        recv_slots: 8,
        slot_size: 2048,
        ..SocketConfig::default()
    };
    let server_stack = SocketStack::with_config(
        &fab,
        NodeId(1),
        datagram_iwarp::verbs::DeviceConfig {
            mem: Some(reg.clone()),
            ..Default::default()
        },
        server_cfg,
    );
    let client_cfg = SocketConfig {
        recv_slots: 8,
        slot_size: 2048,
        qp: QpConfig {
            poll_mode: true,
            ..QpConfig::default()
        },
        ..SocketConfig::default()
    };
    let client_stack =
        SocketStack::with_config(&fab, NodeId(0), Default::default(), client_cfg);

    let server = SipServer::spawn(
        server_stack,
        SipServerConfig {
            transport: SipTransport::Ud,
            port: 5060,
            call_state_bytes: 1024,
        },
    )
    .unwrap();

    let mut peak_bytes = 0u64;
    let report = datagram_iwarp::apps::sip::load::run_sip_load_with_peak_sample(
        &client_stack,
        &SipLoadConfig {
            calls: CALLS,
            transport: SipTransport::Ud,
            server_addr: Addr::new(1, 5060),
            timeout: TO,
            call_state_bytes: 1024,
        },
        || {
            peak_bytes = reg.total_current();
            (peak_bytes, reg.snapshot().into_iter().map(|(c, cur, _)| (c, cur)).collect())
        },
    )
    .unwrap();
    server.stop().unwrap();

    assert_eq!(report.calls_established, CALLS);
    let per_call = peak_bytes / CALLS as u64;
    assert!(
        per_call <= BUDGET_BYTES_PER_CALL,
        "per-call instrumented memory regressed: {per_call} B/call > {BUDGET_BYTES_PER_CALL} B budget \
         (peak {peak_bytes} B across {CALLS} calls; categories: {:?})",
        reg.snapshot()
    );
}
