//! Edge-case tests for the socket shim.

use std::time::Duration;

use iwarp::QpConfig;
use iwarp_socket::{DgramMode, SocketConfig, SocketStack};
use simnet::{Fabric, LossModel, NodeId, WireConfig};

const TO: Duration = Duration::from_secs(5);

#[test]
fn truncating_recv_buffer_returns_prefix() {
    // Like recvfrom with a short buffer: the datagram is truncated.
    let fab = Fabric::loopback();
    let sa = SocketStack::new(&fab, NodeId(0));
    let sb = SocketStack::new(&fab, NodeId(1));
    let a = sa.dgram().unwrap();
    let b = sb.dgram().unwrap();
    a.send_to(b"0123456789", b.local_addr()).unwrap();
    let mut small = [0u8; 4];
    let (n, _) = b.recv_from(&mut small, TO).unwrap();
    assert_eq!(n, 4);
    assert_eq!(&small, b"0123");
}

#[test]
fn write_record_mode_oversized_message_degrades_like_udp() {
    // Messages beyond the ring slots take the two-sided fallback; if they
    // also exceed the receive slots, they drop (UDP truncation semantics)
    // and the socket keeps working.
    let fab = Fabric::loopback();
    let cfg = SocketConfig {
        mode: DgramMode::WriteRecord,
        recv_slots: 8,
        slot_size: 2048,
        ..SocketConfig::default()
    };
    let sa = SocketStack::with_config(&fab, NodeId(0), Default::default(), cfg.clone());
    let sb = SocketStack::with_config(&fab, NodeId(1), Default::default(), cfg);
    let a = sa.dgram().unwrap();
    let b = sb.dgram().unwrap();
    std::thread::scope(|s| {
        let recv = s.spawn(|| {
            let mut buf = vec![0u8; 4096];
            let (n1, _) = b.recv_from(&mut buf, TO).unwrap();
            let first = buf[..n1].to_vec();
            let (n2, _) = b.recv_from(&mut buf, TO).unwrap();
            (first, buf[..n2].to_vec())
        });
        std::thread::sleep(Duration::from_millis(20));
        a.send_to(b"small fits the ring", b.local_addr()).unwrap();
        // Too big for ring AND recv slots: silently dropped at receiver.
        a.send_to(&vec![0x42u8; 4000], b.local_addr()).unwrap();
        // A follow-up small message still arrives (socket healthy).
        std::thread::sleep(Duration::from_millis(50));
        a.send_to(b"still alive", b.local_addr()).unwrap();
        let (first, second) = recv.join().unwrap();
        assert_eq!(first, b"small fits the ring");
        assert_eq!(second, b"still alive");
    });
    assert_eq!(b.stats().oversized_dropped, 1);
}

#[test]
fn dgram_loss_surfaces_as_missing_datagrams_not_errors() {
    let fab = Fabric::new(WireConfig {
        loss: LossModel::bernoulli(0.3),
        seed: 5,
        ..WireConfig::default()
    });
    let sa = SocketStack::new(&fab, NodeId(0));
    let sb = SocketStack::new(&fab, NodeId(1));
    let a = sa.dgram().unwrap();
    let b = sb.dgram().unwrap();
    for i in 0..50u8 {
        a.send_to(&[i], b.local_addr()).unwrap();
    }
    let mut got = 0;
    let mut buf = [0u8; 8];
    while b.recv_from(&mut buf, Duration::from_millis(100)).is_ok() {
        got += 1;
    }
    assert!(got > 0 && got < 50, "got {got}/50 at 30% loss");
}

#[test]
fn stream_socket_interleaved_bidirectional() {
    let fab = Fabric::loopback();
    let sa = SocketStack::new(&fab, NodeId(0));
    let sb = SocketStack::new(&fab, NodeId(1));
    let listener = sb.listen(8200).unwrap();
    std::thread::scope(|s| {
        let srv = s.spawn(|| listener.accept(TO).unwrap());
        let client = sa.connect(simnet::Addr::new(1, 8200)).unwrap();
        let server = srv.join().unwrap();
        for i in 0..20u8 {
            client.send(&[i; 100]).unwrap();
            let mut buf = [0u8; 100];
            server.recv_exact(&mut buf, TO).unwrap();
            assert!(buf.iter().all(|&x| x == i));
            server.send(&[i.wrapping_add(1); 50]).unwrap();
            let mut back = [0u8; 50];
            client.recv_exact(&mut back, TO).unwrap();
            assert!(back.iter().all(|&x| x == i.wrapping_add(1)));
        }
    });
}

#[test]
fn wait_ready_names_only_the_socket_with_work_on_a_threaded_stack() {
    // Threaded stacks subscribe every datagram socket's receive CQ to the
    // stack channel (token = fd): a datagram for `a` readies exactly `a`.
    let fab = Fabric::loopback();
    let tx_stack = SocketStack::new(&fab, NodeId(0));
    let rx_stack = SocketStack::new(&fab, NodeId(1));
    let tx = tx_stack.dgram().unwrap();
    let a = rx_stack.dgram().unwrap();
    let idle = rx_stack.dgram().unwrap();
    assert_ne!(a.fd(), idle.fd());

    tx.send_to(b"for a", a.local_addr()).unwrap();
    assert_eq!(rx_stack.wait_ready(TO), vec![a.fd()]);
    let mut buf = [0u8; 16];
    let (n, src) = a
        .try_recv_from(&mut buf)
        .unwrap()
        .expect("ready socket delivers");
    assert_eq!((&buf[..n], src), (&b"for a"[..], tx.local_addr()));
    assert!(idle.try_recv_from(&mut buf).unwrap().is_none());
    // Readiness is edge-style: once drained, nothing is ready.
    assert!(rx_stack.wait_ready(Duration::from_millis(10)).is_empty());
}

#[test]
fn wait_ready_stays_empty_on_a_poll_mode_stack() {
    // Poll-mode QPs only progress when the caller pumps, so their sockets
    // are not subscribed: parking reports nothing, pumping still delivers.
    let fab = Fabric::loopback();
    let cfg = SocketConfig {
        qp: QpConfig {
            poll_mode: true,
            ..QpConfig::default()
        },
        ..SocketConfig::default()
    };
    let tx_stack = SocketStack::new(&fab, NodeId(0));
    let rx_stack = SocketStack::with_config(&fab, NodeId(1), Default::default(), cfg);
    let tx = tx_stack.dgram().unwrap();
    let a = rx_stack.dgram().unwrap();

    tx.send_to(b"pump me", a.local_addr()).unwrap();
    assert!(rx_stack.wait_ready(Duration::from_millis(10)).is_empty());
    let mut buf = [0u8; 16];
    let deadline = std::time::Instant::now() + TO;
    let (n, _) = loop {
        if let Some(hit) = a.try_recv_from(&mut buf).unwrap() {
            break hit;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "pumping never delivered"
        );
    };
    assert_eq!(&buf[..n], b"pump me");
    assert!(rx_stack.wait_ready(Duration::from_millis(10)).is_empty());
}
