//! Edge-case and failure-injection tests for the substrate.

use std::time::{Duration, Instant};

use bytes::Bytes;
use simnet::rdgram::RdConfig;
use simnet::ring::Deadline;
use simnet::stream::StreamConfig;
use simnet::{
    Addr, DgramConduit, Fabric, LossModel, NetError, NodeId, RdConduit, StreamConduit,
    StreamListener, WireConfig,
};

#[test]
fn rd_flush_times_out_toward_dead_peer() {
    // Messages to an unbound address are never acknowledged: flush must
    // report Timeout rather than hang.
    let fab = Fabric::loopback();
    let a = RdConduit::bind(&fab, Addr::new(0, 1), RdConfig::default()).unwrap();
    a.send_to(Addr::new(9, 9), Bytes::from_static(b"into the void").into())
        .unwrap();
    let err = a.flush(Duration::from_millis(100)).unwrap_err();
    assert_eq!(err, NetError::Timeout);
}

#[test]
fn rd_window_limits_outstanding_messages() {
    // Window of 2 toward a dead peer: the third send must block until the
    // sender gives up waiting (we bound the test with a thread + deadline).
    let fab = Fabric::loopback();
    let cfg = RdConfig {
        window: 2,
        rto: Duration::from_millis(10),
        ..RdConfig::default()
    };
    let a = RdConduit::bind(&fab, Addr::new(0, 2), cfg).unwrap();
    let dead = Addr::new(9, 9);
    a.send_to(dead, Bytes::from_static(b"1").into()).unwrap();
    a.send_to(dead, Bytes::from_static(b"2").into()).unwrap();
    let t0 = Instant::now();
    let blocked = std::thread::spawn(move || {
        // This blocks until the conduit errors out at MAX_RETRIES.
        let _ = a.send_to(dead, Bytes::from_static(b"3").into());
        Instant::now()
    });
    let finished = blocked.join().unwrap();
    assert!(
        finished - t0 >= Duration::from_millis(50),
        "third send did not block on the window"
    );
    // 150 retries under the default 20 ms RTO ceiling take ~3 s; a
    // backoff ceiling that slipped would take minutes.
    assert!(
        finished - t0 < Duration::from_secs(10),
        "giving up took {:?}",
        finished - t0
    );
}

#[test]
fn stream_survives_slow_reader_with_zero_window() {
    // Tiny receive buffer, reader that naps: the sender must stall on the
    // advertised window, probe, and finish once the reader drains.
    let fab = Fabric::loopback();
    let cfg = StreamConfig {
        rcv_buf: 1024,
        snd_buf: 8 * 1024,
        rto_initial: Duration::from_millis(5),
        ..StreamConfig::default()
    };
    let listener = StreamListener::bind(&fab, Addr::new(1, 300), cfg.clone()).unwrap();
    std::thread::scope(|s| {
        let srv = s.spawn(|| listener.accept(Some(Duration::from_secs(5))).unwrap());
        let client = StreamConduit::connect(&fab, NodeId(0), Addr::new(1, 300), cfg).unwrap();
        let server = srv.join().unwrap();
        let data: Vec<u8> = (0..16_384u32).map(|i| (i % 239) as u8).collect();
        let expect = data.clone();
        s.spawn(move || client.write_all(&data).unwrap());
        std::thread::sleep(Duration::from_millis(150)); // window closes
        let mut got = vec![0u8; expect.len()];
        server
            .read_exact(&mut got, Some(Duration::from_secs(20)))
            .unwrap();
        assert_eq!(got, expect);
    });
}

#[test]
fn bursty_loss_is_burstier_than_bernoulli_on_the_wire() {
    let run = |loss: LossModel| -> (u64, u64) {
        let fab = Fabric::new(WireConfig {
            loss,
            seed: 77,
            ..WireConfig::default()
        });
        let a = DgramConduit::bind(&fab, Addr::new(0, 1)).unwrap();
        let b = DgramConduit::bind(&fab, Addr::new(1, 1)).unwrap();
        for i in 0..20_000u32 {
            a.send_to(b.local_addr(), Bytes::from(i.to_be_bytes().to_vec()))
                .unwrap();
        }
        // Count the longest run of consecutive losses via sequence gaps.
        let mut longest_gap = 0u64;
        let mut prev: Option<u32> = None;
        let mut delivered = 0u64;
        while let Ok((_, d)) = b.recv_from(Some(Duration::from_millis(50))) {
            let seq = u32::from_be_bytes(d[..4].try_into().unwrap());
            if let Some(p) = prev {
                longest_gap = longest_gap.max(u64::from(seq - p) - 1);
            }
            prev = Some(seq);
            delivered += 1;
        }
        (delivered, longest_gap)
    };
    let (bern_got, bern_gap) = run(LossModel::bernoulli(0.02));
    let (ge_got, ge_gap) = run(LossModel::bursty(0.02, 10.0));
    // Similar average delivery, but Gilbert–Elliott shows longer bursts.
    assert!((bern_got as f64 - ge_got as f64).abs() < 500.0);
    assert!(ge_gap > bern_gap, "GE gap {ge_gap} vs Bernoulli {bern_gap}");
}

#[test]
fn dgram_conduit_zero_timeout_drains_queued() {
    let fab = Fabric::loopback();
    let a = DgramConduit::bind(&fab, Addr::new(0, 5)).unwrap();
    let b = DgramConduit::bind(&fab, Addr::new(1, 5)).unwrap();
    a.send_to(b.local_addr(), Bytes::from_static(b"queued"))
        .unwrap();
    // Give the fabric a beat to deliver into the channel.
    std::thread::sleep(Duration::from_millis(10));
    let (_, d) = b.recv_from(Some(Duration::ZERO)).unwrap();
    assert_eq!(&d[..], b"queued");
    assert_eq!(
        b.recv_from(Some(Duration::ZERO)).unwrap_err(),
        NetError::Timeout
    );
}

#[test]
fn stream_connect_rejected_after_handshake_packets_lost() {
    // 100% loss: the SYN can never arrive; connect must time out cleanly.
    let fab = Fabric::new(WireConfig {
        loss: LossModel::bernoulli(1.0),
        seed: 1,
        ..WireConfig::default()
    });
    let _listener = StreamListener::bind(&fab, Addr::new(1, 301), StreamConfig::default()).unwrap();
    let cfg = StreamConfig {
        connect_timeout: Duration::from_millis(150),
        ..StreamConfig::default()
    };
    let err = match StreamConduit::connect(&fab, NodeId(0), Addr::new(1, 301), cfg) {
        Err(e) => e,
        Ok(_) => panic!("connected through a 100%-loss wire"),
    };
    assert_eq!(err, NetError::Timeout);
}

#[test]
fn multicast_fans_out_to_all_members() {
    let fab = Fabric::loopback();
    let group = Addr {
        node: Fabric::MCAST_NODE,
        port: 9,
    };
    let sender = DgramConduit::bind(&fab, Addr::new(0, 1)).unwrap();
    let members: Vec<_> = (1..=4u16)
        .map(|n| {
            let c = DgramConduit::bind(&fab, Addr::new(n, 1)).unwrap();
            c.join_multicast(group).unwrap();
            c
        })
        .collect();
    let outsider = DgramConduit::bind(&fab, Addr::new(9, 1)).unwrap();

    // Small and fragmented payloads both replicate to every member.
    sender
        .send_to(group, Bytes::from_static(b"to the group"))
        .unwrap();
    let big: Vec<u8> = (0..6000u32).map(|i| (i % 251) as u8).collect();
    sender.send_to(group, Bytes::from(big.clone())).unwrap();
    for m in &members {
        let (_, d1) = m.recv_from(Some(Duration::from_secs(2))).unwrap();
        assert_eq!(&d1[..], b"to the group");
        let (_, d2) = m.recv_from(Some(Duration::from_secs(2))).unwrap();
        assert_eq!(&d2[..], &big[..]);
    }
    assert_eq!(
        outsider
            .recv_from(Some(Duration::from_millis(50)))
            .unwrap_err(),
        NetError::Timeout
    );

    // Leaving stops delivery.
    members[0].leave_multicast(group);
    sender
        .send_to(group, Bytes::from_static(b"after leave"))
        .unwrap();
    assert!(members[0]
        .recv_from(Some(Duration::from_millis(50)))
        .is_err());
    let (_, d) = members[1].recv_from(Some(Duration::from_secs(2))).unwrap();
    assert_eq!(&d[..], b"after leave");
}

#[test]
fn multicast_join_requires_group_address() {
    let fab = Fabric::loopback();
    let c = DgramConduit::bind(&fab, Addr::new(0, 2)).unwrap();
    assert!(c.join_multicast(Addr::new(3, 3)).is_err());
}

#[test]
fn rd_drops_an_ack_for_a_message_never_sent() {
    // A forged ACK claims everything up to `u64::MAX - 1` and SACKs two
    // past it. It acknowledges messages never sent, so the conduit drops
    // it: the one real message stays outstanding until its true ACK.
    let fab = Fabric::loopback();
    let a = RdConduit::bind(&fab, Addr::new(0, 40), RdConfig::default()).unwrap();
    let peer = DgramConduit::bind(&fab, Addr::new(1, 40)).unwrap();
    a.send_to(peer.local_addr(), Bytes::from_static(b"m").into())
        .unwrap();
    let (_, data) = peer.recv_from(Some(Duration::from_secs(2))).unwrap();
    assert_eq!(&data[..], b"\0\0\0\0\0\0\0\0\0m", "data frame: type, seq 0");
    // An RD ACK: type 1, cum, one SACK word.
    let ack = |cum: u64, word: u64| {
        let mut b = vec![1u8];
        b.extend_from_slice(&cum.to_be_bytes());
        b.push(1);
        b.extend_from_slice(&word.to_be_bytes());
        Bytes::from(b)
    };
    peer.send_to(a.local_addr(), ack(u64::MAX - 1, 1 << 2))
        .unwrap();
    assert_eq!(a.flush(Duration::from_millis(50)), Err(NetError::Timeout));
    peer.send_to(a.local_addr(), ack(1, 0)).unwrap();
    assert_eq!(a.flush(Duration::from_secs(2)), Ok(()));
}

#[test]
fn stream_ignores_a_syn_ack_whose_sequence_would_overflow() {
    // A raw endpoint answers a client's SYN with a SYN-ACK at sequence
    // `u64::MAX`, whose successor does not exist, then with a true one.
    // The client must take only the second: the data that follows at
    // sequence 1 is then in order.
    let fab = Fabric::loopback();
    let server = fab.bind(Addr::new(1, 41)).unwrap();
    let segment = |flags: u8, seq: u64, payload: &[u8]| {
        let mut b = vec![simnet::stream::PROTO_STREAM, flags];
        b.extend_from_slice(&seq.to_be_bytes());
        b.extend_from_slice(&1u64.to_be_bytes()); // ack: the client's SYN
        b.extend_from_slice(&32_768u32.to_be_bytes());
        b.extend_from_slice(&(payload.len() as u16).to_be_bytes());
        b.extend_from_slice(payload);
        Bytes::from(b)
    };
    let (syn_ack, ack) = (0x03, 0x02);
    std::thread::scope(|s| {
        let connecting = s.spawn(|| {
            StreamConduit::connect(
                &fab,
                NodeId(0),
                server.local_addr(),
                StreamConfig::default(),
            )
        });
        let client = server
            .recv(&mut Deadline::After(Duration::from_secs(5)))
            .unwrap()
            .src;
        server
            .send_to(client, segment(syn_ack, u64::MAX, b""))
            .unwrap();
        server.send_to(client, segment(syn_ack, 0, b"")).unwrap();
        let conn = connecting.join().unwrap().unwrap();
        server.send_to(client, segment(ack, 1, b"hi")).unwrap();
        let mut buf = [0u8; 2];
        conn.read_exact(&mut buf, Some(Duration::from_secs(2)))
            .unwrap();
        assert_eq!(&buf, b"hi");
    });
}
