//! Corruption-path classification tests: a frame whose payload is
//! damaged *after* encoding must be rejected by the CRC32 trailer check
//! (`crc_errors`), never misparsed (`malformed`), must consume no posted
//! receive, and must leave registered memory and validity state
//! untouched.
//!
//! Frames are captured post-encode by addressing the sender at a relay
//! [`DgramConduit`]; the relay flips exactly one payload bit and
//! forwards the damaged frame to the real receiver, exactly as a
//! bit-error on the wire would.

use std::sync::atomic::Ordering;
use std::time::Duration;

use bytes::Bytes;
use iwarp::hdr::CRC_LEN;
use iwarp::wr::RecvWr;
use iwarp::{Access, Cq, CqeStatus, Device, QpConfig, UdDest};
use simnet::{DgramConduit, Fabric, NodeId};

const PUMP: Duration = Duration::from_millis(2);

/// Pumps a poll-mode QP's receive engine a few times.
fn pump(qp: &iwarp::UdQp, iters: usize) {
    for _ in 0..iters {
        qp.progress(PUMP);
    }
}

/// Pumps `qp` until `cq` yields a completion (or a 3 s deadline).
fn pump_until_cqe(qp: &iwarp::UdQp, cq: &Cq) -> Option<iwarp::Cqe> {
    let deadline = std::time::Instant::now() + Duration::from_secs(3);
    loop {
        if let Some(c) = cq.poll() {
            return Some(c);
        }
        if std::time::Instant::now() > deadline {
            return None;
        }
        qp.progress(PUMP);
    }
}

/// Flips one bit in the last payload byte (just before the CRC trailer).
fn flip_payload_bit(frame: &Bytes) -> Bytes {
    let mut v = frame.to_vec();
    assert!(v.len() > CRC_LEN, "frame too short to carry a payload");
    let i = v.len() - CRC_LEN - 1;
    v[i] ^= 0x40;
    Bytes::from(v)
}

struct Rig {
    _fab: Fabric,
    _dev_a: Device,
    dev_b: Device,
    qa: iwarp::UdQp,
    qb: iwarp::UdQp,
    _a_send: Cq,
    _a_recv: Cq,
    b_recv: Cq,
    relay: DgramConduit,
}

fn rig() -> Rig {
    let fab = Fabric::loopback();
    let dev_a = Device::new(&fab, NodeId(0));
    let dev_b = Device::new(&fab, NodeId(1));
    let (a_send, a_recv) = (Cq::new(64), Cq::new(64));
    let (b_send, b_recv) = (Cq::new(64), Cq::new(64));
    let cfg = QpConfig {
        poll_mode: true,
        ..QpConfig::default()
    };
    let qa = dev_a.create_ud_qp(None, &a_send, &a_recv, cfg.clone()).unwrap();
    let qb = dev_b.create_ud_qp(None, &b_send, &b_recv, cfg).unwrap();
    let relay = DgramConduit::bind_ephemeral(&fab, NodeId(2)).unwrap();
    Rig {
        _fab: fab,
        _dev_a: dev_a,
        dev_b,
        qa,
        qb,
        _a_send: a_send,
        _a_recv: a_recv,
        b_recv,
        relay,
    }
}

/// The sender's view of the receiver, routed through the relay.
fn via_relay(r: &Rig) -> UdDest {
    UdDest {
        addr: r.relay.local_addr(),
        qpn: r.qb.qpn(),
    }
}

fn pattern(n: usize) -> Vec<u8> {
    (0..n).map(|i| (i % 251) as u8).collect()
}

/// Tagged single-segment Write-Record with one flipped payload bit:
/// classified `crc_errors` (not `malformed`), consumes no posted
/// receive, places nothing, creates no record.
#[test]
fn tagged_bit_flip_is_crc_error() {
    let r = rig();
    let sink = r.dev_b.register(4096, Access::RemoteWrite);
    let guard = r.dev_b.register(256, Access::Local);
    r.qb.post_recv(RecvWr::whole(7, &guard)).unwrap();
    assert_eq!(r.qb.posted_recvs(), 1);

    r.qa
        .post_write_record(1, pattern(1024), via_relay(&r), sink.stag(), 0)
        .unwrap();

    let (_, frame) = r.relay.recv_from(Some(Duration::from_secs(1))).unwrap();
    r.relay
        .send_to(r.qb.local_addr(), flip_payload_bit(&frame))
        .unwrap();
    pump(&r.qb, 10);

    let stats = r.qb.stats();
    assert_eq!(
        stats.crc_errors.load(Ordering::Relaxed),
        1,
        "flipped payload bit must be a CRC rejection"
    );
    assert_eq!(
        stats.malformed.load(Ordering::Relaxed),
        0,
        "a CRC-damaged frame must not be classified malformed"
    );
    assert_eq!(
        r.qb.posted_recvs(),
        1,
        "tagged segments must never consume a posted receive"
    );
    assert!(
        r.b_recv.poll().is_none(),
        "no completion may surface for the damaged write"
    );
    assert_eq!(
        sink.read_vec(0, 1024).unwrap(),
        vec![0u8; 1024],
        "no byte of the damaged segment may be placed"
    );
}

/// Untagged send with one flipped payload bit: same classification, and
/// the posted receive survives for the next (clean) message.
#[test]
fn untagged_bit_flip_is_crc_error() {
    let r = rig();
    let sink = r.dev_b.register(4096, Access::Local);
    r.qb.post_recv(RecvWr::whole(11, &sink)).unwrap();

    r.qa.post_send(1, pattern(512), via_relay(&r)).unwrap();
    let (_, frame) = r.relay.recv_from(Some(Duration::from_secs(1))).unwrap();
    r.relay
        .send_to(r.qb.local_addr(), flip_payload_bit(&frame))
        .unwrap();
    pump(&r.qb, 10);

    let stats = r.qb.stats();
    assert_eq!(stats.crc_errors.load(Ordering::Relaxed), 1);
    assert_eq!(stats.malformed.load(Ordering::Relaxed), 0);
    assert_eq!(
        r.qb.posted_recvs(),
        1,
        "CRC-rejected send must not consume the posted receive"
    );
    assert!(r.b_recv.poll().is_none());

    // The receive is still live: a clean retransmission lands in it.
    r.qa.post_send(2, Bytes::from(pattern(512)), r.qb.dest()).unwrap();
    let cqe = pump_until_cqe(&r.qb, &r.b_recv).expect("clean resend completes");
    assert_eq!(cqe.wr_id, 11);
    assert_eq!(cqe.status, CqeStatus::Success);
    assert_eq!(sink.read_vec(0, 512).unwrap(), pattern(512));
}

/// Multi-segment Write-Record with the middle segment corrupted: the
/// record completes `Partial`, its validity map excludes exactly the
/// damaged range, and every claimed run holds the sender's bytes.
#[test]
fn partial_write_record_excludes_corrupt_segment() {
    let r = rig();
    let total = 150 * 1024usize;
    let sink = r.dev_b.register(256 * 1024, Access::RemoteWrite);
    let payload = pattern(total);

    r.qa
        .post_write_record(1, payload.clone(), via_relay(&r), sink.stag(), 0)
        .unwrap();

    // Collect every segment datagram of the message at the relay.
    let mut frames = Vec::new();
    while let Ok((_, f)) = r.relay.recv_from(Some(Duration::from_millis(100))) {
        frames.push(f);
    }
    assert!(
        frames.len() >= 3,
        "expected a multi-segment message, got {} segments",
        frames.len()
    );

    // Corrupt a middle segment; forward the rest untouched, in order.
    let victim = frames.len() / 2;
    for (i, f) in frames.iter().enumerate() {
        let out = if i == victim { flip_payload_bit(f) } else { f.clone() };
        r.relay.send_to(r.qb.local_addr(), out).unwrap();
    }
    let cqe = pump_until_cqe(&r.qb, &r.b_recv)
        .expect("record completes once its last segment has arrived");

    let stats = r.qb.stats();
    assert_eq!(stats.crc_errors.load(Ordering::Relaxed), 1);
    assert_eq!(stats.malformed.load(Ordering::Relaxed), 0);
    assert_eq!(cqe.status, CqeStatus::Partial);
    let info = cqe.write_record.expect("Write-Record completions carry validity");
    assert_eq!(info.total_len as usize, total);
    assert!(!info.is_complete());
    let valid = info.valid_bytes();
    assert!(
        valid > 0 && (valid as usize) < total,
        "valid_bytes {valid} out of range"
    );
    assert_eq!(
        info.validity.runs().len(),
        2,
        "one damaged middle segment must leave a prefix and a suffix"
    );
    // Every claimed run holds exactly the sender's bytes; the hole holds
    // none of them (the region started zeroed and pattern() is nonzero
    // except every 251st byte, so check the run boundaries instead).
    for run in info.validity.runs() {
        let (s, e) = (run.start as usize, run.end as usize);
        assert_eq!(
            sink.read_vec(s as u64, e - s).unwrap(),
            payload[s..e],
            "claimed run [{s}, {e}) does not hold the sender's bytes"
        );
    }
}
