//! Corruption-path classification tests: a frame whose payload is
//! damaged *after* encoding must be rejected by the CRC32 trailer check
//! (`crc_errors`), never misparsed (`malformed`), must consume no posted
//! receive, and must leave registered memory and validity state
//! untouched.
//!
//! Frames are captured post-encode by addressing the sender at a relay
//! [`DgramConduit`]; the relay flips exactly one payload bit and
//! forwards the damaged frame to the real receiver, exactly as a
//! bit-error on the wire would. The last test works below the QP: it
//! damages a 64 KiB segment at the CRC kernel's block edges and drives
//! both receive decodes directly. The final two send CRC-valid segments
//! that lie outside their own message straight from the relay: they are
//! malformed, not corrupt, and must be refused the same way.

use std::sync::atomic::Ordering;
use std::time::Duration;

use bytes::Bytes;
use iwarp::hdr::{
    decode, decode_sg, encode_tagged, encode_untagged, DdpSegment, RdmapOpcode, SegBatch,
    TaggedHdr, UntaggedHdr, CRC_LEN, TAGGED_HDR_LEN,
};
use iwarp::wr::RecvWr;
use iwarp::{Access, Cq, CqeStatus, Device, IwarpError, MrTable, QpConfig, UdDest};
use iwarp_common::pool::BufPool;
use iwarp_common::sg::SgBytes;
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
    let qa = dev_a
        .create_ud_qp(None, &a_send, &a_recv, cfg.clone())
        .unwrap();
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

    r.qa.post_write_record(1, pattern(1024), via_relay(&r), sink.stag(), 0)
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
    r.qa.post_send(2, Bytes::from(pattern(512)), r.qb.dest())
        .unwrap();
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

    r.qa.post_write_record(1, payload.clone(), via_relay(&r), sink.stag(), 0)
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
        let out = if i == victim {
            flip_payload_bit(f)
        } else {
            f.clone()
        };
        r.relay.send_to(r.qb.local_addr(), out).unwrap();
    }
    let cqe = pump_until_cqe(&r.qb, &r.b_recv)
        .expect("record completes once its last segment has arrived");

    let stats = r.qb.stats();
    assert_eq!(stats.crc_errors.load(Ordering::Relaxed), 1);
    assert_eq!(stats.malformed.load(Ordering::Relaxed), 0);
    assert_eq!(cqe.status, CqeStatus::Partial);
    let info = cqe
        .write_record
        .expect("Write-Record completions carry validity");
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

/// A 64 KiB tagged segment (the `bulk_wr_1MiB` shape) with one bit
/// flipped in each region of the hardware CRC kernel's layout: each of
/// the three interleaved lanes of a long block, the first word after a
/// block boundary, and the single-chain tail. Both receive decodes must
/// answer `CrcMismatch`, and the multi-part one must place nothing.
#[test]
fn bit_flip_in_every_crc_kernel_region_is_caught() {
    // The kernel's lane sizes (`iwarp_common::crc32`'s `hw::LONG` and
    // `hw::SHORT`); a block is three lanes.
    const LONG: usize = 4096;
    const SHORT: usize = 256;
    let payload = pattern(64 * 1024);
    let hdr = TaggedHdr {
        opcode: RdmapOpcode::WriteRecord,
        last: true,
        notify: true,
        stag: 1,
        to: 0,
        base_to: 0,
        total_len: payload.len() as u32,
        src_qpn: 3,
        msg_id: 5,
        imm: 0,
    };
    let mut batch = SegBatch::new(&BufPool::new(), 1);
    batch.push(DdpSegment::Tagged {
        hdr,
        payload: Bytes::from(payload.clone()),
    });
    let frame = batch.finish().pop().expect("one segment").to_bytes();
    let body_len = frame.len() - CRC_LEN;
    // Split as the datagram path delivers it: header, payload, trailer.
    let parts = |f: &Bytes| {
        let mut sg = SgBytes::new();
        sg.push(f.slice(..TAGGED_HDR_LEN));
        sg.push(f.slice(TAGGED_HDR_LEN..body_len));
        sg.push(f.slice(body_len..));
        sg
    };
    let region = MrTable::new().register(payload.len(), Access::RemoteWrite);
    let sentinel = vec![0xEEu8; payload.len()];
    region.write(0, &sentinel).unwrap();

    // Offsets into the input of one `Crc32c::update` call: the whole body
    // for `decode`, the payload alone for `write_with_crc` (`decode_sg`
    // absorbs the header separately). Both inputs end in a tail of at
    // least 256 bytes, after 5 long and 5 short blocks.
    let places = [
        ("long block, lane 0", LONG / 2),
        ("long block, lane 1", LONG + LONG / 2),
        ("long block, lane 2", 2 * LONG + LONG / 2 + 5),
        ("first word of the second long block", 3 * LONG),
        ("first word of the first short block", 5 * 3 * LONG),
        ("short block, lane 2", 5 * 3 * LONG + 2 * SHORT + 9),
    ];
    let tail = |input_len: usize| ("single-chain tail", input_len - 100);
    let flip = |at: usize| {
        let mut v = frame.to_vec();
        v[at] ^= 0x10;
        Bytes::from(v)
    };
    for (what, at) in places.into_iter().chain([tail(body_len)]) {
        assert_eq!(
            decode(&flip(at), true).err(),
            Some(IwarpError::CrcMismatch),
            "contiguous decode, {what}"
        );
    }
    for (what, at) in places.into_iter().chain([tail(payload.len())]) {
        let bad = flip(TAGGED_HDR_LEN + at);
        let (seg, pending) = decode_sg(&parts(&bad), true).expect("header intact");
        let pending = pending.expect("multi-part defers the CRC");
        let DdpSegment::Tagged { payload: p, .. } = seg else {
            panic!("tagged expected")
        };
        assert_eq!(
            region.write_with_crc(0, &p, &pending).err(),
            Some(IwarpError::CrcMismatch),
            "decode_sg + write_with_crc, {what}"
        );
        assert!(
            region.read_vec(0, payload.len()).unwrap() == sentinel,
            "{what}: a rejected segment must place nothing"
        );
    }

    // The undamaged frame passes both ways and lands.
    assert!(decode(&frame, true).is_ok());
    let (seg, pending) = decode_sg(&parts(&frame), true).unwrap();
    let DdpSegment::Tagged { payload: p, .. } = seg else {
        panic!("tagged expected")
    };
    region.write_with_crc(0, &p, &pending.unwrap()).unwrap();
    assert!(region.read_vec(0, payload.len()).unwrap() == payload);
}

/// Sends CRC-valid `frames` from the relay straight to `qb`, pumps it,
/// and returns its `(malformed, crc_errors)` counts.
fn inject(r: &Rig, frames: &[Bytes]) -> (u64, u64) {
    for f in frames {
        r.relay.send_to(r.qb.local_addr(), f.clone()).unwrap();
    }
    pump(&r.qb, 10);
    let stats = r.qb.stats();
    (
        stats.malformed.load(Ordering::Relaxed),
        stats.crc_errors.load(Ordering::Relaxed),
    )
}

/// Untagged segments whose bytes lie past their message's `total_len`:
/// two 64 B receives share one 128 B region, as the socket shim lays out
/// its slots. A 64 B message carrying 100 B, and 64 B at offset 32 of a
/// 64 B message, would each spill into the second receive's slot. Both
/// are malformed: nothing is placed, no receive is consumed, no CQE.
#[test]
fn untagged_segment_outside_its_message_is_malformed() {
    let r = rig();
    let slots = r.dev_b.register(128, Access::Local);
    for (wr_id, offset) in [(1, 0), (2, 64)] {
        r.qb.post_recv(RecvWr {
            wr_id,
            mr: slots.clone(),
            offset,
            len: 64,
        })
        .unwrap();
    }
    let hdr = |msg_id, mo, last| UntaggedHdr {
        opcode: RdmapOpcode::Send,
        last,
        qn: 0,
        msn: 1,
        mo,
        total_len: 64,
        src_qpn: 9,
        msg_id,
        solicited: false,
    };
    let overlong = encode_untagged(&hdr(1, 0, true), &[0xAB; 100], true);
    let past_end = encode_untagged(&hdr(2, 32, false), &[0xCD; 64], true);
    assert_eq!(inject(&r, &[overlong, past_end]), (2, 0));
    assert_eq!(r.qb.posted_recvs(), 2, "no receive consumed");
    assert!(r.b_recv.poll().is_none(), "no completion");
    assert_eq!(slots.read_vec(0, 128).unwrap(), vec![0u8; 128]);

    // A well-formed message still lands in the first slot only.
    let good = encode_untagged(&hdr(3, 0, true), &[0xEF; 64], true);
    assert_eq!(inject(&r, &[good]), (2, 0));
    let cqe = r.b_recv.poll().expect("the well-formed message completes");
    assert_eq!(
        (cqe.wr_id, cqe.status, cqe.byte_len),
        (1, CqeStatus::Success, 64)
    );
    assert_eq!(slots.read_vec(0, 64).unwrap(), vec![0xEFu8; 64]);
    assert_eq!(slots.read_vec(64, 64).unwrap(), vec![0u8; 64]);
}

/// Write-Record segments outside their message: one placed before its
/// message's base (`to` 0, `base_to` 1000), and one 128 B segment in a
/// 64 B message. Both are malformed: nothing is placed and no record
/// completes, so no validity can claim bytes the message does not hold.
#[test]
fn write_record_segment_outside_its_message_is_malformed() {
    let r = rig();
    let sink = r.dev_b.register(4096, Access::RemoteWrite);
    let hdr = |msg_id, to, base_to, total_len| TaggedHdr {
        opcode: RdmapOpcode::WriteRecord,
        last: true,
        notify: true,
        stag: sink.stag(),
        to,
        base_to,
        total_len,
        src_qpn: 9,
        msg_id,
        imm: 0,
    };
    let before_base = encode_tagged(&hdr(1, 0, 1000, 64), &[0xAB; 64], true);
    let overlong = encode_tagged(&hdr(2, 0, 0, 64), &[0xCD; 128], true);
    assert_eq!(inject(&r, &[before_base, overlong]), (2, 0));
    assert!(r.b_recv.poll().is_none(), "no record completes");
    assert_eq!(r.qb.records_pending(), 0);
    assert_eq!(sink.read_vec(0, 4096).unwrap(), vec![0u8; 4096]);

    // A well-formed record still completes whole.
    let good = encode_tagged(&hdr(3, 1000, 1000, 64), &[0xEF; 64], true);
    assert_eq!(inject(&r, &[good]), (2, 0));
    let cqe = r.b_recv.poll().expect("the well-formed record completes");
    assert_eq!((cqe.status, cqe.byte_len), (CqeStatus::Success, 64));
    assert_eq!(sink.read_vec(1000, 64).unwrap(), vec![0xEFu8; 64]);
}
