//! Decode-robustness fuzzing: arbitrary and truncated byte soup thrown at
//! every wire-format decoder. The decoders guard the trust boundary — a
//! sharded RX engine feeds them whatever the fabric delivers — so they
//! must classify garbage as an error, never panic, never over-read.
//!
//! The last property goes past the decoders: it feeds well-formed,
//! CRC-valid segments with hostile offsets and lengths into a whole QP's
//! receive path and checks that placement stays inside each segment's own
//! message. `cargo test --release -p iwarp --test decode_fuzz --
//! --include-ignored` adds its long run.

use std::time::Duration;

use bytes::Bytes;
use proptest::prelude::*;

use iwarp::hdr::{
    decode, decode_sg, encode_tagged, encode_untagged, RdmapOpcode, ReadRequest, TaggedHdr,
    UntaggedHdr,
};
use iwarp::wr::RecvWr;
use iwarp::{Access, Cq, CqeOpcode, CqeStatus, Device, QpConfig};
use iwarp_common::sg::SgBytes;
use simnet::{DgramConduit, Fabric, NodeId};

/// Splits `raw` into an SgBytes at the given fractional cut points so the
/// scatter-gather decoder sees headers straddling part boundaries.
fn split_sg(raw: &[u8], cuts: &[usize]) -> SgBytes {
    let mut sg = SgBytes::new();
    let mut prev = 0usize;
    let mut sorted: Vec<usize> = cuts.iter().map(|&c| c % (raw.len() + 1)).collect();
    sorted.sort_unstable();
    for cut in sorted {
        if cut > prev {
            sg.push(Bytes::copy_from_slice(&raw[prev..cut]));
            prev = cut;
        }
    }
    if prev < raw.len() {
        sg.push(Bytes::copy_from_slice(&raw[prev..]));
    }
    sg
}

fn sample_untagged(total_len: u32, mo: u32) -> UntaggedHdr {
    UntaggedHdr {
        opcode: RdmapOpcode::Send,
        last: true,
        qn: 0,
        msn: 7,
        mo,
        total_len,
        src_qpn: 42,
        msg_id: 0xDEAD_BEEF,
        solicited: false,
    }
}

proptest! {
    /// Raw garbage into the contiguous decoder: Ok or Err, never a panic.
    #[test]
    fn decode_never_panics(raw in proptest::collection::vec(any::<u8>(), 0..512),
                           with_crc in any::<bool>()) {
        let _ = decode(&Bytes::from(raw), with_crc);
    }

    /// Same garbage through the scatter-gather decoder with arbitrary
    /// part splits, including parts that straddle the header.
    #[test]
    fn decode_sg_never_panics(raw in proptest::collection::vec(any::<u8>(), 0..512),
                              cuts in proptest::collection::vec(any::<usize>(), 0..6),
                              with_crc in any::<bool>()) {
        let sg = split_sg(&raw, &cuts);
        let _ = decode_sg(&sg, with_crc);
    }

    /// Read-request control messages are a distinct format with its own
    /// decoder; garbage in must classify, not panic.
    #[test]
    fn read_request_decode_never_panics(raw in proptest::collection::vec(any::<u8>(), 0..64)) {
        let _ = ReadRequest::decode(&raw);
    }

    /// Every proper prefix of a valid CRC-protected segment must be
    /// caught: `decode` rejects it eagerly; `decode_sg` either rejects it
    /// or hands back a deferred CRC that fails verification. No prefix
    /// may panic or pass as intact.
    #[test]
    fn truncated_segment_with_crc_is_caught(payload in proptest::collection::vec(any::<u8>(), 0..256)) {
        let hdr = sample_untagged(payload.len() as u32, 0);
        let wire = encode_untagged(&hdr, &payload, true);
        for cut in 0..wire.len() {
            let truncated = wire.slice(0..cut);
            prop_assert!(decode(&truncated, true).is_err(),
                         "prefix of {} bytes (cut at {cut}) decoded successfully", wire.len());
            match decode_sg(&split_sg(&truncated, &[cut / 2]), true) {
                Err(_) => {}
                Ok((seg, Some(pending))) => prop_assert!(!pending.verify(seg.payload()),
                    "sg prefix (cut at {cut}) passed its deferred CRC"),
                Ok((_, None)) => prop_assert!(false,
                    "sg prefix (cut at {cut}) accepted without any CRC check"),
            }
        }
    }

    /// Without a CRC, truncating the payload is wire-indistinguishable
    /// from a shorter datagram — but the decoders must still never panic,
    /// must reject header truncation, and must preserve `total_len` so
    /// reassembly can detect the shortfall.
    #[test]
    fn truncated_segment_without_crc_never_panics(payload in proptest::collection::vec(any::<u8>(), 0..256)) {
        let hdr = sample_untagged(payload.len() as u32, 0);
        let wire = encode_untagged(&hdr, &payload, false);
        for cut in 0..wire.len() {
            let truncated = wire.slice(0..cut);
            match decode(&truncated, false) {
                Err(_) => prop_assert!(cut < wire.len(), "full segment rejected"),
                Ok(seg) => {
                    prop_assert!(cut >= iwarp::hdr::UNTAGGED_HDR_LEN,
                                 "decoded from less than a header");
                    match &seg {
                        iwarp::hdr::DdpSegment::Untagged { hdr: h, payload: p } => {
                            prop_assert_eq!(h.total_len as usize, payload.len(),
                                            "total_len corrupted by truncation");
                            prop_assert!(p.len() < payload.len() || cut == wire.len(),
                                         "truncated decode returned full payload");
                        }
                        iwarp::hdr::DdpSegment::Tagged { .. } =>
                            prop_assert!(false, "untagged wire decoded as tagged"),
                    }
                }
            }
            let _ = decode_sg(&split_sg(&truncated, &[cut / 2]), false);
        }
    }

    /// A single flipped bit in a CRC-protected segment must surface as an
    /// error (almost always `CrcMismatch`), never as silent corruption of
    /// the decode path itself.
    #[test]
    fn bitflip_with_crc_never_panics(payload in proptest::collection::vec(any::<u8>(), 1..128),
                                     byte_idx in any::<usize>(), bit in 0u8..8) {
        let hdr = sample_untagged(payload.len() as u32, 0);
        let wire = encode_untagged(&hdr, &payload, true);
        let mut bytes = wire.to_vec();
        let idx = byte_idx % bytes.len();
        bytes[idx] ^= 1 << bit;
        // Flips in the length field can make the buffer "short"; flips in
        // payload/CRC must be caught by CRC. Either way: classified.
        let _ = decode(&Bytes::from(bytes.clone()), true);
        let _ = decode_sg(&SgBytes::from(Bytes::from(bytes)), true);
    }

    /// Contiguous and scatter-gather decoders must agree on every input:
    /// same success payload or both reject.
    #[test]
    fn decode_and_decode_sg_agree(raw in proptest::collection::vec(any::<u8>(), 0..512),
                                  cuts in proptest::collection::vec(any::<usize>(), 0..4),
                                  with_crc in any::<bool>()) {
        let flat = Bytes::from(raw.clone());
        let contiguous = decode(&flat, with_crc);
        let sg_res = decode_sg(&split_sg(&raw, &cuts), with_crc);
        match (contiguous, sg_res) {
            (Ok(a), Ok((b, pending))) => {
                // decode_sg defers payload CRC; verify it to match decode's
                // eager check before comparing.
                if let Some(p) = &pending {
                    prop_assert!(p.verify(b.payload()), "sg accepted a payload decode's CRC rejected");
                }
                prop_assert_eq!(a.payload(), b.payload());
            }
            (Err(_), Err(_)) => {}
            (Ok(a), Err(e)) => {
                prop_assert!(false, "decode ok ({} payload bytes) but decode_sg err: {e:?}",
                             a.payload().len());
            }
            (Err(e), Ok((seg, pending))) => {
                // The only sanctioned asymmetry: decode checks CRC eagerly,
                // decode_sg defers it. The deferred check must then fail.
                match pending {
                    Some(p) => prop_assert!(!p.verify(seg.payload()),
                        "decode err ({e:?}) but decode_sg fully accepted"),
                    None => prop_assert!(false, "decode err ({e:?}) but decode_sg ok with no pending CRC"),
                }
            }
        }
    }
}

/// One CRC-valid segment of the whole-QP property. Message ids come from
/// a small set, so segments collide into each other's messages.
#[derive(Clone, Debug)]
enum Seg {
    Untagged {
        msg_id: u64,
        mo: u32,
        total_len: u32,
        len: usize,
        last: bool,
    },
    Tagged {
        msg_id: u64,
        to: u64,
        base_to: u64,
        total_len: u32,
        len: usize,
        last: bool,
    },
}

prop_compose! {
    /// Mostly offsets near the regions; one in eight anywhere in `u64`.
    fn offset()(near in 0u64..2400, far in any::<u64>(), pick in 0u8..8) -> u64 {
        if pick == 0 { far } else { near }
    }
}

prop_compose! {
    /// Three tagged segments in four are placed relative to their base,
    /// so many land inside their message; the fourth goes anywhere.
    fn segment()(tagged in any::<bool>(), msg_id in 0u64..3, a in offset(), b in offset(),
                 rel in 0u64..320, detached in 0u8..4,
                 total_len in 0u32..320, len in 0usize..320, last in any::<bool>()) -> Seg {
        if tagged {
            let to = if detached == 0 { a } else { b.wrapping_add(rel) };
            Seg::Tagged { msg_id, to, base_to: b, total_len, len, last }
        } else {
            let mo = if a < 2400 { (a % 320) as u32 } else { a as u32 };
            Seg::Untagged { msg_id, mo, total_len, len, last }
        }
    }
}

/// Receive slots `(offset, len)`, each followed by a guard longer than
/// any segment's `mo + len`, so a spill past a slot's end lands in guard
/// bytes, never in the next slot.
const SLOTS: [(u64, u32); 4] = [(64, 64), (1088, 128), (2112, 200), (3136, 256)];
const RECV_REGION: usize = 4096;
const WRITE_REGION: usize = 2048;
const FILL: u8 = 0xA5;

/// Feeds `segs` to a poll-mode UD QP from a raw conduit and checks that
/// no byte lands outside every posted receive and every Write-Record
/// message, and that no completion reports more bytes than its receive
/// or its message holds.
fn qp_receive_path_holds(segs: &[Seg]) -> Result<(), TestCaseError> {
    let fab = Fabric::loopback();
    let dev = Device::new(&fab, NodeId(1));
    let (send_cq, recv_cq) = (Cq::new(256), Cq::new(256));
    let cfg = QpConfig {
        poll_mode: true,
        ..QpConfig::default()
    };
    let qp = dev.create_ud_qp(None, &send_cq, &recv_cq, cfg).unwrap();
    let raw = DgramConduit::bind_ephemeral(&fab, NodeId(0)).unwrap();
    let slots = dev.register(RECV_REGION, Access::Local);
    let sink = dev.register(WRITE_REGION, Access::RemoteWrite);
    for (wr_id, &(offset, len)) in SLOTS.iter().enumerate() {
        let wr = RecvWr {
            wr_id: wr_id as u64,
            mr: slots.clone(),
            offset,
            len,
        };
        qp.post_recv(wr).unwrap();
    }
    // Every Write-Record message a segment names, as [start, end).
    let mut messages = Vec::new();
    for seg in segs {
        let frame = match *seg {
            Seg::Untagged {
                msg_id,
                mo,
                total_len,
                len,
                last,
            } => {
                let hdr = UntaggedHdr {
                    opcode: RdmapOpcode::Send,
                    last,
                    qn: 0,
                    msn: 1,
                    mo,
                    total_len,
                    src_qpn: 7,
                    msg_id,
                    solicited: false,
                };
                encode_untagged(&hdr, &vec![FILL; len], true)
            }
            Seg::Tagged {
                msg_id,
                to,
                base_to,
                total_len,
                len,
                last,
            } => {
                messages.push((base_to, base_to.saturating_add(u64::from(total_len))));
                let hdr = TaggedHdr {
                    opcode: RdmapOpcode::WriteRecord,
                    last,
                    notify: true,
                    stag: sink.stag(),
                    to,
                    base_to,
                    total_len,
                    src_qpn: 7,
                    msg_id,
                    imm: 0,
                };
                encode_tagged(&hdr, &vec![FILL; len], true)
            }
        };
        raw.send_to(qp.local_addr(), frame).unwrap();
        qp.progress(Duration::from_millis(5));
    }
    while qp.rx_backlog() > 0 {
        qp.progress(Duration::ZERO);
    }

    let held = slots.read_vec(0, RECV_REGION).unwrap();
    for (at, &byte) in held.iter().enumerate() {
        let at = at as u64;
        let inside = SLOTS
            .iter()
            .any(|&(o, l)| (o..o + u64::from(l)).contains(&at));
        prop_assert!(
            inside || byte == 0,
            "receive region byte {at} written outside every receive"
        );
    }
    let written = sink.read_vec(0, WRITE_REGION).unwrap();
    for (at, &byte) in written.iter().enumerate() {
        let at = at as u64;
        let inside = messages
            .iter()
            .any(|&(start, end)| (start..end).contains(&at));
        prop_assert!(
            inside || byte == 0,
            "write region byte {at} written outside every message"
        );
    }
    while let Some(cqe) = recv_cq.poll() {
        match cqe.opcode {
            CqeOpcode::Recv if cqe.status != CqeStatus::RecvTooSmall => {
                let (_, len) = SLOTS[cqe.wr_id as usize];
                prop_assert!(
                    cqe.byte_len <= len,
                    "{:?} receive {} reports {} B in a {len} B receive",
                    cqe.status,
                    cqe.wr_id,
                    cqe.byte_len
                );
            }
            CqeOpcode::WriteRecord => {
                let info = cqe
                    .write_record
                    .expect("Write-Record completions carry validity");
                prop_assert!(
                    cqe.byte_len <= info.total_len,
                    "record reports {} B of a {} B message",
                    cqe.byte_len,
                    info.total_len
                );
                prop_assert!(
                    info.validity
                        .runs()
                        .iter()
                        .all(|r| r.end <= u64::from(info.total_len)),
                    "record validity reaches past its message"
                );
            }
            _ => {}
        }
    }
    Ok(())
}

proptest! {
    /// CRC-valid segments with arbitrary offsets and lengths never place
    /// a byte outside their own message, nor complete a message with more
    /// bytes than it holds.
    #[test]
    fn qp_placement_stays_inside_each_message(segs in proptest::collection::vec(segment(), 1..40)) {
        qp_receive_path_holds(&segs)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// The same property, long: the nightly soak runs it.
    #[test]
    #[ignore = "long run; the nightly soak passes --include-ignored"]
    fn qp_placement_stays_inside_each_message_long(segs in proptest::collection::vec(segment(), 1..40)) {
        qp_receive_path_holds(&segs)?;
    }
}
