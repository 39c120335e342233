//! DDP/RDMAP wire formats.
//!
//! iWARP carries RDMAP operations inside DDP segments. The standard defines
//! two DDP models (RFC 5041), both reproduced here:
//!
//! * **untagged** — send/recv: the receiver owns placement; segments carry
//!   a queue number (QN), message sequence number (MSN) and message offset
//!   (MO) used to match a posted receive;
//! * **tagged** — RDMA Write / Read Response: segments carry an STag and
//!   tagged offset (TO) steering them directly into registered memory.
//!
//! Datagram-iWARP extends both headers (paper §IV.B item 4): segments name
//! the *source QP number* so the target can report the sender back to the
//! application, and carry a per-message `msg_id` + `total_len` so that
//! multi-datagram messages can be reassembled (or partially placed) without
//! any stream state. The `NOTIFY` bit distinguishes RDMA **Write-Record**
//! (target-side completion logging) from a plain RDMA Write.
//!
//! On the datagram path every segment ends in a mandatory CRC32 trailer
//! (paper §IV.B item 6). On the stream path the MPA layer already applies
//! a CRC per FPDU, so DDP omits it — mirroring the paper's recommendation
//! to avoid redundant checks.

use bytes::{BufMut, Bytes, BytesMut};

use iwarp_common::crc32::{crc32c, Crc32c};
use iwarp_common::pool::BufPool;
use iwarp_common::sg::SgBytes;

use crate::error::{IwarpError, IwarpResult};

/// RDMAP operation codes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum RdmapOpcode {
    /// Untagged send (two-sided).
    Send = 0,
    /// Tagged RDMA Write (one-sided, no target completion).
    RdmaWrite = 1,
    /// Tagged RDMA Write-Record (one-sided, target logs a completion) —
    /// the paper's new operation.
    WriteRecord = 2,
    /// Untagged RDMA Read Request (QN 1).
    ReadRequest = 3,
    /// Tagged RDMA Read Response.
    ReadResponse = 4,
    /// Terminate (error reporting).
    Terminate = 5,
    /// Tagged RDMA Write with Immediate (InfiniBand-style): places data
    /// one-sided but *consumes a posted receive* at the target to deliver
    /// the immediate — the operation the paper contrasts Write-Record
    /// against ("RDMA Write with immediate ... requires that a receive be
    /// posted at the target", §IV.B.3).
    RdmaWriteImm = 6,
}

impl RdmapOpcode {
    fn from_u8(v: u8) -> IwarpResult<Self> {
        Ok(match v {
            0 => RdmapOpcode::Send,
            1 => RdmapOpcode::RdmaWrite,
            2 => RdmapOpcode::WriteRecord,
            3 => RdmapOpcode::ReadRequest,
            4 => RdmapOpcode::ReadResponse,
            5 => RdmapOpcode::Terminate,
            6 => RdmapOpcode::RdmaWriteImm,
            _ => return Err(IwarpError::Net(simnet::NetError::Protocol("bad opcode"))),
        })
    }
}

const CTRL_TAGGED: u8 = 0x01;
const CTRL_LAST: u8 = 0x02;
const CTRL_NOTIFY: u8 = 0x04;
const CTRL_SOLICITED: u8 = 0x08;
const CTRL_VERSION: u8 = 0x10;
const CTRL_VERSION_MASK: u8 = 0xF0;

/// Untagged DDP header (send/recv and read requests).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct UntaggedHdr {
    /// RDMAP opcode carried in this segment.
    pub opcode: RdmapOpcode,
    /// True on the final segment of the message.
    pub last: bool,
    /// DDP queue number: 0 = send queue, 1 = read-request, 2 = terminate.
    pub qn: u32,
    /// Message sequence number on `qn` (per peer on UD).
    pub msn: u32,
    /// Offset of this segment's payload within the message.
    pub mo: u32,
    /// Total message length.
    pub total_len: u32,
    /// Sender's QP number (datagram extension: lets the target report the
    /// traffic source back to the application).
    pub src_qpn: u32,
    /// Message identity for connectionless reassembly (datagram extension).
    pub msg_id: u64,
    /// Solicited-event send: asks the target to raise a completion event
    /// (the "send with solicited event" verb the paper compares
    /// Write-Record with).
    pub solicited: bool,
}

/// Size of the encoded untagged header.
pub const UNTAGGED_HDR_LEN: usize = 30;

/// Tagged DDP header (RDMA Write, Write-Record, Read Response).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TaggedHdr {
    /// RDMAP opcode carried in this segment.
    pub opcode: RdmapOpcode,
    /// True on the final segment of the message.
    pub last: bool,
    /// True when the target must log a Write-Record completion.
    pub notify: bool,
    /// Steering tag of the destination region.
    pub stag: u32,
    /// Tagged offset: where this segment's payload is placed.
    pub to: u64,
    /// Tagged offset of the whole message's start (Write-Record uses this
    /// to aggregate per-segment placements into one validity map).
    pub base_to: u64,
    /// Total message length.
    pub total_len: u32,
    /// Sender's QP number (datagram extension).
    pub src_qpn: u32,
    /// Message identity for record aggregation (datagram extension).
    pub msg_id: u64,
    /// Immediate data for [`RdmapOpcode::RdmaWriteImm`] (ignored
    /// otherwise).
    pub imm: u32,
}

/// Size of the encoded tagged header.
pub const TAGGED_HDR_LEN: usize = 42;

/// CRC32 trailer size on the datagram path.
pub const CRC_LEN: usize = 4;

/// A decoded DDP segment.
#[derive(Clone, Debug, PartialEq)]
pub enum DdpSegment {
    /// Untagged (receiver-managed placement).
    Untagged {
        /// Parsed header.
        hdr: UntaggedHdr,
        /// Segment payload.
        payload: Bytes,
    },
    /// Tagged (sender-steered placement).
    Tagged {
        /// Parsed header.
        hdr: TaggedHdr,
        /// Segment payload.
        payload: Bytes,
    },
}

impl DdpSegment {
    /// The segment payload.
    #[must_use]
    pub fn payload(&self) -> &Bytes {
        match self {
            DdpSegment::Untagged { payload, .. } | DdpSegment::Tagged { payload, .. } => payload,
        }
    }
}

/// Serializes an untagged header into its fixed wire form. Single source
/// of truth shared by the contiguous encoders and [`SegBatch`] so the two
/// cannot drift apart byte-wise.
fn untagged_hdr_bytes(hdr: &UntaggedHdr) -> [u8; UNTAGGED_HDR_LEN] {
    let mut b = [0u8; UNTAGGED_HDR_LEN];
    let mut ctrl = CTRL_VERSION;
    if hdr.last {
        ctrl |= CTRL_LAST;
    }
    if hdr.solicited {
        ctrl |= CTRL_SOLICITED;
    }
    b[0] = ctrl;
    b[1] = hdr.opcode as u8;
    b[2..6].copy_from_slice(&hdr.qn.to_be_bytes());
    b[6..10].copy_from_slice(&hdr.msn.to_be_bytes());
    b[10..14].copy_from_slice(&hdr.mo.to_be_bytes());
    b[14..18].copy_from_slice(&hdr.total_len.to_be_bytes());
    b[18..22].copy_from_slice(&hdr.src_qpn.to_be_bytes());
    b[22..30].copy_from_slice(&hdr.msg_id.to_be_bytes());
    b
}

/// Serializes a tagged header into its fixed wire form (shared by both
/// encoders, like [`untagged_hdr_bytes`]).
fn tagged_hdr_bytes(hdr: &TaggedHdr) -> [u8; TAGGED_HDR_LEN] {
    let mut b = [0u8; TAGGED_HDR_LEN];
    let mut ctrl = CTRL_VERSION | CTRL_TAGGED;
    if hdr.last {
        ctrl |= CTRL_LAST;
    }
    if hdr.notify {
        ctrl |= CTRL_NOTIFY;
    }
    b[0] = ctrl;
    b[1] = hdr.opcode as u8;
    b[2..6].copy_from_slice(&hdr.stag.to_be_bytes());
    b[6..14].copy_from_slice(&hdr.to.to_be_bytes());
    b[14..22].copy_from_slice(&hdr.base_to.to_be_bytes());
    b[22..26].copy_from_slice(&hdr.total_len.to_be_bytes());
    b[26..30].copy_from_slice(&hdr.src_qpn.to_be_bytes());
    b[30..38].copy_from_slice(&hdr.msg_id.to_be_bytes());
    b[38..42].copy_from_slice(&hdr.imm.to_be_bytes());
    b
}

/// Encodes an untagged segment; appends a CRC32 trailer when `with_crc`.
#[must_use]
pub fn encode_untagged(hdr: &UntaggedHdr, payload: &[u8], with_crc: bool) -> Bytes {
    let cap = UNTAGGED_HDR_LEN + payload.len() + if with_crc { CRC_LEN } else { 0 };
    let mut b = BytesMut::with_capacity(cap);
    b.extend_from_slice(&untagged_hdr_bytes(hdr));
    b.extend_from_slice(payload);
    if with_crc {
        let crc = crc32c(&b);
        b.put_u32(crc);
    }
    b.freeze()
}

/// Encodes a tagged segment; appends a CRC32 trailer when `with_crc`.
#[must_use]
pub fn encode_tagged(hdr: &TaggedHdr, payload: &[u8], with_crc: bool) -> Bytes {
    let cap = TAGGED_HDR_LEN + payload.len() + if with_crc { CRC_LEN } else { 0 };
    let mut b = BytesMut::with_capacity(cap);
    b.extend_from_slice(&tagged_hdr_bytes(hdr));
    b.extend_from_slice(payload);
    if with_crc {
        let crc = crc32c(&b);
        b.put_u32(crc);
    }
    b.freeze()
}

/// The scatter-gather segment encoder: every segment of a transmit gets
/// its `hdr ++ crc` region carved out of ONE pooled arena (one pool lock
/// per verb call, not per segment), and its payload is *chained*, not
/// copied. The CRC streams over header then payload, so each emitted
/// segment is byte-identical to [`encode_untagged`] / [`encode_tagged`]
/// with `with_crc = true`.
pub struct SegBatch {
    buf: iwarp_common::pool::PoolBuf,
    /// (arena offset, header length, payload) per pushed segment, in push
    /// order.
    segs: Vec<(usize, usize, Bytes)>,
    off: usize,
}

impl SegBatch {
    /// Reserves arena space for up to `max_segs` segments of either kind.
    #[must_use]
    pub fn new(pool: &BufPool, max_segs: usize) -> Self {
        Self {
            buf: pool.get(max_segs * (TAGGED_HDR_LEN + CRC_LEN)),
            segs: Vec::with_capacity(max_segs),
            off: 0,
        }
    }

    /// Encodes one segment, untagged or tagged, into the arena.
    pub fn push(&mut self, seg: DdpSegment) {
        let o = self.off;
        let (hdr_len, payload) = match seg {
            DdpSegment::Untagged { hdr, payload } => {
                self.buf[o..o + UNTAGGED_HDR_LEN].copy_from_slice(&untagged_hdr_bytes(&hdr));
                (UNTAGGED_HDR_LEN, payload)
            }
            DdpSegment::Tagged { hdr, payload } => {
                self.buf[o..o + TAGGED_HDR_LEN].copy_from_slice(&tagged_hdr_bytes(&hdr));
                (TAGGED_HDR_LEN, payload)
            }
        };
        let mut crc = Crc32c::new();
        crc.update(&self.buf[o..o + hdr_len]);
        crc.update(&payload);
        self.off = o + hdr_len + CRC_LEN;
        self.buf[o + hdr_len..self.off].copy_from_slice(&crc.finish().to_be_bytes());
        self.segs.push((o, hdr_len, payload));
    }

    /// Freezes the arena and yields the finished segments in push order.
    #[must_use]
    pub fn finish(self) -> Vec<SgBytes> {
        let arena = self.buf.freeze();
        self.segs
            .into_iter()
            .map(|(o, hdr_len, payload)| {
                let crc_at = o + hdr_len;
                let mut sg = SgBytes::with_capacity(3);
                sg.push(arena.slice(o..crc_at));
                sg.push(payload);
                sg.push(arena.slice(crc_at..crc_at + CRC_LEN));
                sg
            })
            .collect()
    }
}

/// A CRC32C check deferred past header parsing.
///
/// [`decode_sg`] returns one for multi-part segments: the digest state
/// with the header already absorbed, plus the trailer value the full
/// segment must hash to. The receive engine either resolves it up front
/// ([`PendingCrc::verify`]) or fuses the payload's CRC pass with the
/// mandatory placement copy
/// ([`crate::buf::MemoryRegion::write_with_crc`]), which settles the
/// digest before placing any byte (store-and-verify). Every consumer
/// must resolve it one way or the other before trusting the segment.
#[derive(Clone, Copy, Debug)]
pub struct PendingCrc {
    state: Crc32c,
    expected: u32,
}

impl PendingCrc {
    /// Digest state with the header bytes already absorbed.
    #[must_use]
    pub fn state(&self) -> Crc32c {
        self.state
    }

    /// The trailer value the full segment must digest to.
    #[must_use]
    pub fn expected(&self) -> u32 {
        self.expected
    }

    /// Checks the deferred CRC against the segment payload.
    #[must_use]
    pub fn verify(&self, payload: &[u8]) -> bool {
        let mut c = self.state;
        c.update(payload);
        c.finish() == self.expected
    }
}

/// Decodes a DDP segment delivered as a scatter-gather list.
///
/// A contiguous (single-part) delivery takes exactly the [`decode`] path:
/// the CRC is verified up front and the returned [`PendingCrc`] is
/// `None`. A multi-part delivery parses the header from a bounded stack
/// copy, takes the payload as a zero-copy window, and — because checking
/// the CRC eagerly would force flattening the parts — returns the check
/// as a [`PendingCrc`] for the engine to resolve (fused with placement on
/// the hot path). Corruption in the header region may therefore surface
/// as a malformed-segment error here rather than `CrcMismatch`; the two
/// are jointly exhaustive over corrupt input.
pub fn decode_sg(raw: &SgBytes, with_crc: bool) -> IwarpResult<(DdpSegment, Option<PendingCrc>)> {
    if raw.is_contiguous() {
        return Ok((decode(&raw.to_bytes(), with_crc)?, None));
    }
    let malformed = || IwarpError::Net(simnet::NetError::Protocol("malformed DDP segment"));
    let mut body_len = raw.len();
    if with_crc {
        if raw.len() < CRC_LEN {
            return Err(malformed());
        }
        body_len -= CRC_LEN;
    }
    if body_len < 2 {
        return Err(malformed());
    }
    let mut probe = [0u8; TAGGED_HDR_LEN];
    let probe_len = body_len.min(TAGGED_HDR_LEN);
    raw.read_at(0, &mut probe[..probe_len]);
    let ctrl = probe[0];
    if ctrl & CTRL_VERSION_MASK != CTRL_VERSION {
        return Err(malformed());
    }
    let opcode = RdmapOpcode::from_u8(probe[1])?;
    let last = ctrl & CTRL_LAST != 0;
    let tagged = ctrl & CTRL_TAGGED != 0;
    let hdr_len = if tagged { TAGGED_HDR_LEN } else { UNTAGGED_HDR_LEN };
    if body_len < hdr_len {
        return Err(malformed());
    }
    let payload = raw.slice_to_bytes(hdr_len, body_len);
    let pending = if with_crc {
        let mut trailer = [0u8; CRC_LEN];
        raw.read_at(body_len, &mut trailer);
        let expected = u32::from_be_bytes(trailer);
        let mut state = Crc32c::new();
        state.update(&probe[..hdr_len]);
        Some(PendingCrc { state, expected })
    } else {
        None
    };
    let seg = if tagged {
        DdpSegment::Tagged {
            hdr: TaggedHdr {
                opcode,
                last,
                notify: ctrl & CTRL_NOTIFY != 0,
                stag: u32::from_be_bytes(probe[2..6].try_into().expect("sized")),
                to: u64::from_be_bytes(probe[6..14].try_into().expect("sized")),
                base_to: u64::from_be_bytes(probe[14..22].try_into().expect("sized")),
                total_len: u32::from_be_bytes(probe[22..26].try_into().expect("sized")),
                src_qpn: u32::from_be_bytes(probe[26..30].try_into().expect("sized")),
                msg_id: u64::from_be_bytes(probe[30..38].try_into().expect("sized")),
                imm: u32::from_be_bytes(probe[38..42].try_into().expect("sized")),
            },
            payload,
        }
    } else {
        DdpSegment::Untagged {
            hdr: UntaggedHdr {
                opcode,
                last,
                solicited: ctrl & CTRL_SOLICITED != 0,
                qn: u32::from_be_bytes(probe[2..6].try_into().expect("sized")),
                msn: u32::from_be_bytes(probe[6..10].try_into().expect("sized")),
                mo: u32::from_be_bytes(probe[10..14].try_into().expect("sized")),
                total_len: u32::from_be_bytes(probe[14..18].try_into().expect("sized")),
                src_qpn: u32::from_be_bytes(probe[18..22].try_into().expect("sized")),
                msg_id: u64::from_be_bytes(probe[22..30].try_into().expect("sized")),
            },
            payload,
        }
    };
    Ok((seg, pending))
}

/// Decodes a DDP segment. When `with_crc`, the trailing CRC32 is verified
/// and [`IwarpError::CrcMismatch`] returned on corruption.
pub fn decode(raw: &Bytes, with_crc: bool) -> IwarpResult<DdpSegment> {
    let malformed = || IwarpError::Net(simnet::NetError::Protocol("malformed DDP segment"));
    let mut body_len = raw.len();
    if with_crc {
        if raw.len() < CRC_LEN {
            return Err(malformed());
        }
        body_len -= CRC_LEN;
        let expect = u32::from_be_bytes(raw[body_len..].try_into().expect("CRC_LEN bytes"));
        if crc32c(&raw[..body_len]) != expect {
            return Err(IwarpError::CrcMismatch);
        }
    }
    if body_len < 2 {
        return Err(malformed());
    }
    let ctrl = raw[0];
    if ctrl & CTRL_VERSION_MASK != CTRL_VERSION {
        return Err(malformed());
    }
    let opcode = RdmapOpcode::from_u8(raw[1])?;
    let last = ctrl & CTRL_LAST != 0;
    if ctrl & CTRL_TAGGED != 0 {
        if body_len < TAGGED_HDR_LEN {
            return Err(malformed());
        }
        let hdr = TaggedHdr {
            opcode,
            last,
            notify: ctrl & CTRL_NOTIFY != 0,
            stag: u32::from_be_bytes(raw[2..6].try_into().expect("sized")),
            to: u64::from_be_bytes(raw[6..14].try_into().expect("sized")),
            base_to: u64::from_be_bytes(raw[14..22].try_into().expect("sized")),
            total_len: u32::from_be_bytes(raw[22..26].try_into().expect("sized")),
            src_qpn: u32::from_be_bytes(raw[26..30].try_into().expect("sized")),
            msg_id: u64::from_be_bytes(raw[30..38].try_into().expect("sized")),
            imm: u32::from_be_bytes(raw[38..42].try_into().expect("sized")),
        };
        Ok(DdpSegment::Tagged {
            hdr,
            payload: raw.slice(TAGGED_HDR_LEN..body_len),
        })
    } else {
        if body_len < UNTAGGED_HDR_LEN {
            return Err(malformed());
        }
        let hdr = UntaggedHdr {
            opcode,
            last,
            solicited: ctrl & CTRL_SOLICITED != 0,
            qn: u32::from_be_bytes(raw[2..6].try_into().expect("sized")),
            msn: u32::from_be_bytes(raw[6..10].try_into().expect("sized")),
            mo: u32::from_be_bytes(raw[10..14].try_into().expect("sized")),
            total_len: u32::from_be_bytes(raw[14..18].try_into().expect("sized")),
            src_qpn: u32::from_be_bytes(raw[18..22].try_into().expect("sized")),
            msg_id: u64::from_be_bytes(raw[22..30].try_into().expect("sized")),
        };
        Ok(DdpSegment::Untagged {
            hdr,
            payload: raw.slice(UNTAGGED_HDR_LEN..body_len),
        })
    }
}

/// Payload of an RDMA Read Request (carried untagged on QN 1).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReadRequest {
    /// Requester's sink region (where the response lands).
    pub sink_stag: u32,
    /// Sink tagged offset.
    pub sink_to: u64,
    /// Bytes to read.
    pub len: u32,
    /// Responder's source region.
    pub src_stag: u32,
    /// Source tagged offset.
    pub src_to: u64,
}

/// Encoded length of a read request payload.
pub const READ_REQUEST_LEN: usize = 28;

impl ReadRequest {
    /// Serializes the request payload.
    #[must_use]
    pub fn encode(&self) -> Bytes {
        let mut b = BytesMut::with_capacity(READ_REQUEST_LEN);
        b.put_u32(self.sink_stag);
        b.put_u64(self.sink_to);
        b.put_u32(self.len);
        b.put_u32(self.src_stag);
        b.put_u64(self.src_to);
        b.freeze()
    }

    /// Parses a request payload.
    pub fn decode(raw: &[u8]) -> IwarpResult<Self> {
        if raw.len() != READ_REQUEST_LEN {
            return Err(IwarpError::Net(simnet::NetError::Protocol(
                "bad read request length",
            )));
        }
        Ok(Self {
            sink_stag: u32::from_be_bytes(raw[0..4].try_into().expect("sized")),
            sink_to: u64::from_be_bytes(raw[4..12].try_into().expect("sized")),
            len: u32::from_be_bytes(raw[12..16].try_into().expect("sized")),
            src_stag: u32::from_be_bytes(raw[16..20].try_into().expect("sized")),
            src_to: u64::from_be_bytes(raw[20..28].try_into().expect("sized")),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_untagged() -> UntaggedHdr {
        UntaggedHdr {
            opcode: RdmapOpcode::Send,
            last: true,
            qn: 0,
            msn: 7,
            mo: 1500,
            total_len: 3000,
            src_qpn: 42,
            msg_id: 0xDEAD_BEEF_0000_0001,
            solicited: false,
        }
    }

    fn sample_tagged() -> TaggedHdr {
        TaggedHdr {
            opcode: RdmapOpcode::WriteRecord,
            last: false,
            notify: true,
            stag: 0x200,
            to: 128 * 1024,
            base_to: 64 * 1024,
            total_len: 256 * 1024,
            src_qpn: 9,
            msg_id: 77,
            imm: 0x1234_5678,
        }
    }

    #[test]
    fn untagged_roundtrip_with_crc() {
        let hdr = sample_untagged();
        let enc = encode_untagged(&hdr, b"payload-bytes", true);
        match decode(&enc, true).unwrap() {
            DdpSegment::Untagged { hdr: h, payload } => {
                assert_eq!(h, hdr);
                assert_eq!(&payload[..], b"payload-bytes");
            }
            other => panic!("wrong variant: {other:?}"),
        }
    }

    #[test]
    fn untagged_roundtrip_without_crc() {
        let hdr = sample_untagged();
        let enc = encode_untagged(&hdr, b"x", false);
        assert_eq!(enc.len(), UNTAGGED_HDR_LEN + 1);
        let seg = decode(&enc, false).unwrap();
        assert_eq!(seg.payload(), &Bytes::from_static(b"x"));
    }

    #[test]
    fn tagged_roundtrip_with_crc() {
        let hdr = sample_tagged();
        let enc = encode_tagged(&hdr, &[0xAB; 100], true);
        match decode(&enc, true).unwrap() {
            DdpSegment::Tagged { hdr: h, payload } => {
                assert_eq!(h, hdr);
                assert_eq!(payload.len(), 100);
            }
            other => panic!("wrong variant: {other:?}"),
        }
    }

    #[test]
    fn crc_detects_corruption() {
        let enc = encode_untagged(&sample_untagged(), b"payload", true);
        for i in [0usize, 5, UNTAGGED_HDR_LEN + 2, enc.len() - 1] {
            let mut bad = enc.to_vec();
            bad[i] ^= 0x40;
            let err = decode(&Bytes::from(bad), true).unwrap_err();
            assert_eq!(err, IwarpError::CrcMismatch, "flip at byte {i}");
        }
    }

    #[test]
    fn truncated_rejected() {
        let enc = encode_tagged(&sample_tagged(), b"abc", false);
        for len in [0, 1, TAGGED_HDR_LEN - 1] {
            assert!(decode(&enc.slice(..len), false).is_err(), "len={len}");
        }
    }

    #[test]
    fn bad_version_rejected() {
        let enc = encode_untagged(&sample_untagged(), b"", false);
        let mut bad = enc.to_vec();
        bad[0] = (bad[0] & !CTRL_VERSION_MASK) | 0x20;
        assert!(decode(&Bytes::from(bad), false).is_err());
    }

    #[test]
    fn bad_opcode_rejected() {
        let enc = encode_untagged(&sample_untagged(), b"", false);
        let mut bad = enc.to_vec();
        bad[1] = 99;
        assert!(decode(&Bytes::from(bad), false).is_err());
    }

    #[test]
    fn empty_payload_segments() {
        let hdr = UntaggedHdr {
            total_len: 0,
            mo: 0,
            ..sample_untagged()
        };
        let enc = encode_untagged(&hdr, b"", true);
        let seg = decode(&enc, true).unwrap();
        assert!(seg.payload().is_empty());
    }

    #[test]
    fn read_request_roundtrip() {
        let rr = ReadRequest {
            sink_stag: 1,
            sink_to: 2,
            len: 3,
            src_stag: 4,
            src_to: 5,
        };
        assert_eq!(ReadRequest::decode(&rr.encode()).unwrap(), rr);
        assert!(ReadRequest::decode(b"short").is_err());
    }

    /// One segment through the arena encoder.
    fn encode_one(seg: DdpSegment, pool: &BufPool) -> SgBytes {
        let mut batch = SegBatch::new(pool, 1);
        batch.push(seg);
        batch.finish().pop().expect("one segment")
    }

    #[test]
    fn seg_batch_matches_contiguous_byte_for_byte() {
        // Untagged and tagged segments share one arena; each comes out
        // as exactly the contiguous reference encoding.
        let pool = BufPool::new();
        let payload = Bytes::from((0..2000u32).map(|i| (i % 255) as u8).collect::<Vec<_>>());
        let (u, t) = (sample_untagged(), sample_tagged());
        let mut batch = SegBatch::new(&pool, 3);
        batch.push(DdpSegment::Untagged {
            hdr: u,
            payload: payload.clone(),
        });
        batch.push(DdpSegment::Tagged {
            hdr: t,
            payload: payload.clone(),
        });
        batch.push(DdpSegment::Untagged {
            hdr: u,
            payload: payload.slice(..7),
        });
        let segs = batch.finish();
        let want = [
            encode_untagged(&u, &payload, true),
            encode_tagged(&t, &payload, true),
            encode_untagged(&u, &payload[..7], true),
        ];
        assert_eq!(segs.len(), want.len());
        for (sg, want) in segs.iter().zip(&want) {
            assert_eq!(sg.parts().len(), 3, "hdr, payload, crc");
            assert_eq!(&sg.to_bytes(), want);
        }
    }

    #[test]
    fn decode_sg_multipart_defers_crc() {
        let pool = BufPool::new();
        let hdr = sample_untagged();
        let payload = Bytes::from(vec![7u8; 333]);
        let sg = encode_one(
            DdpSegment::Untagged {
                hdr,
                payload: payload.clone(),
            },
            &pool,
        );
        let (seg, pending) = decode_sg(&sg, true).unwrap();
        let pending = pending.expect("multi-part defers the CRC");
        match seg {
            DdpSegment::Untagged { hdr: h, payload: p } => {
                assert_eq!(h, hdr);
                assert_eq!(p, payload);
                assert!(pending.verify(&p));
                assert!(!pending.verify(&p[1..]), "wrong payload must fail");
            }
            other => panic!("wrong variant: {other:?}"),
        }
        // A contiguous delivery of the same bytes takes the eager path.
        let (seg2, none) = decode_sg(&SgBytes::from(sg.to_bytes()), true).unwrap();
        assert!(none.is_none());
        assert_eq!(seg2.payload(), &payload);
    }

    #[test]
    fn decode_sg_matches_decode_for_tagged() {
        let pool = BufPool::new();
        let hdr = sample_tagged();
        let payload = Bytes::from(vec![0x5Au8; 512]);
        let sg = encode_one(
            DdpSegment::Tagged {
                hdr,
                payload: payload.clone(),
            },
            &pool,
        );
        let (seg, pending) = decode_sg(&sg, true).unwrap();
        assert!(pending.expect("deferred").verify(seg.payload()));
        assert_eq!(decode(&sg.to_bytes(), true).unwrap(), seg);
    }

    #[test]
    fn decode_sg_rejects_corrupt_multipart() {
        let pool = BufPool::new();
        let hdr = sample_untagged();
        let payload = Bytes::from(vec![9u8; 64]);
        let good = encode_one(
            DdpSegment::Untagged {
                hdr,
                payload: payload.clone(),
            },
            &pool,
        );
        // Corrupt one payload byte: parsing still succeeds (cut-through)
        // but the deferred check must fail.
        let mut corrupt_payload = payload.to_vec();
        corrupt_payload[10] ^= 0x01;
        let mut sg = SgBytes::new();
        sg.push(good.slice(0, UNTAGGED_HDR_LEN).to_bytes());
        sg.push(Bytes::from(corrupt_payload));
        sg.push(good.slice(good.len() - CRC_LEN, good.len()).to_bytes());
        let (seg, pending) = decode_sg(&sg, true).unwrap();
        assert!(!pending.expect("deferred").verify(seg.payload()));
        // Truncated multi-part input is rejected outright.
        assert!(decode_sg(&good.slice(0, 10), true).is_err());
    }

    #[test]
    fn notify_flag_roundtrips() {
        let mut hdr = sample_tagged();
        hdr.notify = false;
        let enc = encode_tagged(&hdr, b"", false);
        match decode(&enc, false).unwrap() {
            DdpSegment::Tagged { hdr: h, .. } => assert!(!h.notify),
            _ => unreachable!(),
        }
    }
}
