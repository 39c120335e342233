//! The transmit pipeline shared by the datagram and RC engines.
//!
//! Every verb call and every read response, on every QP flavour, runs
//! [`TxCore::transmit`]: validate, place signals, segment, encode, flush,
//! complete ([`crate::qp::DatagramQp::post_send_batch`] documents the
//! stages and the one error contract). Only the encode-and-flush stage
//! differs per LLP, and [`Wire`] names it: UD and RD encode each segment
//! with its CRC trailer into one pooled [`SegBatch`] arena and flush
//! datagrams, RC frames each segment as an MPA FPDU and writes them all to
//! its stream in one call.

use std::cmp::Ordering::{Equal, Greater, Less};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

use bytes::{Bytes, BytesMut};
use iwarp_telemetry::Telemetry;
use parking_lot::Mutex;
use simnet::{Addr, DgramConduit, RdConduit, StreamConduit};

use iwarp_common::pool::BufPool;
use iwarp_common::sg::SgBytes;

use crate::buf::MemoryRegion;
use crate::cq::{Cq, Cqe, CqeOpcode, CqeStatus};
use crate::error::{IwarpError, IwarpResult};
use crate::hdr::{
    tagged_hdr_bytes, untagged_hdr_bytes, DdpSegment, RdmapOpcode, ReadRequest, SegBatch,
    TaggedHdr, UntaggedHdr, CRC_LEN, TAGGED_HDR_LEN, UNTAGGED_HDR_LEN,
};
use crate::mpa::{MpaTx, FPDU_OVERHEAD};
use crate::qp::rx::{ReadReply, RxCore, QN_READ_REQUEST, QN_SEND};
use crate::wr::{SendWr, UdDest};

/// The send half every QP owns beside its [`RxCore`]: the send CQ, the
/// message-id and MSN sequences, the message size limit, and the
/// `core.qp.*` send counters.
pub(crate) struct TxCore {
    pub(crate) qpn: u32,
    pub(crate) send_cq: Cq,
    /// Send-side counting under `core.qp.*` and `core.mpa.markers_tx`.
    tel: Telemetry,
    next_msg_id: AtomicU64,
    next_msn: AtomicU32,
    pub(crate) max_msg_size: usize,
}

/// Worst-case marker bytes within one FPDU budget.
const MARKER_SLACK: usize = 32;

/// Where one transmit's segments go: the one pipeline stage that differs
/// per LLP.
#[derive(Clone, Copy)]
pub(crate) enum Wire<'a> {
    /// Unreliable datagrams: one fabric burst per destination.
    Ud(&'a DgramConduit),
    /// Reliable datagrams: segment by segment into the windowed conduit.
    Rd(&'a RdConduit),
    /// The connection's stream, framed by its MPA sender.
    Rc {
        mpa: &'a Mutex<MpaTx>,
        stream: &'a StreamConduit,
    },
}

impl Wire<'_> {
    /// Payload bytes one segment carries under a `hdr_len`-byte header.
    /// A datagram segment must fit one datagram with its CRC trailer
    /// (paper §IV.B, "one DDP segment per datagram"). An FPDU should fit
    /// one stream segment (the EMSS), with room for its framing and the
    /// markers that can fall inside it; one budget serves both header
    /// kinds.
    fn seg_cap(self, hdr_len: usize) -> usize {
        match self {
            Wire::Ud(c) => c.max_datagram() - hdr_len - CRC_LEN,
            Wire::Rd(c) => c.max_datagram() - hdr_len - CRC_LEN,
            Wire::Rc { stream, .. } => stream
                .mss()
                .saturating_sub(FPDU_OVERHEAD + UNTAGGED_HDR_LEN + MARKER_SLACK)
                .max(256),
        }
    }
}

impl TxCore {
    pub(crate) fn new(qpn: u32, send_cq: Cq, max_msg_size: usize, tel: &Telemetry) -> Self {
        send_cq.attach_telemetry(tel);
        Self {
            qpn,
            send_cq,
            tel: tel.clone(),
            next_msg_id: AtomicU64::new(1),
            next_msn: AtomicU32::new(1),
            max_msg_size,
        }
    }

    /// The transmit pipeline behind every verb call and every read
    /// response. [`crate::qp::DatagramQp::post_send_batch`] documents its
    /// stages and its one error contract.
    pub(crate) fn transmit(&self, wire: Wire<'_>, verb: Verb, wrs: &[SendWr]) -> IwarpResult<()> {
        let mut result = Ok(());
        let mut datas: Vec<Bytes> = Vec::with_capacity(wrs.len());
        for wr in wrs {
            match wr.payload.clone().into_bytes() {
                Ok(d) if d.len() > self.max_msg_size && verb.is_posted() => {
                    result = Err(IwarpError::MessageTooLong {
                        len: d.len(),
                        max: self.max_msg_size,
                    });
                    break;
                }
                Ok(d) => datas.push(d),
                Err(e) => {
                    result = Err(e);
                    break;
                }
            }
        }
        let wrs = &wrs[..datas.len()];
        if wrs.is_empty() {
            return result;
        }

        let forced = wrs.iter().any(|w| !w.signaled).then(|| {
            let app: Vec<bool> = wrs.iter().map(|w| w.signaled).collect();
            crate::signal::place_signals(&app, self.send_cq.capacity(), self.send_cq.len())
        });

        let cap = wire.seg_cap(verb.hdr_len());
        let flushed = match wire {
            Wire::Ud(c) => {
                let segs = self.encode(c.fabric().pool(), verb, wrs, &datas, cap);
                self.flush_ud(c, wrs, &datas, cap, segs)
            }
            Wire::Rd(c) => {
                let segs = self.encode(c.fabric().pool(), verb, wrs, &datas, cap);
                self.flush_rd(c, wrs, &datas, cap, segs)
            }
            Wire::Rc { mpa, stream } => self
                .flush_rc(mpa, stream, verb, wrs, &datas, cap)
                .map_err(|e| (e, vec![Handed::Failed { bytes: 0 }; wrs.len()])),
        };
        let handed = match flushed {
            Ok(()) => None,
            Err((e, handed)) => {
                if result.is_ok() {
                    result = Err(e);
                }
                Some(handed)
            }
        };

        let Some(opcode) = verb.send_cqe() else {
            return result;
        };
        let mut retired = 0u64;
        let cqes = wrs
            .iter()
            .zip(&datas)
            .enumerate()
            .filter_map(|(i, (wr, data))| {
                let signaled = forced.as_ref().map_or(wr.signaled, |f| f[i]);
                let (status, byte_len) = match handed.as_ref().map_or(Handed::Whole, |h| h[i]) {
                    Handed::Whole if signaled => (CqeStatus::Success, data.len() as u32),
                    Handed::Whole => {
                        retired += 1;
                        return None;
                    }
                    Handed::Failed { bytes } => (CqeStatus::Error, bytes),
                    Handed::Unsent => return None,
                };
                Some(Cqe {
                    wr_id: wr.wr_id,
                    opcode,
                    status,
                    byte_len,
                    src: None,
                    write_record: None,
                    imm: None,
                    solicited: false,
                })
            });
        self.send_cq.push_batch(cqes);
        self.send_cq.retire_unsignaled(retired);
        result
    }

    /// Hands the call's DDP segments to `push`, in WR order. Each
    /// message takes its message id and MSN, and is counted, as it is
    /// reached (on RC, under the MPA lock, so ids follow stream order).
    fn segments(
        &self,
        verb: Verb,
        wrs: &[SendWr],
        datas: &[Bytes],
        cap: usize,
        mut push: impl FnMut(DdpSegment),
    ) {
        for (wr, data) in wrs.iter().zip(datas) {
            let msg_id = verb
                .msg_id()
                .unwrap_or_else(|| self.next_msg_id.fetch_add(1, Ordering::Relaxed));
            let msn = match verb {
                Verb::Send | Verb::ReadRequest { .. } => {
                    self.next_msn.fetch_add(1, Ordering::Relaxed)
                }
                Verb::Write { .. } | Verb::ReadResponse { .. } => 0,
            };
            let n = seg_count(data.len(), cap);
            if verb.is_posted() {
                let tel = self.tel.core();
                tel.qp_tx_msgs.inc();
                tel.qp_tx_segments.add(n as u64);
                tel.qp_msg_size_tx.record(data.len() as u64);
            }
            for k in 0..n {
                let range = k * cap..((k + 1) * cap).min(data.len());
                push(verb.segment(self.qpn, msg_id, msn, wr.solicited, data, range));
            }
        }
    }

    /// Encodes the call's datagram segments, each with its CRC trailer,
    /// into one pooled arena.
    fn encode(
        &self,
        pool: &BufPool,
        verb: Verb,
        wrs: &[SendWr],
        datas: &[Bytes],
        cap: usize,
    ) -> Vec<SgBytes> {
        let n_segs = datas.iter().map(|d| seg_count(d.len(), cap)).sum();
        let mut arena = SegBatch::new(pool, n_segs);
        self.segments(verb, wrs, datas, cap, |seg| arena.push(seg));
        arena.finish()
    }

    /// UD flush: one fabric burst per destination, in first-seen order.
    /// Most calls name one destination and skip the grouping.
    fn flush_ud(
        &self,
        c: &DgramConduit,
        wrs: &[SendWr],
        datas: &[Bytes],
        cap: usize,
        segs: Vec<SgBytes>,
    ) -> Result<(), (IwarpError, Vec<Handed>)> {
        let first = wrs[0].dest.addr;
        if wrs.iter().all(|w| w.dest.addr == first) {
            self.tel.core().qp_tx_bursts.inc();
            return c
                .send_sg_burst(first, segs)
                .map_err(|e| (e.into(), vec![Handed::Failed { bytes: 0 }; wrs.len()]));
        }
        let mut dests: Vec<(Addr, Vec<SgBytes>)> = Vec::new();
        let mut wr_dest: Vec<usize> = Vec::with_capacity(wrs.len());
        let mut segs = segs.into_iter();
        for (wr, data) in wrs.iter().zip(datas) {
            let di = match dests.iter().position(|(a, _)| *a == wr.dest.addr) {
                Some(di) => di,
                None => {
                    dests.push((wr.dest.addr, Vec::new()));
                    dests.len() - 1
                }
            };
            let n = seg_count(data.len(), cap);
            dests[di].1.extend(segs.by_ref().take(n));
            wr_dest.push(di);
        }
        for (di, (dst, segs)) in dests.into_iter().enumerate() {
            self.tel.core().qp_tx_bursts.inc();
            if let Err(e) = c.send_sg_burst(dst, segs) {
                return Err((e.into(), Handed::around(wr_dest, di, 0)));
            }
        }
        Ok(())
    }

    /// RD flush: segment by segment, each copied once, by the conduit,
    /// into the frame it keeps for retransmission (counted: RD is not the
    /// zero-copy path).
    fn flush_rd(
        &self,
        c: &RdConduit,
        wrs: &[SendWr],
        datas: &[Bytes],
        cap: usize,
        segs: Vec<SgBytes>,
    ) -> Result<(), (IwarpError, Vec<Handed>)> {
        let mut segs = segs.into_iter();
        for (i, (wr, data)) in wrs.iter().zip(datas).enumerate() {
            for (k, seg) in segs.by_ref().take(seg_count(data.len(), cap)).enumerate() {
                if let Err(e) = c.send_to(wr.dest.addr, seg) {
                    let bytes = (k * cap) as u32;
                    return Err((e.into(), Handed::around(0..wrs.len(), i, bytes)));
                }
            }
        }
        Ok(())
    }

    /// RC flush: frames every segment of the call into one buffer and
    /// writes it to the stream in one call, one slice per FPDU, all under
    /// the MPA lock. Marker positions follow stream order, so no other
    /// caller's FPDUs may land between framing and writing. RC has no DDP
    /// CRC: MPA covers each FPDU.
    fn flush_rc(
        &self,
        mpa: &Mutex<MpaTx>,
        stream: &StreamConduit,
        verb: Verb,
        wrs: &[SendWr],
        datas: &[Bytes],
        cap: usize,
    ) -> IwarpResult<()> {
        let n_segs = datas.iter().map(|d| seg_count(d.len(), cap)).sum();
        let longest = datas.iter().map(Bytes::len).max().unwrap_or(0);
        let mut tx = mpa.lock();
        let before = tx.markers();
        let seg_bound = tx.framed_len_bound(verb.hdr_len() + cap.min(longest));
        let mut framed = BytesMut::with_capacity(n_segs * seg_bound);
        let mut bounds = Vec::with_capacity(n_segs);
        self.segments(verb, wrs, datas, cap, |seg| {
            let start = framed.len();
            match &seg {
                DdpSegment::Untagged { hdr, payload } => {
                    tx.frame_into(&mut framed, &untagged_hdr_bytes(hdr), payload);
                }
                DdpSegment::Tagged { hdr, payload } => {
                    tx.frame_into(&mut framed, &tagged_hdr_bytes(hdr), payload);
                }
            }
            bounds.push((start, framed.len()));
        });
        self.tel.core().mpa_markers_tx.add(tx.markers() - before);
        // Same layout, so this collects in place: one allocation serves
        // the bounds and the slices.
        let fpdus: Vec<&[u8]> = bounds.into_iter().map(|(s, e)| &framed[s..e]).collect();
        stream.write_all_vectored(&fpdus)?;
        Ok(())
    }

    /// Posts an RDMA Read of `len` bytes from `(remote_stag, remote_to)`
    /// at `dest` into `(sink, sink_to)`: validates the sink locally,
    /// registers the read with `rx` (it completes on the receive CQ when
    /// its response lands) and sends the request.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn post_read(
        &self,
        wire: Wire<'_>,
        rx: &RxCore,
        wr_id: u64,
        sink: &MemoryRegion,
        sink_to: u64,
        len: u32,
        dest: UdDest,
        remote_stag: u32,
        remote_to: u64,
        signaled: bool,
    ) -> IwarpResult<()> {
        sink.read_bytes(sink_to, 0)?;
        if u64::from(len) + sink_to > sink.len() as u64 {
            return Err(IwarpError::AccessViolation {
                stag: sink.stag(),
                offset: sink_to,
                len,
            });
        }
        let msg_id = self.next_msg_id.fetch_add(1, Ordering::Relaxed);
        rx.register_read(
            msg_id,
            RxCore::new_pending_read(wr_id, sink.clone(), sink_to, len, signaled),
        );
        let req = ReadRequest {
            sink_stag: sink.stag(),
            sink_to,
            len,
            src_stag: remote_stag,
            src_to: remote_to,
        };
        self.transmit(
            wire,
            Verb::ReadRequest { msg_id },
            &[SendWr::new(wr_id, req.encode(), dest)],
        )
    }

    /// Sends the RDMA Read Response `reply` asks for. It is the reply to a
    /// verb posted elsewhere: neither counted nor completed here.
    pub(crate) fn respond(&self, wire: Wire<'_>, reply: ReadReply) -> IwarpResult<()> {
        let ReadReply {
            dst,
            sink_stag,
            sink_to,
            data,
            msg_id,
        } = reply;
        let verb = Verb::ReadResponse {
            msg_id,
            stag: sink_stag,
            to: sink_to,
        };
        let dest = UdDest { addr: dst, qpn: 0 };
        self.transmit(wire, verb, &[SendWr::new(0, data, dest)])
    }
}

/// Segments a `len`-byte message takes at `cap` payload bytes per segment
/// (an empty message still takes one).
fn seg_count(len: usize, cap: usize) -> usize {
    len.div_ceil(cap).max(1)
}

/// What one [`TxCore::transmit`] call carries. It decides each segment's
/// DDP header, whether the call counts as posted sends, and how it
/// completes.
#[derive(Clone, Copy)]
pub(crate) enum Verb {
    /// Untagged Send on QN 0; completes on the send CQ.
    Send,
    /// Tagged RDMA Write, Write-Record or Write-with-Immediate into
    /// `(stag, to)`; completes on the send CQ.
    Write {
        opcode: RdmapOpcode,
        notify: bool,
        stag: u32,
        to: u64,
        imm: u32,
    },
    /// Read Request on QN 1 for the read registered under `msg_id`; the
    /// read completes on the receive CQ once its response lands.
    ReadRequest { msg_id: u64 },
    /// Read Response for the requester's read `msg_id`, placed at its
    /// `(stag, to)`. The responder's reply to a verb posted elsewhere: it
    /// is neither counted nor completed, and the requester sized it, so
    /// `max_msg_size` does not bind it.
    ReadResponse { msg_id: u64, stag: u32, to: u64 },
}

impl Verb {
    /// A tagged write of `opcode` into `(stag, to)`: only a plain RDMA
    /// Write is silent at the target.
    pub(crate) fn write(opcode: RdmapOpcode, stag: u32, to: u64, imm: u32) -> Self {
        Verb::Write {
            opcode,
            notify: opcode != RdmapOpcode::RdmaWrite,
            stag,
            to,
            imm,
        }
    }

    fn hdr_len(self) -> usize {
        match self {
            Verb::Send | Verb::ReadRequest { .. } => UNTAGGED_HDR_LEN,
            Verb::Write { .. } | Verb::ReadResponse { .. } => TAGGED_HDR_LEN,
        }
    }

    /// True for verbs this QP's application posted (everything but a read
    /// response).
    fn is_posted(self) -> bool {
        !matches!(self, Verb::ReadResponse { .. })
    }

    /// The message id a read names; `None` when each message takes a
    /// fresh one.
    fn msg_id(self) -> Option<u64> {
        match self {
            Verb::ReadRequest { msg_id } | Verb::ReadResponse { msg_id, .. } => Some(msg_id),
            Verb::Send | Verb::Write { .. } => None,
        }
    }

    /// The send-CQ opcode, for verbs that complete there.
    fn send_cqe(self) -> Option<CqeOpcode> {
        match self {
            Verb::Send => Some(CqeOpcode::Send),
            Verb::Write { .. } => Some(CqeOpcode::RdmaWrite),
            Verb::ReadRequest { .. } | Verb::ReadResponse { .. } => None,
        }
    }

    /// Segment `data[range]` of message `msg_id` (untagged: MSN `msn`)
    /// from QP `src_qpn`.
    fn segment(
        self,
        src_qpn: u32,
        msg_id: u64,
        msn: u32,
        solicited: bool,
        data: &Bytes,
        range: std::ops::Range<usize>,
    ) -> DdpSegment {
        let (off, last, total_len) = (range.start, range.end == data.len(), data.len() as u32);
        let payload = data.slice(range);
        let untagged = |opcode, qn| UntaggedHdr {
            opcode,
            last,
            qn,
            msn,
            mo: off as u32,
            total_len,
            src_qpn,
            msg_id,
            solicited,
        };
        let tagged = |opcode, notify, stag, to: u64, imm| TaggedHdr {
            opcode,
            last,
            notify,
            stag,
            to: to + off as u64,
            base_to: to,
            total_len,
            src_qpn,
            msg_id,
            imm,
        };
        match self {
            Verb::Send => DdpSegment::Untagged {
                hdr: untagged(RdmapOpcode::Send, QN_SEND),
                payload,
            },
            Verb::ReadRequest { .. } => DdpSegment::Untagged {
                hdr: untagged(RdmapOpcode::ReadRequest, QN_READ_REQUEST),
                payload,
            },
            Verb::Write {
                opcode,
                notify,
                stag,
                to,
                imm,
            } => DdpSegment::Tagged {
                hdr: tagged(opcode, notify, stag, to, imm),
                payload,
            },
            Verb::ReadResponse { stag, to, .. } => DdpSegment::Tagged {
                hdr: tagged(RdmapOpcode::ReadResponse, false, stag, to, 0),
                payload,
            },
        }
    }
}

/// How far one WR of a failed transmit got.
#[derive(Clone, Copy)]
enum Handed {
    /// Every segment reached the transport.
    Whole,
    /// Its flush failed after `bytes` of it were handed over.
    Failed { bytes: u32 },
    /// Never flushed: the call ended first.
    Unsent,
}

impl Handed {
    /// Each WR's outcome, given the flush that carried it (`flush_of`,
    /// flushes numbered in the order they ran) and the flush that
    /// failed.
    fn around(flush_of: impl IntoIterator<Item = usize>, failed: usize, bytes: u32) -> Vec<Handed> {
        flush_of
            .into_iter()
            .map(|f| match f.cmp(&failed) {
                Less => Handed::Whole,
                Equal => Handed::Failed { bytes },
                Greater => Handed::Unsent,
            })
            .collect()
    }
}
