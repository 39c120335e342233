//! The receive pipeline shared by the datagram and RC engines.
//!
//! Both QP flavours do the same DDP work on arrival — match untagged
//! segments to posted receives, steer tagged segments into registered
//! memory, aggregate Write-Record validity, satisfy read requests — and
//! differ only in how bytes reach them (datagrams vs the MPA-framed
//! stream) and how responses leave. Every driver (the datagram engine
//! thread, poll-mode `progress`, the shard drain and the RC engine) hands
//! each segment to [`RxCore::ingest`], which runs it through six stages:
//!
//! 1. **decode**: the driver's `hdr::decode`/`hdr::decode_sg` result;
//!    a failure is discarded here;
//! 2. **stall** (stream only): an RC send that finds no posted receive is
//!    left unconsumed ([`Ingest::Stall`]);
//! 3. **settle CRC**: untagged segments verify a deferred CRC up front,
//!    so corruption never consumes a posted receive; tagged segments carry
//!    it into placement, whose copy settles it;
//! 4. **classify**: the queue number or opcode picks the placement, and a
//!    segment that lies outside its own message is malformed;
//! 5. **place**: the one copy into registered memory ([`RxCore::place`]);
//! 6. **complete**: the one CQE path ([`RxCore::complete`]).
//!
//! Every refused segment is counted by one function ([`RxCore::discard`]).
//! A success completion needs the [`Placed`] proof that only `place`
//! returns, so no completion is observable before its bytes are placed
//! and their CRC is settled.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use bytes::Bytes;
use iwarp_telemetry::{EndpointId, EventKind, Telemetry};
use parking_lot::Mutex;
use simnet::Addr;

use iwarp_common::validity::ValidityMap;

use crate::buf::{MemoryRegion, MrTable};
use crate::cq::{Cq, Cqe, CqeOpcode, CqeSource, CqeStatus};
use crate::error::{IwarpError, IwarpResult};
use crate::hdr::{DdpSegment, PendingCrc, RdmapOpcode, ReadRequest, TaggedHdr, UntaggedHdr};
use crate::qp::QpConfig;
use crate::wr::RecvWr;
use crate::wr_record::RecordTable;

use placed::Placed;

/// DDP queue numbers.
pub const QN_SEND: u32 = 0;
/// Queue number carrying RDMA Read Requests.
pub const QN_READ_REQUEST: u32 = 1;
/// Queue number carrying Terminate messages.
pub const QN_TERMINATE: u32 = 2;

/// Diagnostics counters for one QP (all relaxed atomics; cheap to keep on).
#[derive(Debug, Default)]
pub struct QpStats {
    /// Segments discarded due to CRC mismatch.
    pub crc_errors: AtomicU64,
    /// Segments discarded as malformed.
    pub malformed: AtomicU64,
    /// Untagged segments dropped because no receive was posted.
    pub dropped_no_rq: AtomicU64,
    /// Tagged segments refused by STag/bounds/permission checks.
    pub access_violations: AtomicU64,
    /// Segments processed.
    pub rx_segments: AtomicU64,
}

/// How the LLP under a QP delivers. It decides whether in-flight work may
/// expire, and what an untagged send that finds no posted receive does.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Delivery {
    /// UD: datagrams may be lost, so partial receives and pending reads
    /// expire on their TTLs, and a send with no receive is dropped.
    Unreliable,
    /// RD: every datagram arrives eventually. Nothing in flight expires:
    /// recycling a receive mid-message would corrupt matching.
    Reliable,
    /// RC: a reliable stream. Nothing expires, and a send with no posted
    /// receive stalls the stream (TCP backpressure) instead of being lost.
    Stream,
}

/// A decoded segment with its CRC check, if deferred: what
/// [`crate::hdr::decode_sg`] returns (the contiguous `decode` result,
/// paired with `None`, on the stream path).
pub(crate) type Decoded = IwarpResult<(DdpSegment, Option<PendingCrc>)>;

/// What [`RxCore::ingest`] did with a segment, for its driver.
#[derive(Debug)]
pub(crate) enum Ingest {
    /// Consumed: placed, completed, or discarded and counted.
    Done,
    /// Consumed; the driver sends this read response.
    Respond(ReadReply),
    /// Not consumed: an RC send found no posted receive. The driver
    /// leaves it queued and offers it again once a receive is posted.
    Stall,
    /// Not decodable; counted. Fatal on a stream, where the framing can
    /// no longer be trusted.
    Malformed,
}

/// An RDMA Read Response for the owning engine to send back to `dst`:
/// `data` read from the local source region, to be placed at
/// `(sink_stag, sink_to)` on the requester, tagged with the request's
/// `msg_id`.
#[derive(Debug)]
pub(crate) struct ReadReply {
    pub dst: Addr,
    pub sink_stag: u32,
    pub sink_to: u64,
    pub data: Bytes,
    pub msg_id: u64,
}

/// Why a segment was refused; each kind has one per-QP stat (bar read
/// denials) and one domain counter.
#[derive(Clone, Copy, Debug)]
enum Discard {
    /// The CRC did not match.
    Crc,
    /// Undecodable, an unknown queue number or opcode, or a segment that
    /// lies outside its own message.
    Malformed,
    /// A new untagged message (or Write-with-Immediate) found no posted
    /// receive.
    NoReceive,
    /// A tagged segment failed its STag, bounds or permission check.
    Access,
    /// A read request named memory it may not read.
    ReadDenied,
}

/// The status a receive-side CQE reports. Success and partial outcomes
/// carry the [`Placed`] proof of the segment that finished the message.
enum Outcome {
    /// Every byte of the message is placed.
    Success(Placed),
    /// A Write-Record's last segment arrived with bytes missing.
    Partial(Placed),
    /// An unsignaled read completed: reported on the retired list, not
    /// the CQ.
    Retired(Placed),
    /// The posted receive is smaller than the message.
    TooSmall,
    /// The rest of the message (or read response) never arrived.
    Expired,
    /// The QP was torn down with the work outstanding.
    Flushed,
}

/// Whether `len` bytes at offset `off` fit inside a message of `total`
/// bytes (no overflow on hostile values).
fn within(off: u64, len: usize, total: u32) -> bool {
    let (len, total) = (len as u64, u64::from(total));
    len <= total && off <= total - len
}

/// An untagged message in flight: a consumed receive WR being filled.
struct PendingRecv {
    wr: RecvWr,
    total: u32,
    validity: ValidityMap,
    first_seen: Instant,
    /// Sender requested a solicited event on this message.
    solicited: bool,
    /// Set when the message was aborted (too big); remaining segments of
    /// the same message are ignored without consuming more receives.
    discard: bool,
}

/// A pending RDMA Read issued by this QP.
pub(crate) struct PendingRead {
    pub wr_id: u64,
    pub sink: MemoryRegion,
    pub sink_to: u64,
    pub len: u32,
    validity: ValidityMap,
    first_seen: Instant,
    /// Generate a CQE on successful completion (selective signaling).
    /// Expiry always produces a CQE regardless.
    signaled: bool,
}

/// Cold receive-side substructures: reassembly state for multi-segment
/// untagged messages, the Write-Record aggregation table, and the
/// pending-read scoreboard.
///
/// An idle QP — the common case at 100k concurrent mostly-quiet calls —
/// touches none of these: a send that arrives whole completes on arrival
/// in [`RxCore::place_send`], and reads/Write-Records simply never
/// happen. So the whole bundle lives behind one `Option<Box<..>>` and is
/// allocated on the first segment that actually needs it, not at QP
/// create. The consolidation also collapses what used to be three
/// separate mutexes into one; lock order where it nests is `cold` before
/// `rq`, matching the old `pending_recv` → `rq` order.
struct RxCold {
    /// Untagged messages in flight, keyed by `(src, src_qpn, msg_id)`.
    pending_recv: HashMap<(Addr, u32, u64), PendingRecv>,
    /// Write-Record aggregation / GC state.
    records: RecordTable,
    /// Outstanding RDMA Reads issued by this QP, keyed by transaction id.
    pending_reads: HashMap<u64, PendingRead>,
}

impl RxCold {
    fn new(cfg: &QpConfig) -> Box<Self> {
        Box::new(Self {
            pending_recv: HashMap::new(),
            records: RecordTable::new(cfg.record_ttl),
            pending_reads: HashMap::new(),
        })
    }
}

/// The shared receive-side engine state.
pub(crate) struct RxCore {
    pub mrs: std::sync::Arc<MrTable>,
    pub recv_cq: Cq,
    pub cfg: QpConfig,
    pub stats: QpStats,
    /// Mirrors [`QpStats`] into the domain's `core.rx.*` counters, plus
    /// the Write-Record accounting the paper's loss experiments reconcile
    /// against.
    tel: Telemetry,
    /// This QP's endpoint, for traced events.
    local: EndpointId,
    delivery: Delivery,
    rq: Mutex<VecDeque<RecvWr>>,
    /// Lazily allocated cold state (see [`RxCold`]). `None` until the
    /// first multi-segment message, Write-Record notify, or issued read.
    cold: Mutex<Option<Box<RxCold>>>,
    /// `wr_id`s of completed *unsignaled* reads, in completion order,
    /// awaiting [`Self::take_retired_reads`]. Reads complete out of
    /// order, so suppressed completions are reported as a drainable list
    /// rather than a high-water mark.
    retired_reads: Mutex<Vec<u64>>,
    next_sweep: Mutex<Instant>,
}

impl RxCore {
    pub fn new(
        mrs: std::sync::Arc<MrTable>,
        recv_cq: Cq,
        cfg: QpConfig,
        delivery: Delivery,
        tel: &Telemetry,
        local: Addr,
    ) -> Self {
        Self {
            mrs,
            recv_cq,
            cfg,
            stats: QpStats::default(),
            tel: tel.clone(),
            local: EndpointId::new(local.node.0, local.port),
            delivery,
            rq: Mutex::new(VecDeque::new()),
            cold: Mutex::new(None),
            retired_reads: Mutex::new(Vec::new()),
            next_sweep: Mutex::new(Instant::now() + Duration::from_millis(50)),
        }
    }

    /// Whether the cold bundle has been allocated (diagnostics/tests: an
    /// idle QP, or one that only received whole sends, must report
    /// `false`).
    pub fn cold_state_allocated(&self) -> bool {
        self.cold.lock().is_some()
    }

    /// Queues a receive work request.
    pub fn post_recv(&self, wr: RecvWr) {
        self.rq.lock().push_back(wr);
    }

    /// Queues a batch of receive work requests under one ring lock,
    /// preserving iteration order.
    pub fn post_recv_batch(&self, wrs: impl IntoIterator<Item = RecvWr>) {
        self.rq.lock().extend(wrs);
    }

    /// Number of receives currently posted (unconsumed).
    pub fn rq_len(&self) -> usize {
        self.rq.lock().len()
    }

    /// Registers a pending RDMA Read awaiting its response.
    pub fn register_read(&self, msg_id: u64, read: PendingRead) {
        self.cold
            .lock()
            .get_or_insert_with(|| RxCold::new(&self.cfg))
            .pending_reads
            .insert(msg_id, read);
    }

    pub fn new_pending_read(
        wr_id: u64,
        sink: MemoryRegion,
        sink_to: u64,
        len: u32,
        signaled: bool,
    ) -> PendingRead {
        PendingRead {
            wr_id,
            sink,
            sink_to,
            len,
            validity: ValidityMap::new(),
            first_seen: Instant::now(),
            signaled,
        }
    }

    /// Drains the `wr_id`s of unsignaled reads that completed since the
    /// last call, in completion order.
    pub fn take_retired_reads(&self) -> Vec<u64> {
        std::mem::take(&mut *self.retired_reads.lock())
    }

    /// Forgets every outstanding read whose `wr_id` is in `[lo, hi)`:
    /// pending reads (a late response is then discarded as an unknown
    /// `msg_id` by [`Self::place_read_response`], and no `Expired` CQE
    /// follows) and retired-list entries. Returns the pending reads
    /// dropped.
    pub fn cancel_reads(&self, lo: u64, hi: u64) -> usize {
        let mut cold = self.cold.lock();
        let Some(c) = cold.as_deref_mut() else {
            return 0;
        };
        let before = c.pending_reads.len();
        c.pending_reads.retain(|_, p| !(lo..hi).contains(&p.wr_id));
        self.retired_reads
            .lock()
            .retain(|id| !(lo..hi).contains(id));
        before - c.pending_reads.len()
    }

    /// The receive pipeline: takes one segment from `src` through decode,
    /// stall, CRC, classification, placement and completion (module doc),
    /// and tells the driver what is left for it to do.
    pub(crate) fn ingest(&self, src: Addr, decoded: Decoded) -> Ingest {
        let (seg, crc) = match decoded {
            Ok(d) => d,
            Err(IwarpError::CrcMismatch) => {
                self.discard(Discard::Crc);
                return Ingest::Done;
            }
            Err(_) => {
                self.discard(Discard::Malformed);
                return Ingest::Malformed;
            }
        };
        if self.delivery == Delivery::Stream && self.stalls(src, &seg) {
            return Ingest::Stall;
        }
        self.stats.rx_segments.fetch_add(1, Ordering::Relaxed);
        self.tel.core().rx_segments.inc();
        match seg {
            DdpSegment::Untagged { hdr, payload } => {
                // Two-sided placement consumes a posted receive before any
                // byte lands, so wire corruption is settled first and never
                // eats a receive.
                if !self.settle_crc(crc.as_ref(), &payload) {
                    return Ingest::Done;
                }
                if !within(u64::from(hdr.mo), payload.len(), hdr.total_len) {
                    self.discard(Discard::Malformed);
                    return Ingest::Done;
                }
                match hdr.qn {
                    QN_SEND => self.place_send(src, &hdr, &payload),
                    QN_READ_REQUEST => return self.serve_read(src, &hdr, &payload),
                    QN_TERMINATE => {}
                    _ => self.discard(Discard::Malformed),
                }
            }
            // Tagged segments carry a deferred CRC into placement, where
            // the one mandatory copy settles it.
            DdpSegment::Tagged { hdr, payload } => {
                let crc = crc.as_ref();
                let in_message = hdr
                    .to
                    .checked_sub(hdr.base_to)
                    .is_some_and(|off| within(off, payload.len(), hdr.total_len));
                match hdr.opcode {
                    RdmapOpcode::WriteRecord
                    | RdmapOpcode::RdmaWrite
                    | RdmapOpcode::RdmaWriteImm
                        if in_message =>
                    {
                        self.place_write(src, &hdr, &payload, crc);
                    }
                    RdmapOpcode::ReadResponse if in_message => {
                        self.place_read_response(&hdr, &payload, crc);
                    }
                    _ => self.reject(Discard::Malformed, crc, &payload),
                }
            }
        }
        Ingest::Done
    }

    /// True when `seg` is a send that would find no posted receive: a new
    /// message (not a continuation of one in flight) on an empty receive
    /// queue.
    fn stalls(&self, src: Addr, seg: &DdpSegment) -> bool {
        let DdpSegment::Untagged { hdr, .. } = seg else {
            return false;
        };
        let key = (src, hdr.src_qpn, hdr.msg_id);
        hdr.qn == QN_SEND
            && self.rq.lock().is_empty()
            && !self
                .cold
                .lock()
                .as_deref()
                .is_some_and(|c| c.pending_recv.contains_key(&key))
    }

    /// The one discard path: counts a refused segment.
    fn discard(&self, why: Discard) {
        let tel = self.tel.core();
        let (stat, counter) = match why {
            Discard::Crc => (Some(&self.stats.crc_errors), &tel.rx_crc_errors),
            Discard::Malformed => (Some(&self.stats.malformed), &tel.rx_malformed),
            Discard::NoReceive => (Some(&self.stats.dropped_no_rq), &tel.rx_dropped_no_rq),
            Discard::Access => (
                Some(&self.stats.access_violations),
                &tel.rx_access_violations,
            ),
            Discard::ReadDenied => (None, &tel.rx_read_denied),
        };
        if let Some(stat) = stat {
            stat.fetch_add(1, Ordering::Relaxed);
        }
        counter.inc();
    }

    /// Resolves a deferred CRC at a non-placement exit. Returns true when
    /// the segment is good (or no check was pending); discards it as
    /// corrupt and returns false otherwise.
    fn settle_crc(&self, crc: Option<&PendingCrc>, payload: &[u8]) -> bool {
        let good = crc.is_none_or(|p| p.verify(payload));
        if !good {
            self.discard(Discard::Crc);
        }
        good
    }

    /// Refuses a segment whose CRC may still be pending: one that is in
    /// fact corrupt is counted as such, not as `why`.
    fn reject(&self, why: Discard, crc: Option<&PendingCrc>, payload: &[u8]) {
        if self.settle_crc(crc, payload) {
            self.discard(why);
        }
    }

    /// The one completion path: every CQE this core reports goes through
    /// here, with its status taken from `outcome`. A completed message
    /// (success, partial or retired) is also counted, its bytes recorded
    /// and, when it is reported on the CQ, traced.
    fn complete(&self, outcome: Outcome, cqe: Cqe) {
        let status = match outcome {
            Outcome::Success(_) | Outcome::Retired(_) => CqeStatus::Success,
            Outcome::Partial(_) => CqeStatus::Partial,
            Outcome::TooSmall => CqeStatus::RecvTooSmall,
            Outcome::Expired => CqeStatus::Expired,
            Outcome::Flushed => CqeStatus::Flushed,
        };
        if let Outcome::Success(placed) | Outcome::Partial(placed) | Outcome::Retired(placed) =
            &outcome
        {
            let tel = self.tel.core();
            tel.rx_messages.inc();
            tel.rx_msg_bytes.record(u64::from(cqe.byte_len));
            if let Outcome::Retired(_) = outcome {
                // Selective signaling: success is reported through the
                // drainable retired list, never the CQ.
                self.retired_reads.lock().push(cqe.wr_id);
                self.recv_cq.retire_unsignaled(1);
                return;
            }
            self.tel.trace(
                self.local,
                EventKind::Cqe,
                u64::from(cqe.byte_len),
                placed.msg_id(),
            );
        }
        self.recv_cq.push(Cqe { status, ..cqe });
    }

    /// Untagged send: match the message to a posted receive, place the
    /// segment, complete when the whole message has arrived.
    fn place_send(&self, src: Addr, hdr: &UntaggedHdr, payload: &Bytes) {
        let key = (src, hdr.src_qpn, hdr.msg_id);
        let recv_cqe = |wr_id, byte_len, solicited| Cqe {
            wr_id,
            opcode: CqeOpcode::Recv,
            byte_len,
            src: Some(CqeSource {
                addr: src,
                qpn: hdr.src_qpn,
            }),
            solicited,
            ..Cqe::default()
        };
        let mut cold = self.cold.lock();
        if !cold
            .as_deref()
            .is_some_and(|c| c.pending_recv.contains_key(&key))
        {
            // A new message: it consumes the next posted receive.
            let Some(wr) = self.rq.lock().pop_front() else {
                return self.discard(Discard::NoReceive);
            };
            let too_small = hdr.total_len > wr.len;
            if too_small {
                self.complete(Outcome::TooSmall, recv_cqe(wr.wr_id, hdr.total_len, false));
                if hdr.last {
                    return;
                }
            } else if hdr.mo == 0 && hdr.last && payload.len() == hdr.total_len as usize {
                // The message arrived whole and completes on arrival: no
                // reassembly state, so no cold allocation and no clock read.
                drop(cold);
                if let Some(placed) = self.place(&wr.mr, wr.offset, payload, None, hdr.msg_id) {
                    let cqe = recv_cqe(wr.wr_id, hdr.total_len, hdr.solicited);
                    self.complete(Outcome::Success(placed), cqe);
                }
                return;
            }
            // Reassembly state; the cold bundle allocates here, on first
            // use. A too-small message keeps a discarding entry so that
            // its other segments do not eat more receives.
            let entry = PendingRecv {
                wr,
                total: hdr.total_len,
                validity: ValidityMap::new(),
                first_seen: Instant::now(),
                solicited: hdr.solicited,
                discard: too_small,
            };
            cold.get_or_insert_with(|| RxCold::new(&self.cfg))
                .pending_recv
                .insert(key, entry);
        }
        let pending = &mut cold.as_deref_mut().expect("message in flight").pending_recv;
        let entry = pending.get_mut(&key).expect("message in flight");
        if entry.discard {
            if hdr.last {
                pending.remove(&key);
            }
            return;
        }
        if hdr.total_len != entry.total {
            // It names another message's length, so its offset is not
            // bounded by this one's.
            return self.discard(Discard::Malformed);
        }
        let to = entry.wr.offset + u64::from(hdr.mo);
        let Some(placed) = self.place(&entry.wr.mr, to, payload, None, hdr.msg_id) else {
            return;
        };
        entry.solicited |= hdr.solicited;
        entry
            .validity
            .record(u64::from(hdr.mo), payload.len() as u64);
        if entry.validity.covers(u64::from(entry.total)) {
            let done = pending.remove(&key).expect("present");
            let cqe = recv_cqe(done.wr.wr_id, done.total, done.solicited);
            self.complete(Outcome::Success(placed), cqe);
        }
    }

    /// Responds to an incoming RDMA Read Request (we are the responder).
    fn serve_read(&self, src: Addr, hdr: &UntaggedHdr, payload: &Bytes) -> Ingest {
        let Ok(req) = ReadRequest::decode(payload) else {
            self.discard(Discard::Malformed);
            return Ingest::Done;
        };
        let data = self
            .mrs
            .lookup_remote_read(req.src_stag, req.src_to, req.len as usize)
            .and_then(|mr| mr.read_bytes(req.src_to, req.len as usize));
        let Ok(data) = data else {
            self.discard(Discard::ReadDenied);
            return Ingest::Done;
        };
        Ingest::Respond(ReadReply {
            dst: src,
            sink_stag: req.sink_stag,
            sink_to: req.sink_to,
            data,
            msg_id: hdr.msg_id,
        })
    }

    /// RDMA Write, Write-Record and Write with Immediate: place into the
    /// named region; a notifying write completes at the target once its
    /// last segment arrives.
    fn place_write(&self, src: Addr, hdr: &TaggedHdr, payload: &Bytes, crc: Option<&PendingCrc>) {
        let mr = match self
            .mrs
            .lookup_remote_write(hdr.stag, hdr.to, payload.len())
        {
            Ok(mr) => mr,
            // Datagram semantics: report, do not kill the QP (paper
            // §IV.B item 2).
            Err(_) => return self.reject(Discard::Access, crc, payload),
        };
        let Some(placed) = self.place(&mr, hdr.to, payload, crc, hdr.msg_id) else {
            return;
        };
        if !hdr.notify {
            return;
        }
        let Some(info) = self
            .cold
            .lock()
            .get_or_insert_with(|| RxCold::new(&self.cfg))
            .records
            .ingest(src, hdr, payload.len())
        else {
            return;
        };
        let outcome = if info.is_complete() {
            Outcome::Success(placed)
        } else {
            self.tel.core().qp_wr_record_partial_placements.inc();
            Outcome::Partial(placed)
        };
        let mut cqe = Cqe {
            // No WR is consumed: Write-Record is truly one-sided (paper
            // §IV.B.3).
            wr_id: 0,
            opcode: CqeOpcode::WriteRecord,
            byte_len: info.valid_bytes() as u32,
            src: Some(CqeSource {
                addr: src,
                qpn: hdr.src_qpn,
            }),
            write_record: Some(info),
            ..Cqe::default()
        };
        if hdr.opcode == RdmapOpcode::RdmaWriteImm {
            // InfiniBand semantics: the immediate consumes a posted
            // receive. Without one, the data is placed but the
            // notification is lost — the exact cost Write-Record avoids
            // (§IV.B.3).
            let Some(wr) = self.rq.lock().pop_front() else {
                return self.discard(Discard::NoReceive);
            };
            cqe.wr_id = wr.wr_id;
            cqe.opcode = CqeOpcode::Recv;
            cqe.imm = Some(hdr.imm);
            cqe.solicited = true;
        } else {
            self.tel.core().qp_wr_record_completions.inc();
        }
        self.complete(outcome, cqe);
    }

    /// Places an RDMA Read Response segment into the pending read's sink.
    fn place_read_response(&self, hdr: &TaggedHdr, payload: &Bytes, crc: Option<&PendingCrc>) {
        let mut cold = self.cold.lock();
        // A response to no pending read is a duplicate or a late one: it
        // is dropped, but corrupt wire bytes still count as corruption.
        let Some(reads) = cold.as_deref_mut().map(|c| &mut c.pending_reads) else {
            let _ = self.settle_crc(crc, payload);
            return;
        };
        let Some(pr) = reads.get_mut(&hdr.msg_id) else {
            let _ = self.settle_crc(crc, payload);
            return;
        };
        // The response must target the sink we registered for this read.
        let off = hdr.to.checked_sub(pr.sink_to);
        if hdr.stag != pr.sink.stag() || !off.is_some_and(|off| within(off, payload.len(), pr.len))
        {
            return self.reject(Discard::Access, crc, payload);
        }
        let Some(placed) = self.place(&pr.sink, hdr.to, payload, crc, hdr.msg_id) else {
            return;
        };
        pr.validity
            .record(hdr.to - pr.sink_to, payload.len() as u64);
        if pr.validity.covers(u64::from(pr.len)) {
            let done = reads.remove(&hdr.msg_id).expect("present");
            let outcome = if done.signaled {
                Outcome::Success(placed)
            } else {
                Outcome::Retired(placed)
            };
            let cqe = Cqe {
                wr_id: done.wr_id,
                opcode: CqeOpcode::RdmaRead,
                byte_len: done.len,
                ..Cqe::default()
            };
            self.complete(outcome, cqe);
        }
    }

    /// Reaps expired partial receives (recovering their buffers with an
    /// `Expired` completion), expired pending reads, and stale
    /// Write-Record state. Self-throttled to one sweep per 50 ms, so it is
    /// cheap to call from every engine iteration.
    pub fn expire(&self) {
        let now = Instant::now();
        {
            let mut next = self.next_sweep.lock();
            if now < *next {
                return;
            }
            *next = now + Duration::from_millis(50);
        }
        let mut cold_guard = self.cold.lock();
        // Nothing cold has ever been allocated → nothing can be stale.
        // This keeps expire() at two mutex probes for idle QPs, which is
        // what lets 100k quiet calls share one sweeping engine.
        let Some(cold) = cold_guard.as_deref_mut() else {
            return;
        };
        // A reliable LLP completes everything in flight; only the
        // Write-Record table (shared semantics) still GCs.
        if self.delivery == Delivery::Unreliable {
            let ttl = self.cfg.recv_ttl;
            let expired: Vec<_> = cold
                .pending_recv
                .iter()
                .filter(|(_, p)| now.duration_since(p.first_seen) > ttl)
                .map(|(k, _)| *k)
                .collect();
            for key in expired {
                let p = cold.pending_recv.remove(&key).expect("present");
                self.tel.core().rx_recovery_expired.inc();
                if !p.discard {
                    self.complete(Outcome::Expired, p.cqe(key));
                }
            }
            let ttl = self.cfg.read_ttl;
            let expired: Vec<u64> = cold
                .pending_reads
                .iter()
                .filter(|(_, p)| now.duration_since(p.first_seen) > ttl)
                .map(|(k, _)| *k)
                .collect();
            for key in expired {
                let p = cold.pending_reads.remove(&key).expect("present");
                self.tel.core().rx_read_expired.inc();
                self.complete(Outcome::Expired, p.cqe());
            }
        }
        self.tel
            .core()
            .qp_wr_record_stale_gc_reaped
            .add(cold.records.gc().reaped);
    }

    /// Completes all outstanding work with `Flushed` status (QP teardown
    /// or a dead connection): outstanding RDMA Reads, receives a message
    /// is partly placed in, then the posted receives. A reliable QP never
    /// expires the first two, so without this they would vanish without a
    /// completion.
    pub fn flush(&self) {
        if let Some(cold) = self.cold.lock().as_deref_mut() {
            // In issue order (the maps' own order is not deterministic).
            let mut reads: Vec<_> = cold.pending_reads.drain().collect();
            reads.sort_unstable_by_key(|(msg_id, _)| *msg_id);
            for (_, p) in reads {
                self.complete(Outcome::Flushed, p.cqe());
            }
            let mut recvs: Vec<_> = cold.pending_recv.drain().collect();
            recvs.sort_unstable_by_key(|((_, qpn, msg_id), _)| (*qpn, *msg_id));
            for (key, p) in recvs {
                if !p.discard {
                    self.complete(Outcome::Flushed, p.cqe(key));
                }
            }
        }
        let mut rq = self.rq.lock();
        while let Some(wr) = rq.pop_front() {
            let cqe = Cqe {
                wr_id: wr.wr_id,
                opcode: CqeOpcode::Recv,
                ..Cqe::default()
            };
            self.complete(Outcome::Flushed, cqe);
        }
    }

    /// Write-Record messages currently awaiting their final segment.
    pub fn records_pending(&self) -> usize {
        self.cold
            .lock()
            .as_deref()
            .map_or(0, |c| c.records.pending())
    }
}

impl PendingRecv {
    /// The CQE of a receive given up on (expired or flushed), reporting
    /// the bytes placed so far; `key` is its `pending_recv` key.
    fn cqe(&self, (addr, qpn, _): (Addr, u32, u64)) -> Cqe {
        Cqe {
            wr_id: self.wr.wr_id,
            opcode: CqeOpcode::Recv,
            byte_len: self.validity.valid_bytes() as u32,
            src: Some(CqeSource { addr, qpn }),
            ..Cqe::default()
        }
    }
}

impl PendingRead {
    /// The CQE of a read given up on (expired or flushed), reporting the
    /// bytes placed so far.
    fn cqe(&self) -> Cqe {
        Cqe {
            wr_id: self.wr_id,
            opcode: CqeOpcode::RdmaRead,
            byte_len: self.validity.valid_bytes() as u32,
            ..Cqe::default()
        }
    }
}

/// The placement stage, alone in a module so that nothing else can make
/// a [`Placed`].
mod placed {
    use super::{Discard, RxCore};
    use crate::buf::MemoryRegion;
    use crate::error::IwarpError;
    use crate::hdr::PendingCrc;
    use iwarp_telemetry::EventKind;

    /// Proof that a segment's bytes are in registered memory and its CRC
    /// is settled. Only [`RxCore::place`] returns one, and a success or
    /// partial completion requires one.
    pub(super) struct Placed {
        msg_id: u64,
    }

    impl Placed {
        /// The message the placed segment belongs to.
        pub(super) fn msg_id(&self) -> u64 {
            self.msg_id
        }
    }

    impl RxCore {
        /// Places `payload` at `to` in `mr`, settling a pending CRC before
        /// the copy. On failure it counts the discard (CRC or access
        /// violation, classified as the check-first contiguous decode
        /// would) and returns `None`.
        pub(super) fn place(
            &self,
            mr: &MemoryRegion,
            to: u64,
            payload: &[u8],
            crc: Option<&PendingCrc>,
            msg_id: u64,
        ) -> Option<Placed> {
            let res = match crc {
                Some(p) => mr.write_with_crc(to, payload, p),
                None => mr.write(to, payload),
            };
            match res {
                Ok(()) => {
                    self.tel.trace(
                        self.local,
                        EventKind::Placement,
                        payload.len() as u64,
                        msg_id,
                    );
                    Some(Placed { msg_id })
                }
                Err(IwarpError::CrcMismatch) => {
                    self.discard(Discard::Crc);
                    None
                }
                Err(_) => {
                    self.reject(Discard::Access, crc, payload);
                    None
                }
            }
        }
    }
}
