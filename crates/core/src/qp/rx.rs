//! Receive-side protocol core shared by the datagram and RC engines.
//!
//! Both QP flavours do the same DDP work on arrival — match untagged
//! segments to posted receives, steer tagged segments into registered
//! memory, aggregate Write-Record validity, satisfy read requests — and
//! differ only in how bytes reach them (datagrams vs the MPA-framed
//! stream) and how responses leave. [`RxCore::handle`] performs all
//! placement and completion generation and returns the transport-specific
//! work (read responses) as [`RxAction`]s for the owning engine to send.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use bytes::Bytes;
use iwarp_telemetry::{Counter, EndpointId, EventKind, Histogram, Telemetry};
use parking_lot::Mutex;
use simnet::Addr;

use iwarp_common::validity::ValidityMap;

use crate::buf::{MemoryRegion, MrTable};
use crate::cq::{Cq, Cqe, CqeOpcode, CqeSource, CqeStatus};
use crate::error::IwarpError;
use crate::hdr::{DdpSegment, PendingCrc, RdmapOpcode, ReadRequest, TaggedHdr, UntaggedHdr};
use crate::qp::QpConfig;
use crate::wr::RecvWr;
use crate::wr_record::RecordTable;

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
    /// Posted receives recovered after their message expired.
    pub expired_recvs: AtomicU64,
    /// Tagged segments refused by STag/bounds/permission checks.
    pub access_violations: AtomicU64,
    /// Read requests refused by permission checks.
    pub read_denied: AtomicU64,
    /// Write-Record messages reaped with the final segment missing.
    pub records_reaped: AtomicU64,
    /// Segments processed.
    pub rx_segments: AtomicU64,
    /// Messages completed (all opcodes).
    pub rx_messages: AtomicU64,
}

/// Telemetry handles the receive engine keeps resolved, mirroring
/// [`QpStats`] into the fabric's domain-wide counters plus the
/// Write-Record accounting the paper's loss experiments reconcile
/// against.
pub(crate) struct RxTel {
    tel: Telemetry,
    local: EndpointId,
    rx_segments: Counter,
    rx_messages: Counter,
    crc_errors: Counter,
    malformed: Counter,
    dropped_no_rq: Counter,
    recovery_expired: Counter,
    read_expired: Counter,
    access_violations: Counter,
    read_denied: Counter,
    partial_placements: Counter,
    wr_record_completions: Counter,
    stale_gc_reaped: Counter,
    msg_bytes: Histogram,
}

impl RxTel {
    pub fn new(tel: &Telemetry, local: Addr) -> Self {
        Self {
            local: EndpointId::new(local.node.0, local.port),
            rx_segments: tel.counter("core.rx.segments"),
            rx_messages: tel.counter("core.rx.messages"),
            crc_errors: tel.counter("core.rx.crc_errors"),
            malformed: tel.counter("core.rx.malformed"),
            dropped_no_rq: tel.counter("core.rx.dropped_no_rq"),
            recovery_expired: tel.counter("core.rx.recovery_expired"),
            read_expired: tel.counter("core.rx.read_expired"),
            access_violations: tel.counter("core.rx.access_violations"),
            read_denied: tel.counter("core.rx.read_denied"),
            partial_placements: tel.counter("core.qp.wr_record.partial_placements"),
            wr_record_completions: tel.counter("core.qp.wr_record.completions"),
            stale_gc_reaped: tel.counter("core.qp.wr_record.stale_gc_reaped"),
            msg_bytes: tel.histogram("core.rx.msg_bytes"),
            tel: tel.clone(),
        }
    }

    /// Records a packet event against this QP's endpoint when tracing is
    /// armed (one relaxed load otherwise).
    fn trace(&self, kind: EventKind, a: u64, b: u64) {
        if self.tel.tracer().armed() {
            self.tel
                .tracer()
                .record(self.tel.now_nanos(), self.local, kind, a, b);
        }
    }
}

/// Transport-specific follow-up work produced by [`RxCore::handle`].
#[derive(Debug)]
pub enum RxAction {
    /// Send an RDMA Read Response back to `dst`: `data` read from the
    /// local source region, to be placed at `(sink_stag, sink_to)` on the
    /// requester, tagged with the request's `msg_id`.
    SendReadResponse {
        /// Requester's address.
        dst: Addr,
        /// Requester's sink STag.
        sink_stag: u32,
        /// Requester's sink offset.
        sink_to: u64,
        /// The data read.
        data: Bytes,
        /// Read transaction id (echoed from the request).
        msg_id: u64,
    },
}

/// An untagged message in flight: a consumed receive WR being filled.
struct PendingRecv {
    wr: RecvWr,
    total: u32,
    src_qpn: u32,
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
/// touches none of these: single-segment sends ride the fast path in
/// [`RxCore::place_untagged`], and reads/Write-Records simply never
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
    pub(crate) tel: RxTel,
    /// True when the LLP guarantees delivery (RC, RD): partial receives
    /// and pending reads must then never expire — every segment will
    /// arrive eventually, and recycling a receive mid-message would
    /// corrupt matching.
    reliable: bool,
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
        reliable: bool,
        tel: RxTel,
    ) -> Self {
        Self {
            mrs,
            recv_cq,
            cfg,
            stats: QpStats::default(),
            tel,
            reliable,
            rq: Mutex::new(VecDeque::new()),
            cold: Mutex::new(None),
            retired_reads: Mutex::new(Vec::new()),
            next_sweep: Mutex::new(Instant::now() + Duration::from_millis(50)),
        }
    }

    /// Whether the cold bundle has been allocated (diagnostics/tests: an
    /// idle or fast-path-only QP must report `false`).
    pub fn cold_state_allocated(&self) -> bool {
        self.cold.lock().is_some()
    }

    /// Mirrors a CRC-discard observed by the owning engine (which decodes
    /// before handing segments to the core).
    pub(crate) fn note_crc_error(&self) {
        self.tel.crc_errors.inc();
    }

    /// Mirrors a decode failure observed by the owning engine.
    pub(crate) fn note_malformed(&self) {
        self.tel.malformed.inc();
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
        self.retired_reads.lock().retain(|id| !(lo..hi).contains(id));
        before - c.pending_reads.len()
    }

    /// True when handling this untagged segment right now would drop it
    /// for lack of a posted receive. On a *reliable* LLP the engine uses
    /// this to stall the stream instead (TCP backpressure), because a
    /// reliable connection must never silently lose a message.
    pub fn would_stall(&self, src: Addr, hdr: &UntaggedHdr) -> bool {
        if hdr.qn != QN_SEND {
            return false;
        }
        let key = (src, hdr.src_qpn, hdr.msg_id);
        if self
            .cold
            .lock()
            .as_deref()
            .is_some_and(|c| c.pending_recv.contains_key(&key))
        {
            return false; // continuation of an in-flight message
        }
        self.rq.lock().is_empty()
    }

    /// Processes one decoded DDP segment from `src` whose CRC has already
    /// been verified (or is not carried at all — the stream path).
    pub fn handle(&self, src: Addr, seg: DdpSegment) -> Option<RxAction> {
        self.handle_deferred(src, seg, None)
    }

    /// Processes one decoded DDP segment whose CRC check may still be
    /// pending ([`crate::hdr::decode_sg`]'s cut-through decode).
    ///
    /// Untagged segments settle the check up front: two-sided placement
    /// consumes a posted receive before any byte lands, and wire
    /// corruption must not eat receive WRs that the check-first
    /// contiguous decode preserves. Tagged segments carry the check into
    /// placement, where [`MemoryRegion::write_with_crc`] settles it just
    /// before the mandatory copy into the registered region.
    pub(crate) fn handle_deferred(
        &self,
        src: Addr,
        seg: DdpSegment,
        pending: Option<PendingCrc>,
    ) -> Option<RxAction> {
        self.stats.rx_segments.fetch_add(1, Ordering::Relaxed);
        self.tel.rx_segments.inc();
        match seg {
            DdpSegment::Untagged { hdr, payload } => {
                if !self.settle_crc(pending.as_ref(), &payload) {
                    return None;
                }
                self.handle_untagged(src, &hdr, &payload)
            }
            DdpSegment::Tagged { hdr, payload } => {
                self.handle_tagged(src, &hdr, &payload, pending);
                None
            }
        }
    }

    /// Resolves a deferred CRC at a non-placement exit. Returns true when
    /// the segment is good (or no check was pending); counts a CRC
    /// discard and returns false otherwise.
    fn settle_crc(&self, pending: Option<&PendingCrc>, payload: &[u8]) -> bool {
        match pending {
            None => true,
            Some(p) if p.verify(payload) => true,
            Some(_) => {
                self.stats.crc_errors.fetch_add(1, Ordering::Relaxed);
                self.tel.crc_errors.inc();
                false
            }
        }
    }

    /// Places `payload` at `to`, settling a pending deferred CRC check
    /// before the copy. Counts the appropriate discard
    /// (CRC or access violation, classified as the check-first
    /// contiguous decode would) and returns false on failure.
    fn place_checked(
        &self,
        mr: &MemoryRegion,
        to: u64,
        payload: &Bytes,
        pending: Option<&PendingCrc>,
    ) -> bool {
        let res = match pending {
            Some(p) => mr.write_with_crc(to, payload, p),
            None => mr.write(to, payload),
        };
        match res {
            Ok(()) => true,
            Err(IwarpError::CrcMismatch) => {
                self.stats.crc_errors.fetch_add(1, Ordering::Relaxed);
                self.tel.crc_errors.inc();
                false
            }
            Err(_) => {
                if self.settle_crc(pending, payload) {
                    self.stats.access_violations.fetch_add(1, Ordering::Relaxed);
                    self.tel.access_violations.inc();
                }
                false
            }
        }
    }

    fn handle_untagged(
        &self,
        src: Addr,
        hdr: &UntaggedHdr,
        payload: &Bytes,
    ) -> Option<RxAction> {
        match hdr.qn {
            QN_SEND => {
                self.place_untagged(src, hdr, payload);
                None
            }
            QN_READ_REQUEST => self.serve_read_request(src, hdr, payload),
            QN_TERMINATE => None,
            _ => {
                self.stats.malformed.fetch_add(1, Ordering::Relaxed);
                self.tel.malformed.inc();
                None
            }
        }
    }

    /// Untagged (send/recv) placement: match a posted receive, place the
    /// segment, complete when the whole message has arrived.
    fn place_untagged(&self, src: Addr, hdr: &UntaggedHdr, payload: &Bytes) {
        let key = (src, hdr.src_qpn, hdr.msg_id);
        let mut cold = self.cold.lock();
        // Single-segment fast path: a message that arrives whole needs no
        // reassembly state, so skip the pending-map round-trip, validity
        // tracking, and expiry timestamping. Guarded on an empty pending
        // map (trivially true while the cold bundle is unallocated) so an
        // in-flight reassembly (or a lingering discard entry) for this key
        // falls through to the full path below, which is byte-for-byte
        // equivalent for this shape of segment.
        if hdr.mo == 0
            && hdr.last
            && payload.len() as u64 == u64::from(hdr.total_len)
            && cold.as_deref().is_none_or(|c| c.pending_recv.is_empty())
        {
            drop(cold);
            let Some(wr) = self.rq.lock().pop_front() else {
                self.stats.dropped_no_rq.fetch_add(1, Ordering::Relaxed);
                self.tel.dropped_no_rq.inc();
                return;
            };
            if hdr.total_len > wr.len {
                self.recv_cq.push(Cqe {
                    wr_id: wr.wr_id,
                    opcode: CqeOpcode::Recv,
                    status: CqeStatus::RecvTooSmall,
                    byte_len: hdr.total_len,
                    src: Some(CqeSource {
                        addr: src,
                        qpn: hdr.src_qpn,
                    }),
                    write_record: None,
                    imm: None,
                    solicited: false,
                });
                return;
            }
            if wr.mr.write(wr.offset, payload).is_err() {
                self.stats.access_violations.fetch_add(1, Ordering::Relaxed);
                self.tel.access_violations.inc();
                return;
            }
            self.tel
                .trace(EventKind::Placement, payload.len() as u64, hdr.msg_id);
            self.stats.rx_messages.fetch_add(1, Ordering::Relaxed);
            self.tel.rx_messages.inc();
            self.tel.msg_bytes.record(u64::from(hdr.total_len));
            self.tel
                .trace(EventKind::Cqe, u64::from(hdr.total_len), hdr.msg_id);
            self.recv_cq.push(Cqe {
                wr_id: wr.wr_id,
                opcode: CqeOpcode::Recv,
                status: CqeStatus::Success,
                byte_len: hdr.total_len,
                src: Some(CqeSource {
                    addr: src,
                    qpn: hdr.src_qpn,
                }),
                write_record: None,
                imm: None,
                solicited: hdr.solicited,
            });
            return;
        }
        // Multi-segment (or colliding) message: reassembly state is needed,
        // so the cold bundle allocates here — on first use, not QP create.
        let pending = &mut cold.get_or_insert_with(|| RxCold::new(&self.cfg)).pending_recv;
        let entry = match pending.get_mut(&key) {
            Some(e) => e,
            None => {
                // New message: consume the next posted receive.
                let Some(wr) = self.rq.lock().pop_front() else {
                    self.stats.dropped_no_rq.fetch_add(1, Ordering::Relaxed);
                    self.tel.dropped_no_rq.inc();
                    return;
                };
                let discard = hdr.total_len > wr.len;
                if discard {
                    // Buffer too small: complete with an error and mark the
                    // message so its other segments don't eat more WRs.
                    self.recv_cq.push(Cqe {
                        wr_id: wr.wr_id,
                        opcode: CqeOpcode::Recv,
                        status: CqeStatus::RecvTooSmall,
                        byte_len: hdr.total_len,
                        src: Some(CqeSource {
                            addr: src,
                            qpn: hdr.src_qpn,
                        }),
                        write_record: None,
                    imm: None,
                    solicited: false,
                    });
                }
                pending.insert(
                    key,
                    PendingRecv {
                        wr,
                        total: hdr.total_len,
                        src_qpn: hdr.src_qpn,
                        validity: ValidityMap::new(),
                        first_seen: Instant::now(),
                        solicited: hdr.solicited,
                        discard,
                    },
                );
                pending.get_mut(&key).expect("just inserted")
            }
        };
        if entry.discard {
            if hdr.last {
                pending.remove(&key);
            }
            return;
        }
        let place_at = entry.wr.offset + u64::from(hdr.mo);
        if entry.wr.mr.write(place_at, payload).is_err() {
            self.stats.access_violations.fetch_add(1, Ordering::Relaxed);
            self.tel.access_violations.inc();
            return;
        }
        self.tel
            .trace(EventKind::Placement, payload.len() as u64, hdr.msg_id);
        entry.solicited |= hdr.solicited;
        entry.validity.record(u64::from(hdr.mo), payload.len() as u64);
        if entry.validity.covers(u64::from(entry.total)) {
            let done = pending.remove(&key).expect("present");
            self.stats.rx_messages.fetch_add(1, Ordering::Relaxed);
            self.tel.rx_messages.inc();
            self.tel.msg_bytes.record(u64::from(done.total));
            self.tel
                .trace(EventKind::Cqe, u64::from(done.total), hdr.msg_id);
            self.recv_cq.push(Cqe {
                wr_id: done.wr.wr_id,
                opcode: CqeOpcode::Recv,
                status: CqeStatus::Success,
                byte_len: done.total,
                src: Some(CqeSource {
                    addr: src,
                    qpn: done.src_qpn,
                }),
                write_record: None,
                imm: None,
                solicited: done.solicited,
            });
        }
    }

    /// Responds to an incoming RDMA Read Request (we are the responder).
    fn serve_read_request(
        &self,
        src: Addr,
        hdr: &UntaggedHdr,
        payload: &Bytes,
    ) -> Option<RxAction> {
        let Ok(req) = ReadRequest::decode(payload) else {
            self.stats.malformed.fetch_add(1, Ordering::Relaxed);
            self.tel.malformed.inc();
            return None;
        };
        let mr = match self
            .mrs
            .lookup_remote_read(req.src_stag, req.src_to, req.len as usize)
        {
            Ok(mr) => mr,
            Err(_) => {
                self.stats.read_denied.fetch_add(1, Ordering::Relaxed);
                self.tel.read_denied.inc();
                return None;
            }
        };
        let data = match mr.read_bytes(req.src_to, req.len as usize) {
            Ok(d) => d,
            Err(_) => {
                self.stats.read_denied.fetch_add(1, Ordering::Relaxed);
                self.tel.read_denied.inc();
                return None;
            }
        };
        Some(RxAction::SendReadResponse {
            dst: src,
            sink_stag: req.sink_stag,
            sink_to: req.sink_to,
            data,
            msg_id: hdr.msg_id,
        })
    }

    fn handle_tagged(
        &self,
        src: Addr,
        hdr: &TaggedHdr,
        payload: &Bytes,
        pending: Option<PendingCrc>,
    ) {
        match hdr.opcode {
            RdmapOpcode::WriteRecord | RdmapOpcode::RdmaWrite | RdmapOpcode::RdmaWriteImm => {
                let mr = match self
                    .mrs
                    .lookup_remote_write(hdr.stag, hdr.to, payload.len())
                {
                    Ok(mr) => mr,
                    Err(_) => {
                        // Datagram semantics: report, do not kill the QP
                        // (paper §IV.B item 2). A segment that is in fact
                        // corrupt is counted as such, not as a violation.
                        if self.settle_crc(pending.as_ref(), payload) {
                            self.stats.access_violations.fetch_add(1, Ordering::Relaxed);
                            self.tel.access_violations.inc();
                        }
                        return;
                    }
                };
                if !self.place_checked(&mr, hdr.to, payload, pending.as_ref()) {
                    return;
                }
                self.tel
                    .trace(EventKind::Placement, payload.len() as u64, hdr.msg_id);
                if hdr.notify {
                    let mut cold = self.cold.lock();
                    let records = &cold.get_or_insert_with(|| RxCold::new(&self.cfg)).records;
                    if let Some(info) = records.ingest(src, hdr, payload.len()) {
                        let complete = info.is_complete();
                        let status = if complete {
                            CqeStatus::Success
                        } else {
                            CqeStatus::Partial
                        };
                        if !complete {
                            self.tel.partial_placements.inc();
                        }
                        if hdr.opcode == RdmapOpcode::RdmaWriteImm {
                            // InfiniBand semantics: the immediate consumes
                            // a posted receive. Without one, the data is
                            // placed but the notification is lost — the
                            // exact cost Write-Record avoids (§IV.B.3).
                            let Some(wr) = self.rq.lock().pop_front() else {
                                self.stats.dropped_no_rq.fetch_add(1, Ordering::Relaxed);
                                self.tel.dropped_no_rq.inc();
                                return;
                            };
                            self.stats.rx_messages.fetch_add(1, Ordering::Relaxed);
                            self.tel.rx_messages.inc();
                            self.tel.msg_bytes.record(info.valid_bytes());
                            self.tel
                                .trace(EventKind::Cqe, info.valid_bytes(), hdr.msg_id);
                            self.recv_cq.push(Cqe {
                                wr_id: wr.wr_id,
                                opcode: CqeOpcode::Recv,
                                status,
                                byte_len: info.valid_bytes() as u32,
                                src: Some(CqeSource {
                                    addr: src,
                                    qpn: hdr.src_qpn,
                                }),
                                write_record: Some(info),
                                imm: Some(hdr.imm),
                                solicited: true,
                            });
                            return;
                        }
                        self.stats.rx_messages.fetch_add(1, Ordering::Relaxed);
                        self.tel.rx_messages.inc();
                        self.tel.wr_record_completions.inc();
                        self.tel.msg_bytes.record(info.valid_bytes());
                        self.tel
                            .trace(EventKind::Cqe, info.valid_bytes(), hdr.msg_id);
                        self.recv_cq.push(Cqe {
                            // No WR was consumed: Write-Record is truly
                            // one-sided (paper §IV.B.3).
                            wr_id: 0,
                            opcode: CqeOpcode::WriteRecord,
                            status,
                            byte_len: info.valid_bytes() as u32,
                            src: Some(CqeSource {
                                addr: src,
                                qpn: hdr.src_qpn,
                            }),
                            write_record: Some(info),
                            imm: None,
                            solicited: false,
                        });
                    }
                }
            }
            RdmapOpcode::ReadResponse => self.place_read_response(hdr, payload, pending),
            _ => {
                if !self.settle_crc(pending.as_ref(), payload) {
                    return;
                }
                self.stats.malformed.fetch_add(1, Ordering::Relaxed);
                self.tel.malformed.inc();
            }
        }
    }

    /// Places an RDMA Read Response segment into the pending read's sink.
    fn place_read_response(&self, hdr: &TaggedHdr, payload: &Bytes, pending: Option<PendingCrc>) {
        let mut cold = self.cold.lock();
        // No cold state means no read was ever issued: treat like any
        // other duplicate/late response below.
        let reads = match cold.as_deref_mut() {
            Some(c) => &mut c.pending_reads,
            None => {
                let _ = self.settle_crc(pending.as_ref(), payload);
                return;
            }
        };
        let Some(pr) = reads.get_mut(&hdr.msg_id) else {
            // Duplicate/late response; still settle a deferred check so
            // corrupt wire bytes are counted as corruption.
            let _ = self.settle_crc(pending.as_ref(), payload);
            return;
        };
        // The response must target the sink we registered for this read.
        if hdr.stag != pr.sink.stag()
            || hdr.to < pr.sink_to
            || hdr.to + payload.len() as u64 > pr.sink_to + u64::from(pr.len)
        {
            if self.settle_crc(pending.as_ref(), payload) {
                self.stats.access_violations.fetch_add(1, Ordering::Relaxed);
                self.tel.access_violations.inc();
            }
            return;
        }
        if !self.place_checked(&pr.sink.clone(), hdr.to, payload, pending.as_ref()) {
            return;
        }
        pr.validity.record(hdr.to - pr.sink_to, payload.len() as u64);
        if pr.validity.covers(u64::from(pr.len)) {
            let done = reads.remove(&hdr.msg_id).expect("present");
            self.stats.rx_messages.fetch_add(1, Ordering::Relaxed);
            self.tel.rx_messages.inc();
            self.tel.msg_bytes.record(u64::from(done.len));
            if done.signaled {
                self.tel
                    .trace(EventKind::Cqe, u64::from(done.len), hdr.msg_id);
                self.recv_cq.push(Cqe {
                    wr_id: done.wr_id,
                    opcode: CqeOpcode::RdmaRead,
                    status: CqeStatus::Success,
                    byte_len: done.len,
                    src: None,
                    write_record: None,
                    imm: None,
                    solicited: false,
                });
            } else {
                // Selective signaling: success is reported through the
                // drainable retired list, never the CQ.
                self.retired_reads.lock().push(done.wr_id);
                self.recv_cq.retire_unsignaled(1);
            }
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
        if self.reliable {
            // Reliable LLP: everything in flight will complete; only the
            // Write-Record table (shared semantics) still GCs.
            let gc = cold.records.gc();
            if gc.reaped > 0 {
                self.stats
                    .records_reaped
                    .fetch_add(gc.reaped, Ordering::Relaxed);
                self.tel.stale_gc_reaped.add(gc.reaped);
            }
            return;
        }
        {
            let pending = &mut cold.pending_recv;
            let ttl = self.cfg.recv_ttl;
            let expired: Vec<_> = pending
                .iter()
                .filter(|(_, p)| now.duration_since(p.first_seen) > ttl)
                .map(|(k, _)| *k)
                .collect();
            for key in expired {
                let p = pending.remove(&key).expect("present");
                self.stats.expired_recvs.fetch_add(1, Ordering::Relaxed);
                self.tel.recovery_expired.inc();
                if !p.discard {
                    self.recv_cq.push(Cqe {
                        wr_id: p.wr.wr_id,
                        opcode: CqeOpcode::Recv,
                        status: CqeStatus::Expired,
                        byte_len: p.validity.valid_bytes() as u32,
                        src: Some(CqeSource {
                            addr: key.0,
                            qpn: p.src_qpn,
                        }),
                        write_record: None,
                    imm: None,
                    solicited: false,
                    });
                }
            }
        }
        {
            let reads = &mut cold.pending_reads;
            let ttl = self.cfg.read_ttl;
            let expired: Vec<u64> = reads
                .iter()
                .filter(|(_, p)| now.duration_since(p.first_seen) > ttl)
                .map(|(k, _)| *k)
                .collect();
            for key in expired {
                let p = reads.remove(&key).expect("present");
                self.tel.read_expired.inc();
                self.recv_cq.push(Cqe {
                    wr_id: p.wr_id,
                    opcode: CqeOpcode::RdmaRead,
                    status: CqeStatus::Expired,
                    byte_len: p.validity.valid_bytes() as u32,
                    src: None,
                    write_record: None,
                imm: None,
                solicited: false,
                });
            }
        }
        let gc = cold.records.gc();
        if gc.reaped > 0 {
            self.stats
                .records_reaped
                .fetch_add(gc.reaped, Ordering::Relaxed);
            self.tel.stale_gc_reaped.add(gc.reaped);
        }
    }

    /// Completes all outstanding work with `Flushed` status (QP teardown
    /// or a dead connection): outstanding RDMA Reads, receives a message
    /// is partly placed in, then the posted receives. A reliable QP never
    /// expires the first two, so without this they would vanish without a
    /// completion.
    pub fn flush(&self) {
        let flushed = |wr_id, opcode, byte_len, src| Cqe {
            wr_id,
            opcode,
            status: CqeStatus::Flushed,
            byte_len,
            src,
            write_record: None,
            imm: None,
            solicited: false,
        };
        if let Some(cold) = self.cold.lock().as_deref_mut() {
            // In issue order (the maps' own order is not deterministic).
            let mut reads: Vec<_> = cold.pending_reads.drain().collect();
            reads.sort_unstable_by_key(|(msg_id, _)| *msg_id);
            for (_, p) in reads {
                let placed = p.validity.valid_bytes() as u32;
                self.recv_cq
                    .push(flushed(p.wr_id, CqeOpcode::RdmaRead, placed, None));
            }
            let mut recvs: Vec<_> = cold.pending_recv.drain().collect();
            recvs.sort_unstable_by_key(|((_, qpn, msg_id), _)| (*qpn, *msg_id));
            for ((addr, _, _), p) in recvs {
                if !p.discard {
                    let src = Some(CqeSource {
                        addr,
                        qpn: p.src_qpn,
                    });
                    let placed = p.validity.valid_bytes() as u32;
                    self.recv_cq
                        .push(flushed(p.wr.wr_id, CqeOpcode::Recv, placed, src));
                }
            }
        }
        let mut rq = self.rq.lock();
        while let Some(wr) = rq.pop_front() {
            self.recv_cq
                .push(flushed(wr.wr_id, CqeOpcode::Recv, 0, None));
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
