//! The datagram queue pair: datagram-iWARP's UD and RD modes.
//!
//! One engine serves both modes — the difference is the conduit underneath
//! ([`simnet::DgramConduit`] for UD, [`simnet::RdConduit`] for RD), chosen
//! at creation by [`crate::device::Device::create_ud_qp`] /
//! [`crate::device::Device::create_rd_qp`].
//!
//! Key departures from connected iWARP, per paper §IV.B:
//!
//! * **no connection**: every send names a [`UdDest`]; every receive
//!   completion reports the source address and QP;
//! * **no MPA**: segments go straight into datagrams with a mandatory
//!   CRC32 trailer;
//! * **loss is not fatal**: CRC failures and drops are counted, buffers
//!   recovered on a TTL, and the QP keeps operating;
//! * **RDMA Write-Record**: the one-sided write whose completion is logged
//!   at the *target*, with partial placement under loss;
//! * **UD RDMA Read** (paper future work, implemented as an extension):
//!   reads complete with `Expired` status if the response is lost.

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use iwarp_telemetry::{Counter, Histogram, Telemetry};
use simnet::{Addr, DgramConduit, NetError, RdConduit};

use iwarp_common::memacct::MemScope;
use iwarp_common::pool::BufPool;
use iwarp_common::sg::SgBytes;

use crate::buf::{MemoryRegion, MrTable};
use crate::cq::{Cq, Cqe, CqeOpcode, CqeStatus};
use crate::error::{IwarpError, IwarpResult};
use crate::hdr::{
    decode_sg, encode_tagged_sg, encode_untagged_sg, RdmapOpcode, ReadRequest, TaggedHdr,
    UntaggedHdr, UntaggedSegBatch, CRC_LEN, TAGGED_HDR_LEN, UNTAGGED_HDR_LEN,
};
use crate::qp::rx::{RxAction, RxCore, QN_READ_REQUEST, QN_SEND};
use crate::qp::{BurstPath, QpConfig};
use crate::wr::{RecvWr, SendPayload, SendWr, UdDest};

pub use crate::qp::rx::QpStats;

/// The datagram LLP under a QP: unreliable or reliable datagrams.
pub(crate) enum DgLlp {
    /// Unreliable datagram service (UDP analog) — UD mode.
    Ud(DgramConduit),
    /// Reliable datagram service — RD mode.
    Rd(Box<RdConduit>),
}

impl DgLlp {
    /// Sends one encoded segment given as a scatter-gather list. UD hands
    /// the slices straight to the conduit's zero-copy fragmenter; RD's
    /// windowed retransmit queue needs an owned contiguous message, so
    /// the segment is flattened here (counted — RD is not the zero-copy
    /// target path).
    fn send_seg(&self, dst: Addr, seg: SgBytes, copied: &Counter) -> Result<(), NetError> {
        match self {
            DgLlp::Ud(c) => c.send_sg(dst, seg),
            DgLlp::Rd(c) => {
                if !seg.is_contiguous() {
                    copied.add(seg.len() as u64);
                }
                c.send_to(dst, seg.to_bytes())
            }
        }
    }

    /// Wire packets waiting in the delivery ring, before reassembly.
    fn rx_backlog(&self) -> usize {
        match self {
            DgLlp::Ud(c) => c.rx_backlog(),
            DgLlp::Rd(c) => c.rx_backlog(),
        }
    }

    /// Receives the next complete datagram as a scatter-gather list (an
    /// unfragmented UD datagram arrives as the sender's original slices;
    /// RD always delivers contiguous messages).
    fn recv_sg(&self, timeout: Duration) -> Result<(Addr, SgBytes), NetError> {
        match self {
            DgLlp::Ud(c) => c.recv_sg_from(Some(timeout)),
            DgLlp::Rd(c) => c
                .recv_from(Some(timeout))
                .map(|(src, b)| (src, SgBytes::from(b))),
        }
    }

    /// Non-blocking receive: drains already-delivered wire packets only.
    /// The shard engines' batch-drain primitive.
    fn try_recv_sg(&self) -> Result<(Addr, SgBytes), NetError> {
        match self {
            DgLlp::Ud(c) => c.try_recv_sg_from(),
            DgLlp::Rd(c) => c
                .recv_from(Some(Duration::ZERO))
                .map(|(src, b)| (src, SgBytes::from(b))),
        }
    }

    /// Non-blocking batch receive: up to `max` complete datagrams. UD
    /// pulls wire packets in receive-queue batches
    /// ([`DgramConduit::try_recv_burst`]); RD has no batch primitive and
    /// loops its single-datagram receive.
    fn try_recv_sg_burst(&self, max: usize) -> Vec<(Addr, SgBytes)> {
        match self {
            DgLlp::Ud(c) => c.try_recv_burst(max),
            DgLlp::Rd(c) => {
                let mut out = Vec::new();
                while out.len() < max {
                    match c.recv_from(Some(Duration::ZERO)) {
                        Ok((src, b)) => out.push((src, SgBytes::from(b))),
                        Err(_) => break,
                    }
                }
                out
            }
        }
    }

    /// Installs an arrival notifier on the conduit's wire endpoint.
    /// Returns `false` when the LLP has no notify hook (RD's windowed
    /// protocol needs its own engine thread); such QPs cannot be driven
    /// by a shard engine.
    fn set_notify(&self, notify: Option<simnet::RxNotify>) -> bool {
        match self {
            DgLlp::Ud(c) => {
                c.set_notify(notify);
                true
            }
            DgLlp::Rd(_) => false,
        }
    }

    fn pool(&self) -> BufPool {
        match self {
            DgLlp::Ud(c) => c.fabric().pool().clone(),
            DgLlp::Rd(c) => c.fabric().pool().clone(),
        }
    }

    fn max_datagram(&self) -> usize {
        match self {
            DgLlp::Ud(c) => c.max_datagram(),
            DgLlp::Rd(c) => c.max_datagram(),
        }
    }

    fn local_addr(&self) -> Addr {
        match self {
            DgLlp::Ud(c) => c.local_addr(),
            DgLlp::Rd(c) => c.local_addr(),
        }
    }

    fn is_reliable(&self) -> bool {
        matches!(self, DgLlp::Rd(_))
    }
}

/// Send-side telemetry handles (resolved once at QP creation); shared by
/// the datagram and RC engines.
pub(crate) struct QpTxTel {
    pub(crate) tx_msgs: Counter,
    pub(crate) tx_segments: Counter,
    /// Destination-flush rounds issued by the burst datapath
    /// ([`DatagramQp::post_send_batch`] under `BurstPath::Burst`): one
    /// per (batch, destination) pair, so `tx_msgs / tx_bursts` is the
    /// achieved send-side batching factor.
    pub(crate) tx_bursts: Counter,
    pub(crate) msg_size_tx: Histogram,
    /// Eliminable datapath copies (shared `pool.bytes_copied` name):
    /// RD's flatten lands here. The mandatory placement copy into the
    /// registered region is *not* counted.
    pub(crate) bytes_copied: Counter,
}

impl QpTxTel {
    pub(crate) fn new(tel: &Telemetry) -> Self {
        Self {
            tx_msgs: tel.counter("core.qp.tx_msgs"),
            tx_segments: tel.counter("core.qp.tx_segments"),
            tx_bursts: tel.counter("core.qp.tx_bursts"),
            msg_size_tx: tel.histogram("core.qp.msg_size_tx"),
            bytes_copied: tel.counter("pool.bytes_copied"),
        }
    }
}

pub(crate) struct DgInner {
    qpn: u32,
    llp: DgLlp,
    send_cq: Cq,
    rx: RxCore,
    tx_tel: QpTxTel,
    next_msg_id: AtomicU64,
    next_msn: AtomicU32,
    max_msg_size: usize,
    /// Batching discipline (from [`QpConfig::burst_path`]): gates the
    /// batch verbs' fabric bursts and the RX engines' batch ingest.
    burst_path: BurstPath,
    /// Header-buffer pool shared with the fabric (SG encoders draw the
    /// pooled `hdr ++ crc` allocations from here).
    pool: BufPool,
    shutdown: AtomicBool,
    _mem: Option<MemScope>,
}

impl DgInner {
    pub(crate) fn qpn(&self) -> u32 {
        self.qpn
    }

    /// See [`DgLlp::set_notify`].
    pub(crate) fn set_notify(&self, notify: Option<simnet::RxNotify>) -> bool {
        self.llp.set_notify(notify)
    }
}

/// A datagram-iWARP queue pair (UD or RD mode).
///
/// Created through [`crate::device::Device`]; see the crate root for the
/// full API tour.
pub struct DatagramQp {
    inner: Arc<DgInner>,
    rx_thread: Option<std::thread::JoinHandle<()>>,
    /// Set when a shard engine drives this QP's receives (no `rx_thread`);
    /// held so Drop can unregister from the shard map.
    shard: Option<(Arc<crate::shard::ShardMap>, u32)>,
}

impl DatagramQp {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        qpn: u32,
        llp: DgLlp,
        mrs: Arc<MrTable>,
        send_cq: Cq,
        recv_cq: Cq,
        cfg: QpConfig,
        mem: Option<MemScope>,
        tel: &Telemetry,
        shards: Option<&Arc<crate::shard::ShardMap>>,
    ) -> Self {
        let max_msg_size = cfg.max_msg_size;
        let burst_path = cfg.burst_path;
        let reliable = llp.is_reliable();
        send_cq.attach_telemetry(tel);
        recv_cq.attach_telemetry(tel);
        let rx_tel = crate::qp::rx::RxTel::new(tel, llp.local_addr());
        let pool = llp.pool();
        let inner = Arc::new(DgInner {
            rx: RxCore::new(mrs, recv_cq, cfg, reliable, rx_tel),
            tx_tel: QpTxTel::new(tel),
            qpn,
            llp,
            send_cq,
            next_msg_id: AtomicU64::new(1),
            next_msn: AtomicU32::new(1),
            max_msg_size,
            burst_path,
            pool,
            shutdown: AtomicBool::new(false),
            _mem: mem,
        });
        // Poll mode always wins (caller-driven, deterministic — chaos
        // replay depends on it). Otherwise prefer a shard engine when the
        // device has one and the LLP supports arrival notification; fall
        // back to the dedicated per-QP thread (RD, or unsharded devices).
        let shard = if inner.rx.cfg.poll_mode {
            None
        } else {
            shards
                .filter(|map| map.register(&inner))
                .map(|map| (Arc::clone(map), qpn))
        };
        let rx_thread = if inner.rx.cfg.poll_mode || shard.is_some() {
            None
        } else {
            let rx_inner = Arc::clone(&inner);
            Some(
                std::thread::Builder::new()
                    .name(format!("iwarp-dgqp-{qpn}"))
                    .spawn(move || rx_loop(&rx_inner))
                    .expect("spawn datagram QP rx thread"),
            )
        };
        Self { inner, rx_thread, shard }
    }

    /// True when a device shard engine (not a per-QP thread or the
    /// caller) drives this QP's receive processing.
    #[must_use]
    pub fn is_sharded(&self) -> bool {
        self.shard.is_some()
    }

    /// Poll-mode driver: one receive-engine iteration, waiting up to
    /// `max_wait` for an incoming datagram. Call this (or let the socket
    /// shim call it) when the QP was created with
    /// [`QpConfig::poll_mode`]; in threaded mode the engine thread
    /// already does this work.
    pub fn progress(&self, max_wait: Duration) {
        rx_step(&self.inner, max_wait);
    }

    /// Poll-mode **burst** driver: like [`Self::progress`] but ingests up
    /// to `budget` already-delivered datagrams per call, pulling wire
    /// packets from the endpoint in receive-queue batches. Waits up to
    /// `max_wait` only when nothing is queued. Falls back to a single
    /// [`Self::progress`] step under [`BurstPath::PerPacket`] or on RD.
    pub fn progress_burst(&self, budget: usize, max_wait: Duration) {
        let inner = &self.inner;
        if inner.burst_path == BurstPath::Burst {
            if let DgLlp::Ud(c) = &inner.llp {
                inner.rx.begin_completion_batch();
                for (src, dgram) in c.recv_burst_from(budget, Some(max_wait)) {
                    rx_dispatch(inner, src, &dgram);
                }
                inner.rx.expire();
                inner.rx.flush_completion_batch();
                return;
            }
        }
        rx_step(inner, max_wait);
    }

    /// Wire packets already delivered to this QP but not yet ingested.
    /// A [`Self::progress`] call consumes at least one whenever this is
    /// non-zero, so poll-mode drivers can loop `progress_burst` until
    /// the backlog reads zero to drain a tick to quiescence — the same
    /// end state whichever [`QpConfig::burst_path`] is in force.
    #[must_use]
    pub fn rx_backlog(&self) -> usize {
        self.inner.llp.rx_backlog()
    }

    /// This QP's number (advertise it to peers along with
    /// [`Self::local_addr`]).
    #[must_use]
    pub fn qpn(&self) -> u32 {
        self.inner.qpn
    }

    /// The conduit address peers send to.
    #[must_use]
    pub fn local_addr(&self) -> Addr {
        self.inner.llp.local_addr()
    }

    /// The [`UdDest`] peers should use to reach this QP.
    #[must_use]
    pub fn dest(&self) -> UdDest {
        UdDest {
            addr: self.local_addr(),
            qpn: self.qpn(),
        }
    }

    /// True for RD (reliable datagram) mode.
    #[must_use]
    pub fn is_reliable(&self) -> bool {
        self.inner.llp.is_reliable()
    }

    /// The send completion queue.
    #[must_use]
    pub fn send_cq(&self) -> &Cq {
        &self.inner.send_cq
    }

    /// The receive completion queue.
    #[must_use]
    pub fn recv_cq(&self) -> &Cq {
        &self.inner.rx.recv_cq
    }

    /// Diagnostics counters.
    #[must_use]
    pub fn stats(&self) -> &QpStats {
        &self.inner.rx.stats
    }

    /// Largest message this QP will send.
    #[must_use]
    pub fn max_msg_size(&self) -> usize {
        self.inner.max_msg_size
    }

    /// DDP segment payload capacity per datagram: each segment must fit a
    /// single datagram (the paper's §IV.B "one DDP segment per datagram").
    #[must_use]
    pub fn untagged_seg_capacity(&self) -> usize {
        self.inner.llp.max_datagram() - UNTAGGED_HDR_LEN - CRC_LEN
    }

    /// Tagged-segment payload capacity per datagram.
    #[must_use]
    pub fn tagged_seg_capacity(&self) -> usize {
        self.inner.llp.max_datagram() - TAGGED_HDR_LEN - CRC_LEN
    }

    /// Posts a receive work request.
    pub fn post_recv(&self, wr: RecvWr) -> IwarpResult<()> {
        self.inner.rx.post_recv(wr);
        Ok(())
    }

    /// Posts a batch of receives under a single receive-ring lock round —
    /// the `ibv_post_recv` linked-list idiom as a slice. Ring order is
    /// identical to posting each WR individually.
    pub fn post_recv_batch(&self, wrs: &[RecvWr]) -> IwarpResult<()> {
        self.inner.rx.post_recv_batch(wrs.iter().cloned());
        Ok(())
    }

    /// Number of posted, unconsumed receives.
    #[must_use]
    pub fn posted_recvs(&self) -> usize {
        self.inner.rx.rq_len()
    }

    /// Posts an untagged send to `dest`. Completes on the send CQ as soon
    /// as every segment has been handed to the LLP (datagram semantics:
    /// no acknowledgement is awaited).
    pub fn post_send(
        &self,
        wr_id: u64,
        payload: impl Into<SendPayload>,
        dest: UdDest,
    ) -> IwarpResult<()> {
        self.post_send_inner(wr_id, payload.into(), dest, false, true)
    }

    /// Posts a **send with solicited event**: identical to
    /// [`Self::post_send`] on the wire except the target's completion is
    /// flagged solicited, waking [`Cq::wait_solicited`] waiters — the
    /// two-sided notification verb the paper compares Write-Record with
    /// (§IV.B.3).
    pub fn post_send_solicited(
        &self,
        wr_id: u64,
        payload: impl Into<SendPayload>,
        dest: UdDest,
    ) -> IwarpResult<()> {
        self.post_send_inner(wr_id, payload.into(), dest, true, true)
    }

    /// Posts a single [`SendWr`], honoring its `solicited` **and**
    /// `signaled` flags. An unsignaled WR retires silently on success
    /// (counted in `core.cq.unsignaled_retired`); a mid-message flush
    /// failure always surfaces an error CQE regardless of the flag. The
    /// CQ-occupancy-aware placement policy applies to *chains*
    /// ([`Self::post_send_batch`]) only — a lone unsignaled WR cannot
    /// deadlock a CQ by itself.
    pub fn post_send_wr(&self, wr: &SendWr) -> IwarpResult<()> {
        self.post_send_inner(wr.wr_id, wr.payload.clone(), wr.dest, wr.solicited, wr.signaled)
    }

    /// Posts a batch of untagged sends — the multi-WR doorbell.
    ///
    /// Under [`BurstPath::PerPacket`] this is exactly a loop over
    /// [`Self::post_send`]. Under [`BurstPath::Burst`] (UD conduit) every
    /// WR is segmented first, the segments are flushed as **one fabric
    /// burst per destination**
    /// ([`DgramConduit::send_sg_burst`]), and all completions are pushed
    /// with one CQ lock/notify round ([`Cq::push_batch`]). Wire bytes,
    /// CQE contents and CQE order are identical either way.
    ///
    /// Error contract: a WR that fails validation (oversized payload,
    /// revoked region) stops the batch — earlier WRs are still flushed
    /// and completed, the offender gets no CQE, and its error returns. A
    /// destination whose *flush* fails completes that destination's WRs
    /// with [`CqeStatus::Error`] and the first such error returns after
    /// the whole batch is flushed.
    ///
    /// Selective signaling: each WR's `signaled` flag is first run
    /// through [`crate::signal::place_signals`] against the send CQ's
    /// capacity and occupancy, so an unsignaled chain can never deadlock
    /// a full CQ. Effective-unsignaled WRs produce no success CQE
    /// (retired under `core.cq.unsignaled_retired`); flush errors
    /// complete with a CQE regardless. The all-signaled default leaves
    /// the CQE stream bit-for-bit identical to the legacy behavior, on
    /// both datapaths.
    pub fn post_send_batch(&self, wrs: &[SendWr]) -> IwarpResult<()> {
        // Effective signal flags are decided once, at doorbell time, from
        // the same occupancy snapshot on both datapaths.
        let flags: Vec<bool> = {
            let app: Vec<bool> = wrs.iter().map(|w| w.signaled).collect();
            crate::signal::place_signals(
                &app,
                self.inner.send_cq.capacity(),
                self.inner.send_cq.len(),
            )
        };
        let burst =
            self.inner.burst_path == BurstPath::Burst && matches!(self.inner.llp, DgLlp::Ud(_));
        if !burst || wrs.len() <= 1 {
            for (wr, signaled) in wrs.iter().zip(&flags) {
                self.post_send_inner(
                    wr.wr_id,
                    wr.payload.clone(),
                    wr.dest,
                    wr.solicited,
                    *signaled,
                )?;
            }
            return Ok(());
        }
        let DgLlp::Ud(conduit) = &self.inner.llp else {
            unreachable!("burst gate requires the UD conduit")
        };
        // Validate and materialize every payload first: the segment count
        // must be known up front so all DDP headers and CRC trailers of
        // the doorbell come out of one pooled arena
        // ([`UntaggedSegBatch`]) — one pool lock per batch.
        let mut result = Ok(());
        let mut datas: Vec<(u64, Bytes, Addr, bool, bool)> = Vec::with_capacity(wrs.len());
        for (wr, signaled) in wrs.iter().zip(&flags) {
            let data = match wr.payload.clone().into_bytes() {
                Ok(d) => d,
                Err(e) => {
                    result = Err(e);
                    break;
                }
            };
            if data.len() > self.inner.max_msg_size {
                result = Err(IwarpError::MessageTooLong {
                    len: data.len(),
                    max: self.inner.max_msg_size,
                });
                break;
            }
            datas.push((wr.wr_id, data, wr.dest.addr, wr.solicited, *signaled));
        }
        let cap = self.untagged_seg_capacity();
        let n_segs: usize = datas
            .iter()
            .map(|(_, d, _, _, _)| d.len().div_ceil(cap).max(1))
            .sum();
        // Segment every WR, grouping segments per destination in
        // first-seen order. Most batches hit one or two destinations, so
        // a linear scan beats hashing.
        let mut dests: Vec<(Addr, Vec<SgBytes>)> = Vec::new();
        let mut seg_dis: Vec<usize> = Vec::with_capacity(n_segs);
        let mut enc = UntaggedSegBatch::new(&self.inner.pool, n_segs);
        // (wr_id, total_len, destination slot, signaled) — enough to
        // build the CQEs once the flush outcome per destination is known.
        let mut posted: Vec<(u64, u32, usize, bool)> = Vec::with_capacity(datas.len());
        for (wr_id, data, addr, solicited, signaled) in datas {
            let msg_id = self.inner.next_msg_id.fetch_add(1, Ordering::Relaxed);
            let msn = self.inner.next_msn.fetch_add(1, Ordering::Relaxed);
            let total = data.len() as u32;
            self.inner.tx_tel.tx_msgs.inc();
            self.inner.tx_tel.msg_size_tx.record(u64::from(total));
            let di = match dests.iter().position(|(d, _)| *d == addr) {
                Some(i) => i,
                None => {
                    dests.push((addr, Vec::new()));
                    dests.len() - 1
                }
            };
            let mut mo = 0usize;
            loop {
                self.inner.tx_tel.tx_segments.inc();
                let end = (mo + cap).min(data.len());
                let hdr = UntaggedHdr {
                    opcode: RdmapOpcode::Send,
                    last: end == data.len(),
                    qn: QN_SEND,
                    msn,
                    mo: mo as u32,
                    total_len: total,
                    src_qpn: self.inner.qpn,
                    msg_id,
                    solicited,
                };
                enc.push(&hdr, data.slice(mo..end));
                seg_dis.push(di);
                if end == data.len() {
                    break;
                }
                mo = end;
            }
            posted.push((wr_id, total, di, signaled));
        }
        for (sg, di) in enc.finish().into_iter().zip(seg_dis) {
            dests[di].1.push(sg);
        }
        // One burst per destination; remember which flushes failed.
        let mut flushed = vec![true; dests.len()];
        for (i, (dst, segs)) in dests.into_iter().enumerate() {
            self.inner.tx_tel.tx_bursts.inc();
            if let Err(e) = conduit.send_sg_burst(dst, segs) {
                flushed[i] = false;
                if result.is_ok() {
                    result = Err(e.into());
                }
            }
        }
        // All completions in WR order under one CQ lock/notify round.
        // Unsignaled WRs whose flush succeeded retire without a CQE;
        // flush errors always surface one.
        let mut retired = 0u64;
        let cqes = posted
            .into_iter()
            .filter_map(|(wr_id, total, di, signaled)| {
                if flushed[di] && !signaled {
                    retired += 1;
                    return None;
                }
                Some(Cqe {
                    wr_id,
                    opcode: CqeOpcode::Send,
                    status: if flushed[di] {
                        CqeStatus::Success
                    } else {
                        CqeStatus::Error
                    },
                    byte_len: total,
                    src: None,
                    write_record: None,
                    imm: None,
                    solicited: false,
                })
            })
            .collect();
        self.inner.send_cq.push_batch(cqes);
        self.inner.send_cq.retire_unsignaled(retired);
        result
    }

    fn post_send_inner(
        &self,
        wr_id: u64,
        payload: SendPayload,
        dest: UdDest,
        solicited: bool,
        signaled: bool,
    ) -> IwarpResult<()> {
        let data = payload.into_bytes()?;
        if data.len() > self.inner.max_msg_size {
            return Err(IwarpError::MessageTooLong {
                len: data.len(),
                max: self.inner.max_msg_size,
            });
        }
        let msg_id = self.inner.next_msg_id.fetch_add(1, Ordering::Relaxed);
        let msn = self.inner.next_msn.fetch_add(1, Ordering::Relaxed);
        let cap = self.untagged_seg_capacity();
        let total = data.len() as u32;
        self.inner.tx_tel.tx_msgs.inc();
        self.inner.tx_tel.msg_size_tx.record(u64::from(total));
        let mut mo = 0usize;
        loop {
            self.inner.tx_tel.tx_segments.inc();
            let end = (mo + cap).min(data.len());
            let hdr = UntaggedHdr {
                opcode: RdmapOpcode::Send,
                last: end == data.len(),
                qn: QN_SEND,
                msn,
                mo: mo as u32,
                total_len: total,
                src_qpn: self.inner.qpn,
                msg_id,
                solicited,
            };
            if let Err(e) = self.send_untagged_seg(&hdr, &data, mo, end, dest.addr) {
                // The WR was accepted and earlier segments may already be
                // on the wire, so the application must see a completion —
                // but never a Success one. `byte_len` reports the bytes
                // flushed before the failure.
                self.inner.send_cq.push(Cqe {
                    wr_id,
                    opcode: CqeOpcode::Send,
                    status: CqeStatus::Error,
                    byte_len: mo as u32,
                    src: None,
                    write_record: None,
                    imm: None,
                    solicited: false,
                });
                return Err(e);
            }
            if end == data.len() {
                break;
            }
            mo = end;
        }
        if signaled {
            self.inner.send_cq.push(Cqe {
                wr_id,
                opcode: CqeOpcode::Send,
                status: CqeStatus::Success,
                byte_len: total,
                src: None,
                write_record: None,
                imm: None,
                solicited: false,
            });
        } else {
            self.inner.send_cq.retire_unsignaled(1);
        }
        Ok(())
    }

    /// Posts an **RDMA Write-Record** to `(remote_stag, remote_to)` on the
    /// target named by `dest` — the paper's new one-sided operation. No
    /// receive is consumed at the target; its stack logs a completion with
    /// a validity map once the final segment arrives.
    pub fn post_write_record(
        &self,
        wr_id: u64,
        payload: impl Into<SendPayload>,
        dest: UdDest,
        remote_stag: u32,
        remote_to: u64,
    ) -> IwarpResult<()> {
        self.post_tagged(
            wr_id,
            payload.into(),
            dest,
            remote_stag,
            remote_to,
            RdmapOpcode::WriteRecord,
            true,
            0,
        )
    }

    /// Posts an InfiniBand-style **RDMA Write with Immediate**: data is
    /// placed one-sided, but delivering `imm` consumes a *posted receive*
    /// at the target — the requirement RDMA Write-Record removes
    /// (paper §IV.B.3). On UD, if no receive is posted the immediate is
    /// lost (counted in the target's `dropped_no_rq`).
    pub fn post_write_imm(
        &self,
        wr_id: u64,
        payload: impl Into<SendPayload>,
        dest: UdDest,
        remote_stag: u32,
        remote_to: u64,
        imm: u32,
    ) -> IwarpResult<()> {
        self.post_tagged(
            wr_id,
            payload.into(),
            dest,
            remote_stag,
            remote_to,
            RdmapOpcode::RdmaWriteImm,
            true,
            imm,
        )
    }

    /// Posts a plain RDMA Write (no target-side completion). Only
    /// meaningful on RD mode, where delivery is guaranteed; on UD the
    /// target application would have no way to learn the data arrived —
    /// use [`Self::post_write_record`] there (the paper's point).
    pub fn post_write(
        &self,
        wr_id: u64,
        payload: impl Into<SendPayload>,
        dest: UdDest,
        remote_stag: u32,
        remote_to: u64,
    ) -> IwarpResult<()> {
        self.post_tagged(
            wr_id,
            payload.into(),
            dest,
            remote_stag,
            remote_to,
            RdmapOpcode::RdmaWrite,
            false,
            0,
        )
    }

    #[allow(clippy::too_many_arguments)]
    fn post_tagged(
        &self,
        wr_id: u64,
        payload: SendPayload,
        dest: UdDest,
        remote_stag: u32,
        remote_to: u64,
        opcode: RdmapOpcode,
        notify: bool,
        imm: u32,
    ) -> IwarpResult<()> {
        let data = payload.into_bytes()?;
        if data.len() > self.inner.max_msg_size {
            return Err(IwarpError::MessageTooLong {
                len: data.len(),
                max: self.inner.max_msg_size,
            });
        }
        let msg_id = self.inner.next_msg_id.fetch_add(1, Ordering::Relaxed);
        let cap = self.tagged_seg_capacity();
        let total = data.len() as u32;
        self.inner.tx_tel.tx_msgs.inc();
        self.inner.tx_tel.msg_size_tx.record(u64::from(total));
        let mut off = 0usize;
        loop {
            self.inner.tx_tel.tx_segments.inc();
            let end = (off + cap).min(data.len());
            let hdr = TaggedHdr {
                opcode,
                last: end == data.len(),
                notify,
                stag: remote_stag,
                to: remote_to + off as u64,
                base_to: remote_to,
                total_len: total,
                src_qpn: self.inner.qpn,
                msg_id,
                imm,
            };
            if let Err(e) = send_tagged_seg(&self.inner, &hdr, &data, off, end, dest.addr) {
                // Same contract as the untagged path: a mid-message flush
                // failure completes the WR with an error, never Success.
                self.inner.send_cq.push(Cqe {
                    wr_id,
                    opcode: CqeOpcode::RdmaWrite,
                    status: CqeStatus::Error,
                    byte_len: off as u32,
                    src: None,
                    write_record: None,
                    imm: None,
                    solicited: false,
                });
                return Err(e);
            }
            if end == data.len() {
                break;
            }
            off = end;
        }
        self.inner.send_cq.push(Cqe {
            wr_id,
            opcode: CqeOpcode::RdmaWrite,
            status: CqeStatus::Success,
            byte_len: total,
            src: None,
            write_record: None,
        imm: None,
        solicited: false,
        });
        Ok(())
    }

    /// Posts an RDMA Read (paper future-work extension): fetches
    /// `len` bytes from `(remote_stag, remote_to)` on `dest` into
    /// `(sink, sink_to)`. Completes on the **receive** CQ with the given
    /// `wr_id`; if the response is lost on UD, the completion carries
    /// [`CqeStatus::Expired`] after the configured read TTL.
    #[allow(clippy::too_many_arguments)]
    pub fn post_read(
        &self,
        wr_id: u64,
        sink: &MemoryRegion,
        sink_to: u64,
        len: u32,
        dest: UdDest,
        remote_stag: u32,
        remote_to: u64,
    ) -> IwarpResult<()> {
        self.post_read_inner(wr_id, sink, sink_to, len, dest, remote_stag, remote_to, true)
    }

    /// Posts an **unsignaled** RDMA Read: on success no CQE is generated —
    /// the completed `wr_id` is instead retired into a drainable list
    /// ([`Self::take_retired_reads`]) and counted under
    /// `core.cq.unsignaled_retired`. A read that *expires* (response lost
    /// past the read TTL) always surfaces an [`CqeStatus::Expired`] CQE,
    /// signaled or not — errors are never silent. This is the
    /// `sq_sig_all=0` discipline for the streaming-read engine
    /// ([`crate::read::BulkRead`]).
    #[allow(clippy::too_many_arguments)]
    pub fn post_read_unsignaled(
        &self,
        wr_id: u64,
        sink: &MemoryRegion,
        sink_to: u64,
        len: u32,
        dest: UdDest,
        remote_stag: u32,
        remote_to: u64,
    ) -> IwarpResult<()> {
        self.post_read_inner(wr_id, sink, sink_to, len, dest, remote_stag, remote_to, false)
    }

    /// Completed unsignaled reads' `wr_id`s, drained in completion order.
    #[must_use]
    pub fn take_retired_reads(&self) -> Vec<u64> {
        self.inner.rx.take_retired_reads()
    }

    /// Cancels this QP's outstanding reads whose `wr_id` is in `[lo, hi)`
    /// — pending ones (late responses are dropped, no `Expired` CQE
    /// follows) and unsignaled ones already retired but not yet taken.
    /// Returns the pending reads cancelled. A caller that reuses a
    /// `wr_id` range ([`crate::read::BulkRead`]) calls this so one use's
    /// completions cannot be taken for the next's.
    pub fn cancel_reads(&self, lo: u64, hi: u64) -> usize {
        self.inner.rx.cancel_reads(lo, hi)
    }

    #[allow(clippy::too_many_arguments)]
    fn post_read_inner(
        &self,
        wr_id: u64,
        sink: &MemoryRegion,
        sink_to: u64,
        len: u32,
        dest: UdDest,
        remote_stag: u32,
        remote_to: u64,
        signaled: bool,
    ) -> IwarpResult<()> {
        // Validate the sink locally before emitting the request.
        sink.read_bytes(sink_to, 0)?;
        if u64::from(len) + sink_to > sink.len() as u64 {
            return Err(IwarpError::AccessViolation {
                stag: sink.stag(),
                offset: sink_to,
                len,
            });
        }
        let msg_id = self.inner.next_msg_id.fetch_add(1, Ordering::Relaxed);
        self.inner.rx.register_read(
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
        let hdr = UntaggedHdr {
            opcode: RdmapOpcode::ReadRequest,
            last: true,
            solicited: false,
            qn: QN_READ_REQUEST,
            msn: self.inner.next_msn.fetch_add(1, Ordering::Relaxed),
            mo: 0,
            total_len: crate::hdr::READ_REQUEST_LEN as u32,
            src_qpn: self.inner.qpn,
            msg_id,
        };
        let req = req.encode();
        self.inner.tx_tel.tx_msgs.inc();
        self.inner.tx_tel.tx_segments.inc();
        self.send_untagged_seg(&hdr, &req, 0, req.len(), dest.addr)?;
        Ok(())
    }

    /// Emits one untagged segment (`data[mo..end]` under `hdr`): a pooled
    /// `hdr ++ crc` buffer chained around a zero-copy payload slice.
    fn send_untagged_seg(
        &self,
        hdr: &UntaggedHdr,
        data: &Bytes,
        mo: usize,
        end: usize,
        dst: Addr,
    ) -> IwarpResult<()> {
        let inner = &self.inner;
        let seg = encode_untagged_sg(hdr, &data.slice(mo..end), &inner.pool);
        inner.llp.send_seg(dst, seg, &inner.tx_tel.bytes_copied)?;
        Ok(())
    }

    /// Write-Record messages at this *target* still awaiting their final
    /// segment (diagnostic).
    #[must_use]
    pub fn records_pending(&self) -> usize {
        self.inner.rx.records_pending()
    }

    /// Whether the receive engine's cold substructures (reassembly map,
    /// Write-Record table, pending-read scoreboard) have been allocated.
    /// Stays `false` for idle QPs and for traffic that rides the
    /// single-segment fast path — the memory-scaling invariant the slab
    /// compaction work (and its regression tests) relies on.
    #[must_use]
    pub fn rx_cold_allocated(&self) -> bool {
        self.inner.rx.cold_state_allocated()
    }

    /// Subscribes this UD QP to a multicast group: sends addressed to
    /// `UdDest { addr: group, .. }` then reach every member — the
    /// "multicast capable iWARP" the paper's motivation calls out for
    /// high-bandwidth media distribution (§IV.A). UD mode only.
    pub fn join_multicast(&self, group: Addr) -> IwarpResult<()> {
        match &self.inner.llp {
            DgLlp::Ud(c) => Ok(c.join_multicast(group)?),
            DgLlp::Rd(_) => Err(IwarpError::QpState(
                "multicast is defined for UD QPs only",
            )),
        }
    }

    /// Unsubscribes this UD QP from `group` (no-op on RD).
    pub fn leave_multicast(&self, group: Addr) {
        if let DgLlp::Ud(c) = &self.inner.llp {
            c.leave_multicast(group);
        }
    }
}

impl std::fmt::Debug for DatagramQp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DatagramQp")
            .field("qpn", &self.inner.qpn)
            .field("addr", &self.local_addr())
            .field("reliable", &self.is_reliable())
            .finish()
    }
}

impl Drop for DatagramQp {
    fn drop(&mut self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        if let Some((map, qpn)) = self.shard.take() {
            // Silence the fabric notifier first so no new readiness is
            // queued, then pull the QP out of its shard's inbox.
            let _ = self.inner.llp.set_notify(None);
            map.unregister(qpn);
        }
        if let Some(t) = self.rx_thread.take() {
            let _ = t.join();
        }
        self.inner.rx.flush();
    }
}

/// RX engine thread body (threaded mode).
fn rx_loop(inner: &DgInner) {
    loop {
        if inner.shutdown.load(Ordering::Relaxed) {
            return;
        }
        rx_step(inner, Duration::from_millis(5));
    }
}

/// One receive-engine iteration: the software stand-in for the RNIC's
/// receive DMA engine. Shared by the engine thread and poll-mode callers.
///
/// Datagrams arrive as scatter-gather lists: an unfragmented SG-path
/// datagram reaches this decode as the sender's original slices, with its
/// CRC check deferred ([`decode_sg`]) so the engine can fuse it with the
/// placement copy instead of flattening here.
fn rx_step(inner: &DgInner, max_wait: Duration) {
    match inner.llp.recv_sg(max_wait) {
        Ok((src, dgram)) => rx_dispatch(inner, src, &dgram),
        Err(NetError::Timeout) => {}
        Err(_) => return,
    }
    inner.rx.expire();
}

/// Decodes and places one received datagram — the per-message half of
/// [`rx_step`], shared with the shard engines' batch drain.
fn rx_dispatch(inner: &DgInner, src: Addr, dgram: &SgBytes) {
    let with_crc = true; // mandatory on the datagram path (paper §IV.B.6)
    match decode_sg(dgram, with_crc) {
        Ok((seg, pending)) => {
            if let Some(action) = inner.rx.handle_deferred(src, seg, pending) {
                respond(inner, action);
            }
        }
        Err(IwarpError::CrcMismatch) => {
            inner.rx.stats.crc_errors.fetch_add(1, Ordering::Relaxed);
            inner.rx.note_crc_error();
        }
        Err(_) => {
            inner.rx.stats.malformed.fetch_add(1, Ordering::Relaxed);
            inner.rx.note_malformed();
        }
    }
}

/// Shard-engine drain: processes up to `budget` already-delivered
/// datagrams without blocking, then runs the (self-throttled) expiry
/// sweep. Returns `true` when the budget was exhausted — more datagrams
/// may be pending and the caller should re-queue this QP (fairness:
/// a flooding QP must not starve its shard siblings).
pub(crate) fn rx_drain(inner: &DgInner, budget: usize) -> bool {
    if inner.burst_path == BurstPath::Burst {
        // Burst ingest: one receive-queue lock round pulls the whole
        // batch, then each datagram runs the identical dispatch path.
        let dgrams = inner.llp.try_recv_sg_burst(budget);
        let exhausted = dgrams.len() == budget;
        inner.rx.begin_completion_batch();
        for (src, dgram) in &dgrams {
            rx_dispatch(inner, *src, dgram);
        }
        inner.rx.expire();
        inner.rx.flush_completion_batch();
        return exhausted;
    }
    for _ in 0..budget {
        match inner.llp.try_recv_sg() {
            Ok((src, dgram)) => rx_dispatch(inner, src, &dgram),
            Err(NetError::Timeout) => {
                inner.rx.expire();
                return false;
            }
            Err(_) => return false,
        }
    }
    inner.rx.expire();
    true
}

/// Runs one TTL-expiry sweep (self-throttled inside [`RxCore::expire`]).
/// Shard workers call this for *idle* QPs on their housekeeping tick so
/// a partially received message still expires into an `Expired` CQE when
/// its peer goes quiet.
///
/// [`RxCore::expire`]: crate::qp::rx::RxCore::expire
pub(crate) fn expire_tick(inner: &DgInner) {
    inner.rx.expire();
}

/// Emits one tagged segment (`data[off..end]` under `hdr`); see
/// [`DatagramQp::send_untagged_seg`].
fn send_tagged_seg(
    inner: &DgInner,
    hdr: &TaggedHdr,
    data: &Bytes,
    off: usize,
    end: usize,
    dst: Addr,
) -> IwarpResult<()> {
    let seg = encode_tagged_sg(hdr, &data.slice(off..end), &inner.pool);
    inner.llp.send_seg(dst, seg, &inner.tx_tel.bytes_copied)?;
    Ok(())
}

/// Sends an RDMA Read Response as tagged `ReadResponse` segments.
fn respond(inner: &DgInner, action: RxAction) {
    let RxAction::SendReadResponse {
        dst,
        sink_stag,
        sink_to,
        data,
        msg_id,
    } = action;
    let cap = inner.llp.max_datagram() - TAGGED_HDR_LEN - CRC_LEN;
    let total = data.len() as u32;
    let mut off = 0usize;
    loop {
        let end = (off + cap).min(data.len());
        let hdr = TaggedHdr {
            opcode: RdmapOpcode::ReadResponse,
            last: end == data.len(),
            notify: false,
            stag: sink_stag,
            to: sink_to + off as u64,
            base_to: sink_to,
            total_len: total,
            src_qpn: inner.qpn,
            msg_id,
            imm: 0,
        };
        let _ = send_tagged_seg(inner, &hdr, &data, off, end, dst);
        if end == data.len() {
            break;
        }
        off = end;
    }
}
