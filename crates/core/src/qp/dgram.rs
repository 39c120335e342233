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

use std::cmp::Ordering::{Equal, Greater, Less};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use iwarp_telemetry::Telemetry;
use simnet::{Addr, DgramConduit, NetError, RdConduit};

use iwarp_common::memacct::MemScope;
use iwarp_common::pool::BufPool;
use iwarp_common::sg::SgBytes;

use crate::buf::{MemoryRegion, MrTable};
use crate::cq::{Cq, Cqe, CqeOpcode, CqeStatus};
use crate::error::{IwarpError, IwarpResult};
use crate::hdr::{
    decode_sg, DdpSegment, RdmapOpcode, ReadRequest, SegBatch, TaggedHdr, UntaggedHdr, CRC_LEN,
    TAGGED_HDR_LEN, UNTAGGED_HDR_LEN,
};
use crate::qp::rx::{Delivery, Ingest, ReadReply, RxCore, QN_READ_REQUEST, QN_SEND};
use crate::qp::QpConfig;
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
    /// Wire packets waiting in the delivery ring, before reassembly.
    fn rx_backlog(&self) -> usize {
        match self {
            DgLlp::Ud(c) => c.rx_backlog(),
            DgLlp::Rd(c) => c.rx_backlog(),
        }
    }

    /// Receives the next complete datagram as a scatter-gather list (an
    /// unfragmented UD datagram arrives as the sender's original slices;
    /// RD always delivers contiguous messages). On RD this call is what
    /// runs the reliable-datagram protocol (ACKs, retransmission timers):
    /// the threaded `rx_loop` or poll-mode `progress` is its driver.
    fn recv_sg(&self, timeout: Duration) -> Result<(Addr, SgBytes), NetError> {
        match self {
            DgLlp::Ud(c) => c.recv_sg_from(Some(timeout)),
            DgLlp::Rd(c) => c
                .recv_from(Some(timeout))
                .map(|(src, b)| (src, SgBytes::from(b))),
        }
    }

    /// Non-blocking receive: drains already-delivered wire packets only
    /// (on RD, one non-blocking drive step). The shard engines'
    /// batch-drain primitive.
    fn try_recv_sg(&self) -> Result<(Addr, SgBytes), NetError> {
        match self {
            DgLlp::Ud(c) => c.try_recv_sg_from(),
            DgLlp::Rd(c) => c
                .recv_from(Some(Duration::ZERO))
                .map(|(src, b)| (src, SgBytes::from(b))),
        }
    }

    /// Installs an arrival notifier on the conduit's wire endpoint.
    /// Returns `false` for RD: its protocol runs inside the calls that
    /// drive the conduit, and the shards do not sweep RD retransmission
    /// timers, so an RD QP keeps its own `rx_loop` (or poll mode) and
    /// cannot be driven by a shard engine.
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

pub(crate) struct DgInner {
    qpn: u32,
    llp: DgLlp,
    send_cq: Cq,
    pub(crate) rx: RxCore,
    /// Send-side counting under `core.qp.*` and `pool.bytes_copied`.
    tel: Telemetry,
    next_msg_id: AtomicU64,
    next_msn: AtomicU32,
    max_msg_size: usize,
    /// Header-buffer pool shared with the fabric ([`SegBatch`] draws each
    /// transmit's `hdr ++ crc` arena from here).
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

    /// The transmit pipeline behind every datagram verb call and every
    /// read response. [`DatagramQp::post_send_batch`] documents its stages
    /// and its one error contract.
    fn transmit(&self, verb: Verb, wrs: &[SendWr]) -> IwarpResult<()> {
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

        let cap = self.llp.max_datagram() - verb.hdr_len() - CRC_LEN;
        let n_segs = datas.iter().map(|d| seg_count(d.len(), cap)).sum();
        let mut arena = SegBatch::new(&self.pool, n_segs);
        for (wr, data) in wrs.iter().zip(&datas) {
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
                arena.push(verb.segment(self.qpn, msg_id, msn, wr.solicited, data, range));
            }
        }
        let segs = arena.finish();

        let flushed = match &self.llp {
            DgLlp::Ud(c) => self.flush_ud(c, wrs, &datas, cap, segs),
            DgLlp::Rd(c) => self.flush_rd(c, wrs, &datas, cap, segs),
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

    /// RD flush: segment by segment, each flattened into the owned message
    /// the windowed conduit keeps for retransmission (counted: RD is not
    /// the zero-copy path).
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
                if !seg.is_contiguous() {
                    self.tel.simnet().bytes_copied.add(seg.len() as u64);
                }
                if let Err(e) = c.send_to(wr.dest.addr, seg.to_bytes()) {
                    let bytes = (k * cap) as u32;
                    return Err((e.into(), Handed::around(0..wrs.len(), i, bytes)));
                }
            }
        }
        Ok(())
    }
}

/// Segments a `len`-byte message takes at `cap` payload bytes per segment
/// (an empty message still takes one).
fn seg_count(len: usize, cap: usize) -> usize {
    len.div_ceil(cap).max(1)
}

/// What one [`DgInner::transmit`] call carries. It decides each segment's
/// DDP header, whether the call counts as posted sends, and how it
/// completes.
#[derive(Clone, Copy)]
enum Verb {
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
        let delivery = if llp.is_reliable() {
            Delivery::Reliable
        } else {
            Delivery::Unreliable
        };
        send_cq.attach_telemetry(tel);
        recv_cq.attach_telemetry(tel);
        let pool = llp.pool();
        let inner = Arc::new(DgInner {
            rx: RxCore::new(mrs, recv_cq, cfg, delivery, tel, llp.local_addr()),
            tel: tel.clone(),
            qpn,
            llp,
            send_cq,
            next_msg_id: AtomicU64::new(1),
            next_msn: AtomicU32::new(1),
            max_msg_size,
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
    /// already does this work. On an RD QP this call also runs the
    /// reliable-datagram protocol, so a poll-mode RD QP neither
    /// acknowledges nor retransmits between calls.
    pub fn progress(&self, max_wait: Duration) {
        rx_step(&self.inner, max_wait);
    }

    /// Exactly [`Self::progress`]; `_budget` is ignored. Receives are
    /// per-datagram only (DESIGN.md §7), and this spelling is kept
    /// because the benchmark suite, which pins its own call sites, still
    /// calls it.
    pub fn progress_burst(&self, _budget: usize, max_wait: Duration) {
        self.progress(max_wait);
    }

    /// Wire packets already delivered to this QP but not yet ingested.
    /// A [`Self::progress`] call consumes at least one whenever this is
    /// non-zero, so poll-mode drivers can loop `progress` until the
    /// backlog reads zero to drain a tick to quiescence.
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
    /// no acknowledgement is awaited). A doorbell of one: see
    /// [`Self::post_send_batch`] for the pipeline and its error contract.
    pub fn post_send(
        &self,
        wr_id: u64,
        payload: impl Into<SendPayload>,
        dest: UdDest,
    ) -> IwarpResult<()> {
        let wr = SendWr::new(wr_id, payload, dest);
        self.inner.transmit(Verb::Send, &[wr])
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
        let wr = SendWr {
            solicited: true,
            ..SendWr::new(wr_id, payload, dest)
        };
        self.inner.transmit(Verb::Send, &[wr])
    }

    /// Posts a batch of untagged sends — the multi-WR doorbell, and the
    /// general form of the one transmit pipeline that every datagram verb
    /// (sends, writes, read requests and the responder's read responses)
    /// runs:
    ///
    /// 1. **Validate**: each payload is materialized and size-checked.
    /// 2. **Place signals** over the accepted WRs
    ///    ([`crate::signal::place_signals`], against the send CQ's
    ///    capacity and occupancy), so an unsignaled chain can never
    ///    deadlock a full CQ and a forced signal lands on a posted WR.
    /// 3. **Segment and encode**: one DDP segment per datagram; every
    ///    header and CRC trailer of the call comes from one pooled arena.
    /// 4. **Flush**: on UD, one fabric burst per destination in first-seen
    ///    order ([`DgramConduit::send_sg_burst`]); on RD, segment by
    ///    segment, since the windowed conduit keeps owned messages.
    /// 5. **Complete** in WR order under one CQ lock round
    ///    ([`Cq::push_batch`]). A WR is done once its last segment is
    ///    handed to the transport (paper §IV.B.3): signaled WRs complete
    ///    `Success`, unsignaled ones retire under
    ///    `core.cq.unsignaled_retired`.
    ///
    /// Wire bytes, CQE contents and CQE order are identical to posting
    /// each WR with [`Self::post_send`].
    ///
    /// The error contract, the same for every verb: a WR that fails
    /// validation (oversized payload, revoked region) ends the call
    /// before anything is sent. The WRs before it are posted, it and the
    /// WRs after it get no CQE, and its error returns. The first flush
    /// that fails (RD after a reset; UD segments always fit the wire)
    /// ends the call too. The WRs it carried complete with
    /// [`CqeStatus::Error`], signaled or not, with `byte_len` counting
    /// their bytes handed over before it; WRs not yet flushed get no CQE;
    /// and the flush error returns. Read requests and responses never
    /// leave a send CQE.
    pub fn post_send_batch(&self, wrs: &[SendWr]) -> IwarpResult<()> {
        self.inner.transmit(Verb::Send, wrs)
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
        let verb = Verb::Write {
            opcode: RdmapOpcode::WriteRecord,
            notify: true,
            stag: remote_stag,
            to: remote_to,
            imm: 0,
        };
        self.inner
            .transmit(verb, &[SendWr::new(wr_id, payload, dest)])
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
        let verb = Verb::Write {
            opcode: RdmapOpcode::RdmaWriteImm,
            notify: true,
            stag: remote_stag,
            to: remote_to,
            imm,
        };
        self.inner
            .transmit(verb, &[SendWr::new(wr_id, payload, dest)])
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
        let verb = Verb::Write {
            opcode: RdmapOpcode::RdmaWrite,
            notify: false,
            stag: remote_stag,
            to: remote_to,
            imm: 0,
        };
        self.inner
            .transmit(verb, &[SendWr::new(wr_id, payload, dest)])
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
        self.inner.transmit(
            Verb::ReadRequest { msg_id },
            &[SendWr::new(wr_id, req.encode(), dest)],
        )
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
        if !rx_step(inner, Duration::from_millis(5)) {
            return;
        }
    }
}

/// One receive-engine iteration: the software stand-in for the RNIC's
/// receive DMA engine. Shared by the engine thread and poll-mode callers.
/// Returns false once the LLP is dead.
///
/// Datagrams arrive as scatter-gather lists: an unfragmented SG-path
/// datagram reaches this decode as the sender's original slices, with its
/// CRC check deferred ([`decode_sg`]) so the engine can settle it at
/// placement instead of flattening here.
fn rx_step(inner: &DgInner, max_wait: Duration) -> bool {
    match inner.llp.recv_sg(max_wait) {
        Ok((src, dgram)) => rx_dispatch(inner, src, &dgram),
        Err(NetError::Timeout) => {}
        Err(_) => {
            // Every other LLP error is terminal: UD only reports `Closed`,
            // RD `Reset` (retry budget exhausted) or `Closed`, and each
            // returns at once on every later call.
            inner.rx.flush();
            return false;
        }
    }
    inner.rx.expire();
    true
}

/// Hands one received datagram to the receive pipeline — the
/// per-message half of [`rx_step`], shared with the shard engines' drain.
/// The CRC is mandatory on the datagram path (paper §IV.B.6). Nothing
/// stalls on a datagram QP, and a malformed datagram is counted and
/// dropped.
fn rx_dispatch(inner: &DgInner, src: Addr, dgram: &SgBytes) {
    if let Ingest::Respond(reply) = inner.rx.ingest(src, decode_sg(dgram, true)) {
        respond(inner, reply);
    }
}

/// Shard-engine drain: processes up to `budget` already-delivered
/// datagrams without blocking, then runs the (self-throttled) expiry
/// sweep. Returns `true` when the budget was exhausted — more datagrams
/// may be pending and the caller should re-queue this QP (fairness:
/// a flooding QP must not starve its shard siblings).
pub(crate) fn rx_drain(inner: &DgInner, budget: usize) -> bool {
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

/// Sends an RDMA Read Response through the transmit pipeline. A response
/// that cannot be sent is the requester's to recover: its read expires.
fn respond(inner: &DgInner, reply: ReadReply) {
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
    let _ = inner.transmit(verb, &[SendWr::new(0, data, dest)]);
}
