//! The reliable-connection queue pair: standard iWARP over the stream LLP.
//!
//! This is the baseline the paper measures datagram-iWARP against: every
//! QP owns a TCP-like [`StreamConduit`] (with its handshake, socket
//! buffers, and retransmission state), and every DDP segment is framed by
//! the MPA layer with stream markers and a CRC. One-sided RDMA Writes are
//! silent at the target, so notification costs an extra send/recv
//! (paper Fig. 3 top) — unlike Write-Record.

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use bytes::{Bytes, BytesMut};
use iwarp_telemetry::Telemetry;
use parking_lot::Mutex;
use simnet::stream::StreamConfig;
use simnet::{Addr, Fabric, NetError, NodeId, StreamConduit, StreamListener};

use iwarp_common::memacct::MemScope;

use crate::buf::{MemoryRegion, MrTable};
use crate::cm;
use crate::cq::{Cq, Cqe, CqeOpcode, CqeStatus};
use crate::error::{IwarpError, IwarpResult};
use crate::hdr::{
    tagged_hdr_bytes, untagged_hdr_bytes, RdmapOpcode, ReadRequest, TaggedHdr, UntaggedHdr,
    UNTAGGED_HDR_LEN,
};
use crate::mpa::{MpaConfig, MpaRx, MpaTx, FPDU_OVERHEAD};
use crate::qp::rx::{Delivery, Ingest, ReadReply, RxCore, QN_READ_REQUEST, QN_SEND};
use crate::qp::{QpConfig, QpStats};
use crate::wr::{RecvWr, SendPayload};

struct RcInner {
    qpn: u32,
    peer_qpn: u32,
    stream: StreamConduit,
    tx: Mutex<MpaTx>,
    send_cq: Cq,
    rx: RxCore,
    /// Send-side counting under `core.qp.*` and `core.mpa.markers_tx`.
    tel: Telemetry,
    next_msg_id: AtomicU64,
    next_msn: AtomicU32,
    max_msg_size: usize,
    /// DDP segment payload budget per FPDU (≈ one TCP segment).
    emss: usize,
    error: Mutex<Option<IwarpError>>,
    shutdown: AtomicBool,
    /// Receive-side deframing state (MPA position, staging buffer).
    rx_state: Mutex<RcRxState>,
    _mem: Option<MemScope>,
}

struct RcRxState {
    mpa: MpaRx,
    buf: Vec<u8>,
    /// ULPDUs one `feed` yielded, reused across iterations.
    ulpdus: Vec<Bytes>,
    /// Deframed ULPDUs not yet deliverable (head blocked on an empty
    /// receive queue — resolved when the application posts a receive).
    pending: std::collections::VecDeque<Bytes>,
}

impl RcInner {
    fn check_ok(&self) -> IwarpResult<()> {
        if let Some(e) = &*self.error.lock() {
            return Err(e.clone());
        }
        Ok(())
    }

    fn fail(&self, e: IwarpError) {
        let mut err = self.error.lock();
        if err.is_none() {
            *err = Some(e);
        }
    }

    /// Sends one message: splits `data` into DDP segments of at most
    /// `emss` payload bytes, frames them all into one buffer under the TX
    /// lock (FPDU order must match marker positions exactly), and hands
    /// the buffer to the stream in one write, one slice per FPDU.
    /// `hdr(off, end)` encodes the header of the segment carrying
    /// `data[off..end]`.
    fn write_message<const H: usize>(
        &self,
        data: &[u8],
        mut hdr: impl FnMut(usize, usize) -> [u8; H],
    ) -> IwarpResult<()> {
        let cap = self.emss;
        let nsegs = data.len().div_ceil(cap).max(1);
        let mut tx = self.tx.lock();
        let before = tx.markers();
        let mut framed =
            BytesMut::with_capacity(nsegs * tx.framed_len_bound(H + cap.min(data.len())));
        let mut ends = Vec::with_capacity(nsegs);
        let mut off = 0usize;
        loop {
            self.tel.core().qp_tx_segments.inc();
            let end = (off + cap).min(data.len());
            tx.frame_into(&mut framed, &hdr(off, end), &data[off..end]);
            ends.push(framed.len());
            if end == data.len() {
                break;
            }
            off = end;
        }
        self.tel.core().mpa_markers_tx.add(tx.markers() - before);
        let mut start = 0;
        let fpdus: Vec<&[u8]> = ends
            .iter()
            .map(|&end| {
                let fpdu = &framed[start..end];
                start = end;
                fpdu
            })
            .collect();
        self.stream.write_all_vectored(&fpdus)?;
        Ok(())
    }

    #[allow(clippy::too_many_arguments)]
    fn send_tagged_message(
        &self,
        opcode: RdmapOpcode,
        notify: bool,
        stag: u32,
        to: u64,
        data: &[u8],
        msg_id: u64,
        imm: u32,
    ) -> IwarpResult<()> {
        let total = data.len() as u32;
        let tel = self.tel.core();
        tel.qp_tx_msgs.inc();
        tel.qp_msg_size_tx.record(u64::from(total));
        // No DDP CRC on the stream path: MPA already covers each FPDU.
        self.write_message(data, |off, end| {
            tagged_hdr_bytes(&TaggedHdr {
                opcode,
                last: end == data.len(),
                notify,
                stag,
                to: to + off as u64,
                base_to: to,
                total_len: total,
                src_qpn: self.qpn,
                msg_id,
                imm,
            })
        })
    }
}

/// A reliable-connection iWARP queue pair.
pub struct RcQp {
    inner: Arc<RcInner>,
    rx_thread: Option<std::thread::JoinHandle<()>>,
}

/// Everything needed to build an RC QP around an established stream.
pub(crate) struct RcQpParts {
    pub qpn: u32,
    pub peer_qpn: u32,
    pub stream: StreamConduit,
    pub mpa: MpaConfig,
    pub mrs: Arc<MrTable>,
    pub send_cq: Cq,
    pub recv_cq: Cq,
    pub cfg: QpConfig,
    pub mem: Option<MemScope>,
    pub tel: Telemetry,
}

impl RcQp {
    pub(crate) fn build(parts: RcQpParts) -> Self {
        let RcQpParts {
            qpn,
            peer_qpn,
            stream,
            mpa,
            mrs,
            send_cq,
            recv_cq,
            cfg,
            mem,
            tel,
        } = parts;
        send_cq.attach_telemetry(&tel);
        recv_cq.attach_telemetry(&tel);
        let marker_slack = 32; // worst-case markers within one FPDU budget
        let emss = stream
            .mss()
            .saturating_sub(FPDU_OVERHEAD + UNTAGGED_HDR_LEN + marker_slack)
            .max(256);
        let max_msg_size = cfg.max_msg_size;
        let local = stream.local_addr();
        let inner = Arc::new(RcInner {
            rx: RxCore::new(mrs, recv_cq, cfg, Delivery::Stream, &tel, local),
            tel,
            qpn,
            peer_qpn,
            tx: Mutex::new(MpaTx::new(mpa)),
            stream,
            send_cq,
            next_msg_id: AtomicU64::new(1),
            next_msn: AtomicU32::new(1),
            max_msg_size,
            emss,
            error: Mutex::new(None),
            shutdown: AtomicBool::new(false),
            rx_state: Mutex::new(RcRxState {
                mpa: MpaRx::new(mpa),
                buf: vec![0u8; 64 * 1024],
                ulpdus: Vec::new(),
                pending: std::collections::VecDeque::new(),
            }),
            _mem: mem,
        });
        let rx_thread = if inner.rx.cfg.poll_mode {
            None
        } else {
            let rx_inner = Arc::clone(&inner);
            Some(
                std::thread::Builder::new()
                    .name(format!("iwarp-rcqp-{qpn}"))
                    .spawn(move || rx_loop(&rx_inner))
                    .expect("spawn RC QP rx thread"),
            )
        };
        Self { inner, rx_thread }
    }

    /// Poll-mode driver: one receive-engine iteration, waiting up to
    /// `max_wait` for stream bytes while it drives the stream (ACKs,
    /// retransmissions, handshake). Call this when the QP was created
    /// with [`QpConfig::poll_mode`]; the engine thread does it otherwise.
    pub fn progress(&self, max_wait: Duration) {
        rx_step(&self.inner, max_wait);
    }

    /// This QP's number.
    #[must_use]
    pub fn qpn(&self) -> u32 {
        self.inner.qpn
    }

    /// The peer QP's number (learned during MPA negotiation).
    #[must_use]
    pub fn peer_qpn(&self) -> u32 {
        self.inner.peer_qpn
    }

    /// Local stream endpoint address.
    #[must_use]
    pub fn local_addr(&self) -> Addr {
        self.inner.stream.local_addr()
    }

    /// Peer stream endpoint address.
    #[must_use]
    pub fn peer_addr(&self) -> Addr {
        self.inner.stream.peer_addr()
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

    /// Posts a receive work request.
    pub fn post_recv(&self, wr: RecvWr) -> IwarpResult<()> {
        self.inner.check_ok()?;
        self.inner.rx.post_recv(wr);
        Ok(())
    }

    /// Posts an untagged send. Completes once every FPDU has been handed
    /// to the stream (kernel-bypass analog of DMA-to-NIC completion).
    pub fn post_send(&self, wr_id: u64, payload: impl Into<SendPayload>) -> IwarpResult<()> {
        self.post_untagged(wr_id, payload.into(), false)
    }

    /// Posts a **send with solicited event** (the target's completion is
    /// flagged solicited; see [`Cq::wait_solicited`]).
    pub fn post_send_solicited(
        &self,
        wr_id: u64,
        payload: impl Into<SendPayload>,
    ) -> IwarpResult<()> {
        self.post_untagged(wr_id, payload.into(), true)
    }

    fn post_untagged(&self, wr_id: u64, payload: SendPayload, solicited: bool) -> IwarpResult<()> {
        self.inner.check_ok()?;
        let data = payload.into_bytes()?;
        if data.len() > self.inner.max_msg_size {
            return Err(IwarpError::MessageTooLong {
                len: data.len(),
                max: self.inner.max_msg_size,
            });
        }
        let msg_id = self.inner.next_msg_id.fetch_add(1, Ordering::Relaxed);
        let msn = self.inner.next_msn.fetch_add(1, Ordering::Relaxed);
        let total = data.len() as u32;
        let tel = self.inner.tel.core();
        tel.qp_tx_msgs.inc();
        tel.qp_msg_size_tx.record(u64::from(total));
        self.inner.write_message(&data, |mo, end| {
            untagged_hdr_bytes(&UntaggedHdr {
                opcode: RdmapOpcode::Send,
                last: end == data.len(),
                solicited,
                qn: QN_SEND,
                msn,
                mo: mo as u32,
                total_len: total,
                src_qpn: self.inner.qpn,
                msg_id,
            })
        })?;
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
        Ok(())
    }

    /// Posts a standard RDMA Write: data lands silently in the target's
    /// registered memory. To tell the target, follow with a send (the
    /// extra step Write-Record eliminates — paper Fig. 3).
    pub fn post_rdma_write(
        &self,
        wr_id: u64,
        payload: impl Into<SendPayload>,
        remote_stag: u32,
        remote_to: u64,
    ) -> IwarpResult<()> {
        self.post_tagged_common(
            wr_id,
            payload,
            remote_stag,
            remote_to,
            RdmapOpcode::RdmaWrite,
            false,
            0,
        )
    }

    /// Posts an InfiniBand-style **RDMA Write with Immediate** over the
    /// connection: one-sided placement whose immediate consumes a posted
    /// receive at the target (paper §IV.B.3 comparison point).
    pub fn post_write_imm(
        &self,
        wr_id: u64,
        payload: impl Into<SendPayload>,
        remote_stag: u32,
        remote_to: u64,
        imm: u32,
    ) -> IwarpResult<()> {
        self.post_tagged_common(
            wr_id,
            payload,
            remote_stag,
            remote_to,
            RdmapOpcode::RdmaWriteImm,
            true,
            imm,
        )
    }

    /// Posts an RDMA Write-Record over the reliable connection. The paper
    /// defines the operation for any transport; on RC the target logs the
    /// completion exactly as on UD (useful for the socket shim).
    pub fn post_write_record(
        &self,
        wr_id: u64,
        payload: impl Into<SendPayload>,
        remote_stag: u32,
        remote_to: u64,
    ) -> IwarpResult<()> {
        self.post_tagged_common(
            wr_id,
            payload,
            remote_stag,
            remote_to,
            RdmapOpcode::WriteRecord,
            true,
            0,
        )
    }

    #[allow(clippy::too_many_arguments)]
    fn post_tagged_common(
        &self,
        wr_id: u64,
        payload: impl Into<SendPayload>,
        remote_stag: u32,
        remote_to: u64,
        opcode: RdmapOpcode,
        notify: bool,
        imm: u32,
    ) -> IwarpResult<()> {
        self.inner.check_ok()?;
        let data = payload.into().into_bytes()?;
        if data.len() > self.inner.max_msg_size {
            return Err(IwarpError::MessageTooLong {
                len: data.len(),
                max: self.inner.max_msg_size,
            });
        }
        let msg_id = self.inner.next_msg_id.fetch_add(1, Ordering::Relaxed);
        self.inner.send_tagged_message(
            opcode,
            notify,
            remote_stag,
            remote_to,
            &data,
            msg_id,
            imm,
        )?;
        self.inner.send_cq.push(Cqe {
            wr_id,
            opcode: CqeOpcode::RdmaWrite,
            status: CqeStatus::Success,
            byte_len: data.len() as u32,
            src: None,
            write_record: None,
            imm: None,
            solicited: false,
        });
        Ok(())
    }

    /// Posts an RDMA Read from `(remote_stag, remote_to)` into
    /// `(sink, sink_to)`. Completes on the receive CQ.
    pub fn post_read(
        &self,
        wr_id: u64,
        sink: &MemoryRegion,
        sink_to: u64,
        len: u32,
        remote_stag: u32,
        remote_to: u64,
    ) -> IwarpResult<()> {
        self.inner.check_ok()?;
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
            RxCore::new_pending_read(wr_id, sink.clone(), sink_to, len, true),
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
        self.inner.tel.core().qp_tx_msgs.inc();
        self.inner
            .write_message(&req.encode(), |_, _| untagged_hdr_bytes(&hdr))
    }
}

impl std::fmt::Debug for RcQp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RcQp")
            .field("qpn", &self.inner.qpn)
            .field("peer_qpn", &self.inner.peer_qpn)
            .field("local", &self.local_addr())
            .field("peer", &self.peer_addr())
            .finish()
    }
}

impl Drop for RcQp {
    fn drop(&mut self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        self.inner.stream.close();
        if let Some(t) = self.rx_thread.take() {
            let _ = t.join();
        }
        self.inner.rx.flush();
    }
}

/// RC receive engine thread body (threaded mode). It is also the
/// stream's protocol driver: each `rx_step` waits inside the stream's
/// `read`.
fn rx_loop(inner: &RcInner) {
    loop {
        if inner.shutdown.load(Ordering::Relaxed) {
            return;
        }
        if !rx_step(inner, Duration::from_millis(5)) {
            return;
        }
    }
}

/// One receive-engine iteration: stream bytes → MPA deframe → DDP
/// placement. Returns false once the connection is dead.
fn rx_step(inner: &RcInner, max_wait: Duration) -> bool {
    let peer = inner.stream.peer_addr();
    let mut state = inner.rx_state.lock();

    // Deliver previously stalled ULPDUs first; while the head remains
    // blocked on an empty receive queue we do NOT read more stream bytes,
    // so the peer eventually stalls on TCP flow control — a reliable
    // connection never silently drops a message.
    if !drain_pending(inner, peer, &mut state) {
        return false;
    }
    if !state.pending.is_empty() {
        drop(state);
        // Head-of-line blocked: keep ACKs and retransmissions flowing,
        // then wait for a receive to be posted.
        inner.stream.progress(Duration::ZERO);
        std::thread::sleep(max_wait.min(Duration::from_millis(1)));
        inner.rx.expire();
        return true;
    }

    let RcRxState {
        mpa,
        buf,
        ulpdus,
        pending,
    } = &mut *state;
    match inner.stream.read(buf, Some(max_wait)) {
        Ok(0) => {
            inner.fail(IwarpError::Net(NetError::Closed));
            inner.rx.flush();
            return false;
        }
        Ok(n) => {
            if let Err(e) = mpa.feed(&buf[..n], ulpdus) {
                // Stream-path errors are fatal: the connection is marked
                // erroneous per the unrelaxed DDP standard.
                inner.fail(e);
                inner.rx.flush();
                return false;
            }
            pending.extend(ulpdus.drain(..));
            if !drain_pending(inner, peer, &mut state) {
                return false;
            }
        }
        Err(NetError::Timeout) => {}
        Err(e) => {
            inner.fail(IwarpError::Net(e));
            inner.rx.flush();
            return false;
        }
    }
    drop(state);
    inner.rx.expire();
    true
}

/// Delivers queued ULPDUs until empty or head-of-line blocked on an empty
/// receive queue. Returns false on a fatal protocol error.
fn drain_pending(inner: &RcInner, peer: simnet::Addr, state: &mut RcRxState) -> bool {
    while let Some(front) = state.pending.front() {
        // No DDP CRC on the stream path: MPA already checked each FPDU.
        let decoded = crate::hdr::decode(front, false).map(|seg| (seg, None));
        match inner.rx.ingest(peer, decoded) {
            Ingest::Stall => return true, // leave queued; a posted receive unblocks us
            Ingest::Malformed => {
                inner.fail(IwarpError::Net(NetError::Protocol(
                    "malformed DDP segment on stream",
                )));
                inner.rx.flush();
                return false;
            }
            Ingest::Done => {
                state.pending.pop_front();
            }
            Ingest::Respond(reply) => {
                state.pending.pop_front();
                respond(inner, reply);
            }
        }
    }
    true
}

fn respond(inner: &RcInner, reply: ReadReply) {
    let ReadReply {
        sink_stag,
        sink_to,
        data,
        msg_id,
        ..
    } = reply;
    if inner
        .send_tagged_message(
            RdmapOpcode::ReadResponse,
            false,
            sink_stag,
            sink_to,
            &data,
            msg_id,
            0,
        )
        .is_err()
    {
        inner.fail(IwarpError::Net(NetError::Closed));
    }
}

/// Accepts incoming RC connections: stream accept + MPA negotiation.
pub struct RcListener {
    listener: StreamListener,
    mrs: Arc<MrTable>,
    mpa: MpaConfig,
    next_qpn: Arc<AtomicU32>,
    mem: Option<iwarp_common::memacct::MemRegistry>,
    tel: Telemetry,
}

impl RcListener {
    pub(crate) fn new(
        fabric: &Fabric,
        addr: Addr,
        stream_cfg: StreamConfig,
        mpa: MpaConfig,
        mrs: Arc<MrTable>,
        next_qpn: Arc<AtomicU32>,
        mem: Option<iwarp_common::memacct::MemRegistry>,
    ) -> IwarpResult<Self> {
        Ok(Self {
            listener: StreamListener::bind(fabric, addr, stream_cfg)?,
            mrs,
            mpa,
            next_qpn,
            mem,
            tel: fabric.telemetry().clone(),
        })
    }

    /// The listening address.
    #[must_use]
    pub fn local_addr(&self) -> Addr {
        self.listener.local_addr()
    }

    /// Accepts one connection and completes MPA negotiation, returning an
    /// operational RC QP bound to the given completion queues. `timeout`
    /// bounds the wait for an incoming connection; the negotiation that
    /// follows has its own budget (`cm::MPA_TIMEOUT`, 5 s).
    pub fn accept(
        &self,
        timeout: Duration,
        send_cq: &Cq,
        recv_cq: &Cq,
        cfg: QpConfig,
    ) -> IwarpResult<RcQp> {
        let stream = self.listener.accept(Some(timeout))?;
        let qpn = self.next_qpn.fetch_add(1, Ordering::Relaxed);
        let (peer_qpn, negotiated) = cm::mpa_accept(&stream, qpn, self.mpa, cm::MPA_TIMEOUT)?;
        let mem = self
            .mem
            .as_ref()
            .map(|r| r.track("qp_rc", std::mem::size_of::<RcInner>() as u64));
        Ok(RcQp::build(RcQpParts {
            qpn,
            peer_qpn,
            stream,
            mpa: negotiated,
            mrs: Arc::clone(&self.mrs),
            send_cq: send_cq.clone(),
            recv_cq: recv_cq.clone(),
            cfg,
            mem,
            tel: self.tel.clone(),
        }))
    }
}

/// Active-side RC connection setup (used by `Device::rc_connect`).
#[allow(clippy::too_many_arguments)]
pub(crate) fn rc_connect(
    fabric: &Fabric,
    local_node: NodeId,
    remote: Addr,
    stream_cfg: StreamConfig,
    mpa: MpaConfig,
    mrs: Arc<MrTable>,
    next_qpn: &AtomicU32,
    send_cq: &Cq,
    recv_cq: &Cq,
    cfg: QpConfig,
    mem: Option<&iwarp_common::memacct::MemRegistry>,
) -> IwarpResult<RcQp> {
    let stream = StreamConduit::connect(fabric, local_node, remote, stream_cfg)?;
    let qpn = next_qpn.fetch_add(1, Ordering::Relaxed);
    let (peer_qpn, negotiated) = cm::mpa_connect(&stream, qpn, mpa, cm::MPA_TIMEOUT)?;
    let mem = mem.map(|r| r.track("qp_rc", std::mem::size_of::<RcInner>() as u64));
    Ok(RcQp::build(RcQpParts {
        qpn,
        peer_qpn,
        stream,
        mpa: negotiated,
        mrs,
        send_cq: send_cq.clone(),
        recv_cq: recv_cq.clone(),
        cfg,
        mem,
        tel: fabric.telemetry().clone(),
    }))
}
