//! The reliable-connection queue pair: standard iWARP over the stream LLP.
//!
//! This is the baseline the paper measures datagram-iWARP against: every
//! QP owns a TCP-like [`StreamConduit`] (with its handshake, socket
//! buffers, and retransmission state), and every DDP segment is framed by
//! the MPA layer with stream markers and a CRC. One-sided RDMA Writes are
//! silent at the target, so notification costs an extra send/recv
//! (paper Fig. 3 top) — unlike Write-Record.
//!
//! Its verbs run the datagram QP's transmit pipeline (`qp/tx.rs`, see
//! [`crate::qp::DatagramQp::post_send_batch`]) toward the connection's peer,
//! with one flush of its own: the call's FPDUs are framed and written to
//! the stream under one hold of the MPA sender lock. The pipeline's error
//! contract holds here too, and a post on a connection the engine has
//! already found failed is refused before anything is sent, with no CQE.

use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use iwarp_telemetry::Telemetry;
use parking_lot::Mutex;
use simnet::stream::StreamConfig;
use simnet::{Addr, Fabric, NetError, NodeId, StreamConduit, StreamListener};

use iwarp_common::memacct::MemScope;

use crate::buf::{MemoryRegion, MrTable};
use crate::cm;
use crate::cq::Cq;
use crate::error::{IwarpError, IwarpResult};
use crate::hdr::RdmapOpcode;
use crate::mpa::{MpaConfig, MpaRx, MpaTx};
use crate::qp::rx::{Delivery, Ingest, RxCore};
use crate::qp::tx::{TxCore, Verb, Wire};
use crate::qp::{QpConfig, QpStats};
use crate::wr::{RecvWr, SendPayload, SendWr, UdDest};

struct RcInner {
    /// The peer QP at the stream's far end: every transmit's destination.
    peer: UdDest,
    stream: StreamConduit,
    /// The MPA sender: the stream position every FPDU is framed at.
    mpa: Mutex<MpaTx>,
    tx: TxCore,
    rx: RxCore,
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

    /// Where this QP's transmits go.
    fn wire(&self) -> Wire<'_> {
        Wire::Rc {
            mpa: &self.mpa,
            stream: &self.stream,
        }
    }

    /// Posts one WR of `verb` through the transmit pipeline, unless the
    /// connection has failed.
    fn post(&self, verb: Verb, wr: SendWr) -> IwarpResult<()> {
        self.check_ok()?;
        self.tx.transmit(self.wire(), verb, &[wr])
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
        recv_cq.attach_telemetry(&tel);
        // An RC QP's waiters never run its engine.
        recv_cq.bind_receiver(std::sync::Weak::new());
        let local = stream.local_addr();
        let inner = Arc::new(RcInner {
            tx: TxCore::new(qpn, send_cq, cfg.max_msg_size, &tel),
            rx: RxCore::new(mrs, recv_cq, cfg, Delivery::Stream, &tel, local),
            peer: UdDest {
                addr: stream.peer_addr(),
                qpn: peer_qpn,
            },
            mpa: Mutex::new(MpaTx::new(mpa)),
            stream,
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
        self.inner.tx.qpn
    }

    /// The peer QP's number (learned during MPA negotiation).
    #[must_use]
    pub fn peer_qpn(&self) -> u32 {
        self.inner.peer.qpn
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
        &self.inner.tx.send_cq
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
        let wr = SendWr::new(wr_id, payload, self.inner.peer);
        self.inner.post(Verb::Send, wr)
    }

    /// Posts a **send with solicited event** (the target's completion is
    /// flagged solicited; see [`Cq::wait_solicited`]).
    pub fn post_send_solicited(
        &self,
        wr_id: u64,
        payload: impl Into<SendPayload>,
    ) -> IwarpResult<()> {
        let wr = SendWr {
            solicited: true,
            ..SendWr::new(wr_id, payload, self.inner.peer)
        };
        self.inner.post(Verb::Send, wr)
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
        let verb = Verb::write(RdmapOpcode::RdmaWrite, remote_stag, remote_to, 0);
        let wr = SendWr::new(wr_id, payload, self.inner.peer);
        self.inner.post(verb, wr)
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
        let verb = Verb::write(RdmapOpcode::RdmaWriteImm, remote_stag, remote_to, imm);
        let wr = SendWr::new(wr_id, payload, self.inner.peer);
        self.inner.post(verb, wr)
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
        let verb = Verb::write(RdmapOpcode::WriteRecord, remote_stag, remote_to, 0);
        let wr = SendWr::new(wr_id, payload, self.inner.peer);
        self.inner.post(verb, wr)
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
        let inner = &self.inner;
        inner.check_ok()?;
        inner.tx.post_read(
            inner.wire(),
            &inner.rx,
            wr_id,
            sink,
            sink_to,
            len,
            inner.peer,
            remote_stag,
            remote_to,
            true,
        )
    }
}

impl std::fmt::Debug for RcQp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RcQp")
            .field("qpn", &self.inner.tx.qpn)
            .field("peer_qpn", &self.inner.peer.qpn)
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
                if inner.tx.respond(inner.wire(), reply).is_err() {
                    inner.fail(IwarpError::Net(NetError::Closed));
                }
            }
        }
    }
    true
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
