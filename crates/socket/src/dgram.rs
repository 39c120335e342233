//! Datagram sockets over UD queue pairs.
//!
//! Two data paths, selected by [`DgramMode`]:
//!
//! * **SendRecv** — classic two-sided verbs behind the socket API. The
//!   socket pre-posts `recv_slots` receives over a slot region; incoming
//!   messages complete them and `recv_from` copies the data out (the
//!   buffered-copy semantics of the paper's shim).
//! * **WriteRecord** — the paper's one-sided path. The socket registers a
//!   remote-writable *slot ring*; a sender obtains the ring's STag once
//!   via the advertisement handshake ([`crate::control`]) and then places
//!   data with RDMA Write-Record directly. The receiver learns of arrivals
//!   from unsolicited Write-Record completions — no receives consumed.
//!
//! Either way the application sees plain `send_to`/`recv_from`; through
//! this copying interface the two modes perform almost identically, as the
//! paper observes for VLC (§VI.B.1).

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use iwarp_telemetry::Counter;
use parking_lot::Mutex;
use simnet::Addr;

use iwarp::wr::RecvWr;
use iwarp::{
    Access, Cq, Cqe, CqeOpcode, CqeStatus, IwarpError, IwarpResult, MemoryRegion, SendWr, UdDest,
    UdQp,
};

use crate::control::Control;
use crate::stack::{DgramProfile, FdKind, FdSlot, StackInner};

/// Datagram data path through the shim.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DgramMode {
    /// Two-sided send/recv verbs.
    SendRecv,
    /// One-sided RDMA Write-Record into an advertised slot ring.
    WriteRecord,
}

/// Sender-side knowledge of a peer's slot ring.
struct PeerRing {
    stag: u32,
    slots: u32,
    slot_size: u32,
    next_slot: u32,
    /// Peer answered with `slots == 0` (or never answered): use send/recv.
    fallback: bool,
}

/// Counters exposed for tests and diagnostics.
#[derive(Clone, Copy, Debug, Default)]
pub struct DgramSocketStats {
    /// Partially placed Write-Record messages dropped (or truncated).
    pub partial_messages: u64,
    /// Messages dropped because they exceeded the receive slot size.
    pub oversized_dropped: u64,
    /// Receives recovered after expiry (loss of part of a message).
    pub expired: u64,
}

/// Fabric-domain telemetry handles for one datagram socket.
struct SockTel {
    tx_msgs: Counter,
    rx_msgs: Counter,
    ring_sends: Counter,
    fallback_sends: Counter,
    partial_messages: Counter,
    oversized_dropped: Counter,
    expired: Counter,
}

impl SockTel {
    fn new(tel: &iwarp_telemetry::Telemetry) -> Self {
        Self {
            tx_msgs: tel.counter("socket.dgram.tx_msgs"),
            rx_msgs: tel.counter("socket.dgram.rx_msgs"),
            ring_sends: tel.counter("socket.dgram.ring_sends"),
            fallback_sends: tel.counter("socket.dgram.fallback_sends"),
            partial_messages: tel.counter("socket.dgram.partial_messages"),
            oversized_dropped: tel.counter("socket.dgram.oversized_dropped"),
            expired: tel.counter("socket.dgram.expired"),
        }
    }
}

struct DgramInner {
    fd: FdSlot,
    stack: Arc<StackInner>,
    tel: SockTel,
    qp: UdQp,
    send_cq: Cq,
    recv_cq: Cq,
    /// Receive slots for send/recv traffic (and control messages).
    slot_mr: MemoryRegion,
    /// Remote-writable ring for Write-Record mode.
    ring_mr: Option<MemoryRegion>,
    slot_size: usize,
    slots: usize,
    state: Mutex<DgState>,
    /// Accounting for this socket's buffer pool (drives Fig. 11).
    _mem: Option<iwarp_common::memacct::MemScope>,
}

struct DgState {
    /// User datagrams drained while waiting for control traffic.
    ready: VecDeque<(Addr, Bytes)>,
    peers: HashMap<Addr, PeerRing>,
    stats: DgramSocketStats,
}

/// A UDP-like socket whose data path is datagram-iWARP.
pub struct DgramSocket {
    inner: Arc<DgramInner>,
}

impl DgramSocket {
    pub(crate) fn open(
        stack: Arc<StackInner>,
        port: Option<u16>,
        profile: Option<DgramProfile>,
    ) -> IwarpResult<Self> {
        let cfg = &stack.cfg;
        let profile = profile.unwrap_or_else(|| DgramProfile::from_config(cfg));
        let depth = profile.recv_slots * 2 + 32;
        let send_cq = Cq::new(depth);
        let recv_cq = Cq::new(depth);
        let qp = stack
            .device
            .create_ud_qp(port, &send_cq, &recv_cq, cfg.qp.clone())?;
        let slot_mr = stack
            .device
            .register(profile.recv_slots * profile.slot_size, Access::Local);
        for i in 0..profile.recv_slots {
            qp.post_recv(RecvWr {
                wr_id: i as u64,
                mr: slot_mr.clone(),
                offset: (i * profile.slot_size) as u64,
                len: profile.slot_size as u32,
            })?;
        }
        let ring_mr = match cfg.mode {
            DgramMode::SendRecv => None,
            DgramMode::WriteRecord => Some(
                stack
                    .device
                    .register(profile.recv_slots * profile.slot_size, Access::RemoteWrite),
            ),
        };
        let fd = stack.alloc_fd(FdKind::Dgram);
        // Receive completions mark this socket's fd ready on the stack
        // channel, so one thread can wait_ready() across every socket.
        // Poll-mode QPs stay unsubscribed — their CQs only fill when the
        // caller pumps, so a parked waiter would never wake.
        if !stack.cfg.qp.poll_mode {
            recv_cq.attach_channel(&stack.chan, u64::from(fd.fd));
        }
        let buffer_bytes =
            (slot_mr.len() + ring_mr.as_ref().map_or(0, iwarp::MemoryRegion::len)) as u64;
        let mem = stack
            .device
            .mem()
            .map(|r| r.track("socket_buffers", buffer_bytes));
        let tel = SockTel::new(stack.device.telemetry());
        Ok(Self {
            inner: Arc::new(DgramInner {
                fd,
                slot_size: profile.slot_size,
                slots: profile.recv_slots,
                stack,
                tel,
                qp,
                send_cq,
                recv_cq,
                slot_mr,
                ring_mr,
                state: Mutex::new(DgState {
                    ready: VecDeque::new(),
                    peers: HashMap::new(),
                    stats: DgramSocketStats::default(),
                }),
                _mem: mem,
            }),
        })
    }

    /// The shim's file-descriptor number for this socket.
    #[must_use]
    pub fn fd(&self) -> u32 {
        self.inner.fd.fd
    }

    /// The socket's bound address (what peers `send_to`).
    #[must_use]
    pub fn local_addr(&self) -> Addr {
        self.inner.qp.local_addr()
    }

    /// Largest datagram this socket can deliver.
    #[must_use]
    pub fn max_datagram(&self) -> usize {
        self.inner.slot_size
    }

    /// Diagnostics counters.
    #[must_use]
    pub fn stats(&self) -> DgramSocketStats {
        self.inner.state.lock().stats
    }

    /// Re-subscribes this socket's receive CQ to `chan` under `token`,
    /// replacing the stack-default subscription — for event loops that
    /// partition sockets across several channels (one per worker).
    pub fn subscribe(&self, chan: &iwarp::CompletionChannel, token: u64) {
        self.inner.recv_cq.attach_channel(chan, token);
    }

    /// Joins a multicast group (UD sockets only): datagrams sent to the
    /// group address arrive on this socket like unicast ones.
    pub fn join_multicast(&self, group: Addr) -> IwarpResult<()> {
        self.inner.qp.join_multicast(group)
    }

    /// Leaves a multicast group.
    pub fn leave_multicast(&self, group: Addr) {
        self.inner.qp.leave_multicast(group);
    }

    /// Sends `buf` to `dst`. In Write-Record mode this performs the
    /// one-time ring-advertisement handshake with new peers, then places
    /// data one-sided; oversized or unadvertised traffic falls back to
    /// send/recv transparently.
    pub fn send_to(&self, buf: &[u8], dst: Addr) -> IwarpResult<()> {
        let inner = &self.inner;
        let dest = UdDest { addr: dst, qpn: 0 };
        let use_ring = match inner.stack.cfg.mode {
            DgramMode::SendRecv => false,
            DgramMode::WriteRecord => {
                self.ensure_adv(dst)?;
                let mut st = inner.state.lock();
                let ring = st.peers.get_mut(&dst).expect("ensure_adv populated");
                if ring.fallback || buf.len() > ring.slot_size as usize {
                    false
                } else {
                    let slot = ring.next_slot % ring.slots.max(1);
                    ring.next_slot = ring.next_slot.wrapping_add(1);
                    let stag = ring.stag;
                    let to = u64::from(slot) * u64::from(ring.slot_size);
                    drop(st);
                    inner
                        .qp
                        .post_write_record(0, buf, dest, stag, to)?;
                    inner.tel.ring_sends.inc();
                    true
                }
            }
        };
        if !use_ring {
            if inner.stack.cfg.mode == DgramMode::WriteRecord {
                inner.tel.fallback_sends.inc();
            }
            inner.qp.post_send(0, buf, dest)?;
        }
        inner.tel.tx_msgs.inc();
        // Source-side completions are immediate (datagram semantics);
        // drain them so the CQ never overflows.
        while inner.send_cq.poll().is_some() {}
        Ok(())
    }

    /// `sendmmsg` analog: transmits a batch of datagrams with one verbs
    /// doorbell. In SendRecv mode the batch maps to
    /// [`UdQp::post_send_batch`] — under
    /// [`BurstPath::Burst`](iwarp::BurstPath::Burst)
    /// the whole batch leaves as one fabric burst per destination — and
    /// the immediate source-side completions are reaped with batched
    /// [`Cq::poll_into`] rounds. Write-Record mode keeps its stateful
    /// per-peer ring placement and loops [`Self::send_to`]. Returns the
    /// number of datagrams sent.
    pub fn send_many(&self, msgs: &[(&[u8], Addr)]) -> IwarpResult<usize> {
        if msgs.is_empty() {
            return Ok(0);
        }
        let inner = &self.inner;
        if inner.stack.cfg.mode == DgramMode::WriteRecord {
            for (buf, dst) in msgs {
                self.send_to(buf, *dst)?;
            }
            return Ok(msgs.len());
        }
        let wrs: Vec<SendWr> = msgs
            .iter()
            .map(|(buf, dst)| SendWr::new(0, *buf, UdDest { addr: *dst, qpn: 0 }))
            .collect();
        inner.qp.post_send_batch(&wrs)?;
        inner.tel.tx_msgs.add(wrs.len() as u64);
        // Source-side completions are immediate (datagram semantics);
        // reap them in scratch-buffer loads so the CQ never overflows.
        let mut scratch = vec![Cqe::default(); wrs.len().min(64)];
        while inner.send_cq.poll_into(&mut scratch) == scratch.len() {}
        Ok(msgs.len())
    }

    /// `recvmmsg` analog: appends up to `max` ready datagrams to `out` as
    /// `(payload, source)` pairs and returns how many were added. Like
    /// [`Self::recv_from`] this waits up to `timeout`, but only when
    /// *nothing* is deliverable — one completed datagram returns
    /// immediately with whatever else drained alongside it.
    pub fn recv_many(
        &self,
        out: &mut Vec<(Bytes, Addr)>,
        max: usize,
        timeout: Duration,
    ) -> IwarpResult<usize> {
        if max == 0 {
            return Ok(0);
        }
        let deadline = Instant::now() + timeout;
        loop {
            self.pump_batch(max)?;
            let mut n = 0;
            {
                let mut st = self.inner.state.lock();
                while n < max {
                    match st.ready.pop_front() {
                        Some((src, data)) => {
                            out.push((data, src));
                            n += 1;
                        }
                        None => break,
                    }
                }
            }
            if n > 0 {
                return Ok(n);
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(IwarpError::PollTimeout);
            }
            // Block for the first arrival, then loop to batch-drain
            // whatever came with it.
            self.pump(deadline - now)?;
        }
    }

    /// Receives one datagram into `buf`, returning the byte count and the
    /// sender's address. Timeout-based, as datagram-iWARP requires.
    pub fn recv_from(&self, buf: &mut [u8], timeout: Duration) -> IwarpResult<(usize, Addr)> {
        let deadline = Instant::now() + timeout;
        loop {
            if let Some((src, data)) = self.inner.state.lock().ready.pop_front() {
                let n = data.len().min(buf.len());
                buf[..n].copy_from_slice(&data[..n]);
                return Ok((n, src));
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(IwarpError::PollTimeout);
            }
            self.pump(deadline - now)?;
        }
    }

    /// Non-blocking receive: drains any completed work (driving the QP
    /// engine in poll mode) and returns one datagram if available. The
    /// building block for event loops over many sockets.
    pub fn try_recv_from(&self, buf: &mut [u8]) -> IwarpResult<Option<(usize, Addr)>> {
        Ok(self.try_recv_bytes()?.map(|(src, data)| {
            let n = data.len().min(buf.len());
            buf[..n].copy_from_slice(&data[..n]);
            (n, src)
        }))
    }

    /// Zero-copy flavour of [`Self::try_recv_from`]: hands out the ready
    /// datagram as the [`Bytes`] the receive path already produced,
    /// avoiding the copy into a caller buffer. Steady-state consumers
    /// that parse in place (the SIP hot path) use this so a transaction
    /// touches no fresh heap on receive.
    pub fn try_recv_bytes(&self) -> IwarpResult<Option<(Addr, Bytes)>> {
        if let Some(hit) = self.inner.state.lock().ready.pop_front() {
            return Ok(Some(hit));
        }
        self.pump(Duration::ZERO)?;
        Ok(self.inner.state.lock().ready.pop_front())
    }

    /// Ensures we hold a ring advertisement (or fallback verdict) for `dst`.
    fn ensure_adv(&self, dst: Addr) -> IwarpResult<()> {
        let inner = &self.inner;
        if inner.state.lock().peers.contains_key(&dst) {
            return Ok(());
        }
        let dest = UdDest { addr: dst, qpn: 0 };
        let deadline = Instant::now() + inner.stack.cfg.adv_timeout;
        let mut next_request = Instant::now();
        loop {
            {
                let st = inner.state.lock();
                if st.peers.contains_key(&dst) {
                    return Ok(());
                }
            }
            let now = Instant::now();
            if now >= deadline {
                // Peer never advertised (likely SendRecv mode there):
                // remember to use two-sided sends.
                inner.state.lock().peers.insert(
                    dst,
                    PeerRing {
                        stag: 0,
                        slots: 0,
                        slot_size: 0,
                        next_slot: 0,
                        fallback: true,
                    },
                );
                return Ok(());
            }
            if now >= next_request {
                inner.qp.post_send(0, Control::AdvRequest.encode(), dest)?;
                while inner.send_cq.poll().is_some() {}
                next_request = now + Duration::from_millis(100);
            }
            // Pump CQEs while waiting; user data is stashed in `ready`.
            self.pump(Duration::from_millis(20))?;
        }
    }

    /// Processes completions (waiting up to `timeout` for one); any user
    /// datagram is appended to the ready queue. In poll mode this also
    /// drives the QP's receive engine.
    fn pump(&self, timeout: Duration) -> IwarpResult<()> {
        let inner = &self.inner;
        if inner.stack.cfg.qp.poll_mode {
            // Serve anything already completed, then run the engine.
            if let Some(cqe) = inner.recv_cq.poll() {
                return self.on_cqe(cqe);
            }
            inner.qp.progress(timeout);
            while let Some(cqe) = inner.recv_cq.poll() {
                self.on_cqe(cqe)?;
            }
            return Ok(());
        }
        let cqe = match inner.recv_cq.poll_timeout(timeout) {
            Ok(c) => c,
            Err(IwarpError::PollTimeout) => return Ok(()),
            Err(e) => return Err(e),
        };
        self.on_cqe(cqe)
    }

    /// Non-blocking batch pump: drives the poll-mode engine with a burst
    /// budget, then reaps the receive CQ in scratch-buffer loads (one CQ
    /// lock round per load instead of one per completion).
    ///
    /// Each engine drain is capped at the recv-slot ring depth: slots are
    /// only reposted by `on_cqe` below, so a single drain larger than the
    /// ring would land the overflow on an empty RQ and drop it
    /// (`dropped_no_rq`) — something the per-packet path, which reposts
    /// after every datagram, never does.
    fn pump_batch(&self, budget: usize) -> IwarpResult<()> {
        let inner = &self.inner;
        let budget = budget.max(1);
        let mut scratch = vec![Cqe::default(); budget.min(64)];
        let mut remaining = budget;
        loop {
            if inner.stack.cfg.qp.poll_mode {
                let chunk = remaining.min(inner.slots.max(1));
                inner.qp.progress_burst(chunk, Duration::ZERO);
            }
            let mut reaped = 0usize;
            loop {
                let n = inner.recv_cq.poll_into(&mut scratch);
                for cqe in &scratch[..n] {
                    self.on_cqe(cqe.clone())?;
                }
                reaped += n;
                if n < scratch.len() {
                    break;
                }
            }
            if !inner.stack.cfg.qp.poll_mode || reaped == 0 {
                return Ok(());
            }
            remaining = remaining.saturating_sub(reaped);
            if remaining == 0 {
                return Ok(());
            }
        }
    }

    fn on_cqe(&self, cqe: Cqe) -> IwarpResult<()> {
        let inner = &self.inner;
        match (cqe.opcode, cqe.status) {
            (CqeOpcode::Recv, CqeStatus::Success) => {
                let slot = cqe.wr_id as usize;
                let off = (slot * inner.slot_size) as u64;
                let data = inner.slot_mr.read_vec(off, cqe.byte_len as usize)?;
                self.repost(slot)?;
                let src = cqe.src.expect("UD recv carries source").addr;
                match Control::decode(&data) {
                    Some(Control::AdvRequest) => {
                        let reply = match (&inner.ring_mr, inner.stack.cfg.mode) {
                            (Some(ring), DgramMode::WriteRecord) => Control::AdvReply {
                                stag: ring.stag(),
                                slots: inner.slots as u32,
                                slot_size: inner.slot_size as u32,
                            },
                            _ => Control::AdvReply {
                                stag: 0,
                                slots: 0,
                                slot_size: 0,
                            },
                        };
                        inner
                            .qp
                            .post_send(0, reply.encode(), UdDest { addr: src, qpn: 0 })?;
                        while inner.send_cq.poll().is_some() {}
                    }
                    Some(Control::AdvReply {
                        stag,
                        slots,
                        slot_size,
                    }) => {
                        inner.state.lock().peers.insert(
                            src,
                            PeerRing {
                                stag,
                                slots,
                                slot_size,
                                next_slot: 0,
                                fallback: slots == 0,
                            },
                        );
                    }
                    None => {
                        inner.tel.rx_msgs.inc();
                        inner
                            .state
                            .lock()
                            .ready
                            .push_back((src, Bytes::from(data)));
                    }
                }
            }
            (CqeOpcode::Recv, CqeStatus::RecvTooSmall) => {
                let slot = cqe.wr_id as usize;
                self.repost(slot)?;
                inner.state.lock().stats.oversized_dropped += 1;
                inner.tel.oversized_dropped.inc();
            }
            (CqeOpcode::Recv, CqeStatus::Expired) => {
                let slot = cqe.wr_id as usize;
                self.repost(slot)?;
                inner.state.lock().stats.expired += 1;
                inner.tel.expired.inc();
            }
            (CqeOpcode::WriteRecord, status) => {
                let info = cqe.write_record.expect("write-record info");
                let src = cqe.src.expect("source").addr;
                let ring = inner.ring_mr.as_ref().expect("ring registered");
                let mut st = inner.state.lock();
                match status {
                    CqeStatus::Success => {
                        let data =
                            ring.read_vec(info.base_to, info.total_len as usize)?;
                        inner.tel.rx_msgs.inc();
                        st.ready.push_back((src, Bytes::from(data)));
                    }
                    CqeStatus::Partial => {
                        st.stats.partial_messages += 1;
                        inner.tel.partial_messages.inc();
                        if inner.stack.cfg.deliver_partial {
                            // Deliver the longest valid prefix.
                            let prefix = info
                                .validity
                                .runs()
                                .first()
                                .filter(|r| r.start == 0)
                                .map_or(0, |r| r.end);
                            if prefix > 0 {
                                let data = ring.read_vec(info.base_to, prefix as usize)?;
                                st.ready.push_back((src, Bytes::from(data)));
                            }
                        }
                    }
                    _ => {}
                }
            }
            _ => {}
        }
        Ok(())
    }

    fn repost(&self, slot: usize) -> IwarpResult<()> {
        let inner = &self.inner;
        inner.qp.post_recv(RecvWr {
            wr_id: slot as u64,
            mr: inner.slot_mr.clone(),
            offset: (slot * inner.slot_size) as u64,
            len: inner.slot_size as u32,
        })
    }
}

impl Drop for DgramSocket {
    fn drop(&mut self) {
        self.inner.stack.release_fd(self.inner.fd);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stack::{SocketConfig, SocketStack};
    use simnet::{Fabric, NodeId};

    const TO: Duration = Duration::from_secs(5);

    fn stacks(fab: &Fabric, cfg: SocketConfig) -> (SocketStack, SocketStack) {
        (
            SocketStack::with_config(fab, NodeId(0), Default::default(), cfg.clone()),
            SocketStack::with_config(fab, NodeId(1), Default::default(), cfg),
        )
    }

    #[test]
    fn sendrecv_mode_roundtrip() {
        let fab = Fabric::loopback();
        let (sa, sb) = stacks(&fab, SocketConfig::default());
        let a = sa.dgram().unwrap();
        let b = sb.dgram_bound(7000).unwrap();
        a.send_to(b"datagram via shim", b.local_addr()).unwrap();
        let mut buf = [0u8; 64];
        let (n, src) = b.recv_from(&mut buf, TO).unwrap();
        assert_eq!(&buf[..n], b"datagram via shim");
        assert_eq!(src, a.local_addr());
    }

    #[test]
    fn bidirectional_exchange() {
        let fab = Fabric::loopback();
        let (sa, sb) = stacks(&fab, SocketConfig::default());
        let a = sa.dgram().unwrap();
        let b = sb.dgram().unwrap();
        a.send_to(b"ping", b.local_addr()).unwrap();
        let mut buf = [0u8; 16];
        let (n, src) = b.recv_from(&mut buf, TO).unwrap();
        assert_eq!(&buf[..n], b"ping");
        b.send_to(b"pong", src).unwrap();
        let (n, _) = a.recv_from(&mut buf, TO).unwrap();
        assert_eq!(&buf[..n], b"pong");
    }

    #[test]
    fn write_record_mode_roundtrip() {
        let fab = Fabric::loopback();
        let cfg = SocketConfig {
            mode: DgramMode::WriteRecord,
            ..SocketConfig::default()
        };
        let (sa, sb) = stacks(&fab, cfg);
        let a = sa.dgram().unwrap();
        let b = sb.dgram_bound(7001).unwrap();
        // Receiver must be pumping for the adv handshake to resolve; spawn
        // the receive first.
        std::thread::scope(|s| {
            let recv = s.spawn(|| {
                let mut buf = [0u8; 128];
                b.recv_from(&mut buf, TO).map(|(n, src)| (buf[..n].to_vec(), src))
            });
            std::thread::sleep(Duration::from_millis(20));
            a.send_to(b"one-sided datagram", b.local_addr()).unwrap();
            let (data, src) = recv.join().unwrap().unwrap();
            assert_eq!(&data[..], b"one-sided datagram");
            assert_eq!(src, a.local_addr());
        });
        // Second send reuses the cached advertisement (no handshake).
        a.send_to(b"again", b.local_addr()).unwrap();
        let mut buf = [0u8; 16];
        let (n, _) = b.recv_from(&mut buf, TO).unwrap();
        assert_eq!(&buf[..n], b"again");
    }

    #[test]
    fn write_record_sender_to_sendrecv_receiver_falls_back() {
        let fab = Fabric::loopback();
        let wr_cfg = SocketConfig {
            mode: DgramMode::WriteRecord,
            adv_timeout: Duration::from_millis(300),
            ..SocketConfig::default()
        };
        let sa = SocketStack::with_config(&fab, NodeId(0), Default::default(), wr_cfg);
        let sb = SocketStack::new(&fab, NodeId(1));
        let a = sa.dgram().unwrap();
        let b = sb.dgram().unwrap();
        std::thread::scope(|s| {
            let recv = s.spawn(|| {
                let mut buf = [0u8; 64];
                b.recv_from(&mut buf, TO).map(|(n, _)| buf[..n].to_vec())
            });
            a.send_to(b"fallback works", b.local_addr()).unwrap();
            assert_eq!(recv.join().unwrap().unwrap(), b"fallback works");
        });
    }

    #[test]
    fn recv_timeout_expires() {
        let fab = Fabric::loopback();
        let (sa, _sb) = stacks(&fab, SocketConfig::default());
        let a = sa.dgram().unwrap();
        let mut buf = [0u8; 8];
        assert_eq!(
            a.recv_from(&mut buf, Duration::from_millis(30)).unwrap_err(),
            IwarpError::PollTimeout
        );
    }

    #[test]
    fn oversized_datagram_dropped_at_receiver() {
        let fab = Fabric::loopback();
        let (sa, sb) = stacks(&fab, SocketConfig::default());
        let a = sa.dgram().unwrap();
        let b = sb.dgram().unwrap();
        let big = vec![1u8; 20 * 1024]; // > 8 KiB slot
        a.send_to(&big, b.local_addr()).unwrap();
        a.send_to(b"small follows", b.local_addr()).unwrap();
        let mut buf = [0u8; 64];
        let (n, _) = b.recv_from(&mut buf, TO).unwrap();
        assert_eq!(&buf[..n], b"small follows");
        assert_eq!(b.stats().oversized_dropped, 1);
    }

    #[test]
    fn poll_mode_sockets_roundtrip() {
        // Poll-mode sockets spawn no engine threads at all.
        let fab = Fabric::loopback();
        let cfg = SocketConfig {
            qp: iwarp::QpConfig {
                poll_mode: true,
                ..iwarp::QpConfig::default()
            },
            ..SocketConfig::default()
        };
        let (sa, sb) = stacks(&fab, cfg);
        let a = sa.dgram().unwrap();
        let b = sb.dgram().unwrap();
        a.send_to(b"poll mode", b.local_addr()).unwrap();
        let mut buf = [0u8; 16];
        let (n, src) = b.recv_from(&mut buf, TO).unwrap();
        assert_eq!(&buf[..n], b"poll mode");
        b.send_to(b"echo", src).unwrap();
        let (n, _) = a.recv_from(&mut buf, TO).unwrap();
        assert_eq!(&buf[..n], b"echo");
    }

    #[test]
    fn poll_mode_write_record_roundtrip() {
        let fab = Fabric::loopback();
        let cfg = SocketConfig {
            mode: DgramMode::WriteRecord,
            qp: iwarp::QpConfig {
                poll_mode: true,
                ..iwarp::QpConfig::default()
            },
            ..SocketConfig::default()
        };
        let (sa, sb) = stacks(&fab, cfg);
        let a = sa.dgram().unwrap();
        let b = sb.dgram().unwrap();
        std::thread::scope(|s| {
            let recv = s.spawn(|| {
                let mut buf = [0u8; 64];
                b.recv_from(&mut buf, TO).map(|(n, _)| buf[..n].to_vec())
            });
            std::thread::sleep(Duration::from_millis(20));
            a.send_to(b"one-sided poll", b.local_addr()).unwrap();
            // The sender must keep pumping its own socket so the adv
            // handshake resolves (send_to does this internally).
            assert_eq!(recv.join().unwrap().unwrap(), b"one-sided poll");
        });
    }

    #[test]
    fn many_senders_one_socket() {
        let fab = Fabric::loopback();
        let server_stack = SocketStack::new(&fab, NodeId(0));
        let server = server_stack.dgram_bound(9100).unwrap();
        let dst = server.local_addr();
        let mut clients = Vec::new();
        for i in 1..=8u16 {
            let st = SocketStack::new(&fab, NodeId(i));
            let c = st.dgram().unwrap();
            c.send_to(format!("client-{i}").as_bytes(), dst).unwrap();
            clients.push((st, c));
        }
        let mut seen = std::collections::HashSet::new();
        let mut buf = [0u8; 64];
        for _ in 0..8 {
            let (n, src) = server.recv_from(&mut buf, TO).unwrap();
            assert!(std::str::from_utf8(&buf[..n]).unwrap().starts_with("client-"));
            assert!(seen.insert(src));
        }
    }
}
