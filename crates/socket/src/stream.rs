//! Stream sockets over RC queue pairs.
//!
//! TCP-socket semantics through the shim: `send` may be any size (the shim
//! segments into verbs messages), `recv` returns whatever bytes are
//! available next, and message boundaries dissolve at the receiver —
//! applications written against stream sockets work unchanged.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use iwarp_telemetry::Telemetry;
use parking_lot::Mutex;
use simnet::Addr;

use iwarp::qp::RcListener;
use iwarp::wr::RecvWr;
use iwarp::{Access, Cq, CqeOpcode, CqeStatus, IwarpError, IwarpResult, MemoryRegion, RcQp};

use crate::stack::{FdKind, FdSlot, StackInner};

struct StreamInner {
    fd: FdSlot,
    stack: Arc<StackInner>,
    qp: RcQp,
    send_cq: Cq,
    recv_cq: Cq,
    slot_mr: MemoryRegion,
    slot_size: usize,
    rx: Mutex<VecDeque<u8>>,
    /// The fabric's domain, counted into under `socket.stream.*`.
    tel: Telemetry,
    /// Accounting for this socket's buffer pool (drives Fig. 11).
    _mem: Option<iwarp_common::memacct::MemScope>,
}

/// A TCP-like socket whose data path is RC iWARP.
pub struct StreamSocket {
    inner: Arc<StreamInner>,
}

impl StreamSocket {
    pub(crate) fn connect(stack: Arc<StackInner>, remote: Addr) -> IwarpResult<Self> {
        let cfg = &stack.cfg;
        let depth = cfg.recv_slots * 2 + 32;
        let send_cq = Cq::new(depth);
        let recv_cq = Cq::new(depth);
        let qp = stack
            .device
            .rc_connect(remote, &send_cq, &recv_cq, cfg.qp.clone())?;
        Self::build(stack, qp, send_cq, recv_cq)
    }

    pub(crate) fn build(
        stack: Arc<StackInner>,
        qp: RcQp,
        send_cq: Cq,
        recv_cq: Cq,
    ) -> IwarpResult<Self> {
        let cfg = &stack.cfg;
        let slot_mr = stack
            .device
            .register(cfg.recv_slots * cfg.slot_size, Access::Local);
        for i in 0..cfg.recv_slots {
            qp.post_recv(RecvWr {
                wr_id: i as u64,
                mr: slot_mr.clone(),
                offset: (i * cfg.slot_size) as u64,
                len: cfg.slot_size as u32,
            })?;
        }
        let fd = stack.alloc_fd(FdKind::Stream);
        let mem = stack
            .device
            .mem()
            .map(|r| r.track("socket_buffers", slot_mr.len() as u64));
        let tel = stack.device.telemetry().clone();
        Ok(Self {
            inner: Arc::new(StreamInner {
                fd,
                slot_size: cfg.slot_size,
                stack,
                qp,
                send_cq,
                recv_cq,
                slot_mr,
                rx: Mutex::new(VecDeque::new()),
                tel,
                _mem: mem,
            }),
        })
    }

    /// The shim's file-descriptor number.
    #[must_use]
    pub fn fd(&self) -> u32 {
        self.inner.fd.fd
    }

    /// Local endpoint address.
    #[must_use]
    pub fn local_addr(&self) -> Addr {
        self.inner.qp.local_addr()
    }

    /// Remote endpoint address.
    #[must_use]
    pub fn peer_addr(&self) -> Addr {
        self.inner.qp.peer_addr()
    }

    /// Writes all of `buf` to the stream (segmenting into verbs messages
    /// no larger than the peer's receive slots).
    pub fn send(&self, buf: &[u8]) -> IwarpResult<()> {
        let inner = &self.inner;
        for chunk in buf.chunks(inner.slot_size.max(1)) {
            inner.qp.post_send(0, chunk)?;
            inner.tel.socket().stream_tx_chunks.inc();
            while inner.send_cq.poll().is_some() {}
        }
        inner.tel.socket().stream_tx_bytes.add(buf.len() as u64);
        Ok(())
    }

    /// Reads up to `buf.len()` bytes, blocking at most `timeout`.
    pub fn recv(&self, buf: &mut [u8], timeout: Duration) -> IwarpResult<usize> {
        let inner = &self.inner;
        let deadline = Instant::now() + timeout;
        loop {
            {
                let mut rx = inner.rx.lock();
                if !rx.is_empty() {
                    let n = rx.len().min(buf.len());
                    let (a, b) = rx.as_slices();
                    let ta = a.len().min(n);
                    buf[..ta].copy_from_slice(&a[..ta]);
                    if ta < n {
                        buf[ta..n].copy_from_slice(&b[..n - ta]);
                    }
                    rx.drain(..n);
                    return Ok(n);
                }
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(IwarpError::PollTimeout);
            }
            let cqe = if inner.stack.cfg.qp.poll_mode {
                match inner.recv_cq.poll() {
                    Some(c) => c,
                    None => {
                        inner
                            .qp
                            .progress((deadline - now).min(Duration::from_millis(20)));
                        continue;
                    }
                }
            } else {
                match inner.recv_cq.poll_timeout(deadline - now) {
                    Ok(c) => c,
                    Err(IwarpError::PollTimeout) => continue,
                    Err(e) => return Err(e),
                }
            };
            match (cqe.opcode, cqe.status) {
                (CqeOpcode::Recv, CqeStatus::Success) => {
                    let slot = cqe.wr_id as usize;
                    let off = (slot * inner.slot_size) as u64;
                    let data = inner.slot_mr.read_vec(off, cqe.byte_len as usize)?;
                    // Repost may fail once the QP has entered the error
                    // state (peer closed); completions already queued must
                    // still be served, so the failure is not propagated.
                    let _ = inner.qp.post_recv(RecvWr {
                        wr_id: slot as u64,
                        mr: inner.slot_mr.clone(),
                        offset: off,
                        len: inner.slot_size as u32,
                    });
                    inner.tel.socket().stream_rx_bytes.add(data.len() as u64);
                    inner.rx.lock().extend(data);
                }
                (CqeOpcode::Recv, CqeStatus::Flushed) => {
                    return Err(IwarpError::Net(simnet::NetError::Closed));
                }
                _ => {}
            }
        }
    }

    /// Non-blocking receive: drains any completed work (driving the QP
    /// engine in poll mode) and returns bytes if available. The building
    /// block for event loops over many connections.
    pub fn try_recv(&self, buf: &mut [u8]) -> IwarpResult<Option<usize>> {
        let inner = &self.inner;
        if inner.stack.cfg.qp.poll_mode {
            inner.qp.progress(Duration::ZERO);
        }
        loop {
            {
                let mut rx = inner.rx.lock();
                if !rx.is_empty() {
                    let n = rx.len().min(buf.len());
                    let (a, b) = rx.as_slices();
                    let ta = a.len().min(n);
                    buf[..ta].copy_from_slice(&a[..ta]);
                    if ta < n {
                        buf[ta..n].copy_from_slice(&b[..n - ta]);
                    }
                    rx.drain(..n);
                    return Ok(Some(n));
                }
            }
            let Some(cqe) = inner.recv_cq.poll() else {
                return Ok(None);
            };
            match (cqe.opcode, cqe.status) {
                (CqeOpcode::Recv, CqeStatus::Success) => {
                    let slot = cqe.wr_id as usize;
                    let off = (slot * inner.slot_size) as u64;
                    let data = inner.slot_mr.read_vec(off, cqe.byte_len as usize)?;
                    let _ = inner.qp.post_recv(RecvWr {
                        wr_id: slot as u64,
                        mr: inner.slot_mr.clone(),
                        offset: off,
                        len: inner.slot_size as u32,
                    });
                    inner.tel.socket().stream_rx_bytes.add(data.len() as u64);
                    inner.rx.lock().extend(data);
                }
                (CqeOpcode::Recv, CqeStatus::Flushed) => {
                    return Err(IwarpError::Net(simnet::NetError::Closed));
                }
                _ => {}
            }
        }
    }

    /// Reads exactly `buf.len()` bytes.
    pub fn recv_exact(&self, buf: &mut [u8], timeout: Duration) -> IwarpResult<()> {
        let deadline = Instant::now() + timeout;
        let mut filled = 0;
        while filled < buf.len() {
            let now = Instant::now();
            if now >= deadline {
                return Err(IwarpError::PollTimeout);
            }
            filled += self.recv(&mut buf[filled..], deadline - now)?;
        }
        Ok(())
    }
}

impl Drop for StreamSocket {
    fn drop(&mut self) {
        self.inner.stack.release_fd(self.inner.fd);
    }
}

/// A listening stream socket.
pub struct StreamListener {
    fd: FdSlot,
    stack: Arc<StackInner>,
    listener: RcListener,
}

impl StreamListener {
    pub(crate) fn bind(stack: Arc<StackInner>, port: u16) -> IwarpResult<Self> {
        let listener = stack.device.rc_listen(port)?;
        let fd = stack.alloc_fd(FdKind::Listener);
        Ok(Self {
            fd,
            stack,
            listener,
        })
    }

    /// The shim's file-descriptor number.
    #[must_use]
    pub fn fd(&self) -> u32 {
        self.fd.fd
    }

    /// The listening address.
    #[must_use]
    pub fn local_addr(&self) -> Addr {
        self.listener.local_addr()
    }

    /// Accepts one incoming connection.
    pub fn accept(&self, timeout: Duration) -> IwarpResult<StreamSocket> {
        let cfg = &self.stack.cfg;
        let depth = cfg.recv_slots * 2 + 32;
        let send_cq = Cq::new(depth);
        let recv_cq = Cq::new(depth);
        let qp = self
            .listener
            .accept(timeout, &send_cq, &recv_cq, cfg.qp.clone())?;
        StreamSocket::build(Arc::clone(&self.stack), qp, send_cq, recv_cq)
    }
}

impl Drop for StreamListener {
    fn drop(&mut self) {
        self.stack.release_fd(self.fd);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stack::SocketStack;
    use simnet::{Fabric, NodeId};

    const TO: Duration = Duration::from_secs(5);

    #[test]
    fn stream_roundtrip() {
        let fab = Fabric::loopback();
        let sa = SocketStack::new(&fab, NodeId(0));
        let sb = SocketStack::new(&fab, NodeId(1));
        let listener = sb.listen(8000).unwrap();
        std::thread::scope(|s| {
            let srv = s.spawn(|| listener.accept(TO).unwrap());
            let client = sa.connect(Addr::new(1, 8000)).unwrap();
            let server = srv.join().unwrap();
            client.send(b"stream hello").unwrap();
            let mut buf = [0u8; 12];
            server.recv_exact(&mut buf, TO).unwrap();
            assert_eq!(&buf, b"stream hello");
            server.send(b"reply").unwrap();
            let mut buf = [0u8; 5];
            client.recv_exact(&mut buf, TO).unwrap();
            assert_eq!(&buf, b"reply");
        });
    }

    #[test]
    fn message_boundaries_dissolve() {
        // Two sends, one large recv: byte-stream semantics.
        let fab = Fabric::loopback();
        let sa = SocketStack::new(&fab, NodeId(0));
        let sb = SocketStack::new(&fab, NodeId(1));
        let listener = sb.listen(8001).unwrap();
        std::thread::scope(|s| {
            let srv = s.spawn(|| listener.accept(TO).unwrap());
            let client = sa.connect(Addr::new(1, 8001)).unwrap();
            let server = srv.join().unwrap();
            client.send(b"part1-").unwrap();
            client.send(b"part2").unwrap();
            let mut buf = [0u8; 11];
            server.recv_exact(&mut buf, TO).unwrap();
            assert_eq!(&buf, b"part1-part2");
        });
    }

    #[test]
    fn large_transfer_segmented() {
        let fab = Fabric::loopback();
        let sa = SocketStack::new(&fab, NodeId(0));
        let sb = SocketStack::new(&fab, NodeId(1));
        let listener = sb.listen(8002).unwrap();
        std::thread::scope(|s| {
            let srv = s.spawn(|| listener.accept(TO).unwrap());
            let client = sa.connect(Addr::new(1, 8002)).unwrap();
            let server = srv.join().unwrap();
            let data: Vec<u8> = (0..100_000u32).map(|i| (i % 251) as u8).collect();
            let expect = data.clone();
            s.spawn(move || client.send(&data).unwrap());
            let mut got = vec![0u8; expect.len()];
            server.recv_exact(&mut got, TO).unwrap();
            assert_eq!(got, expect);
        });
    }

    #[test]
    fn poll_mode_stream_roundtrip() {
        let fab = Fabric::loopback();
        let cfg = crate::stack::SocketConfig {
            qp: iwarp::QpConfig {
                poll_mode: true,
                ..iwarp::QpConfig::default()
            },
            ..crate::stack::SocketConfig::default()
        };
        let sa = SocketStack::with_config(&fab, NodeId(0), Default::default(), cfg.clone());
        let sb = SocketStack::with_config(&fab, NodeId(1), Default::default(), cfg);
        let listener = sb.listen(8010).unwrap();
        std::thread::scope(|s| {
            let srv = s.spawn(|| listener.accept(TO).unwrap());
            let client = sa.connect(Addr::new(1, 8010)).unwrap();
            let server = srv.join().unwrap();
            client.send(b"threads: zero").unwrap();
            let mut buf = [0u8; 13];
            server.recv_exact(&mut buf, TO).unwrap();
            assert_eq!(&buf, b"threads: zero");
            server.send(b"ack").unwrap();
            let mut buf = [0u8; 3];
            client.recv_exact(&mut buf, TO).unwrap();
            assert_eq!(&buf, b"ack");
        });
    }

    #[test]
    fn connect_to_nothing_fails() {
        let fab = Fabric::loopback();
        let sa = SocketStack::new(&fab, NodeId(0));
        assert!(sa.connect(Addr::new(9, 9)).is_err());
    }
}
